"""Output checks made apart from psikit.

Every check recomputes what it needs by an independent route and returns a
list of problems (empty when the output is right):

* Mersenne verdicts against the known exponent list (OEIS A000043), written
  into ``workloads.MERSENNE_EXPONENTS``;
* modular psi values against a 2x2 two-step matrix power mod m;
* polynomial and coefficient-table text, parsed with sympy, against the
  explicit binomial sum and against the expansion identity at seeded integer
  points;
* records: ``ok`` and ``matches_catalogue`` true, the index ranges complete,
  ``mu`` residues in the +2/0/-2 pattern.

No check compares against stored copies of earlier output.
"""

from __future__ import annotations

import functools
import json
import random
from fractions import Fraction
from math import comb
from pathlib import PurePath

from workloads import MERSENNE_EXPONENTS, is_prime

POINTS = 3  # seeded integer points per coefficient table
SMALL_P = 127  # residues at exponents up to this are recomputed in full


# -- independent arithmetic ----------------------------------------------------


def psi_mod_matrix(a: int, b: int, n: int, m: int | None) -> int:
    """psi(a, b, n) (mod m, or exactly when m is None) by a matrix power.

    With d = 2a - b the recurrence takes two steps at a time:
    (psi(2j+2), psi(2j+3)) = T (psi(2j), psi(2j+1)), T = [[-a, d], [-a, d - a]],
    so (psi(2j), psi(2j+1)) = T^j (2, 1).  T^j is built left to right by
    squaring and multiplying by T.
    """
    red = (lambda v: v % m) if m is not None else (lambda v: v)
    a, d = red(a), red(2 * a - b)
    e = red(d - a)
    p, q, r, s = 1, 0, 0, 1  # T^0
    j, odd = divmod(n, 2)
    for bit in bin(j)[2:] if j else "":
        qr = q * r
        p, q, r, s = red(p * p + qr), red(q * (p + s)), red(r * (p + s)), red(s * s + qr)
        if bit == "1":
            p, q, r, s = red(-a * (p + q)), red(p * d + q * e), red(-a * (r + s)), red(r * d + s * e)
    return red(2 * r + s) if odd else red(2 * p + q)


def _binomial_weights(n: int) -> list[int]:
    """n/(n-i) * C(n-i, i) for i = 0 .. floor(n/2), all integers for n >= 1."""
    weights = []
    for i in range(n // 2 + 1):
        w = Fraction(n, n - i) * comb(n - i, i)
        if w.denominator != 1:
            raise ArithmeticError(f"non-integral weight at n={n}, i={i}")
        weights.append(int(w))
    return weights


@functools.cache
def _sympy() -> tuple:
    """sympy, its parser and the symbols psikit's printed polynomials use.
    Imported on first use: a run that checks no polynomial text skips it."""
    import sympy
    from sympy.parsing.sympy_parser import parse_expr

    symbols = {name: sympy.Symbol(name) for name in ("a", "b", "alpha", "beta")}
    return sympy, parse_expr, symbols


def parse_poly(text: str, ring):
    """psikit's ``2*a^3 - b`` text as an element of a sympy polynomial ring."""
    _, parse_expr, symbols = _sympy()
    return ring.from_expr(parse_expr(text.replace("^", "**"), local_dict=symbols))


def _eval(poly, point: tuple[int, ...]) -> int:
    total = 0
    for monom, coeff in poly.items():
        term = int(coeff)
        for value, exp in zip(point, monom):
            if exp:
                term *= value**exp
        total += term
    return total


# -- record helpers --------------------------------------------------------------


def _records(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _expected_verdict(p: int) -> str:
    return "prime" if p in MERSENNE_EXPONENTS else "composite"


def _mu_pattern(mu: int, m: int) -> int:
    return {0: 2, 1: 0, 2: m - 2, 3: 0}[mu % 4]


def check_report(rec: dict) -> list[str]:
    """One Mersenne test report, whatever produced it."""
    method, p = rec.get("method"), rec.get("p")
    if not isinstance(p, int) or not is_prime(p):
        return [f"report has bad exponent {p!r}"]
    m = (1 << p) - 1
    res = [int(r) for r in rec.get("residues") or []]
    where = f"{method} p={p}"
    problems = []
    if any(not 0 <= r < m for r in res):
        problems.append(f"{where}: residue out of range")
    if method in ("ll", "psi"):
        if rec.get("verdict") != _expected_verdict(p):
            problems.append(f"{where}: verdict {rec.get('verdict')}, expected {_expected_verdict(p)}")
        if len(res) != 1 or (res[0] == 0) != (p in MERSENNE_EXPONENTS):
            problems.append(f"{where}: residue {res} disagrees with the primality of 2^p-1")
        if method == "psi" and p <= SMALL_P and res != [psi_mod_matrix(1, 4, 1 << (p - 1), m)]:
            problems.append(f"{where}: residue differs from the matrix power")
    elif method == "composite":
        n = 1 << (p - 1)
        expected = [psi_mod_matrix(1, 4, n - 1, m), psi_mod_matrix(1, 4, n + 1, m)]
        if res != expected:
            problems.append(f"{where}: residues {res}, expected {expected}")
        verdict = "composite" if 0 in expected else "inconclusive"
        if rec.get("verdict") != verdict:
            problems.append(f"{where}: verdict {rec.get('verdict')}, expected {verdict}")
    elif method == "mu":
        if p <= SMALL_P:
            n = 1 << (p - 1)
            if res != [psi_mod_matrix(1, 4, n * k, m) for k in range(1, len(res) + 1)]:
                problems.append(f"{where}: residues differ from the matrix power")
        holds = bool(res) and all(r == _mu_pattern(k, m) for k, r in enumerate(res, 1))
        if p in MERSENNE_EXPONENTS and not holds:
            problems.append(f"{where}: residues break the +2/0/-2 pattern at a prime")
        verdict = "condition-holds" if holds else "condition-fails"
        if rec.get("verdict") != verdict:
            problems.append(f"{where}: verdict {rec.get('verdict')}, expected {verdict}")
    elif method == "ab":
        # Both layer ratios equal closed forms, observed for p = 5, 7, 11, 13.
        ratios = [int(r) for r in rec.get("ratios") or []]
        expected = [m, psi_mod_matrix(1, 4, 1 << (p - 1), None)]
        if p <= 13 and ratios != expected:
            problems.append(f"{where}: ratios differ from 2^p-1 and psi(1,4,2^(p-1))")
        if rec.get("verdict") != _expected_verdict(p):
            problems.append(f"{where}: verdict {rec.get('verdict')}, expected {_expected_verdict(p)}")
    elif method in ("sum", "necessary"):
        if p in MERSENNE_EXPONENTS and rec.get("verdict") != "condition-holds":
            problems.append(f"{where}: necessary condition fails at a prime")
    else:
        problems.append(f"unknown method {method!r}")
    return problems


def _flags_ok(rec: dict) -> list[str]:
    bad = [k for k in ("ok", "matches_catalogue") if k in rec and rec[k] is not True]
    return [f"record {rec.get('command')} {rec.get('name', rec.get('n', ''))}: {k} is not true"
            for k in bad]


# -- checks per operation kind -----------------------------------------------------


def check_mersenne_test(op, out, rng):
    recs = _records(out["stdout"])
    if len(recs) != 1:
        return [f"expected one report, got {len(recs)}"]
    rec = recs[0]
    if rec.get("method") != op["method"] or rec.get("p") != op["p"]:
        return [f"report is for {rec.get('method')} p={rec.get('p')}"]
    return check_report(rec)


def check_mersenne_scan(op, out, rng):
    recs = _records(out["stdout"])
    expected = [p for p in range(max(op["pmin"], 5), op["pmax"] + 1) if is_prime(p)]
    if [r.get("p") for r in recs] != expected:
        return ["scan does not cover exactly the prime exponents of its range"]
    problems = []
    for rec in recs:
        problems += check_report(rec)
    return problems


def check_psi_ladder(op, out, rng):
    recs = _records(out["stdout"])
    if len(recs) != 1:
        return [f"expected one record, got {len(recs)}"]
    rec = recs[0]
    echo = [rec.get(k) for k in ("a", "b", "n", "mod")]
    if echo != [str(op[k]) for k in ("a", "b", "n", "mod")]:
        return ["ladder record does not echo its inputs"]
    expected = psi_mod_matrix(op["a"], op["b"], op["n"], op["mod"])
    if rec.get("value") != str(expected):
        return [f"ladder value differs from the matrix power (mod {op['mod'].bit_length()}-bit m)"]
    return []


def check_psi_poly(op, out, rng):
    recs = _records(out["stdout"])
    if len(recs) != 1 or recs[0].get("n") != op["n"]:
        return ["expected one psi-poly record for the requested n"]
    sympy = _sympy()[0]
    ring, a, b = sympy.ring("a,b", sympy.ZZ)
    n, m = op["n"], op["n"] // 2
    expected = sum(
        (w * (-a) ** i * (2 * a - b) ** (m - i) for i, w in enumerate(_binomial_weights(n))),
        ring.zero,
    )
    got = parse_poly(recs[0]["poly"], ring)
    problems = []
    if got != expected:
        problems.append(f"psi poly n={n} differs from the explicit binomial sum")
    # psi(a, b, n) at seeded integer points against the matrix power.
    for _ in range(POINTS):
        av, bv = rng.randint(-50, 50), rng.randint(-50, 50)
        if _eval(got, (av, bv)) != psi_mod_matrix(av, bv, n, None):
            problems.append(f"psi poly n={n} wrong at a={av}, b={bv}")
            break
    return problems


def _theta_rows(n: int, point: tuple[int, int, int, int], ring, theta) -> list[int]:
    """[theta^r] psi(a - alpha*theta, b - beta*theta, n) for r = 0 .. n//2, from
    the explicit binomial sum at one integer point (a, b, alpha, beta)."""
    av, bv, alv, bev = point
    a_t = av - alv * theta
    d_t = 2 * a_t - (bv - bev * theta)
    m = n // 2
    total = ring.zero
    for i, w in enumerate(_binomial_weights(n)):
        total += w * (-a_t) ** i * d_t ** (m - i)
    coeffs = dict(total.items())
    return [int(coeffs.get((r,), 0)) for r in range(m + 1)]


def check_coeff_table(op, out, rng):
    recs = _records(out["stdout"])
    if [r.get("n") for r in recs] != list(range(op["nmin"], op["nmax"] + 1)):
        return ["coeff table does not cover the requested range"]
    sympy = _sympy()[0]
    ring4 = sympy.ring("a,alpha,b,beta", sympy.ZZ)[0]
    ring1, theta = sympy.ring("theta", sympy.ZZ)
    problems = []
    for rec in recs:
        n, m = rec["n"], rec["n"] // 2
        entries = rec.get("entries") or []
        if len(entries) != m + 1:
            problems.append(f"n={n}: {len(entries)} entries, expected {m + 1}")
            continue
        rows = [parse_poly(text, ring4) for text in entries]
        for _ in range(POINTS):
            while True:
                x, y, av, bv, alv, bev = (rng.randint(-30, 30) for _ in range(6))
                if bev * av - alv * bv and x + y:
                    break
            vals = [_eval(row, (av, alv, bv, bev)) for row in rows]
            if vals != _theta_rows(n, (av, bv, alv, bev), ring1, theta):
                problems.append(f"n={n}: coefficients differ from the binomial sum")
                break
            power_sum, rem = divmod(x**n + y**n, (x + y) ** (n % 2))
            q1 = alv * x * x + bev * x * y + alv * y * y
            q2 = av * x * x + bv * x * y + av * y * y
            lhs = (bev * av - alv * bv) ** m * power_sum
            rhs = sum(v * q1 ** (m - r) * q2**r for r, v in enumerate(vals))
            if rem or lhs != rhs:
                problems.append(f"n={n}: expansion identity fails at a seeded point")
                break
    return problems


def check_verify(op, out, rng):
    recs = _records(out["stdout"])
    start = 2 if op["suite"] == "powersums" else 1
    if [(r.get("suite"), r.get("n")) for r in recs] != [
        (op["suite"], n) for n in range(start, op["nmax"] + 1)
    ]:
        return [f"verify {op['suite']} does not cover n = {start}..{op['nmax']}"]
    return [p for rec in recs for p in _flags_ok(rec)]


def check_bridges(op, out, rng):
    recs = _records(out["stdout"])
    names = [r.get("name") for r in recs]
    if not recs or len(set(names)) != len(names):
        return ["bridge records missing or duplicated"]
    problems = [p for rec in recs for p in _flags_ok(rec)]
    problems += [f"bridge {r['name']} lists failures" for r in recs if r.get("failures")]
    problems += [f"bridge {r['name']} ran to {r.get('nmax')}" for r in recs
                 if r.get("nmax") != op["nmax"]]
    return problems


def check_repro(op, out, rng):
    summary = _records(out["stdout"])
    files = out.get("files") or {}
    if not summary or len(files) != len(summary):
        return ["repro summary and written files disagree"]
    problems = [p for rec in summary for p in _flags_ok(rec)]
    for rec in summary:
        name = PurePath(rec["file"]).name
        recs = _records(files.get(name, ""))
        if not recs or len(recs) != rec.get("records"):
            problems.append(f"{name}: {len(recs)} records, summary says {rec.get('records')}")
        for r in recs:
            problems += _flags_ok(r)
            if "method" in r:
                problems += check_report(r)
    return problems


CHECKS = {
    "mersenne-test": check_mersenne_test,
    "mersenne-scan": check_mersenne_scan,
    "psi-ladder": check_psi_ladder,
    "psi-poly": check_psi_poly,
    "coeff-table": check_coeff_table,
    "verify": check_verify,
    "bridges-check": check_bridges,
    "repro": check_repro,
}


def check(op: dict, out: dict, seed: int) -> list[str]:
    """Problems with the output of one operation that exited 0."""
    try:
        return CHECKS[op["kind"]](op, out, random.Random(seed))
    except Exception as exc:  # malformed output must fail the operation, not the run
        return [f"unreadable output: {exc!r}"]
