"""Primality and compositeness battery for numbers 2**p - 1.

Every method reports through :class:`TestReport`; residues and ratios are
kept as exact integers and serialised as decimal strings.  Throughout,
n = 2**(p-1) and M = 2n - 1 = 2**p - 1.
"""

from __future__ import annotations

from math import factorial, isqrt

from .errors import CapacityError
from .exactmath import MersenneMod, decimal_text
from .limits import LIMITS, check
from .psicore import _lucas_walk, _square_chain, psi_mod_ladder, psi_symbolic
from .records import Record

__all__ = [
    "TestReport",
    "is_prime_small",
    "ll_classic",
    "ll_chain",
    "psi_test",
    "mu_pattern_test",
    "mu_expected_residue",
    "enhanced_sum_test",
    "necessary_condition",
    "composite_criterion",
    "ab_ratio_test",
    "ab_ratios",
    "tau_identity_expected",
    "tau_identity_value",
    "tau_polynomial_identity",
    "TAU_SCALE",
    "METHODS",
]


def is_prime_small(n: int) -> bool:
    """Deterministic trial-division check, adequate for desk-scale exponents."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for f in range(3, isqrt(n) + 1, 2):
        if n % f == 0:
            return False
    return True


class TestReport(Record):
    """Structured verdict of one check, serialisable deterministically.
    ``residues`` and ``notes`` default to a fresh empty list each."""

    __slots__ = ("method", "p", "verdict", "residues", "ratios", "elapsed_ms", "notes")

    def __init__(
        self,
        method: str,
        p: int,
        verdict: str,
        residues: list[int] | None = None,
        ratios: tuple[int, int] | None = None,
        elapsed_ms: float = 0.0,
        notes: list[str] | None = None,
    ):
        self.method = method
        self.p = p
        self.verdict = verdict
        self.residues = [] if residues is None else residues
        self.ratios = ratios
        self.elapsed_ms = elapsed_ms
        self.notes = [] if notes is None else notes

    def to_dict(self, with_timing: bool = False) -> dict:
        return {
            "method": self.method,
            "p": self.p,
            "verdict": self.verdict,
            "residues": [decimal_text(r) for r in self.residues],
            "ratios": [decimal_text(r) for r in self.ratios] if self.ratios else None,
            "elapsed_ms": round(self.elapsed_ms, 3) if with_timing else 0,
            "notes": list(self.notes),
        }


def _candidate(method: str, p: int) -> tuple[int, int]:
    """n = 2**(p-1) and M = 2**p - 1, once p is checked against the bounds of the
    method's --p, before any work, then to be prime."""
    check(f"mersenne test {method}", p)
    if not is_prime_small(p):
        raise ValueError(f"exponent {p} is not prime")
    return 1 << (p - 1), (1 << p) - 1


def ll_chain(p: int, seed: int = 4) -> int:
    """The (p - 2)-th iterate of s -> s**2 - 2 from s0 = seed, mod 2**p - 1.

    One iterate is held at a time and reduced by fold-and-add.  Seeds 4 and
    psi(1, 4, 2) = -4 give the same iterates from the first squaring on, and
    from seed -4 the k-th iterate is psi(1, 4, 2**(k + 1)).
    """
    reduce = MersenneMod(p).reduce
    return _square_chain(reduce(seed), p - 2, reduce)


def ll_classic(p: int) -> TestReport:
    """Classical s -> s**2 - 2 test: prime iff the (p-2)-th iterate is 0."""
    _candidate("ll", p)
    residue = ll_chain(p)
    verdict = "prime" if residue == 0 else "composite"
    return TestReport(
        method="ll",
        p=p,
        verdict=verdict,
        residues=[residue],
    )


def psi_test(p: int) -> TestReport:
    """Prime iff 2**p - 1 divides psi(1, 4, 2**(p-1)); evaluated by ladder."""
    n, m = _candidate("psi", p)
    residue = psi_mod_ladder(1, 4, n, m)
    verdict = "prime" if residue == 0 else "composite"
    return TestReport(
        method="psi",
        p=p,
        verdict=verdict,
        residues=[residue],
    )


def mu_expected_residue(mu: int, modulus: int) -> int:
    """Residue the prime case forces on psi(1, 4, n*mu): +2, 0, -2 by mu mod 4."""
    r = mu % 4
    if r == 0:
        return 2 % modulus
    if r == 2:
        return -2 % modulus
    return 0


def mu_pattern_test(p: int, mu_max: int = 8) -> TestReport:
    """Residues of psi(1, 4, n*mu) mod M for mu = 1..mu_max.

    For prime M the +2/0/-2 pattern must hold for every mu; any mismatch is a
    compositeness certificate.  One ladder gives r_1 = psi(1, 4, n) mod M;
    the product identity at even n and a = 1 gives the rest by index
    addition, r_(mu+1) = r_1 * r_mu - r_(mu-1) with r_0 = 2, one product
    each.
    """
    n, m = _candidate("mu", p)
    check("mersenne test mu --mu-max", mu_max)
    reduce = MersenneMod(p).reduce
    prev, cur = 2, psi_mod_ladder(1, 4, n, m)
    residues = [cur]
    for _ in range(mu_max - 1):
        prev, cur = cur, reduce(residues[0] * cur - prev)
        residues.append(cur)
    mismatches = [
        mu
        for mu, res in enumerate(residues, start=1)
        if res != mu_expected_residue(mu, m)
    ]
    verdict = "condition-holds" if not mismatches else "condition-fails"
    notes = []
    if mismatches:
        notes.append(f"pattern broken at mu={mismatches} (compositeness witness)")
    return TestReport(
        method="mu",
        p=p,
        verdict=verdict,
        residues=residues,
        notes=notes,
    )


def enhanced_sum_test(p: int, mu: int = 1) -> TestReport:
    """The signed factorial-product sum over index N = n*mu,
    sum_j prod_{l<j} ((4l)**2 - N**2) / (2j)! for j = 0..N/4, reduces mod M
    to +1/0/-1 by mu mod 4.

    Twice the sum equals psi(1, 4, N) exactly, and M is odd with
    2 * n = M + 1, so n is the inverse of 2 mod M and the reduced sum is
    psi(1, 4, N) * n mod M: one ladder, not N/4 exact big-integer terms
    (the term-by-term sum is the tests' oracle).  At mu = 0 it is 2 * n = 1.
    So the expected value is the mu pattern's +2/0/-2 residue times n.
    """
    check("mersenne test sum --mu", mu)
    n, m = _candidate("sum", p)
    residue = psi_mod_ladder(1, 4, n * mu, m) * n % m
    expected = mu_expected_residue(mu, m) * n % m
    verdict = "condition-holds" if residue == expected else "condition-fails"
    return TestReport(
        method="sum",
        p=p,
        verdict=verdict,
        residues=[residue, expected],
    )


def _smallest_factor(p: int) -> int | None:
    """The smallest prime factor of 2**p - 1 up to the ceiling of its search,
    for prime p, or None.  It finds a witness only once the Lucas-Lehmer
    chain has shown 2**p - 1 composite, as in ``necessary_condition``: for a
    Mersenne prime it returns 2**p - 1 itself when that is below the ceiling
    (p = 5, 7, 13, 17, 19), and above it it searches up to the ceiling and
    returns None (p = 31, 61, 89, 127: 0.37-1.0 s on a shared 2-core box,
    where the chain takes under 0.2 ms).  It computes about ceiling / (4p)
    powers, so it shrinks as p grows.

    Every prime factor q of 2**p - 1 is 2kp + 1 and +/-1 mod 8 (Fermat, Euler).
    The candidates are tried in increasing order, and the first q with
    2**p == 1 mod q divides 2**p - 1; it is prime, since its least prime
    factor also divides 2**p - 1 and would have been met first.
    """
    step = 2 * p
    for q in range(step + 1, LIMITS["mersenne test necessary factor"].ceiling + 1, step):
        if q & 7 in (1, 7) and pow(2, p, q) == 1:
            return q
    return None


def necessary_condition(p: int) -> TestReport:
    """sum_k prod_{l<k} ((4l)**2 - 1) / (2k)! == -1 (mod M) when M is prime,
    the sum over k = 0..n/2 with the denominators read as inverses mod M.

    The k-th term is -Cat(2k - 1) / 2**(2k - 1), a Catalan number over a power
    of two, so the sum is settled in closed form, with the Lucas-Lehmer chain
    deciding which case holds (the term-by-term loop is the tests' oracle):

    * M prime.  With h = (M - 1)/2 == -1/2, C(2j, j) == (-4)**j C(h, j) mod M,
      which sums the terms to 1 + (3**n - 1) / (4n).  For odd p, M == 1 mod 3
      and M == 3 mod 4, so (3/M) = -1 by quadratic reciprocity, and Euler's
      criterion at base 3 gives 3**n == -3.  With 1/n == 2 the sum is -1, and
      the report holds M - 1.
    * M composite, with least prime factor f <= sqrt(M) < n.  The sum has
      no value mod M: the denominator 2k (2k - 1) of step k first shares a
      prime with M at 2k - 1 = f, as every earlier 2k and 2k - 1 is below f,
      and the prime factors of 2k = f + 1 are below f too, so the gcd of that
      denominator and M, the witness, is exactly f.  It is found by the
      search of ``_smallest_factor``; an f above the ceiling of that search
      is refused with CapacityError.
    """
    _, m = _candidate("necessary", p)
    if ll_chain(p) == 0:
        return TestReport(
            method="necessary",
            p=p,
            verdict="condition-holds",
            residues=[m - 1],
            notes=["denominators read as (2k)!"],
        )
    factor = _smallest_factor(p)
    if factor is None:
        bits = LIMITS["mersenne test necessary factor"].ceiling.bit_length()
        raise CapacityError(f"necessary at p={p}: 2**{p} - 1 is composite with no factor "
                            f"below the search ceiling 2**{bits}")
    return TestReport(
        method="necessary",
        p=p,
        verdict="condition-fails",
        residues=[factor],
        notes=[f"factor found: {factor} divides {decimal_text(m)}"],
    )


def composite_criterion(p: int) -> TestReport:
    """M | psi(1, 4, n +/- 1) certifies compositeness; otherwise inconclusive.

    One Lucas walk gives both: at a = 1, d = -2 and t = -4, with
    n - 1 = 2k + 1 the chain state (V_k, V_(k+1)) holds
    psi(n - 1) = (V_k + V_(k+1)) / d and psi(n) = V_(k+1), and
    psi(n + 1) = psi(n) - psi(n - 1) at even n."""
    n, m = _candidate("composite", p)
    reduce = MersenneMod(p).reduce
    v, w = _lucas_walk((n >> 1) - 1, -4, reduce)
    below = reduce((v + w) * pow(-2, -1, m))
    above = (w - below) % m
    verdict = "composite" if below == 0 or above == 0 else "inconclusive"
    return TestReport(
        method="composite",
        p=p,
        verdict=verdict,
        residues=[below, above],
    )


def ab_ratios(p: int) -> tuple[int, int]:
    """The two normalised layer ratios of the ab test, in closed form:
    2**p - 1 and psi(1, 4, 2**(p-1)).

    The closed form is observed, not proven: both equalities hold exactly
    against the O(4**p) double-indexed layer table (kept as an oracle in the
    tests) for odd p <= 13.  The first fails at p = 4, but only odd prime
    p >= 5 reach the test.

    Given the closed form, ``ab`` is the Lucas-Lehmer test on exact integers.
    psi(1, 4, 2k) = V_k(-4, 1) and V_2k = V_k**2 - 2, so psi(1, 4, 2**(p-1))
    is the (p - 2)-th iterate of s -> s**2 - 2 from -4 (see ``ll_chain``),
    the Lucas-Lehmer iterate itself, not reduced; 2**p - 1 divides it iff
    the classical test's residue is 0.
    """
    return (1 << p) - 1, _square_chain(-4, p - 2, int)  # int: not reduced


def ab_ratio_test(p: int) -> TestReport:
    """Prime iff the first layer ratio divides the second.

    With the ratios in their observed closed form (see ``ab_ratios``) this is
    the divisibility criterion 2**p - 1 | psi(1, 4, 2**(p-1)) on exact
    integers.
    """
    _candidate("ab", p)
    a_ratio, b_ratio = ab_ratios(p)
    verdict = "prime" if b_ratio % a_ratio == 0 else "composite"
    return TestReport(
        method="ab",
        p=p,
        verdict=verdict,
        ratios=(a_ratio, b_ratio),
    )


def _tau_terms(tau: int):
    """Running products prod_{l<k} ((4l)**2 - tau**2) for k = 0..tau/4."""
    prod = 1
    for k in range(tau // 4 + 1):
        if k:
            prod *= (4 * (k - 1)) ** 2 - tau * tau
        yield k, prod


# The variants of the tau sums, each with the base s of its k-th denominator
# (2k)! * s**k.
TAU_SCALE = {"quarter": 4, "half": 16, "root2": 8}


def tau_identity_value(l: int, variant: str):
    """Exact value, as a ``Fraction``, of one tau = 2**l combinatorial sum:
    the sum over k of prod_{l<k} ((4l)**2 - tau**2) / ((2k)! * s**k), with
    s = 4 for quarter, 16 for half (whose sum is doubled) and 8 for root2.

    The terms are added over their common denominator, which grows by
    2k (2k - 1) s at step k, and the sum is normalised once at the end.
    """
    check("identities tau", l)
    if variant not in TAU_SCALE:
        raise ValueError(f"unknown variant {variant!r}")
    scale = TAU_SCALE[variant]
    num, den = 0, 1
    for k, prod in _tau_terms(1 << l):
        if k:
            step = 2 * k * (2 * k - 1) * scale
            num, den = num * step, den * step
        num += prod
    from fractions import Fraction  # the one rational this module returns

    return Fraction(2 * num if variant == "half" else num, den)


def tau_identity_expected(l: int, variant: str) -> int:
    """The value the tau = 2**l sum must take: quarter -> 1; half -> -1;
    root2 -> +1 or -1 by tau mod 16."""
    if variant == "quarter":
        return 1
    if variant == "half":
        return -1
    return 1 if (1 << l) % 16 == 0 else -1


def tau_polynomial_identity(l: int) -> bool:
    """The parent two-variable identity: twice the weighted sum over
    (a, b)-monomials reproduces psi(a, b, tau), at both signs of b."""
    check("identities tau", l)
    tau = 1 << l
    from .multipoly import form_at, variables

    a, b = variables("a b")
    weights = []
    for k, prod in _tau_terms(tau):
        # each weight is an integer where the identity holds
        w, rem = divmod(2 * prod, factorial(2 * k) * 4 ** (2 * k))
        if rem:
            return False
        weights.append(w)
    total = form_at(weights, a * a, b * b)  # weights[k] * a**(tau/2 - 2k) * b**(2k)
    target = psi_symbolic(tau)
    flipped = target.subst({"b": -b})
    return total == target and total == flipped


METHODS = {
    "ll": ll_classic,
    "psi": psi_test,
    "mu": mu_pattern_test,
    "sum": enhanced_sum_test,
    "necessary": necessary_condition,
    "composite": composite_criterion,
    "ab": ab_ratio_test,
}
