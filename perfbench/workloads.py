"""Operation lists of the benchmark workloads, built from a seed.

An operation is the argv of one ``psikit`` CLI invocation plus what the output
checks need to know about it.  The same (workload, seed, tiny) always gives the
same list.  Seeds only pick inputs of equal cost (exponents from a narrow
window, random bits of a fixed length, check points), so run-to-run spread
measures the program and the machine, not the inputs.  Nothing here imports
psikit.
"""

from __future__ import annotations

import random
from math import isqrt

# OEIS A000043: the exponents p for which 2^p - 1 is prime, up to 10^5.
MERSENNE_EXPONENTS = frozenset(
    {2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607, 1279, 2203,
     2281, 3217, 4253, 4423, 9689, 9941, 11213, 19937, 21701, 23209, 44497,
     86243}
)

# The workloads of BENCHMARK.json, and "symbolic", which is left out of it:
# its polynomial layers are too sensitive to other load on a shared machine to
# gate on (see README.md), and repro-all exercises the same layers.
WORKLOADS = ("mersenne-large", "ladder-generic", "symbolic", "repro-all")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    return all(n % f for f in range(3, isqrt(n) + 1, 2))


def composite_exponent(rng: random.Random, lo: int, hi: int) -> int:
    """A prime p in [lo, hi] whose 2^p - 1 is composite."""
    return rng.choice(
        [p for p in range(lo, hi + 1) if is_prime(p) and p not in MERSENNE_EXPONENTS]
    )


def _test(p: int, method: str, *extra: str) -> dict:
    argv = ["mersenne", "test", "--p", str(p), "--method", method, *extra]
    return {"kind": "mersenne-test", "argv": argv, "p": p, "method": method}


def _mersenne_large(rng: random.Random, tiny: bool) -> list[dict]:
    if tiny:
        both, psi_only, window, comp_p, mu_p, scan = (13, 17), 31, (20, 30), 13, 13, (5, 31)
    else:
        # ll at 9689 is left out to keep a pass near 9 s; ll at 4423 still
        # carries the squaring chain's memory.
        both, psi_only, window = (2203, 4423), 9689, (2180, 2230)
        comp_p, mu_p, scan = 2203, 2203, (2200, 2300)
    ops = []
    for p in both + (composite_exponent(rng, *window),):
        ops += [_test(p, "psi"), _test(p, "ll")]
    ops.append(_test(psi_only, "psi"))
    # n - 1 = 2^(p-1) - 1 is all one-bits: the ladder's other branch.
    ops.append(_test(comp_p, "composite"))
    ops.append(_test(mu_p, "mu", "--mu-max", "4"))
    ops.append(
        {
            "kind": "mersenne-scan",
            "argv": ["mersenne", "scan", "--pmin", str(scan[0]), "--pmax",
                     str(scan[1]), "--method", "psi"],
            "pmin": scan[0],
            "pmax": scan[1],
        }
    )
    return ops


def _odd_modulus(rng: random.Random, bits: int, form: str) -> int:
    if form == "plus1":
        return (1 << bits) + 1
    if form == "minus3":
        return (1 << bits) - 3
    while True:
        m = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if m & (m + 1):  # not of the form 2^k - 1
            return m


def _ladder_generic(rng: random.Random, tiny: bool) -> list[dict]:
    # (modulus bits, modulus form, index bits, a == 1?)
    if tiny:
        shapes = [(61, "plus1", 64, False), (89, "minus3", 80, False),
                  (96, "random", 100, False), (127, "random", 120, True)]
    else:
        shapes = [(2203, "plus1", 2203, False), (2203, "minus3", 2500, False),
                  (3000, "random", 3000, False), (3217, "plus1", 3217, False),
                  (4253, "minus3", 4000, False), (3500, "random", 3500, True)]
    ops = []
    for mbits, form, nbits, a_is_one in shapes:
        m = _odd_modulus(rng, mbits, form)
        a = 1 if a_is_one else rng.randrange(2, m - 1)
        b = rng.randrange(0, m)
        n = rng.getrandbits(nbits) | (1 << (nbits - 1))
        ops.append(
            {
                "kind": "psi-ladder",
                "argv": ["psi", "ladder", "--a", str(a), "--b", str(b), "--n",
                         str(n), "--mod", str(m)],
                "a": a, "b": b, "n": n, "mod": m,
            }
        )
    return ops


def _symbolic(rng: random.Random, tiny: bool) -> list[dict]:
    poly_n, table_n, bridge_n = (16, 6, 16) if tiny else (256, 24, 40)
    nmax = (
        {"eightlevels": 6, "theta": 4, "fundamental": 4, "powersums": 4}
        if tiny
        else {"eightlevels": 24, "theta": 10, "fundamental": 12, "powersums": 8}
    )
    ops = [
        {"kind": "psi-poly", "argv": ["psi", "poly", "--n", str(poly_n)], "n": poly_n},
        {
            "kind": "coeff-table",
            "argv": ["coeff", "table", "--nmin", "1", "--n", str(table_n)],
            "nmin": 1,
            "nmax": table_n,
        },
    ]
    for suite, n in nmax.items():
        ops.append(
            {
                "kind": "verify",
                "argv": ["verify", suite, "--nmax", str(n), "--seed",
                         str(rng.randrange(1 << 30))],
                "suite": suite,
                "nmax": n,
            }
        )
    ops.append(
        {
            "kind": "bridges-check",
            "argv": ["bridges", "check", "--nmax", str(bridge_n)],
            "nmax": bridge_n,
        }
    )
    return ops


def _repro_all(rng: random.Random, tiny: bool, outdir: str) -> list[dict]:
    argv = ["repro", "all", "--outdir", outdir, "--seed", str(rng.randrange(1 << 30))]
    return [{"kind": "repro", "argv": argv, "outdir": outdir}]


def build(workload: str, seed: int, tiny: bool = False, outdir: str = "") -> list[dict]:
    """The fixed operation list of one pass over ``workload``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "mersenne-large":
        return _mersenne_large(rng, tiny)
    if workload == "ladder-generic":
        return _ladder_generic(rng, tiny)
    if workload == "symbolic":
        return _symbolic(rng, tiny)
    if workload == "repro-all":
        return _repro_all(rng, tiny, outdir)
    raise ValueError(f"unknown workload {workload!r}")


def check_seed(workload: str, seed: int) -> int:
    """Seed of the random points the output checks use."""
    return random.Random(f"check:{workload}:{seed}").randrange(1 << 62)
