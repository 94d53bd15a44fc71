"""Primality and compositeness battery for numbers 2**p - 1.

Every method reports through :class:`TestReport`; residues and ratios are
kept as exact integers and serialised as decimal strings.  Throughout,
n = 2**(p-1) and M = 2n - 1 = 2**p - 1.
"""

from __future__ import annotations

from math import factorial, isqrt

from .errors import CapacityError
from .exactmath import MersenneMod, NotInvertibleError, mod_inverse
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
    "signed_factorial_product_sum",
    "psi14_exact",
    "necessary_condition",
    "composite_criterion",
    "ab_ratio_test",
    "ab_ratios",
    "tau_identity_check",
    "tau_identity_expected",
    "tau_identity_value",
    "tau_polynomial_identity",
    "METHODS",
    "ENHANCED_SUM_MAX_INDEX",
    "MU_MAX_CAP",
    "CEILING_P",
]

# The largest p of each method whose work grows exponentially in p.  One call
# on a shared 2-core box with CPython 3.11: sum at p = 17 takes 0.3 s (1.8 s
# with mu = 2; index n * mu = 2**18 would take 9 s); necessary at prime p = 19
# takes 0.15 s, and p = 23 and 29 stop at once at a factor of 2**p - 1 (p = 31
# would need 2**29 terms); ab at p = 23 takes 0.3 s (p = 29 would square
# integers of up to 2**28 bits).
CEILING_P = {"sum": 17, "necessary": 29, "ab": 23}
ENHANCED_SUM_MAX_INDEX = 1 << 17
# Largest mu_max of the mu pattern; its record holds one residue of p bits per mu.
MU_MAX_CAP = 16


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
            "residues": [str(r) for r in self.residues],
            "ratios": [str(r) for r in self.ratios] if self.ratios else None,
            "elapsed_ms": round(self.elapsed_ms, 3) if with_timing else 0,
            "notes": list(self.notes),
        }


def _candidate(p: int, min_p: int) -> tuple[int, int]:
    """n = 2**(p-1) and M = 2**p - 1, once p is checked to be a prime >= min_p."""
    if not is_prime_small(p):
        raise ValueError(f"exponent {p} is not prime")
    if p < min_p:
        raise ValueError(f"method requires prime p >= {min_p}, got {p}")
    return 1 << (p - 1), (1 << p) - 1


def _check_cap(method: str, p: int, work: str) -> None:
    """Refuse, before any work, p above the method's ceiling; ``work`` says
    what p would cost."""
    if p > (ceiling := CEILING_P[method]):
        raise CapacityError(f"{method} at p={p} needs {work}; cap is p <= {ceiling}")


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
    _candidate(p, 3)
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
    n, m = _candidate(p, 5)
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
    n, m = _candidate(p, 5)
    if mu_max < 1:
        raise ValueError("mu_max must be >= 1")
    if mu_max > MU_MAX_CAP:
        raise CapacityError(f"mu: mu_max={mu_max} is above the cap {MU_MAX_CAP}")
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


def signed_factorial_product_sum(big_n: int) -> int:
    """sum_j prod_{l<j} ((4l)**2 - N**2) / (2j)! for j = 0..N/4, exactly.

    Every term is an integer (the running value is asserted to divide
    exactly at each step) and twice the total equals psi(1, 4, N).
    """
    if big_n % 8:
        raise ValueError("index must be divisible by 8")
    total = 0
    term = 1
    nsq = big_n * big_n
    for j in range(big_n // 4 + 1):
        if j:
            term *= 16 * (j - 1) * (j - 1) - nsq
            term, rem = divmod(term, (2 * j) * (2 * j - 1))
            if rem:
                raise ArithmeticError(f"non-integer term at j={j}")
        total += term
    return total


def psi14_exact(n: int, mu: int) -> int:
    """Exact psi(1, 4, n*mu) for n a power of two: squaring chain to
    psi(1, 4, n), then the index-addition recurrence across multiples."""
    if n < 2 or n & (n - 1):
        raise ValueError("n must be a power of two >= 2")
    if mu < 0:
        raise ValueError("mu must be >= 0")
    if mu == 0:
        return 2
    # from psi(1, 4, 2) = -4, unreduced: int is the identity on integers
    base = _square_chain(-4, n.bit_length() - 2, int)
    prev, cur = 2, base  # psi(1,4,0), psi(1,4,n)
    for _ in range(mu - 1):
        prev, cur = cur, base * cur - prev
    return cur


def enhanced_sum_test(p: int, mu: int = 1) -> TestReport:
    """Exact-arithmetic variant: the signed factorial-product sum over index
    n*mu reduces mod M to +1/0/-1 by mu mod 4, and twice the sum equals
    psi(1, 4, n*mu) exactly."""
    if mu < 0:
        raise ValueError("mu must be >= 0")
    terms = f"2**{p - 3} * {mu} + 1 exact big-integer terms"
    _check_cap("sum", p, terms)
    n, m = _candidate(p, 5)
    if n * mu > ENHANCED_SUM_MAX_INDEX:
        raise CapacityError(
            f"sum at p={p}, mu={mu} needs {terms}; the index n * mu is capped "
            f"at {ENHANCED_SUM_MAX_INDEX}"
        )
    total = 1 if mu == 0 else signed_factorial_product_sum(n * mu)
    residue = total % m
    expected = 1 if mu % 4 == 0 else (m - 1 if mu % 4 == 2 else 0)
    notes = []
    if 2 * total != psi14_exact(n, mu):
        notes.append("doubled sum failed to match the sequence value exactly")
        verdict = "condition-fails"
    else:
        verdict = "condition-holds" if residue == expected else "condition-fails"
    return TestReport(
        method="sum",
        p=p,
        verdict=verdict,
        residues=[residue, expected],
        notes=notes,
    )


def necessary_condition(p: int) -> TestReport:
    """sum_k prod_{l<k} ((4l)**2 - 1) / (2k)! == -1 (mod M) when M is prime.

    The factorial denominators are handled with modular inverses, so the terms
    here are residues rather than integers (the exact terms are half-integers);
    the sum is normalised so that each term is the previous one times
    ((4(k-1))**2 - 1) / (2k (2k-1)) mod M.  A failed inverse surfaces its gcd
    witness, which is a nontrivial factor of M.
    """
    _check_cap("necessary", p, f"2**{p - 2} + 1 modular terms")
    n, m = _candidate(p, 5)
    term = 1
    total = 1
    for k in range(1, n // 2 + 1):
        term = term * ((4 * (k - 1)) ** 2 - 1) % m
        try:
            term = term * mod_inverse((2 * k) * (2 * k - 1) % m, m) % m
        except NotInvertibleError as err:
            factor = err.witness
            return TestReport(
                method="necessary",
                p=p,
                verdict="condition-fails",
                residues=[factor],
                notes=[f"factor found: {factor} divides {m}"],
            )
        total = (total + term) % m
    verdict = "condition-holds" if total == m - 1 else "condition-fails"
    return TestReport(
        method="necessary",
        p=p,
        verdict=verdict,
        residues=[total],
        notes=["denominators read as (2k)!"],
    )


def composite_criterion(p: int) -> TestReport:
    """M | psi(1, 4, n +/- 1) certifies compositeness; otherwise inconclusive.

    One Lucas walk gives both: at a = 1, d = -2 and t = -4, with
    n - 1 = 2k + 1 the chain state (V_k, V_(k+1)) holds
    psi(n - 1) = (V_k + V_(k+1)) / d and psi(n) = V_(k+1), and
    psi(n + 1) = psi(n) - psi(n - 1) at even n."""
    n, m = _candidate(p, 3)
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
    return (1 << p) - 1, psi14_exact(1 << (p - 1), 1)


def ab_ratio_test(p: int) -> TestReport:
    """Prime iff the first layer ratio divides the second.

    With the ratios in their observed closed form (see ``ab_ratios``) this is
    the divisibility criterion 2**p - 1 | psi(1, 4, 2**(p-1)) on exact
    integers.
    """
    _check_cap("ab", p, f"psi(1, 4, 2**{p - 1}), of about 2**{p - 1} bits")
    _candidate(p, 5)
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


# The base s of each tau sum's k-th denominator (2k)! * s**k.
_TAU_SCALE = {"quarter": 4, "half": 16, "root2": 8}


def tau_identity_value(l: int, variant: str):
    """Exact value, as a ``Fraction``, of one tau = 2**l combinatorial sum:
    the sum over k of prod_{l<k} ((4l)**2 - tau**2) / ((2k)! * s**k), with
    s = 4 for quarter, 16 for half (whose sum is doubled) and 8 for root2.

    The terms are added over their common denominator, which grows by
    2k (2k - 1) s at step k, and the sum is normalised once at the end.
    """
    if l < 3:
        raise ValueError("l must be >= 3")
    if variant not in _TAU_SCALE:
        raise ValueError(f"unknown variant {variant!r}")
    scale = _TAU_SCALE[variant]
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


def tau_identity_check(l: int, variant: str) -> bool:
    """Whether the tau = 2**l sum takes its expected value."""
    return tau_identity_value(l, variant) == tau_identity_expected(l, variant)


def tau_polynomial_identity(l: int) -> bool:
    """The parent two-variable identity: twice the weighted sum over
    (a, b)-monomials reproduces psi(a, b, tau), at both signs of b."""
    if l < 3:
        raise ValueError("l must be >= 3")
    tau = 1 << l
    from .multipoly import SparsePoly

    a = SparsePoly.variable("a")
    b = SparsePoly.variable("b")
    total = SparsePoly.zero()
    for k, prod in _tau_terms(tau):
        # each weight is an integer where the identity holds
        w, rem = divmod(2 * prod, factorial(2 * k) * 4 ** (2 * k))
        if rem:
            return False
        total = total + w * a ** (tau // 2 - 2 * k) * b ** (2 * k)
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
