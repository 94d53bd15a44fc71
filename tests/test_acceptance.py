"""Acceptance suite: one test per criterion, every check exact.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion.
"""

import random
import time
from itertools import product

from psikit.bridges import PERIOD_CATALOGUE, default_bridges, detect_period
from psikit.eightlevels import (
    coeff_table_polys,
    eight_level_coeff,
    expand_powersum_basis,
    explicit_formula_check,
    first_fundamental_check,
    power_sum_representation_check,
    scaling_check,
    second_fundamental_check,
    theta_sum_check,
    verify_expansion,
)
from psikit.mersenne import (
    ab_ratio_test,
    enhanced_sum_test,
    ll_chain,
    ll_classic,
    mu_expected_residue,
    mu_pattern_test,
    necessary_condition,
    psi_test,
    tau_identity_expected,
    tau_identity_value,
)
from psikit.multipoly import variables
from psikit.powersums import (
    bracket,
    bracket_xy_identity_check,
    quintic_parametric_check,
    quintic_parametric_symbolic,
    verify_special_case,
)
from psikit.psicore import (
    half,
    parity,
    psi_mod_ladder,
    psi_recurrence,
    psi_sequence,
)

from oracles import psi_recurrence_mod, signed_factorial_product_sum

PRIMES_TO_31 = [p for p in range(5, 32) if p in (5, 7, 11, 13, 17, 19, 23, 29, 31)]
MERSENNE_PRIMES = {5, 7, 13, 17, 19, 31}


def _report(num, label):
    print(f"ACCEPTANCE {num:02d} PASS: {label}")


def test_criterion_01_known_classification():
    started = time.perf_counter()
    for method in (ll_classic, psi_test):
        for p in PRIMES_TO_31:
            expected = "prime" if p in MERSENNE_PRIMES else "composite"
            assert method(p).verdict == expected, (method.__name__, p)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"scan took {elapsed:.2f}s"
    _report(1, f"classification over p <= 31 exact for both methods ({elapsed:.2f}s)")


def test_criterion_02_equivalence_and_chains():
    for p in PRIMES_TO_31:
        assert psi_test(p).verdict == ll_classic(p).verdict, p
        # seeds 4 and psi(1,4,2) = -4 agree from the first squaring, (-4)^2 == 4^2,
        # and the chain from -4 ends at psi(1, 4, 2^(p-1))
        m = (1 << p) - 1
        assert ll_chain(p, 4) == ll_chain(p, -4) == psi_mod_ladder(1, 4, 1 << (p - 1), m), p
    _report(2, "divisibility test equivalent to the classical ladder, chains agree")


def test_criterion_03_mu_pattern():
    for p in (5, 7, 13):
        rep = mu_pattern_test(p, 12)
        assert rep.verdict == "condition-holds", p
        m = (1 << p) - 1
        assert rep.residues == [mu_expected_residue(mu, m) for mu in range(1, 13)]
    rep11 = mu_pattern_test(11, 12)
    assert rep11.verdict == "condition-fails"
    violations = [
        mu
        for mu, res in enumerate(rep11.residues, start=1)
        if res != mu_expected_residue(mu, 2047)
    ]
    assert violations, "expected a compositeness witness at p = 11"
    _report(3, f"mu pattern exact for p in (5,7,13); p=11 violates at mu={violations[0]}")


def test_criterion_04_enhanced_sum():
    started = time.perf_counter()
    for p in (5, 7):
        n = 1 << (p - 1)
        m = 2 * n - 1
        for mu in (1, 2, 3, 4):
            rep = enhanced_sum_test(p, mu)
            assert rep.verdict == "condition-holds", (p, mu)
            expected = {0: 1 % m, 1: 0, 2: m - 1, 3: 0}[mu % 4]
            assert rep.residues[0] == expected
        assert 2 * signed_factorial_product_sum(n) == psi_recurrence(1, 4, n)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(4, f"exact factorial-product sums match the +1/0/-1 table ({elapsed:.2f}s)")


def test_criterion_05_necessary_condition():
    for p in (5, 7, 13):
        rep = necessary_condition(p)
        assert rep.verdict == "condition-holds", p
        assert rep.residues[0] == (1 << p) - 2
    # the p = 5 evaluation is pinned by the hand-computed modular term list
    residues = []
    term = 1
    for k in range(9):
        if k:
            term = term * ((4 * (k - 1)) ** 2 - 1) % 31
            term = term * pow(2 * k * (2 * k - 1), -1, 31) % 31
        residues.append(term)
    assert residues == [1, 15, 11, 20, 9, 10, 26, 29, 2]
    assert sum(residues) % 31 == 30
    _report(5, "factorial-inverse sum is -1 mod M for p in (5,7,13); p=5 terms pinned")


def test_criterion_06_ab_ratio():
    started = time.perf_counter()
    expected_a = {5: 31, 7: 127}
    for p in (5, 7, 11, 13):
        rep = ab_ratio_test(p)
        a_ratio, b_ratio = rep.ratios
        assert isinstance(a_ratio, int) and isinstance(b_ratio, int)
        if p in expected_a:
            assert a_ratio == expected_a[p]
        divisible = b_ratio % a_ratio == 0
        assert divisible == (p in (5, 7, 13)), p
        assert rep.verdict == ("prime" if divisible else "composite")
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    _report(6, f"layer ratios integral; divisibility iff p in (5,7,13) ({elapsed:.2f}s)")


def test_criterion_07_expansion_identity():
    for n in range(1, 17):
        assert verify_expansion(n), n
    # worked instances: the quartic triple and the sextic coefficient list
    a, b, al, be, x, y = variables("a b alpha beta x y")
    rows4 = coeff_table_polys(4)
    assert rows4[0] == -2 * a**2 + b**2
    assert rows4[1] == 4 * a * al - 2 * b * be
    assert rows4[2] == -2 * al**2 + be**2
    rows6 = [r.subst({"alpha": 1, "beta": 2}) for r in coeff_table_polys(6)]
    assert rows6 == [
        3 * a**2 * b - b**3,
        -6 * a**2 - 6 * a * b + 6 * b**2,
        12 * a - 9 * b,
        2 + 0 * a,
    ]
    q2 = a * x**2 + b * x * y + a * y**2
    sq = (x + y) ** 2
    assert (2 * a - b) ** 3 * (x**6 + y**6) == (
        rows6[0] * sq**3 + rows6[1] * sq**2 * q2 + rows6[2] * sq * q2**2 + rows6[3] * q2**3
    )
    _report(7, "expansion identity fully symbolic for n <= 16, worked examples pinned")


def test_criterion_08_coefficient_closed_forms():
    for n in range(1, 65):
        oracle = expand_powersum_basis(n)
        assert oracle == [eight_level_coeff(n, k) for k in range(half(n) + 1)], n
    for n in range(1, 25):
        assert explicit_formula_check(n), n
    _report(8, "residue-class closed forms match the basis oracle to n=64; both "
               "explicit formulas match the operator route to n=24")


def test_criterion_09_representation_suite():
    for n in range(1, 13):
        assert theta_sum_check(n), n
        assert scaling_check(n), n
        assert first_fundamental_check(n), n
        assert second_fundamental_check(n), n
        assert power_sum_representation_check(n), n
    _report(9, "theta sums, scaling/duality, both ladders, collapse and power-sum "
               "representation hold symbolically for n <= 12")


def test_criterion_10_product_identity():
    a, b = variables("a b")
    for n, m in product(range(0, 17), repeat=2):
        if n + m <= 16:
            seq = psi_sequence(a, b, n + m)
            d = 2 * a - b
            lhs = d ** (parity(n) * parity(m)) * seq[n] * seq[m]
            rhs = seq[n + m] + a ** min(n, m) * seq[abs(n - m)]
            assert lhs == rhs, (n, m)
    rng = random.Random(1009)
    for _ in range(1000):
        av = rng.randint(-30, 30)
        bv = rng.randint(-30, 30)
        n = rng.randint(0, 50)
        m = rng.randint(0, 50)
        seq = psi_sequence(av, bv, n + m)
        lhs = (2 * av - bv) ** (parity(n) * parity(m)) * seq[n] * seq[m]
        assert lhs == seq[n + m] + av ** min(n, m) * seq[abs(n - m)], (av, bv, n, m)
    for _ in range(1000):
        av = rng.randint(-50, 50)
        bv = rng.randint(-50, 50)
        n = rng.randint(0, 10_000)
        mod = rng.randint(2, 1 << 30)
        assert psi_mod_ladder(av, bv, n, mod) == psi_recurrence_mod(av, bv, n, mod)
    _report(10, "product identity exact on 10^3 random cases and symbolically for "
                "n+m <= 16; ladder agrees with direct recurrence on 10^3 cases")


def test_criterion_11_power_sum_brackets():
    for n in range(2, 11):
        assert verify_special_case(n), n
    x, y, z, t, u, v = variables("x y z t u v")
    assert (
        bracket(z, t, u, v) * (x**2 + y**2)
        + bracket(u, v, x, y) * (z**2 + t**2)
        + bracket(x, y, z, t) * (u**2 + v**2)
    ).is_zero
    assert bracket_xy_identity_check()
    assert quintic_parametric_symbolic()
    rng = random.Random(2027)
    for _ in range(100):
        assert quintic_parametric_check(rng.randint(-50, 50), rng.randint(-50, 50))
    _report(11, "three-pair expansion symbolic for 2 <= n <= 10; quintic family "
                "exact symbolically and at 100 points")


def test_criterion_12_tau_identities():
    assert tau_identity_value(3, "quarter") == 1 and 1 - 8 + 8 == 1
    assert tau_identity_value(3, "half") == -1 and 2 - 4 + 1 == -1
    assert tau_identity_value(3, "root2") == -1 and 1 - 4 + 2 == -1
    for l in range(3, 8):
        for variant in ("quarter", "half", "root2"):
            assert tau_identity_value(l, variant) == tau_identity_expected(l, variant), (l, variant)
    _report(12, "all three power-of-two identities exact for l = 3..7")


def test_criterion_13_bridges_and_periods():
    for spec in default_bridges():
        n_max = 20 if "polynomial" in spec.name or spec.name in (
            "dickson-first-kind",
            "chebyshev-first-kind",
        ) else 60
        failures = spec.check(n_max)
        assert not failures, (spec.name, failures[:3])
    periods = {}
    for label, entry in PERIOD_CATALOGUE.items():
        result = detect_period(entry["a"], entry["b"])
        periods[label] = result.period
        assert result.period == entry["period"], label
        assert result.table == list(entry["table"]), label
    assert sorted(periods.values()) == [6, 8, 12, 16, 20, 24]
    _report(13, "every registered bridge passes on its index set; all six "
                "catalogued periods and tables match entry-for-entry")
