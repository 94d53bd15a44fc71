from fractions import Fraction

import pytest

from psikit import mersenne
from psikit.errors import CapacityError
from psikit.limits import LIMITS
from psikit.mersenne import (
    METHODS,
    ab_ratio_test,
    ab_ratios,
    composite_criterion,
    enhanced_sum_test,
    is_prime_small,
    ll_chain,
    ll_classic,
    mu_expected_residue,
    mu_pattern_test,
    necessary_condition,
    psi_test,
    tau_identity_expected,
    tau_identity_value,
    tau_polynomial_identity,
)
from psikit.psicore import psi_mod_ladder, psi_recurrence

import oracles

PRIMES_TO_31 = (5, 7, 11, 13, 17, 19, 23, 29, 31)
ALL_PRIMES_TO_31 = (2, 3) + PRIMES_TO_31
MERSENNE_PRIME_EXPONENTS = {5, 7, 13, 17, 19, 31}


def _oracle_chain(p: int, seed: int) -> list[int]:
    """Every iterate of s -> s**2 - 2 mod 2**p - 1 by plain %, p - 1 entries."""
    m = (1 << p) - 1
    chain = [seed % m]
    for _ in range(p - 2):
        chain.append((chain[-1] * chain[-1] - 2) % m)
    return chain


def _trial_division_factor(m: int) -> int:
    f = 3
    while f * f <= m:
        if m % f == 0:
            return f
        f += 2
    return 0


class TestCandidates:
    def test_composite_exponent_rejected(self):
        with pytest.raises(ValueError):
            psi_test(15)

    def test_small_prime_check(self):
        primes = [p for p in range(2, 60) if is_prime_small(p)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


class TestReports:
    def test_defaults_are_fresh_lists(self):
        first = mersenne.TestReport("ll", 7, "prime")
        second = mersenne.TestReport("ll", 7, "prime")
        assert first.residues == [] and first.notes == []
        assert first.ratios is None and first.elapsed_ms == 0.0
        first.residues.append(0)
        first.notes.append("x")
        assert second.residues == [] and second.notes == []

    def test_record_semantics(self):
        rep = mersenne.TestReport("ab", 5, "prime", [1], (31, 62), 1.5, ["x"])
        assert rep == mersenne.TestReport(
            method="ab", p=5, verdict="prime", residues=[1], ratios=(31, 62),
            elapsed_ms=1.5, notes=["x"],
        )
        assert rep != mersenne.TestReport("ab", 5, "prime", [1], (31, 62), 1.5)
        assert repr(rep) == (
            "TestReport(method='ab', p=5, verdict='prime', residues=[1], "
            "ratios=(31, 62), elapsed_ms=1.5, notes=['x'])"
        )
        rep.verdict = "composite"
        assert rep.to_dict()["verdict"] == "composite"
        with pytest.raises(TypeError):
            hash(rep)


class TestClassicalTest:
    def test_known_answers(self):
        assert ll_classic(3).verdict == "prime"
        for p in PRIMES_TO_31:
            expected = "prime" if p in MERSENNE_PRIME_EXPONENTS else "composite"
            assert ll_classic(p).verdict == expected, f"p={p}"

    def test_composite_moduli_really_composite(self):
        for p in (11, 23, 29):
            m = (1 << p) - 1
            f = _trial_division_factor(m)
            assert f and m % f == 0

    def test_p11_factorisation(self):
        assert 2047 == 23 * 89


class TestSequenceDivisibilityTest:
    def test_agrees_with_classical(self):
        for p in PRIMES_TO_31:
            assert psi_test(p).verdict == ll_classic(p).verdict, f"p={p}"

    def test_chain_values_p5(self):
        # doubling chain from psi(1,4,2) = -4: -4, 14, 194, 37634
        chain = [-4]
        for _ in range(3):
            chain.append(chain[-1] ** 2 - 2)
        assert chain == [-4, 14, 194, 37634]
        assert 37634 == 31 * 1214
        assert psi_test(5).verdict == "prime"

    def test_chain_residues_p7(self):
        # the oracle chain from psi(1,4,2) = -4, pinned by hand
        assert _oracle_chain(7, -4) == [123, 14, 67, 42, 111, 0]
        assert ll_chain(7, -4) == 0
        assert psi_test(7).verdict == "prime"

    def test_chains_agree_from_first_squaring(self):
        for p in ALL_PRIMES_TO_31:
            for seed in (4, -4):
                assert ll_chain(p, seed) == _oracle_chain(p, seed)[-1], (p, seed)
            s, t = _oracle_chain(p, 4), _oracle_chain(p, -4)
            assert len(s) == len(t) == p - 1
            assert s[1:] == t[1:], f"p={p}"
            # seeds differ only in sign: (-4)^2 == 4^2
            m = (1 << p) - 1
            assert (s[0] + t[0]) % m == 0

    def test_ladder_value_is_sequence_value(self):
        for p in (5, 7):
            direct = psi_recurrence(1, 4, 1 << (p - 1)) % ((1 << p) - 1)
            assert psi_test(p).residues[0] == direct

    def test_requires_p_at_least_5(self):
        with pytest.raises(ValueError):
            psi_test(3)


class TestMuPattern:
    def test_documented_residues_p5(self):
        rep = mu_pattern_test(5, 4)
        assert rep.residues == [0, 29, 0, 2]
        assert rep.verdict == "condition-holds"
        assert 29 == 31 - 2

    def test_recursion_consistency(self):
        # psi(n)*psi(n mu) == psi(n(mu+1)) + psi(n(mu-1)) mod M
        for p in (5, 7):
            n, m = 1 << (p - 1), (1 << p) - 1
            vals = [psi_mod_ladder(1, 4, n * mu, m) for mu in range(0, 10)]
            for mu in range(1, 9):
                assert vals[1] * vals[mu] % m == (vals[mu + 1] + vals[mu - 1]) % m

    def test_pattern_holds_for_primes(self):
        for p in (5, 7, 13):
            rep = mu_pattern_test(p, 12)
            assert rep.verdict == "condition-holds"
            m = (1 << p) - 1
            for mu, res in enumerate(rep.residues, start=1):
                assert res == mu_expected_residue(mu, m)

    def test_pattern_fails_for_p11(self):
        rep = mu_pattern_test(11, 12)
        assert rep.verdict == "condition-fails"

    def test_index_addition_matches_one_ladder_per_mu(self):
        # oracle: one full ladder to index n * mu for every mu
        for p in range(5, 128):
            if not is_prime_small(p):
                continue
            n, m = 1 << (p - 1), (1 << p) - 1
            expected = [psi_mod_ladder(1, 4, n * mu, m) for mu in range(1, 17)]
            assert mu_pattern_test(p, 16).residues == expected, p

    def test_exact_values_match_ladder(self):
        n, m = 16, 31
        for mu in range(1, 6):
            assert oracles.psi14_exact(n, mu) % m == psi_mod_ladder(1, 4, n * mu, m)

    def test_exact_chain_from_the_first_power_of_two(self):
        # n = 2 takes no squaring; each doubling of n takes one, unreduced
        for j in range(1, 11):
            assert oracles.psi14_exact(1 << j, 1) == psi_recurrence(1, 4, 1 << j), j


class TestEnhancedSum:
    def test_hand_computed_p5(self):
        total = oracles.signed_factorial_product_sum(16)
        assert total == 18817
        assert 2 * 18817 == 37634
        assert 18817 == 31 * 607
        rep = enhanced_sum_test(5, 1)
        assert rep.verdict == "condition-holds"
        assert rep.residues[0] == 0

    def test_p5_mu2(self):
        rep = enhanced_sum_test(5, 2)
        assert rep.verdict == "condition-holds"
        assert rep.residues[0] == 30  # -1 mod 31

    def test_mu_zero_trivial(self):
        rep = enhanced_sum_test(5, 0)
        assert rep.verdict == "condition-holds"
        assert rep.residues == [1, 1]

    def test_doubled_sum_is_exact_sequence_value(self):
        for p in (5, 7):
            n = 1 << (p - 1)
            assert 2 * oracles.signed_factorial_product_sum(n) == psi_recurrence(1, 4, n)

    def test_term_integrality_guard(self):
        with pytest.raises(ValueError):
            oracles.signed_factorial_product_sum(12)  # not divisible by 8

    def test_matches_the_term_by_term_sum(self):
        # every p and mu <= 4 whose index n * mu the term-by-term sum reached
        # before the closed form, under its cap of 2**17
        for p in (5, 7, 11, 13, 17):
            for mu in range(5):
                if mu << (p - 1) <= 1 << 17:
                    want = oracles.enhanced_sum_by_terms(p, mu).to_dict()
                    assert enhanced_sum_test(p, mu).to_dict() == want, (p, mu)

    def test_capacity(self):
        # p and the index n * mu pass the old caps of 17 and 2**17
        assert enhanced_sum_test(19, 1).verdict == "condition-holds"
        assert enhanced_sum_test(17, 4).verdict == "condition-holds"
        assert enhanced_sum_test(23, 1).verdict == "condition-fails"

    def test_pattern_p7_all_mu(self):
        m = 127
        for mu in range(1, 5):
            rep = enhanced_sum_test(7, mu)
            assert rep.verdict == "condition-holds"
            expected = {0: 1, 1: 0, 2: m - 1, 3: 0}[mu % 4]
            assert rep.residues[0] == expected


class TestNecessaryCondition:
    def test_hand_computed_term_residues_p5(self):
        # term-by-term modular evaluation at p = 5
        m = 31
        residues = []
        term = 1
        for k in range(0, 9):
            if k:
                term = term * ((4 * (k - 1)) ** 2 - 1) % m
                term = term * pow((2 * k) * (2 * k - 1), -1, m) % m
            residues.append(term)
        assert residues == [1, 15, 11, 20, 9, 10, 26, 29, 2]
        assert sum(residues) % m == 30

    def test_primes_give_minus_one(self):
        for p in (5, 7, 13, 31, 61, 89, 107, 127):
            rep = necessary_condition(p)
            assert rep.verdict == "condition-holds", p
            assert rep.residues == [(1 << p) - 2], p  # -1 mod M

    def test_composite_yields_factor_witness(self):
        rep = necessary_condition(11)
        assert rep.verdict == "condition-fails"
        factor = rep.residues[0]
        assert factor in (23, 89)
        assert 2047 % factor == 0

    def test_matches_the_sum_by_inverses(self):
        for p in PRIMES_TO_31[:-1]:
            assert necessary_condition(p).to_dict() == oracles.necessary_by_inverses(p).to_dict(), p

    def test_witness_is_the_least_factor(self):
        for p, f in ((37, 223), (41, 13367), (43, 431), (47, 2351), (53, 6361), (59, 179951)):
            assert oracles.least_factor_by_trial((1 << p) - 1) == f, p
            rep = necessary_condition(p)
            assert rep.verdict == "condition-fails" and rep.residues == [f], p
        # p = 67's, the largest least factor of any p < 100, is within the search
        assert necessary_condition(67).residues == [193707721]

    def test_capacity(self):
        # 2**101 - 1 = 7432339208719 * ...: no factor below the search ceiling
        with pytest.raises(CapacityError, match="search ceiling"):
            necessary_condition(101)


class TestCompositeCriterion:
    def test_inconclusive_on_primes(self):
        for p in (5, 7, 13):
            rep = composite_criterion(p)
            assert rep.verdict == "inconclusive"
            assert all(r != 0 for r in rep.residues)

    def test_never_contradicts_classical(self):
        for p in PRIMES_TO_31:
            rep = composite_criterion(p)
            if rep.verdict == "composite":
                assert ll_classic(p).verdict == "composite"

    def test_neighbour_residues_match_ladder(self):
        # the two ladders to n - 1 and n + 1 are the oracle
        for p in [*filter(is_prime_small, range(3, 128)), 2203, 2213, 4423]:
            n, m = 1 << (p - 1), (1 << p) - 1
            rep = composite_criterion(p)
            assert rep.residues == [
                psi_mod_ladder(1, 4, n - 1, m),
                psi_mod_ladder(1, 4, n + 1, m),
            ], p


def _layered_ratio(start_count: int, step, denominator: int) -> int:
    """Collapse the double-indexed recurrence by rolling layers.

    ``layer[r]`` holds the values at the current depth; each depth k consumes
    positions r = 0 .. K - k, so only one layer is retained at a time.
    """
    layer = [1] * (start_count + 1)
    for k in range(1, start_count + 1):
        layer = [step(r, k, layer[r], layer[r + 1]) for r in range(start_count - k + 1)]
    quotient, rem = divmod(layer[0], denominator)
    assert not rem, "layered ratio is not an integer"
    return quotient


def _layer_table_ratios(p: int) -> tuple[int, int]:
    """The two normalised layer ratios by the O(4**p) layer tables: the
    oracle for the closed form of ``ab_ratios``."""
    n = 1 << (p - 1)
    kp = p // 2
    den_a = 1
    for i in range(1, kp + 1):
        den_a *= p - i
    a_ratio = _layered_ratio(
        kp, lambda r, k, cur, nxt: (p - r - k) * cur + 4 * (p - 2 * r) * nxt, den_a
    )
    kn = n // 2
    den_b = 1
    for i in range(1, kn + 1):
        den_b *= n - i
    b_ratio = _layered_ratio(
        kn,
        lambda r, k, cur, nxt: -2 * (n - r - k) * cur - 2 * (n - 2 * r - 1) * nxt,
        den_b,
    )
    return a_ratio, b_ratio


class TestLayeredRatios:
    def test_closed_form_matches_layer_tables(self):
        # p = 13 is pinned by docs/results/battery.ndjson, which the layer
        # table produced
        for p in (3, 5, 7, 9, 11):
            assert ab_ratios(p) == _layer_table_ratios(p) == (
                (1 << p) - 1,
                oracles.psi14_exact(1 << (p - 1), 1),
            ), p

    def test_hand_evaluation_p5(self):
        # A_0(1) = 4 + 20 = 24; A_1(1) = 3 + 12 = 15; A_0(2) = 3*24 + 20*15 = 372
        a0 = {0: 1, 1: 1, 2: 1}
        a1 = {r: (5 - r - 1) * a0[r] + 4 * (5 - 2 * r) * a0[r + 1] for r in (0, 1)}
        assert a1 == {0: 24, 1: 15}
        a2 = (5 - 0 - 2) * a1[0] + 4 * 5 * a1[1]
        assert a2 == 372
        assert ab_ratios(5)[0] == 372 // (4 * 3) == 31

    def test_hand_evaluation_p7(self):
        a_ratio, _ = ab_ratios(7)
        assert a_ratio == 15240 // (6 * 5 * 4) == 127

    def test_slow_recursive_reference_p5(self):
        # memoised direct recursion cross-checks the rolling-layer evaluation
        n = 16

        def b(r, k, memo={}):
            if k == 0:
                return 1
            key = (r, k)
            if key not in memo:
                memo[key] = -2 * (n - r - k) * b(r, k - 1) - 2 * (n - 2 * r - 1) * b(
                    r + 1, k - 1
                )
            return memo[key]

        den = 1
        for i in range(1, 9):
            den *= n - i
        assert ab_ratios(5)[1] == b(0, 8) // den

    def test_integrality_and_verdicts(self):
        for p in (5, 7, 11, 13):
            rep = ab_ratio_test(p)
            a_ratio, b_ratio = rep.ratios
            assert isinstance(a_ratio, int) and isinstance(b_ratio, int)
            expected = "prime" if p in MERSENNE_PRIME_EXPONENTS else "composite"
            assert rep.verdict == expected, f"p={p}"
            assert (b_ratio % a_ratio == 0) == (expected == "prime")

    def test_capacity(self):
        with pytest.raises(CapacityError):
            ab_ratio_test(29)

    def test_verdicts_up_to_the_cap(self):
        for p in (17, 19, 23):
            assert ab_ratio_test(p).verdict == ll_classic(p).verdict, p


class TestCeilings:
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_each_ceiling_plus_one_is_refused_before_primality(self, method):
        ceiling = LIMITS[f"mersenne test {method}"].ceiling
        # 2**61 - 1 is prime: trial division of p would run for hours
        for p in (ceiling + 1, ceiling + 2, (1 << 61) - 1):
            with pytest.raises(CapacityError, match=f"cap is p <= {ceiling}$"):
                METHODS[method](p)

    def test_necessary_up_to_its_ceiling(self):
        rep = necessary_condition(29)
        assert rep.verdict == "condition-fails" and rep.residues == [233]

    def test_sum_index_cap(self):
        # mu alone is bounded, before any work: even at an exponent that is
        # not prime or above the ceiling.  The old index cap of 2**17 took mu
        # up to 8192, at p = 5
        assert enhanced_sum_test(5, 8192).verdict == "condition-holds"
        top = LIMITS["mersenne test sum --mu"].ceiling
        assert top == (1 << 64) - 1
        assert enhanced_sum_test(13, top).verdict == "condition-holds"
        for p in (13, 9, (1 << 61) - 1):
            with pytest.raises(CapacityError, match="mu"):
                enhanced_sum_test(p, top + 1)


class TestTauIdentities:
    def test_l3_hand_values(self):
        # quarter: 1 - 64/8 + 3072/384 = 1 - 8 + 8 = 1
        assert Fraction(64, 8) == 8 and Fraction(3072, 384) == 8
        assert tau_identity_value(3, "quarter") == 1 - 8 + 8 == 1
        # half: 2 - 4 + 1 = -1
        assert tau_identity_value(3, "half") == 2 - 4 + 1 == -1
        # root2: 1 - 4 + 2 = -1, and 8 % 16 == 8 selects -1
        assert tau_identity_value(3, "root2") == 1 - 4 + 2 == -1
        assert all(tau_identity_value(3, v) == tau_identity_expected(3, v) for v in ("quarter", "half", "root2"))

    def test_vanishing_term_at_l3(self):
        # the k = 3 term vanishes because (4*2)^2 - 64 == 0
        assert (4 * 2) ** 2 - 64 == 0

    def test_all_variants_l3_to_l7(self):
        for l in range(3, 8):
            for variant in ("quarter", "half", "root2"):
                assert tau_identity_value(l, variant) == tau_identity_expected(l, variant), (l, variant)

    def test_common_denominator_matches_term_by_term_oracle(self):
        for l in range(3, 11):
            for variant in ("quarter", "half", "root2"):
                value = tau_identity_value(l, variant)
                assert type(value) is Fraction, (l, variant)
                assert value == oracles.tau_identity_value(l, variant), (l, variant)

    def test_root2_sign_rule(self):
        assert tau_identity_value(3, "root2") == -1  # tau = 8
        assert tau_identity_value(4, "root2") == 1  # tau = 16
        assert tau_identity_value(5, "root2") == 1  # tau = 32
        assert [tau_identity_expected(l, "root2") for l in (3, 4, 5)] == [-1, 1, 1]
        assert tau_identity_expected(9, "quarter") == 1
        assert tau_identity_expected(9, "half") == -1

    def test_polynomial_parent_identity(self):
        for l in (3, 4, 5):
            assert tau_polynomial_identity(l)

    def test_l_validation(self):
        with pytest.raises(ValueError):
            tau_identity_value(2, "quarter")
        with pytest.raises(ValueError):
            tau_identity_value(3, "bogus")


class TestRunMethod:
    def test_dispatch(self):
        assert METHODS["ll"](5).verdict == "prime"
        assert METHODS["mu"](5, mu_max=4).verdict == "condition-holds"
        assert "nope" not in METHODS

    def test_report_serialisation(self):
        rep = ll_classic(5)
        assert rep.elapsed_ms == 0.0  # the command line times the call
        data = rep.to_dict()
        assert list(data) == [
            "method",
            "p",
            "verdict",
            "residues",
            "ratios",
            "elapsed_ms",
            "notes",
        ]
        assert data["elapsed_ms"] == 0
        assert data["residues"] == ["0"]
        timed = rep.to_dict(with_timing=True)
        assert timed["elapsed_ms"] >= 0


class TestAgreementAcrossMethods:
    def test_full_battery_consistency(self):
        for p in (5, 7, 11, 13):
            reference = ll_classic(p).verdict
            assert psi_test(p).verdict == reference
            mu = mu_pattern_test(p, 8)
            assert (mu.verdict == "condition-holds") == (reference == "prime")
            assert ab_ratio_test(p).verdict == reference
            for mu_val in (1, 2, 3, 4):
                sum_rep = enhanced_sum_test(p, mu_val)
                assert (sum_rep.verdict == "condition-holds") == (
                    reference == "prime"
                ), (p, mu_val)
