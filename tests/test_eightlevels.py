import random
from fractions import Fraction
from math import factorial

import pytest

from psikit.eightlevels import (
    TABLE_DEGREE_CAP,
    apply_direction,
    coeff_table_polys,
    coeff_table_text,
    coeff_values,
    eight_level_coeff,
    expand_powersum_basis,
    explicit_formula_check,
    first_fundamental_check,
    linear_combination_check,
    power_sum_poly,
    power_sum_representation_check,
    scaling_check,
    second_fundamental_check,
    theta_sum_check,
    verify_expansion,
)
from psikit.errors import CapacityError
from psikit.exactmath import QuadExt
from psikit.multipoly import SparsePoly, variables
from psikit.psicore import SYMBOLIC_INDEX_CAP, half, psi_recurrence, psi_symbolic

from oracles import (
    coeff_dual,
    coeff_table_binomial,
    coeff_via_basechange,
    divided,
    eval_scalar,
    expansion_sides_by_powers,
    power_sum_by_division,
    powersum_basis_by_elimination,
)

A, B, AL, BE = variables("a b alpha beta")
X, Y = variables("x y")


def operator_rows(n):
    """The operator oracle: row r is (-1)**r / r! times the r-th power of
    alpha*d/da + beta*d/db applied to psi(a, b, n)."""
    rows = []
    current = psi_symbolic(n)
    for r in range(half(n) + 1):
        if r:
            current = apply_direction(current, AL, BE)
        rows.append(divided((-1) ** r * current, factorial(r)))
    return tuple(rows)


class TestOperatorRows:
    def test_quartic_table(self):
        assert coeff_table_polys(4) == (
            -2 * A**2 + B**2,
            4 * A * AL - 2 * B * BE,
            -2 * AL**2 + BE**2,
        )

    def test_sextic_worked_rows(self):
        rows = [row.subst({"alpha": 1, "beta": 2}) for row in coeff_table_polys(6)]
        assert rows[0] == 3 * A**2 * B - B**3
        assert rows[1] == -6 * A**2 - 6 * A * B + 6 * B**2
        assert rows[2] == 12 * A - 9 * B
        assert rows[3] == 2

    def test_row_zero_is_base_polynomial(self):
        for n in range(1, 16):
            assert coeff_table_polys(n)[0] == psi_symbolic(n)

    def test_table_matches_operator_oracle(self):
        for n in range(25):
            assert coeff_table_polys(n) == operator_rows(n), f"n={n}"

    def test_boundary_rows_up_to_forty(self):
        for n in range(1, 41):
            rows = coeff_table_polys(n)
            assert rows[0] == psi_symbolic(n)
            m = half(n)
            assert rows[m] == (-1) ** m * psi_symbolic(n, "alpha", "beta")

    def test_integrality_up_to_forty(self):
        for n in range(1, 41):
            for row in coeff_table_polys(n):
                assert all(c.denominator == 1 for c in row.terms.values())

    def test_out_of_range(self):
        assert len(coeff_table_polys(4)) == 3
        with pytest.raises(ValueError):
            coeff_dual(4, 3)
        with pytest.raises(ValueError):
            coeff_dual(4, -1)

    def test_table_object(self):
        assert [str(e) for e in coeff_table_polys(4)] == [
            "-2*a^2 + b^2",
            "4*a*alpha - 2*b*beta",
            "-2*alpha^2 + beta^2",
        ]


class TestDenseRoutes:
    def test_rows_and_text_match_the_binomial_builder(self):
        for n in range(61):
            oracle = coeff_table_binomial(n)
            assert coeff_table_polys(n) == oracle, n
            assert coeff_table_text(n) == [str(row) for row in oracle], n

    def test_basis_recurrence_matches_elimination(self):
        for n in range(1, 129):
            assert expand_powersum_basis(n) == powersum_basis_by_elimination(n), n

    def test_power_sum_closed_form_matches_division(self):
        U, V = variables("u v")
        for n in range(129):
            oracle = power_sum_by_division(n)
            assert power_sum_poly(n) == oracle, n
            assert power_sum_poly(n, "v", "u") == oracle.subst({"x": V, "y": U}), n


class TestDualAndBasechangeOracles:
    def test_dual_quartic(self):
        assert coeff_dual(4, 2) == -2 * AL**2 + BE**2
        assert coeff_dual(4, 0) == -2 * A**2 + B**2

    def test_dual_matches_operator_sweep(self):
        for n in (1, 2, 3, 4, 5, 6, 7, 9, 12):
            for r in range(half(n) + 1):
                assert coeff_dual(n, r) == operator_rows(n)[r]

    def test_basechange_matches_operator(self):
        for n in range(1, 13):
            assert coeff_via_basechange(n) == coeff_table_polys(n)


class TestExpansionIdentity:
    def test_symbolic_small(self):
        for n in range(1, 13):
            assert verify_expansion(n)

    def test_quartic_identity_explicit(self):
        # (beta*a - alpha*b)^2 (x^4+y^4) as a sum over the two quadratic forms
        q1 = AL * X**2 + BE * X * Y + AL * Y**2
        q2 = A * X**2 + B * X * Y + A * Y**2
        lhs = (BE * A - AL * B) ** 2 * (X**4 + Y**4)
        rhs = (
            (-2 * A**2 + B**2) * q1**2
            + (4 * A * AL - 2 * B * BE) * q1 * q2
            + (-2 * AL**2 + BE**2) * q2**2
        )
        assert lhs == rhs

    def test_sextic_worked_expansion(self):
        # (2a-b)^3 (x^6+y^6) over ((x+y)^2, a x^2 + b xy + a y^2)
        q2 = A * X**2 + B * X * Y + A * Y**2
        sq = (X + Y) ** 2
        lhs = (2 * A - B) ** 3 * (X**6 + Y**6)
        rhs = (
            (3 * A**2 * B - B**3) * sq**3
            + (-6 * A**2 - 6 * A * B + 6 * B**2) * sq**2 * q2
            + (12 * A - 9 * B) * sq * q2**2
            + 2 * q2**3
        )
        assert lhs == rhs

    def test_randomized_path_beyond_symbolic_limit(self):
        assert verify_expansion(24, seed=0)
        assert verify_expansion(33, seed=1)

    def test_randomized_path_detects_corruption(self, monkeypatch):
        # a deliberately wrong coefficient row must fail the sampled check
        import psikit.eightlevels as el

        orig = el.coeff_values

        def corrupted(n, a, b, alpha, beta):
            lists = orig(n, a, b, alpha, beta)
            lists[20][3] += 1
            return lists

        monkeypatch.setattr(el, "coeff_values", corrupted)
        assert not el.verify_expansion(20, seed=0)

    def test_horner_sum_matches_the_sum_of_fresh_powers(self):
        import psikit.eightlevels as el

        for n in range(1, el.SYMBOLIC_LIMIT + 1):
            lhs, rhs = el._expansion_sides(n)
            oracle_lhs, oracle_rhs = expansion_sides_by_powers(n)
            assert rhs == oracle_rhs and str(rhs) == str(oracle_rhs)
            assert lhs == oracle_lhs == rhs


def _flipped(poly: SparsePoly) -> SparsePoly:
    """``poly`` with the sign of one coefficient flipped."""
    terms = dict(poly.terms)
    first = min(terms)
    terms[first] = -terms[first]
    return SparsePoly(poly.vars, terms)


class TestSymbolicChecksDetectCorruption:
    """Each symbolic check fails once one coefficient of the table or of
    psi(a, b, n) is wrong, so no fast path can make a check vacuous."""

    @pytest.fixture
    def bad_row(self, monkeypatch):
        import psikit.eightlevels as el

        orig = el.coeff_table_polys
        monkeypatch.setattr(el, "coeff_table_polys", lambda n: (_flipped(orig(n)[0]), *orig(n)[1:]))
        return el

    @pytest.fixture
    def bad_psi(self, monkeypatch):
        import psikit.eightlevels as el

        orig = el.psi_symbolic
        monkeypatch.setattr(el, "psi_symbolic", lambda *args: _flipped(orig(*args)))
        return el

    def test_a_wrong_row(self, bad_row):
        el = bad_row
        for n in range(1, el.SYMBOLIC_LIMIT + 1):
            assert not el.verify_expansion(n)
        for n in range(1, 13):
            assert not el.theta_sum_check(n)
        # at n = 1 the one row is a constant, self-dual and flat
        for n in range(2, 13):
            assert not el.scaling_check(n)
            assert not el.first_fundamental_check(n)

    def test_a_wrong_base_polynomial(self, bad_psi):
        el = bad_psi
        for n in range(1, 13):
            assert not el.theta_sum_check(n)
            assert not el.second_fundamental_check(n)
            assert not el.power_sum_representation_check(n)


class TestBasisCoefficients:
    def test_small_rows(self):
        assert expand_powersum_basis(1) == [1]
        assert expand_powersum_basis(4) == [-2, 0, 1]
        assert expand_powersum_basis(5) == [-1, -1, 1]

    def test_quartic_identity(self):
        assert X**4 + Y**4 == -2 * (X * Y) ** 2 + (X**2 + Y**2) ** 2

    def test_known_eight_level_values(self):
        assert eight_level_coeff(8, 0) == 2
        assert eight_level_coeff(8, 1) == 0
        assert eight_level_coeff(8, 2) == -4
        assert eight_level_coeff(5, 0) == -1
        assert eight_level_coeff(5, 1) == -1
        assert eight_level_coeff(5, 2) == 1

    def test_leading_constant_by_residue_class(self):
        expected = {0: 2, 1: 1, 2: 0, 3: -1, 4: -2, 5: -1, 6: 0, 7: 1}
        for n in range(1, 65):
            assert eight_level_coeff(n, 0) == expected[n % 8]

    def test_closed_forms_match_symbolic_expansion_to_64(self):
        for n in range(1, 65):
            oracle = expand_powersum_basis(n)
            closed = [eight_level_coeff(n, k) for k in range(half(n) + 1)]
            assert closed == oracle, f"n={n}"

    def test_every_residue_class_hit_eight_times(self):
        from collections import Counter

        counts = Counter(n % 8 for n in range(1, 65))
        assert all(counts[r] == 8 for r in range(8))


class TestFamilyProperties:
    def test_theta_sums(self):
        for n in range(1, 11):
            assert theta_sum_check(n)

    def test_scaling_and_duality(self):
        for n in range(1, 11):
            assert scaling_check(n)

    def test_first_fundamental_ladders(self):
        for n in range(1, 11):
            assert first_fundamental_check(n)

    def test_first_fundamental_quartic_spotcheck(self):
        # (alpha d/da + beta d/db)(-2a^2 + b^2) == -(1) * (4 a alpha - 2 b beta)
        up = AL * (-2 * A**2 + B**2).diff("a") + BE * (-2 * A**2 + B**2).diff("b")
        assert up == -(4 * A * AL - 2 * B * BE)
        # the top row has no (a, b) dependence left
        top = coeff_table_polys(4)[2]
        assert AL * top.diff("a") + BE * top.diff("b") == SparsePoly.zero()

    def test_second_fundamental(self):
        for n in range(1, 11):
            assert second_fundamental_check(n)

    def test_second_fundamental_numeric_instance(self):
        # collapse at (alpha, beta) = (1, 3) equals the endpoint value
        vals = coeff_values(6, 0, 0, 1, 3)[6]
        # row m evaluated anywhere in (a,b) equals (-1)^m psi(alpha,beta,n)
        assert vals[3] == (-1) ** 3 * psi_recurrence(1, 3, 6)
        assert psi_recurrence(1, 3, 6) == -18

    def test_power_sum_representation(self):
        for n in range(1, 13):
            assert power_sum_representation_check(n)

    def test_explicit_formulas(self):
        for n in range(1, 25):
            assert explicit_formula_check(n)

    def test_explicit_formula_spot_values(self):
        assert coeff_values(4, 0, 1, 1, 2)[4][2] == 2
        assert coeff_values(4, 1, -2, 1, 2)[4][1] == 12
        assert coeff_values(1, 0, 1, 1, 2)[1][0] == 1

    def test_linear_combination_of_directions(self):
        for n in range(1, 25):
            assert linear_combination_check(n, seed=n)

    def test_uniqueness_via_independent_routes(self):
        # three independent computations of the same table agree; combined
        # with verify_expansion this pins the solution of the linear system
        for n in range(1, 17):
            table = coeff_table_polys(n)
            assert coeff_via_basechange(n) == table
            assert tuple(coeff_dual(n, r) for r in range(half(n) + 1)) == table
            assert verify_expansion(n)


class TestCoeffValues:
    def test_matches_polynomial_rows(self):
        # a and b from each exact ring the pass is generic over
        rng = random.Random(51)
        rings = (
            lambda: rng.randint(-9, 9),
            lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            lambda: QuadExt(5, rng.randint(-9, 9), rng.randint(-9, 9)),
        )
        for ring in rings:
            for _ in range(10):
                a, b = ring(), ring()
                al, be = rng.randint(-9, 9), rng.randint(-9, 9)
                lists = coeff_values(40, a, b, al, be)
                assert len(lists) == 41
                for n in (0, 1, 3, 5, 8, 11, 24, 40):
                    rows = coeff_table_polys(n)
                    assert len(lists[n]) == len(rows)
                    for r, row in enumerate(rows):
                        expected = eval_scalar(row, {"a": a, "b": b, "alpha": al, "beta": be})
                        assert lists[n][r] == expected, (n, r, a, b, al, be)

    def test_one_pass_matches_oracles_at_every_index(self):
        # element n of one pass to 40 against the tables (n <= 12) and the
        # derivative tower (n <= 40), at points with zero and negative entries
        rng = random.Random(13)
        points = [(0, 0, 1, 3), (-3, 0, 0, -2), (0, -5, -4, 0), (2, -7, 0, 0)]
        points += [tuple(rng.randint(-9, 9) for _ in range(4)) for _ in range(4)]
        duals = {n: [coeff_dual(n, r) for r in range(half(n) + 1)] for n in range(41)}
        for a, b, al, be in points:
            at = {"a": a, "b": b, "alpha": al, "beta": be}
            lists = coeff_values(40, a, b, al, be)
            for n in range(41):
                assert lists[n] == [eval_scalar(row, at) for row in duals[n]], (n, at)
                if n <= 12:
                    assert lists[n] == [eval_scalar(row, at) for row in coeff_table_polys(n)]

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            coeff_values(-1, 1, 2, 3, 4)
        with pytest.raises(CapacityError):
            coeff_values(SYMBOLIC_INDEX_CAP + 1, 1, 2, 3, 4)
        lists = coeff_values(SYMBOLIC_INDEX_CAP, 1, 2, 3, 4)
        assert len(lists) == SYMBOLIC_INDEX_CAP + 1
        assert [len(row) for row in lists] == [half(n) + 1 for n in range(len(lists))]
        assert coeff_values(0, 1, 2, 3, 4) == [[2]]
        # rows of n = 130 have degree 65
        assert TABLE_DEGREE_CAP == 64
        for build in (coeff_table_polys, coeff_table_text):
            with pytest.raises(CapacityError):
                build(130)
            with pytest.raises(ValueError):
                build(-1)

    def test_power_sum_polynomial(self):
        assert power_sum_poly(3) == X**2 - X * Y + Y**2
        assert power_sum_poly(0) == 2
        assert power_sum_poly(2) == X**2 + Y**2
