import random

import pytest

from psikit.errors import CapacityError
from psikit.multipoly import SparsePoly, variables
from psikit.powersums import (
    bracket,
    bracket_xy_identity_check,
    quintic_parametric_check,
    quintic_parametric_symbolic,
    quintic_parametric_values,
    verify_special_case,
)

from oracles import bracket_pair_form, reduce_square

X, Y, Z, T, U, V = variables("x y z t u v")
D = SparsePoly.variable("d")
I = SparsePoly.variable("i")


def _reduce_i(poly):
    return reduce_square(poly, "i", -1)


class TestBracketElementaryProperties:
    def test_defining_forms_agree(self):
        assert bracket(X, Y, U, V) == bracket_pair_form(X, Y, U, V)

    def test_antisymmetry(self):
        assert bracket(X, Y, U, V) == -bracket(U, V, X, Y)

    def test_argument_swaps(self):
        base = bracket(X, Y, U, V)
        assert bracket(Y, X, U, V) == base
        assert bracket(X, Y, V, U) == base
        assert bracket(Y, X, V, U) == base

    def test_bilinear_scaling(self):
        base = bracket(X, Y, U, V)
        assert bracket(D * X, D * Y, U, V) == D**2 * base
        assert bracket(X, Y, D * U, D * V) == D**2 * base

    def test_constant_argument_rows(self):
        assert bracket(0, 1, U, V) == U * V
        assert bracket(1, 1, U, V) == -((U - V) ** 2)
        assert bracket(1, -1, U, V) == (U + V) ** 2

    def test_formal_imaginary_rows(self):
        # i is a formal symbol reduced by i^2 -> -1
        assert _reduce_i(bracket(1, -I, U, V)) == I * (U**2 + V**2)
        assert _reduce_i(bracket(1, I, U, V)) == -I * (U**2 + V**2)
        assert _reduce_i(bracket(I, I, U, V)) == (U - V) ** 2

    def test_self_bracket_vanishes(self):
        assert bracket(X, Y, X, Y) == (X**2 - Y**2) * 0


class TestThreePairExpansion:
    def test_full_range(self):
        for n in range(2, 11):
            assert verify_special_case(n), f"n={n}"

    def test_quadratic_three_term_identity(self):
        total = (
            bracket(Z, T, U, V) * (X**2 + Y**2)
            + bracket(U, V, X, Y) * (Z**2 + T**2)
            + bracket(X, Y, Z, T) * (U**2 + V**2)
        )
        assert total.is_zero

    def test_cubic_three_term_identity(self):
        total = (
            bracket(Z, T, U, V) * (X**2 - X * Y + Y**2)
            + bracket(U, V, X, Y) * (Z**2 - Z * T + T**2)
            + bracket(X, Y, Z, T) * (U**2 - U * V + V**2)
        )
        assert total.is_zero

    def test_quartic_identity_with_rhs(self):
        lhs = (
            bracket(Z, T, U, V) ** 2 * (X**4 + Y**4)
            - bracket(U, V, X, Y) ** 2 * (Z**4 + T**4)
            - bracket(X, Y, Z, T) ** 2 * (U**4 + V**4)
        )
        rhs = (
            2
            * bracket(X, Y, U, V)
            * bracket(Z, T, X, Y)
            * ((Z**2 + T**2) * (U**2 + V**2) - 2 * Z * T * U * V)
        )
        assert lhs == rhs

    def test_quintic_identity_with_rhs(self):
        def ps5(p, q):
            return p**4 - p**3 * q + p**2 * q**2 - p * q**3 + q**4

        lhs = (
            bracket(Z, T, U, V) ** 2 * ps5(X, Y)
            - bracket(U, V, X, Y) ** 2 * ps5(Z, T)
            - bracket(X, Y, Z, T) ** 2 * ps5(U, V)
        )
        rhs = (
            bracket(X, Y, U, V)
            * bracket(Z, T, X, Y)
            * (
                (U**2 + V**2 - U * V) * (Z**2 + T**2)
                + (Z**2 + T**2 - Z * T) * (U**2 + V**2)
                - 2 * Z * T * U * V
            )
        )
        assert lhs == rhs

    def test_xy_variant(self):
        assert bracket_xy_identity_check()

    def test_xy_variant_numeric_point(self):
        x, y, z, t, u, v = 1, 2, 3, 4, 5, 6
        total = (
            bracket(z, t, u, v) * x * y
            + bracket(u, v, x, y) * z * t
            + bracket(x, y, z, t) * u * v
        )
        assert total == 0

    def test_degenerate_zero_pair(self):
        assert bracket(0, 0, U, V).is_zero

    def test_cap_guard(self):
        with pytest.raises(CapacityError):
            verify_special_case(11)
        with pytest.raises(ValueError):
            verify_special_case(1)


class TestQuinticParametric:
    def test_unit_point(self):
        x, y, z, t, d = quintic_parametric_values(1, 1)
        assert (x, y, z, t, d) == (5, 15, -10, -10, 750)
        assert 3125 + 759375 - 100000 - 100000 == 562500 == 750**2
        assert quintic_parametric_check(1, 1)

    def test_collapsing_point(self):
        x, y, z, t, d = quintic_parametric_values(1, 0)
        assert d == 0 and x**5 + y**5 + z**5 + t**5 == 0
        assert quintic_parametric_check(1, 0)

    def test_symbolic(self):
        assert quintic_parametric_symbolic()

    def test_hundred_random_points(self):
        rng = random.Random(61)
        for _ in range(100):
            assert quintic_parametric_check(rng.randint(-40, 40), rng.randint(-40, 40))
