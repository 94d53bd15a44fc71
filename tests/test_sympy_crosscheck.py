"""The symbolic layers against sympy's own expansion of each definition.

sympy is a test-only dependency; without it this module is skipped.
"""

from fractions import Fraction

import pytest

from psikit.eightlevels import coeff_table_polys, power_sum_poly
from psikit.psicore import parity, psi_symbolic

sympy = pytest.importorskip("sympy")

a, b, alpha, beta, theta, x, y = sympy.symbols("a b alpha beta theta x y")


def sympy_psi(A, B, n):
    """psi(A, B, n) from its defining recurrence, expanded by sympy."""
    lo, hi = sympy.Integer(2), sympy.Integer(1)
    if n == 0:
        return lo
    for k in range(1, n):
        lo, hi = hi, sympy.expand((2 * A - B) ** (k % 2) * hi - A * lo)
    return hi


def sympy_terms(expr, names):
    """{exponents over names: coefficient} of a sympy polynomial."""
    poly = sympy.Poly(expr, *sympy.symbols(names))
    return {e: Fraction(int(c.p), int(c.q)) for e, c in poly.terms() if c}


def our_terms(poly, names):
    """{exponents over names: coefficient} of a SparsePoly."""
    assert set(poly.vars) <= set(names)
    return {
        tuple(dict(zip(poly.vars, e)).get(v, 0) for v in names): Fraction(c)
        for e, c in poly.terms.items()
    }


@pytest.mark.parametrize("n", range(17))
def test_psi_symbolic(n):
    names = ("a", "b")
    assert our_terms(psi_symbolic(n), names) == sympy_terms(sympy_psi(a, b, n), names)


@pytest.mark.parametrize("n", range(11))
def test_coeff_table_rows_are_theta_coefficients(n):
    shifted = sympy.Poly(sympy_psi(a - alpha * theta, b - beta * theta, n), theta)
    names = ("a", "alpha", "b", "beta")
    rows = coeff_table_polys(n)
    assert len(rows) == n // 2 + 1 and shifted.degree() <= n // 2
    for r, row in enumerate(rows):
        expected = shifted.coeff_monomial(theta**r)
        assert our_terms(row, names) == sympy_terms(expected, names), r


@pytest.mark.parametrize("n", range(13))
def test_power_sum_poly(n):
    expected = sympy.cancel((x**n + y**n) / (x + y) ** parity(n))
    names = ("x", "y")
    assert our_terms(power_sum_poly(n), names) == sympy_terms(expected, names)
