"""Slow independent routes that only the tests use, as oracles for the
production code in ``psikit``."""

from fractions import Fraction
from math import comb, factorial

from psikit.eightlevels import apply_direction
from psikit.multipoly import SparsePoly, variables
from psikit.psicore import half, psi_symbolic


def coeff_dual(n: int, r: int) -> SparsePoly:
    """Coefficient r via the dual operator acting on psi(alpha, beta, n)."""
    m = half(n)
    if not 0 <= r <= m:
        raise ValueError(f"r={r} out of range for n={n}")
    a = SparsePoly.variable("a")
    b = SparsePoly.variable("b")
    current = psi_symbolic(n, "alpha", "beta")
    for _ in range(m - r):
        current = apply_direction(current, a, b, "alpha", "beta")
    row = Fraction((-1) ** r, factorial(m - r)) * current
    if any(c.denominator != 1 for c in row.terms.values()):
        raise ArithmeticError(f"non-integer dual coefficient at r={r}, n={n}")
    return row


def coeff_via_basechange(n: int) -> tuple[SparsePoly, ...]:
    """Coefficient table by substituting the two quadratic forms directly.

    Starting from the binomial expansion of the power sum over the basis
    (xy, (x+y)^2) and using

        (beta*a - alpha*b) * (x+y)^2 = (2a-b)*q1 + (beta-2*alpha)*q2
        (beta*a - alpha*b) * xy      = a*q1 - alpha*q2

    the whole left side becomes a polynomial in formal symbols q1, q2 whose
    (q1, q2)-coefficients must reproduce the table.  No differentiation is
    involved, so this is an independent oracle.
    """
    m = half(n)
    a, alpha, b, beta, s1, s2 = variables("a alpha b beta q1 q2")
    xy_image = a * s1 - alpha * s2
    sq_image = (2 * a - b) * s1 + (beta - 2 * alpha) * s2
    total = SparsePoly.zero()
    for i in range(m + 1):
        w = Fraction(n, n - i) * comb(n - i, i) if n else Fraction(2)
        if w.denominator != 1:
            raise ArithmeticError("non-integral binomial weight")
        total = total + (-1) ** i * int(w) * xy_image**i * sq_image ** (m - i)
    rows = []
    for r in range(m + 1):
        picked: dict[tuple, Fraction] = {}
        for exps, c in total.terms.items():
            dexp = dict(zip(total.vars, exps))
            if dexp.get("q1", 0) == m - r and dexp.get("q2", 0) == r:
                key = tuple(dexp.get(v, 0) for v in ("a", "alpha", "b", "beta"))
                picked[key] = c
        rows.append(SparsePoly(("a", "alpha", "b", "beta"), picked))
    return tuple(rows)


def reduce_square(poly: SparsePoly, var: str, value) -> SparsePoly:
    """Rewrite ``var**2 -> value`` (for formal symbols such as i**2 = -1)."""
    if var not in poly.vars:
        return poly
    i = poly.vars.index(var)
    out: dict[tuple, Fraction] = {}
    for e, c in poly.terms.items():
        q, r = divmod(e[i], 2)
        key = e[:i] + (r,) + e[i + 1:]
        s = out.get(key, Fraction(0)) + c * Fraction(value) ** q
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return SparsePoly(poly.vars, out)


def bracket_pair_form(x, y, u, v):
    """The second defining form (x^2 + y^2)uv - xy(u^2 + v^2) of the bracket."""
    return (x * x + y * y) * u * v - x * y * (u * u + v * v)
