"""The antisymmetric bracket [x,y|u,v] and sums-of-like-powers expansions.

    [x, y | u, v] := (xu - yv)(xv - yu) = (x^2 + y^2)uv - xy(u^2 + v^2)

The bracket powers the three-term expansion that relates the power sums of
three variable pairs, including the degenerate n = 2, 3 identities (empty
right-hand side) and the quintic parametric family x^5+y^5+z^5+t^5 = d^2.
"""

from __future__ import annotations

from math import factorial

from .eightlevels import apply_direction, expand_powersum_basis, power_sum_poly
from .limits import check
from .multipoly import form_at, variables
from .psicore import half

__all__ = [
    "bracket",
    "verify_special_case",
    "bracket_xy_identity_check",
    "quintic_parametric_values",
    "quintic_parametric_check",
    "quintic_parametric_symbolic",
]


def bracket(x, y, u, v):
    """(xu - yv)(xv - yu); works for scalars and polynomials alike."""
    return (x * u - y * v) * (x * v - y * u)


def _derivative_terms(n: int):
    """Formal direction derivatives of the power sum in the basis symbols.

    The power sum in (z, t) is rewritten over fresh symbols s1 = z*t,
    s2 = z^2 + t^2 via the integer basis expansion; the direction operator
    u*v * d/ds1 + (u^2 + v^2) * d/ds2 is then applied repeatedly before the
    symbols are substituted back.
    """
    m = half(n)
    s1, s2, u, v = variables("s1 s2 u v")
    direction_a = u * v
    direction_b = u * u + v * v
    out = []
    current = form_at(expand_powersum_basis(n), s1, s2)
    for _ in range(1, m):
        current = apply_direction(current, direction_a, direction_b, "s1", "s2")
        out.append(current)
    return out


def verify_special_case(n: int) -> bool:
    """Three-pair power-sum expansion for index n within the bounds of verify
    powersums' --nmax, fully symbolic in (x, y, z, t, u, v):

        [z,t|u,v]^m P(x,y) - [x,y|u,v]^m P(z,t) - [z,t|x,y]^m P(u,v)
          = sum_{r=1}^{m-1} 1/r! [x,y|u,v]^(m-r) [z,t|x,y]^r D^r P(z,t)

    where P is the power sum, m = floor(n/2) and D is the formal direction
    derivative over the basis (zt, z^2 + t^2).
    """
    m = half(check("verify powersums", n))
    x, y, z, t, u, v = variables("x y z t u v")
    zt_uv, xy_uv, zt_xy = bracket(z, t, u, v), bracket(x, y, u, v), bracket(z, t, x, y)
    lhs = (
        zt_uv**m * power_sum_poly(n, "x", "y")
        - xy_uv**m * power_sum_poly(n, "z", "t")
        - zt_xy**m * power_sum_poly(n, "u", "v")
    )
    # both sides times (m - 1)!, so that term r carries the integer (m - 1)! / r!
    back = {"s1": z * t, "s2": z * z + t * t}
    scale = factorial(m - 1)
    weights = [scale // factorial(r) * d.subst(back) for r, d in enumerate(_derivative_terms(n), 1)]
    return form_at([0, *weights, 0], xy_uv, zt_xy) == scale * lhs


def bracket_xy_identity_check() -> bool:
    """[z,t|u,v] xy + [u,v|x,y] zt + [x,y|z,t] uv == 0 symbolically."""
    x, y, z, t, u, v = variables("x y z t u v")
    total = (
        bracket(z, t, u, v) * x * y
        + bracket(u, v, x, y) * z * t
        + bracket(x, y, z, t) * u * v
    )
    return total.is_zero


def quintic_parametric_values(p, q):
    """The parametrised quadruple (x, y, z, t) and the square root d."""
    x = 5 * p * q
    y = 5 * (p * p + p * q + q * q)
    z = -5 * p * (p + q)
    t = -5 * q * (p + q)
    d = 125 * p * q * (p + q) * (p * p + p * q + q * q)
    return x, y, z, t, d


def quintic_parametric_check(p: int, q: int) -> bool:
    """x^5 + y^5 + z^5 + t^5 == d^2 at an integer point."""
    x, y, z, t, d = quintic_parametric_values(p, q)
    return x**5 + y**5 + z**5 + t**5 == d * d


def quintic_parametric_symbolic() -> bool:
    """The same identity as a polynomial identity in (p, q)."""
    p, q = variables("p q")
    x, y, z, t, d = quintic_parametric_values(p, q)
    return (x**5 + y**5 + z**5 + t**5 - d * d).is_zero
