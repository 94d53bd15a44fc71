"""Expansion of power sums in pairs of symmetric binary quadratic forms.

The central object is the coefficient family

    coeff(a, b, n | alpha, beta, r) = (-1)**r / r! * (alpha*d/da + beta*d/db)**r psi(a, b, n)

for 0 <= r <= floor(n/2).  These are the unique polynomials satisfying

    (beta*a - alpha*b)**floor(n/2) * (x**n + y**n) / (x + y)**parity(n)
        = sum_r coeff_r * (alpha*x^2 + beta*xy + alpha*y^2)**(floor(n/2) - r)
                        * (a*x^2 + b*xy + a*y^2)**r.

This module builds the family from sum_r coeff_r * theta**r =
psi(a - alpha*theta, b - beta*theta, n), verifies the expansion identity,
evaluates the integer specialisation onto the basis (xy, x^2 + y^2), and checks
the theta-sum, scaling, ladder and closed-form properties of the family.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

from .limits import check
from .multipoly import SparsePoly, as_poly, form_at, format_terms, power_texts, variables
from .psicore import (
    half,
    packing_bits,
    parity,
    psi_coeffs,
    psi_recurrence,
    psi_symbolic,
    symbolic_degree,
)

__all__ = [
    "power_sum_poly",
    "apply_direction",
    "coeff_table_polys",
    "coeff_table_arrays",
    "coeff_row_terms",
    "coeff_table_text",
    "coeff_row_texts",
    "table_degree",
    "coeff_values",
    "verify_expansion",
    "verify_expansion_sweep",
    "eight_level_coeff",
    "expand_powersum_basis",
    "theta_sum_check",
    "scaling_check",
    "first_fundamental_check",
    "second_fundamental_check",
    "explicit_formula_check",
    "power_sum_representation_check",
    "linear_combination_check",
]


def power_sum_poly(n: int, xv: str = "x", yv: str = "y") -> SparsePoly:
    """(x**n + y**n) / (x + y)**parity(n) as an exact polynomial: for odd n
    the quotient is sum_j (-1)**j * x**j * y**(n - 1 - j)."""
    if n < 0:
        raise ValueError("index must be >= 0")
    if parity(n):
        return SparsePoly.binary_form([(-1) ** j for j in range(n)], xv, yv)
    return SparsePoly.binary_form([1] + [0] * (n - 1) + [1] if n else [2], xv, yv)


def apply_direction(f: SparsePoly, alpha, beta, avar: str = "a", bvar: str = "b") -> SparsePoly:
    """alpha * df/da + beta * df/db; alpha and beta may be scalars or polys."""
    return as_poly(alpha) * f.diff(avar) + as_poly(beta) * f.diff(bvar)


_TABLE_VARS = ("a", "alpha", "b", "beta")


def table_degree(n: int) -> int:
    """The degree floor(n/2) of the rows of the table for index n, refused
    outside the fixed bounds of coeff table's --n, so no cache holds a table
    that a later call would refuse."""
    return half(check("coeff table", n))


def _degree(n: int) -> int:
    """The degree floor(n/2) of index n of the expansion checks, refused below 1."""
    if n < 1:
        raise ValueError("index must be >= 1")
    return half(n)


def coeff_row_terms(coeffs: list[int], r: int):
    """The terms of row r of the table of the binary form with coefficients
    ``coeffs`` (``psi_coeffs(n)`` for index n), as (exponents of a, alpha, b,
    beta; coefficient) in print order, no coefficient zero.

    Row r is the theta**r coefficient of psi(a - alpha*theta, b - beta*theta, n):
    with m = len(coeffs) - 1, the binomial theorem puts
    (-1)**r * C(j, k) * C(m - j, r - k) * coeffs[j] on
    a**(j-k) * alpha**k * b**(m-j-r+k) * beta**(r-k).  So a's exponent e and
    alpha's k fix j = e + k and b's exponent m - e - r: each monomial has one
    contribution, and e descending, then k descending, is graded-lex order.
    """
    m = len(coeffs) - 1
    sign = (-1) ** r
    for e in range(m - r, -1, -1):
        for k in range(r, -1, -1):
            if c := coeffs[e + k]:
                yield (e, k, m - e - r, r - k), sign * comb(e + k, k) * comb(m - e - k, r - k) * c


@lru_cache(maxsize=None)
def coeff_table_polys(n: int) -> tuple[SparsePoly, ...]:
    """All coefficients for index n, canonical polynomials in a, b, alpha, beta,
    row r from ``coeff_row_terms``.  Rows have degree floor(n/2), bounded by
    ``table_degree``."""
    table_degree(n)
    coeffs = psi_coeffs(n)
    return tuple(
        SparsePoly(_TABLE_VARS, dict(coeff_row_terms(coeffs, r))) for r in range(len(coeffs))
    )


def coeff_table_arrays(n: int) -> list[list[list[int]]] | None:
    """The rows for index n as integer arrays from ``coeff_row_terms``: row r is
    (m - r + 1) x (r + 1), [e][k] the coefficient of a**e * alpha**k *
    b**(m - r - e) * beta**(r - k); None if a term's b or beta exponent does
    not fit, so the shape carries the bidegree.  Bounded by ``table_degree``."""
    m = table_degree(n)
    coeffs = psi_coeffs(n)
    rows = [[[0] * (r + 1) for _ in range(m - r + 1)] for r in range(m + 1)]
    for r, row in enumerate(rows):
        for (e, k, j, l), c in coeff_row_terms(coeffs, r):
            if j != m - r - e or l != r - k:
                return None
            row[e][k] = c
    return rows


def _along(form: list) -> list:
    """D = alpha*d/da + beta*d/db on a form's array, shape (M, R) to (M - 1, R + 1)."""
    top = len(form) - 1
    return [[(e + 1) * x + (top - e) * y for x, y in zip([0] + form[e + 1], form[e] + [0])]
            for e in range(top)]


def coeff_table_text(n: int) -> list[str]:
    """The rows of the table for index n as ``coeff_table_polys`` prints them."""
    m = table_degree(n)
    return coeff_row_texts(psi_coeffs(n), m + 1)


def coeff_row_texts(coeffs: list[int], count: int) -> list[str]:
    """Rows 0..count-1 of the table of the binary form ``coeffs`` as printed,
    from ``coeff_row_terms`` with no polynomial built.  Row 0 is the form
    itself in (a, b): ``psi poly`` writes psi(a, b, n) as row 0 of its table."""
    m = len(coeffs) - 1
    # the monomial is the four printed powers joined, its last "*" cut
    pa, pal, pb, pbe = (power_texts(v, m) for v in _TABLE_VARS)
    return [
        format_terms(
            (c, (pa[i] + pal[k] + pb[j] + pbe[l])[:-1])
            for (i, k, j, l), c in coeff_row_terms(coeffs, r)
        )
        for r in range(count)
    ]


def coeff_values(n: int, a, b, alpha, beta) -> list[list]:
    """The coefficients of every index 0..n at one point, over any exact ring:
    element k is the list of coefficients for index k.  The defining
    recurrence runs once on the theta-coefficient lists of
    psi(a - alpha*theta, b - beta*theta, k), where both factors,
    a - alpha*theta and 2a - b - (2*alpha - beta)*theta, are linear in theta."""
    symbolic_degree(n)

    def times(c0, c1, p):
        """(c0 - c1*theta) * p"""
        return [c0 * x - c1 * y for x, y in zip(p + [0], [0] + p)]

    d, e = 2 * a - b, 2 * alpha - beta
    lists = [[2], [1]]
    for k in range(1, n):
        lo, hi = lists[k - 1], lists[k]
        step = times(d, e, hi) if k % 2 else hi
        lists.append([x - y for x, y in zip(step, times(a, alpha, lo), strict=True)])
    return lists if n else lists[:1]


def _sample_points(seed: int, count: int) -> list[tuple]:
    """``count`` seeded integer points (x, y, a, b, alpha, beta) with
    beta*a - alpha*b != 0 and x + y != 0."""
    import random  # only the randomized checks draw points

    rng = random.Random(seed)
    found = []
    while len(found) < count:
        point = tuple(rng.randint(-99, 99) for _ in range(6))
        xv, yv, av, bv, alv, bev = point
        if bev * av - alv * bv != 0 and xv + yv != 0:
            found.append(point)
    return found


def _expansion_holds(n: int, point: tuple, values: list) -> bool:
    """The expansion identity for index n at one point, given the coefficient
    list ``values`` of index n at that point's (a, b, alpha, beta)."""
    xv, yv, av, bv, alv, bev = point
    m = half(n)
    num = xv**n + yv**n
    if parity(n):
        ps, rem = divmod(num, xv + yv)
        if rem:
            return False
    else:
        ps = num
    lhs = (bev * av - alv * bv) ** m * ps
    q1v = alv * xv * xv + bev * xv * yv + alv * yv * yv
    q2v = av * xv * xv + bv * xv * yv + av * yv * yv
    return lhs == form_at(values, q1v, q2v)


# The expansion checks are symbolic up to this index and sample this many
# points beyond it.
SYMBOLIC_LIMIT = 16
SAMPLE_POINTS = 5


def verify_expansion(n: int, seed: int = 0) -> bool:
    """Check the expansion identity for index n.

    Up to SYMBOLIC_LIMIT the check is a full six-variable polynomial
    identity.  Beyond it, term explosion is avoided by deterministic
    evaluation at SAMPLE_POINTS seeded integer points with
    beta*a - alpha*b != 0; that is a randomized check along sampled lines, not
    a proof.
    """
    _degree(n)
    if n > SYMBOLIC_LIMIT:
        return _sampled_expansion(n, n, seed)[0]
    lhs, rhs = _expansion_sides(n)
    return lhs == rhs


def _expansion_sides(n: int) -> tuple[SparsePoly, SparsePoly]:
    """Both sides of the expansion identity for index n as polynomials in
    x, y, a, b, alpha, beta."""
    m = half(n)
    x, y, a, b, alpha, beta = variables("x y a b alpha beta")
    q1 = alpha * x**2 + beta * x * y + alpha * y**2
    q2 = a * x**2 + b * x * y + a * y**2
    rows = coeff_table_polys(n)
    lhs = (beta * a - alpha * b) ** m * power_sum_poly(n)
    return lhs, form_at(rows, q1, q2)


def verify_expansion_sweep(n_max: int, seed: int = 0) -> list[bool]:
    """``[verify_expansion(n, seed=seed) for n in 1..n_max]`` with one
    coefficient pass per point: the points beyond SYMBOLIC_LIMIT are drawn
    once and each is swept once to n_max."""
    _degree(n_max)
    first = min(SYMBOLIC_LIMIT, n_max)
    results = [verify_expansion(n, seed=seed) for n in range(1, first + 1)]
    if n_max > first:
        results += _sampled_expansion(first + 1, n_max, seed)
    return results


def _sampled_expansion(first: int, n_max: int, seed: int) -> list[bool]:
    """The expansion identity at each index first..n_max, checked at
    SAMPLE_POINTS seeded points, each swept once to n_max by ``coeff_values``."""
    sweeps = [
        (point, coeff_values(n_max, *point[2:]))
        for point in _sample_points(seed, SAMPLE_POINTS)
    ]
    return [
        all(_expansion_holds(n, point, lists[n]) for point, lists in sweeps)
        for n in range(first, n_max + 1)
    ]


_K0_TABLE = {0: 2, 1: 1, 7: 1, 2: 0, 6: 0, 3: -1, 5: -1, 4: -2}


def eight_level_coeff(n: int, k: int) -> int:
    """Integer coefficient of (xy)**(floor(n/2)-k) * (x^2+y^2)**k in the
    power-sum expansion, by the residue-class closed forms (n mod 8)."""
    m = _degree(n)
    if not 0 <= k <= m:
        raise ValueError(f"k={k} out of range for n={n}")
    r8 = n % 8
    if k == 0:
        return _K0_TABLE[r8]
    j = k // 2
    if r8 in (0, 4):
        if k % 2:
            return 0
        prod = 1
        for lam in range(j):
            prod *= n * n - (4 * lam) ** 2
        num = 2 * (-1) ** (j + (1 if r8 == 4 else 0)) * prod
    elif r8 in (2, 6):
        if k % 2 == 0:
            return 0
        prod = 1
        for lam in range(1, j + 1):
            prod *= n * n - (4 * lam - 2) ** 2
        num = 2 * (-1) ** (j + (1 if r8 == 6 else 0)) * n * prod
    elif r8 in (1, 5):
        prod = 1
        for lam in range(1, j + 1):
            prod *= (n + 1) ** 2 - (4 * lam - 2) ** 2
        num = (-1) ** (j + (1 if r8 == 5 else 0)) * (n + 1 - 2 * k) ** parity(k) * prod
    else:  # r8 in (3, 7)
        prod = 1
        for lam in range(1, (k - 1) // 2 + 1):
            prod *= (n + 1) ** 2 - (4 * lam) ** 2
        sign = j + (parity(k - 1) if r8 == 3 else parity(k))
        num = (-1) ** sign * (n + 1) * (n + 1 - 2 * k) ** parity(k - 1) * prod
    den = 4**k * factorial(k)
    value, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"closed form not integral at n={n}, k={k}: {num}/{den}")
    return value


def expand_powersum_basis(n: int) -> list[int]:
    """Coefficients of the power sum over the basis (xy, x^2+y^2): element k
    is the coefficient of (xy)**(m-k) * (x^2+y^2)**k, m = n // 2.

    x**n + y**n = (x^2+y^2) * (x**(n-2) + y**(n-2)) - (xy)**2 * (x**(n-4) + y**(n-4)),
    and so for the quotients by x + y at odd n; so the lists follow
    p_n = s2 * p_(n-2) - s1**2 * p_(n-4) from p_0 = [2], p_1 = [1],
    p_2 = [0, 1] and p_3 = [-1, 1].
    """
    m = _degree(n)
    lo, hi = ([1], [-1, 1]) if parity(n) else ([2], [0, 1])
    for _ in range(m - 1):
        lo, hi = hi, [x - y for x, y in zip([0] + hi, lo + [0, 0])]
    return hi if n > 1 else lo


def theta_sum_check(n: int) -> bool:
    """sum_r coeff_r * theta**r == psi(a - alpha*theta, b - beta*theta, n) and its
    shifts sum_r C(r, k) * coeff_r * theta**(r-k) == coeff_k(a - alpha*theta,
    b - beta*theta), on the rows' arrays.  By Taylor's theorem along
    D = alpha*d/da + beta*d/db they say: row 0 is psi, and D**j row k ==
    (-1)**j * j! * C(k+j, j) * row k+j (k = 0: D**r psi).  The rows come from the
    binomial closed form, the check iterates D.  With the bidegrees the shapes
    fix, the theta = +-1 and (xi, eta) forms follow.  All of it holds for every
    binary form of degree m, so it checks the table, not psi."""
    _degree(n)
    rows = coeff_table_arrays(n)
    if rows is None or rows[0] != [[c] for c in psi_coeffs(n)]:
        return False
    for k, current in enumerate(rows):
        for j in range(1, len(rows) - k):
            current, c = _along(current), (-1) ** j * factorial(j) * comb(k + j, j)
            if current != [[c * x for x in line] for line in rows[k + j]]:
                return False
    return True


def scaling_check(n: int) -> bool:
    """Homogeneity and duality of the coefficient family: degree r in
    (alpha, beta), the role-swap duality with sign (-1)**m, which makes row
    r's degree in (a, b) that of row m - r in (alpha, beta), and
    m-homogeneity of the base polynomial.  Each degree is read from the
    exponents.  All hold for the table of every binary form of degree m."""
    m = _degree(n)
    rows = coeff_table_polys(n)
    a, b, alpha, beta = variables("a b alpha beta")
    for r in range(m + 1):
        row = rows[r]
        if not row.degrees_in("alpha", "beta") <= {r}:
            return False
        swapped = rows[m - r].subst(
            {"a": alpha, "b": beta, "alpha": a, "beta": b}
        )
        if row != (-1) ** m * swapped:
            return False
    return psi_symbolic(n).degrees_in("a", "b") <= {m}


def first_fundamental_check(n: int) -> bool:
    """Both derivative ladders between neighbouring coefficients, zero past
    either end, on the rows' arrays (the second operator is the first on the
    transposed array); they hold for the table of every binary form of degree m:

        (alpha*d/da + beta*d/db) coeff_r = -(r+1) * coeff_{r+1}
        (a*d/dalpha + b*d/dbeta) coeff_r = -(m-r+1) * coeff_{r-1}"""
    m = _degree(n)
    rows = coeff_table_arrays(n)
    if rows is None:
        return False
    for r, row in enumerate(rows):
        up = [[-(r + 1) * x for x in line] for line in rows[r + 1]] if r < m else []
        down = [[(r - m - 1) * x for x in line] for line in rows[r - 1]] if r else []
        dual = [list(column) for column in zip(*_along([list(c) for c in zip(*row)]))]
        if _along(row) != up or dual != down:
            return False
    return True


def second_fundamental_check(n: int) -> bool:
    """The m-th derivative power collapses psi(a,b,n) onto psi(alpha,beta,n),
    as it does every binary form of degree m (on psi's array, a column); the
    power-sum half pins psi: psi(xy, -(x^2+y^2), n) (``power_sum_representation_check``)
    and the independent basis expansion over (xy, x^2+y^2) are the power sum.

    The basis expansion is rebuilt at one packed integer point:
    form_at(basis, x*y, x*x + y*y) == power_sum_poly(n) are binary forms of
    degree 2m on both sides, so y = 1 drops no monomial, and x = 2**K.  The
    term (xy)**(m-k) * (x^2+y^2)**k has 1-norm 2**k, so the rebuilt side has
    1-norm at most sum_k |c_k| * 2**k and the power sum at most n; K is
    ``packing_bits`` of both, and equal integers mean equal forms."""
    _degree(n)
    m = symbolic_degree(n)
    current = [[c] for c in psi_coeffs(n)]
    for _ in range(m):
        current = _along(current)
    if current != [[factorial(m) * c for c in psi_coeffs(n)]]:
        return False
    basis = expand_powersum_basis(n)
    x = 1 << packing_bits(n, sum(abs(c) << k for k, c in enumerate(basis)))
    # (x**n + y**n) / (x + y)**parity(n) at y = 1
    rebuilt = form_at(basis, x, x * x + 1) == (x**n + 1) // (x + 1) ** parity(n)
    return power_sum_representation_check(n) and rebuilt


def power_sum_representation_check(n: int) -> bool:
    """psi(xy, -(x^2+y^2), n) == (x**n + y**n) / (x+y)**parity(n)."""
    x, y = variables("x y")
    image = psi_symbolic(n).subst({"a": x * y, "b": -(x * x + y * y)})
    return image == power_sum_poly(n)


def explicit_formula_check(n: int) -> bool:
    """Closed forms of the family at two classical specialisations.

    At (a, b, alpha, beta) = (0, 1, 1, 2) the value is
    (-1)**(m-r) * n/(n-r) * C(n-r, r); at (1, -2, 1, 2) it is
    2**parity(n-1) * C(n, 2r), the coefficient read off the expansion of
    4**m times the power sum over ((x+y)^2, (x-y)^2).
    """
    m = _degree(n)
    first = coeff_values(n, 0, 1, 1, 2)[n]
    for r in range(m + 1):
        w, rem = divmod(n * comb(n - r, r), n - r)
        if rem:
            return False
        if first[r] != (-1) ** (m - r) * w:
            return False
    second = coeff_values(n, 1, -2, 1, 2)[n]
    scale = 2 ** parity(n - 1)
    for r in range(m + 1):
        if second[r] != scale * comb(n, 2 * r):
            return False
    if n <= 12:
        x, y = variables("x y")
        rhs = form_at([scale * comb(n, 2 * r) for r in range(m + 1)], (x + y) ** 2, (x - y) ** 2)
        if 4**m * power_sum_poly(n) != rhs:
            return False
    return True


def linear_combination_check(n: int, seed: int = 0, count: int = 3) -> bool:
    """A weighted sum of m-th direction-derivative powers applied to the base
    polynomial equals m! times the same weighted sum of endpoint values."""
    m = _degree(n)
    import random  # only the randomized checks draw points

    rng = random.Random(seed)
    base = psi_symbolic(n)
    total = SparsePoly.zero()
    expected = 0
    for _ in range(count):
        while True:
            al, be = rng.randint(-9, 9), rng.randint(-9, 9)
            if (al, be) != (0, 0):
                break
        mu = rng.randint(-9, 9)
        current = base
        for _ in range(m):
            current = apply_direction(current, al, be)
        total = total + mu * current
        expected += mu * psi_recurrence(al, be, n)
    return total == factorial(m) * expected
