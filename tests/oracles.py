"""Slow independent routes that only the tests use, as oracles for the
production code in ``psikit``."""

from fractions import Fraction
from math import comb, factorial, gcd
from operator import add, sub

from psikit import bridges
from psikit.eightlevels import apply_direction, coeff_table_polys, power_sum_poly
from psikit.exactmath import RadicandMismatchError
from psikit.mersenne import TestReport
from psikit.multipoly import MAX_DEGREE, DegreeCapExceeded, SparsePoly, as_poly, form_at, variables
from psikit.psicore import _square_chain, half, parity, psi_sequence, psi_symbolic, psi_terms


def eval_scalar(poly: SparsePoly, values):
    """``poly`` evaluated with values from any exact commutative ring, term by
    term: the oracle of every evaluation at a point."""
    missing = [v for v in poly.vars if v not in values]
    if missing:
        raise ValueError(f"unbound variables {missing}")
    total = 0
    for e, term in poly.terms.items():
        for v, k in zip(poly.vars, e):
            if k:
                term = term * values[v] ** k
        total = total + term
    return total


def coefficient(poly: SparsePoly, monomial) -> int:
    """Coefficient in ``poly`` of the monomial given as ``{var: exponent}``."""
    if any(e and v not in poly.vars for v, e in monomial.items()):
        return 0
    return poly.terms.get(tuple(monomial.get(v, 0) for v in poly.vars), 0)


class ExactDivisionError(ArithmeticError):
    """The divisor does not divide the dividend exactly."""


def exact_div(poly: SparsePoly, divisor) -> SparsePoly:
    """The exact quotient with integer coefficients, by graded-lex long
    division over the exponent tuples of ``terms``; raises ExactDivisionError
    otherwise.  The power-sum oracle divides by it."""
    divisor = as_poly(divisor)
    if divisor.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    names = tuple(sorted(set(poly.vars) | set(divisor.vars)))

    def graded(p):
        """The terms of ``p`` keyed by (degree, exponents over names)."""
        return {
            (sum(e), *[dict(zip(p.vars, e)).get(v, 0) for v in names]): c
            for e, c in p.terms.items()
        }

    num, den = graded(poly), graded(divisor)
    dlead = max(den)
    quotient = {}
    while num:
        lead = max(num)
        qe = tuple(map(sub, lead, dlead))
        qc, rem = divmod(num[lead], den[dlead])
        if rem or min(qe) < 0:
            raise ExactDivisionError("division is not exact")
        quotient[qe[1:]] = qc
        for e, c in den.items():
            key = tuple(map(add, qe, e))
            num[key] = num.get(key, 0) - qc * c
            if not num[key]:
                del num[key]
    return SparsePoly(names, quotient)


def subst_by_terms(poly: SparsePoly, bindings) -> SparsePoly:
    """``poly.subst(bindings)`` term by term through the ring operations:
    each term's image is its coefficient times the powers of the images of
    its variables (a variable with no binding is its own image), added into
    the total.  A term that uses a variable bound to zero is skipped, never
    expanded, and the degree of each other term's image is checked against
    ``MAX_DEGREE`` before any of it is formed.  The oracle of ``subst``."""
    images = {v: as_poly(x) for v, x in bindings.items()}
    total = SparsePoly.zero()
    for exps, c in poly.terms.items():
        factors = [
            (images[v] if v in images else SparsePoly.variable(v), e)
            for v, e in zip(poly.vars, exps)
            if e
        ]
        if any(f.is_zero for f, _ in factors):
            continue
        degree = sum(f.total_degree() * e for f, e in factors)
        if degree > MAX_DEGREE:
            raise DegreeCapExceeded(f"product degree {degree} exceeds cap {MAX_DEGREE}")
        piece = SparsePoly.constant(c)
        for f, e in factors:
            piece = piece * f**e
        total = total + piece
    return total


# The polynomial families of the bridges, terms 0..n_max in one pass of
# ``bridges._poly_terms`` (looked up when called): the oracles of the packed
# integer check of the three polynomial bridges.


def pell_lucas_poly_terms(n_max: int) -> list[SparsePoly]:
    (x,) = variables("x")
    return bridges._poly_terms(n_max, SparsePoly.constant(2), 2 * x, lambda a, b: 2 * x * b + a)


def chebyshev_t_terms(n_max: int) -> list[SparsePoly]:
    (x,) = variables("x")
    return bridges._poly_terms(n_max, SparsePoly.constant(1), x, lambda a, b: 2 * x * b - a)


def dickson_d_terms(n_max: int) -> list[SparsePoly]:
    x, al = variables("x alpha")
    return bridges._poly_terms(n_max, SparsePoly.constant(2), x, lambda a, b: x * b - al * a)


def polynomial_bridge_sides(name: str, n_max: int) -> tuple[list, list]:
    """Both sides of the polynomial bridge ``name``, terms 0..n_max, as
    polynomials in x (and alpha): the psi side from the ``SparsePoly``
    recurrence, the oracle side from the families above."""
    x, al = variables("x alpha")
    if name == "pell-lucas-polynomials":
        psi, factor = psi_sequence(-1, -2 - 4 * x**2, n_max), 2 * x
        oracle = pell_lucas_poly_terms(n_max)
    elif name == "dickson-first-kind":
        psi, factor = psi_sequence(al, 2 * al - x**2, n_max), x
        oracle = dickson_d_terms(n_max)
    elif name == "chebyshev-first-kind":
        psi, factor = psi_sequence(1, 2 - 4 * x**2, n_max), x
        oracle = [2 ** parity(n + 1) * t for n, t in enumerate(chebyshev_t_terms(n_max))]
    else:
        raise KeyError(name)
    return [factor ** parity(n) * v for n, v in enumerate(psi)], oracle


def powersum_rebuild_by_polys(n: int, basis: list[int]) -> bool:
    """form_at(basis, x*y, x*x + y*y) == power_sum_poly(n) on polynomials: the
    oracle of the packed basis rebuild in ``second_fundamental_check``."""
    x, y = variables("x y")
    return form_at(basis, x * y, x * x + y * y) == power_sum_poly(n)


# Term n of each polynomial family of the bridges.


def pell_lucas_poly(n: int) -> SparsePoly:
    return pell_lucas_poly_terms(n)[n]


def chebyshev_t(n: int) -> SparsePoly:
    return chebyshev_t_terms(n)[n]


def dickson_d(n: int) -> SparsePoly:
    return dickson_d_terms(n)[n]


class TuplePoly:
    """The tuple-keyed polynomial kernel, an oracle for ``SparsePoly``: each
    monomial is an exponent tuple over the sorted variables, every result goes
    through the canonicalising constructor, and powers are repeated products.

    It takes the same canonical form (sorted used variables, no zero terms,
    integral ``Fraction`` stored as ``int``), prints the same text, and
    refuses the same products past ``MAX_DEGREE`` and the same quotients that
    leave the integers.
    """

    def __init__(self, vars=(), terms=None):
        vars = tuple(vars)
        cleaned = {}
        for exps, c in (terms or {}).items():
            if c:
                cleaned[tuple(exps)] = c.numerator if c.denominator == 1 else c
        used = sorted((i for i in range(len(vars)) if any(e[i] for e in cleaned)),
                      key=lambda i: vars[i])
        self.vars = tuple(vars[i] for i in used)
        self.terms = {tuple(e[i] for i in used): c for e, c in cleaned.items()}

    @classmethod
    def of(cls, value):
        """The oracle's copy of a ``SparsePoly`` or a scalar."""
        if isinstance(value, cls):
            return value
        if isinstance(value, (int, Fraction)):
            return cls((), {(): value})
        return cls(value.vars, value.terms)

    def total_degree(self):
        return max(map(sum, self.terms), default=0)

    def _aligned(self, other):
        allvars = tuple(sorted(set(self.vars) | set(other.vars)))

        def widened(p):
            return {
                tuple(dict(zip(p.vars, e)).get(v, 0) for v in allvars): c
                for e, c in p.terms.items()
            }

        return allvars, widened(self), widened(other)

    def __add__(self, other):
        vars_, mine, theirs = self._aligned(TuplePoly.of(other))
        for e, c in theirs.items():
            mine[e] = mine.get(e, 0) + c
        return TuplePoly(vars_, mine)

    __radd__ = __add__

    def __neg__(self):
        return TuplePoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -TuplePoly.of(other)

    def __mul__(self, other):
        other = TuplePoly.of(other)
        if self.terms and other.terms:
            degree = self.total_degree() + other.total_degree()
            if degree > MAX_DEGREE:
                raise DegreeCapExceeded(f"product degree {degree} exceeds cap {MAX_DEGREE}")
        vars_, mine, theirs = self._aligned(other)
        out = {}
        for e1, c1 in mine.items():
            for e2, c2 in theirs.items():
                key = tuple(map(add, e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return TuplePoly(vars_, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        result = TuplePoly.of(1)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        return self.vars == other.vars and self.terms == other.terms

    def diff(self, var):
        if var not in self.vars:
            return TuplePoly()
        i = self.vars.index(var)
        return TuplePoly(self.vars, {
            e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in self.terms.items() if e[i]
        })

    def subst(self, bindings):
        images = {v: TuplePoly.of(b) for v, b in bindings.items()}
        total = TuplePoly()
        for e, c in self.terms.items():
            # a term whose image vanishes is skipped, never expanded
            if any(k and v in images and not images[v].terms for v, k in zip(self.vars, e)):
                continue
            piece = TuplePoly.of(c)
            for v, k in zip(self.vars, e):
                factor = images[v] if v in images else TuplePoly((v,), {(1,): 1})
                piece = piece * factor**k
            total = total + piece
        return total

    def exact_div(self, divisor):
        if not divisor.terms:
            raise ZeroDivisionError("polynomial division by zero")
        vars_, num, den = self._aligned(divisor)

        def grlex(e):
            return (sum(e), e)

        dlead = max(den, key=grlex)
        quotient = {}
        while num:
            lead = max(num, key=grlex)
            qe = tuple(a - b for a, b in zip(lead, dlead))
            if min(qe, default=0) < 0:
                raise ExactDivisionError("division is not exact")
            qc = quotient[qe] = Fraction(num[lead], den[dlead])
            # the kernel is integral: a quotient that needs a fraction is refused
            if qc.denominator != 1:
                raise ExactDivisionError("quotient is not integral")
            for e, c in den.items():
                key = tuple(map(add, qe, e))
                num[key] = num.get(key, 0) - qc * c
                if not num[key]:
                    del num[key]
        return TuplePoly(vars_, quotient)

    def __str__(self):
        pieces = []
        for e, c in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
            mono = "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(self.vars, e) if k)
            mag = abs(c)
            body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces) or "0"


def psi_symbolic_sequence(n_max: int, avar: str = "a", bvar: str = "b") -> list[SparsePoly]:
    """psi(a, b, 0..n_max) by the defining recurrence run over ``SparsePoly``
    in one pass: the oracle of ``psi_coeffs`` and ``psi_symbolic``."""
    terms = psi_terms(SparsePoly.variable(avar), SparsePoly.variable(bvar))
    return [as_poly(t) for _, t in zip(range(n_max + 1), terms)]


def coeff_table_binomial(n: int) -> tuple[SparsePoly, ...]:
    """The coefficient table for index n by binomial expansion of each term
    c * a**i * b**j of psi(a, b, n): (-1)**(k+l) * C(i, k) * C(j, l) * c goes
    on a**(i-k) * alpha**k * b**(j-l) * beta**l in row k + l.  The oracle of
    ``coeff_row_terms``."""
    base = psi_symbolic_sequence(n)[n]
    rows: list[dict] = [{} for _ in range(half(n) + 1)]
    for exps, c in base.terms.items():
        powers = dict(zip(base.vars, exps))
        i, j = powers.get("a", 0), powers.get("b", 0)
        for k in range(i + 1):
            ck = (-1) ** k * comb(i, k) * c
            for l in range(j + 1):
                rows[k + l][(i - k, k, j - l, l)] = (-1) ** l * comb(j, l) * ck
    return tuple(SparsePoly(("a", "alpha", "b", "beta"), row) for row in rows)


def power_sum_by_division(n: int) -> SparsePoly:
    """(x**n + y**n) / (x + y)**parity(n) by ``exact_div``: the oracle of the
    closed form ``power_sum_poly``."""
    x, y = variables("x y")
    num = x**n + y**n
    return exact_div(num, x + y) if n % 2 else num


def powersum_basis_by_elimination(n: int) -> list[int]:
    """The power sum over the basis (xy, x^2+y^2) by triangular elimination:
    the basis element for k has leading monomial x**(m+k) * y**(m-k) with unit
    coefficient, so peeling from k = m downward is exact and must leave a zero
    remainder.  The oracle of ``expand_powersum_basis``."""
    m = half(n)
    x, y = variables("x y")
    rem = power_sum_by_division(n)
    coeffs = [0] * (m + 1)
    for k in range(m, -1, -1):
        c = coeffs[k] = coefficient(rem, {"x": m + k, "y": m - k})
        if c:
            rem = rem - c * (x * y) ** (m - k) * (x * x + y * y) ** k
    if not rem.is_zero:
        raise ArithmeticError(f"basis expansion left a remainder for n={n}")
    return coeffs


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
    return divided((-1) ** r * current, factorial(m - r))


def divided(poly: SparsePoly, den: int) -> SparsePoly:
    """``poly`` with each coefficient divided by the integer ``den``; raises
    ArithmeticError where one is not a multiple of it."""
    if any(c % den for c in poly.terms.values()):
        raise ArithmeticError(f"{poly} is not divisible by {den}")
    return SparsePoly(poly.vars, {e: c // den for e, c in poly.terms.items()})


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
        picked: dict[tuple, int] = {}
        for exps, c in total.terms.items():
            dexp = dict(zip(total.vars, exps))
            if dexp.get("q1", 0) == m - r and dexp.get("q2", 0) == r:
                key = tuple(dexp.get(v, 0) for v in ("a", "alpha", "b", "beta"))
                picked[key] = c
        rows.append(SparsePoly(("a", "alpha", "b", "beta"), picked))
    return tuple(rows)


def form_by_powers(coeffs, p, q):
    """sum_k coeffs[k] * p**(m - k) * q**k, m = len(coeffs) - 1, from fresh
    powers of p and q for each non-zero coefficient, term by term: the oracle
    of ``multipoly.form_at``."""
    m = len(coeffs) - 1
    total = 0
    for k, c in enumerate(coeffs):
        if c:
            total = total + c * p ** (m - k) * q**k
    return total


def expansion_sides_by_powers(n: int) -> tuple[SparsePoly, SparsePoly]:
    """Both sides of the expansion identity for index n, the right side
    sum_r rows[r] * q1**(m - r) * q2**r with fresh powers of both forms for
    each r: the oracle of ``verify_expansion``'s sum."""
    m = half(n)
    x, y, a, b, alpha, beta = variables("x y a b alpha beta")
    q1 = alpha * x**2 + beta * x * y + alpha * y**2
    q2 = a * x**2 + b * x * y + a * y**2
    lhs = (beta * a - alpha * b) ** m * power_sum_poly(n)
    return lhs, form_by_powers(coeff_table_polys(n), q1, q2)


# The theta and fundamental checks on polynomials: the oracles of the array
# checks in ``eightlevels``, for the table ``rows`` of the binary form ``psi``
# in (a, b).


def theta_sum_by_polys(psi: SparsePoly, rows) -> bool:
    """sum_r rows[r] * theta**r == psi(a - alpha*theta, b - beta*theta), its
    theta = +-1 specialisations and its homogenised form in (xi, eta), and the
    binomial-weighted derivative shifts of the theta and (xi, eta) forms,
    each a polynomial identity.  The oracle of ``theta_sum_check``."""
    m = len(rows) - 1
    theta, xi, eta, a, b, alpha, beta = variables("theta xi eta a b alpha beta")
    one = SparsePoly.constant(1)
    shift = {"a": a - alpha * theta, "b": b - beta * theta}
    homog = {"a": a * xi - alpha * eta, "b": b * xi - beta * eta}
    for p, q, image in ((one, theta, shift), (one, one, {"a": a - alpha, "b": b - beta}),
                        (one, -one, {"a": a + alpha, "b": b + beta}), (xi, eta, homog)):
        if form_at(rows, p, q) != psi.subst(image):
            return False
    # sum_r C(r, k) * rows[r] * theta**(r - k), and its twin with
    # xi**(m - r) * eta**(r - k), are forms of degree m - k
    for k in range(m + 1):
        weighted = [comb(r, k) * rows[r] for r in range(k, m + 1)]
        if form_at(weighted, one, theta) != rows[k].subst(shift):
            return False
        if form_at(weighted, xi, eta) != rows[k].subst(homog):
            return False
    return True


def first_fundamental_by_polys(rows) -> bool:
    """(alpha*d/da + beta*d/db) rows[r] == -(r+1) * rows[r+1] and
    (a*d/dalpha + b*d/dbeta) rows[r] == -(m-r+1) * rows[r-1], zero past
    either end.  The oracle of ``first_fundamental_check``."""
    m = len(rows) - 1
    alpha, beta, a, b = variables("alpha beta a b")
    for r in range(m + 1):
        up = apply_direction(rows[r], alpha, beta)
        if up != (SparsePoly.zero() if r == m else -(r + 1) * rows[r + 1]):
            return False
        down = apply_direction(rows[r], a, b, "alpha", "beta")
        if down != (SparsePoly.zero() if r == 0 else -(m - r + 1) * rows[r - 1]):
            return False
    return True


def euler_collapse_by_polys(psi: SparsePoly, m: int) -> bool:
    """(alpha*d/da + beta*d/db)**m psi == m! * psi(alpha, beta) for the form
    psi of degree m: the oracle of the derivative half of
    ``second_fundamental_check``."""
    alpha, beta = variables("alpha beta")
    current = psi
    for _ in range(m):
        current = apply_direction(current, alpha, beta)
    return current == factorial(m) * psi.subst({"a": alpha, "b": beta})


def reduce_square(poly: SparsePoly, var: str, value) -> SparsePoly:
    """Rewrite ``var**2 -> value`` (for formal symbols such as i**2 = -1)."""
    if var not in poly.vars:
        return poly
    i = poly.vars.index(var)
    out: dict[tuple, int] = {}
    for e, c in poly.terms.items():
        q, r = divmod(e[i], 2)
        key = e[:i] + (r,) + e[i + 1:]
        s = out.get(key, 0) + c * value**q
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return SparsePoly(poly.vars, out)


def bracket_pair_form(x, y, u, v):
    """The second defining form (x^2 + y^2)uv - xy(u^2 + v^2) of the bracket."""
    return (x * x + y * y) * u * v - x * y * (u * u + v * v)


def psi_recurrence_mod(a: int, b: int, n: int, m: int) -> int:
    """psi(a, b, n) mod m by the plain recurrence, O(n) steps: the oracle of
    ``psi_mod_ladder`` at small n."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    if n < 0:
        raise ValueError("index must be >= 0")
    a %= m
    b %= m
    if n == 0:
        return 2 % m
    coeff = (2 * a - b) % m
    lo, hi = 2 % m, 1 % m
    for k in range(1, n):
        if k % 2:
            lo, hi = hi, (coeff * hi - a * lo) % m
        else:
            lo, hi = hi, (hi - a * lo) % m
    return hi


def psi_matrix_mod(a: int, b: int, n: int, m: int) -> int:
    """psi(a, b, n) mod m by a power of the two-step matrix: the oracle of
    ``psi_mod_ladder`` at any n, with no inverse and no shared code.

    With d = 2a - b, two recurrence steps map (psi(2j), psi(2j+1)) to
    (psi(2j+2), psi(2j+3)) by T = [[-a, d], [-a, d - a]], so
    (psi(2j), psi(2j+1)) = T**j (2, 1).
    """
    d = 2 * a - b

    def mul(x, y):
        return tuple(
            tuple(sum(x[i][k] * y[k][j] for k in range(2)) % m for j in range(2))
            for i in range(2)
        )

    power, base = ((1, 0), (0, 1)), ((-a % m, d % m), (-a % m, (d - a) % m))
    j = n >> 1
    while j:
        if j & 1:
            power = mul(power, base)
        base = mul(base, base)
        j >>= 1
    row = power[n & 1]
    return (2 * row[0] + row[1]) % m


def is_square_free_by_trial(d: int) -> bool:
    """Whether no square > 1 divides ``d`` > 0, by trial division with every
    f * f up to d: the oracle of ``exactmath._is_square_free``."""
    if d <= 0:
        return False
    f = 2
    while f * f <= d:
        if d % (f * f) == 0:
            return False
        f += 1
    return True


class FractionQuadExt:
    """The ``Fraction``-based quadratic extension, an oracle for
    ``exactmath.QuadExt``: ``u`` and ``v`` are kept as two ``Fraction`` parts
    and every result goes through the constructor.  It prints, compares and
    hashes as ``QuadExt`` does.
    """

    __slots__ = ("d", "u", "v")

    def __init__(self, d: int, u=0, v=0) -> None:
        if not isinstance(d, int) or not is_square_free_by_trial(d) or d == 1:
            raise ValueError(f"radicand must be a square-free integer > 1, got {d!r}")
        self.d = d
        self.u = Fraction(u)
        self.v = Fraction(v)

    # -- helpers -------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.v == 0

    def _as_pair(self, other):
        """Coerce ``other`` into this element's extension (or vice versa)."""
        if isinstance(other, FractionQuadExt):
            if other.d == self.d:
                return self, other
            if other.is_rational:
                return self, FractionQuadExt(self.d, other.u, 0)
            if self.is_rational:
                return FractionQuadExt(other.d, self.u, 0), other
            raise RadicandMismatchError(
                f"cannot combine sqrt({self.d}) with sqrt({other.d})"
            )
        if isinstance(other, (int, Fraction)):
            return self, FractionQuadExt(self.d, other, 0)
        raise TypeError(f"unsupported operand {other!r}")

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        try:
            a, b = self._as_pair(other)
        except TypeError:
            return NotImplemented
        return FractionQuadExt(a.d, a.u + b.u, a.v + b.v)

    __radd__ = __add__

    def __neg__(self):
        return FractionQuadExt(self.d, -self.u, -self.v)

    def __sub__(self, other):
        try:
            a, b = self._as_pair(other)
        except TypeError:
            return NotImplemented
        return FractionQuadExt(a.d, a.u - b.u, a.v - b.v)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        try:
            a, b = self._as_pair(other)
        except TypeError:
            return NotImplemented
        return FractionQuadExt(
            a.d,
            a.u * b.u + a.d * a.v * b.v,
            a.u * b.v + a.v * b.u,
        )

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        return self.u * self.u - self.d * self.v * self.v

    def inverse(self) -> "FractionQuadExt":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("element has zero norm")
        return FractionQuadExt(self.d, self.u / n, -self.v / n)

    def __truediv__(self, other):
        try:
            a, b = self._as_pair(other)
        except TypeError:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = FractionQuadExt(self.d, 1, 0)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- comparison / formatting ----------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, FractionQuadExt):
            if self.v == 0 and other.v == 0:
                return self.u == other.u
            return self.d == other.d and self.u == other.u and self.v == other.v
        if isinstance(other, (int, Fraction)):
            return self.v == 0 and self.u == other
        return NotImplemented

    def __hash__(self):
        if self.v == 0:
            return hash(self.u)
        return hash((self.d, self.u, self.v))

    def __repr__(self) -> str:
        return f"QuadExt({self.d}, {self.u!r}, {self.v!r})"

    def __str__(self) -> str:
        if self.v == 0:
            return str(self.u)
        root = f"sqrt({self.d})"
        if self.v == 1:
            tail = root
        elif self.v == -1:
            tail = f"-{root}"
        else:
            tail = f"{self.v}*{root}"
        if self.u == 0:
            return tail
        sign = "+" if self.v > 0 else "-"
        mag = tail.lstrip("-")
        return f"{self.u} {sign} {mag}"


def tau_identity_value(l: int, variant: str) -> Fraction:
    """One tau = 2**l sum as it is written: each term a Fraction over its own
    (2k)! times the variant's power, added one at a time."""
    tau = 1 << l
    total = Fraction(0)
    prod = 1
    for k in range(tau // 4 + 1):
        if k:
            prod *= (4 * (k - 1)) ** 2 - tau * tau
        if variant == "quarter":
            total += Fraction(prod, factorial(2 * k) * 4**k)
        elif variant == "half":
            total += Fraction(prod, factorial(2 * k) * 4 ** (2 * k))
        else:
            total += Fraction(prod, factorial(2 * k) * 2 ** (3 * k))
    return 2 * total if variant == "half" else total


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


def enhanced_sum_by_terms(p: int, mu: int) -> TestReport:
    """The ``sum`` report from the exact sum over index n*mu, term by term,
    with twice the sum checked against psi(1, 4, n*mu): the oracle of
    ``mersenne.enhanced_sum_test``, O(n*mu) big-integer terms."""
    n, m = 1 << (p - 1), (1 << p) - 1
    total = 1 if mu == 0 else signed_factorial_product_sum(n * mu)
    residue = total % m
    expected = 1 if mu % 4 == 0 else (m - 1 if mu % 4 == 2 else 0)
    notes = []
    if 2 * total != psi14_exact(n, mu):
        notes.append("doubled sum failed to match the sequence value exactly")
        verdict = "condition-fails"
    else:
        verdict = "condition-holds" if residue == expected else "condition-fails"
    return TestReport(method="sum", p=p, verdict=verdict, residues=[residue, expected], notes=notes)


def necessary_by_inverses(p: int) -> TestReport:
    """The ``necessary`` report from its sum over k = 0..n/2, each term the
    previous one times ((4(k-1))**2 - 1) / (2k (2k-1)) mod M, stopping at the
    first denominator with no inverse, whose gcd with M is the witness: the
    oracle of ``mersenne.necessary_condition``, 2**(p-2) modular inverses."""
    n, m = 1 << (p - 1), (1 << p) - 1
    term = total = 1
    for k in range(1, n // 2 + 1):
        term = term * ((4 * (k - 1)) ** 2 - 1) % m
        den = (2 * k) * (2 * k - 1) % m
        factor = gcd(den, m)
        if factor != 1:
            return TestReport(method="necessary", p=p, verdict="condition-fails",
                              residues=[factor], notes=[f"factor found: {factor} divides {m}"])
        term = term * pow(den, -1, m) % m
        total = (total + term) % m
    verdict = "condition-holds" if total == m - 1 else "condition-fails"
    return TestReport(method="necessary", p=p, verdict=verdict, residues=[total],
                      notes=["denominators read as (2k)!"])


def least_factor_by_trial(m: int) -> int:
    """The least prime factor of ``m`` > 1, by trial division."""
    f = 2
    while m % f:
        if f * f > m:
            return m
        f += 1
    return f
