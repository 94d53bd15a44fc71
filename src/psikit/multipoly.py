"""Sparse multivariate polynomials with integer coefficients.

Canonical form: variable names are sorted, variables that no longer occur
are dropped, and zero coefficients are never stored, so structural equality
coincides with mathematical equality.  Coefficients are ``int``: any other
coefficient, an integral fraction included, is refused with ``TypeError``.
The printed form orders terms by graded-lex exponent order, e.g.
``-2*a^2 + b^2``; ``format_terms`` writes it from terms in that order.

Each monomial is packed into one ``int`` (Monagan and Pearce, *Sparse
polynomial multiplication and division in Maple 14*, 2009): the total degree
sits in the top field, and below it one 9-bit exponent field per variable, the
first variable of ``vars`` highest.  So a product of monomials is one integer
addition, graded-lex order is integer order, the total degree is a shift, and
the variables that cancelled out show in one OR over the keys.  An exponent
must fit in the low 8 bits of its field (at most 255, above ``MAX_DEGREE``):
the top bit is a guard, which shows at once which fields of a key are not
zero.  The validating constructor refuses a wider exponent with
``DegreeCapExceeded``; no ring operation makes one, as every product stays
within ``MAX_DEGREE``.  ``terms`` is a read-only view of the same polynomial
keyed by exponent tuples.

``SparsePoly(vars, terms)`` validates and canonicalises its input.  The ring
operations build their results from canonical operands with a trusted
constructor instead: a product of non-zero polynomials uses every variable of
both factors, and a sum, derivative or substitution only has to drop a
variable that cancelled out.  Where an operand has the shape for it,
the kernel takes a closed form instead of the general product: a one-term
base to the power k multiplies its key by k, a two-term base expands by the
binomial theorem, and a product with a one-term factor shifts every key of
the other; so a substitution whose bindings each have one term maps the keys
linearly.

A product whose total degree would pass the fixed ``MAX_DEGREE`` (128, the
largest any entry point reaches within its input limits) is refused before
it is expanded, so a runaway expansion fails fast instead of exhausting
memory.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache, reduce
from math import comb
from operator import mul, or_
from types import MappingProxyType

from .errors import CapacityError

__all__ = [
    "SparsePoly",
    "DegreeCapExceeded",
    "as_poly",
    "variables",
    "format_terms",
    "power_texts",
    "MAX_DEGREE",
]


class DegreeCapExceeded(CapacityError):
    """A product would exceed ``MAX_DEGREE``, or an exponent its field."""


MAX_DEGREE = 128

# One exponent field of a packed monomial; its top bit is a guard.
_BITS = 9
_FIELD = (1 << _BITS) - 1
_MAX_EXP = (1 << (_BITS - 1)) - 1


def _check_cap(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise DegreeCapExceeded(f"product degree {degree} exceeds cap {MAX_DEGREE}")


def _coeff(value) -> int:
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"coefficients must be int, got {value!r}")


@lru_cache(maxsize=None)
def _masks(width: int) -> tuple[int, int]:
    """The low 8 bits, and the guard bits, of every exponent field of a key
    over ``width`` variables."""
    low = sum(_MAX_EXP << s for s in _shifts(width))
    return low, sum(1 << s + _BITS - 1 for s in _shifts(width))


def _shifts(width: int) -> range:
    """The bit offset of each exponent field, first variable first."""
    return range((width - 1) * _BITS, -1, -_BITS)


def _weights(width: int) -> list[int]:
    """The key of each single variable to the power 1: its field's unit plus
    the degree's, so that a key is the dot product of exponents and weights."""
    return [(1 << s) + (1 << width * _BITS) for s in _shifts(width)]


class SparsePoly:
    """Immutable sparse polynomial over named variables."""

    __slots__ = ("vars", "_terms")

    def __init__(self, vars=(), terms: Mapping | None = None) -> None:
        vars = tuple(vars)
        if len(set(vars)) != len(vars):
            raise ValueError(f"duplicate variable names in {vars!r}")
        cleaned: dict[tuple, int] = {}
        if terms:
            width = len(vars)
            for exps, c in terms.items():
                c = _coeff(c)
                if not c:
                    continue
                exps = tuple(exps)
                if len(exps) != width or (exps and min(exps) < 0):
                    raise ValueError(f"bad exponent vector {exps!r} for {vars!r}")
                if exps and max(exps) > _MAX_EXP:
                    raise DegreeCapExceeded(
                        f"exponent in {exps!r} is above the field limit {_MAX_EXP}"
                    )
                cleaned[exps] = c
        # canonical form: keep only used variables, sorted by name; an unused
        # variable gets weight 0, so a key reads only the used ones
        used = [i for i in range(len(vars)) if any(e[i] for e in cleaned)]
        used.sort(key=lambda i: vars[i])
        weights = [0] * len(vars)
        for i, w in zip(used, _weights(len(used))):
            weights[i] = w
        object.__setattr__(self, "vars", tuple(vars[i] for i in used))
        object.__setattr__(
            self, "_terms", {sum(map(mul, e, weights)): c for e, c in cleaned.items()}
        )

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly instances are immutable")

    @property
    def terms(self) -> Mapping[tuple, int]:
        """The terms keyed by exponent tuples over ``vars``, read-only."""
        shifts = _shifts(len(self.vars))
        return MappingProxyType(
            {tuple(k >> s & _FIELD for s in shifts): c for k, c in self._terms.items()}
        )

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "SparsePoly":
        return _make((), {})

    @classmethod
    def constant(cls, value) -> "SparsePoly":
        c = _coeff(value)
        return _make((), {0: c} if c else {})

    @classmethod
    def variable(cls, name: str) -> "SparsePoly":
        return _make((name,), {_weights(1)[0]: 1})

    @classmethod
    def binary_form(cls, coeffs, x: str, y: str) -> "SparsePoly":
        """The binary form sum_j coeffs[j] * x**j * y**(m - j), m = len(coeffs) - 1,
        of integer coefficients and degree m within ``MAX_DEGREE``."""
        if x == y:
            raise ValueError(f"duplicate variable names in {(x, y)!r}")
        m = len(coeffs) - 1
        _check_cap(m)
        wx, wy = _weights(2) if x < y else _weights(2)[::-1]
        terms = {j * wx + (m - j) * wy: _coeff(c) for j, c in enumerate(coeffs) if c}
        return _pruned(tuple(sorted((x, y))), terms)

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(self._terms) >> len(self.vars) * _BITS

    def constant_value(self) -> int:
        if self.vars:
            raise ValueError(f"{self} is not constant")
        return self._terms.get(0, 0)

    # -- alignment over variable universes ---------------------------------

    def _aligned(self, other: "SparsePoly"):
        if self.vars == other.vars:
            return self.vars, self._terms, other._terms
        allvars = tuple(sorted(set(self.vars) | set(other.vars)))
        return allvars, _widened(self, allvars), _widened(other, allvars)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        vars_, mine, theirs = self._aligned(other)
        out = dict(mine)
        _add_into(out, theirs)
        return _pruned(vars_, out)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.vars, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            if not isinstance(other, int):
                return NotImplemented
            return self._scaled(int(other))
        if not other.vars:
            return self._scaled(other._terms.get(0, 0))
        if not self.vars:
            return other._scaled(self._terms.get(0, 0))
        _check_cap(self.total_degree() + other.total_degree())
        vars_, mine, theirs = self._aligned(other)
        # both factors are non-constant, hence non-zero: every variable is used
        return _make(vars_, _product(mine, theirs))

    __rmul__ = __mul__

    def _scaled(self, s: int) -> "SparsePoly":
        """``s * self`` for an integer ``s``."""
        if not s or not self._terms:
            return SparsePoly.zero()
        _check_cap(self.total_degree())
        return _make(self.vars, {k: c * s for k, c in self._terms.items()})

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        if not exponent:
            return SparsePoly.constant(1)
        _check_cap(self.total_degree() * exponent)
        return _make(self.vars, _power(self._terms, exponent))

    # -- equality / hashing -------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, SparsePoly):
            return self.vars == other.vars and self._terms == other._terms
        if isinstance(other, int):
            return not self.vars and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        if not self.vars:
            return hash(self.constant_value())
        return hash((self.vars, frozenset(self._terms.items())))

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- calculus and substitution -------------------------------------------

    def diff(self, var: str) -> "SparsePoly":
        """Exact partial derivative with respect to ``var``."""
        if var not in self.vars:
            return SparsePoly.zero()
        width = len(self.vars)
        shift = (width - 1 - self.vars.index(var)) * _BITS
        step = (1 << shift) + (1 << width * _BITS)
        out = {}
        for k, c in self._terms.items():
            e = k >> shift & _FIELD
            if e:
                out[k - step] = c * e
        return _pruned(self.vars, out)

    def subst(self, bindings: Mapping[str, PolyLike]) -> "SparsePoly":
        """Substitute polynomials or scalars for variables, exactly."""
        relevant = {v: as_poly(x) for v, x in bindings.items() if v in self.vars}
        if not relevant:
            return self
        kept_vars = {v for v in self.vars if v not in relevant}
        outvars = tuple(sorted(kept_vars.union(*(p.vars for p in relevant.values()))))
        top = len(self.vars) * _BITS
        unit = 1 << len(outvars) * _BITS
        # the kept fields and the total degree, moved to their places over
        # outvars; a bound variable, named None here, loses its field
        kept = _recoder(tuple(None if v in relevant else v for v in self.vars), outvars)
        field = {v: (len(self.vars) - 1 - self.vars.index(v)) * _BITS for v in relevant}
        # the fields of the variables bound to zero: a term that uses one vanishes
        vanish = sum(_FIELD << field[v] for v, p in relevant.items() if not p)
        # per other bound variable: its field, the degree its image adds per
        # power (deg - 1), and the image keyed over outvars with that degree 1
        # taken off each key, so that e * image replaces the e that kept(k)
        # carries; then the powers of the image made so far, by exponent
        images = [
            (
                field[v],
                p.total_degree() - 1,
                {key - unit: c for key, c in _widened(p, outvars).items()},
                {},
            )
            for v, p in relevant.items()
            if p
        ]
        total: dict[int, int] = {}
        for k, c in self._terms.items():
            if k & vanish:
                continue
            # the degree of the term's image, checked before any power or
            # product of it is formed and whatever the order of the bindings
            _check_cap((k >> top) + sum((k >> s & _FIELD) * d for s, d, _, _ in images))
            piece = {kept(k): c}
            for shift, _, image, powers in images:
                e = k >> shift & _FIELD
                if e:
                    power = powers.get(e)
                    if power is None:
                        power = powers[e] = _power(image, e)
                    piece = _product(piece, power)
            _add_into(total, piece)
        return _pruned(outvars, total)

    # -- printing ---------------------------------------------------------------

    def __str__(self) -> str:
        # per variable: its field and its printed powers up to the degree
        top = self.total_degree()
        fields = [(s, power_texts(v, top)) for v, s in zip(self.vars, _shifts(len(self.vars)))]
        return format_terms(
            (c, "*".join([power[e] for s, power in fields if (e := k >> s & _FIELD)]))
            for k, c in sorted(self._terms.items(), reverse=True)
        )

    def __repr__(self) -> str:
        return f"SparsePoly({self})"


# -- the trusted constructor and the term-dict helpers ---------------------------

_set_vars = SparsePoly.vars.__set__
_set_terms = SparsePoly._terms.__set__


def _make(vars: tuple, terms: dict) -> SparsePoly:
    """A polynomial from canonical parts, unchecked: ``vars`` sorted and each
    used by some term, ``terms`` keyed by packed monomials over ``vars``,
    coefficients ``int`` and none of them zero."""
    poly = object.__new__(SparsePoly)
    _set_vars(poly, vars)
    _set_terms(poly, terms)
    return poly


def _pruned(vars: tuple, terms: dict) -> SparsePoly:
    """``_make`` after dropping the variables that no term uses any more."""
    used = reduce(or_, terms, 0)
    low, guards = _masks(len(vars))
    # adding 255 to a field sets its guard bit exactly when the field is not 0
    if ((used & low) + low) & guards == guards:
        return _make(vars, terms)
    keep = tuple(v for v, s in zip(vars, _shifts(len(vars))) if used >> s & _FIELD)
    recode = _recoder(vars, keep)
    return _make(keep, {recode(k): c for k, c in terms.items()})


def _add_into(acc: dict, terms: Mapping) -> None:
    """Add ``terms`` into ``acc`` in place."""
    get = acc.get
    for k, c in terms.items():
        s = get(k, 0) + c
        if s:
            acc[k] = s
        else:
            del acc[k]


def _product(mine: dict, theirs: dict) -> dict:
    """The product of two term dicts over the same variables."""
    if len(theirs) == 1:
        mine, theirs = theirs, mine
    if len(mine) == 1:
        ((k1, c1),) = mine.items()
        # a fixed shift keeps the keys apart, and no product of coefficients is 0
        return {k1 + k2: c1 * c2 for k2, c2 in theirs.items()}
    out: dict[int, int] = {}
    get = out.get
    for k1, c1 in mine.items():
        for k2, c2 in theirs.items():
            key = k1 + k2
            s = get(key)
            if s is None:
                out[key] = c1 * c2
            else:
                s += c1 * c2
                if s:
                    out[key] = s
                else:
                    del out[key]
    return out


def _power(terms: dict, k: int) -> dict:
    """``terms`` to the power ``k`` >= 1, the degree already checked."""
    if len(terms) == 1:
        ((key, c),) = terms.items()
        return {key * k: c**k}
    if len(terms) == 2:
        # the binomial theorem; the k + 1 keys are distinct as the two are
        (k1, c1), (k2, c2) = terms.items()
        out = {}
        for j in range(k + 1):
            out[(k - j) * k1 + j * k2] = comb(k, j) * c1 ** (k - j) * c2**j
        return out
    result = terms
    for _ in range(k - 1):
        result = _product(result, terms)
    return result


@lru_cache(maxsize=None)
def _recoder(src: tuple, dst: tuple):
    """The map from keys over the variables ``src`` to keys over the sorted
    ``dst``: the total degree and the field of each variable in both move to
    their places in ``dst``, and the field of a variable missing from ``dst``
    (or named None) is dropped.  Fields that move together move as one run."""
    place = {v: j for j, v in enumerate(dst)}
    # (source index, target index); the total degree is index -1 in both
    pairs = [(-1, -1)] + [(i, place[v]) for i, v in enumerate(src) if v in place]
    runs: list[list[int]] = []  # [first source index, last source index, offset]
    for i, j in pairs:
        if runs and runs[-1][1] == i - 1 and runs[-1][2] == j - i:
            runs[-1][1] = i
        else:
            runs.append([i, i, j - i])
    moves = []
    for first, last, offset in runs:
        low = (len(src) - 1 - last) * _BITS
        high = -1 if first < 0 else (1 << (len(src) - first) * _BITS) - 1
        up = (len(dst) - len(src) - offset) * _BITS
        moves.append((high ^ ((1 << low) - 1), max(up, 0), max(-up, 0)))
    if len(moves) == 1:
        ((mask, up, down),) = moves
        return lambda k: (k & mask) << up >> down
    return lambda k: sum((k & mask) << up >> down for mask, up, down in moves)


def _widened(poly: SparsePoly, allvars: tuple) -> dict:
    """The terms of ``poly`` keyed over ``allvars``, a sorted superset of its
    variables."""
    if poly.vars == allvars:
        return poly._terms
    recode = _recoder(poly.vars, allvars)
    return {recode(k): c for k, c in poly._terms.items()}


def _coerce(value):
    if isinstance(value, SparsePoly):
        return value
    if isinstance(value, int):
        return SparsePoly.constant(value)
    return None


PolyLike = int | SparsePoly


def as_poly(value: PolyLike) -> SparsePoly:
    got = _coerce(value)
    if got is None:
        raise TypeError(f"cannot interpret {value!r} as a polynomial")
    return got


def power_texts(var: str, top: int) -> list[str]:
    """The printed powers of ``var`` by exponent: "" for 0, then ``var``,
    ``var^2``, ... up to ``top``."""
    return ["", var] + [f"{var}^{e}" for e in range(2, top + 1)]


def format_terms(terms) -> str:
    """The printed form of a polynomial from its (coefficient, monomial text)
    pairs in print order, no coefficient zero: ``-2*a^2 + b^2``."""
    pieces = []
    for c, mono in terms:
        mag = abs(c)
        body = mono if mag == 1 and mono else f"{mag}*{mono}" if mono else str(mag)
        if pieces:
            pieces.append(f"- {body}" if c < 0 else f"+ {body}")
        else:
            pieces.append(f"-{body}" if c < 0 else body)
    return " ".join(pieces) or "0"


def variables(names: str) -> tuple[SparsePoly, ...]:
    """``x, y = variables("x y")``"""
    return tuple(SparsePoly.variable(n) for n in names.split())
