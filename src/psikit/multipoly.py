"""Sparse multivariate polynomials with integer coefficients.

Canonical form: zero coefficients are never stored and ``vars`` lists the
variables some term uses, sorted by name, so structural equality coincides
with mathematical equality.  Coefficients are ``int``: any other coefficient,
an integral fraction included, is refused with ``TypeError``.  The printed
form orders terms by total degree, then by exponents in ``vars`` order, both
descending, e.g. ``-2*a^2 + b^2``; ``format_terms`` writes it from terms in
that order.

Each monomial is packed into one ``int`` (Monagan and Pearce, *Sparse
polynomial multiplication and division in Maple 14*, 2009) in one layout that
every polynomial of the process shares: the total degree sits in the low 8
bits, and above it each variable name has an 8-bit exponent field of its own,
given the first time the name is seen and kept from then on.  So a product of
monomials is one integer addition, operands over different variables need no
re-keying, and the variables that cancelled out simply leave their fields
zero.  Keys widen by 8 bits per distinct name seen in the process; the order
in which names were first seen shows in no output, as printing, ``vars``,
``terms`` and ``hash`` read exponents by name.

An exponent is at most 255 and so is a term's total degree: the validating
constructor refuses more with ``DegreeCapExceeded``, and no ring operation
makes more, as every product stays within ``MAX_DEGREE``, so a field never
carries into the next.  ``terms`` is a read-only view of the same polynomial
keyed by exponent tuples over ``vars``.

``SparsePoly(vars, terms)`` validates and canonicalises its input.  The ring
operations build their results with a trusted constructor instead, which
takes the total degree where it is known (a product's is the sum of its
factors', as Z[x...] is an integral domain) and otherwise finds it once, when
it is first asked for.  A product is one double loop over the terms of its
factors, and a power is repeated products.  A substitution is one pass over
the terms: a variable bound to a one-term image moves the term's key and
scales its coefficient, and the product of the powers of the longer images is
built once per distinct vector of their variables' exponents, then added,
shifted and scaled, for each term that has that vector.
``form_at(coeffs, p, q)`` is the one evaluator of a binary form
sum_k coeffs[k] * p**(m - k) * q**k in two operands, by homogeneous Horner,
total = total*p + coeffs[k]*q**k.

A product whose total degree would pass the fixed ``MAX_DEGREE`` (128, the
largest any entry point reaches within its input limits) is refused before
it is expanded, so a runaway expansion fails fast instead of exhausting
memory.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import reduce
from itertools import count
from operator import getitem, or_
from types import MappingProxyType

from .errors import CapacityError

__all__ = [
    "SparsePoly",
    "DegreeCapExceeded",
    "as_poly",
    "variables",
    "format_terms",
    "power_texts",
    "form_at",
    "MAX_DEGREE",
]


class DegreeCapExceeded(CapacityError):
    """A product would exceed ``MAX_DEGREE``, or an exponent its field."""


MAX_DEGREE = 128

# One field of a packed monomial: the total degree, or one variable's exponent.
_BITS = 8
_FIELD = (1 << _BITS) - 1

# The bit offset of each variable name's exponent field.  A new name takes
# one offset from the counter and keeps whichever offset reaches the dict
# first, so threads that register names at once never share a field.
_FIELDS: dict[str, int] = {}
_OFFSETS = count(_BITS, _BITS)


def _field(name: str) -> int:
    shift = _FIELDS.get(name)
    if shift is None:
        shift = _FIELDS.setdefault(name, next(_OFFSETS))
    return shift


def _check_cap(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise DegreeCapExceeded(f"product degree {degree} exceeds cap {MAX_DEGREE}")


def _coeff(value) -> int:
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"coefficients must be int, got {value!r}")


class SparsePoly:
    """Immutable sparse polynomial over named variables."""

    # the total degree, None until known; vars is filled on first access
    __slots__ = ("_terms", "_degree", "_vars")

    def __init__(self, vars=(), terms: Mapping | None = None) -> None:
        vars = tuple(vars)
        if len(set(vars)) != len(vars):
            raise ValueError(f"duplicate variable names in {vars!r}")
        packed: dict[int, int] = {}
        if terms:
            shifts = [_field(v) for v in vars]
            for exps, c in terms.items():
                c = _coeff(c)
                if not c:
                    continue
                exps = tuple(exps)
                if len(exps) != len(vars) or (exps and min(exps) < 0):
                    raise ValueError(f"bad exponent vector {exps!r} for {vars!r}")
                degree = sum(exps)
                if degree > _FIELD:
                    raise DegreeCapExceeded(
                        f"exponents {exps!r} are above the field limit {_FIELD}"
                    )
                packed[degree + sum(e << s for e, s in zip(exps, shifts))] = c
        _set_terms(self, packed)
        _set_degree(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly instances are immutable")

    @property
    def vars(self) -> tuple[str, ...]:
        """The names some term uses, sorted."""
        try:
            return self._vars
        except AttributeError:
            used = reduce(or_, self._terms, 0)
            # a copy of the registry, which another thread may be adding to
            names = tuple(sorted(v for v, s in list(_FIELDS.items()) if used >> s & _FIELD))
            _set_vars(self, names)
            return names

    @property
    def terms(self) -> Mapping[tuple, int]:
        """The terms keyed by exponent tuples over ``vars``, read-only."""
        shifts = [_FIELDS[v] for v in self.vars]
        return MappingProxyType(
            {tuple(k >> s & _FIELD for s in shifts): c for k, c in self._terms.items()}
        )

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "SparsePoly":
        return _make({}, 0)

    @classmethod
    def constant(cls, value) -> "SparsePoly":
        c = _coeff(value)
        return _make({0: c} if c else {}, 0)

    @classmethod
    def variable(cls, name: str) -> "SparsePoly":
        return _make({(1 << _field(name)) + 1: 1}, 1)

    @classmethod
    def binary_form(cls, coeffs, x: str, y: str) -> "SparsePoly":
        """The binary form sum_j coeffs[j] * x**j * y**(m - j), m = len(coeffs) - 1,
        of integer coefficients and degree m within ``MAX_DEGREE``."""
        if x == y:
            raise ValueError(f"duplicate variable names in {(x, y)!r}")
        m = len(coeffs) - 1
        _check_cap(m)
        wx, wy = (1 << _field(x)) + 1, (1 << _field(y)) + 1
        terms = {j * wx + (m - j) * wy: _coeff(c) for j, c in enumerate(coeffs) if c}
        return _make(terms, m if terms else 0)

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        degree = self._degree
        if degree is None:
            degree = max([k & _FIELD for k in self._terms], default=0)
            _set_degree(self, degree)
        return degree

    def degrees_in(self, *names: str) -> set[int]:
        """The degrees in the variables ``names`` of the terms."""
        shifts = [_FIELDS[v] for v in names if v in _FIELDS]
        return {sum([k >> s & _FIELD for s in shifts]) for k in self._terms}

    def constant_value(self) -> int:
        if any(self._terms):
            raise ValueError(f"{self} is not constant")
        return self._terms.get(0, 0)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        mine, theirs = self._terms, other._terms
        if len(theirs) > len(mine):
            mine, theirs = theirs, mine
        out = dict(mine)
        _add_into(out, theirs)
        return _make(out)

    __radd__ = __add__

    def __neg__(self):
        return _make({k: -c for k, c in self._terms.items()}, self._degree)

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
        mine, theirs = self._terms, other._terms
        # a constant factor has at most the one key 0
        if len(theirs) < 2 and not any(theirs):
            return self._scaled(theirs.get(0, 0))
        if len(mine) < 2 and not any(mine):
            return other._scaled(mine.get(0, 0))
        # both factors are non-zero, so the degrees add
        degree = self.total_degree() + other.total_degree()
        _check_cap(degree)
        return _make(_product(mine, theirs), degree)

    __rmul__ = __mul__

    def _scaled(self, s: int) -> "SparsePoly":
        """``s * self`` for an integer ``s``."""
        if not s or not self._terms:
            return SparsePoly.zero()
        degree = self.total_degree()
        _check_cap(degree)
        return _make({k: c * s for k, c in self._terms.items()}, degree)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        if not exponent:
            return SparsePoly.constant(1)
        degree = self.total_degree() * exponent
        _check_cap(degree)
        return _make(_power(self._terms, exponent), degree)

    # -- equality / hashing -------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, SparsePoly):
            return self._terms == other._terms
        if isinstance(other, int):
            return not any(self._terms) and self._terms.get(0, 0) == other
        return NotImplemented

    def __hash__(self):
        if not any(self._terms):
            return hash(self._terms.get(0, 0))
        return hash((self.vars, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- calculus and substitution -------------------------------------------

    def diff(self, var: str) -> "SparsePoly":
        """Exact partial derivative with respect to ``var``."""
        shift = _FIELDS.get(var)
        if shift is None:
            return SparsePoly.zero()
        step = (1 << shift) + 1
        return _make(
            {k - step: c * e for k, c in self._terms.items() if (e := k >> shift & _FIELD)}
        )

    def subst(self, bindings: Mapping[str, PolyLike]) -> "SparsePoly":
        """Substitute polynomials or scalars for variables, exactly.

        One pass over the terms.  A variable bound to a one-term image moves
        the term's key and scales its coefficient.  The other bound variables
        map each term to a product of powers of their images, which depends
        only on the term's exponents of those variables: it is built once per
        distinct vector of them, with those exponents already taken off the
        key, and each term adds it, shifted and scaled, into the result."""
        terms = self._terms
        used = reduce(or_, terms, 0)
        # moves, per variable bound to a one-term image: its field, the key
        # step from one power of the variable to one of the image, and the
        # image's coefficient.  spreads, per variable bound to a longer image:
        # its field and the image's terms.  weights, per variable bound to a
        # non-zero image: its field and the degree a power of it adds.
        moves, spreads, weights = [], [], []
        vanish = spread = 0
        top = 1  # the largest degree of an image, at least 1
        for v, x in bindings.items():
            shift = _FIELDS.get(v)
            if shift is None or not used >> shift & _FIELD:
                continue
            p = as_poly(x)
            image = p._terms
            if not image:
                # the field of a variable bound to zero: a term that uses it vanishes
                vanish |= _FIELD << shift
                continue
            degree = p.total_degree()
            top = max(top, degree)
            weights.append((shift, degree - 1))
            if len(image) == 1:
                ((key, c),) = image.items()
                moves.append((shift, key - (1 << shift) - 1, c))
            else:
                spreads.append((shift, image))
                spread |= _FIELD << shift
        if not (weights or vanish):
            return self
        if self.total_degree() * top > MAX_DEGREE:
            # no term's image has a degree above total_degree() * top; past
            # the cap, each one's is checked before any power or product is
            # formed, whatever the order of the bindings
            for k in terms:
                if not k & vanish:
                    _check_cap((k & _FIELD) + sum((k >> s & _FIELD) * d for s, d in weights))
        # by the part of a key that holds the spread variables' exponents: the
        # step that takes that part off the key, and the product of the
        # powers of their images
        products = {0: (0, {0: 1})}
        total: dict[int, int] = {}
        get = total.get
        for k, c in terms.items():
            if k & vanish:
                continue
            key = k
            for shift, step, s in moves:
                e = k >> shift & _FIELD
                if e:
                    key += e * step
                    c *= s**e
            part = k & spread
            entry = products.get(part)
            if entry is None:
                offset, product = -part, None
                for s, image in spreads:
                    e = part >> s & _FIELD
                    if e:
                        offset -= e
                        power = _power(image, e)
                        product = power if product is None else _product(product, power)
                entry = products[part] = offset, product
            offset, product = entry
            key += offset
            for pk, pc in product.items():
                pk += key
                pc *= c
                t = get(pk)
                if t is None:
                    total[pk] = pc
                else:
                    t += pc
                    if t:
                        total[pk] = t
                    else:
                        del total[pk]
        return _make(total)

    # -- printing ---------------------------------------------------------------

    def __str__(self) -> str:
        # terms print by degree, then exponents in sorted-name order, both descending
        powers = [power_texts(v, self.total_degree()) for v in self.vars]
        rows = sorted(((sum(e), e, c) for e, c in self.terms.items()), reverse=True)
        return format_terms((c, "".join(map(getitem, powers, e))[:-1]) for _, e, c in rows)

    def __repr__(self) -> str:
        return f"SparsePoly({self})"


# -- the trusted constructor and the term-dict helpers ---------------------------

_set_terms = SparsePoly._terms.__set__
_set_degree = SparsePoly._degree.__set__
_set_vars = SparsePoly._vars.__set__


def _make(terms: dict, degree: int | None = None) -> SparsePoly:
    """A polynomial from canonical parts, unchecked: ``terms`` keyed by packed
    monomials, coefficients ``int`` and none of them zero, and ``degree`` the
    total degree of the terms, or None when it is not known yet."""
    poly = object.__new__(SparsePoly)
    _set_terms(poly, terms)
    _set_degree(poly, degree)
    return poly


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
    """The product of two term dicts."""
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
    result = terms
    for _ in range(k - 1):
        result = _product(result, terms)
    return result


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


def form_at(coeffs, p: PolyLike, q: PolyLike) -> PolyLike:
    """sum_k coeffs[k] * p**(m - k) * q**k, m = len(coeffs) - 1, of ``int`` or
    polynomial coefficients and operands; a polynomial when p or q is one, and
    then a term past ``MAX_DEGREE`` is refused before any term is built.  It is
    homogeneous Horner, total = total*p + coeffs[k]*q**k."""
    m = len(coeffs) - 1
    if isinstance(p, SparsePoly) or isinstance(q, SparsePoly):
        p, q = as_poly(p), as_poly(q)
        dp, dq = p.total_degree(), q.total_degree()
        top = max(
            (as_poly(c).total_degree() + (m - k) * dp + k * dq for k, c in enumerate(coeffs) if c),
            default=0,
        )
        _check_cap(top)
    stop = len(coeffs)
    while stop and not coeffs[stop - 1]:
        stop -= 1
    if not stop:
        return 0 * p  # a zero polynomial when p is a polynomial
    total, power = 0, 1
    for c in coeffs[: stop - 1]:
        total = total * p + c * power
        power = power * q
    total = total * p + coeffs[stop - 1] * power
    # one power of p for the zero coefficients after the last non-zero one
    return total * p ** (m + 1 - stop) if stop <= m else total


def power_texts(var: str, top: int) -> list[str]:
    """The printed powers of ``var`` by exponent, each followed by "*": ""
    for 0, then ``var*``, ``var^2*``, ... up to ``top``.  A monomial prints as
    the texts of its variables joined, the last "*" cut."""
    return ["", f"{var}*"] + [f"{var}^{e}*" for e in range(2, top + 1)]


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
