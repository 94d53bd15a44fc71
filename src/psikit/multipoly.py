"""Sparse multivariate polynomials with exact rational coefficients.

Canonical form: variable names are sorted, variables that no longer occur
are dropped, and zero coefficients are never stored, so structural equality
coincides with mathematical equality.  Coefficients are ``int``; a
``Fraction`` is stored only where a true division leaves one (``exact_div``,
or a fractional scalar such as ``Fraction(1, 2)``), and a ``Fraction`` with
denominator 1 is stored as its ``int``.  The printed form orders terms by
graded-lex exponent order, e.g. ``-2*a^2 + b^2``.

``SparsePoly(vars, terms)`` validates and canonicalises its input.  The ring
operations build their results from canonical operands with a trusted
constructor instead: a product of non-zero polynomials uses every variable of
both factors, and a sum, derivative, substitution or quotient only has to
drop a variable that cancelled out.

A product whose total degree would pass the fixed ``MAX_DEGREE`` (128, the
largest any entry point reaches within its input limits) is refused before
it is expanded, so a runaway expansion fails fast instead of exhausting
memory.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, itemgetter
from typing import Mapping, Union

from .errors import CapacityError

PolyLike = Union[int, Fraction, "SparsePoly"]

__all__ = [
    "SparsePoly",
    "DegreeCapExceeded",
    "ExactDivisionError",
    "as_poly",
    "variables",
    "MAX_DEGREE",
]


class DegreeCapExceeded(CapacityError):
    """A product would exceed ``MAX_DEGREE``."""


class ExactDivisionError(ArithmeticError):
    """The divisor does not divide the dividend exactly."""


MAX_DEGREE = 128


def _coeff(value) -> int | Fraction:
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"coefficients must be exact rationals, got {value!r}")


class SparsePoly:
    """Immutable sparse polynomial over named variables."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars=(), terms: Mapping | None = None) -> None:
        vars = tuple(vars)
        if len(set(vars)) != len(vars):
            raise ValueError(f"duplicate variable names in {vars!r}")
        cleaned: dict[tuple, int | Fraction] = {}
        if terms:
            width = len(vars)
            for exps, c in terms.items():
                c = _coeff(c)
                if not c:
                    continue
                exps = tuple(exps)
                if len(exps) != width or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent vector {exps!r} for {vars!r}")
                cleaned[exps] = c
        # canonical form: keep only used variables, sorted by name
        used = [i for i in range(len(vars)) if any(e[i] for e in cleaned)]
        used.sort(key=lambda i: vars[i])
        object.__setattr__(self, "vars", tuple(vars[i] for i in used))
        object.__setattr__(
            self,
            "terms",
            {tuple(e[i] for i in used): c for e, c in cleaned.items()},
        )

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly instances are immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "SparsePoly":
        return _make((), {})

    @classmethod
    def constant(cls, value) -> "SparsePoly":
        c = _coeff(value)
        return _make((), {(): c} if c else {})

    @classmethod
    def variable(cls, name: str) -> "SparsePoly":
        return _make((name,), {(1,): 1})

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(map(sum, self.terms))

    def is_constant(self) -> bool:
        return not self.vars

    def constant_value(self) -> int | Fraction:
        if self.vars:
            raise ValueError(f"{self} is not constant")
        return self.terms.get((), 0)

    def coefficient(self, monomial: Mapping[str, int]) -> int | Fraction:
        """Coefficient of the monomial given as ``{var: exponent}``."""
        for var in monomial:
            if monomial[var] and var not in self.vars:
                return 0
        key = tuple(monomial.get(v, 0) for v in self.vars)
        return self.terms.get(key, 0)

    # -- alignment over variable universes ---------------------------------

    def _aligned(self, other: "SparsePoly"):
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        allvars = tuple(sorted(set(self.vars) | set(other.vars)))
        return allvars, _widened(self, allvars), _widened(other, allvars)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        vars_, mine, theirs = self._aligned(other)
        return _pruned(vars_, _whole(_add_into(dict(mine), theirs)))

    __radd__ = __add__

    def __neg__(self):
        return _make(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return self._scaled(_coeff(other))
        if not other.vars:
            return self._scaled(other.terms.get((), 0))
        if not self.vars:
            return other._scaled(self.terms.get((), 0))
        degree = self.total_degree() + other.total_degree()
        if degree > MAX_DEGREE:
            raise DegreeCapExceeded(f"product degree {degree} exceeds cap {MAX_DEGREE}")
        vars_, mine, theirs = self._aligned(other)
        out: dict[tuple, int | Fraction] = {}
        get = out.get
        for e1, c1 in mine.items():
            for e2, c2 in theirs.items():
                key = tuple(map(add, e1, e2))
                s = get(key)
                if s is None:
                    out[key] = c1 * c2
                else:
                    s += c1 * c2
                    if s:
                        out[key] = s
                    else:
                        del out[key]
        # both factors are non-constant, hence non-zero: every variable is used
        return _make(vars_, _whole(out))

    __rmul__ = __mul__

    def _scaled(self, s: int | Fraction) -> "SparsePoly":
        """``s * self`` for a scalar ``s`` in coefficient form."""
        if not s or not self.terms:
            return SparsePoly.zero()
        degree = self.total_degree()
        if degree > MAX_DEGREE:
            raise DegreeCapExceeded(f"product degree {degree} exceeds cap {MAX_DEGREE}")
        return _make(self.vars, _whole({e: c * s for e, c in self.terms.items()}))

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result = SparsePoly.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- equality / hashing -------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, SparsePoly):
            return self.vars == other.vars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return not self.vars and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        if not self.vars:
            return hash(self.constant_value())
        return hash((self.vars, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- calculus and substitution -------------------------------------------

    def diff(self, var: str) -> "SparsePoly":
        """Exact partial derivative with respect to ``var``."""
        if var not in self.vars:
            return SparsePoly.zero()
        i = self.vars.index(var)
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            if k:
                out[e[:i] + (k - 1,) + e[i + 1:]] = c * k
        return _pruned(self.vars, _whole(out))

    def subst(self, bindings: Mapping[str, PolyLike]) -> "SparsePoly":
        """Substitute polynomials or scalars for variables, exactly."""
        relevant = {v: as_poly(x) for v, x in bindings.items() if v in self.vars}
        if not relevant:
            return self
        keep = [i for i, v in enumerate(self.vars) if v not in relevant]
        keepvars = tuple(self.vars[i] for i in keep)
        bound = [i for i, v in enumerate(self.vars) if v in relevant]
        outvars = tuple(sorted(set(keepvars).union(*(p.vars for p in relevant.values()))))
        powers: dict[tuple[int, int], SparsePoly] = {}

        def power_of(i: int, e: int) -> "SparsePoly":
            got = powers.get((i, e))
            if got is None:
                got = relevant[self.vars[i]] ** e
                powers[(i, e)] = got
            return got

        total: dict[tuple, int | Fraction] = {}
        for e, c in self.terms.items():
            piece = _pruned(keepvars, {tuple(e[i] for i in keep): c})
            for i in bound:
                if e[i]:
                    piece = piece * power_of(i, e[i])
            _add_into(total, _widened(piece, outvars))
        return _pruned(outvars, _whole(total))

    def eval_scalar(self, values: Mapping[str, object]):
        """Evaluate with values from any exact commutative ring."""
        missing = [v for v in self.vars if v not in values]
        if missing:
            raise ValueError(f"unbound variables {missing}")
        total = 0
        for e, term in self.terms.items():
            for v, k in zip(self.vars, e):
                if k:
                    term = term * values[v] ** k
            total = total + term
        return total

    # -- exact division -------------------------------------------------------

    def exact_div(self, divisor: "SparsePoly") -> "SparsePoly":
        """Exact quotient; raises :class:`ExactDivisionError` otherwise."""
        divisor = as_poly(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return SparsePoly.zero()
        vars_, num, den = self._aligned(divisor)

        def grlex(e):
            return (sum(e), e)

        dlead = max(den, key=grlex)
        dc = den[dlead]
        num = dict(num)
        # the leading monomial falls at each step, so no quotient monomial repeats
        quotient: dict[tuple, int | Fraction] = {}
        while num:
            lead = max(num, key=grlex)
            qe = tuple(a - b for a, b in zip(lead, dlead))
            if any(e < 0 for e in qe):
                raise ExactDivisionError("division is not exact")
            qc = quotient[qe] = _coeff(Fraction(num[lead], dc))
            for e, c in den.items():
                key = tuple(map(add, qe, e))
                s = num.get(key, 0) - qc * c
                if s:
                    num[key] = s
                else:
                    num.pop(key, None)
        return _pruned(vars_, quotient)

    # -- printing ---------------------------------------------------------------

    def _sorted_terms(self):
        return sorted(
            self.terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for e, c in self._sorted_terms():
            mono = "*".join(
                v if k == 1 else f"{v}^{k}" for v, k in zip(self.vars, e) if k
            )
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"SparsePoly({self})"


# -- the trusted constructor and the term-dict helpers ---------------------------

_set_vars = SparsePoly.vars.__set__
_set_terms = SparsePoly.terms.__set__


def _make(vars: tuple, terms: dict) -> SparsePoly:
    """A polynomial from canonical parts, unchecked: ``vars`` sorted and each
    used by some term, no zero and no integral ``Fraction`` in ``terms``."""
    poly = object.__new__(SparsePoly)
    _set_vars(poly, vars)
    _set_terms(poly, terms)
    return poly


def _pruned(vars: tuple, terms: dict) -> SparsePoly:
    """``_make`` after dropping the variables that no term uses any more."""
    used = [i for i in range(len(vars)) if any(e[i] for e in terms)]
    if len(used) == len(vars):
        return _make(vars, terms)
    return _make(
        tuple(vars[i] for i in used),
        {tuple(e[i] for i in used): c for e, c in terms.items()},
    )


def _whole(terms: dict) -> dict:
    """``terms`` with each integral ``Fraction`` coefficient turned into its
    ``int``, in place."""
    for e, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[e] = c.numerator
    return terms


def _add_into(acc: dict, terms: Mapping) -> dict:
    """``terms`` added into ``acc``, in place."""
    get = acc.get
    for e, c in terms.items():
        s = get(e, 0) + c
        if s:
            acc[e] = s
        else:
            del acc[e]
    return acc


def _widened(poly: SparsePoly, allvars: tuple) -> Mapping:
    """The terms of ``poly`` with exponent vectors over ``allvars``, a sorted
    superset of its variables."""
    if poly.vars == allvars:
        return poly.terms
    if not poly.vars:
        return {(0,) * len(allvars): c for c in poly.terms.values()}
    # allvars has two or more names here, so ``pick`` returns a tuple; the
    # index -1 picks the appended 0 for a variable that poly does not use
    pick = itemgetter(*[poly.vars.index(v) if v in poly.vars else -1 for v in allvars])
    return {pick(e + (0,)): c for e, c in poly.terms.items()}


def _coerce(value):
    if isinstance(value, SparsePoly):
        return value
    if isinstance(value, (int, Fraction)):
        return SparsePoly.constant(value)
    return None


def as_poly(value: PolyLike) -> SparsePoly:
    got = _coerce(value)
    if got is None:
        raise TypeError(f"cannot interpret {value!r} as a polynomial")
    return got


def variables(names: str) -> tuple[SparsePoly, ...]:
    """``x, y = variables("x y")``"""
    return tuple(SparsePoly.variable(n) for n in names.split())
