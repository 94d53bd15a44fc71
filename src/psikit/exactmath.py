"""Exact arithmetic substrate.

Arbitrary-precision integers are plain Python ``int``, and every value here is
held as integers over one denominator.  ``fractions.Fraction`` appears only
where a rational is taken in or handed out, and is imported there, so that
importing this module does not load it.  The module provides elements of real
quadratic extensions ``(u + v*sqrt(d)) / q``, a shift-and-add reduction for
moduli of the form ``2**p - 1``, folded Barrett reduction for any other
modulus, and the decimal text of an integer at any int-to-str limit.
"""

from __future__ import annotations

import sys
from functools import cache
from math import gcd, isqrt, lcm

from .errors import CapacityError

__all__ = [
    "RadicandMismatchError",
    "QuadExt",
    "SQRT2",
    "SQRT3",
    "SQRT5",
    "GOLDEN_RATIO",
    "MersenneMod",
    "BarrettMod",
    "decimal_text",
]


class RadicandMismatchError(ValueError):
    """Combining elements of incompatible quadratic extensions."""


# Radicands are refused from 2**64 up; below it, trial division up to the
# cube root takes well under a second.
RADICAND_CAP = 1 << 64


def _is_square_free(d: int) -> bool:
    """Whether no square > 1 divides ``d`` > 0, by trial division up to the
    cube root: what is left then has no prime factor below its own cube root,
    so it is 1, p, pq or p**2, and square-free unless it is a square > 1."""
    if d <= 0:
        return False
    if d >= RADICAND_CAP:
        raise CapacityError(f"radicand {d} is not below the cap 2**64")
    if not d % 4:
        return False
    if not d % 2:
        d //= 2
    f = 3
    while f * f * f <= d:
        if not d % f:
            d //= f
            if not d % f:
                return False
        f += 2
    return d == 1 or isqrt(d) ** 2 != d


def _ratio(x) -> tuple[int, int] | None:
    """(numerator, denominator) of an ``int`` or a ``Fraction``, else None.

    A Fraction can exist only once ``fractions`` is imported, so the class is
    looked up among the loaded modules rather than imported here.
    """
    if isinstance(x, int):
        return x.numerator, 1
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(x, fractions.Fraction):
        return x.numerator, x.denominator
    return None


def decimal_text(x: int) -> str:
    """``x`` in decimal, as ``str(x)`` writes it with no int-to-str limit.

    Up to 2**15 bits, where str() is as fast or faster, it is str(x) unless x
    is past the int-to-str limit.  Above, x < 2**w is split recursively into
    hi * 2**(w // 2) + lo down to 512 bits and joined in ``decimal``, exact at
    the largest precision with Inexact trapped, as in CPython 3.12's
    ``Lib/_pylong.py``; subquadratic: 0.1 s at 2**20 bits, str() 1.5 s.
    """
    if x.bit_length() <= 1 << 15:
        try:
            return str(x)
        except ValueError:  # past the int-to-str limit
            pass
    import decimal  # only on this path: a value that str() writes never loads it

    power = cache(decimal.Decimal(2).__pow__)  # 2**w, once for each w

    def join(x: int, w: int):  # 0 <= x < 2**w
        if w <= 512:
            return decimal.Decimal(x)
        hi = x >> (h := w >> 1)
        return join(hi, w - h) * power(h) + join(x - (hi << h), h)

    exact = decimal.Context(decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
    with decimal.localcontext(exact):
        text = str(join(abs(x), x.bit_length()))
    return "-" + text if x < 0 else text


def _ratio_text(n: int, q: int) -> str:
    """n / q as ``str(Fraction(n, q))`` writes it, at any int-to-str limit."""
    g = gcd(n, q)
    n, q = decimal_text(n // g), q // g
    return n if q == 1 else f"{n}/{decimal_text(q)}"


def _make(d: int, u: int, v: int, q: int) -> "QuadExt":
    """(u + v*sqrt(d)) / q from canonical parts, unchecked: ``d`` a valid
    radicand, q > 0 and gcd(u, v, q) = 1."""
    x = object.__new__(QuadExt)
    x.d, x._u, x._v, x._q = d, u, v, q
    return x


def _normal(d: int, u: int, v: int, q: int) -> "QuadExt":
    """(u + v*sqrt(d)) / q for any q != 0, brought to canonical parts."""
    if q != 1:
        g = gcd(u, v, q)
        if q < 0:
            g = -g
        if g != 1:
            u, v, q = u // g, v // g, q // g
    return _make(d, u, v, q)


class QuadExt:
    """Exact element ``u + v*sqrt(d)`` with rational ``u``, ``v``.

    ``d`` must be a square-free integer > 1 below ``RADICAND_CAP`` (2**64;
    from there up it raises ``CapacityError``), and ``u``, ``v`` each an
    ``int`` or a ``Fraction``.  The element is held as four integers, d and
    (u + v*sqrt(d)) / q over one denominator q > 0 with gcd(u, v, q) = 1, and
    each operation is integer products and one gcd.  ``.u``, ``.v`` and
    ``norm()`` return ``Fraction``.  Arithmetic is exact and instances are
    immutable; mixing two extensions is allowed only when one operand is
    purely rational (``v == 0``).
    """

    __slots__ = ("d", "_u", "_v", "_q")

    def __init__(self, d: int, u=0, v=0) -> None:
        if not isinstance(d, int) or not _is_square_free(d) or d == 1:
            raise ValueError(f"radicand must be a square-free integer > 1, got {d!r}")
        parts = _ratio(u), _ratio(v)
        if None in parts:
            bad = u if parts[0] is None else v
            raise TypeError(f"parts must be int or Fraction, got {bad!r}")
        (un, ud), (vn, vd) = parts
        # u and v are each in lowest terms, so gcd(u, v, q) = 1 over their lcm
        q = lcm(ud, vd)
        self.d, self._u, self._v, self._q = d, un * (q // ud), vn * (q // vd), q

    # -- helpers -------------------------------------------------------

    @property
    def u(self):
        from fractions import Fraction

        return Fraction(self._u, self._q)

    @property
    def v(self):
        from fractions import Fraction

        return Fraction(self._v, self._q)

    @property
    def is_rational(self) -> bool:
        return self._v == 0

    def _pair(self, other) -> tuple[int, int, int, int] | None:
        """The radicand both operands live in and (u, v, q) of ``other``;
        None when ``other`` is not a number of these rings."""
        if isinstance(other, QuadExt):
            d = self.d
            if other.d != d and other._v:
                if self._v:
                    raise RadicandMismatchError(
                        f"cannot combine sqrt({d}) with sqrt({other.d})"
                    )
                d = other.d
            return d, other._u, other._v, other._q
        ratio = _ratio(other)
        if ratio is None:
            return None
        return self.d, ratio[0], 0, ratio[1]

    # -- arithmetic ----------------------------------------------------

    def _sum(self, d: int, u: int, v: int, q: int) -> "QuadExt":
        """self + (u + v*sqrt(d)) / q, over the common denominator."""
        p = self._q
        if p == q:
            return _normal(d, self._u + u, self._v + v, q)
        return _normal(d, self._u * q + u * p, self._v * q + v * p, p * q)

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        return self._sum(*pair)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.d, -self._u, -self._v, self._q)

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        d, u, v, q = pair
        return self._sum(d, -u, -v, q)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        d, u, v, q = pair
        su, sv = self._u, self._v
        return _normal(d, su * u + d * sv * v, su * v + sv * u, self._q * q)

    __rmul__ = __mul__

    def norm(self):
        from fractions import Fraction

        u, v, q = self._u, self._v, self._q
        return Fraction(u * u - self.d * v * v, q * q)

    def inverse(self) -> "QuadExt":
        u, v, q = self._u, self._v, self._q
        n = u * u - self.d * v * v
        if n == 0:
            raise ZeroDivisionError("element has zero norm")
        return _normal(self.d, q * u, -q * v, n)

    def __truediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        return self * _make(*pair).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = _make(self.d, 1, 0, 1)
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
        if isinstance(other, QuadExt):
            same = self._u == other._u and self._v == other._v and self._q == other._q
            return same and (self.d == other.d or not self._v)
        ratio = _ratio(other)
        if ratio is None:
            return NotImplemented
        return not self._v and self._u == ratio[0] and self._q == ratio[1]

    def __hash__(self):
        # the hashes of Fraction parts, which equal those of int parts at q = 1
        if self._q == 1:
            return hash((self.d, self._u, self._v) if self._v else self._u)
        return hash((self.d, self.u, self.v) if self._v else self.u)

    def __repr__(self) -> str:
        return f"QuadExt({self.d}, {self.u!r}, {self.v!r})"

    def __str__(self) -> str:
        u, v, q = self._u, self._v, self._q
        if not v:
            return _ratio_text(u, q)
        root = f"sqrt({self.d})"
        size = _ratio_text(abs(v), q)
        mag = root if size == "1" else f"{size}*{root}"
        if not u:
            return mag if v > 0 else f"-{mag}"
        return f"{_ratio_text(u, q)} {'+' if v > 0 else '-'} {mag}"


SQRT2 = _make(2, 0, 1, 1)
SQRT3 = _make(3, 0, 1, 1)
SQRT5 = _make(5, 0, 1, 1)
GOLDEN_RATIO = _make(5, 1, 1, 2)


class MersenneMod:
    """Modulus ``2**p - 1`` with fold-and-add reduction on p-bit limbs."""

    __slots__ = ("p", "modulus")

    def __init__(self, p: int) -> None:
        if not isinstance(p, int) or p < 2:
            raise ValueError("exponent must be an integer >= 2")
        self.p = p
        self.modulus = (1 << p) - 1

    def reduce(self, x: int) -> int:
        """Return ``x mod 2**p - 1`` in ``[0, 2**p - 2]`` for any integer x."""
        p = self.p
        m = self.modulus
        if x < 0:
            # add m * 2**j >= |x|; shifts only, no division
            j = max(0, (-x).bit_length() - p) + 1
            x += m << j
        while x.bit_length() > p:
            x = (x & m) + (x >> p)
        if x >= m:
            x -= m
        return x

    def __repr__(self) -> str:
        return f"MersenneMod(p={self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, MersenneMod) and other.p == self.p

    def __hash__(self):
        return hash(("MersenneMod", self.p))


class BarrettMod:
    """Modulus m >= 2 with folded Barrett reduction (Barrett 1986; Menezes,
    van Oorschot and Vanstone, *Handbook of Applied Cryptography*, Alg. 14.42;
    the folding step of Hasenplaugh, Gaubatz and Gopal, "Fast Modular
    Reduction", ARITH-18, 2007): products by precomputed constants and shifts
    in place of a long division.

    Let k be the bit length of m.  An x with 0 <= x < 2**bits, bits = 2k at
    first, is folded at a point h by

        x = (x >> h) * c + (x & (2**h - 1)),    c = 2**h mod m,

    which keeps x mod m, and, as c < 2**k, leaves
    y < 2**(bits - h + k) + 2**h <= 2**(max(bits - h + k, h) + 1).  Each fold
    takes h = ceil((bits + k) / 2), so the bound becomes h + 1 bits, and the
    excess over k goes from e to ceil(e / 2) + 1: two folds, near 3k/2 and
    5k/4, take 2k bits to about 5k/4 + 2.  The product of each fold is
    (bits - h) x k bits, about k/2 x k and k/4 x k, and the estimate's two
    products are then about k/4 x k/4 and k/4 x k bits, where an estimate on
    all 2k bits forms two of about k x k.  A fold that would not lower the
    bound is left out: both below k = 4 bits, the second at k = 4.

    The Barrett estimate then runs on the remaining 0 <= y < 2**(k + j):
    with mu = floor(2**(k + j) / m), q = ((y >> (k - 1)) * mu) >> (j + 1).
    Each floor only lowers it, so q <= floor(y / m); and as each floor takes
    off less than one and y < 2**(k + j), 2**(k - 1) <= m, it falls short by
    at most two, so y - q*m is brought below m by at most two subtractions.
    Any x that is negative or from 4**k up is reduced by ``%``.
    """

    __slots__ = ("modulus", "_k", "_mu", "_shift", "_top", "_folds")

    def __init__(self, m: int) -> None:
        if not isinstance(m, int) or m < 2:
            raise ValueError("modulus must be an integer >= 2")
        k = m.bit_length()
        self.modulus, self._k, self._top = m, k, 1 << 2 * k
        bits, folds = 2 * k, []
        for _ in range(2):
            h = (bits + k + 1) // 2
            if h + 1 >= bits:
                break
            folds.append((h, (1 << h) - 1, (1 << h) % m))
            bits = h + 1
        self._folds = tuple(folds)
        self._mu = (1 << bits) // m
        self._shift = bits - k + 1

    def reduce(self, x: int) -> int:
        """Return ``x mod m`` in ``[0, m - 1]`` for any integer x."""
        m = self.modulus
        if not 0 <= x < self._top:
            return x % m
        for h, mask, c in self._folds:
            x = (x >> h) * c + (x & mask)
        r = x - ((x >> (self._k - 1)) * self._mu >> self._shift) * m
        while r >= m:
            r -= m
        return r
