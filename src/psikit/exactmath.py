"""Exact arithmetic substrate.

Arbitrary-precision integers are plain Python ``int``; exact rationals are
``fractions.Fraction`` (already kept in lowest terms with a positive
denominator).  On top of those this module provides elements of real
quadratic extensions ``u + v*sqrt(d)`` and a shift-and-add reduction for
moduli of the form ``2**p - 1``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Rational = int | Fraction

__all__ = [
    "Rational",
    "Scalar",
    "RadicandMismatchError",
    "NotInvertibleError",
    "QuadExt",
    "SQRT2",
    "SQRT3",
    "SQRT5",
    "GOLDEN_RATIO",
    "MersenneMod",
    "mod_inverse",
]


class RadicandMismatchError(ValueError):
    """Combining elements of incompatible quadratic extensions."""


class NotInvertibleError(ValueError):
    """A modular inverse does not exist.

    ``witness`` carries gcd(value, modulus); when the modulus was expected to
    be prime this witness is a nontrivial factor of it, so callers should
    surface it rather than discard it.
    """

    def __init__(self, value: int, modulus: int, witness: int) -> None:
        super().__init__(
            f"{value} is not invertible modulo {modulus} (gcd = {witness})"
        )
        self.value = value
        self.modulus = modulus
        self.witness = witness


def _is_square_free(d: int) -> bool:
    if d <= 0:
        return False
    f = 2
    while f * f <= d:
        if d % (f * f) == 0:
            return False
        f += 1
    return True


class QuadExt:
    """Exact element ``u + v*sqrt(d)`` with rational ``u``, ``v``.

    ``d`` must be a square-free positive integer.  Arithmetic is exact and
    instances are immutable; mixing two extensions is allowed only when one
    operand is purely rational (``v == 0``).
    """

    __slots__ = ("d", "u", "v")

    def __init__(self, d: int, u: Rational = 0, v: Rational = 0) -> None:
        if not isinstance(d, int) or not _is_square_free(d) or d == 1:
            raise ValueError(f"radicand must be a square-free integer > 1, got {d!r}")
        self.d = d
        self.u = Fraction(u)
        self.v = Fraction(v)

    # -- helpers -------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.v == 0

    def _as_pair(self, other) -> tuple["QuadExt", "QuadExt"]:
        """Coerce ``other`` into this element's extension (or vice versa)."""
        if isinstance(other, QuadExt):
            if other.d == self.d:
                return self, other
            if other.is_rational:
                return self, QuadExt(self.d, other.u, 0)
            if self.is_rational:
                return QuadExt(other.d, self.u, 0), other
            raise RadicandMismatchError(
                f"cannot combine sqrt({self.d}) with sqrt({other.d})"
            )
        if isinstance(other, (int, Fraction)):
            return self, QuadExt(self.d, other, 0)
        raise TypeError(f"unsupported operand {other!r}")

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        try:
            a, b = self._as_pair(other)
        except TypeError:
            return NotImplemented
        return QuadExt(a.d, a.u + b.u, a.v + b.v)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(self.d, -self.u, -self.v)

    def __sub__(self, other):
        try:
            a, b = self._as_pair(other)
        except TypeError:
            return NotImplemented
        return QuadExt(a.d, a.u - b.u, a.v - b.v)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        try:
            a, b = self._as_pair(other)
        except TypeError:
            return NotImplemented
        return QuadExt(
            a.d,
            a.u * b.u + a.d * a.v * b.v,
            a.u * b.v + a.v * b.u,
        )

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        return self.u * self.u - self.d * self.v * self.v

    def inverse(self) -> "QuadExt":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("element has zero norm")
        return QuadExt(self.d, self.u / n, -self.v / n)

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
        result = QuadExt(self.d, 1, 0)
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


Scalar = int | Fraction | QuadExt

SQRT2 = QuadExt(2, 0, 1)
SQRT3 = QuadExt(3, 0, 1)
SQRT5 = QuadExt(5, 0, 1)
GOLDEN_RATIO = QuadExt(5, Fraction(1, 2), Fraction(1, 2))


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


def mod_inverse(x: int, m: int) -> int:
    """Return y in [0, m) with x*y == 1 (mod m).

    Raises :class:`NotInvertibleError` carrying gcd(x, m) when no inverse
    exists; when m was believed prime that gcd is a factor of m.
    """
    if m <= 1:
        raise ValueError("modulus must be > 1")
    x0 = x % m
    g = gcd(x0, m)
    if g != 1:
        raise NotInvertibleError(x, m, g)
    return pow(x0, -1, m)
