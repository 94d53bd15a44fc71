"""The two-parameter sequence psi(a, b, n) in four computation modes.

psi(0) = 2, psi(1) = 1 and

    psi(n + 1) = (2a - b)**parity(n) * psi(n) - a * psi(n - 1).

Modes: direct recurrence (any exact ring), explicit binomial formula, the
binary form in (a, b), as its list of integer coefficients (``psi_coeffs``,
one recurrence pass at an integer point) or as a polynomial
(``psi_symbolic``), and an O(log n) modular doubling ladder for
astronomically large indices.

The ladder is a Lucas chain (Montgomery 1992; Joye and Quisquater 1996).
With d = 2a - b, t = (d - 2a) / a = -b / a and V = V(t, 1) the Lucas V
sequence (V_0 = 2, V_1 = t, V_(j+1) = t * V_j - V_(j-1)),

    psi(2k)     = a**k * V_k
    psi(2k + 1) = a**(k + 1) * (V_k + V_(k+1)) / d.

For even n the chain walks the bits of the odd part of k = n >> 1 with
``ladder_step``, two products per bit, and squares down the trailing zero bits
of k with V_2j = V_j**2 - 2, one product per bit; for odd n it walks every
bit of k.  One product by the finishing factor, a**k for even n and
a**(k + 1) / d for odd n, ends the value.  The chain does not need that factor
before this product, so a forked child computes it (``pow``, about 1.2
products per bit) while the chain runs, and sends it back over a pipe.  The
child is used only when the call shows that this pays: the process can fork,
may run on at least two CPUs and has one thread, a is not +-1 mod m, and
(index bits) * (modulus bits)**2 is at least ``FORK_BREAK_EVEN``.  Otherwise,
or when the fork fails or the child does not deliver, the factor is computed
after the chain, by the same code.  The chain needs a invertible mod m, and d
too for odd n.
A shared prime is common on generic moduli: 3 divides 2**k + 1 for every odd
k, and a random odd m often shares a small prime with a.  So the ladder strips
those primes from m and runs the chain on the coprime part, and the
inverse-free three-product walk ``_psi_walk`` over (psi(k), psi(k+1), a**k),
reducing by plain ``%``, on the shared cofactor alone, usually a small prime
power; the Chinese remainder theorem joins the two.  The walk takes a and d
as their representatives of least absolute value, so a small negative a or d,
such as d = -2 of psi(1, 4, .), keeps its products by them small.  A 2 x 2
matrix power, with more products per bit, is the tests' oracle, not a route.
The chain's reduction is chosen once per call: moduli 2**p - 1 use the
fold-and-add ``MersenneMod.reduce``, other moduli of more than
``BARRETT_BREAK_EVEN`` bits ``BarrettMod.reduce``, and the rest plain ``%``.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from itertools import count, islice
from math import comb, gcd, isqrt, lcm

from .errors import CapacityError
from .exactmath import BarrettMod, MersenneMod
from .limits import LIMITS
from .multipoly import SparsePoly, form_at

__all__ = [
    "parity",
    "half",
    "psi_terms",
    "psi_recurrence",
    "psi_sequence",
    "psi_explicit",
    "psi_coeffs",
    "packing_bits",
    "psi_symbolic",
    "symbolic_degree",
    "psi_bit_bound",
    "psi_mod_ladder",
    "ladder_step",
    "psi_product_identity_check",
]


def parity(n: int) -> int:
    """n mod 2 (the exponent side of the alternating recurrence)."""
    return n % 2


def half(n: int) -> int:
    """floor(n / 2)."""
    return n // 2


def psi_terms(a, b) -> Iterator:
    """psi(a, b, 0), psi(a, b, 1), ... by the defining recurrence, holding two
    terms at a time."""
    d = 2 * a - b
    lo, hi = 2, 1
    yield lo
    for k in count(1):
        yield hi
        lo, hi = hi, (d * hi if k % 2 else hi) - a * lo


def psi_recurrence(a, b, n: int):
    """psi(a, b, n) by the defining recurrence, O(n) ring operations."""
    if n < 0:
        raise ValueError("index must be >= 0")
    return next(islice(psi_terms(a, b), n, None))


def psi_sequence(a, b, n_max: int) -> list:
    """[psi(0), ..., psi(n_max)] in one pass."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return list(islice(psi_terms(a, b), n_max + 1))


def psi_explicit(a, b, n: int):
    """psi(a, b, n) by the explicit binomial sum, n >= 1.

    The weight n/(n-i) * C(n-i, i) is an exact integer for every
    0 <= i <= floor(n/2) (at i = n/2 it equals 2); each summand is checked
    for integrality before use.  Index 0 is excluded because the weight is
    undefined there; psi(0) = 2 comes from the recurrence seed.
    """
    if n < 1:
        raise ValueError("explicit formula needs n >= 1 (psi(0) = 2 by definition)")
    weights = []
    for i in range(half(n) + 1):
        w, rem = divmod(n * comb(n - i, i), n - i)
        if rem:
            raise ArithmeticError(f"non-integral weight at i={i}, n={n}")
        weights.append(w)
    # sum_i weights[i] * (-a)**i * (2a - b)**(n // 2 - i)
    return form_at(weights, 2 * a - b, -a)


def psi_coeffs(n: int) -> list[int]:
    """psi(a, b, n) as a binary form of degree m = n // 2: element j is the
    coefficient of a**j * b**(m - j).

    One ``psi_recurrence`` pass at the integer point a = 2**K, b = 1 gives
    sum_j c_j * 2**(K*j), read off as m + 1 signed K-bit digits (Kronecker
    substitution).  The digits do not overlap: psi = sum_j w_j (-a)**j d**(m-j)
    with d = 2a - b and every w_j >= 0, so sum_j |c_j| <= psi(-1, -5, n), where
    -a = 1 and d = 3, and K is ``packing_bits`` of that bound.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    k = packing_bits(psi_recurrence(-1, -5, n))
    packed = psi_recurrence(1 << k, 1, n)
    mask, sign = (1 << k) - 1, 1 << (k - 1)
    coeffs = []
    for _ in range(half(n) + 1):
        digit = (packed + sign & mask) - sign
        coeffs.append(digit)
        packed = (packed - digit) >> k
    return coeffs


def packing_bits(*bounds: int) -> int:
    """The K of a Kronecker substitution x = 2**K that keeps apart integer
    polynomials whose 1-norms (sums of absolute coefficients) are at most the
    largest of ``bounds``: two bits above it.  Each coefficient of such a
    polynomial is then below 2**(K - 2) in absolute value, so it is one signed
    K-bit digit of the value, and each of the difference of two is below
    2**(K - 1).  A nonzero difference with lowest nonzero coefficient c, at
    x**j, takes at 2**K the value 2**(K*j) * (c + 2**K * r) for an integer r,
    which is not zero, as 0 < |c| < 2**K: equal values mean equal polynomials.
    """
    return max(bounds).bit_length() + 2


def symbolic_degree(n: int) -> int:
    """The degree n // 2 of psi(a, b, n), refused outside the bounds of psi poly's --n."""
    if n < (limit := LIMITS["psi poly"]).first:
        raise ValueError(f"index must be >= {limit.first}")
    if n > limit.ceiling:
        raise CapacityError(f"symbolic index {n} exceeds cap {limit.ceiling}")
    return half(n)


@lru_cache(maxsize=None)
def psi_symbolic(n: int, avar: str = "a", bvar: str = "b") -> SparsePoly:
    """psi(a, b, n) as a canonical polynomial in two named variables, built
    from ``psi_coeffs``."""
    symbolic_degree(n)
    return SparsePoly.binary_form(psi_coeffs(n), avar, bvar)


def _power_bits(x: int, k: int) -> int:
    """An upper bound on the bit length of x**k for x >= 0, without building
    it: x**64 has more than 64 * log2(x) bits."""
    return k * (x**64).bit_length() // 64 + 1


def _common_denominator(a, b) -> tuple[int, int, int]:
    """(q, A, B) with a = A/q, b = B/q, q the least common denominator."""
    q = lcm(a.denominator, b.denominator)
    return q, a.numerator * (q // a.denominator), b.numerator * (q // b.denominator)


def psi_bit_bound(a, b, n: int) -> int:
    """An upper bound on the bit length of psi(a, b, n), and of its
    numerator and denominator for rational a, b (each an ``int`` or a
    ``Fraction``), found without computing it.

    psi is homogeneous of degree n // 2, so for a = A/q, b = B/q the value is
    psi(A, B, n) / q**(n // 2).  For integers, with d = 2a - b, the explicit
    sum reads psi(n) = (alpha**n + beta**n) / sqrt(d)**parity(n), alpha and
    beta the roots of x**2 - sqrt(d) x + a.  Their squares are the roots of
    y**2 + b y + a**2, of modulus |a| when complex and at most
    (|b| + sqrt(b**2 - 4a**2)) / 2 when real; calling that bound rho,
    |psi(n)| <= 2 * rho**(n/2) for d != 0.  For d = 0 only the last term of
    the sum is left, and |psi(n)| <= n * |a|**(n // 2).
    """
    if n < 2:
        return 2
    q, a, b = _common_denominator(a, b)
    den_bits = _power_bits(q, half(n))
    if 2 * a == b:
        return max(den_bits, n.bit_length() + _power_bits(abs(a), half(n)))
    disc = b * b - 4 * a * a
    # rho2 >= 2 * rho, and rho2 >= 2 once d != 0
    rho2 = 2 * abs(a) if disc < 0 else abs(b) + isqrt(disc) + 1
    k = n - half(n)  # rho >= 1, so rho**(n/2) <= rho**k
    return max(den_bits, _power_bits(rho2, k) - k + 1)


def ladder_step(state: tuple[int, int], bit: int, t: int, reduce) -> tuple[int, int]:
    """One bit of the Lucas chain of V = V(t, 1): (V_j, V_(j+1)) becomes
    (V_2j, V_(2j+1)) on bit 0 and (V_(2j+1), V_(2j+2)) on bit 1, by

        V_2j       = V_j**2 - 2
        V_(2j + 1) = V_j * V_(j+1) - t

    ``reduce`` maps any integer to its residue mod m.
    """
    v, w = state
    mid = reduce(v * w - t)
    if bit:
        return mid, reduce(w * w - 2)
    return reduce(v * v - 2), mid


def _square_chain(v: int, times: int, reduce) -> int:
    """The ``times``-th iterate of v -> reduce(v**2 - 2): V_j to V_(j * 2**times)
    of a Lucas V sequence with Q = 1, by V_2j = V_j**2 - 2."""
    for _ in range(times):
        v = reduce(v * v - 2)
    return v


def _lucas_walk(k: int, t: int, reduce) -> tuple[int, int]:
    """(V_k, V_(k+1)) of V = V(t, 1) mod m: ``ladder_step`` over the bits of
    k from (V_0, V_1) = (2, t)."""
    state = (2, t)
    for bit in f"{k:b}".lstrip("0"):  # one pass over the digits; none at k = 0
        state = ladder_step(state, bit == "1", t, reduce)
    return state


def _psi_walk(a: int, d: int, n: int, m: int) -> int:
    """psi(a, b, n) mod m for n >= 1 and d = 2a - b, with no inverse: the
    three-product walk over (psi(k), psi(k+1), a**k) and the parity of k,
    over the bits of the odd part of n from k = 0, by

        psi(2k)     = d**parity(k) * psi(k)**2 - 2 * a**k
        psi(2k + 1) = psi(k) * psi(k+1) - a**k
        psi(2k + 2) = d * psi(2k + 1) - a * psi(2k)

    then psi(2k) alone down the trailing zero bits of n, reducing by ``%``."""
    zeros = (n & -n).bit_length() - 1
    odd = n >> zeros
    lo, hi, apow, par = 2, 1, 1, "0"
    for bit in f"{odd:b}":
        sq = lo * lo
        if par == "1":
            # reducing first keeps the product by d at m x m bits, not 2m x m
            sq = sq % m * d
        dbl_lo = (sq - 2 * apow) % m
        dbl_hi = (lo * hi - apow) % m
        if bit == "1":
            lo, hi, apow = dbl_hi, (d * dbl_hi - a * dbl_lo) % m, apow * apow * a % m
        else:
            lo, hi, apow = dbl_lo, dbl_hi, apow * apow % m
        par = bit  # the last digit of k
    if zeros:
        # the odd part has parity 1, so only the first doubling carries d
        lo = (lo * lo % m * d - 2 * apow) % m
        for _ in range(zeros - 1):
            apow = apow * apow % m
            lo = (lo * lo - 2 * apow) % m
    return lo


def psi_mod_ladder(a: int, b: int, n: int, m: int) -> int:
    """psi(a, b, n) mod m in O(log n) ring operations.

    Runs the Lucas chain over the bits of n >> 1 on the part of m coprime to
    a, and to d = 2a - b at odd n, and the three-product walk on the rest of
    m; see the module docstring.
    """
    if m < 2:
        raise ValueError("modulus must be >= 2")
    if n < 0:
        raise ValueError("index must be >= 0")
    if n == 0:
        return 2 % m
    d = 2 * a - b
    coprime = m
    for x in (a, d) if n & 1 else (a,):
        while (g := gcd(x, coprime)) > 1:
            coprime //= g
    shared = m // coprime
    # a part of modulus 1 has residue 0, and the join needs no case for it:
    # pow(coprime, -1, 1) is 0, and pow(1, -1, shared) is 1
    walk = chain = 0
    if shared > 1:
        half = shared >> 1
        walk = _psi_walk((a + half) % shared - half, (d + half) % shared - half, n, shared)
    if coprime > 1:
        chain = _psi_chain(a, b, d, n, coprime)
    return chain + coprime * ((walk - chain) * pow(coprime, -1, shared) % shared)


# The largest modulus bit length at which the chain reduces by ``%``; above it,
# by ``BarrettMod``.  Barrett's two products pass CPython's Karatsuba cutoff of
# 70 30-bit digits once x >> (k - 1), about k - 1 bits for a typical x = v * w,
# has more than 2100 bits.  On a 2-CPU Linux box with CPython 3.11, a 600-bit
# walk of the chain (random odd moduli, best of 9 to 15, three seeds) took with
# Barrett 1.08-1.22 times its time with ``%`` at 2048 bits, 1.03-1.10 at 2102,
# 0.95-1.01 at 2103, 0.96-1.02 at 2104 and 0.94-0.97 at 2203; 0.83 at 4253
# and 0.63 at 14284.
BARRETT_BREAK_EVEN = 2103


def _chain_reduction(m: int):
    """The chain's reduction mod m, chosen once per call: fold-and-add for
    m = 2**p - 1, Barrett above ``BARRETT_BREAK_EVEN`` bits, else ``%``."""
    if m & (m + 1) == 0:
        return MersenneMod(m.bit_length()).reduce
    if m.bit_length() > BARRETT_BREAK_EVEN:
        return BarrettMod(m).reduce
    return m.__rmod__


def _psi_chain(a: int, b: int, d: int, n: int, m: int) -> int:
    """psi(a, b, n) mod m by the Lucas chain; a, and d at odd n, are units mod m."""
    reduce = _chain_reduction(m)
    odd = n & 1
    t = -b * pow(a, -1, m) % m
    k = n >> 1
    if odd:
        walk, zeros = k, 0
    else:
        zeros = (k & -k).bit_length() - 1
        walk = k >> zeros

    def chain() -> int:
        state = _lucas_walk(walk, t, reduce)
        return state[0] + state[1] if odd else _square_chain(state[0], zeros, reduce)

    v, factor = _alongside(chain, a, d, n, m)
    return reduce(v * factor)


def _finishing_factor(a: int, d: int, n: int, m: int) -> int:
    """The factor that turns the chain's V_k, or V_k + V_(k+1), into psi(n)
    mod m: a**k for n = 2k, a**(k+1) / d for n = 2k + 1."""
    k = n >> 1
    if n & 1:
        return pow(a, k + 1, m) * pow(d, -1, m) % m
    return pow(a, k, m)


# The least (index bits) * (modulus bits)**2 at which a forked child computes
# the finishing factor.  On a 2-CPU Linux box a fork, pipe and wait round trip
# took about 1 ms, and pow at 640-bit exponent and modulus 1.1 ms, at 1024 bits
# 4.6 ms.  With the second CPU free, a ladder at 512-bit index and modulus
# took 1.5 times its serial time forked, at 640 bits 0.81 and at 768 bits 0.77:
# the break-even lies between 2**27 and 2**28.
FORK_BREAK_EVEN = 1 << 28


def _fork_pays(a: int, n: int, m: int) -> bool:
    """Whether a child computing ``_finishing_factor`` saves time: the power
    is real work (a is not +-1 mod m) above the break-even, and the process
    can fork, may run on two CPUs and has one thread."""
    import os
    import sys

    threading = sys.modules.get("threading")
    return (
        a % m not in (1, m - 1)
        and n.bit_length() * m.bit_length() ** 2 >= FORK_BREAK_EVEN
        and hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) > 1
        and (threading is None or threading.active_count() == 1)
    )


def _alongside(work, a: int, d: int, n: int, m: int) -> tuple[int, int]:
    """(work(), _finishing_factor(a, d, n, m)).  When ``_fork_pays``, a forked
    child computes the factor while work() runs here, and sends it back over a
    pipe.  If the fork fails, or the child exits non-zero or sends a short
    reply, the factor is computed here; the child is always reaped, and
    killed first if work() raises, or on Linux when a signal ends this process."""
    if not _fork_pays(a, n, m):
        return work(), _finishing_factor(a, d, n, m)
    import os
    import signal

    size = (m.bit_length() + 7) // 8
    parent = os.getpid()
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return work(), _finishing_factor(a, d, n, m)
    if pid == 0:
        status = 1
        try:
            if os.uname().sysname == "Linux":  # ctypes only in the child
                import ctypes
                prctl = ctypes.CDLL(None).prctl
                prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
                prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
            if os.getppid() != parent:  # it died before the prctl
                os._exit(status)
            os.close(r)
            reply = memoryview(_finishing_factor(a, d, n, m).to_bytes(size, "little"))
            while reply:
                reply = reply[os.write(w, reply):]
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    reaped = False
    try:
        value = work()
        chunks = []
        while chunk := os.read(r, 1 << 16):
            chunks.append(chunk)
        status = os.waitpid(pid, 0)[1]
        reaped = True
    finally:
        os.close(r)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    reply = b"".join(chunks)
    if status or len(reply) != size:
        return value, _finishing_factor(a, d, n, m)
    return value, int.from_bytes(reply, "little")


def psi_product_identity_check(a, b, n: int, m: int) -> bool:
    """Check (2a-b)**(parity(n)*parity(m)) * psi(n) * psi(m)
    == psi(n+m) + a**min(n,m) * psi(n-m), using the signed-index extension."""
    if n < 0 or m < 0:
        raise ValueError("indices must be >= 0")
    seq = psi_sequence(a, b, n + m)
    d = 2 * a - b
    lhs = d ** (parity(n) * parity(m)) * seq[n] * seq[m]
    rhs = seq[n + m] + a ** min(n, m) * seq[abs(n - m)]
    return lhs == rhs
