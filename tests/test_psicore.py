import os
import random
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction
from itertools import product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psikit import psicore
from psikit.errors import CapacityError
from psikit.exactmath import BarrettMod, MersenneMod, SQRT2
from psikit.limits import LIMITS
from psikit.multipoly import MAX_DEGREE, SparsePoly, variables
from psikit.psicore import (
    BARRETT_BREAK_EVEN,
    _chain_reduction,
    _lucas_walk,
    half,
    ladder_step,
    parity,
    psi_bit_bound,
    psi_coeffs,
    psi_explicit,
    psi_mod_ladder,
    psi_product_identity_check,
    psi_recurrence,
    psi_sequence,
    psi_symbolic,
    _psi_walk,
)

from oracles import eval_scalar, psi_matrix_mod, psi_recurrence_mod, psi_symbolic_sequence

A, B = variables("a b")
SYMBOLIC_INDEX = LIMITS["psi poly"].ceiling


def walk(a, b, n, m):
    """The inverse-free walk, called with the arguments psi_mod_ladder gives it."""
    half = m >> 1
    return _psi_walk((a + half) % m - half, (2 * a - b + half) % m - half, n, m)

# the first few polynomials, fixed reference values
SMALL_POLYS = {
    0: SparsePoly.constant(2),
    1: SparsePoly.constant(1),
    2: -B,
    3: -B - A,
    4: -2 * A**2 + B**2,
    5: -(A**2) + A * B + B**2,
    6: 3 * A**2 * B - B**3,
    7: A**3 + 2 * A**2 * B - A * B**2 - B**3,
}


class TestRecurrence:
    def test_seed_values(self):
        assert psi_recurrence(A, B, 0) == 2
        assert psi_recurrence(A, B, 1) == 1

    def test_small_polynomials(self):
        for n, expected in SMALL_POLYS.items():
            assert psi_symbolic(n) == expected

    def test_sextic_symbolic(self):
        assert psi_symbolic(6) == 3 * A**2 * B - B**3

    def test_integer_points(self):
        assert psi_recurrence(1, 4, 4) == 14  # -2*1 + 16
        assert psi_recurrence(-1, -3, 5) == 11  # Lucas number L(5)

    def test_quadratic_ring(self):
        assert psi_recurrence(1, SQRT2, 2) == -SQRT2
        assert psi_recurrence(1, SQRT2, 8) == -2

    def test_sequence_matches_pointwise(self):
        seq = psi_sequence(3, -2, 30)
        assert seq == [psi_recurrence(3, -2, n) for n in range(31)]

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            psi_recurrence(1, 2, -1)

    def test_degree_equals_half_index(self):
        for n in range(2, 40):
            assert psi_symbolic(n).total_degree() == half(n)


class TestExplicit:
    def test_alternating_closed_form_point(self):
        # closed form (-1)^floor(n/2) * 2^parity(n-1) * n^parity(n) at (1, 2)
        assert psi_explicit(1, 2, 5) == 5
        assert psi_recurrence(1, 2, 5) == -1 + 2 + 4

    def test_quartic_point(self):
        assert psi_explicit(0, 1, 4) == 1

    def test_index_one(self):
        assert psi_explicit(A, B, 1) == 1

    def test_index_zero_rejected(self):
        with pytest.raises(ValueError):
            psi_explicit(1, 1, 0)

    def test_matches_recurrence_randomly(self):
        rng = random.Random(23)
        for _ in range(120):
            a = rng.randint(-50, 50)
            b = rng.randint(-50, 50)
            n = rng.randint(1, 200)
            v = psi_recurrence(a, b, n)
            assert psi_explicit(a, b, n) == v
            assert eval_scalar(psi_symbolic(n), {"a": a, "b": b}) == v

    def test_three_modes_small_sweep(self):
        for n in range(1, 26):
            for a, b in ((1, 4), (-1, -3), (2, -5), (0, 1), (3, 3)):
                v = psi_recurrence(a, b, n)
                assert psi_explicit(a, b, n) == v
                assert eval_scalar(psi_symbolic(n), {"a": a, "b": b}) == v

    def test_explicit_over_other_rings(self):
        assert psi_explicit(1, SQRT2, 16) == psi_recurrence(1, SQRT2, 16) == 2
        assert psi_explicit(A, B, 6) == psi_symbolic(6)
        assert psi_explicit(Fraction(1, 2), Fraction(3, 4), 9) == psi_recurrence(
            Fraction(1, 2), Fraction(3, 4), 9
        )


class TestSymbolicCap:
    def test_cap_enforced(self):
        with pytest.raises(CapacityError):
            psi_symbolic(300)

    def test_ceiling_is_twice_the_kernel_degree(self):
        # psi(a, b, n) has degree n // 2, and products stop at MAX_DEGREE;
        # verify eightlevels shares psi poly's ceiling
        assert SYMBOLIC_INDEX == 2 * MAX_DEGREE == LIMITS["verify eightlevels"].ceiling


class TestBinaryForm:
    def test_coefficients_match_the_sparse_recurrence(self):
        oracle = psi_symbolic_sequence(SYMBOLIC_INDEX)
        for n, expected in enumerate(oracle):
            m = half(n)
            coeffs = psi_coeffs(n)
            assert len(coeffs) == m + 1, n
            assert SparsePoly(("a", "b"), {(j, m - j): c for j, c in enumerate(coeffs)}) == expected
            assert psi_symbolic(n) == expected, n

    def test_named_variables_in_either_order(self):
        for avar, bvar in (("beta", "alpha"), ("x", "y"), ("z", "a")):
            for n, expected in enumerate(psi_symbolic_sequence(40, avar, bvar)):
                assert psi_symbolic(n, avar, bvar) == expected, (avar, bvar, n)

    def test_absolute_coefficients_sum_to_at_most_psi_at_minus_one_minus_five(self):
        # the bound that keeps the Kronecker digits of psi_coeffs apart
        for n in range(SYMBOLIC_INDEX + 1):
            assert sum(map(abs, psi_coeffs(n))) <= abs(psi_recurrence(-1, -5, n)), n

    def test_coefficients_at_seeded_points(self):
        rng = random.Random(18)
        for _ in range(60):
            n, a, b = rng.randint(0, SYMBOLIC_INDEX), rng.randint(-9, 9), rng.randint(-9, 9)
            m = half(n)
            value = sum(c * a**j * b ** (m - j) for j, c in enumerate(psi_coeffs(n)))
            assert value == psi_recurrence(a, b, n), (n, a, b)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            psi_coeffs(-1)


class TestLadder:
    def test_documented_values(self):
        assert psi_mod_ladder(1, 4, 16, 31) == 0
        assert psi_mod_ladder(1, 4, 8, 10**9) == 194
        assert psi_mod_ladder(1, 4, 1, 97) == 1
        assert psi_mod_ladder(1, 4, 32, 31) == 29

    def test_index_zero(self):
        assert psi_mod_ladder(5, 9, 0, 17) == 2

    def test_matches_recurrence_random(self):
        rng = random.Random(29)
        for _ in range(400):
            a = rng.randint(-30, 30)
            b = rng.randint(-30, 30)
            n = rng.randint(0, 3000)
            m = rng.randint(2, 10_000)
            assert psi_mod_ladder(a, b, n, m) == psi_recurrence_mod(a, b, n, m)

    def test_state_advance_matches_recurrence(self):
        # walking the Lucas chain bit by bit from (V_0, V_1) = (2, t) reaches
        # (V_j, V_(j+1)) of V(t, 1) as the plain recurrence gives it mod m
        for m, reduce in ((101, (101).__rmod__), (127, MersenneMod(7).reduce)):
            for t in (-4, 0, 3, 57):
                seq = [2, t % m]
                for _ in range(64):
                    seq.append((t * seq[-1] - seq[-2]) % m)
                for j in range(1, 65):
                    state = (2, t)
                    for i in range(j.bit_length() - 1, -1, -1):
                        state = ladder_step(state, (j >> i) & 1, t, reduce)
                    assert state == (seq[j], seq[j + 1]), (m, t, j)

    def test_walk_end_values_match_recurrence(self):
        # the inverse-free walk ends on psi(n) mod m for every n of up to
        # six bits
        a, b, m = 3, -7, 101
        for n in range(1, 65):
            assert walk(a, b, n, m) == psi_recurrence_mod(a, b, n, m), n

    def test_huge_index(self):
        # doubling chain from -4: psi(1,4,2^k) follows s -> s^2 - 2
        m = (1 << 61) - 1
        s = -4 % m
        for _ in range(59):
            s = (s * s - 2) % m
        assert psi_mod_ladder(1, 4, 1 << 60, m) == s


@st.composite
def ladder_cases(draw):
    """(a, b, n, m): Mersenne, near-miss, random odd and even moduli, and
    moduli m = g * h or p**e * h with p a small prime; a = 1 (mod m),
    a = g * u sharing the factor g (or p) with m, or random; d = 2a - b
    random, or g * v, which is 0 (mod m) when g = m; signed a and b; n = 0,
    powers of two and odd * 2**j.  The primes of m that a, or d at odd n,
    shares go to the three-product walk; with m = p**e * h the ladder strips
    p from m more than once."""
    form = draw(
        st.sampled_from(("mersenne", "plus1", "minus3", "odd", "even", "product", "power"))
    )
    if form == "mersenne":
        m = (1 << draw(st.integers(2, 61))) - 1
    elif form == "plus1":
        m = (1 << draw(st.integers(1, 61))) + 1
    elif form == "minus3":
        m = (1 << draw(st.integers(3, 61))) - 3
    elif form == "even":
        m = 2 * draw(st.integers(1, 1 << 64))
    elif form == "odd":
        m = 2 * draw(st.integers(1, 1 << 64)) + 1
    elif form == "product":
        g = draw(st.integers(2, 1 << 16))
        m = g * draw(st.integers(1, 1 << 48))
    else:
        g = draw(st.sampled_from((2, 3, 5, 7)))
        m = g ** draw(st.integers(2, 30)) * draw(st.integers(1, 1 << 48))
    if form not in ("product", "power"):
        g = m
    a = draw(
        st.one_of(
            st.just(1),
            st.integers(-3, 3).map(lambda k: 1 + k * m),
            st.integers(-(1 << 70), 1 << 70),
            st.integers(-(1 << 40), 1 << 40).map(lambda u: g * u),
        )
    )
    b = draw(
        st.one_of(
            st.integers(-(1 << 70), 1 << 70),
            st.integers(-(1 << 40), 1 << 40).map(lambda v: 2 * a - g * v),
        )
    )
    n = draw(
        st.one_of(
            st.just(0),
            st.integers(0, 14).map(lambda j: 1 << j),
            st.tuples(st.integers(0, 7), st.integers(0, 12)).map(
                lambda t: (2 * t[0] + 1) << t[1]
            ),
            st.integers(0, 3000),
        )
    )
    return a, b, n, m


class TestLadderProperties:
    @settings(derandomize=True, database=None, deadline=None, max_examples=600)
    @given(ladder_cases())
    def test_ladder_matches_recurrence_hypothesis(self, case):
        a, b, n, m = case
        expected = psi_recurrence_mod(a, b, n, m)
        assert psi_mod_ladder(a, b, n, m) == expected
        if n:
            assert walk(a, b, n, m) == expected

    def test_smallest_mersenne_modulus(self):
        for a, b in product(range(-3, 4), repeat=2):
            for n in range(40):
                assert psi_mod_ladder(a, b, n, 3) == psi_recurrence_mod(a, b, n, 3)


class TestWalkAtScale:
    """The inverse-free walk on all of a large generic modulus, and the
    ladder that splits it, against the matrix power: m = 2**2203 + 1, which 3
    divides, and n of about 2200 bits.  The ladder walks only the factor 3
    here, so the walk is called directly.  Each case asserts the gcd that
    would send the whole modulus to the walk."""

    M = (1 << 2203) + 1

    def _check(self, a, b, n):
        m = self.M
        expected = psi_matrix_mod(a, b, n, m)
        assert walk(a, b, n, m) == expected
        assert psi_mod_ladder(a, b, n, m) == expected

    def test_a_shares_three_with_m_even_and_odd_n(self):
        rng = random.Random(2203)
        a = 3 * rng.getrandbits(2200)
        b = rng.getrandbits(2203)
        assert gcd(a, self.M) != 1
        for low in (0, 1):
            n = rng.getrandbits(2200) | (1 << 2199)
            n = n - (n & 1) + low
            self._check(a, b, n)

    def test_invertible_a_with_three_dividing_d_at_odd_n(self):
        rng = random.Random(2204)
        a = rng.getrandbits(2200)
        while gcd(a, self.M) != 1:
            a += 1
        b = 2 * a - 3 * rng.getrandbits(2200)
        n = rng.getrandbits(2200) | (1 << 2199) | 1
        assert gcd(2 * a - b, self.M) != 1
        self._check(a, b, n)


class TestWalksOverLongIndices:
    """Both walks over a 100,000-bit index, which they read one digit at a
    time, against the matrix power at small moduli."""

    N = random.Random(100_000).getrandbits(100_000) | 1 << 99_999

    def test_lucas_walk(self):
        # at a = 1, t = -b and psi(1, b, 2j) = V_j; the walk to N + 1 checks V_(N+1)
        m, t = (1 << 61) - 1, -7
        v, w = _lucas_walk(self.N, t, m.__rmod__)
        assert v == psi_matrix_mod(1, 7, 2 * self.N, m)
        assert w == _lucas_walk(self.N + 1, t, m.__rmod__)[0]

    def test_psi_walk(self):
        # an odd index, and one with five trailing zero bits to square down
        for m, a, b, n in ((1009, 3, 11, self.N | 1), ((1 << 61) - 1, 5, 2, self.N << 5)):
            assert walk(a, b, n, m) == psi_matrix_mod(a, b, n, m), m


class TestSharedCofactor:
    """The ladder walks only the part of m made of the primes that a, or d at
    odd n, shares with it, and takes the chain on the rest."""

    def _walked(self, monkeypatch, a, b, n, m):
        """The moduli that the walk reduces by in one ladder call, which must
        agree with the matrix power."""
        seen = []

        def spy(a, d, n, modulus):
            seen.append(modulus)
            return _psi_walk(a, d, n, modulus)

        monkeypatch.setattr(psicore, "_psi_walk", spy)
        assert psi_mod_ladder(a, b, n, m) == psi_matrix_mod(a, b, n, m)
        return seen

    def test_only_three_is_walked_modulo_two_power_plus_one(self, monkeypatch):
        # 9 does not divide m, as 2203 = 1 (mod 6), and the other primes of m
        # are above 4406, so u and d miss them
        m = (1 << 2203) + 1
        rng = random.Random(2205)
        u = rng.getrandbits(2200)
        while gcd(u, m) != 1:
            u += 1
        a, b = 3 * u, rng.getrandbits(2203)
        assert gcd(2 * a - b, m // 3) == 1
        for low in (0, 1):
            n = rng.getrandbits(2200) | (1 << 2199)
            n = n - (n & 1) + low
            assert self._walked(monkeypatch, a, b, n, m) == [3]

    def test_the_prime_power_is_walked_and_the_mersenne_factor_chained(self, monkeypatch):
        m = 3**40 * ((1 << 61) - 1)
        for n in (1000, 1001, 1 << 200, (1 << 200) + 1):
            assert self._walked(monkeypatch, 3, 7, n, m) == [3**40]

    def test_all_of_m_is_walked_when_every_prime_is_shared(self, monkeypatch):
        m = 3**40
        for n in (1000, 1001, 1 << 200, (1 << 200) + 1):
            assert self._walked(monkeypatch, 3, 7, n, m) == [m]


def no_child_left():
    """True when this process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@pytest.fixture
def two_cpus(monkeypatch):
    """The ladder sees two CPUs whatever the host's affinity."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


class TestForkedFactor:
    """The finishing factor from a forked child, above the break-even:
    m = 2**2203 + 1 and n of about 2200 bits, a coprime to m or sharing its
    factor 3, at even and odd n.  Each case gives the matrix power's value
    with the fork taken, with the fork failing, with a child that exits
    non-zero and with one that sends nothing, and leaves no child behind."""

    M = (1 << 2203) + 1

    @pytest.fixture(scope="class")
    def cases(self):
        rng = random.Random(2206)
        out = []
        for shared in (False, True):
            a = rng.getrandbits(2200)
            while gcd(a, self.M) != 1:
                a += 1
            a *= 3 if shared else 1
            b = rng.getrandbits(2203)
            for low in (0, 1):
                n = rng.getrandbits(2200) | (1 << 2199)
                n = n - (n & 1) + low
                if low:
                    assert gcd(2 * a - b, self.M // 3) == 1
                out.append((a, b, n, psi_matrix_mod(a, b, n, self.M)))
        return out

    def _run(self, monkeypatch, cases, fork, child_factor=None):
        """The ladder over every case with ``fork`` as os.fork and, in a child,
        ``child_factor`` as the finishing factor; the factors the parent
        computed itself."""
        parent, made_here = os.getpid(), []
        real = psicore._finishing_factor

        def factor(a, d, n, m):
            if os.getpid() != parent:
                return (child_factor or real)(a, d, n, m)
            made_here.append(n)
            return real(a, d, n, m)

        monkeypatch.setattr(psicore, "_finishing_factor", factor)
        monkeypatch.setattr(os, "fork", fork)
        for a, b, n, expected in cases:
            assert psi_mod_ladder(a, b, n, self.M) == expected
            assert no_child_left()
        return made_here

    def test_the_child_computes_the_factor(self, monkeypatch, two_cpus, cases):
        forks, real_fork = [], os.fork

        def counted():
            forks.append(1)
            return real_fork()

        assert self._run(monkeypatch, cases, counted) == []
        assert len(forks) == len(cases)

    def test_a_failed_fork_computes_the_factor_here(self, monkeypatch, two_cpus, cases):
        def refused():
            raise OSError("fork refused")

        made_here = self._run(monkeypatch, cases, refused)
        assert made_here == [n for _, _, n, _ in cases]

    def test_a_child_that_fails_or_sends_nothing_is_replaced_here(
        self, monkeypatch, two_cpus, cases
    ):
        real_exit = os._exit

        def fails(a, d, n, m):
            raise ArithmeticError("the child fails")

        def sends_nothing(a, d, n, m):
            real_exit(0)

        def sends_a_wrong_factor_then_exits_3(a, d, n, m):
            # the child's own os module: the child never returns to the test
            os._exit = lambda status: real_exit(3)
            return 1

        for child_factor in (fails, sends_nothing, sends_a_wrong_factor_then_exits_3):
            made_here = self._run(monkeypatch, cases, os.fork, child_factor)
            assert made_here == [n for _, _, n, _ in cases]

    def test_the_child_is_reaped_when_the_walk_raises(self, monkeypatch, two_cpus, cases):
        real_walk = psicore._lucas_walk

        def breaks_halfway(k, t, reduce):
            real_walk(k >> (k.bit_length() // 2), t, reduce)
            raise RuntimeError("the walk breaks")

        monkeypatch.setattr(psicore, "_lucas_walk", breaks_halfway)
        for a, b, n, _ in cases:
            with pytest.raises(RuntimeError, match="the walk breaks"):
                psi_mod_ladder(a, b, n, self.M)
            assert no_child_left()


class TestBarrettChain:
    """The chain above ``BARRETT_BREAK_EVEN`` bits, which reduces by
    ``BarrettMod``, against the matrix power: odd and even n of 700 bits, on
    a random odd modulus just above the break-even, on 2**2203 - 3, and on
    2**2203 + 1 with an a that shares its factor 3, forked and serial."""

    @pytest.fixture(scope="class")
    def cases(self):
        rng = random.Random(2104)
        out = []
        bits = BARRETT_BREAK_EVEN + 1
        for m, shared in (
            (rng.getrandbits(bits) | 1 << (bits - 1) | 1, False),
            ((1 << 2203) - 3, False),
            ((1 << 2203) + 1, True),
        ):
            a = rng.randrange(m)
            while gcd(a, m) != 1:
                a += 1
            a *= 3 if shared else 1
            b = rng.randrange(m)
            while gcd(2 * a - b, m) != 1:
                b += 1
            # 9 does not divide 2**2203 + 1, so the chain gets all of m but 3
            chain_m = m // 3 if shared else m
            for low in (0, 1):
                n = rng.getrandbits(700) | 1 << 699
                n = n - (n & 1) + low
                out.append((a, b, n, m, chain_m, psi_matrix_mod(a, b, n, m)))
        return out

    @pytest.fixture
    def chained(self, monkeypatch):
        """The moduli the chain builds a ``BarrettMod`` for."""
        made = []

        class Spy(BarrettMod):
            __slots__ = ()

            def __init__(self, m):
                made.append(m)
                super().__init__(m)

        monkeypatch.setattr(psicore, "BarrettMod", Spy)
        return made

    def _run(self, cases, chained):
        for a, b, n, m, chain_m, expected in cases:
            assert psi_mod_ladder(a, b, n, m) == expected
            assert chained == [chain_m]
            chained.clear()
            assert no_child_left()

    def test_forked(self, monkeypatch, two_cpus, cases, chained):
        forks, real_fork = [], os.fork

        def counted():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counted)
        self._run(cases, chained)
        assert len(forks) == len(cases)

    def test_serial(self, monkeypatch, cases, chained):
        monkeypatch.setattr(psicore, "_fork_pays", lambda a, n, m: False)
        monkeypatch.setattr(os, "fork", must_not_fork)
        self._run(cases, chained)

    def test_which_reduction_the_chain_picks(self):
        # fold-and-add on 2**p - 1 at any size, Barrett on any other modulus
        # above the break-even, % at or below it
        for p in (127, BARRETT_BREAK_EVEN, 9689):
            reduce = _chain_reduction((1 << p) - 1)
            assert reduce.__self__ == MersenneMod(p)
        for m in ((1 << BARRETT_BREAK_EVEN) + 1, (1 << 2203) - 3, 1 << 4253):
            reduce = _chain_reduction(m)
            assert type(reduce.__self__) is BarrettMod and reduce.__self__.modulus == m
        for m in ((1 << BARRETT_BREAK_EVEN) - 3, (1 << (BARRETT_BREAK_EVEN - 1)) + 1, 101):
            assert _chain_reduction(m) == m.__rmod__


class TestChainFromTheTopResidue:
    """The chain starts from t = -b/a mod m in [0, m), so where t is -c for a
    small c its V_1 is m - c: b = c for a = 1 and b = c*a for a generic a,
    c = 1..5, against the matrix power.  On 2**127 - 1 (fold-and-add),
    2**2103 - 3 (``%``) and 2**2203 - 3 (Barrett), at odd and even n from 1
    to 400 bits, forked and serial."""

    @pytest.fixture(scope="class")
    def cases(self):
        rng = random.Random(127)
        out = []
        for m in ((1 << 127) - 1, (1 << BARRETT_BREAK_EVEN) - 3, (1 << 2203) - 3):
            generic = rng.randrange(2, m)
            while gcd(generic, m) != 1:
                generic += 1
            big = rng.getrandbits(400) | 1 << 399
            for a, c, n in product((1, generic), range(1, 6), (1, 2, 3, big - (big & 1), big | 1)):
                out.append((a, c * a % m, n, m, psi_matrix_mod(a, c * a, n, m)))
        return out

    def _run(self, cases):
        for a, b, n, m, expected in cases:
            assert psi_mod_ladder(a, b, n, m) == expected, (a, b, n, m)
            assert no_child_left()

    def test_forked(self, monkeypatch, two_cpus, cases):
        forks, real_fork = [], os.fork

        def counted():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counted)
        self._run(cases)
        assert forks

    def test_serial(self, monkeypatch, cases):
        monkeypatch.setattr(psicore, "_fork_pays", lambda a, n, m: False)
        monkeypatch.setattr(os, "fork", must_not_fork)
        self._run(cases)


@pytest.mark.skipif(
    sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2,
    reason="the child's PR_SET_PDEATHSIG is Linux's, and the ladder forks only on two CPUs",
)
def test_a_killed_ladder_leaves_no_child_running():
    # a 14,000-bit index and modulus, below the ladder's work ceiling: the
    # forked child's power runs for seconds after its parent is SIGKILLed
    assert 14_001 * 14_001**2 <= LIMITS["psi ladder work"].ceiling
    argv = ["psi", "ladder", "--a", "3", "--b", "1", "--n", "2^14000+1", "--mod", "2^14000+1"]
    env = dict(os.environ, PYTHONPATH=str(Path(psicore.__file__).parent.parent))
    proc = subprocess.Popen([sys.executable, "-m", "psikit.cli", *argv], env=env,
                            stdout=subprocess.DEVNULL, start_new_session=True)
    pgid = proc.pid
    try:
        time.sleep(0.5)
        children = Path(f"/proc/{pgid}/task/{pgid}/children")
        if children.exists():  # on a slow start, wait for the fork
            deadline = time.monotonic() + 5
            while not children.read_text().split() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert children.read_text().split(), "the ladder did not fork"
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 2
        while True:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "the ladder's child outlived it"
            time.sleep(0.05)
    finally:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def must_not_fork():
    pytest.fail("os.fork was called")


class TestNeverForks:
    """The routes that must run serially, with os.fork patched to fail the
    test: every Mersenne route has a = 1, and so does ladder-generic's last
    shape; a small ladder is below the break-even; a second thread or a
    single CPU rules the child out."""

    @pytest.fixture(autouse=True)
    def no_fork(self, monkeypatch, two_cpus):
        monkeypatch.setattr(os, "fork", must_not_fork)
        yield
        assert no_child_left()

    def test_mersenne_routes(self):
        from psikit import mersenne

        assert mersenne.psi_test(4423).verdict == "prime"
        assert mersenne.mu_pattern_test(2203, 4).verdict == "condition-holds"
        assert mersenne.composite_criterion(2203).verdict == "inconclusive"

    def test_mersenne_scan_and_repro_all(self, tmp_path, capsys):
        from psikit.cli import main

        assert main(["mersenne", "scan", "--pmin", "2200", "--pmax", "2300"]) == 0
        assert main(["repro", "all", "--outdir", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_a_is_one_on_a_3500_bit_modulus_at_odd_n(self):
        rng = random.Random(3500)
        m = rng.getrandbits(3500) | (1 << 3499) | 1
        n = rng.getrandbits(3500) | (1 << 3499) | 1
        b = rng.getrandbits(3500)
        assert psi_mod_ladder(1, b, n, m) == psi_matrix_mod(1, b, n, m)

    def test_a_is_minus_one_and_below_the_break_even(self):
        m = (1 << 2203) + 1
        assert psi_mod_ladder(m - 1, 5, (1 << 2200) + 1, m) == psi_matrix_mod(
            -1, 5, (1 << 2200) + 1, m
        )
        m = (1 << 521) - 3
        assert psi_mod_ladder(7, 5, (1 << 520) + 1, m) == psi_matrix_mod(7, 5, (1 << 520) + 1, m)

    def test_one_cpu_or_a_second_thread(self, monkeypatch):
        m, n = (1 << 2203) + 1, (1 << 2200) + 1
        expected = psi_matrix_mod(7, 5, n, m)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert psi_mod_ladder(7, 5, n, m) == expected
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            assert psi_mod_ladder(7, 5, n, m) == expected
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()


class TestExtendedAndProduct:
    def test_extension_examples(self):
        # psi(a, b, -n) := psi(a, b, n)
        assert psi_recurrence(1, 4, abs(-2)) == -4
        assert psi_recurrence(A, B, abs(0)) == 2
        assert psi_recurrence(-1, -3, abs(-7)) == 29  # L(7)

    def test_product_symbolic(self):
        assert psi_product_identity_check(A, B, 3, 2)
        for n, m in product(range(9), repeat=2):
            assert psi_product_identity_check(A, B, n, m)

    def test_product_documented_point(self):
        # (2a-b)^1 * psi(5)^2 == psi(10) + psi(0) at (1, 4)
        seq = psi_sequence(1, 4, 10)
        assert seq[5] == 19 and seq[10] == -724
        assert (-2) * 19 * 19 == -724 + 2
        assert psi_product_identity_check(1, 4, 5, 5)

    def test_product_trivial_m_zero(self):
        assert psi_product_identity_check(A, B, 6, 0)

    def test_product_random(self):
        rng = random.Random(31)
        for _ in range(300):
            a = rng.randint(-20, 20)
            b = rng.randint(-20, 20)
            n = rng.randint(0, 40)
            m = rng.randint(0, 40)
            assert psi_product_identity_check(a, b, n, m)

    def test_doubling_consequence_of_closed_form(self):
        # psi(2n) == (2a-b)^parity(n) * psi(n)^2 - 2*a^n, the testable
        # consequence of the radical closed form
        rng = random.Random(37)
        for _ in range(60):
            a = rng.randint(-9, 9)
            b = rng.randint(-9, 9)
            if b * b == 4 * a * a:
                continue
            seq = psi_sequence(a, b, 200)
            for n in range(101):
                assert seq[2 * n] == (2 * a - b) ** parity(n) * seq[n] ** 2 - 2 * a**n

    def test_exponent_identity(self):
        for n in range(1001):
            hn, pn = half(n), parity(n)
            for m in range(1001):
                assert hn + half(m) - half(n + m) + pn * parity(m) == 0

    def test_lambda_homogeneity(self):
        rng = random.Random(41)
        for _ in range(80):
            lam = rng.randint(-6, 6)
            a = rng.randint(-9, 9)
            b = rng.randint(-9, 9)
            n = rng.randint(0, 60)
            assert lam ** half(n) * psi_recurrence(a, b, n) == psi_recurrence(
                lam * a, lam * b, n
            )


def _bits(value) -> int:
    value = Fraction(value)
    return max(value.numerator.bit_length(), value.denominator.bit_length())


@st.composite
def bound_cases(draw):
    """Integer or rational (a, b), including d = 2a - b = 0, a = 0, b = 0,
    b**2 = 4a**2 and both signs of the discriminant b**2 - 4a**2."""
    a = draw(st.integers(-200, 200))
    b = draw(st.one_of(st.integers(-400, 400), st.sampled_from([2 * a, -2 * a, 0])))
    if draw(st.booleans()):
        a = Fraction(a, draw(st.integers(1, 12)))
        b = Fraction(b, draw(st.integers(1, 12)))
    return a, b, draw(st.integers(0, 160))


class TestBitBound:
    @settings(derandomize=True, database=None, deadline=None, max_examples=500)
    @given(bound_cases())
    def test_bound_holds_hypothesis(self, case):
        a, b, n = case
        assert _bits(psi_recurrence(a, b, n)) <= psi_bit_bound(a, b, n)

    def test_bound_is_tight_on_growing_sequences(self):
        # the growth rate is exact for complex roots and within a few percent
        # for psi(1, 4, .), so printable values are not refused
        for a, b, n in ((3, 1, 9000), (1, 4, 4096), (-1, -3, 1000)):
            actual = psi_recurrence(a, b, n).bit_length()
            assert actual <= psi_bit_bound(a, b, n) <= actual + actual // 5 + 64

    def test_degenerate_d_zero_stays_small(self):
        # d = 2a - b = 0 leaves one term: psi(1, 2, n) is +-2 or +-n, and the
        # bound grows by at most n / 128 bits, the slack of the log2 estimate
        assert psi_bit_bound(1, 2, 100_000) <= 100_000 // 128 + 64
