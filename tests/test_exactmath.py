import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psikit.errors import CapacityError
from psikit.exactmath import (
    GOLDEN_RATIO,
    BarrettMod,
    MersenneMod,
    QuadExt,
    RadicandMismatchError,
    SQRT2,
    SQRT3,
    SQRT5,
    _is_square_free,
    decimal_text,
)
from psikit.psicore import BARRETT_BREAK_EVEN

from oracles import FractionQuadExt, is_square_free_by_trial


class TestMersenneReduce:
    def test_zero(self):
        assert MersenneMod(5).reduce(0) == 0

    def test_modulus_itself(self):
        assert MersenneMod(5).reduce(31) == 0

    def test_known_multiple(self):
        # 37634 = 31 * 1214, checked by long division
        assert divmod(37634, 31) == (1214, 0)
        assert MersenneMod(5).reduce(37634) == 0

    def test_negative_inputs(self):
        m = MersenneMod(5)
        assert m.reduce(-4) == 27
        assert m.reduce(-31) == 0
        assert m.reduce(-(1 << 100) - 7) == (-(1 << 100) - 7) % 31

    def test_random_against_generic_remainder(self):
        rng = random.Random(20240811)
        mods = {p: MersenneMod(p) for p in (5, 7, 13, 17, 31)}
        for _ in range(10_000):
            p = rng.choice((5, 7, 13, 17, 31))
            x = rng.randint(-(1 << 200), 1 << 200)
            assert mods[p].reduce(x) == x % ((1 << p) - 1)

    @settings(derandomize=True, database=None, max_examples=300)
    @given(p=st.integers(2, 130), x=st.integers(-(1 << 400), -1))
    def test_negative_against_generic_remainder_hypothesis(self, p, x):
        assert MersenneMod(p).reduce(x) == x % ((1 << p) - 1)

    @settings(derandomize=True, database=None, max_examples=300)
    @given(p=st.integers(2, 130), k=st.integers(-(1 << 300), 1 << 300))
    def test_multiples_of_modulus_hypothesis(self, p, k):
        assert MersenneMod(p).reduce(k * ((1 << p) - 1)) == 0

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            MersenneMod(1)


class TestBarrettReduce:
    """Folded Barrett reduction against ``%`` on moduli of every size from 2
    to 64 bits, where the fold points degenerate and a fold is left out, and
    at BARRETT_BREAK_EVEN - 2, BARRETT_BREAK_EVEN and BARRETT_BREAK_EVEN + 1
    bits, across the chain's break-even of ``psicore.BARRETT_BREAK_EVEN`` bits,
    up to the ladder's largest: random odd and even moduli, 2**k + 1 and
    2**k - 3."""

    @staticmethod
    def moduli():
        rng = random.Random(14284)
        for bits in (*range(2, 65), BARRETT_BREAK_EVEN - 2, BARRETT_BREAK_EVEN,
                     BARRETT_BREAK_EVEN + 1, 2203, 4253, 14284):
            top = 1 << (bits - 1)
            yield rng.getrandbits(bits) | top | 1
            yield (rng.getrandbits(bits) | top) & ~1
            yield top + 1
            if bits > 2:
                yield 2 * top - 3

    def test_edges_and_seeded_values(self):
        rng = random.Random(2101)
        for m in self.moduli():
            k = m.bit_length()
            reduce = BarrettMod(m).reduce
            xs = [0, 1, m - 1, m, m + 1, 2 * m, (m - 1) ** 2, m * m - 1, m * m,
                  (1 << 2 * k) - 1, 1 << 2 * k, (1 << 2 * k + 3) - 1, -1, -m, -(m - 1) ** 2]
            xs += [rng.randrange(m) * rng.randrange(m) for _ in range(20)]
            xs += [rng.getrandbits(2 * k + 3) for _ in range(10)]
            xs += [-rng.getrandbits(2 * k) for _ in range(10)]
            for x in xs:
                assert reduce(x) == x % m, (k, x)

    def test_the_estimate_falls_short_by_at_most_two(self):
        # the documented bounds below 4**k: each fold at h keeps x mod m and
        # leaves it below 2**(h + 1), two folds from k = 5 bits on; the
        # quotient estimate of what remains, y < 2**(k + j), falls short by at
        # most two, which caps the subtractions after it at two
        rng = random.Random(2102)
        for m in self.moduli():
            barrett = BarrettMod(m)
            k = m.bit_length()
            assert len(barrett._folds) == (2 if k >= 5 else 1 if k == 4 else 0)
            for x in [(m - 1) ** 2, (1 << 2 * k) - 1] + [rng.getrandbits(2 * k) for _ in range(50)]:
                y = x
                for h, mask, c in barrett._folds:
                    y = (y >> h) * c + (y & mask)
                    assert y < 1 << (h + 1) and y % m == x % m, (k, x, h)
                j = barrett._shift - 1
                assert y < 1 << (k + j) and barrett._mu == (1 << (k + j)) // m, (k, x)
                q = (y >> (k - 1)) * barrett._mu >> (j + 1)
                assert 0 <= y // m - q <= 2, (k, x)

    @settings(derandomize=True, database=None, max_examples=300)
    @given(m=st.integers(2, 1 << 300), x=st.integers(-(1 << 700), 1 << 700))
    def test_any_modulus_against_generic_remainder_hypothesis(self, m, x):
        assert BarrettMod(m).reduce(x) == x % m

    @settings(derandomize=True, database=None, max_examples=300)
    @given(data=st.data(), k=st.integers(2, 2300))
    def test_the_folded_branch_against_generic_remainder_hypothesis(self, data, k):
        # every draw is in [0, 4**k), so it takes the folds and the estimate,
        # not the ``%`` branch
        m = data.draw(st.integers(1 << (k - 1), (1 << k) - 1))
        x = data.draw(st.integers(0, (1 << 2 * k) - 1))
        assert BarrettMod(m).reduce(x) == x % m

    def test_modulus_validation(self):
        for m in (1, 0, -7, 7.0):
            with pytest.raises(ValueError):
                BarrettMod(m)


def _rand_quad(rng, d):
    return QuadExt(
        d,
        Fraction(rng.randint(-30, 30), rng.randint(1, 9)),
        Fraction(rng.randint(-30, 30), rng.randint(1, 9)),
    )


class TestQuadExt:
    def test_norm_of_one_plus_sqrt2(self):
        assert QuadExt(2, 1, 1) * QuadExt(2, 1, -1) == -1

    def test_golden_ratio_defining_identity(self):
        assert GOLDEN_RATIO * GOLDEN_RATIO == GOLDEN_RATIO + 1

    def test_absorbing_zero(self):
        assert QuadExt(3, 0, 0) * QuadExt(3, 7, 2) == 0

    def test_radicand_mismatch(self):
        with pytest.raises(RadicandMismatchError):
            QuadExt(2, 1, 1) * QuadExt(3, 1, 1)

    def test_rational_elements_cross_rings(self):
        # a purely rational element may combine with any extension
        assert QuadExt(2, 5, 0) * SQRT3 == QuadExt(3, 0, 5)

    def test_square_free_validation(self):
        for bad in (4, 8, 9, 12, -2, 1):
            with pytest.raises(ValueError):
                QuadExt(bad, 1, 0)

    def test_inverse(self):
        x = QuadExt(5, 3, 1)
        assert x * x.inverse() == 1
        with pytest.raises(ZeroDivisionError):
            QuadExt(5, 0, 0).inverse()

    def test_pow_matches_repeated_multiplication(self):
        x = 1 + SQRT2
        acc = QuadExt(2, 1, 0)
        for k in range(8):
            assert x**k == acc
            acc = acc * x

    def test_ring_axioms_bulk(self):
        rng = random.Random(7)
        for _ in range(1000):
            d = rng.choice((2, 3, 5))
            x, y, z = (_rand_quad(rng, d) for _ in range(3))
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z

    @settings(derandomize=True, database=None, max_examples=200)
    @given(
        u1=st.integers(-50, 50), v1=st.integers(-50, 50),
        u2=st.integers(-50, 50), v2=st.integers(-50, 50),
        u3=st.integers(-50, 50), v3=st.integers(-50, 50),
    )
    def test_distributivity_hypothesis(self, u1, v1, u2, v2, u3, v3):
        x, y, z = QuadExt(2, u1, v1), QuadExt(2, u2, v2), QuadExt(2, u3, v3)
        assert x * (y + z) == x * y + x * z

    def test_constants(self):
        assert SQRT2 * SQRT2 == 2
        assert SQRT3 * SQRT3 == 3
        assert SQRT5 * SQRT5 == 5
        assert 2 * GOLDEN_RATIO - 1 == SQRT5


def _rand_part(rng):
    """A zero, an int or a Fraction with denominator up to 9."""
    return rng.choice(
        (0, rng.randint(-9, 9), Fraction(rng.randint(-30, 30), rng.randint(1, 9)))
    )


def _assert_same(got, want):
    """``got`` (a QuadExt) and the oracle's ``want`` are one element, and
    print and hash alike."""
    assert type(got) is QuadExt
    assert (got.d, got.u, got.v) == (want.d, want.u, want.v)
    assert type(got.u) is Fraction and type(got.v) is Fraction
    assert (str(got), repr(got), hash(got)) == (str(want), repr(want), hash(want))


class TestSquareFree:
    def test_against_the_trial_division_oracle(self):
        for d in range(-3, 5000):
            assert _is_square_free(d) == is_square_free_by_trial(d), d
        rng = random.Random(20)
        for _ in range(200):
            d = rng.randrange(1, 10**9)
            assert _is_square_free(d) == is_square_free_by_trial(d), d

    def test_cofactors_past_the_cube_root(self):
        # what trial division to the cube root leaves: 1, p, pq or p^2
        p, q = 1_000_003, 999_983
        for d, want in [
            (p, True), (p * q, True), (p * p, False), (2 * p * q, True),
            (6 * p * p, False), (4 * p, False), (9 * p * q, False),
            (2**61 - 1, True), (2**64 - 1, True),
        ]:
            assert _is_square_free(d) is want, d

    def test_radicand_cap(self):
        for d in (2**64, 2**64 + 1, 4**40):
            with pytest.raises(CapacityError):
                _is_square_free(d)
            with pytest.raises(CapacityError):
                QuadExt(d, 1, 1)
        assert QuadExt(2**61 - 1, 1, 1).d == 2**61 - 1


class TestQuadExtAgainstOracle:
    """Seeded comparisons with the Fraction-based oracle over Q(sqrt 2),
    Q(sqrt 3) and Q(sqrt 5)."""

    def pairs(self, seed, count=1500):
        rng = random.Random(seed)
        for _ in range(count):
            d = rng.choice((2, 3, 5))
            parts = [(_rand_part(rng), _rand_part(rng)) for _ in range(2)]
            yield (
                rng,
                [QuadExt(d, u, v) for u, v in parts],
                [FractionQuadExt(d, u, v) for u, v in parts],
                _rand_part(rng),
            )

    def test_ring_operations(self):
        for _, (x, y), (ox, oy), s in self.pairs(1901):
            _assert_same(-x, -ox)
            _assert_same(x + y, ox + oy)
            _assert_same(x - y, ox - oy)
            _assert_same(x * y, ox * oy)
            _assert_same(x + s, ox + s)
            _assert_same(s + x, s + ox)
            _assert_same(x - s, ox - s)
            _assert_same(s - x, s - ox)
            _assert_same(x * s, ox * s)
            _assert_same(s * x, s * ox)

    def test_norm_inverse_division_and_powers(self):
        for rng, (x, y), (ox, oy), s in self.pairs(1902):
            norm = x.norm()
            assert type(norm) is Fraction and norm == ox.norm()
            if oy.norm():
                _assert_same(y.inverse(), oy.inverse())
                _assert_same(x / y, ox / oy)
                _assert_same(s / y, s / oy)
            else:
                for divide in (y.inverse, lambda: x / y, lambda: s / y, lambda: y**-1):
                    with pytest.raises(ZeroDivisionError):
                        divide()
            if s:
                _assert_same(x / s, ox / s)
            e = rng.randint(-4, 6)
            if e >= 0 or ox.norm():
                _assert_same(x**e, ox**e)

    def test_equality_and_hash(self):
        for rng, (x, y), (ox, oy), s in self.pairs(1903):
            assert (x == y) == (ox == oy) and (x != y) == (ox != oy)
            assert (x == s) == (ox == s) and (s == x) == (s == ox)
            # the same element reached through other parts
            k = rng.randint(2, 5)
            for same in ((x + y) - y, (x * k) / k, x * (1 + SQRT5 - SQRT5)):
                assert same == x and hash(same) == hash(x)
            # a rational element equals its value, in any ring, with its hash
            r = QuadExt(rng.choice((2, 3, 5)), s, 0)
            assert r == s and hash(r) == hash(s) == hash(FractionQuadExt(r.d, s, 0))
            assert r == QuadExt(7, s, 0)
            assert (r == x) == (FractionQuadExt(r.d, s) == ox)

    def test_rational_elements_cross_rings(self):
        for _, (x, _), (ox, _), s in self.pairs(1904, 300):
            other = 2 if x.d != 2 else 3
            r, orr = QuadExt(other, s, 0), FractionQuadExt(other, s, 0)
            for op in ("__add__", "__sub__", "__mul__"):
                _assert_same(getattr(r, op)(x), getattr(orr, op)(ox))
                _assert_same(getattr(x, op)(r), getattr(ox, op)(orr))

    def test_constants_match_the_oracle(self):
        half = Fraction(1, 2)
        _assert_same(GOLDEN_RATIO, FractionQuadExt(5, half, half))
        for const, d in ((SQRT2, 2), (SQRT3, 3), (SQRT5, 5)):
            _assert_same(const, FractionQuadExt(d, 0, 1))

    def test_period_texts(self):
        assert str(1 - GOLDEN_RATIO) == "1/2 - 1/2*sqrt(5)"
        assert str(GOLDEN_RATIO - 1) == "-1/2 + 1/2*sqrt(5)"
        assert str(-1 - SQRT2) == "-1 - sqrt(2)"
        assert str(-SQRT3) == "-sqrt(3)"
        assert str(QuadExt(3, 0, Fraction(-2, 3))) == "-2/3*sqrt(3)"

    def test_mixed_radicands_refused(self):
        x, y = QuadExt(2, 1, 1), QuadExt(3, Fraction(1, 2), 1)
        ox, oy = FractionQuadExt(2, 1, 1), FractionQuadExt(3, Fraction(1, 2), 1)
        for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
            for a, b in ((x, y), (y, x), (ox, oy), (oy, ox)):
                with pytest.raises(RadicandMismatchError):
                    getattr(a, op)(b)
        assert (x == y) is (ox == oy) is False


class TestQuadExtParts:
    @pytest.mark.parametrize("part", [0.1, 0.5, "3/4", "1", Decimal("0.5"), None, 1j])
    def test_constructor_refuses_parts_not_int_or_fraction(self, part):
        for args in ((part,), (1, part), (part, 0)):
            with pytest.raises(TypeError):
                QuadExt(2, *args)

    def test_int_and_fraction_parts(self):
        x = QuadExt(2, True, Fraction(6, 4))
        assert (x.u, x.v) == (1, Fraction(3, 2))
        assert repr(x) == "QuadExt(2, Fraction(1, 1), Fraction(3, 2))"

    def test_float_operands_refused(self):
        for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
            assert getattr(SQRT2, op)(0.5) is NotImplemented
        with pytest.raises(TypeError):
            SQRT2 * 0.5
        with pytest.raises(TypeError):
            0.5 + SQRT2
        assert SQRT2.__eq__(0.5) is NotImplemented and SQRT2 != 1.5


class TestRationalCanonicalForm:
    def test_reduction_after_ops(self):
        rng = random.Random(11)
        for _ in range(1000):
            x = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
            y = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
            for z in (x + y, x - y, x * y):
                assert z.denominator > 0
                from math import gcd

                assert gcd(z.numerator, z.denominator) == 1

    def test_integral_iff_denominator_one(self):
        assert Fraction(6, 3).denominator == 1
        assert Fraction(6, 4).denominator == 2


def _decimal_cases():
    """Seeded integers up to 2**20 bits: 0, 10**k - 1 and 10**k around the
    least and the default int-to-str limits, values of each bit length on
    both sides of each split width, 512 * 2**d bits up to 2**16, str()'s
    threshold 2**15 among them, then random sizes."""
    rng = random.Random(36)
    values = [0, 1, 9, 10]
    for k in (19, 154, 640, 641, 4300, 4301, 9864, 9865):
        values += [10**k - 1, 10**k]
    for width in (512 << d for d in range(8)):
        for bits in (width - 1, width, width + 1):
            values += [(1 << bits) - 1, rng.getrandbits(bits) | 1 << (bits - 1)]
    values += [rng.getrandbits(int(2 ** rng.uniform(1, 19))) for _ in range(60)]
    return values + [rng.getrandbits(1 << 20) | 1 << ((1 << 20) - 1)]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str limit to lift for the str() oracle")
def test_decimal_text_is_str_at_any_limit():
    """decimal_text of x and -x at the least, the default and no int-to-str
    limit against str() with the limit lifted."""
    limit = sys.get_int_max_str_digits()
    try:
        for x in _decimal_cases():
            sys.set_int_max_str_digits(0)
            want = str(x)
            for least in (640, 4300, 0):
                sys.set_int_max_str_digits(least)
                assert decimal_text(x) == want, (x.bit_length(), least)
                assert decimal_text(-x) == ("-" + want if x else want), (x.bit_length(), least)
    finally:
        sys.set_int_max_str_digits(limit)
