import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psikit.multipoly import (
    DegreeCapExceeded,
    MAX_DEGREE,
    SparsePoly,
    as_poly,
    form_at,
    variables,
)

from oracles import (
    ExactDivisionError,
    TuplePoly,
    coefficient,
    eval_scalar,
    exact_div,
    form_by_powers,
    reduce_square,
    subst_by_terms,
)

X, Y = variables("x y")
A, B = variables("a b")


def _random_poly(rng, names=("x", "y", "z"), max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in names)
        terms[exps] = rng.randint(-9, 9)
    return SparsePoly(names, terms)


class TestCanonicalForm:
    def test_zero_coefficients_never_stored(self):
        p = X - X
        assert p.is_zero and p.terms == {} and p.vars == ()

    def test_unused_variables_pruned(self):
        p = SparsePoly(("x", "y"), {(2, 0): 1})
        assert p.vars == ("x",)
        assert p == X**2

    def test_structural_equality_is_mathematical(self):
        assert (X + Y) * (X - Y) == X**2 - Y**2
        assert X * Y == Y * X

    def test_canonical_text(self):
        assert str(-2 * A**2 + B**2) == "-2*a^2 + b^2"
        assert str(SparsePoly.zero()) == "0"
        assert str(SparsePoly.constant(3) * A) == "3*a"
        assert str(A**3 + 2 * A**2 * B - A * B**2 - B**3) == "a^3 + 2*a^2*b - a*b^2 - b^3"

    def test_graded_lex_term_order(self):
        assert str(X + X**2 * Y + 1) == "x^2*y + x + 1"

    def test_binary_form(self):
        rng = random.Random(53)
        for _ in range(200):
            m = rng.randint(0, 12)
            coeffs = [rng.choice([0, 0, 1, -1, rng.randint(-99, 99)]) for _ in range(m + 1)]
            for x, y in (("x", "y"), ("y", "x"), ("b", "alpha")):
                p = SparsePoly.binary_form(coeffs, x, y)
                _assert_canonical(p)
                assert p == SparsePoly((x, y), {(j, m - j): c for j, c in enumerate(coeffs)})
        assert SparsePoly.binary_form([3], "x", "y") == 3
        assert SparsePoly.binary_form([0, 0, 5], "x", "y") == 5 * X**2
        assert str(SparsePoly.binary_form([1] + [0] * MAX_DEGREE, "x", "y")) == f"y^{MAX_DEGREE}"
        with pytest.raises(DegreeCapExceeded):
            SparsePoly.binary_form([1] * (MAX_DEGREE + 2), "x", "y")
        with pytest.raises(ValueError):
            SparsePoly.binary_form([1, 2], "x", "x")
        with pytest.raises(TypeError):
            SparsePoly.binary_form([Fraction(1, 2)], "x", "y")


class TestArithmeticExamples:
    def test_difference_of_squares(self):
        assert (X + Y) * (X - Y) == X**2 - Y**2

    def test_doubled_square_identity(self):
        # x^4 + y^4 + (x+y)^4 == 2 * (x^2 + xy + y^2)^2
        q = X**2 + X * Y + Y**2
        assert 2 * q * q == X**4 + Y**4 + (X + Y) ** 4

    def test_multiplicative_identity(self):
        f = 3 * X**2 - Y + 7
        assert f * SparsePoly.constant(1) == f

    def test_scalar_coercion(self):
        assert (X + 1) * 2 == 2 * X + 2

    def test_fraction_scalars_are_refused(self):
        # the coefficients are integers: a Fraction, even an integral one,
        # is refused wherever it would enter a polynomial
        for value in (Fraction(1, 2), Fraction(6, 3)):
            with pytest.raises(TypeError):
                value * (2 * X)
            with pytest.raises(TypeError):
                (2 * X) * value
            with pytest.raises(TypeError):
                X + value
            with pytest.raises(TypeError):
                X.subst({"x": value})
            with pytest.raises(TypeError):
                SparsePoly.constant(value)
            with pytest.raises(TypeError):
                SparsePoly(("x",), {(1,): value})
            assert X != value


class TestDiff:
    def test_power_rule_on_quartic_row(self):
        assert (-2 * A**2 + B**2).diff("a") == -4 * A

    def test_power_rule_on_sextic_row(self):
        assert (3 * A**2 * B - B**3).diff("b") == 3 * A**2 - 3 * B**2

    def test_constant_derivative(self):
        assert SparsePoly.constant(5).diff("x").is_zero

    def test_leibniz_rule_random(self):
        rng = random.Random(5)
        for _ in range(300):
            f = _random_poly(rng)
            g = _random_poly(rng)
            lhs = (f * g).diff("x")
            rhs = f.diff("x") * g + f * g.diff("x")
            assert lhs == rhs


class TestSubst:
    def test_full_binding(self):
        assert (A + B).subst({"a": 1, "b": 4}) == 5

    def test_power_sum_image(self):
        # -2*(xy)^2 + (x^2+y^2)^2 == x^4 + y^4
        image = (-2 * A**2 + B**2).subst({"a": X * Y, "b": -(X**2 + Y**2)})
        assert image == X**4 + Y**4

    def test_empty_binding_is_identity(self):
        f = A**2 - 3 * B
        assert f.subst({}) == f
        assert f.subst({"zz": 9}) == f

    def test_homomorphism_random(self):
        rng = random.Random(9)
        for _ in range(200):
            f = _random_poly(rng)
            g = _random_poly(rng)
            bind = {"x": _random_poly(rng, ("u",), 2, 2), "y": rng.randint(-4, 4)}
            assert (f + g).subst(bind) == f.subst(bind) + g.subst(bind)
            assert (f * g).subst(bind) == f.subst(bind) * g.subst(bind)


class TestExactDiv:
    def test_cubic_power_sum(self):
        assert exact_div(X**3 + Y**3, X + Y) == X**2 - X * Y + Y**2

    def test_quintic_power_sum_long_division(self):
        expected = X**4 - X**3 * Y + X**2 * Y**2 - X * Y**3 + Y**4
        assert exact_div(X**5 + Y**5, X + Y) == expected
        # independent check by re-multiplication
        assert expected * (X + Y) == X**5 + Y**5

    def test_division_by_one(self):
        f = X**2 - 3 * Y
        assert exact_div(f, SparsePoly.constant(1)) == f

    def test_inexact_division_raises(self):
        with pytest.raises(ExactDivisionError):
            exact_div(X**2 + Y, X + Y)

    def test_mul_div_roundtrip_random(self):
        rng = random.Random(13)
        for _ in range(300):
            f = _random_poly(rng)
            g = _random_poly(rng)
            if g.is_zero:
                continue
            assert exact_div(f * g, g) == f


class TestRingAxiomsBulk:
    def test_axioms_thousand_cases(self):
        rng = random.Random(17)
        for _ in range(1000):
            f = _random_poly(rng)
            g = _random_poly(rng)
            h = _random_poly(rng)
            assert f + g == g + f
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h


@st.composite
def small_polys(draw):
    n_terms = draw(st.integers(0, 3))
    terms = {}
    for _ in range(n_terms):
        exps = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        terms[exps] = draw(st.integers(-9, 9))
    return SparsePoly(("x", "y"), terms)


@settings(derandomize=True, database=None, max_examples=150)
@given(f=small_polys(), g=small_polys(), h=small_polys())
def test_distributivity_hypothesis(f, g, h):
    assert f * (g + h) == f * g + f * h


@settings(derandomize=True, database=None, max_examples=150)
@given(f=small_polys(), g=small_polys())
def test_diff_is_linear_hypothesis(f, g):
    assert (f + g).diff("x") == f.diff("x") + g.diff("x")


class TestDegreeCap:
    def test_cap_triggers(self):
        assert MAX_DEGREE == 128
        assert (X**64 * Y**64).total_degree() == MAX_DEGREE
        with pytest.raises(DegreeCapExceeded):
            (X + Y) ** 64 * (X + Y) ** 65

    def test_scalar_factor_keeps_the_cap(self):
        high = SparsePoly(("x",), {(129,): 1})
        for scalar in (2, -1, SparsePoly.constant(3)):
            with pytest.raises(DegreeCapExceeded):
                scalar * high
            with pytest.raises(DegreeCapExceeded):
                high * scalar
        assert (2 * X**128).total_degree() == MAX_DEGREE


class Dual:
    """a + b*eps with eps**2 = 0: evaluating at x + eps gives f(x) + f'(x)*eps."""

    def __init__(self, a, b=0):
        self.a, self.b = a, b

    def __add__(self, other):
        if not isinstance(other, Dual):
            other = Dual(other)
        return Dual(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, Dual):
            other = Dual(other)
        return Dual(self.a * other.a, self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = Dual(1)
        for _ in range(k):
            out = out * self
        return out


def _kernel_poly(rng, names=None):
    """A polynomial over ``names`` or a seeded variable universe (possibly
    none, possibly unsorted), with small and wide integer coefficients."""
    names = names or rng.choice([("x", "y", "z"), ("z", "x"), ("y",), ()])
    terms = {}
    for _ in range(rng.randint(0, 4)):
        exps = tuple(rng.randint(0, 3) for _ in names)
        terms[exps] = rng.randint(-9, 9) << rng.choice((0, 0, 70))
    return SparsePoly(names, terms)


def _operands(rng):
    """(f, g), where g often cancels some or all terms of f, so that f + g
    loses terms or a whole variable."""
    f, g = _kernel_poly(rng), _kernel_poly(rng)
    kind = rng.randrange(3)
    if kind == 1:
        g = SparsePoly(("x", "y"), {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)}) - f
    elif kind == 2:
        g = g - SparsePoly(f.vars, {e: c for e, c in f.terms.items() if rng.random() < 0.5})
    return f, g


def _point(rng):
    return {v: Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for v in ("u", "x", "y", "z")}


def _slope(f, var, pt):
    """df/dvar at pt, from f evaluated over dual numbers."""
    value = eval_scalar(f, {v: Dual(x, int(v == var)) for v, x in pt.items()})
    return value.b if isinstance(value, Dual) else 0


def _value(binding, pt):
    return eval_scalar(binding, pt) if isinstance(binding, SparsePoly) else binding


def _assert_canonical(r):
    rebuilt = SparsePoly(r.vars, r.terms)
    assert r == rebuilt and r.vars == rebuilt.vars and hash(r) == hash(rebuilt)
    assert list(r.vars) == sorted(r.vars)
    assert all(len(e) == len(r.vars) for e in r.terms)
    assert all(any(e[i] for e in r.terms) for i in range(len(r.vars))), r.vars
    for c in r.terms.values():
        assert c and type(c) is int, c


class TestKernelProperties:
    """Every result is canonical and agrees with its operands under
    evaluation at seeded rational points (a ring homomorphism)."""

    def test_ring_operations(self):
        rng = random.Random(31)
        for _ in range(400):
            f, g = _operands(rng)
            pt = _point(rng)
            fv, gv = eval_scalar(f, pt), eval_scalar(g, pt)
            s = rng.choice([0, 1, -1, -3, 7, 12, 1 << 70])
            k = rng.randint(0, 3)
            for r, value in [
                (f + g, fv + gv), (f - g, fv - gv), (-f, -fv), (f * g, fv * gv),
                (s * f, s * fv), (f * s, fv * s), (f + s, fv + s),
                (f * SparsePoly.constant(s), fv * s), (f**k, fv**k),
            ]:
                _assert_canonical(r)
                assert eval_scalar(r, pt) == value

    def test_sums_that_drop_a_variable(self):
        rng = random.Random(37)
        dropped = 0
        for _ in range(200):
            f = _kernel_poly(rng)
            h = SparsePoly(("x",), {(rng.randint(0, 3),): rng.randint(1, 5)})
            r = (f + h) - f
            _assert_canonical(r)
            assert r == h
            dropped += len(set(f.vars) - set(r.vars))
        assert dropped > 0

    def test_diff(self):
        rng = random.Random(41)
        for _ in range(300):
            f, g = _operands(rng)
            f = f + g
            pt = _point(rng)
            for var in ("x", "y", "z"):
                r = f.diff(var)
                _assert_canonical(r)
                assert eval_scalar(r, pt) == _slope(f, var, pt)

    def test_subst(self):
        u = SparsePoly.variable("u")
        folded = (3 * X - 2 * Y).subst({"x": u, "y": u})
        _assert_canonical(folded)
        assert folded == u
        rng = random.Random(43)
        for _ in range(300):
            f, g = _operands(rng)
            f = f + g
            bind = {"x": _kernel_poly(rng, ("u", "y")), "y": rng.choice([0, 2, -3])}
            if rng.random() < 0.5:
                bind["z"] = SparsePoly.variable("x") * rng.randint(-2, 2)
            r = f.subst(bind)
            _assert_canonical(r)
            pt = _point(rng)
            image = {**pt, **{v: _value(b, pt) for v, b in bind.items()}}
            assert eval_scalar(r, pt) == eval_scalar(f, image)

    def test_exact_div(self):
        rng = random.Random(47)
        for _ in range(300):
            f, g = _operands(rng)
            if g.is_zero:
                continue
            r = exact_div(f * g, g)
            _assert_canonical(r)
            assert r == f
            pt = _point(rng)
            gv = eval_scalar(g, pt)
            if gv:
                assert eval_scalar(r, pt) == eval_scalar(f * g, pt) / gv

    def test_coefficient_types(self):
        assert type(SparsePoly.constant(True).constant_value()) is int
        assert type(SparsePoly.zero().constant_value()) is int
        assert type(coefficient(X, {"y": 1})) is int and coefficient(X, {"y": 1}) == 0
        halved = exact_div(2 * X + 4, SparsePoly.constant(2))
        assert halved == X + 2 and all(type(c) is int for c in halved.terms.values())

    def test_exact_div_refuses_a_fractional_quotient(self):
        # over Q, x / 2x would be 1/2; over the integers it is not exact
        for num, den in ((X, 2 * X), (X + 1, SparsePoly.constant(2)), (3 * X**2 * Y, -2 * X)):
            with pytest.raises(ExactDivisionError):
                exact_div(num, den)
        assert exact_div(-6 * X**2 * Y, -2 * X) == 3 * X * Y



# -- the packed kernel against the tuple-keyed oracle -------------------------

NAME_SETS = [(), ("x",), ("y", "x"), ("x", "z"), ("z", "y", "x"), ("u", "y")]
NONZERO = st.one_of(
    st.integers(-9, 9).filter(bool),
    st.integers(-(1 << 70), 1 << 70).filter(bool),
)
COEFFS = st.one_of(st.just(0), NONZERO)


@st.composite
def kernel_polys(draw, names=None, min_terms=0, max_terms=4, max_exp=3, coeffs=COEFFS):
    """A polynomial over one of several overlapping, unsorted variable sets,
    with small and wide integer coefficients (0 included)."""
    if names is None:
        names = draw(st.sampled_from(NAME_SETS if min_terms < 2 else NAME_SETS[1:]))
    exps = st.tuples(*[st.integers(0, max_exp)] * len(names))
    terms = draw(st.dictionaries(exps, coeffs, min_size=min_terms, max_size=max_terms))
    return SparsePoly(names, terms)


@st.composite
def operand_pairs(draw):
    """(f, g), where g often cancels some or all of the terms of f."""
    f, g = draw(kernel_polys()), draw(kernel_polys())
    if draw(st.booleans()):
        g = g - SparsePoly(f.vars, {e: c for e, c in f.terms.items() if draw(st.booleans())})
    return f, g


def _typed(terms):
    return {e: (c, type(c)) for e, c in terms.items()}


def _div(f, g):
    """f / g: the packed division for a packed f, the oracle's own for its copy."""
    return f.exact_div(g) if isinstance(f, TuplePoly) else exact_div(f, g)


def _same(op, *args):
    """``op`` on the packed operands and on their oracle copies gives the same
    variables, terms (with coefficient types) and text, or the same error."""
    lifted = [TuplePoly.of(a) if isinstance(a, SparsePoly) else a for a in args]
    try:
        packed = op(*args)
    except (DegreeCapExceeded, ExactDivisionError) as exc:
        with pytest.raises(type(exc)):
            op(*lifted)
        return
    oracle = op(*lifted)
    assert packed.vars == oracle.vars
    assert _typed(packed.terms) == _typed(oracle.terms)
    assert str(packed) == str(oracle)


ORACLE_RUNS = settings(derandomize=True, database=None, max_examples=100)


class TestPackedAgainstOracle:
    @ORACLE_RUNS
    @given(pair=operand_pairs(), s=COEFFS)
    def test_sum_and_difference(self, pair, s):
        f, g = pair
        _same(lambda f, g: f + g, f, g)
        _same(lambda f, g: f - g, f, g)
        _same(lambda f: -f, f)
        _same(lambda f: f + s, f)

    @ORACLE_RUNS
    @given(f=kernel_polys(), m=kernel_polys(min_terms=1, max_terms=1, coeffs=NONZERO), s=COEFFS)
    def test_product_with_a_one_term_factor(self, f, m, s):
        _same(lambda f, m: f * m, f, m)
        _same(lambda f, m: m * f, f, m)
        _same(lambda f: s * f, f)

    @ORACLE_RUNS
    @given(pair=operand_pairs())
    def test_general_product(self, pair):
        _same(lambda f, g: f * g, *pair)

    @ORACLE_RUNS
    @given(
        base=st.integers(1, 4).flatmap(
            lambda n: kernel_polys(min_terms=n, max_terms=n, coeffs=NONZERO)
        ),
        k=st.integers(0, 5),
    )
    def test_powers_of_one_two_and_more_terms(self, base, k):
        _same(lambda b: b**k, base)

    @ORACLE_RUNS
    @given(pair=operand_pairs(), var=st.sampled_from(["x", "y", "z", "u", "w"]))
    def test_diff(self, pair, var):
        f, g = pair
        _same(lambda f: f.diff(var), f + g)

    @ORACLE_RUNS
    @given(pair=operand_pairs())
    def test_exact_div(self, pair):
        f, g = pair
        if g.is_zero:
            return
        _same(lambda f, g: _div(f * g, g), f, g)
        _same(_div, f, g)

    @ORACLE_RUNS
    @given(
        f=kernel_polys(names=("x", "y", "z")),
        kinds=st.tuples(*[st.sampled_from(["one", "two", "many", "zero", "constant"])] * 2),
        data=st.data(),
    )
    def test_subst(self, f, kinds, data):
        images = []
        for kind in kinds:
            if kind in ("zero", "constant"):
                images.append(0 if kind == "zero" else data.draw(NONZERO))
            else:
                n = {"one": 1, "two": 2, "many": 3}[kind]
                names = data.draw(st.sampled_from([("u",), ("y", "u"), ("x", "w"), ("z",)]))
                images.append(data.draw(kernel_polys(
                    names=names, min_terms=n, max_terms=n, max_exp=2, coeffs=NONZERO
                )))
        _same(lambda f, bx, by: f.subst({"x": bx, "y": by}), f, *images)
        _same(lambda f, bx: f.subst({"x": bx}), f, images[0])

    @ORACLE_RUNS
    @given(f=kernel_polys(), names=st.lists(st.sampled_from(["x", "y", "z", "u", "w", "never_used"]),
                                            unique=True, max_size=3))
    def test_degrees_in(self, f, names):
        at = [i for i, v in enumerate(f.vars) if v in names]
        assert f.degrees_in(*names) == {sum(e[i] for i in at) for e in f.terms}

    @ORACLE_RUNS
    @given(f=kernel_polys(names=("x", "y", "z")), c=NONZERO)
    def test_simultaneous_swap(self, f, c):
        x, y = variables("x y")
        _same(lambda f, x, y: f.subst({"x": y, "y": x}), f, x, y)
        _same(lambda f, x, y: f.subst({"x": c * y, "y": x, "z": x}), f, x, y)

    def test_subst_checks_the_degree_of_each_image_in_any_binding_order(self):
        x, y, z = variables("x y z")
        f = x**64 * y**64
        for bind in ({"y": z**2, "x": 1}, {"x": 1, "y": z**2}):
            _same(lambda f: f.subst(bind), f)
            assert f.subst(bind) == z**MAX_DEGREE
        for bind in ({"y": z**3, "x": 1}, {"x": 1, "y": z**3}):
            _same(lambda f: f.subst(bind), f)
            with pytest.raises(DegreeCapExceeded):
                f.subst(bind)
        # a term whose image vanishes is never expanded, so it cannot pass the cap
        g = SparsePoly(("a", "u", "x"), {(50, 100, 1): 1, (1, 0, 0): 1})
        for bind in ({"a": z**2, "x": 0}, {"x": 0, "a": z**2}):
            _same(lambda g: g.subst(bind), g)
            assert g.subst(bind) == z**2

    def test_exponents_at_max_degree(self):
        x, y, z = variables("x y z")
        top = SparsePoly(
            ("x", "y"), {(MAX_DEGREE, 0): 3, (0, MAX_DEGREE): -1, (64, 64): 7}
        )
        ops = [
            lambda f: f + f, lambda f: f - f, lambda f: f - x**MAX_DEGREE, lambda f: 2 * f,
            lambda f: f**1, lambda f: f**2, lambda f: f * y, lambda f: f * f,
            lambda f: f.diff("x"), lambda f: f.diff("y"),
            lambda f: f.subst({"x": y, "y": x}), lambda f: f.subst({"x": z}),
            lambda f: f.subst({"x": 0}), lambda f: f.subst({"y": -2}),
            lambda f: f.subst({"x": 2 * x}), lambda f: f.subst({"x": x * y}),
            lambda f: f.subst({"x": x + 1}),
            lambda f: _div(f, x**64), lambda f: _div(f, SparsePoly.constant(2)),
            lambda f: _div(f - 3 * x**MAX_DEGREE, y**64),
        ]
        for op in ops:
            _same(op, top)
        assert (x**MAX_DEGREE).total_degree() == MAX_DEGREE
        assert str(x**MAX_DEGREE * 1) == f"x^{MAX_DEGREE}"

    def test_constructor_refuses_an_exponent_wider_than_its_field(self):
        assert str(SparsePoly(("x", "y"), {(0, 255): 1})) == "y^255"
        assert SparsePoly(("x", "y"), {(200, 55): 1}).total_degree() == 255
        # the total degree has a field of the same width
        for exps in ((0, 256), (256, 0), (1000, 1), (200, 56)):
            with pytest.raises(DegreeCapExceeded):
                SparsePoly(("x", "y"), {exps: 1})
        # a zero coefficient is dropped before its exponents are read
        assert SparsePoly(("x",), {(256,): 0}).is_zero


def _image(rng, kind):
    """A seeded image of the given kind over u, w and the bound names x, y."""
    if kind == "zero":
        return 0
    if kind == "integer":
        return rng.choice([1, -1, 3, -(1 << 70)])
    names = rng.choice([("u",), ("w", "u"), ("x", "u"), ("y", "x")])
    size = 1 if kind == "one-term" else rng.randint(2, 3)
    terms = {}
    while len(terms) < size:
        exps = tuple(rng.randint(0, 2) for _ in names)
        terms[exps] = rng.choice([1, -1, 2, -5, 1 << 70])
    return SparsePoly(names, terms)


def _subst_same(f, bind):
    """``f.subst(bind)`` is canonical and equals the term-by-term oracle's
    image, term for term and in print, or both refuse the degree."""
    try:
        got = f.subst(bind)
    except DegreeCapExceeded:
        with pytest.raises(DegreeCapExceeded):
            subst_by_terms(f, bind)
        return None
    want = subst_by_terms(f, bind)
    _assert_canonical(got)
    assert got.vars == want.vars and got.terms == want.terms and str(got) == str(want)
    return got


class TestSubstAgainstTermByTerm:
    KINDS = ("one-term", "multi-term", "zero", "integer")

    def test_mixed_bindings(self):
        rng = random.Random(59)
        kinds_seen = set()
        for _ in range(400):
            f, g = _operands(rng)
            f = f + g
            # "q" is a name no operand uses
            names = rng.sample(["x", "y", "z", "q"], rng.randint(1, 4))
            kinds = [rng.choice(self.KINDS) for _ in names]
            kinds_seen.update(kinds)
            _subst_same(f, {v: _image(rng, k) for v, k in zip(names, kinds)})
        assert kinds_seen == set(self.KINDS)

    def test_images_that_collide_cancel_to_canonical_form(self):
        x, y, a, b, c = variables("x y a b c")
        for image in (x, -3 * x * y, x + y, x * x - 2 * y + 5):
            folded = _subst_same(a - b + c, {"a": image, "b": image})
            assert folded == c and folded.vars == ("c",)
            assert _subst_same(a * c - b * c + a * b - b**2, {"a": image, "b": image}).is_zero
        rng = random.Random(61)
        for _ in range(200):
            f = SparsePoly(
                ("a", "b", "c"),
                {tuple(rng.randint(0, 3) for _ in range(3)): rng.randint(-4, 4) for _ in range(5)},
            )
            # the same monomial, up to sign, for both: a^i b^j and a^j b^i meet
            image = _image(rng, rng.choice(("one-term", "multi-term")))
            sign = rng.choice((1, -1))
            _subst_same(f - f.subst({"a": b, "b": a}), {"a": image, "b": sign * image})
            _subst_same(f, {"a": image, "b": sign * image, "c": rng.choice((0, 1, image))})

    def test_degree_cap_in_either_binding_order(self):
        x, y, u = variables("x y u")
        rng = random.Random(67)
        refused = 0
        for _ in range(150):
            i, j = rng.randint(1, 64), rng.randint(1, 64)
            f = SparsePoly(("a", "b"), {(i, j): 1, (1, 0): 2})
            da, db = rng.randint(0, 3), rng.randint(0, 3)
            ia = rng.choice((x**da, x**da + u if da else 7))
            ib = rng.choice((y**db, y**db - x if db else -1))
            over = i * da + j * db > MAX_DEGREE
            for bind in ({"a": ia, "b": ib}, {"b": ib, "a": ia}):
                assert (_subst_same(f, bind) is None) == over
            refused += over
            # a term whose image vanishes is never expanded
            for bind in ({"a": ia, "b": 0}, {"b": 0, "a": ia}):
                assert _subst_same(f, bind) == 2 * as_poly(ia)
        assert 0 < refused < 150


def _form_operand(rng, kind):
    """A seeded operand of ``form_at`` of the given kind."""
    if kind == "integer":
        return rng.choice([1, -1, 0, 2, -(1 << 70)])
    if kind == "constant":
        return SparsePoly.constant(rng.choice([1, -1, 3]))
    return _image(rng, kind)


def _form_coeffs(rng, m):
    """m + 1 seeded coefficients: integers, polynomials or a mix, zeros among them."""
    kind = rng.choice(("integer", "polynomial", "mixed"))
    coeffs = []
    for _ in range(m + 1):
        if kind == "integer" or (kind == "mixed" and rng.random() < 0.5):
            coeffs.append(rng.choice([0, 0, 1, -1, 7, 1 << 70]))
        else:
            coeffs.append(_kernel_poly(rng, rng.choice([("x", "y"), ("u",), ("a", "x")])))
    return coeffs


def _form_same(coeffs, p, q):
    """``form_at(coeffs, p, q)`` equals the sum of fresh powers in value and
    in print, or both refuse the degree; no coefficient is changed or shared
    with the result."""
    before = [str(c) for c in coeffs]
    try:
        got = form_at(coeffs, p, q)
    except DegreeCapExceeded:
        with pytest.raises(DegreeCapExceeded):
            form_by_powers(coeffs, p, q)
        got = None
    else:
        want = form_by_powers(coeffs, p, q)
        assert got == want and str(got) == str(want)
        if isinstance(got, SparsePoly):
            _assert_canonical(got)
            assert all(got._terms is not c._terms for c in coeffs if isinstance(c, SparsePoly))
        elif not any(isinstance(v, SparsePoly) for v in (*coeffs, p, q)):
            assert type(got) is int
        # a polynomial operand makes the result one, a zero sum included
        if isinstance(p, SparsePoly) or isinstance(q, SparsePoly):
            assert isinstance(got, SparsePoly)
    assert [str(c) for c in coeffs] == before
    return got


class TestFormAgainstPowers:
    KINDS = ("one-term", "multi-term", "constant", "integer")

    def test_mixed_operands(self):
        rng = random.Random(71)
        seen = set()
        for _ in range(500):
            kp, kq = rng.choice(self.KINDS), rng.choice(self.KINDS)
            p = _form_operand(rng, kp)
            q = p if rng.random() < 0.15 else _form_operand(rng, kq)
            seen.add((kp, kp if q is p else kq))
            _form_same(_form_coeffs(rng, rng.randint(0, 6)), p, q)
        assert len(seen) == len(self.KINDS) ** 2

    def test_one_term_operands(self):
        x, y, u = variables("x y u")
        rows = [x - 2 * y, 0, 3 * u**2 + 1, -x * y, 5]
        for p, q in ((x, y), (u, -u), (2 * x * y, -(1 << 70) * u**3), (x, x), (1, y), (u, -1)):
            got = _form_same(rows, p, q)
            # both one-term: Horner, as for any other operands
            p, q = as_poly(p), as_poly(q)
            assert got == sum(c * p ** (4 - k) * q**k for k, c in enumerate(rows))
        one = SparsePoly.constant(1)
        assert _form_same(rows, one, one) == sum(rows, SparsePoly.zero())
        assert _form_same(rows, one, -one) == rows[0] + rows[2] - rows[3] + rows[4]

    def test_plain_integers(self):
        rng = random.Random(73)
        for _ in range(200):
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))]
            p, q = rng.randint(-(1 << 40), 1 << 40), rng.choice([0, 1, -1, rng.randint(-99, 99)])
            assert type(_form_same(coeffs, p, q)) is int

    def test_single_coefficient(self):
        x, y = variables("x y")
        for c in (0, 5, -(1 << 70), x * y - 3, SparsePoly.zero()):
            for p, q in ((x, y), (x + y, x - y), (2, -3), (SparsePoly.constant(-1), x + 1)):
                assert _form_same([c], p, q) == c

    def test_zero_coefficients_build_no_extra_power(self):
        x, y = variables("x y")
        # q**3 would pass the cap, but only q**0 has a non-zero coefficient
        for q in (y**50, y**50 + x):
            assert _form_same([1, 0, 0, 0], x + 1, q) == (x + 1) ** 3
            assert _form_same([0, 0, 0], x + 1, q) == 0
        assert _form_same([0, 2, 0], x**100 + 1, y) == 2 * (x**100 + 1) * y

    def test_degree_cap_before_any_product(self, monkeypatch):
        import psikit.multipoly as mp

        x, y = variables("x y")
        cases = [
            # both one-term, and term 1 (degree 130) past the cap
            ([1, 1, 1, 1], x**40, y**50),
            ([0, x**29, 0], x**40, y**60),
            # Horner, with the cap passed at the first term and at the last
            ([1, 1, 1, 1], x**43 + y, y**30 + 1),
            ([1, 0, y**69], x + y, x**30 - y),
            ([x**110, 2], x**20 + 1, y),
        ]

        def refuse(*args, **kwargs):
            raise AssertionError("a product was formed before the cap was checked")

        for name in ("_product", "_power", "_add_into"):
            monkeypatch.setattr(mp, name, refuse)
        monkeypatch.setattr(SparsePoly, "_scaled", refuse)
        for coeffs, p, q in cases:
            with pytest.raises(DegreeCapExceeded):
                form_at(coeffs, p, q)
        monkeypatch.undo()
        for coeffs, p, q in cases:
            assert _form_same(coeffs, p, q) is None

    def test_cached_rows_are_not_changed(self):
        from psikit.eightlevels import coeff_table_polys

        rows = coeff_table_polys(9)
        texts = [str(r) for r in rows]
        theta, xi, eta, lam = variables("theta xi eta lam")
        for p, q in ((1, theta), (xi, eta), (lam + 1, theta), (SparsePoly.constant(1), -1)):
            _form_same(rows, p, q)
            _form_same(rows[:1], p, q)
        assert [str(r) for r in coeff_table_polys(9)] == texts


def _lift(value):
    """The tuple-keyed oracle's copy of a polynomial; a scalar as it is."""
    return TuplePoly.of(value) if isinstance(value, SparsePoly) else value


def _form_against_tuples(coeffs, p, q):
    """``form_at(coeffs, p, q)`` equals the sum of fresh powers in the
    tuple-keyed oracle, term for term and in print, or both refuse the degree."""
    lifted = [_lift(c) for c in coeffs], _lift(p), _lift(q)
    try:
        got = form_at(coeffs, p, q)
    except DegreeCapExceeded:
        with pytest.raises(DegreeCapExceeded):
            form_by_powers(*lifted)
        return None
    want = form_by_powers(*lifted)
    _assert_canonical(got)
    assert got.vars == want.vars and _typed(got.terms) == _typed(want.terms)
    assert str(got) == str(want)
    return got


class TestKernelAtTheCap:
    """One-term operands up to ``MAX_DEGREE`` take the general product, power
    and Horner routes; each result equals the tuple-keyed oracle's."""

    def test_one_term_powers(self):
        x, y = variables("x y")
        for base, k in ((x, MAX_DEGREE), (-2 * x, MAX_DEGREE), (3 * x * y, MAX_DEGREE // 2),
                        (x, MAX_DEGREE + 1), (-x * y, MAX_DEGREE // 2 + 1)):
            _same(lambda b: b**k, base)
        assert str(x**MAX_DEGREE) == f"x^{MAX_DEGREE}"

    def test_one_term_factor_times_each_row_of_the_top_table(self):
        from psikit.eightlevels import coeff_table_polys

        a, beta, theta = variables("a beta theta")
        rows = coeff_table_polys(129)
        assert {r.total_degree() for r in rows} == {MAX_DEGREE // 2}
        # to the cap over the rows' variables and over a new one, then one past it
        for row in rows:
            _same(lambda f, m: f * m, row, -(1 << 70) * a**30 * beta**34)
            _same(lambda f, m: m * f, row, 7 * theta**64)
            _same(lambda f, m: f * m, row, a * theta**64)

    def test_form_at_with_two_one_term_operands(self):
        from psikit.eightlevels import coeff_table_polys

        a, alpha, x, y = variables("a alpha x y")
        rows = coeff_table_polys(17)
        # the 9 rows of degree 8 at operands of degree 15: each term of degree 128
        for p, q in ((x**15, -(y**15)), (2 * a**15, 3 * alpha**15), (x**15, x**15),
                     (a**7 * x**8, -(1 << 70) * a**15), (a**7 * x**8, y**16)):
            _form_against_tuples(rows, p, q)
        top = [1] * (MAX_DEGREE + 1)
        assert _form_against_tuples(top, x, y).total_degree() == MAX_DEGREE
        assert _form_against_tuples(top, -x, SparsePoly.constant(2)).total_degree() == MAX_DEGREE
        assert _form_against_tuples(top + [1], x, y) is None
        # polynomial coefficients of degree 8 with operands of degree 12
        coeffs = [(x - k * y) ** 8 if k % 3 else k for k in range(11)]
        for p, q in ((x**6 * y**6, -(1 << 70) * alpha**12), (x**12, y**12), (x**12, y**13)):
            _form_against_tuples(coeffs, p, q)


class TestEvaluate:
    def test_exact_point(self):
        f = X**2 - 2 * Y
        assert eval_scalar(f, {"x": 3, "y": 4}) == 1
        assert eval_scalar(f, {"x": Fraction(1, 2), "y": Fraction(1, 3)}) == Fraction(-5, 12)

    def test_scalar_ring_evaluation(self):
        from psikit.exactmath import SQRT2

        f = X**2 - 2
        assert eval_scalar(f, {"x": SQRT2}) == 0

    def test_reduce_square_formal_symbol(self):
        i, u = variables("i u")
        f = i**2 * u + i**3 + i * u
        g = reduce_square(f, "i", -1)
        assert g == -u - i + i * u


# -- one monomial layout for the whole process ----------------------------------

# every variable name that psikit's modules build a polynomial over
PSIKIT_NAMES = "a alpha b beta eta lam p q s1 s2 t theta u v x xi y z".split()

# the commands whose stdout must not depend on the order names were first seen
ORDER_RUNS = [
    "psi poly --n 64",
    "verify eightlevels",
    "verify theta",
    "verify fundamental",
    "verify powersums",
    "bridges check --nmax 40",
]


def _python(code: str) -> str:
    """The stdout of ``code`` run by a fresh interpreter that imports psikit
    and the oracles from this checkout."""
    root = Path(__file__).parent
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(root.parent / "src"), str(root)]),
        PYTHONHASHSEED="0",
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=120, check=True,
    )
    return proc.stdout


class TestSharedLayout:
    def test_registration_order_shows_in_no_output(self):
        body = (
            "import io\n"
            "from contextlib import redirect_stdout\n"
            "from psikit import cli\n"
            "from psikit.multipoly import SparsePoly, variables\n"
            f"for args in {ORDER_RUNS!r}:\n"
            "    out = io.StringIO()\n"
            "    with redirect_stdout(out):\n"
            "        code = cli.main(args.split())\n"
            "    print(args, code, out.getvalue())\n"
            "a, theta, xi, y, s2 = variables('a theta xi y s2')\n"
            "f = (a - 2 * theta) ** 3 * xi - y * s2 + 5\n"
            "g = SparsePoly(('y', 'xi', 'a'), {(2, 1, 0): 7, (0, 0, 3): -1})\n"
            "print(g == 7 * y**2 * xi - a**3, g == 7 * xi * y**2 - a**2)\n"
            "for p in (f, g, f * g, f.subst({'theta': y * y}), g.diff('xi')):\n"
            "    print(p, p.vars, sorted(p.terms.items()), hash(p), SparsePoly(p.vars, p.terms) == p)\n"
        )
        fresh = " ".join(PSIKIT_NAMES[::-1] + ["unused_name"])
        plain = _python(body)
        reversed_order = _python(f"from psikit.multipoly import variables\nvariables({fresh!r})\n{body}")
        assert reversed_order == plain
        assert "psi poly --n 64 0 " in plain and "True False" in plain

    def test_threads_registering_at_once_never_share_a_field(self):
        code = (
            "import sys, threading\n"
            "from psikit import multipoly\n"
            "from psikit.multipoly import variables\n"
            "from oracles import TuplePoly\n"
            "sys.setswitchinterval(1e-6)\n"
            "start = threading.Barrier(8)\n"
            "registered = threading.Barrier(8, action=lambda: sys.setswitchinterval(0.005))\n"
            "names, failures = {}, []\n"
            "def work(i):\n"
            "    mine = [f'w{i}_{j}' for j in range(50)]\n"
            "    start.wait()\n"
            "    polys = variables(' '.join(mine))\n"
            "    names[i] = mine\n"
            "    registered.wait()\n"
            "    for j, p in enumerate(polys):\n"
            "        for k in range(j, 50):\n"
            "            got = p * polys[k]\n"
            "            want = TuplePoly((mine[j],), {(1,): 1}) * TuplePoly((mine[k],), {(1,): 1})\n"
            "            if (got.vars, dict(got.terms), str(got)) != (want.vars, want.terms, str(want)):\n"
            "                failures.append((mine[j], mine[k], str(got)))\n"
            "threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]\n"
            "for t in threads:\n"
            "    t.start()\n"
            "for t in threads:\n"
            "    t.join()\n"
            "fields = [multipoly._FIELDS[n] for mine in names.values() for n in mine]\n"
            "print(len(fields), len(set(fields)), len(failures))\n"
        )
        assert _python(code).split() == ["400", "400", "0"]
