import json

import pytest

from psikit import bridges, cli
from psikit.bridges import (
    PERIOD_CATALOGUE,
    BridgeSpec,
    PeriodResult,
    catalogue_entry,
    default_bridges,
    detect_period,
    fibonacci_terms,
    lucas_terms,
    pell_lucas_terms,
)
from psikit.eightlevels import coeff_values
from psikit.exactmath import GOLDEN_RATIO, QuadExt, SQRT2
from psikit.limits import LIMITS
from psikit.multipoly import SparsePoly, variables
from psikit.psicore import packing_bits, psi_recurrence

from oracles import chebyshev_t, dickson_d, eval_scalar, pell_lucas_poly, polynomial_bridge_sides

X, AL = variables("x alpha")
LUCAS, FIBONACCI = lucas_terms(64), fibonacci_terms(64)
CEILING = LIMITS["bridges check"].ceiling
POLYNOMIAL = ("pell-lucas-polynomials", "dickson-first-kind", "chebyshev-first-kind")


class TestOracles:
    def test_lucas(self):
        assert lucas_terms(7) == [2, 1, 3, 4, 7, 11, 18, 29]

    def test_fibonacci(self):
        assert fibonacci_terms(7) == [0, 1, 1, 2, 3, 5, 8, 13]

    def test_pell_lucas(self):
        assert pell_lucas_terms(4) == [2, 2, 6, 14, 34]

    def test_short_lists(self):
        for terms, first, second in ((lucas_terms, 2, 1), (fibonacci_terms, 0, 1),
                                     (pell_lucas_terms, 2, 2)):
            assert terms(0) == [first] and terms(1) == [first, second]
            assert terms(64)[:41] == terms(40)

    def test_chebyshev(self):
        assert chebyshev_t(2) == 2 * X**2 - 1
        assert chebyshev_t(3) == 4 * X**3 - 3 * X

    def test_chebyshev_degree(self):
        for n in (0, 1, 2, 7, 64):
            assert chebyshev_t(n).total_degree() == n

    def test_dickson(self):
        assert dickson_d(2) == X**2 - 2 * AL
        assert dickson_d(3) == X**3 - 3 * AL * X

    def test_pell_lucas_poly_at_one(self):
        for n, value in enumerate(pell_lucas_terms(9)):
            assert eval_scalar(pell_lucas_poly(n), {"x": 1}) == value


def _poly_recurrence(n: int, first, second, step):
    """Term n of the sequence with terms 0 and 1 given and
    term k + 2 = step(term k, term k + 1), rebuilt from term 0 for each n."""
    if n == 0:
        return first
    a, b = first, second
    for _ in range(n - 1):
        a, b = b, step(a, b)
    return b


class TestOnePass:
    def test_one_pass_terms_equal_per_index_values(self, monkeypatch):
        n_max = 64
        one_pass = [(spec.values(n_max), spec.oracle(n_max)) for spec in default_bridges()]
        # the per-index routes: psi_recurrence and _poly_recurrence from 0 for each n
        monkeypatch.setattr(
            bridges,
            "psi_sequence",
            lambda a, b, top: [psi_recurrence(a, b, n) for n in range(top + 1)],
        )
        monkeypatch.setattr(
            bridges,
            "_poly_terms",
            lambda top, *rule: [_poly_recurrence(n, *rule) for n in range(top + 1)],
        )
        per_index = default_bridges()
        assert len(per_index) == len(one_pass) == 19
        for spec, (values, oracle) in zip(per_index, one_pass):
            assert len(values) == len(oracle) == n_max + 1, spec.name
            assert spec.values(n_max) == values, spec.name
            assert spec.oracle(n_max) == oracle, spec.name

    def test_each_check_builds_each_sequence_once(self, monkeypatch):
        # the most sequences one oracle reads, Lucas and Fibonacci
        calls = []
        build = bridges._poly_terms
        monkeypatch.setattr(bridges, "_poly_terms",
                            lambda *args: calls.append(args) or build(*args))
        for spec in default_bridges():
            calls.clear()
            assert not spec.check(64), spec.name
            assert len(calls) <= 2, spec.name


def _bridge(name):
    for spec in default_bridges():
        if spec.name == name:
            return spec
    raise KeyError(name)


class TestBridges:
    def test_every_integer_bridge_to_60(self):
        symbolic = {
            "pell-lucas-polynomials",
            "dickson-first-kind",
            "chebyshev-first-kind",
        }
        coeff_based = {"fibonacci-derivative", "lucas-direction"}
        for spec in default_bridges():
            if spec.name in symbolic:
                assert not spec.check(CEILING), spec.name
            elif spec.name in coeff_based:
                assert not spec.check(30), spec.name
            else:
                assert not spec.check(60), spec.name

    def test_lucas_point(self):
        assert psi_recurrence(-1, -3, 4) == -2 + 9 == 7 == LUCAS[4]

    def test_fermat_point(self):
        assert psi_recurrence(-2, -5, 4) == -8 + 25 == 17 == 2**4 + 1

    def test_chebyshev_point(self):
        # psi(1, 2 - 4x^2, 2) == 2 * (2x^2 - 1)
        value = psi_recurrence(1, 2 - 4 * X**2, 2)
        assert value == 2 * chebyshev_t(2)

    def test_fibonacci_derivative_point(self):
        # row 1 at (-1, -3 | 1, 2): 4a*alpha - 2b*beta at those values is 8
        assert coeff_values(4, -1, -3, 1, 2)[4][1] == 8 == 4 * FIBONACCI[3]

    def test_pell_lucas_point(self):
        assert 2 * psi_recurrence(-1, -6, 3) == 14 == pell_lucas_terms(3)[3]

    def test_power_of_two_claims(self):
        spec = _bridge("pow2-direction-values")
        assert not spec.check(64)
        # these claims are genuinely restricted: n = 2 breaks the Lucas one
        assert psi_recurrence(1, 3, 2) == -3 != LUCAS[2]

    def test_fibonacci_parity_both_branches(self):
        for n in range(0, 40):
            expected = FIBONACCI[n] if n % 2 else LUCAS[n]
            assert psi_recurrence(1, -3, n) == expected

    def test_golden_ratio_restricted_values(self):
        phi = GOLDEN_RATIO
        for n in (16, 64):
            assert psi_recurrence(1, phi - 1, n) == -phi
        # odd power of two lands elsewhere in the period-20 cycle
        assert psi_recurrence(1, phi - 1, 32) == phi - 1

    def test_g2_value_spot_checks(self):
        assert psi_recurrence(2, 5, 16) == 2**16 + 1 == 65537
        assert psi_recurrence(1, SQRT2, 16) == 2
        assert psi_recurrence(1, 1, 16) == -1
        assert psi_recurrence(1, 2, 16) == 2
        assert psi_recurrence(1, 3, 16) == LUCAS[16]

    def test_signed_lemmas_subsume_restricted_claims(self):
        for n in range(61):
            assert psi_recurrence(1, 3, n) == (-1) ** (n // 2) * LUCAS[n]
            assert psi_recurrence(2, 5, n) == (-1) ** (n // 2) * (2**n + (-1) ** n)

    def test_alternating_closed_form_to_200(self):
        for n in range(201):
            expected = (-1) ** (n // 2) * 2 ** ((n - 1) % 2) * n ** (n % 2)
            assert psi_recurrence(1, 2, n) == expected, n

    def test_registry_descriptions(self):
        for spec in default_bridges():
            desc = spec.describe()
            assert desc["name"] and desc["description"]


def _packing_points(monkeypatch) -> list:
    """The points of every packed comparison from now on, in order."""
    points, choose = [], bridges._packing_point
    monkeypatch.setattr(bridges, "_packing_point",
                        lambda *args: points.append(choose(*args)) or points[-1])
    return points


def _norm(poly: SparsePoly) -> int:
    """The 1-norm of ``poly``: the sum of its absolute coefficients."""
    return sum(map(abs, poly.terms.values()))


def _at(point: int, name: str) -> dict:
    """The variables of the bridge ``name`` at its packed point."""
    return {"x": 1, "alpha": point} if name == "dickson-first-kind" else {"x": point}


class TestPackedPolynomialBridges:
    """The three polynomial bridges compare both sides at one packed integer
    point, against their polynomials in ``oracles``."""

    def test_each_side_is_its_polynomial_at_the_point(self, monkeypatch):
        points = _packing_points(monkeypatch)
        for name in POLYNOMIAL:
            spec = _bridge(name)
            psi, oracle = polynomial_bridge_sides(name, CEILING)
            assert psi == oracle, name
            for n_max in (0, 1, 2, 7, CEILING):
                points.clear()
                values, expected = spec.values(n_max), spec.oracle(n_max)
                assert len(values) == len(expected) == n_max + 1 and points[0] == points[1]
                # every coefficient of a difference of two terms is below the
                # point, as it must be for the comparison to be exact
                norms = [_norm(f) for f in psi[: n_max + 1] + oracle[: n_max + 1]]
                assert points[0] > 2 * max(norms), (name, n_max)
                at = _at(points[0], name)
                for n in range(n_max + 1):
                    assert values[n] == eval_scalar(psi[n], at), (name, n_max, n)
                    assert expected[n] == eval_scalar(oracle[n], at), (name, n_max, n)

    @pytest.mark.parametrize("spoil", [
        lambda step: lambda a, b: step(a, b) + b,
        lambda step: lambda a, b: step(a, b) - b,
        lambda step: lambda a, b: step(a, b) + a,
        lambda step: lambda a, b: step(a, b) - a,
    ], ids=["A+1", "A-1", "B+1", "B-1"])
    def test_an_off_by_one_step_coefficient_is_caught_at_every_index(self, monkeypatch, spoil):
        # term k + 2 = step(term k, term k + 1) = A * term k+1 + B * term k:
        # the spoiled step moves A or B by one, in the packed oracle and in the
        # polynomial one alike, and so every term from 2 on
        build = bridges._poly_terms
        monkeypatch.setattr(bridges, "_poly_terms",
                            lambda top, first, second, step: build(top, first, second, spoil(step)))
        for name in POLYNOMIAL:
            psi, oracle = polynomial_bridge_sides(name, CEILING)
            wrong = [n for n in range(CEILING + 1) if psi[n] != oracle[n]]
            assert wrong == list(range(2, CEILING + 1)), name
            assert _bridge(name).check(CEILING) == wrong, name

    def test_the_norm_bound_is_needed(self, monkeypatch):
        # B, the largest 1-norm bound of the Pell-Lucas bridge at the ceiling,
        # has 2**(K-3) <= B < 2**(K-2) for its K.  Then h * x**63 and
        # x**64 - h * x**63, h = 2**(K-3), are two polynomials within B that
        # differ by x**63 * (2**(K-2) - x): at x = 2**(K-2) they collide
        bounds = []
        monkeypatch.setattr(bridges, "packing_bits",
                            lambda *sides: bounds.append(max(sides)) or packing_bits(*sides))
        assert not _bridge("pell-lucas-polynomials").check(CEILING)
        bound = bounds[0]
        k = packing_bits(bound)
        h = 1 << (k - 3)
        assert h <= bound < 2 * h
        p, q = h * X**63, X**64 - h * X**63
        assert p != q and max(_norm(p), _norm(q)) <= bound
        assert eval_scalar(p, {"x": 1 << (k - 2)}) == eval_scalar(q, {"x": 1 << (k - 2)})
        for bits in (k - 1, k):
            assert eval_scalar(p, {"x": 1 << bits}) != eval_scalar(q, {"x": 1 << bits})

    def test_the_check_forms_no_polynomial_product(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("a polynomial product")

        monkeypatch.setattr(SparsePoly, "__mul__", refuse)
        monkeypatch.setattr(SparsePoly, "__rmul__", refuse)
        assert cli.main(["bridges", "check", "--nmax", str(CEILING)]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(records) == len(default_bridges()) == 19
        assert all(r["ok"] is True and r["failures"] == [] for r in records)


class TestRecords:
    def test_bridge_spec(self):
        spec = default_bridges()[0]
        same = BridgeSpec(
            name=spec.name, description=spec.description, values=spec.values,
            oracle=spec.oracle, indices=spec.indices,
        )
        assert spec == same and spec != same._replace(name="other")
        assert repr(spec).startswith(f"BridgeSpec(name={spec.name!r}, description=")
        assert spec.check(8) == [] and spec.describe()["name"] == spec.name
        with pytest.raises(AttributeError):
            spec.name = "other"

    def test_period_result(self):
        result = PeriodResult(1, 1, 6, [2, 1, -1, -2, -1, 1])
        assert result == detect_period(1, 1)
        assert result != PeriodResult(1, 1, 6)
        assert repr(PeriodResult(1, 0, 8)) == "PeriodResult(a=1, b=0, period=8, table=[])"
        empty, other = PeriodResult(1, 0, 8), PeriodResult(1, 0, 8)
        empty.table.append(2)
        assert other.table == []


class TestPeriods:
    def test_catalogue_periods(self):
        expected = {
            "b-one": 6,
            "b-zero": 8,
            "b-minus-one": 12,
            "b-sqrt2": 16,
            "b-golden": 20,
            "b-sqrt3": 24,
        }
        found = {}
        for label, entry in PERIOD_CATALOGUE.items():
            result = detect_period(entry["a"], entry["b"])
            found[label] = result.period
            assert result.table == list(entry["table"]), label
        assert found == expected
        assert sorted(found.values()) == [6, 8, 12, 16, 20, 24]

    def test_integer_tables_match_fixed_values(self):
        assert catalogue_entry("b-one")["table"] == [2, 1, -1, -2, -1, 1]
        assert catalogue_entry("b-zero")["table"] == [2, 1, 0, -1, -2, -1, 0, 1]

    def test_sqrt2_table_entries(self):
        table = catalogue_entry("b-sqrt2")["table"]
        assert table[3] == -1 - SQRT2 and table[13] == -1 - SQRT2

    def test_golden_table_entries(self):
        table = catalogue_entry("b-golden")["table"]
        phi = GOLDEN_RATIO
        for idx in (3, 4, 16, 17):
            assert table[idx] == -phi

    def test_minimality(self):
        # no smaller even recurrence of the full state exists
        for label, entry in PERIOD_CATALOGUE.items():
            a, b = entry["a"], entry["b"]
            period = entry["period"]
            values = [psi_recurrence(a, b, n) for n in range(period + 2)]
            for cand in range(2, period, 2):
                assert (values[cand], values[cand + 1]) != (values[0], values[1]), label

    def test_state_recurs_exactly(self):
        for label, entry in PERIOD_CATALOGUE.items():
            t = entry["period"]
            a, b = entry["a"], entry["b"]
            assert psi_recurrence(a, b, t) == 2 and psi_recurrence(a, b, t + 1) == 1

    def test_parity_matters(self):
        # the value pair alone can recur at an odd index; the detected period
        # must still be even because the state carries parity
        for entry in PERIOD_CATALOGUE.values():
            assert detect_period(entry["a"], entry["b"]).period % 2 == 0

    def test_cap_exceeded(self):
        with pytest.raises(ValueError):
            detect_period(3, 7, cap=100)

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            catalogue_entry("nope")

    def test_quadratic_values_exact(self):
        seq_val = psi_recurrence(1, SQRT2, 3)
        assert seq_val == QuadExt(2, -1, -1)
