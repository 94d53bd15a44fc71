"""Verified specialisations of psi(a, b, n) to classical sequences, plus
period detection for the catalogued parameter pairs over quadratic rings.

Every bridge pairs a psi-side value with an independently computed oracle
(Lucas/Fibonacci/Pell-Lucas/Chebyshev/Dickson recurrences, explicit power
formulas) and an index predicate; several identities hold only on power-of-two
indices and are registered with that restriction rather than asserted
globally.

The three polynomial bridges, Pell-Lucas and Chebyshev in x and Dickson in
(x, alpha), compare integers, not polynomials: each side is evaluated exactly
at one packed point, x = 2**K, or x = 1 and alpha = 2**K for Dickson, where
both sides are weighted-homogeneous of weight n (x weighs 1, alpha 2), so
x = 1 drops no monomial.  K is fixed before any value is built: each side's
recurrence u_(k+1) = A_k u_k + B u_(k-1) runs once on 1-norms,
||u_(k+1)|| <= ||A_k|| ||u_k|| + ||B|| ||u_(k-1)||, and K is
``psicore.packing_bits`` of the largest bound.  Every coefficient of the
difference of the two sides is then below 2**K in absolute value, so equal
integers mean equal polynomials: the check is exact, not sampled.  The
polynomial recurrences are the oracles of this route in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from itertools import islice

from .eightlevels import coeff_values
from .exactmath import GOLDEN_RATIO, QuadExt, SQRT2, SQRT3, SQRT5
from .psicore import half, packing_bits, parity, psi_sequence, psi_terms
from .records import Record

__all__ = [
    "BridgeSpec",
    "PeriodResult",
    "lucas_terms",
    "fibonacci_terms",
    "pell_lucas_terms",
    "default_bridges",
    "detect_period",
    "PERIOD_CATALOGUE",
    "catalogue_entry",
]


# -- independent oracle recurrences -----------------------------------------


def lucas_terms(n_max: int) -> list[int]:
    return _poly_terms(n_max, 2, 1, lambda a, b: a + b)


def fibonacci_terms(n_max: int) -> list[int]:
    return _poly_terms(n_max, 0, 1, lambda a, b: a + b)


def pell_lucas_terms(n_max: int) -> list[int]:
    return _poly_terms(n_max, 2, 2, lambda a, b: 2 * b + a)


def _poly_terms(n_max: int, first, second, step) -> list:
    """Terms 0..n_max of the sequence with terms 0 and 1 given and
    term k + 2 = step(term k, term k + 1), in one pass; no term past n_max
    is built."""
    terms = [first, second][: n_max + 1]
    while len(terms) <= n_max:
        terms.append(step(terms[-2], terms[-1]))
    return terms


def _pell_lucas_at(t: int) -> Callable[[int], list[int]]:
    """The Pell-Lucas polynomials Q_0..Q_n_max at x = t, for n_max given:
    Q_0 = 2, Q_1 = 2x and Q_(k+2) = 2x Q_(k+1) + Q_k."""
    return lambda n_max: _poly_terms(n_max, 2, 2 * t, lambda a, b: 2 * t * b + a)


def _chebyshev_at(t: int) -> Callable[[int], list[int]]:
    """2**parity(n + 1) * T_n at x = t for n = 0..n_max, for n_max given, with
    the Chebyshev polynomials T_0 = 1, T_1 = x and T_(k+2) = 2x T_(k+1) - T_k."""
    return lambda n_max: [
        2 ** parity(n + 1) * v
        for n, v in enumerate(_poly_terms(n_max, 1, t, lambda a, b: 2 * t * b - a))
    ]


def _dickson_at(t: int) -> Callable[[int], list[int]]:
    """The Dickson polynomials D_0..D_n_max at x = 1 and alpha = t, for n_max
    given: D_0 = 2, D_1 = x and D_(k+2) = x D_(k+1) - alpha D_k."""
    return lambda n_max: _poly_terms(n_max, 2, 1, lambda a, b: b - t * a)


def _packing_point(n_max: int, *sides: tuple) -> int:
    """The point 2**K at which the terms 0..n_max of ``sides`` are compared.
    A side is the 1-norms (u_0, u_1, A_odd, A_even, B, F) of its recurrence
    u_(k+1) = A_k u_k + B u_(k-1), with A_k at odd and at even k, and of the
    factor F on each term.  Each side's recurrence runs once on the norms, its
    largest norm times F bounds the side, and K is ``packing_bits`` of the
    bounds."""
    bounds = []
    for lo, hi, odd, even, back, factor in sides:
        norms = [lo, hi]
        for k in range(1, n_max):
            norms.append((odd if k % 2 else even) * norms[-1] + back * norms[-2])
        bounds.append(factor * max(norms))
    return 1 << packing_bits(*bounds)


def _packed(values, oracle, *sides: tuple) -> tuple:
    """The values and oracle of a polynomial bridge compared at one packed
    point t: ``values(t)`` and ``oracle(t)`` map n_max to that side's terms
    0..n_max at t, and t is ``_packing_point`` of n_max and ``sides``."""

    def at(side):
        return lambda n_max: side(_packing_point(n_max, *sides))(n_max)

    return at(values), at(oracle)


# -- bridge registry ----------------------------------------------------------


class BridgeSpec(namedtuple("BridgeSpec", "name description values oracle indices")):
    """One registered identity: term n of ``values`` must equal term n of
    ``oracle`` at every n of its index set.

    ``name`` and ``description`` are strings.  ``values`` and ``oracle`` map
    n_max to the list of terms 0..n_max, each built in one pass; ``indices``
    maps n_max to the indices to compare.
    """

    __slots__ = ()

    def check(self, n_max: int) -> list[int]:
        """Indices up to n_max where the identity fails (empty == pass)."""
        indices = list(self.indices(n_max))
        if not indices:
            return []
        top = max(indices)
        values, expected = self.values(top), self.oracle(top)
        return [n for n in indices if values[n] != expected[n]]

    def describe(self) -> dict:
        return {"name": self.name, "description": self.description}


def _all_indices(n_max: int):
    return range(n_max + 1)


def _indices_from(start: int):
    return lambda n_max: range(start, n_max + 1)


def _each(term: Callable[..., object], *sequences) -> Callable[[int], list]:
    """The terms 0..n_max of a sequence given term by term: term(n, *lists),
    where lists holds terms 0..n_max of each of ``sequences``, built once."""

    def terms(n_max: int) -> list:
        lists = [sequence(n_max) for sequence in sequences]
        return [term(n, *lists) for n in range(n_max + 1)]

    return terms


def _psi_values(a, b, transform=lambda v, n: v) -> Callable[[int], list]:
    """psi(a, b, 0..n_max) in one pass, each term n mapped by transform(v, n)."""
    return lambda n_max: [
        transform(v, n) for n, v in enumerate(psi_sequence(a, b, n_max))
    ]


def _coeff_row(r: int, a, b, alpha, beta) -> Callable[[int], list]:
    """Expansion coefficient r at (a, b | alpha, beta) for n = 0..n_max, from
    one coefficient pass; None where r > floor(n/2)."""
    return lambda n_max: [
        row[r] if r < len(row) else None for row in coeff_values(n_max, a, b, alpha, beta)
    ]


def _psi_tuples(*pairs) -> Callable[[int], list]:
    """(psi(a1, b1, n), psi(a2, b2, n), ...) for n = 0..n_max."""
    return lambda n_max: list(zip(*(psi_sequence(a, b, n_max) for a, b in pairs)))


def _sqrt5_table(sign: int) -> Callable[[int], list]:
    def oracle(n: int, luc: list, fib: list) -> QuadExt:
        r = n % 4
        if r == 0:
            return QuadExt(5, luc[n // 2], 0)
        if r == 1:
            return QuadExt(5, luc[(n + 1) // 2], sign * fib[(n - 1) // 2])
        if r == 2:
            return QuadExt(5, 0, -sign * fib[n // 2])
        return QuadExt(5, -luc[(n - 1) // 2], -sign * fib[(n + 1) // 2])

    return _each(oracle, lucas_terms, fibonacci_terms)


_POW2_SET = (16, 32, 64)


def default_bridges() -> list[BridgeSpec]:
    """The registry behind ``bridges check`` / ``bridges list``."""
    specs = [
        BridgeSpec(
            "lucas",
            "psi(-1, -3, n) equals the Lucas number L(n)",
            _psi_values(-1, -3),
            lucas_terms,
            _all_indices,
        ),
        BridgeSpec(
            "fibonacci-lucas-parity",
            "psi(1, -3, n) equals F(n) for odd n and L(n) for even n",
            _psi_values(1, -3),
            _each(lambda n, fib, luc: fib[n] if n % 2 else luc[n], fibonacci_terms, lucas_terms),
            _all_indices,
        ),
        BridgeSpec(
            "two-power-plus-sign",
            "psi(-2, -5, n) equals 2**n + (-1)**n",
            _psi_values(-2, -5),
            _each(lambda n: 2**n + (-1) ** n),
            _all_indices,
        ),
        BridgeSpec(
            "two-power-thirds",
            "psi(2, -5, n) equals (2**n + 1) / 3**parity(n)",
            # the 1/3**parity(n) of the description, multiplied through
            _psi_values(2, -5, lambda v, n: 3 ** parity(n) * v),
            _each(lambda n: 2**n + 1),
            _all_indices,
        ),
        BridgeSpec(
            "mersenne-odd-exponent",
            "psi(-2, -5, p) equals 2**p - 1 for odd p",
            _psi_values(-2, -5),
            _each(lambda n: 2**n - 1),
            lambda n_max: range(1, n_max + 1, 2),
        ),
        BridgeSpec(
            "fermat-power-of-two",
            "psi(-2, -5, n) and psi(2, -5, n) both equal 2**n + 1 at n = 2**l",
            _psi_tuples((-2, -5), (2, -5)),
            _each(lambda n: (2**n + 1, 2**n + 1)),
            lambda n_max: [k for k in (2, 4, 8, 16, 32) if k <= n_max],
        ),
        BridgeSpec(
            "pell-lucas-numbers",
            "2**parity(n) * psi(-1, -6, n) equals the Pell-Lucas number Q(n)",
            _psi_values(-1, -6, lambda v, n: 2 ** parity(n) * v),
            pell_lucas_terms,
            _all_indices,
        ),
        BridgeSpec(
            "pell-lucas-polynomials",
            "(2x)**parity(n) * psi(-1, -2-4x^2, n) equals the Pell-Lucas polynomial",
            *_packed(
                lambda t: _psi_values(-1, -2 - 4 * t * t, lambda v, n: (2 * t) ** parity(n) * v),
                _pell_lucas_at,
                # psi: A_odd = d = 2a - b = 4x^2, A_even = 1, B = -a = 1, F = (2x)**parity(n)
                (2, 1, 4, 1, 1, 2),
                # Q: A = 2x, B = 1
                (2, 2, 2, 2, 1, 1),
            ),
            _all_indices,
        ),
        BridgeSpec(
            "dickson-first-kind",
            "x**parity(n) * psi(alpha, 2*alpha - x^2, n) equals the Dickson polynomial",
            # at x = 1, x**parity(n) is 1
            *_packed(
                lambda t: _psi_values(t, 2 * t - 1),
                _dickson_at,
                # psi: A_odd = d = x^2, B = -a = -alpha
                (2, 1, 1, 1, 1, 1),
                # D: A = x, B = -alpha
                (2, 1, 1, 1, 1, 1),
            ),
            _all_indices,
        ),
        BridgeSpec(
            "chebyshev-first-kind",
            "x**parity(n)/2**parity(n+1) * psi(1, 2-4x^2, n) equals the Chebyshev polynomial",
            # the 1/2**parity(n+1) of the description, multiplied through
            *_packed(
                lambda t: _psi_values(1, 2 - 4 * t * t, lambda v, n: t ** parity(n) * v),
                _chebyshev_at,
                # psi: A_odd = d = 4x^2, B = -a = -1, F = x**parity(n)
                (2, 1, 4, 1, 1, 1),
                # T: A = 2x, B = -1, F = 2**parity(n + 1)
                (1, 1, 2, 2, 1, 2),
            ),
            _all_indices,
        ),
        BridgeSpec(
            "sqrt5-lucas-fibonacci",
            "psi(1, sqrt5, n) follows the four-case Lucas/Fibonacci table",
            _psi_values(1, SQRT5),
            _sqrt5_table(+1),
            _all_indices,
        ),
        BridgeSpec(
            "sqrt5-conjugate",
            "psi(1, -sqrt5, n) follows the mirrored table",
            _psi_values(1, -SQRT5),
            _sqrt5_table(-1),
            _all_indices,
        ),
        BridgeSpec(
            "alternating-closed-form",
            "psi(1, 2, n) equals (-1)**floor(n/2) * 2**parity(n-1) * n**parity(n)",
            _psi_values(1, 2),
            _each(lambda n: (-1) ** half(n) * 2 ** parity(n - 1) * n ** parity(n)),
            _all_indices,
        ),
        BridgeSpec(
            "lucas-signed",
            "psi(1, 3, n) equals (-1)**floor(n/2) * L(n) (numerical lemma that "
            "subsumes the power-of-two cases)",
            _psi_values(1, 3),
            _each(lambda n, luc: (-1) ** half(n) * luc[n], lucas_terms),
            _all_indices,
        ),
        BridgeSpec(
            "fermat-signed",
            "psi(2, 5, n) equals (-1)**floor(n/2) * (2**n + (-1)**n) (numerical "
            "lemma that subsumes the power-of-two cases)",
            _psi_values(2, 5),
            _each(lambda n: (-1) ** half(n) * (2**n + (-1) ** n)),
            _all_indices,
        ),
        BridgeSpec(
            "pow2-direction-values",
            "at n = 2**l, l > 3: psi(1,0,n)=2, psi(0,1,n)=1, psi(1,1,n)=-1, "
            "psi(1,2,n)=2, psi(1,sqrt2,n)=2, psi(1,3,n)=L(n), psi(2,5,n)=2**n+1",
            _psi_tuples((1, 0), (0, 1), (1, 1), (1, 2), (1, SQRT2), (1, 3), (2, 5)),
            _each(lambda n, luc: (2, 1, -1, 2, QuadExt(2, 2, 0), luc[n], 2**n + 1), lucas_terms),
            lambda n_max: [k for k in _POW2_SET if k <= n_max],
        ),
        BridgeSpec(
            "golden-ratio-even-power",
            "psi(1, phi - 1, n) equals -phi at n = 2**l with l even, l > 3",
            _psi_values(1, GOLDEN_RATIO - 1),
            _each(lambda n: -GOLDEN_RATIO),
            lambda n_max: [k for k in (16, 64) if k <= n_max],
        ),
        BridgeSpec(
            "fibonacci-derivative",
            "the r = 1 expansion coefficient at (-1, -3 | 1, 2) equals n * F(n-1)",
            _coeff_row(1, -1, -3, 1, 2),
            _each(lambda n, fib: n * fib[n - 1] if half(n) >= 1 else None, fibonacci_terms),
            _indices_from(2),
        ),
        BridgeSpec(
            "lucas-direction",
            "the r = 0 expansion coefficient at (-1, -3 | 1, 2) equals L(n)",
            _coeff_row(0, -1, -3, 1, 2),
            lucas_terms,
            _indices_from(0),
        ),
    ]
    return specs


# -- periodicity --------------------------------------------------------------


class PeriodResult(Record):
    """The period of psi(a, b, .) and its first ``period`` terms; ``table``
    defaults to a fresh empty list."""

    __slots__ = ("a", "b", "period", "table")

    def __init__(self, a, b, period: int, table: list | None = None):
        self.a = a
        self.b = b
        self.period = period
        self.table = [] if table is None else table


def detect_period(a, b, cap: int = 10_000) -> PeriodResult:
    """Minimal period of the state (psi(n), psi(n+1), n mod 2) from n = 0.

    The parity component matters because the recurrence coefficient
    alternates: the value pair alone can recur at a half period with the
    wrong parity.  Raises if no recurrence is found within ``cap`` steps.
    """
    terms = psi_terms(a, b)
    values = list(islice(terms, 2))
    start = tuple(values)
    for n in range(2, cap + 2, 2):
        values += islice(terms, 2)
        if (values[n], values[n + 1]) == start:
            return PeriodResult(a, b, n, values[:n])
    raise ValueError(f"no period found within cap {cap}")


PHI = GOLDEN_RATIO

PERIOD_CATALOGUE: dict[str, dict] = {
    "b-one": {
        "a": 1,
        "b": 1,
        "period": 6,
        "table": [2, 1, -1, -2, -1, 1],
    },
    "b-zero": {
        "a": 1,
        "b": 0,
        "period": 8,
        "table": [2, 1, 0, -1, -2, -1, 0, 1],
    },
    "b-minus-one": {
        "a": 1,
        "b": -1,
        "period": 12,
        "table": [2, 1, 1, 0, -1, -1, -2, -1, -1, 0, 1, 1],
    },
    "b-sqrt2": {
        "a": 1,
        "b": SQRT2,
        "period": 16,
        "table": [
            2,
            1,
            -SQRT2,
            -1 - SQRT2,
            0,
            1 + SQRT2,
            SQRT2,
            -1,
            -2,
            -1,
            SQRT2,
            1 + SQRT2,
            0,
            -1 - SQRT2,
            -SQRT2,
            1,
        ],
    },
    "b-sqrt3": {
        "a": 1,
        "b": SQRT3,
        "period": 24,
        "table": [
            2,
            1,
            -SQRT3,
            -1 - SQRT3,
            1,
            2 + SQRT3,
            0,
            -2 - SQRT3,
            -1,
            1 + SQRT3,
            SQRT3,
            -1,
            -2,
            -1,
            SQRT3,
            1 + SQRT3,
            -1,
            -2 - SQRT3,
            0,
            2 + SQRT3,
            1,
            -1 - SQRT3,
            -SQRT3,
            1,
        ],
    },
    "b-golden": {
        "a": 1,
        "b": PHI - 1,
        "period": 20,
        "table": [
            2,
            1,
            1 - PHI,
            -PHI,
            -PHI,
            0,
            PHI,
            PHI,
            PHI - 1,
            -1,
            -2,
            -1,
            PHI - 1,
            PHI,
            PHI,
            0,
            -PHI,
            -PHI,
            1 - PHI,
            1,
        ],
    },
}


def catalogue_entry(label: str) -> dict:
    if label not in PERIOD_CATALOGUE:
        raise ValueError(f"unknown catalogue label {label!r}")
    return PERIOD_CATALOGUE[label]
