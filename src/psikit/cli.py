"""Command-line front end: batch evaluation, the Mersenne test battery,
identity suites, the period catalogue, and a deterministic reproduction run.

Output is newline-delimited JSON with fixed field order by default; every
subcommand also renders as text or CSV.  Exit codes: 0 success, 1 a
mathematical check failed, 2 usage error, 3 capacity exceeded, 141 the reader
closed stdout (128 + SIGPIPE, what a shell shows for a writer that SIGPIPE
ended).  Reports are byte-deterministic for a fixed seed; wall-clock timings
are zeroed unless --timing is given.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import re
import sys
import time
from math import isqrt

from . import bridges as bridges_mod
from . import eightlevels, mersenne, powersums
from .errors import CapacityError
from .exactmath import _ratio_text, decimal_text
from .limits import LIMITS
from .psicore import (
    _common_denominator,
    psi_bit_bound,
    psi_coeffs,
    psi_mod_ladder,
    psi_recurrence,
    symbolic_degree,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_BROKEN_PIPE = 128 + 13  # SIGPIPE

def _check_range(command: str, value: int) -> int:
    """Refuse, before any work, a value of the command's bounded option above
    its ceiling or below its first value; return the first value."""
    _, option, first, ceiling = LIMITS[command]
    option = option.lstrip("-")
    if value > ceiling:
        raise CapacityError(f"{command}: {option}={value} is above the ceiling {ceiling}")
    if value < first:
        raise ValueError(f"{command}: {option}={value} is below the first index {first}")
    return first


def _parse_scalar(text: str):
    """Accept integers and exact fractions like ``-3`` or ``3/2``: an ``int``,
    or a ``Fraction`` for a text with ``/``."""
    try:
        if "/" in text:
            from fractions import Fraction  # only a fraction's text needs it

            return Fraction(text)
        return int(text)
    except (ValueError, ZeroDivisionError) as err:
        raise ValueError(f"not an exact scalar: {text!r}") from err


def _parse_index(option: str, least: int = 0, what: str = "index") -> int:
    """Accept ``37634``, ``2^61``, ``3*2^61`` and ``2^61-1`` or ``3*2^61+5``
    for astronomically large n (and moduli, with ``least=2``).

    The bit length of ``mult*base^exp`` is bounded by
    ``mult.bit_length() + exp * ceil(log2 |base|)``, the ceiling being
    ``(abs(base) - 1).bit_length()``; above the ceiling of its bits the value
    is refused before the power is built.
    """
    text, mult, offset = option.strip(), 1, 0
    try:
        if "*" in text:
            head, _, text = text.partition("*")
            mult = int(head)
        base_text, caret, exp_text = text.partition("^")
        cut = max(exp_text.rfind("+"), exp_text.rfind("-"))
        if cut > 0:
            exp_text, offset = exp_text[:cut], int(exp_text[cut:])
        base, exp = int(base_text), int(exp_text) if caret else 1
    except ValueError as err:
        raise ValueError(f"not an exact integer: {option!r}") from err
    if caret:
        if exp < 0:
            raise ValueError(f"{what} exponent must be >= 0")
        bits = mult.bit_length() + exp * (abs(base) - 1).bit_length()
        if bits > (cap := LIMITS["index bits"].ceiling):
            raise CapacityError(f"{what} {text!r} has up to {bits} bits; cap is {cap}")
    value = mult * base**exp + offset
    if value < least:
        raise ValueError(f"{what} must be >= {least}")
    return value


# -- record rendering --------------------------------------------------------


def _flatten(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return "|".join(_flatten(v) for v in value)
    if value is None:
        return ""
    return str(value)


def render_records(records, fmt: str, out) -> None:
    """Write each record of the iterable ``records`` as it comes."""
    if fmt == "json":
        for rec in records:
            out.write(json.dumps(rec, separators=(",", ":")) + "\n")
    elif fmt == "csv":
        import csv  # only here: the default JSON output never needs it

        writer = csv.writer(out, lineterminator="\n")
        header = None
        for rec in records:
            if header is None:
                header = list(rec)
                writer.writerow(header)
            writer.writerow([_flatten(rec.get(k)) for k in header])
    else:
        for rec in records:
            out.write(
                " ".join(f"{k}={_flatten(v)}" for k, v in rec.items()) + "\n"
            )


def _record_ok(rec: dict) -> bool:
    return rec.get("ok") is not False and rec.get("matches_catalogue") is not False


def _tally(records, verdicts: list):
    """``records`` unchanged, each one's verdict appended to ``verdicts`` as
    it passes."""
    for rec in records:
        verdicts.append(_record_ok(rec))
        yield rec


# -- subcommand implementations ------------------------------------------------
# Each handler checks all of its input, raising before any record is made, and
# returns its records as an iterable that makes each one when it is reached.


def _psi_record(command: str, a, b, n: int, m: int | None) -> dict:
    """The record of psi(a, b, n), exact when m is None, else mod m by the
    ladder, each integer written in full.  Before the work, each route refuses
    work above its ceiling (the exact route after its range of n)."""
    if m is None:
        _check_range("psi eval", n)
        bits = psi_bit_bound(a, b, n)
        if bits > (cap := LIMITS["psi eval value bits"].ceiling):
            raise CapacityError(f"psi at n={n} has up to {bits} bits; cap is {cap}")
        # psi(A/q, B/q, n) = psi(A, B, n) / q**(n // 2): one fraction, at the end
        q, a_num, b_num = _common_denominator(a, b)
        value = _ratio_text(psi_recurrence(a_num, b_num, n), q ** (n // 2))
    else:
        work = n.bit_length() * m.bit_length() ** 2
        if work > (ceiling := LIMITS["psi ladder work"].ceiling):
            raise CapacityError(f"the ladder's work (index bits * modulus bits**2) {work} "
                                f"is above the ceiling {ceiling}")
        value = decimal_text(psi_mod_ladder(a, b, n, m))
    return {
        "command": command,
        "a": str(a),
        "b": str(b),
        "n": decimal_text(n),
        "mod": None if m is None else decimal_text(m),
        "value": value,
    }


def _require_integers(a, b) -> None:
    """Refuse a fraction as a parameter of the modular route."""
    if not (isinstance(a, int) and isinstance(b, int)):
        raise ValueError("modular evaluation needs integer parameters")


def _cmd_psi(args):
    if args.psi_command == "poly":
        symbolic_degree(args.n)
        # psi(a, b, n) is row 0 of its own coefficient table
        text = eightlevels.coeff_row_texts(psi_coeffs(args.n), 1)[0]
        return [{"command": "psi-poly", "n": args.n, "poly": text}]
    # eval, and ladder, whose --mod is required: the modulus, then a and b,
    # then that they are integers, then n
    mod = None if args.mod is None else _parse_index(args.mod, 2, "modulus")
    a, b = _parse_scalar(args.a), _parse_scalar(args.b)
    if mod is not None:
        _require_integers(a, b)
    return [_psi_record(f"psi-{args.psi_command}", a, b, _parse_index(args.n), mod)]


def _cmd_coeff(args):
    first = args.n if args.nmin is None else args.nmin
    if args.n < first:
        raise ValueError(f"coeff table: n={args.n} is below nmin={first}")
    # the largest index first: a range past the cap is a capacity error,
    # whatever its first index
    for n in (args.n, first):
        eightlevels.table_degree(n)
    return (
        {"command": "coeff-table", "n": n, "entries": eightlevels.coeff_table_text(n)}
        for n in range(first, args.n + 1)
    )


def _each_index(check):
    """A suite that checks each index on its own: (start, nmax, seed) to the
    results of check(n, seed) for n = start..nmax, each made when reached."""
    return lambda start, nmax, seed: (check(n, seed) for n in range(start, nmax + 1))


# Each suite maps (start, nmax, seed) to one result per index start..nmax.
_VERIFY_SUITES = {
    # one coefficient pass per sampled point for the whole range
    "eightlevels": lambda start, nmax, seed: eightlevels.verify_expansion_sweep(
        nmax, seed=seed
    ),
    "powersums": _each_index(lambda n, seed: powersums.verify_special_case(n)),
    "theta": _each_index(lambda n, seed: eightlevels.theta_sum_check(n)),
    "fundamental": _each_index(
        lambda n, seed: (
            eightlevels.first_fundamental_check(n)
            and eightlevels.second_fundamental_check(n)
            and eightlevels.scaling_check(n)
        )
    ),
}


_DEFAULT_NMAX = {"eightlevels": 12, "powersums": 8, "theta": 10, "fundamental": 12}


def _cmd_verify(args):
    nmax = _DEFAULT_NMAX[args.suite] if args.nmax is None else args.nmax
    start = _check_range(f"verify {args.suite}", nmax)
    results = _VERIFY_SUITES[args.suite](start, nmax, args.seed)
    return (
        {"command": "verify", "suite": args.suite, "n": n, "ok": ok}
        for n, ok in enumerate(results, start)
    )


def _timed_report(method: str, p: int, **kwargs) -> mersenne.TestReport:
    """The report of one battery method at p, with the wall time of the call
    as its ``elapsed_ms``."""
    started = time.perf_counter()
    report = mersenne.METHODS[method](p, **kwargs)
    report.elapsed_ms = (time.perf_counter() - started) * 1000
    return report


def _scan_exponents(lower: int, pmax: int) -> list[int]:
    """The prime exponents lower..pmax of a scan, refused before any test
    once their estimated work passes its ceiling.  An exponent whose own
    work passes it counts untested, so that no huge p is trial-divided."""
    ceiling = LIMITS["mersenne scan work"].ceiling
    exponents, work = [], 0
    for p in range(lower, pmax + 1):
        cost = p * p * isqrt(p)
        if cost > ceiling or mersenne.is_prime_small(p):
            work += cost
            if work > ceiling:
                raise CapacityError(f"mersenne scan: work={work} up to p={p} is above "
                                    f"the ceiling {ceiling}")
            exponents.append(p)
    return exponents


def _cmd_mersenne(args):
    if args.mersenne_command == "scan":
        lower = max(args.pmin, LIMITS[f"mersenne test {args.method}"].first)
        if args.pmax < lower:
            raise ValueError(
                f"mersenne scan: pmax={args.pmax} is below the first exponent {lower}"
            )
        return (
            _timed_report(args.method, p).to_dict(with_timing=args.timing)
            for p in _scan_exponents(lower, args.pmax)
        )
    # --mu and --mu-max go to the one method that takes each
    kwargs = {"mu": {"mu_max": args.mu_max}, "sum": {"mu": args.mu}}.get(args.method, {})
    report = _timed_report(args.method, args.p, **kwargs)
    return [report.to_dict(with_timing=args.timing)]


def _bridge_record(spec, nmax: int) -> dict:
    failures = spec.check(nmax)
    return {
        "command": "bridge",
        "name": spec.name,
        "nmax": nmax,
        "ok": not failures,
        "failures": [str(n) for n in failures],
    }


def _period_record(label: str, entry: dict) -> dict:
    result = bridges_mod.detect_period(entry["a"], entry["b"])
    matches = result.period == entry["period"] and list(result.table) == list(entry["table"])
    return {
        "command": "period",
        "label": label,
        "a": str(entry["a"]),
        "b": str(entry["b"]),
        "period": result.period,
        "table": [str(v) for v in result.table],
        "matches_catalogue": matches,
    }


def _cmd_bridges(args):
    registry = bridges_mod.default_bridges()
    if args.bridges_command == "list":
        return ({"command": "bridge-spec", **spec.describe()} for spec in registry)
    if args.bridges_command == "check":
        _check_range("bridges check", args.nmax)
        return (_bridge_record(spec, args.nmax) for spec in registry)
    # period
    labels = [args.label] if args.label else sorted(bridges_mod.PERIOD_CATALOGUE)
    entries = [(label, bridges_mod.catalogue_entry(label)) for label in labels]
    return (_period_record(label, entry) for label, entry in entries)


def _tau_record(l: int, variant: str) -> dict:
    value = mersenne.tau_identity_value(l, variant)
    ok = value == mersenne.tau_identity_expected(l, variant)
    return {"command": "tau", "l": l, "variant": variant, "value": str(value), "ok": ok}


def _cmd_identities(args):
    _check_range("identities tau", args.l)
    variants = mersenne.TAU_SCALE if args.variant == "all" else (args.variant,)
    return (_tau_record(args.l, variant) for variant in variants)


def _powersum_basis_records() -> list[dict]:
    return [
        {
            "command": "powersum-basis",
            "n": n,
            "coeffs": [str(c) for c in eightlevels.expand_powersum_basis(n)],
        }
        for n in range(1, 25)
    ]


def _repro_jobs(seed: int) -> dict:
    """The fixed desk-scale evidence base regenerated by ``repro all``: each
    file and the argv lists of the subcommand runs whose records it holds, in
    order.  Only the power-sum basis has no subcommand; it has a builder."""
    battery_methods = (
        ["ll"], ["psi"], ["mu", "--mu-max", "12"], ["sum", "--mu", "1"],
        ["sum", "--mu", "2"], ["necessary"], ["composite"], ["ab"],
    )
    return {
        "scan.ndjson": [
            ["mersenne", "scan", "--pmax", "31", "--method", m] for m in ("ll", "psi")
        ],
        "battery.ndjson": [
            ["mersenne", "test", "--p", str(p), "--method", *method]
            for p in (5, 7, 11, 13)
            for method in battery_methods
        ],
        "coeff_tables.ndjson": [["coeff", "table", "--nmin", "1", "--n", "12"]],
        "powersum_basis.ndjson": _powersum_basis_records,
        "verify.ndjson": [
            ["verify", suite, "--seed", str(seed)]
            for suite in ("eightlevels", "theta", "fundamental", "powersums")
        ],
        "bridges.ndjson": [["bridges", "check", "--nmax", "40"]],
        "periods.ndjson": [["bridges", "period"]],
        "tau.ndjson": [["identities", "tau", "--l", str(l)] for l in range(3, 8)],
    }


def _repro_file(outdir, filename: str, job) -> dict:
    """Write one evidence file; its summary record."""
    if callable(job):
        records = job()
    else:
        records = [rec for argv in job for rec in _records(parse(argv))]
    buf = io.StringIO()
    render_records(records, "json", buf)
    (outdir / filename).write_text(buf.getvalue())
    return {"command": "repro", "file": str(outdir / filename),
            "records": len(records), "ok": all(map(_record_ok, records))}


def _cmd_repro(args):
    """Run every evidence job, each argv parsed as the command line would be."""
    from pathlib import Path  # only repro writes files

    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ValueError(f"repro all: cannot create --outdir {args.outdir!r}: "
                         f"{err.strerror}") from err
    return (_repro_file(outdir, name, job) for name, job in _repro_jobs(args.seed).items())


def _records(args):
    """The records of one parsed invocation, from its command's handler."""
    return COMMANDS[args.command][2](args)


# -- parser ---------------------------------------------------------------------

_REQUIRED, _REQUIRED_INT = {"required": True}, {"type": int, "required": True}
_MODULUS_HELP = "modulus; accepts 2^p-1 and k*2^e+c"
_SCAN_FIRST_P = [LIMITS[f"mersenne test {method}"].first for method in ("ll", "psi")]

# Each command word maps to its help, either its subcommands or (for a command
# without any) its own arguments, and its handler.  A subcommand word maps to
# its help and arguments; an argument is its name and add_argument keywords.
COMMANDS = {
    "psi": ("evaluate the sequence", {
        "eval": ("exact or modular value", [("--a", _REQUIRED), ("--b", _REQUIRED),
                 ("--n", _REQUIRED), ("--mod", {"help": _MODULUS_HELP})]),
        "poly": ("canonical polynomial in (a, b)", [("--n", _REQUIRED_INT)]),
        "ladder": ("modular value by doubling ladder", [
            ("--a", _REQUIRED), ("--b", _REQUIRED),
            ("--n", {"required": True, "help": "index; accepts 2^k, m*2^k and m*2^k+c"}),
            ("--mod", {"required": True, "help": _MODULUS_HELP}),
        ]),
    }, _cmd_psi),
    "coeff": ("expansion coefficient tables", {
        "table": ("full table for one index", [
            ("--n", _REQUIRED_INT), ("--nmin", {"type": int, "help": "emit a range of tables"}),
        ]),
    }, _cmd_coeff),
    "verify": ("identity suites", [("suite", {"choices": sorted(_VERIFY_SUITES)}),
                                   ("--nmax", {"type": int})], _cmd_verify),
    "mersenne": ("primality test battery", {
        "test": ("one method at one exponent", [
            ("--p", _REQUIRED_INT),
            ("--method", {"choices": sorted(mersenne.METHODS), "required": True}),
            ("--mu", {"type": int, "default": 1}),
            ("--mu-max", {"type": int, "default": 8}),
        ]),
        "scan": ("all prime exponents up to a bound", [
            ("--pmax", _REQUIRED_INT),
            ("--pmin", {"type": int, "default": min(_SCAN_FIRST_P),
                        "help": "first exponent; the scan starts no lower than the method's "
                        "first, {} for ll and {} for psi".format(*_SCAN_FIRST_P)}),
            ("--method", {"choices": ("ll", "psi"), "default": "psi"}),
        ]),
    }, _cmd_mersenne),
    "bridges": ("classical-sequence bridges", {
        "check": ("run every registered bridge", [("--nmax", {"type": int, "default": 40})]),
        "list": ("dump the registry", []),
        "period": ("catalogued period detection", [("--label", {})]),
    }, _cmd_bridges),
    "identities": ("combinatorial identities", {
        "tau": ("power-of-two factorial-product sums", [
            ("--l", _REQUIRED_INT),
            ("--variant", {"choices": (*mersenne.TAU_SCALE, "all"), "default": "all"}),
        ]),
    }, _cmd_identities),
    "repro": ("regenerate the evidence base", {
        "all": ("write every desk-scale table", [("--outdir", {"default": "docs/results"})]),
    }, _cmd_repro),
}

# The global flags, accepted both before the command and after its last word.
_DEFAULTS = {"format": "json", "seed": 0, "timing": False}
_DESCRIPTION = ("Exact toolkit for the psi sequence, its quadratic-form expansions, and\n"
                "the Mersenne test battery.  psikit <command> --help lists its options.")
_GLOBAL_FLAGS = [
    ("--format", {"choices": ("json", "text", "csv"), "default": argparse.SUPPRESS,
                  "help": "output rendering (default: json, newline-delimited)"}),
    ("--seed", {"type": int, "default": argparse.SUPPRESS, "help": "seed for randomized checks"}),
    ("--timing", {"action": "store_true", "default": argparse.SUPPRESS,
                  "help": "include wall-clock timings (breaks byte determinism)"}),
]


def _spec(words: tuple) -> tuple:
    """The help of ``psikit`` and ``words``, and either the table of the words
    that may follow (at the root and at a command with subcommands) or the
    arguments of a leaf."""
    help_, spec = _DESCRIPTION, COMMANDS
    for word in words:
        help_, spec = spec[word][:2]
    return help_, spec


def _dest(words: tuple) -> str:
    """Where the Namespace holds the word after ``words``."""
    return f"{words[0]}_command" if words else "command"


def _build(words: tuple) -> argparse.ArgumentParser:
    """The parser of ``psikit`` and ``words``: at the root and at a command
    with subcommands, the next word, listed in its help, followed by the rest of
    argv; at a leaf, its arguments.  All but a command with subcommands take
    the global flags."""
    help_, spec = _spec(words)
    parser = argparse.ArgumentParser(prog=" ".join(("psikit",) + words), description=help_,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    # -1/3 is a value, as argparse takes -1 and -1.5 already
    parser._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")
    if not isinstance(spec, dict):
        arguments = _GLOBAL_FLAGS + spec
    else:
        parser.epilog = "commands:\n" + "\n".join(f"  {w:<12}{e[0]}" for w, e in spec.items())
        word = {"nargs": argparse.PARSER, "choices": spec, "help": "one of the commands below",
                "metavar": "subcommand" if words else "command"}
        arguments = ([] if words else _GLOBAL_FLAGS) + [(_dest(words), word)]
    for name, kwargs in arguments:
        parser.add_argument(name, **kwargs)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The root parser: the global flags, the command word and the rest of argv."""
    parser = _build(())
    parser.set_defaults(**_DEFAULTS)
    return parser


# Each parser that ``parse`` uses, built once per process.
_parser = functools.cache(_build)


def parse(argv=None) -> argparse.Namespace:
    """Parse a command line (``sys.argv[1:]`` by default); a usage error or
    --help raises SystemExit.  A command word that comes first goes straight to
    the next level, as the root or group parser would take just that word: they
    parse only flags or --help before a word, and report usage errors."""
    args, words = argparse.Namespace(**_DEFAULTS), ()
    rest = sys.argv[1:] if argv is None else list(argv)
    while isinstance(table := _spec(words)[1], dict):
        if not (rest and rest[0] in table):
            rest = getattr(_parser(words).parse_args(rest, namespace=args), _dest(words))
        setattr(args, _dest(words), rest[0])
        words, rest = words + (rest[0],), rest[1:]
    return _parser(words).parse_args(rest, namespace=args)


def main(argv=None) -> int:
    try:
        code = _run(argv)
        # a reader that stopped early shows here, not in the flush at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # what is left to write goes nowhere, so the flush at exit is quiet too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return code


def _run(argv) -> int:
    """Parse ``argv``, run its command and write its records; the exit code."""
    try:
        args = parse(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        records = _records(args)
    except (CapacityError, ValueError) as exc:
        capacity = isinstance(exc, CapacityError)
        error = {"command": args.command, "error": "capacity" if capacity else "usage",
                 "reason": str(exc)}
        render_records([error], args.format, sys.stdout)
        return EXIT_CAPACITY if capacity else EXIT_USAGE

    # each record is written as it is made; the exit code waits for the last
    verdicts: list[bool] = []
    render_records(_tally(records, verdicts), args.format, sys.stdout)
    return EXIT_OK if all(verdicts) else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
