import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stdout
from math import isqrt
from pathlib import Path

import pytest

import psikit
from psikit import mersenne
from psikit.cli import (
    EXIT_CAPACITY,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    _parse_index,
    _scan_exponents,
    main,
    render_records,
)
from psikit import multipoly
from psikit.eightlevels import coeff_table_text, verify_expansion
from psikit.errors import CapacityError
from psikit.limits import LIMITS
from psikit.mersenne import METHODS, is_prime_small
from psikit.psicore import psi_recurrence, psi_symbolic

INDEX_BITS = LIMITS["index bits"].ceiling


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def run_json(*argv):
    code, out = run_cli(*argv)
    records = [json.loads(line) for line in out.splitlines() if line]
    return code, records


class TestPsiCommands:
    def test_eval_modular(self):
        code, recs = run_json("psi", "eval", "--a", "1", "--b", "4", "--n", "16", "--mod", "31")
        assert code == EXIT_OK
        assert recs[0]["value"] == "0"

    def test_eval_exact(self):
        code, recs = run_json("psi", "eval", "--a", "-1", "--b", "-3", "--n", "5")
        assert code == EXIT_OK and recs[0]["value"] == "11"

    def test_eval_rational(self):
        code, recs = run_json("psi", "eval", "--a", "1/2", "--b", "1", "--n", "4")
        assert code == EXIT_OK and recs[0]["value"] == "1/2"

    def test_eval_rational_is_the_recurrence_over_fractions(self):
        # the integer recurrence at the common numerators, over q**(n // 2)
        from fractions import Fraction

        rng = random.Random(28)
        for _ in range(60):
            a, b = (Fraction(rng.randint(-40, 40), rng.randint(1, 40)) for _ in range(2))
            n = rng.randint(0, 300)
            code, recs = run_json("psi", "eval", f"--a={a}", f"--b={b}", "--n", str(n))
            assert code == EXIT_OK, (a, b, n)
            assert recs[0]["value"] == str(psi_recurrence(a, b, n)), (a, b, n)

    def test_a_negative_fraction_is_a_value_after_its_option(self, capsys):
        # argparse takes -1 and -1.5 as values, and so -1/3, with or without "="
        for option, value, other in (("--a", "-1/3", "--b"), ("--b", "-2/5", "--a")):
            spaced = run_cli("psi", "eval", option, value, other, "1", "--n", "5")
            assert spaced == run_cli("psi", "eval", f"{option}={value}", other, "1", "--n", "5")
            assert spaced[0] == EXIT_OK
        assert run_cli("psi", "eval", "--a", "--b", "1", "--n", "5") == (EXIT_USAGE, "")
        assert "argument --a: expected one argument" in capsys.readouterr().err

    def test_ladder_power_syntax(self):
        code, recs = run_json(
            "psi", "ladder", "--a", "1", "--b", "4", "--n", "2^12", "--mod", "8191"
        )
        assert code == EXIT_OK and recs[0]["value"] == "0"

    def test_modulus_index_grammar(self):
        for command in ("ladder", "eval"):
            code, recs = run_json(
                "psi", command, "--a", "1", "--b", "4", "--n", "2^60", "--mod", "2^61-1"
            )
            assert code == EXIT_OK and recs[0]["mod"] == str((1 << 61) - 1), command
            assert recs[0]["value"] == run_json(
                "psi", command, "--a", "1", "--b", "4", "--n", "2^60",
                "--mod", "2305843009213693951",
            )[1][0]["value"]
        code, recs = run_json("psi", "ladder", "--a", "3", "--b", "5", "--n", "99", "--mod", "1")
        assert code == EXIT_USAGE and recs[0]["reason"] == "modulus must be >= 2"

    def test_records_in_full(self):
        # eval --mod and ladder make one record by one ladder, and differ in
        # the command name only
        for argv, line in (
            ("eval --a 3 --b -5 --n 37 --mod 1000003",
             '{"command":"psi-eval","a":"3","b":"-5","n":"37","mod":"1000003","value":"375996"}'),
            ("eval --a 3 --b -5 --n 37",
             '{"command":"psi-eval","a":"3","b":"-5","n":"37","mod":null,"value":"-64624199"}'),
            ("ladder --a 3 --b -5 --n 37 --mod 1000003",
             '{"command":"psi-ladder","a":"3","b":"-5","n":"37","mod":"1000003","value":"375996"}'),
        ):
            assert run_cli("psi", *argv.split()) == (EXIT_OK, line + "\n"), argv

    def test_poly(self):
        code, recs = run_json("psi", "poly", "--n", "7")
        assert code == EXIT_OK
        assert recs[0]["poly"] == "a^3 + 2*a^2*b - a*b^2 - b^3"

    def test_poly_is_the_kernel_text_and_row_0_of_the_table(self):
        # the polynomial's own printing is the oracle of the row writer
        for n in range(LIMITS["psi poly"].ceiling + 1):
            code, recs = run_json("psi", "poly", "--n", str(n))
            assert code == EXIT_OK
            assert recs == [{"command": "psi-poly", "n": n, "poly": str(psi_symbolic(n))}], n
            if n <= LIMITS["coeff table"].ceiling:
                assert recs[0]["poly"] == coeff_table_text(n)[0], n

    def test_poly_builds_no_polynomial(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a polynomial was built")

        psi_symbolic.cache_clear()
        monkeypatch.setattr(multipoly, "_make", refuse)
        monkeypatch.setattr(multipoly.SparsePoly, "__init__", refuse)
        for n in (0, 1, 7, LIMITS["psi poly"].ceiling):
            assert run_json("psi", "poly", "--n", str(n))[0] == EXIT_OK, n

    @pytest.mark.parametrize("n, code, reason", [
        (-1, EXIT_USAGE, '"usage","reason":"index must be >= 0"'),
        (257, EXIT_CAPACITY, '"capacity","reason":"symbolic index 257 exceeds cap 256"'),
    ])
    def test_poly_refusals(self, n, code, reason):
        line = f'{{"command":"psi","error":{reason}}}\n'
        assert run_cli("psi", "poly", "--n", str(n)) == (code, line)


class TestFieldOrderAndFormats:
    def test_report_field_order(self):
        code, out = run_cli("mersenne", "test", "--p", "5", "--method", "ll")
        assert code == EXIT_OK
        assert list(json.loads(out)) == [
            "method",
            "p",
            "verdict",
            "residues",
            "ratios",
            "elapsed_ms",
            "notes",
        ]

    def test_text_rendering(self):
        code, out = run_cli("mersenne", "test", "--p", "5", "--method", "ll", "--format", "text")
        assert code == EXIT_OK
        assert "method=ll" in out and "verdict=prime" in out

    def test_csv_rendering(self):
        code, out = run_cli("mersenne", "scan", "--pmax", "13", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "method,p,verdict,residues,ratios,elapsed_ms,notes"
        assert len(lines) == 5  # header + p in {5,7,11,13}

    def test_big_integers_as_strings(self):
        code, recs = run_json("mersenne", "test", "--p", "13", "--method", "ab")
        ratios = recs[0]["ratios"]
        assert ratios[0] == "8191"
        assert isinstance(ratios[1], str) and len(ratios[1]) > 1000


class TestScan:
    def test_known_classification_psi(self):
        code, recs = run_json("mersenne", "scan", "--pmax", "31", "--method", "psi")
        assert code == EXIT_OK
        verdicts = {r["p"]: r["verdict"] for r in recs}
        assert verdicts == {
            5: "prime", 7: "prime", 11: "composite", 13: "prime",
            17: "prime", 19: "prime", 23: "composite", 29: "composite",
            31: "prime",
        }

    def test_ll_and_psi_agree(self):
        # each method starts at its own first exponent, ll at 3 and psi at 5;
        # on the exponents both scan, the verdicts agree
        _, ll_recs = run_json("mersenne", "scan", "--pmax", "31", "--method", "ll")
        _, psi_recs = run_json("mersenne", "scan", "--pmax", "31", "--method", "psi")
        ll = {r["p"]: r["verdict"] for r in ll_recs}
        psi = {r["p"]: r["verdict"] for r in psi_recs}
        assert min(ll) == 3 and min(psi) == 5
        assert sorted(ll.keys() - psi.keys()) == [3]
        assert {p: ll[p] for p in psi} == psi

    def test_repeat_run_is_deterministic(self):
        argv = ("mersenne", "scan", "--pmax", "31", "--method", "psi")
        assert run_cli(*argv) == run_cli(*argv)


class TestVerifySuites:
    def test_eightlevels(self):
        code, recs = run_json("verify", "eightlevels", "--nmax", "8")
        assert code == EXIT_OK and all(r["ok"] for r in recs)

    def test_eightlevels_sweep_equals_per_index_checks(self):
        # one pass per point for n > 16 gives the records of the per-n checks
        for seed in (3, 11):
            code, recs = run_json("verify", "eightlevels", "--nmax", "40", "--seed", str(seed))
            assert code == EXIT_OK
            assert recs == [
                {"command": "verify", "suite": "eightlevels", "n": n,
                 "ok": verify_expansion(n, seed=seed)}
                for n in range(1, 41)
            ]

    def test_eightlevels_sweep_detects_corruption(self, monkeypatch):
        # one wrong coefficient at one n > 16 must fail that record alone
        import psikit.eightlevels as el

        orig = el.coeff_values
        calls = []

        def corrupted(n, a, b, alpha, beta):
            calls.append(n)
            lists = orig(n, a, b, alpha, beta)
            lists[25][3] += 1
            return lists

        monkeypatch.setattr(el, "coeff_values", corrupted)
        code, recs = run_json("verify", "eightlevels", "--nmax", "30", "--seed", "0")
        assert calls == [30] * 5  # one pass per sampled point
        assert code == EXIT_CHECK_FAILED
        assert [r["n"] for r in recs] == list(range(1, 31))
        assert [r["n"] for r in recs if not r["ok"]] == [25]

    def test_powersums(self):
        code, recs = run_json("verify", "powersums", "--nmax", "6")
        assert code == EXIT_OK and all(r["ok"] for r in recs)

    def test_theta(self):
        code, recs = run_json("verify", "theta", "--nmax", "6")
        assert code == EXIT_OK and all(r["ok"] for r in recs)

    def test_fundamental(self):
        code, recs = run_json("verify", "fundamental", "--nmax", "6")
        assert code == EXIT_OK and all(r["ok"] for r in recs)

    def test_fundamental_detects_a_wrong_psi_coefficient(self, monkeypatch):
        # one coefficient of the printed binary form off by one for n >= 6:
        # the power-sum half of the second fundamental check fails at each
        import psikit.eightlevels as el
        import psikit.psicore as pc

        orig = pc.psi_coeffs

        def corrupted(n):
            coeffs = orig(n)
            if n >= 6:
                coeffs[1] += 1
            return coeffs

        for module in (pc, el):
            monkeypatch.setattr(module, "psi_coeffs", corrupted)
        caches = (pc.psi_symbolic, el.coeff_table_polys)
        for cache in caches:
            cache.cache_clear()
        try:
            code, recs = run_json("verify", "fundamental", "--nmax", "51")
        finally:
            for cache in caches:
                cache.cache_clear()
        assert code == EXIT_CHECK_FAILED
        assert [r["n"] for r in recs] == list(range(1, 52))
        assert [r["n"] for r in recs if not r["ok"]] == list(range(6, 52))


class TestBridgesAndIdentities:
    def test_bridges_check(self):
        code, recs = run_json("bridges", "check", "--nmax", "24")
        assert code == EXIT_OK and all(r["ok"] for r in recs)

    def test_bridges_check_at_degree_cap(self):
        code, recs = run_json("bridges", "check", "--nmax", "64")
        assert code == EXIT_OK and len(recs) == 19
        assert all(r["ok"] for r in recs)

    def test_bridges_list(self):
        code, recs = run_json("bridges", "list")
        names = {r["name"] for r in recs}
        assert "lucas" in names and "chebyshev-first-kind" in names

    def test_period(self):
        code, recs = run_json("bridges", "period", "--label", "b-sqrt2")
        assert code == EXIT_OK
        assert recs[0]["period"] == 16 and recs[0]["matches_catalogue"]

    def test_periods_all(self):
        code, recs = run_json("bridges", "period")
        assert code == EXIT_OK
        assert sorted(r["period"] for r in recs) == [6, 8, 12, 16, 20, 24]

    def test_tau(self):
        code, recs = run_json("identities", "tau", "--l", "3")
        assert code == EXIT_OK
        assert [r["value"] for r in recs] == ["1", "-1", "-1"]


# What a command needs besides its bounded inputs.
OPERANDS = {"psi eval": ["--a", "1", "--b", "2"]}


def _setting(name):
    """The argv that sets the bounded input ``name`` of limits.LIMITS to a
    value, with every other bounded option of its command at its first value."""
    command, option, _, _ = LIMITS[name]
    others = [arg for limit in LIMITS.values()
              if limit.command == command and limit.bounds != option and limit.first is not None
              for arg in (limit.bounds, str(limit.first))]
    return lambda v: [*command.split(), *OPERANDS.get(command, []), *others, option, str(v)]


# Each bounded option: the argv that sets it, its first value and its ceiling.
BOUNDED = {name: (_setting(name), limit.first, limit.ceiling)
           for name, limit in LIMITS.items() if limit.first is not None}


class TestExitCodes:
    def test_usage_error(self):
        code, _ = run_cli("nonsense")
        assert code == EXIT_USAGE

    def test_usage_error_bad_value(self):
        # a zero denominator is a bad value too, not a failed check
        for a, b in (("x", "1"), ("1/0", "4"), ("0/0", "4"), ("1", "1/0")):
            code, recs = run_json("psi", "eval", "--a", a, "--b", b, "--n", "5")
            assert code == EXIT_USAGE and recs[0]["error"] == "usage", (a, b)

    @pytest.mark.parametrize("argv, reason", [
        (["psi", "eval", "--a", "1/2", "--b", "4", "--n", "10", "--mod", "7"],
         "modular evaluation needs integer parameters"),
        (["psi", "eval", "--a", "1", "--b", "3/2", "--n", "10", "--mod", "7"],
         "modular evaluation needs integer parameters"),
        (["psi", "eval", "--a", "1", "--b", "4", "--n", "10", "--mod", "1"],
         "modulus must be >= 2"),
        (["mersenne", "test", "--p", "9", "--method", "psi"], "exponent 9 is not prime"),
        (["mersenne", "test", "--p", "3", "--method", "psi"],
         "method requires prime p >= 5, got 3"),
    ], ids=["eval-rational-a", "eval-rational-b", "eval-mod-1", "test-p-9", "test-p-3"])
    def test_parameter_and_exponent_checks(self, argv, reason):
        code, recs = run_json(*argv)
        assert code == EXIT_USAGE
        assert recs == [{"command": argv[0], "error": "usage", "reason": reason}]

    # several bad inputs at once: eval checks the modulus, then a and b, then
    # that they are integers, then n (its range, then whether psi prints, on
    # the exact route; the index, then the modulus, for the record's echo);
    # ladder checks a, b, that they are integers, then n, then the modulus
    @pytest.mark.parametrize("argv, code, reason", [
        ("eval --a x --b y --n -1 --mod 1", EXIT_USAGE, "modulus must be >= 2"),
        ("eval --a x --b y --n -1 --mod 2^2000000", EXIT_CAPACITY,
         "modulus '2^2000000' has up to 2000001 bits; cap is 1048576"),
        ("eval --a x --b y --n -1 --mod 7", EXIT_USAGE, "not an exact scalar: 'x'"),
        ("eval --a 1 --b y --n -1 --mod 7", EXIT_USAGE, "not an exact scalar: 'y'"),
        ("eval --a 1/2 --b 4 --n -1 --mod 7", EXIT_USAGE,
         "modular evaluation needs integer parameters"),
        ("eval --a 1 --b 3/2 --n 2^2000000 --mod 7", EXIT_USAGE,
         "modular evaluation needs integer parameters"),
        ("eval --a 1 --b 4 --n -1 --mod 7", EXIT_USAGE, "index must be >= 0"),
        ("eval --a 1 --b 4 --n 2^2000000 --mod 7", EXIT_CAPACITY,
         "index '2^2000000' has up to 2000001 bits; cap is 1048576"),
        ("eval --a 1 --b 4 --n 2^19936 --mod 2^19937-1", EXIT_CAPACITY,
         "the index has up to 6002 decimal digits; the int-to-str limit is 4300 "
         "(PYTHONINTMAXSTRDIGITS)"),
        ("eval --a x --b y --n -1", EXIT_USAGE, "not an exact scalar: 'x'"),
        ("eval --a 3 --b 1 --n -1", EXIT_USAGE, "index must be >= 0"),
        ("eval --a 3 --b 1 --n 100001", EXIT_CAPACITY,
         "psi eval: n=100001 is above the ceiling 100000"),
        ("ladder --a x --b y --n -1 --mod 1", EXIT_USAGE,
         "invalid literal for int() with base 10: 'x'"),
        ("ladder --a 1/2 --b 4 --n -1 --mod 1", EXIT_USAGE,
         "modular evaluation needs integer parameters"),
        ("ladder --a 1 --b y --n -1 --mod 1", EXIT_USAGE,
         "invalid literal for int() with base 10: 'y'"),
        ("ladder --a 1 --b 4 --n -1 --mod 1", EXIT_USAGE, "index must be >= 0"),
        ("ladder --a 1 --b 4 --n 2^2000000 --mod 1", EXIT_CAPACITY,
         "index '2^2000000' has up to 2000001 bits; cap is 1048576"),
        ("ladder --a 1 --b 4 --n 5 --mod 1", EXIT_USAGE, "modulus must be >= 2"),
        ("ladder --a 1 --b 4 --n 5 --mod 2^2000000", EXIT_CAPACITY,
         "modulus '2^2000000' has up to 2000001 bits; cap is 1048576"),
        ("ladder --a 1 --b 4 --n 2^19936 --mod 2^19937-1", EXIT_CAPACITY,
         "the index has up to 6002 decimal digits; the int-to-str limit is 4300 "
         "(PYTHONINTMAXSTRDIGITS)"),
        ("ladder --a 1 --b 4 --n 5 --mod 2^19937-1", EXIT_CAPACITY,
         "the modulus has up to 6002 decimal digits; the int-to-str limit is 4300 "
         "(PYTHONINTMAXSTRDIGITS)"),
    ])
    def test_psi_error_precedence(self, argv, code, reason, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
        error = "capacity" if code == EXIT_CAPACITY else "usage"
        assert run_json("psi", *argv.split()) == (
            code, [{"command": "psi", "error": error, "reason": reason}]
        )

    @pytest.mark.parametrize("a, b, reason", [
        ("1/3", "1", "modular evaluation needs integer parameters"),
        ("1", "1/3", "modular evaluation needs integer parameters"),
        ("-1/3", "1", "modular evaluation needs integer parameters"),
        ("1", "-2/5", "modular evaluation needs integer parameters"),
        ("4/2", "1", "modular evaluation needs integer parameters"),
        ("1/0", "1", "not an exact scalar: '1/0'"),
    ])
    def test_ladder_reads_a_fraction_as_eval_mod_does(self, a, b, reason):
        # both routes give the same record for the same fraction, and exit 2
        for command in ("ladder", "eval"):
            assert run_json("psi", command, "--a", a, "--b", b, "--n", "5", "--mod", "7") == (
                EXIT_USAGE, [{"command": "psi", "error": "usage", "reason": reason}]
            ), command

    def test_capacity_error(self):
        code, recs = run_json("mersenne", "test", "--p", "29", "--method", "ab")
        assert code == EXIT_CAPACITY and recs[0]["error"] == "capacity"

    def test_max_p_is_a_usage_error(self, capsys):
        # each method has one ceiling on p, and no option moves it
        code = main(["mersenne", "test", "--p", "13", "--method", "necessary", "--max-p", "13"])
        assert code == EXIT_USAGE and capsys.readouterr().out == ""

    def test_sum_and_necessary_run_at_their_ceilings(self):
        # 2^14281 - 1 is composite; its residues print at CPython's default limit
        p = LIMITS["mersenne test sum"].ceiling
        code, recs = run_json("mersenne", "test", "--p", str(p), "--method", "sum")
        assert code == EXIT_OK and recs[0]["verdict"] == "condition-fails"
        assert 4200 < len(recs[0]["residues"][0]) <= 4300
        p = LIMITS["mersenne test necessary"].ceiling
        code, recs = run_json("mersenne", "test", "--p", str(p), "--method", "necessary")
        assert code == EXIT_OK and recs[0]["verdict"] == "condition-fails"
        assert recs[0]["residues"] == ["13938257"]

    def test_unprintable_ab_ratio_is_capacity(self, monkeypatch):
        # psi(1, 4, 2^16) has about 18700 digits, past CPython's default 4300
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
        started = time.perf_counter()
        code, recs = run_json("mersenne", "test", "--p", "17", "--method", "ab")
        assert code == EXIT_CAPACITY and "digits" in recs[0]["reason"]
        assert time.perf_counter() - started < 1.0

    def test_unprintable_exact_value_is_refused_before_the_work(self, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
        started = time.perf_counter()
        code, recs = run_json("psi", "eval", "--a", "3", "--b", "1", "--n", "20000")
        assert code == EXIT_CAPACITY and recs[0]["error"] == "capacity"
        assert time.perf_counter() - started < 1.0
        # a large value within the limit still prints
        code, recs = run_json("psi", "eval", "--a", "1", "--b", "4", "--n", "10000")
        assert code == EXIT_OK and len(recs[0]["value"]) > 2800

    def test_unprintable_residue_is_refused_before_the_work(self, monkeypatch):
        # a residue mod 2^14303 - 1 may have 4306 digits, past CPython's default 4300
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
        for argv in (
            ("mersenne", "test", "--p", "14303", "--method", "psi"),
            ("mersenne", "test", "--p", "14303", "--method", "ll"),
            ("mersenne", "scan", "--pmin", "14281", "--pmax", "14303"),
        ):
            started = time.perf_counter()
            code, recs = run_json(*argv)
            assert code == EXIT_CAPACITY and "digits" in recs[0]["reason"], argv
            assert time.perf_counter() - started < 1.0, argv

    def test_unprintable_sum_or_necessary_residue_is_refused_before_the_work(self, monkeypatch):
        # under a lowered limit a residue mod 2^9941 - 1 (2993 digits) cannot print
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 2000)
        for method in ("sum", "necessary"):
            started = time.perf_counter()
            code, recs = run_json("mersenne", "test", "--p", "9941", "--method", method)
            assert code == EXIT_CAPACITY and "digits" in recs[0]["reason"], method
            assert time.perf_counter() - started < 1.0, method

    def test_unprintable_index_or_modulus_is_refused_before_the_work(self, monkeypatch):
        # the record echoes n and the modulus in decimal; 2^19936 has 6002 digits
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
        for command in ("ladder", "eval"):
            for n, mod in (("2^19936", "7"), ("5", "2^19937-1")):
                started = time.perf_counter()
                code, recs = run_json(
                    "psi", command, "--a", "1", "--b", "4", "--n", n, "--mod", mod
                )
                assert code == EXIT_CAPACITY and "digits" in recs[0]["reason"], (n, mod)
                assert time.perf_counter() - started < 1.0, (n, mod)

    def test_cap_is_checked_before_the_exponent(self):
        # 2^61 - 1 is prime: trial division of p would run for hours
        for method in ("sum", "necessary", "ab"):
            started = time.perf_counter()
            code, recs = run_json(
                "mersenne", "test", "--p", "2305843009213693951", "--method", method
            )
            assert code == EXIT_CAPACITY and recs[0]["error"] == "capacity", method
            assert time.perf_counter() - started < 1.0, method

    @staticmethod
    def run_without_str_limit(argvs):
        """(exit code, seconds, error record) of each argv, run in one
        subprocess with the int-to-str limit lifted."""
        code = (
            "import io, json, sys, time\n"
            "from contextlib import redirect_stdout\n"
            "from psikit import cli\n"
            "if hasattr(sys, 'set_int_max_str_digits'):\n"
            "    sys.set_int_max_str_digits(0)\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    started = time.perf_counter()\n"
            "    with redirect_stdout(io.StringIO()) as out:\n"
            "        code = cli.main(argv)\n"
            "    seconds = time.perf_counter() - started\n"
            "    print(code, seconds, out.getvalue().strip())\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                              capture_output=True, text=True, env=env, timeout=60, check=True)
        lines = [line.split(" ", 2) for line in proc.stdout.splitlines()]
        assert len(lines) == len(argvs)
        return [(int(code), float(seconds), json.loads(rec)) for code, seconds, rec in lines]

    def test_cap_is_checked_before_the_exponent_at_any_str_limit(self):
        # with the int-to-str limit lifted, only the ceiling stops a huge p
        # before its trial division; 10**18 + 3 is prime, as is 44501
        runs = [(method, p) for method in ("ll", "psi", "composite", "mu")
                for p in (10**18 + 3, 44501)]
        results = self.run_without_str_limit(
            [["mersenne", "test", "--p", str(p), "--method", method] for method, p in runs]
        )
        for (method, p), (exit_code, seconds, record) in zip(runs, results):
            assert exit_code == EXIT_CAPACITY and seconds < 1.0, (method, p)
            ceiling = LIMITS[f"mersenne test {method}"].ceiling
            assert record["reason"].endswith(f"cap is p <= {ceiling}")
            assert ceiling == 44497 < p, (method, p)

    def test_psi_work_is_bounded_at_any_str_limit(self):
        # each would run for hours, or run out of memory; at the default
        # limit the unprintable value, index or modulus is refused first
        results = self.run_without_str_limit([
            ["psi", "eval", "--a", "9" * 300, "--b", "1", "--n", "100000"],
            ["psi", "ladder", "--a", "3", "--b", "1", "--n", "2^1000000",
             "--mod", "2^1000000+1"],
            ["psi", "eval", "--a", "3", "--b", "1", "--n", "2^1000000",
             "--mod", "2^1000000+1"],
        ])
        ladder = (f"the ladder's work (index bits * modulus bits**2) {1000001**3} "
                  f"is above the ceiling {LIMITS['psi ladder work'].ceiling}")
        cap = LIMITS["psi eval value bits"].ceiling
        reasons = [f"psi at n=100000 has up to 49829689 bits; cap is {cap}",
                   ladder, ladder]
        for (exit_code, seconds, record), reason in zip(results, reasons):
            assert exit_code == EXIT_CAPACITY and seconds < 1.0, record
            assert record == {"command": "psi", "error": "capacity", "reason": reason}

    def test_rational_eval_at_the_value_ceiling_is_fast(self):
        # one fraction at the end, not one normalised at every step
        [(exit_code, seconds, record)] = self.run_without_str_limit(
            [["psi", "eval", "--a", "1/3", "--b", "1", "--n", "20500"]]
        )
        assert exit_code == EXIT_OK and seconds < 1.0, record
        assert record["command"] == "psi-eval" and len(record["value"]) > 4300

    def test_mu_max_cap(self):
        started = time.perf_counter()
        code, recs = run_json("mersenne", "test", "--p", "5", "--method", "mu", "--mu-max", "17")
        assert code == EXIT_CAPACITY and recs[0]["error"] == "capacity"
        assert time.perf_counter() - started < 1.0
        code, recs = run_json("mersenne", "test", "--p", "5", "--method", "mu", "--mu-max", "16")
        assert code == EXIT_OK and len(recs[0]["residues"]) == 16

    def test_powersums_cap_is_capacity(self):
        code, recs = run_json("verify", "powersums", "--nmax", "11")
        assert code == EXIT_CAPACITY and recs[0]["error"] == "capacity"

    @pytest.mark.parametrize("name", sorted(BOUNDED))
    def test_each_ceiling_plus_one_is_refused_at_once(self, name):
        argv, _, ceiling = BOUNDED[name]
        for value in (ceiling + 1, ceiling + 7):
            started = time.perf_counter()
            code, recs = run_json(*argv(value))
            assert code == EXIT_CAPACITY and len(recs) == 1, value
            assert recs[0]["error"] == "capacity", value
            assert time.perf_counter() - started < 1.0, value

    @pytest.mark.parametrize("name", sorted(BOUNDED))
    def test_each_first_value_minus_one_is_a_usage_error(self, name):
        argv, first, _ = BOUNDED[name]
        for value in (first - 1, first - 7):
            code, recs = run_json(*argv(value))
            assert code == EXIT_USAGE and len(recs) == 1, value
            assert recs[0]["error"] == "usage", value
            # the one bounded option of verify, bridges and identities is checked
            # by the command line, which names it
            if name.startswith(("verify ", "bridges ", "identities ")):
                option = LIMITS[name].bounds.lstrip("-")
                assert recs[0]["reason"] == (
                    f"{name}: {option}={value} is below the first index {first}"
                )

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_each_method_accepts_its_first_p(self, method):
        first = LIMITS[f"mersenne test {method}"].first
        code, recs = run_json("mersenne", "test", "--p", str(first), "--method", method)
        assert code == EXIT_OK and len(recs) == 1
        assert recs[0]["method"] == method and recs[0]["p"] == first

    def test_scan_work_ceiling_is_that_of_pmax_4000(self):
        work = sum(p * p * isqrt(p) for p in range(3, 4001) if is_prime_small(p))
        assert work == LIMITS["mersenne scan work"].ceiling
        # the widest scan, the one measured at about a second and the benchmark's
        for lower, pmax in ((3, 4000), (1000, 2300), (2200, 2300)):
            primes = [p for p in range(lower, pmax + 1) if is_prime_small(p)]
            assert _scan_exponents(lower, pmax) == primes

    @pytest.mark.parametrize("argv", [
        ("mersenne", "scan", "--pmax", "4001", "--method", "ll"),
        ("mersenne", "scan", "--pmax", "4500"),
        ("mersenne", "scan", "--pmin", "14000", "--pmax", "14281"),
        ("mersenne", "scan", "--pmin", str(10**30), "--pmax", str(10**30 + 99)),
    ], ids=["pmax-4001", "pmax-4500", "pmin-14000", "pmin-1e30"])
    def test_scan_above_the_work_ceiling_is_refused_at_once(self, argv, monkeypatch):
        # with the int-to-str limit lifted, the work ceiling alone bounds a scan
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        trial_division = mersenne.is_prime_small

        def small_only(p):
            assert p < 10**6, f"p={p} was trial-divided"
            return trial_division(p)

        monkeypatch.setattr(mersenne, "is_prime_small", small_only)
        started = time.perf_counter()
        code, recs = run_json(*argv)
        assert code == EXIT_CAPACITY and len(recs) == 1
        assert recs[0]["error"] == "capacity"
        ceiling = LIMITS["mersenne scan work"].ceiling
        assert recs[0]["reason"].endswith(f"is above the ceiling {ceiling}")
        assert time.perf_counter() - started < 1.0

    def test_nmax_at_the_first_index_runs(self):
        for suite, first in (("eightlevels", 1), ("theta", 1), ("fundamental", 1),
                             ("powersums", 2)):
            code, recs = run_json("verify", suite, "--nmax", str(first))
            assert code == EXIT_OK, suite
            assert [(r["n"], r["ok"]) for r in recs] == [(first, True)], suite
        code, recs = run_json("bridges", "check", "--nmax", "0")
        assert code == EXIT_OK and len(recs) == 19
        assert all(r["ok"] and r["nmax"] == 0 for r in recs)

    def test_empty_ranges_are_a_usage_error(self):
        for argv in (
            ("coeff", "table", "--nmin", "5", "--n", "3"),
            ("mersenne", "scan", "--pmax", "-5"),
            ("mersenne", "scan", "--pmin", "40", "--pmax", "31"),
            ("mersenne", "scan", "--pmax", "4", "--method", "psi"),
        ):
            code, recs = run_json(*argv)
            assert code == EXIT_USAGE and len(recs) == 1, argv
            assert recs[0]["error"] == "usage" and "below" in recs[0]["reason"], argv

    def test_a_range_without_a_prime_runs(self):
        code, recs = run_json("mersenne", "scan", "--pmin", "24", "--pmax", "28")
        assert code == EXIT_OK and recs == []
        code, recs = run_json("mersenne", "scan", "--pmin", "3", "--pmax", "3", "--method", "ll")
        assert code == EXIT_OK and [r["p"] for r in recs] == [3]
        code, recs = run_json("coeff", "table", "--nmin", "3", "--n", "3")
        assert code == EXIT_OK and [r["n"] for r in recs] == [3]

    def test_coeff_table_above_degree_cap(self):
        started = time.perf_counter()
        code, recs = run_json("coeff", "table", "--nmin", "1", "--n", "130")
        assert code == EXIT_CAPACITY and len(recs) == 1 and recs[0]["error"] == "capacity"
        assert time.perf_counter() - started < 1.0
        # a table built at the limit does not let the next index through
        code, recs = run_json("coeff", "table", "--n", "129")
        assert code == EXIT_OK and len(recs[0]["entries"]) == 65
        started = time.perf_counter()
        code, recs = run_json("coeff", "table", "--n", "130")
        assert code == EXIT_CAPACITY and recs[0]["error"] == "capacity"
        assert time.perf_counter() - started < 1.0

    def test_huge_power_index_refused_before_building(self):
        started = time.perf_counter()
        code, recs = run_json(
            "psi", "ladder", "--a", "1", "--b", "4", "--n", "2^100000000", "--mod", "31"
        )
        assert code == EXIT_CAPACITY and recs[0]["error"] == "capacity"
        # 3^(10^11) would take hours to build; the estimate refuses it at once
        for text in ("5*3^100000000000", "2^100000000"):
            with pytest.raises(CapacityError):
                _parse_index(text)
        assert time.perf_counter() - started < 1.0

    def test_index_bit_estimate_is_exact_for_powers_of_two(self):
        # 2^k has k + 1 bits: the estimate takes ceil(log2 2) = 1 bit per factor
        assert _parse_index(f"2^{INDEX_BITS - 1}").bit_length() == INDEX_BITS
        with pytest.raises(CapacityError, match=f"has up to {INDEX_BITS + 1} bits"):
            _parse_index(f"2^{INDEX_BITS}")
        # a base that is not a power of two rounds its bits per factor up
        assert _parse_index("3^100") == 3**100
        with pytest.raises(CapacityError):
            _parse_index(f"3^{INDEX_BITS // 2 + 1}")
        assert _parse_index(f"4^{INDEX_BITS // 2 - 1}") == 1 << (INDEX_BITS - 2)

    def test_index_forms_within_cap(self):
        assert _parse_index("2^60") == 1 << 60
        assert _parse_index(" 3*2^61 ") == 3 << 61
        assert _parse_index("37634") == 37634
        assert _parse_index(f"2^{INDEX_BITS // 2 - 1}") == 1 << (INDEX_BITS // 2 - 1)
        assert _parse_index("2^61-1") == (1 << 61) - 1
        assert _parse_index("3*2^61+5") == (3 << 61) + 5
        assert _parse_index("2^7-1", 2, "modulus") == 127
        for text in ("2^-1", "2^3-9", "2^61--1"):
            with pytest.raises(ValueError):
                _parse_index(text)

    def test_help_is_not_an_error(self):
        code, _ = run_cli("--help")
        assert code == EXIT_OK


# One cheap run of each command path, and one of each error record.  Each
# pins the exit code and the SHA-256 (first 16 hex digits) of the JSON stdout
# that the eagerly built parser gave, with --seed 5 and the outdir relative.
PARITY_RUNS = {
    "psi eval": (["psi", "eval", "--a", "1/2", "--b", "1", "--n", "9"],
                 0, "e000543f30409799"),
    "psi poly": (["psi", "poly", "--n", "7"], 0, "974795f79a15aeb5"),
    "psi ladder": (["psi", "ladder", "--a", "3", "--b", "5", "--n", "2^70+3", "--mod", "1009"],
                   0, "044485753cf43bc5"),
    "coeff table": (["coeff", "table", "--nmin", "1", "--n", "5"], 0, "1fbddd9a98184754"),
    "verify eightlevels": (["verify", "eightlevels", "--nmax", "6"], 0, "f13c678a1476f362"),
    "verify powersums": (["verify", "powersums", "--nmax", "4"], 0, "3fc36fe605b00dc5"),
    "verify theta": (["verify", "theta", "--nmax", "4"], 0, "365834a0024a2a19"),
    "verify fundamental": (["verify", "fundamental", "--nmax", "4"], 0, "d28ab444247096d5"),
    "mersenne test": (["mersenne", "test", "--p", "13", "--method", "mu", "--mu-max", "4"],
                      0, "9c18e09eed61e46c"),
    "mersenne scan": (["mersenne", "scan", "--pmax", "31", "--method", "ll"],
                      0, "3bdc867f312bf924"),
    "bridges check": (["bridges", "check", "--nmax", "8"], 0, "4c1c526397441d4a"),
    "bridges list": (["bridges", "list"], 0, "b3895e7ec6a72dce"),
    "bridges period": (["bridges", "period", "--label", "b-sqrt2"], 0, "00a94ceb9d3008a2"),
    "identities tau": (["identities", "tau", "--l", "4", "--variant", "half"],
                       0, "7794e3e5cec7b002"),
    "repro all": (["repro", "all", "--outdir", "r"], 0, "71855838ae512386"),
    "capacity error": (["mersenne", "test", "--p", "29", "--method", "ab"],
                       EXIT_CAPACITY, "91b2c93bc5522ef2"),
    "value error": (["psi", "ladder", "--a", "3", "--b", "5", "--n", "99", "--mod", "1"],
                    EXIT_USAGE, "5a0e9e54accca5a9"),
}

# Each error exit of the streaming contract: every bounded input one past its
# ceiling and one below its first value, and an empty coeff table range.
ERROR_EXITS = {
    **{f"{name} above": (argv(ceiling + 1), EXIT_CAPACITY)
       for name, (argv, _, ceiling) in BOUNDED.items()},
    **{f"{name} below": (argv(first - 1), EXIT_USAGE)
       for name, (argv, first, _) in BOUNDED.items()},
    "coeff table empty range": (["coeff", "table", "--nmin", "5", "--n", "3"], EXIT_USAGE),
}


class TestStreaming:
    @pytest.mark.parametrize("name", sorted(ERROR_EXITS))
    def test_an_error_exit_prints_the_error_alone(self, name):
        argv, code = ERROR_EXITS[name]
        got, out = run_cli(*argv)
        error = json.loads(out)  # one line, or this raises
        assert got == code and list(error) == ["command", "error", "reason"]
        for fmt in ("text", "csv"):
            buf = io.StringIO()
            render_records([error], fmt, buf)
            assert run_cli("--format", fmt, *argv) == (code, buf.getvalue()), fmt

    def test_each_record_is_written_before_the_next_is_made(self, monkeypatch):
        from psikit import eightlevels

        buf, seen = io.StringIO(), []
        build = eightlevels.coeff_table_text

        def watched(n):
            seen.append((n, buf.getvalue().count("\n")))
            return build(n)

        monkeypatch.setattr(eightlevels, "coeff_table_text", watched)
        with redirect_stdout(buf):
            assert main(["coeff", "table", "--nmin", "3", "--n", "7"]) == EXIT_OK
        assert seen == [(n, n - 3) for n in range(3, 8)]

    def test_a_failed_check_after_records_exits_1(self, monkeypatch):
        from psikit import eightlevels

        monkeypatch.setattr(eightlevels, "theta_sum_check", lambda n: n != 2)
        code, recs = run_json("verify", "theta", "--nmax", "3")
        assert code == EXIT_CHECK_FAILED
        assert [r["ok"] for r in recs] == [True, False, True]

    @pytest.mark.parametrize("fmt, digest", [
        ("csv", "82bade94dff249ce162a67c35b4ae93bec7478da6e5edf7ab51349d1a0e80597"),
        ("text", "9c118cf1b01b4516ee77985193ef96963ac306f5af2ccc822266ede077132745"),
    ])
    def test_coeff_table_in_csv_and_text_is_unchanged(self, fmt, digest):
        code, out = run_cli("--format", fmt, "coeff", "table", "--nmin", "1", "--n", "12")
        assert code == EXIT_OK and hashlib.sha256(out.encode()).hexdigest() == digest


GLOBAL_OPTIONS = ("--format", "--seed", "--timing")
# The options of each leaf, as its --help names them.
LEAF_OPTIONS = {
    ("psi", "eval"): ("--a", "--b", "--n", "--mod"),
    ("psi", "poly"): ("--n",),
    ("psi", "ladder"): ("--a", "--b", "--n", "--mod"),
    ("coeff", "table"): ("--n", "--nmin"),
    ("verify",): ("eightlevels", "powersums", "theta", "fundamental", "--nmax"),
    ("mersenne", "test"): ("--p", "--method", "--mu", "--mu-max"),
    ("mersenne", "scan"): ("--pmax", "--pmin", "--method"),
    ("bridges", "check"): ("--nmax",),
    ("bridges", "list"): (),
    ("bridges", "period"): ("--label",),
    ("identities", "tau"): ("--l", "--variant"),
    ("repro", "all"): ("--outdir",),
}


class TestParserParity:
    @pytest.mark.parametrize("name", sorted(PARITY_RUNS))
    def test_records_and_exit_codes(self, name, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv, code, digest = PARITY_RUNS[name]
        for fmt in ("json", "text", "csv"):
            flags = ["--format", fmt, "--seed", "5"]
            before = run_cli(*flags, *argv)
            assert run_cli(*argv, *flags) == before, fmt
            assert before[0] == code, fmt
            if fmt == "json":
                out = before[1]
                assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest
                records = [json.loads(line) for line in out.splitlines()]
            else:
                buf = io.StringIO()
                render_records(records, fmt, buf)
                assert before[1] == buf.getvalue(), fmt
        if code in (EXIT_USAGE, EXIT_CAPACITY):
            assert records[0]["command"] == argv[0]

    @pytest.mark.parametrize("argv", [
        [],
        ["nosuch"],
        ["--format", "xml", "bridges", "list"],
        ["mersenne"],
        ["mersenne", "nosuch"],
        ["mersenne", "--format", "text", "test", "--p", "5", "--method", "ll"],
        ["mersenne", "--seed", "3", "scan", "--pmax", "13"],
        ["mersenne", "test", "--method", "ll"],
        ["mersenne", "test", "--p", "5", "--method", "nosuch"],
        ["mersenne", "test", "--p", "five", "--method", "ll"],
        ["verify"],
        ["verify", "nosuch"],
        ["bridges", "list", "--nosuch"],
        ["bridges", "list", "extra"],
        ["repro", "all", "--outdir"],
    ])
    def test_usage_errors_exit_2_without_a_record(self, argv, capsys):
        assert run_cli(*argv) == (EXIT_USAGE, "")
        assert "usage: psikit" in capsys.readouterr().err

    def test_help_at_each_level(self):
        code, out = run_cli("--help")
        assert code == EXIT_OK
        assert all(flag in out for flag in GLOBAL_OPTIONS)
        assert all(word in out for word in {path[0] for path in LEAF_OPTIONS})
        for path, options in LEAF_OPTIONS.items():
            if len(path) == 2:
                code, out = run_cli(path[0], "--help")
                leaves = [leaf for group, *leaf in LEAF_OPTIONS if group == path[0]]
                assert code == EXIT_OK and all(leaf[0] in out for leaf in leaves), path
            code, out = run_cli(*path, "--help")
            assert code == EXIT_OK, path
            assert out.startswith(f"usage: psikit {' '.join(path)} "), path
            assert all(option in out for option in options + GLOBAL_OPTIONS), path


class TestColdStart:
    def test_import_skips_dataclasses_inspect_and_csv(self):
        # the modules the import adds, so that modules a site hook loads on
        # one machine and not another do not count
        code = (
            "import sys; before = set(sys.modules); import psikit.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(psikit.__file__).parent.parent))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env,
            timeout=60, check=True,
        )
        added = set(proc.stdout.split())
        assert "psikit.cli" in added
        assert not added & {"dataclasses", "inspect", "csv"}

    def test_import_without_site_skips_pathlib_and_random(self):
        # -S keeps site hooks from loading them first; only repro needs
        # pathlib and only the randomized checks need random
        code = (
            "import sys; import psikit.cli; "
            "print(' '.join(m for m in ('pathlib', 'random') if m in sys.modules))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(psikit.__file__).parent.parent))
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env,
            timeout=60, check=True,
        )
        assert proc.stdout.split() == []

    def test_import_and_parser_skip_fractions_decimal_and_numbers(self):
        # rationals are parsed or returned at the edges only; a module that a
        # site hook loaded before psikit's import does not count
        code = (
            "import sys; before = set(sys.modules); import psikit.cli; "
            "psikit.cli.build_parser(); print(' '.join(m for m in "
            "('fractions', 'decimal', 'numbers') if m in sys.modules and m not in before))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(psikit.__file__).parent.parent))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env,
            timeout=60, check=True,
        )
        assert proc.stdout.split() == []

    @staticmethod
    def parsers_built(call: str, *args: str) -> list[str]:
        """The prog of each ArgumentParser built, in order, by ``call`` in a
        fresh interpreter, its output discarded."""
        code = (
            "import argparse, io, sys\n"
            "from contextlib import redirect_stdout\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    init(self, *args, **kwargs)\n"
            "    built.append(self.prog)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import psikit.cli as cli\n"
            "with redirect_stdout(io.StringIO()):\n"
            f"    {call}\n"
            "print(' '.join(prog.replace(' ', '.') for prog in built))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(psikit.__file__).parent.parent))
        proc = subprocess.run(
            [sys.executable, "-c", code, *args], capture_output=True, text=True,
            env=env, timeout=60, check=True,
        )
        return [prog.replace(".", " ") for prog in proc.stdout.split()]

    def test_parsers_are_built_only_for_the_invoked_command(self, tmp_path):
        assert self.parsers_built("cli.build_parser()") == ["psikit"]
        # command words that come first go straight to the leaf's parser
        argv = ["mersenne", "test", "--p", "5", "--method", "ll"]
        assert self.parsers_built(f"cli.main({argv})") == ["psikit mersenne test"]
        assert self.parsers_built("cli.main(['verify', 'theta'])") == ["psikit verify"]
        # the root and group parsers read the flags or --help before a word
        assert self.parsers_built(f"cli.main({['--seed', '3'] + argv})") == [
            "psikit", "psikit mersenne test"
        ]
        assert self.parsers_built("cli.main(['mersenne', '--help'])") == ["psikit mersenne"]
        # repro all parses its jobs as any command line: each leaf once
        built = self.parsers_built(
            "cli.main(['repro', 'all', '--outdir', sys.argv[1]])", str(tmp_path)
        )
        leaves = {" ".join(argv[:1] if argv[0] == "verify" else argv[:2])
                  for runs in EVIDENCE_RUNS.values() for argv in runs}
        assert len(leaves) == 7
        assert sorted(built) == sorted(
            ["psikit repro all"] + [f"psikit {words}" for words in leaves]
        )

    def test_import_without_site_skips_typing(self):
        # site preloads typing on some machines; -S shows what psikit imports
        code = "import sys; import psikit.cli; print('typing' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(psikit.__file__).parent.parent))
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env,
            timeout=60, check=True,
        )
        assert proc.stdout.split() == ["False"]


class TestDeterminism:
    def test_double_run_byte_identical(self):
        args = ("verify", "eightlevels", "--nmax", "18", "--seed", "3")
        _, first = run_cli(*args)
        _, second = run_cli(*args)
        assert first == second

    def test_timing_zeroed_by_default(self):
        _, recs = run_json("mersenne", "test", "--p", "13", "--method", "ab")
        assert recs[0]["elapsed_ms"] == 0
        _, recs = run_json("mersenne", "scan", "--pmax", "31")
        assert recs and all(rec["elapsed_ms"] == 0 for rec in recs)

    def test_timing_flag(self):
        for method in sorted(METHODS):
            _, recs = run_json("mersenne", "test", "--p", "13", "--method", method, "--timing")
            assert recs[0]["elapsed_ms"] > 0, method
        _, recs = run_json("mersenne", "scan", "--pmax", "31", "--timing")
        assert len(recs) == 9 and all(rec["elapsed_ms"] > 0 for rec in recs)


# The subcommand runs whose concatenated stdout is each evidence file.
EVIDENCE_RUNS = {
    "scan.ndjson": [["mersenne", "scan", "--pmax", "31", "--method", m] for m in ("ll", "psi")],
    "battery.ndjson": [
        ["mersenne", "test", "--p", str(p), "--method", *method]
        for p in (5, 7, 11, 13)
        for method in (
            ["ll"], ["psi"], ["mu", "--mu-max", "12"], ["sum", "--mu", "1"],
            ["sum", "--mu", "2"], ["necessary"], ["composite"], ["ab"],
        )
    ],
    "coeff_tables.ndjson": [["coeff", "table", "--nmin", "1", "--n", "12"]],
    "verify.ndjson": [
        ["verify", suite, "--seed", "0"]
        for suite in ("eightlevels", "theta", "fundamental", "powersums")
    ],
    "bridges.ndjson": [["bridges", "check", "--nmax", "40"]],
    "periods.ndjson": [["bridges", "period"]],
    "tau.ndjson": [["identities", "tau", "--l", str(l)] for l in range(3, 8)],
}

COMMITTED = Path(__file__).resolve().parent.parent / "docs" / "results"


class TestRepro:
    def test_repro_regenerates_byte_identically(self, tmp_path):
        out1 = tmp_path / "one"
        out2 = tmp_path / "two"
        code1, recs1 = run_json("repro", "all", "--outdir", str(out1))
        # --timing must not reach the files: they stay byte-deterministic
        code2, recs2 = run_json("repro", "all", "--outdir", str(out2), "--timing")
        assert code1 == code2 == EXIT_OK
        assert recs1 and all(r["ok"] for r in recs1)
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2 and files1
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_repro_matches_committed_evidence(self, tmp_path):
        if not COMMITTED.is_dir():
            pytest.skip("evidence base not present")
        out = tmp_path / "fresh"
        code, _ = run_json("repro", "all", "--outdir", str(out))
        assert code == EXIT_OK
        for path in sorted(COMMITTED.iterdir()):
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    @pytest.mark.parametrize("filename", sorted(EVIDENCE_RUNS))
    def test_evidence_file_is_its_subcommand_output(self, filename):
        if not COMMITTED.is_dir():
            pytest.skip("evidence base not present")
        outputs = []
        for argv in EVIDENCE_RUNS[filename]:
            code, out = run_cli(*argv)
            assert code == EXIT_OK, argv
            outputs.append(out)
        assert "".join(outputs) == (COMMITTED / filename).read_text()


class TestExports:
    def test_every_exported_name_resolves(self):
        import importlib
        import pkgutil

        exported = 0
        for info in pkgutil.iter_modules(psikit.__path__):
            module = importlib.import_module(f"psikit.{info.name}")
            names = getattr(module, "__all__", ())
            assert [n for n in names if not hasattr(module, n)] == [], info.name
            exported += len(names)
        assert exported > 50

    def test_removed_names_are_gone(self):
        from psikit import bridges, cli, eightlevels, exactmath, powersums, psicore

        for name in ("mod_inverse", "NotInvertibleError", "tau_identity_check", "psi14_exact"):
            assert not hasattr(psikit, name), name
        assert not hasattr(exactmath, "mod_inverse") and not hasattr(exactmath, "NotInvertibleError")
        assert not hasattr(mersenne, "tau_identity_check") and not hasattr(mersenne, "psi14_exact")
        # each bound is an entry of limits.LIMITS, with no alias left behind
        moved = {
            cli: ("CEILINGS", "INDEX_BITS_CAP", "SCAN_WORK_CEILING", "LADDER_WORK_CEILING",
                  "VALUE_BITS_CEILING"),
            mersenne: ("CEILING_P", "FIRST_P", "MU_MAX_CAP", "SUM_MU_CAP",
                       "FACTOR_SEARCH_CEILING"),
            eightlevels: ("TABLE_DEGREE_CAP",),
            psicore: ("SYMBOLIC_INDEX_CAP",),
            powersums: ("SPECIAL_CASE_CAP",),
        }
        assert sum(map(len, moved.values())) == 13
        for module, names in moved.items():
            for name in names:
                assert not hasattr(module, name), name
                assert name not in getattr(module, "__all__", ()), name
        # the bridges' polynomial families are the oracles of the packed check
        for name in ("pell_lucas_poly_terms", "chebyshev_t_terms", "dickson_d_terms"):
            assert not hasattr(bridges, name) and name not in bridges.__all__, name


class TestReadme:
    def test_bounds_table_has_each_entry_of_the_limits_table(self):
        # one row per entry: its command words, what it bounds, its first
        # value (blank for a measure) and its ceiling, written as an integer
        # expression such as 2^64 - 1 and an optional note
        text = (Path(__file__).parent.parent / "README.md").read_text()
        header = "| command | bounded input | first value | ceiling |"
        rows = {}
        for line in text[text.index(header):].splitlines()[2:]:
            if not line.startswith("|"):
                break
            command, bounds, first, ceiling = (
                cell.strip().replace("`", "") for cell in line.strip("|").split("|")
            )
            expression = re.match(r"[0-9^*+\- ]+", ceiling).group()
            value = eval(expression.replace("^", "**"), {"__builtins__": {}})
            rows[command, bounds] = (int(first) if first else None, value)
        assert rows == {
            (limit.command, limit.bounds): (limit.first, limit.ceiling)
            for limit in LIMITS.values()
        }
        assert len(rows) == len(LIMITS) == 23
