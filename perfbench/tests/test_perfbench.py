"""The benchmark's own tests: smoke runs at tiny sizes, and proof that every
output check rejects a corrupted output.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tiny_outputs(tmp_path_factory):
    """First-pass outputs of one tiny untraced pass per workload."""
    outs = {}
    for name in workloads.WORKLOADS:
        outdir = tmp_path_factory.mktemp(name)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
             "--workload", name, "--seed", "7", "--seconds", "0", "--trace", "0",
             "--outdir", str(outdir), "--tiny"],
            capture_output=True, text=True, cwd=ROOT, env=run.child_env(), timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        ops = workloads.build(name, 7, True, str(outdir / "repro"))
        outs[name] = (ops, result)
    return outs


def _problems(ops, outputs, kind):
    seed = 12345
    return [p for i, (op, out) in enumerate(zip(ops, outputs)) if op["kind"] == kind
            for p in checks.check(op, out, seed + i)]


# -- independent arithmetic ------------------------------------------------------


def _recurrence(a, b, n):
    lo, hi = 2, 1
    if n == 0:
        return 2
    for k in range(1, n):
        lo, hi = hi, (2 * a - b) ** (k % 2) * hi - a * lo
    return hi


@pytest.mark.parametrize("m", [None, 97, 2**61 + 1])
def test_matrix_power_matches_the_recurrence(m):
    for a in range(-4, 5):
        for b in range(-4, 5):
            for n in range(0, 50):
                want = _recurrence(a, b, n)
                assert checks.psi_mod_matrix(a, b, n, m) == (want if m is None else want % m)


def test_inputs_repeat_per_seed_and_avoid_special_forms():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 3) == workloads.build(name, 3)
    ops = workloads.build("ladder-generic", 11)
    assert all(op["mod"] & (op["mod"] + 1) for op in ops)  # never 2^k - 1
    assert sum(op["a"] == 1 for op in ops) < len(ops) / 2
    for op in workloads.build("mersenne-large", 11):
        assert workloads.is_prime(op.get("p", 5))


# -- the checks pass on real outputs and fail on corrupted ones ----------------------


def test_checks_pass_on_real_outputs(tiny_outputs):
    for name, (ops, result) in tiny_outputs.items():
        assert result["failures"] == []
        for i, (op, out) in enumerate(zip(ops, result["first"])):
            assert checks.check(op, out, i) == [], (name, op["argv"])


def _edit(ops, result, kind, fn):
    outputs = copy.deepcopy(result["first"])
    i = next(i for i, op in enumerate(ops) if op["kind"] == kind)
    outputs[i] = fn(outputs[i])
    return outputs


def _edit_record(out, fn, key="stdout", line=0):
    lines = out[key].splitlines()
    rec = json.loads(lines[line])
    fn(rec)
    lines[line] = json.dumps(rec)
    out[key] = "\n".join(lines) + "\n"
    return out


def test_flipped_verdict_fails(tiny_outputs):
    ops, result = tiny_outputs["mersenne-large"]

    def flip(rec):
        rec["verdict"] = "composite" if rec["verdict"] == "prime" else "prime"

    for kind in ("mersenne-test", "mersenne-scan"):
        outputs = _edit(ops, result, kind, lambda o: _edit_record(o, flip))
        assert _problems(ops, outputs, kind)


def test_perturbed_residues_fail(tiny_outputs):
    ops, result = tiny_outputs["mersenne-large"]
    for method in ("composite", "mu"):
        i = next(i for i, op in enumerate(ops) if op.get("method") == method)
        out = copy.deepcopy(result["first"][i])

        def bump(rec):
            rec["residues"][-1] = str(int(rec["residues"][-1]) + 1)

        assert checks.check(ops[i], _edit_record(out, bump), 0)


def test_perturbed_ladder_value_fails(tiny_outputs):
    ops, result = tiny_outputs["ladder-generic"]

    def bump(rec):
        rec["value"] = str((int(rec["value"]) + 1) % int(rec["mod"]))

    outputs = _edit(ops, result, "psi-ladder", lambda o: _edit_record(o, bump))
    assert _problems(ops, outputs, "psi-ladder")


def _bump_first_coefficient(text: str) -> str:
    """Add one to the coefficient of the first printed term."""
    sign, digits, rest = re.match(r"(-?)(\d*)(.*)", text).groups()
    if digits and not rest.startswith("*"):  # a constant term
        return f"{sign}{int(digits) + 1}{rest}"
    coeff = int(digits) if digits else 1
    return f"{sign}{coeff + 1}*{rest.removeprefix('*')}"


def test_altered_coefficients_fail(tiny_outputs):
    ops, result = tiny_outputs["symbolic"]

    def poly(rec):
        rec["poly"] = _bump_first_coefficient(rec["poly"])

    outputs = _edit(ops, result, "psi-poly", lambda o: _edit_record(o, poly))
    assert _problems(ops, outputs, "psi-poly")

    def table(rec):
        rec["entries"][-1] = _bump_first_coefficient(rec["entries"][-1])

    for line in range(6):  # every n of the tiny range
        outputs = _edit(ops, result, "coeff-table",
                        lambda o: _edit_record(o, table, line=line))
        assert _problems(ops, outputs, "coeff-table"), line


def test_false_records_and_gaps_fail(tiny_outputs):
    ops, result = tiny_outputs["symbolic"]

    def false(rec):
        rec["ok"] = False

    for kind in ("verify", "bridges-check"):
        outputs = _edit(ops, result, kind, lambda o: _edit_record(o, false))
        assert _problems(ops, outputs, kind)

    def drop_last(out):
        out["stdout"] = "".join(out["stdout"].splitlines(keepends=True)[:-1])
        return out

    outputs = _edit(ops, result, "verify", drop_last)
    assert _problems(ops, outputs, "verify")


def test_corrupted_repro_files_fail(tiny_outputs):
    ops, result = tiny_outputs["repro-all"]
    corruptions = {
        "battery.ndjson": lambda r: r.update(verdict="composite"),
        "periods.ndjson": lambda r: r.update(matches_catalogue=False),
        "verify.ndjson": lambda r: r.update(ok=False),
    }
    for name, fn in corruptions.items():
        outputs = _edit(ops, result, "repro", lambda o: _edit_file(o, name, fn))
        assert _problems(ops, outputs, "repro"), name


def _edit_file(out, name, fn):
    out["files"] = dict(out["files"])
    holder = {"stdout": out["files"][name]}
    out["files"][name] = _edit_record(holder, fn)["stdout"]
    return out


def test_a_failed_check_fails_the_operation_in_every_pass(tiny_outputs):
    ops, result = tiny_outputs["ladder-generic"]
    result = copy.deepcopy(result)
    result["passes"] = result["passes"] * 3
    result["first"] = _edit(ops, result, "psi-ladder", lambda o: _edit_record(
        o, lambda rec: rec.update(value="0")))
    correct, failed, problems = run.judge(ops, result, 0)
    assert not correct and failed == 3 and problems


# -- the command as the benchmark contract has it --------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(name):
    result = last_json(bench("--workload", name, "--seed", "3", "--seconds", "0", "--tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_runs_report_every_layer():
    seen = set()
    for name in workloads.WORKLOADS:
        result = last_json(
            bench("--workload", name, "--seed", "3", "--seconds", "0", "--trace", "1", "--tiny"))
        assert result["correct"] is True and result["failed"] == 0
        assert [m["name"] for m in SPEC["per_layer"]] == list(result["metrics"])
        seen |= {k for k, v in result["metrics"].items() if v["value"]}
    # MersenneMod.reduce has no caller in the program yet; every other layer
    # metric must be reached by some workload, or its name is wrong.
    missing = {m["name"] for m in SPEC["per_layer"]} - seen - {"exactmath.MersenneMod.reduce.calls"}
    assert not missing


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = bench("--workload", "symbolic", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def test_tracer_rebinds_every_imported_name():
    sys.path.insert(0, str(ROOT / "src"))
    import psikit.cli  # noqa: F401  (imports every psikit module)
    import tracing

    mods = {m.__name__.rpartition(".")[2]: m for m in tracing.psikit_modules()}
    originals = [mods["psicore"].psi_mod_ladder, mods["psicore"].psi_recurrence,
                 mods["psicore"].psi_symbolic, mods["mersenne"].psi_test,
                 mods["multipoly"].SparsePoly.__mul__]
    tracing.Tracer().install()
    for mod in tracing.psikit_modules():
        for value in vars(mod).values():
            held = [value]
            if type(value) is dict:
                held = list(value.values())
            elif isinstance(value, type):
                held = list(vars(value).values())
            assert not any(v is orig for v in held for orig in originals), mod.__name__
