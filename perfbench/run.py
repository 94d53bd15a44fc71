"""psikit benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; psikit is imported from its ``src`` tree, so
nothing needs installing.  A run

1. times, in fresh interpreters, the import of ``psikit.cli`` and the
   building of its parser, half before and half after step 2 (``setup_s``,
   the median);
2. runs the workload in its own fresh process (worker.py): whole passes over
   the workload's fixed operation list until ``--seconds`` have gone by, or,
   with ``--trace 1``, one untraced and one traced pass;
3. checks the outputs of the first pass by independent computations
   (checks.py); later passes must repeat them exactly;
4. prints, as its last line, ``{"correct", "attempted", "failed", "metrics"}``:
   the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
   metrics with ``--trace 1``.

Times are scaled to the nominal speed of a reference computation run next to
each measurement (reference.py), which cancels the machine's speed spells;
the raw seconds are kept in ``run.json``.  Raw results and span files go to
``perfbench/out/``.  Exit code 2, with no
result line, when the checkout has no psikit source or a process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import reference
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Timed cold starts before and after the workload (after one untimed start,
# which also writes the bytecode caches of a fresh checkout): the two halves
# see the machine at two moments, so one slow spell moves the median less.
SETUP_STARTS = 6
# Run in a fresh interpreter: the import of psikit.cli and the building of its
# parser, timed between two runs of the reference computation.
SETUP_CODE = """import sys
from time import perf_counter
sys.path.insert(0, sys.argv[2])
import reference
sys.path.pop(0)
before = reference.measure()[0]
t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
import psikit.cli
psikit.cli.build_parser()
t1 = perf_counter()
print(t1 - t0, before, reference.measure()[0])
"""
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    # The scan's thread pool: its default of 4 threads, at most one per CPU.
    env["PSI_THREADS"] = str(min(4, len(os.sched_getaffinity(0))))
    return env


def cold_starts(src: Path, env: dict[str, str], count: int) -> list[float]:
    """Seconds to import psikit.cli and build its parser in a fresh
    interpreter, scaled to the reference computation's nominal speed, for
    ``count`` starts."""
    times = []
    for _ in range(count):
        try:
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, str(src), str(BENCH)],
                capture_output=True, env=env, cwd=ROOT, timeout=60,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError("a cold start did not finish within 60 s") from exc
        if proc.returncode != 0:
            raise BenchError(f"psikit.cli failed to import:\n{proc.stderr.decode(errors='replace')}")
        took, before, after = map(float, proc.stdout.split())
        times.append(took * reference.NOMINAL_S * 2 / (before + after))
    return times


def run_worker(args, outdir: Path, env: dict[str, str]) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--outdir", str(outdir),
    ] + (["--tiny"] if args.tiny else [])
    try:
        proc = subprocess.run(cmd, capture_output=True, env=env, cwd=ROOT,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed:\n{proc.stderr.decode(errors='replace')}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def judge(ops: list[dict], result: dict, check_seed: int) -> tuple[bool, int, list[str]]:
    """(correct, failed operations, problems) of one worker result.

    An operation fails on a non-zero exit, a crash, an output that differs
    from the first pass, or a first-pass output that fails its check; the
    last two also make the run incorrect.
    """
    failed = {(f["pass"], f["op"]) for f in result["failures"] + result["mismatches"]}
    correct = not result["mismatches"]
    problems = [f"pass {f['pass']} op {f['op']}: {f['reason']}" for f in result["failures"]]
    problems += [f"pass {f['pass']} op {f['op']}: output differs from the first pass"
                 for f in result["mismatches"]]
    passes = len(result["passes"]) + (1 if "trace" in result else 0)
    for i, (op, out) in enumerate(zip(ops, result["first"])):
        if out["code"] != 0:
            continue
        found = checks.check(op, out, check_seed + i)
        if found:
            correct = False
            failed.update((k, i) for k in range(passes))
            problems += [f"op {i} ({' '.join(op['argv'][:3])}): {p}" for p in found]
    return correct, len(failed), problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (the benchmark's own tests)")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "psikit" / "cli.py").is_file() or not spec_path.is_file():
        print(f"no psikit source tree or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    outdir = BENCH / "out" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    env = child_env()
    try:
        setup = []
        if not args.trace:
            cold_starts(src, env, 1)
            setup += cold_starts(src, env, SETUP_STARTS)
        result = run_worker(args, outdir, env)
        if not args.trace:
            setup += cold_starts(src, env, SETUP_STARTS)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(outdir / "repro", ignore_errors=True)

    ops = workloads.build(args.workload, args.seed, args.tiny, str(outdir / "repro"))
    correct, failed, problems = judge(
        ops, result, workloads.check_seed(args.workload, args.seed))
    for line in problems:
        print(line, file=sys.stderr)

    if args.trace:
        layer = result["trace"]["metrics"]
        untraced = result["passes"][0]["wall_s"]
        layer["trace.overhead_pct"] = 100.0 * (result["trace"]["wall_s"] / untraced - 1)
        layer["trace.spans"] = result["trace"]["spans"]
        metrics = {m["name"]: {"value": layer.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p["wall_s"] for p in result["passes"]),
            "cpu_s": statistics.median(p["cpu_s"] for p in result["passes"]),
            "peak_rss_mib": result["peak_rss_kib"] / 1024,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    raw = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "setup_s": setup, "passes": result["passes"],
           "problems": problems}
    (outdir / "run.json").write_text(json.dumps(raw, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
