"""One workload run in a fresh interpreter: the measured side of the benchmark.

A closed loop with one caller.  Each operation is a real CLI invocation made
in-process through the console-script entry point ``psikit.cli.main`` with
stdout captured, so the ``cli`` layer is measured but no interpreter start is
paid per operation.  Before each operation the worker runs ``gc.collect()``
and clears every functools cache in psikit, so each invocation starts cold as
a real one would; neither is timed.

Usage (normally started by run.py):

    python3 perfbench/worker.py --root CHECKOUT --workload NAME --seed N
        --seconds S --trace 0|1 --outdir DIR [--tiny]

Prints one JSON object on stdout: the pass timings, the outputs of the first
pass, the operations that failed, the peak RSS and, with --trace 1, the
per-layer metrics of one traced pass.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import sys
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

import reference
import tracing
import workloads


def read_files(outdir: str) -> dict[str, str]:
    return {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(Path(outdir).iterdir())
        if path.is_file()
    }


class Runner:
    def __init__(self, cli, ops: list[dict], caches: list) -> None:
        self.cli = cli  # looked up per call, so a traced ``main`` is used
        self.ops = ops
        self.caches = caches
        self.first: list[dict] | None = None  # outputs of the first pass
        self.failures: list[dict] = []  # non-zero exit or crash
        self.mismatches: list[dict] = []  # output differs from the first pass
        self.attempted = 0
        self.tracer: tracing.Tracer | None = None

    def _cold(self) -> None:
        if self.tracer is not None:
            self.tracer.harvest_cache_hits()
        gc.collect()
        for cache in self.caches:
            cache.cache_clear()

    def run_pass(self, index: int) -> dict:
        """One pass over the operation list.

        Returns the raw wall and CPU seconds of each CLI call, the reference
        computation's times around each call, and the pass sums scaled to the
        reference's nominal speed: each call's time times NOMINAL_S over the
        mean of the reference times just before and just after it.
        """
        op_wall, op_cpu, refs = [], [], []
        outputs = []
        for op in self.ops:
            self._cold()
            refs.append(reference.measure())
            buf = io.StringIO()
            error = None
            t0, c0 = perf_counter(), process_time()
            try:
                with redirect_stdout(buf):
                    code = self.cli.main(list(op["argv"]))
            except Exception:  # a crash is a failed operation, not a crashed run
                code, error = None, traceback.format_exc(limit=4)
            c1, t1 = process_time(), perf_counter()
            op_wall.append(t1 - t0)
            op_cpu.append(c1 - c0)
            self.attempted += 1
            out = {"code": code, "stdout": buf.getvalue()}
            if op["kind"] == "repro" and code is not None:
                out["files"] = read_files(op["outdir"])
            if error is not None:
                out["error"] = error
            outputs.append(out)
            where = {"pass": index, "op": len(outputs) - 1}
            if code != 0:
                reason = f"exit code {code}" + (f": {error}" if error else "")
                self.failures.append({**where, "reason": reason})
            elif self.first is not None and out != self.first[where["op"]]:
                self.mismatches.append(where)
        self._cold()
        refs.append(reference.measure())
        if self.first is None:
            self.first = outputs

        def scaled(times, k):
            return sum(
                t * reference.NOMINAL_S * 2 / (refs[i][k] + refs[i + 1][k])
                for i, t in enumerate(times)
            )

        return {"wall_s": scaled(op_wall, 0), "cpu_s": scaled(op_cpu, 1),
                "raw_wall_s": sum(op_wall), "raw_cpu_s": sum(op_cpu),
                "op_wall_s": op_wall, "op_cpu_s": op_cpu, "ref_s": refs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    # Import psikit from the checkout's source tree and nowhere else.
    src = Path(args.root, "src").resolve()
    sys.path.insert(0, str(src))
    import psikit.cli

    if not Path(psikit.cli.__file__).resolve().is_relative_to(src):
        print(f"psikit imported from {psikit.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    repro_dir = os.path.join(args.outdir, "repro")
    ops = workloads.build(args.workload, args.seed, args.tiny, repro_dir)
    runner = Runner(psikit.cli, ops, tracing.find_caches())
    passes = []
    result: dict = {}
    started = perf_counter()
    if args.trace:
        # One untraced pass to compare against, then one traced pass.
        passes.append(runner.run_pass(0))
        runner.tracer = tracer = tracing.Tracer()
        tracer.install()
        traced_wall = runner.run_pass(1)["wall_s"]
        trace_path = Path(args.outdir, "spans.jsonl")
        tracer.write(trace_path)
        result["trace"] = {
            "metrics": tracer.metrics(),
            "wall_s": traced_wall,
            "spans": len(tracer.spans),
            "file": str(trace_path),
        }
    else:
        while True:
            passes.append(runner.run_pass(len(passes)))
            if perf_counter() - started >= args.seconds:
                break
    result.update(
        {
            "passes": passes,
            "attempted": runner.attempted,
            "failures": runner.failures,
            "mismatches": runner.mismatches,
            "first": runner.first,
            "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
    )
    json.dump(result, sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
