"""The full-size checks of the test workflow, runnable in any checkout:

    python -m pytest -q ci

Each check runs psikit's command line (or ``perfbench/run.py``) in a fresh
interpreter, with psikit imported from ``src/``, and reads its bounds from
``psikit.limits.LIMITS``.  Tier-1's ``testpaths`` leave this module out; the
workflow runs it after tier-1, the cases named ``perfbench`` on one Python
version only (``-k "not perfbench"`` leaves them out).
"""

import hashlib
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from psikit.bridges import default_bridges  # noqa: E402
from psikit.limits import LIMITS  # noqa: E402

CLI = ("-m", "psikit.cli")
UNLIMITED = {**os.environ, "PYTHONINTMAXSTRDIGITS": "0"}


def run(*args, timeout=120, env=None, cwd=SRC, pin=()):
    """``python *args`` in ``cwd``, after the command ``pin`` (such as
    taskset), killed after ``timeout`` seconds unless it is None: its exit
    code and stdout."""
    proc = subprocess.run([*pin, sys.executable, *args], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, timeout=timeout)
    return proc.returncode, proc.stdout


def _ceilings():
    """Each entry of LIMITS at its ceiling (the coefficient table's from index
    1), with the number of records it must print: one per index for a verify
    suite, one per registered bridge for the bridges check, else None.  Then
    the ladder at its work ceiling, a k-bit index and modulus 2^k - 3, so its
    chain reduces by Barrett."""
    for name in ("verify eightlevels", "verify powersums", "verify theta",
                 "verify fundamental", "bridges check", "identities tau", "coeff table",
                 "mersenne test sum", "mersenne test necessary", "mersenne test ab"):
        command, option, first, ceiling = LIMITS[name]
        count = ceiling - first + 1 if name.startswith("verify ") else None
        if name == "bridges check":
            count = len(default_bridges())
        nmin = " --nmin 1" if name == "coeff table" else ""
        yield f"{command}{nmin} {option} {ceiling}", count
    work, bits = LIMITS["psi ladder work"].ceiling, 1
    while (bits + 1) ** 3 <= work:
        bits += 1
    yield f"psi ladder --a 3 --b 1 --n 2^{bits - 1}+1 --mod 2^{bits}-3", None


PASSED = re.compile(rb'"ok":true(,"failures":\[\])?}$')


@pytest.mark.parametrize("line, records", list(_ceilings()))
def test_at_its_ceiling(line, records):
    """Exit 0 and no failing record.  necessary at its ceiling runs its
    Lucas-Lehmer chain, then stops at the factor 13938257, a record without
    "ok"."""
    code, out = run(*CLI, *line.split())
    assert code == 0 and b'"ok":false' not in out
    if records is not None:
        lines = out.splitlines()
        assert len(lines) == records and all(PASSED.search(x) for x in lines)


# Run in a fresh interpreter with one command line: the command's exit code,
# the sha256 of its stdout and its peak RSS in MiB (ru_maxrss is in KiB on
# Linux), read from it alone by os.wait4.
MEASURED = """import hashlib, os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE)
digest = hashlib.sha256()
for chunk in iter(lambda: child.stdout.read(1 << 16), b""):
    digest.update(chunk)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), digest.hexdigest(), usage.ru_maxrss / 1024)"""


def test_pinned_at_its_ceiling():
    """The two largest polynomial outputs, pinned by sha256, in one 240 s budget.
    Records stream, so the 54 MB table stays under 30 MiB peak RSS.  Linux starts
    a child's ru_maxrss from its spawner's high-water mark (84.6 MiB for a child
    of this test process), so a fresh interpreter, about 17 MiB, spawns each
    command: the bound holds for whichever is larger."""
    deadline = time.monotonic() + 240
    for line, sha256 in (
        (f"coeff table --nmin 1 --n {LIMITS['coeff table'].ceiling}",
         "c109731cb5476b68b255ea25131b6cb96da990bd5d221bb419ef2fe3d7c002ff"),
        (f"psi poly --n {LIMITS['psi poly'].ceiling}",
         "ebed2eadb02058c41284feb1a2b54a3998a3174933d0d85bc788ae3dd3dc0032"),
    ):
        code, out = run("-c", MEASURED, sys.executable, *CLI, *line.split(),
                        timeout=deadline - time.monotonic())
        exit_code, digest, peak_mib = out.decode().split()
        assert code == int(exit_code) == 0 and digest == sha256 and float(peak_mib) < 30, line


@pytest.mark.parametrize("method, verdict", [
    ("ll", "prime"), ("psi", "prime"), ("mu", "condition-holds"),
    ("sum", "condition-holds"), ("necessary", "condition-holds"),
    ("composite", "inconclusive"),
    (f"mu --mu-max {LIMITS['mersenne test mu --mu-max'].ceiling}", "condition-holds"),
    (f"sum --mu {LIMITS['mersenne test sum --mu'].ceiling}", "condition-holds"),
])
def test_m9941(method, verdict):
    """The battery at a Mersenne exponent above the benchmark's sizes, mu and
    sum also at the ceilings of --mu-max and --mu.  composite walks the Lucas
    sequence directly and, M being prime, finds no certificate."""
    code, out = run(*CLI, *f"mersenne test --p 9941 --method {method}".split())
    assert code == 0 and f'"verdict":"{verdict}"'.encode() in out


@pytest.mark.parametrize("line, timeout, env", [
    ("mersenne test --p 101 --method necessary", 60, None),
    *((f"mersenne test --p {10**18 + 3} --method {method}", 10, UNLIMITED)
      for method in ("ll", "psi", "composite", "mu")),
    (f"psi eval --a {'9' * 300} --b 1 --n 100000", 10, UNLIMITED),
    ("psi ladder --a 3 --b 1 --n 2^1000000 --mod 2^1000000+1", 10, UNLIMITED),
    ("psi eval --a 3 --b 1 --n 2^1000000 --mod 2^1000000+1", 10, UNLIMITED),
])
def test_refused(line, timeout, env):
    """Exit 3, in time.  2^101 - 1 = 7432339208719 * ... has no factor up to
    the ceiling of necessary's search.  With the int-to-str limit lifted, the
    --p ceilings refuse the prime 10^18 + 3 before any trial division, the
    value-bits ceiling an exact psi of about 50 million bits, and the
    ladder-work ceiling a ladder at a million-bit index and modulus; each
    would run for hours."""
    assert run(*CLI, *line.split(), timeout=timeout, env=env)[0] == 3


def test_a_ladder_ended_by_sigterm_leaves_no_child_running():
    """A ladder at a 14,000-bit index and modulus forks a child whose
    finishing factor takes seconds.  SIGTERM, to the ladder alone, ends it
    past its finally, so the child must die with its parent."""
    line = "psi ladder --a 3 --b 1 --n 2^14000+1 --mod 2^14000+1"
    with subprocess.Popen([sys.executable, *CLI, *line.split()], cwd=SRC,
                          stdout=subprocess.DEVNULL, start_new_session=True) as ladder:
        time.sleep(1)
        ladder.terminate()
    time.sleep(2)
    try:
        os.killpg(ladder.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    pytest.fail("a process of the ladder's session outlived it")


@pytest.mark.parametrize("options, pin", [
    ("--seed 0 --tiny", ()), ("--seed 5 --tiny", ()),
    ("--seed 0", ()), ("--seed 0", ("taskset", "-c", "0")),
])
def test_perfbench_generic_ladder(options, pin):
    """Every output checked against an independent computation.  Tiny, seed
    0's first operation has an a that shares a prime with m, and seed 5's
    second a d that does at odd n, so the ladder walks that shared cofactor,
    which the harness tests never reach.  At full size every operation but
    the a = 1 one forks a child for the finishing factor; pinned to one CPU,
    the same run is serial, and no operation may fail."""
    code, out = run("perfbench/run.py", "--workload", "ladder-generic", "--seconds", "0",
                    *options.split(), cwd=ROOT, timeout=None, pin=pin)
    last = out.splitlines()[-1]
    assert code == 0 and b'"correct": true' in last
    assert "--tiny" in options or b'"failed": 0,' in last


REVERSED = """import sys
from psikit import cli
from psikit.multipoly import variables
variables("z y xi x v u theta t s2 s1 q p lam eta beta b alpha a unused_name")
sys.exit(cli.main(["repro", "all", "--outdir", sys.argv[1]]))"""


def test_the_evidence_base_with_names_first_seen_in_reverse(tmp_path):
    """A name's exponent field is given when the name is first seen; the
    evidence base must not depend on that order."""
    assert run("-c", REVERSED, str(tmp_path), timeout=None)[0] == 0

    def tree(top):
        return {p.relative_to(top): p.is_file() and p.read_bytes() for p in top.rglob("*")}

    assert tree(tmp_path) == tree(ROOT / "docs" / "results")
