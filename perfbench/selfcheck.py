"""The benchmark's checks on itself: `python3 perfbench/run.py --self-check`.

1. BENCHMARK.json names exactly the metrics run.py reports, with the same units.
2. The oracle reproduces the known small values and the 27^n identity.
3. A correct output passes the oracle; the same output with one digit
   changed, anywhere in it, fails (compute, bfile and table; bench prints
   its own timings, whose digits are free).
4. A trivial job's peak_rss_mb does not move when the benchmark holds
   256 MB of ballast (and, for contrast, it does when the ballasted
   process forks the job itself).
5. A job over its address-space cap, and a job over its timeout, fail.
6. The tracer wraps every name cli binds, attributes the engine time of a
   call made through those by-name imports, leaves under 10% of the time
   unattributed, keeps sum(self) + unattributed = wall, and its computed
   counts repeat exactly across two runs.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import oracle
from oracle import BadOutput, Job
from run import END_TO_END, ROOT, SRC, UNATTRIBUTED_LIMIT, Runner, per_layer_units

BALLAST_BYTES = 256 << 20
KNOWN = {  # n: (A, B, C, D), from the definitions
    0: (1, 0, 0, 0),
    1: (3, 6, 0, 18),
    2: (63, 90, 90, 486),
    3: (2187, 2106, 2268, 13122),
    4: (59535, 58806, 58806, 354294),
}


def _check(ok: bool, what: str, failures: list[str]) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def _benchmark_json(failures: list[str]) -> None:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    _check(e2e == dict(END_TO_END), "BENCHMARK.json end_to_end matches run.py", failures)
    _check(layer == per_layer_units(), "BENCHMARK.json per_layer matches run.py", failures)


def _oracle_identities(failures: list[str]) -> None:
    known = all(tuple(oracle.exact_values(n).values()) == v for n, v in KNOWN.items())
    _check(known, "oracle reproduces the class counts for n = 0..4", failures)
    totals = all(sum(oracle.exact_values(n).values()) == 27**n for n in range(300))
    _check(totals, "oracle: A + B + C + D = 27^n for n < 300", failures)
    mod = all(
        oracle.residues(n) == {k: v % oracle.P for k, v in oracle.exact_values(n).items()} for n in range(300)
    )
    _check(mod, "oracle residues agree with its exact values for n < 300", failures)


def _corrupted(src: str, dst: str, position: float) -> None:
    """Copy src to dst with the digit at the given fraction of the file changed."""
    with open(src, "rb") as f:
        data = bytearray(f.read())
    digits = [i for i, b in enumerate(data) if 48 <= b <= 57]
    i = digits[min(len(digits) - 1, int(position * len(digits)))]
    data[i] = 48 + (data[i] - 48 + 5) % 10
    with open(dst, "wb") as f:
        f.write(data)


def _oracle_catches_corruption(runner: Runner, failures: list[str]) -> None:
    jobs = [
        Job("compute", 2_000, arg="B", engine="rootbasis"),
        Job("bfile", 60, arg="A391470"),
        Job("table", 40, engine="coupled"),
    ]
    good = os.path.join(runner.workdir, "good")
    bad = os.path.join(runner.workdir, "bad")
    for job in jobs:
        what = " ".join(job.argv())
        result = runner.run(job, keep_output=good)
        _check(result.ok, f"oracle accepts the program's output: {what}", failures)
        for position in (0.0, 0.37, 0.999):
            _corrupted(good, bad, position)
            try:
                oracle.check_output(job, bad)
                caught = False
            except BadOutput:
                caught = True
            _check(caught, f"oracle catches one changed digit at {position:.0%} of: {what}", failures)
    for path in (good, bad):
        os.remove(path)


def _rss_is_the_jobs_own(runner: Runner, failures: list[str]) -> None:
    trivial = Job("compute", 1, arg="A", engine="decoupled")
    lean = runner.run(trivial).maxrss_mb
    ballast = bytearray(os.urandom(1 << 20)) * (BALLAST_BYTES >> 20)
    heavy = runner.run(trivial).maxrss_mb
    direct = subprocess.Popen(
        [sys.executable, "-m", "triwords", *trivial.argv()],
        stdout=subprocess.DEVNULL,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    direct_mb = os.wait4(direct.pid, 0)[2].ru_maxrss / 1024
    direct.returncode = 0  # reaped above
    del ballast
    print(f"     trivial job: {lean:.1f} MB lean, {heavy:.1f} MB with ballast, {direct_mb:.1f} MB forked by the ballasted process")
    _check(abs(heavy - lean) < 2, "trivial job's peak_rss_mb ignores the benchmark's own ballast", failures)


def _guards(runner: Runner, failures: list[str]) -> None:
    big = runner.run(Job("compute", 30_000, arg="A", engine="coupled"), as_limit_bytes=256 << 20)
    _check(not big.ok and "MemoryError" in big.error, "a job over its address-space cap fails", failures)
    slow = runner.run(Job("validate", 300), timeout_s=1.0)
    _check(not slow.ok and "timed out" in slow.error and slow.wall_s < 5, "a job over its timeout is killed", failures)


def _tracer_is_honest(runner: Runner, failures: list[str]) -> None:
    job = Job("compute", 3_000, arg="D", engine="coupled")
    first = runner.run(job, "trace")
    second = runner.run(job, "trace")
    _check(first.ok and second.ok, "traced jobs run and print correct output", failures)
    if not (first.ok and second.ok):
        return
    r = first.report
    _check(not r["unwrapped"], "no triwords namespace keeps an unwrapped function", failures)
    _check(r["engine_s"]["coupled"] > 0, "engine time is attributed through cli's by-name imports", failures)
    attributed = sum(layer["self_s"] for layer in r["layers"].values())
    _check(math.isclose(attributed + r["unattributed_s"], r["wall_s"]), "sum of self times + unattributed = wall", failures)
    _check(r["unattributed_s"] < UNATTRIBUTED_LIMIT * r["wall_s"], "unattributed time under 10% of traced wall", failures)
    _check(r["counts"] == second.report["counts"], "computed counts repeat exactly across two traced runs", failures)


def run_all(runner: Runner) -> int:
    failures: list[str] = []
    _benchmark_json(failures)
    _oracle_identities(failures)
    _oracle_catches_corruption(runner, failures)
    _rss_is_the_jobs_own(runner, failures)
    _guards(runner, failures)
    _tracer_is_honest(runner, failures)
    print(f"self-check: {len(failures)} failure(s)")
    return 1 if failures else 0
