"""Benchmark of the triwords CLI, run from the root of a checkout.

    python3 perfbench/run.py --workload stream|validate|point --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --self-check

One client runs the seed's job list against `python -m triwords`, one job
at a time (a closed loop with one child process), checks every output
against the independent oracle in oracle.py, and repeats the list in
rounds until --seconds are used.  The end-to-end metrics are:

    wall_s       time to finish the job list, each job at its best round
    cpu_s        the children's user+sys time for the list, best rounds
    job_s_p50    median over the jobs of their best-round wall time
    peak_rss_mb  largest high-water RSS of any job, as the job's own
    setup_s      median time of a trivial `compute --class A --n 1` job
                 (interpreter start, import, one value), sampled before
                 every round

The machine these runs share drifts between speeds over minutes, by as much
as 40%.  So every time above is taken at a reference speed: the measured
time divided by the job's slowdown, which is how much longer a fixed
calibration kernel, timed just before and just after the job, took than
REFERENCE_CALIBRATION_S.  The measured times are printed too.

error_rate (failed / attempted) is printed too; the JSON reports it as
"failed" and "attempted".  With --trace 1 the job list runs three times
instead: plain, traced (tracer.py: spans and computed counts) and traced
again, with tracemalloc for the jobs in ALLOC_KINDS; the per-layer
metrics come from those runs.

The last line of stdout is one JSON object; the exit code is 0 only when
every job's output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle
import workloads
from oracle import BadOutput, Job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

JOB_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 165.0  # every run must be over within 180 s
AS_LIMIT_BYTES = 2 << 30
SETUP_PER_ROUND = 3
SETUP_MIN = 9
SETUP_JOB = Job("compute", 1, arg="A", engine="decoupled")
UNATTRIBUTED_LIMIT = 0.10
# spawner.calibrate() on the 2-vCPU VM this benchmark was written on
# (CPython 3.11.7) when that machine ran at its quicker speed.
REFERENCE_CALIBRATION_S = 0.0026
# Jobs whose second traced run also runs tracemalloc.  bfile and validate
# call their engines once per index, and tracemalloc makes those loops of
# small big-int allocations 7-9x slower (bfile 2000: 1.5 s -> 13 s), which
# would not fit in a run; their engine peaks are O(one value) anyway.
ALLOC_KINDS = ("compute", "table", "bench")

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("job_s_p50", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

MEASURED_UNITS = dict(END_TO_END, slowdown_p50="ratio")

LAYER_NAMES = ("cli", "engines", "recurrence", "closedform", "ring", "genfun", "counting")
ENGINE_IDS = ("brute", "compsum", "coupled", "decoupled", "quartic-c", "closed", "rootbasis", "mod4", "genfun")
COUNT_METRICS = (
    "recurrence.steps",
    "counting.words",
    "counting.compositions",
    "ring.muls",
    "genfun.coeffs",
    "engines.series_recomputed",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer in LAYER_NAMES:
        units |= {f"{layer}.calls": "count", f"{layer}.total_s": "s", f"{layer}.self_s": "s"}
    units |= dict.fromkeys(COUNT_METRICS, "count")
    units |= {"recurrence.step_efficiency": "ratio", "cli.out_bytes": "B"}
    units |= {f"engine.{e}.s": "s" for e in ENGINE_IDS}
    units |= {f"engine.{e}.alloc_peak_mb": "MB" for e in ENGINE_IDS}
    units |= {"trace.overhead": "ratio", "trace.unattributed_s": "s", "trace.import_s": "s"}
    return units


class BenchmarkError(Exception):
    """The benchmark cannot run here (no program, or its set-up job fails)."""


@dataclass
class JobResult:
    job: Job
    wall_s: float = 0.0
    cpu_s: float = 0.0
    maxrss_mb: float = 0.0
    error: str = ""
    digest: str = ""
    out_bytes: int = 0
    report: dict = field(default_factory=dict)
    slowdown: float = 1.0  # calibration time / REFERENCE_CALIBRATION_S

    @property
    def ok(self) -> bool:
        return not self.error

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s / self.slowdown

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s / self.slowdown


class Spawner:
    """The lean timing process (spawner.py) that forks every job."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchmarkError("the timing process died")
        return json.loads(line)

    def close(self) -> None:
        """Stop the spawner; if it is still running a job, it kills the job."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            self.proc.wait()
        self.proc.stdout.close()


class Runner:
    """Runs jobs through the spawner and checks each output with the oracle."""

    def __init__(self, spawner: Spawner, workdir: str, deadline: float):
        self.spawner = spawner
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(
        self,
        job: Job,
        mode: str = "plain",
        *,
        timeout_s: float = JOB_TIMEOUT_S,
        as_limit_bytes: int = AS_LIMIT_BYTES,
        keep_output: str | None = None,
    ) -> JobResult:
        """mode is "plain" (the CLI), "trace" or "alloc" (tracer.py).

        keep_output moves the job's stdout there instead of deleting it.
        """
        result = JobResult(job)
        out, err, report = (os.path.join(self.workdir, name) for name in ("out", "err", "report.json"))
        if mode == "plain":
            argv = [sys.executable, "-m", "triwords", *job.argv()]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(SRC), report, str(int(mode == "alloc")), *job.argv()]
        timeout = min(timeout_s, self.deadline - time.monotonic())
        if timeout <= 0:
            result.error = "not run: the run's deadline has passed"
            return result
        reply = self.spawner.run(
            {
                "argv": argv,
                "env": self.env,
                "stdout": out,
                "stderr": err,
                "timeout_s": timeout,
                "as_limit_bytes": as_limit_bytes,
            }
        )
        result.wall_s, result.cpu_s = reply["wall_s"], reply["cpu_s"]
        result.maxrss_mb = reply["maxrss_kb"] / 1024
        result.slowdown = reply["calibration_s"] / REFERENCE_CALIBRATION_S
        try:
            if reply["timed_out"]:
                result.error = f"timed out after {timeout:.0f} s"
            elif reply["exit_code"] != 0:
                result.error = f"exit code {reply['exit_code']}: {_tail(err)}"
            else:
                result.digest, result.out_bytes = oracle.check_output(job, out)
                if mode != "plain":
                    with open(report) as f:
                        result.report = json.load(f)
        except BadOutput as exc:
            result.error = f"wrong output: {exc}"
        finally:
            if keep_output:
                os.replace(out, keep_output)
            for path in (out, err, report):
                if os.path.exists(path):
                    os.remove(path)
        return result


def _tail(path: str, size: int = 300) -> str:
    with open(path, "rb") as f:
        f.seek(max(0, os.path.getsize(path) - size))
        return f.read().decode(errors="replace").strip()


def _describe(result: JobResult) -> str:
    return f"{' '.join(result.job.argv())}: {result.error}"


def _setup_samples(runner: Runner, count: int) -> list[JobResult]:
    """Runs of the trivial job; a failure means nothing can run."""
    results = []
    for _ in range(count):
        result = runner.run(SETUP_JOB)
        if not result.ok:
            raise BenchmarkError(f"set-up job failed: {_describe(result)}")
        results.append(result)
    return results


def run_plain(
    runner: Runner, workload: str, seed: int, seconds: float
) -> tuple[dict, dict, list[JobResult]]:
    """The untraced run: rounds of the seed's job list until the time is used.

    Every round runs the same jobs in the same order, so each job is timed
    once per round, spread over the run, and counts at its best round,
    which drops the short slow spells of a shared machine.  Trivial set-up
    jobs run before every round.  Returns the metrics at the reference
    speed, the same metrics as measured, and every job result.
    """
    jobs = workloads.job_list(workload, seed)
    _setup_samples(runner, 1)  # fills the bytecode cache
    start = time.monotonic()
    rounds: list[list[JobResult]] = []
    setup: list[JobResult] = []
    spans: list[float] = []
    while True:
        round_start = time.monotonic()
        setup += _setup_samples(runner, SETUP_PER_ROUND)
        rounds.append([runner.run(job) for job in jobs])
        spans.append(time.monotonic() - round_start)
        if time.monotonic() - start + statistics.median(spans) > seconds:
            break
    setup += _setup_samples(runner, max(0, SETUP_MIN - len(setup)))
    results = [r for done in rounds for r in done]

    def metrics(wall, cpu) -> dict:
        best_wall = [min(map(wall, runs)) for runs in zip(*rounds)]
        return {
            "wall_s": sum(best_wall),
            "cpu_s": sum(min(map(cpu, runs)) for runs in zip(*rounds)),
            "job_s_p50": statistics.median(best_wall),
            "peak_rss_mb": max(r.maxrss_mb for r in results),
            "setup_s": statistics.median(map(wall, setup)),
        }

    reference = metrics(lambda r: r.ref_wall_s, lambda r: r.ref_cpu_s)
    measured = metrics(lambda r: r.wall_s, lambda r: r.cpu_s)
    measured["slowdown_p50"] = statistics.median(r.slowdown for r in results + setup)
    return reference, measured, results


def run_traced(runner: Runner, workload: str, seed: int) -> tuple[dict, list[JobResult], list[str]]:
    """The job list plain, traced, and traced again; per-layer metrics.

    Returns the metrics, every job result, and the trace's own failures.
    """
    jobs = workloads.job_list(workload, seed)
    plain = [runner.run(job) for job in jobs]
    traced = [runner.run(job, "trace") for job in jobs]
    alloc = [runner.run(job, "alloc" if job.kind in ALLOC_KINDS else "trace") for job in jobs]
    results = plain + traced + alloc
    if not all(r.ok for r in results):
        return {}, results, []

    problems = []
    for p, t, a in zip(plain, traced, alloc):
        what = " ".join(p.job.argv())
        # bench prints its own timings, so only its oracle check applies
        if p.job.kind != "bench" and not p.digest == t.digest == a.digest:
            problems.append(f"{what}: traced output differs from plain output")
        if t.report["counts"] != a.report["counts"]:
            problems.append(f"{what}: computed counts differ between the two traced runs")
        for r in (t, a):
            if r.report["unwrapped"]:
                problems.append(f"{what}: unwrapped names {r.report['unwrapped']}")

    metrics: dict[str, float] = {}
    for layer in LAYER_NAMES:
        for key in ("calls", "total_s", "self_s"):
            metrics[f"{layer}.{key}"] = sum(r.report["layers"][layer][key] for r in traced)
    for key in COUNT_METRICS + ("recurrence.indices",):
        metrics[key] = sum(r.report["counts"].get(key, 0) for r in traced)
    indices = metrics.pop("recurrence.indices")
    metrics["recurrence.step_efficiency"] = indices / metrics["recurrence.steps"] if metrics["recurrence.steps"] else 0.0
    metrics["cli.out_bytes"] = sum(r.out_bytes for r in plain)
    for e in ENGINE_IDS:
        metrics[f"engine.{e}.s"] = sum(r.report["engine_s"][e] for r in traced)
        metrics[f"engine.{e}.alloc_peak_mb"] = max(r.report["alloc_peak_mb"][e] for r in alloc)
    traced_wall = sum(r.report["wall_s"] for r in traced)
    unattributed = sum(r.report["unattributed_s"] for r in traced)
    metrics["trace.overhead"] = sum(r.wall_s for r in traced) / sum(r.wall_s for r in plain)
    metrics["trace.unattributed_s"] = unattributed
    metrics["trace.import_s"] = sum(r.report["import_s"] for r in traced)
    if unattributed > UNATTRIBUTED_LIMIT * traced_wall:
        problems.append(f"unattributed time {unattributed:.3f} s is over 10% of traced wall {traced_wall:.3f} s")
    return metrics, results, problems


def _print_metrics(metrics: dict, units: dict, prefix: str = "") -> None:
    for name, value in metrics.items():
        print(f"{prefix}{name} {value:.6g} {units[name]}")


def _summary(results: list[JobResult]) -> tuple[int, int]:
    failed = [r for r in results if not r.ok]
    for r in failed:
        print(f"FAILED {_describe(r)}", file=sys.stderr)
    return len(results), len(failed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="run the benchmark's own checks and exit")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "triwords" / "__init__.py").is_file():
        print(f"error: no triwords package under {SRC}", file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)  # the bench check converts exact values to decimal

    # SIGTERM unwinds through the finally below, which stops the spawner and its job.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    spawner = Spawner()
    try:
        runner = Runner(spawner, workdir, time.monotonic() + RUN_DEADLINE_S)
        if args.self_check:
            import selfcheck

            return selfcheck.run_all(runner)
        if args.workload == "all":
            return _run_all(runner, args)
        if args.trace:
            metrics, results, problems = run_traced(runner, args.workload, args.seed)
            units = per_layer_units()
        else:
            metrics, measured, results = run_plain(runner, args.workload, args.seed, args.seconds)
            problems = []
            units = dict(END_TO_END)
        attempted, failed = _summary(results)
        for problem in problems:
            print(f"TRACE CHECK FAILED {problem}", file=sys.stderr)
        correct = failed == 0 and not problems
        if metrics:
            _print_metrics(metrics, units)
        if not args.trace:
            _print_metrics(measured, MEASURED_UNITS, prefix="measured.")
        print(f"error_rate {failed / attempted:.6g} ratio")
        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
                }
            )
        )
        return 0 if correct else 1
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        spawner.close()
        shutil.rmtree(workdir, ignore_errors=True)


def _run_all(runner: Runner, args) -> int:
    """Every workload, untraced, with every end-to-end metric by name and unit."""
    summary = {}
    all_ok = True
    for workload in workloads.WORKLOADS:
        runner.deadline = time.monotonic() + RUN_DEADLINE_S
        metrics, measured, results = run_plain(runner, workload, args.seed, args.seconds)
        attempted, failed = _summary(results)
        metrics["error_rate"] = failed / attempted
        _print_metrics(metrics, dict(END_TO_END, error_rate="ratio"), prefix=f"{workload}.")
        _print_metrics(measured, MEASURED_UNITS, prefix=f"{workload}.measured.")
        summary[workload] = metrics
        all_ok &= failed == 0
    print(json.dumps({"correct": all_ok, "workloads": summary}))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
