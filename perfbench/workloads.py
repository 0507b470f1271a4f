"""Seeded job lists for the three workloads.

The same seed always gives the same jobs.  The sizes are stratified:
every list has one job near each point of a fixed geometric grid, moved
by a seeded log-uniform factor within +-JITTER.  The costs of these jobs
grow as n^2 to n^4, so a list that drew its sizes freely from the whole
range would cost a different amount on every seed, and that spread would
hide any change to the program.  The seed also picks the class, the OEIS
sequence, which engine gets which grid point, and the order of the jobs.

Why each workload, and which layers it loads, is in NOTES.md.
"""

from __future__ import annotations

import math
import random

from oracle import LABELS, SEQUENCE_CLASS, Job

JITTER = 0.02

# The smallest grid points are well above start-up cost (about 0.1 s), so
# that the median job, job_s_p50, is mostly the program's own work: short
# jobs swing with the machine's load by half again as much as long ones.

# stream: OEIS b-files and csv tables, the output-heavy path.
BFILE_SIZES = (500, 1200, 2000)
TABLE_SIZES = (500, 1500, 3000)
TABLE_ENGINES = ("decoupled", "genfun", "coupled")

# validate: the cross-check path; brute force costs the same at every
# max_n, compsum grows about as max_n^4.
VALIDATE_SIZES = (100, 180)

# point: single huge values.
CLOSED_SIZES = (20_000, 60_000, 200_000)
CLOSED_ENGINES = ("closed", "rootbasis", "mod4")
# One engine per size, and classes A-C only: class D's recurrence and
# generating function are first order, and a seed that gave them the
# larger sizes would move the median job by a fifth.  bench runs D on
# every engine.
RECURRENCES = (("genfun", 6_000), ("quartic-c", 12_000), ("decoupled", 20_000))
COUPLED_SIZES = (3_000, 6_000, 10_000)
BENCH_SIZE = 4_000
BENCH_ENGINES = ("coupled", "decoupled", "quartic-c", "genfun", "closed", "rootbasis", "mod4")

WORKLOADS = ("stream", "validate", "point")


def _jitter(rng: random.Random, size: int) -> int:
    return max(1, round(size * math.exp(rng.uniform(-JITTER, JITTER))))


def _stream(rng: random.Random) -> list[Job]:
    jobs = [Job("bfile", _jitter(rng, m), arg=rng.choice(sorted(SEQUENCE_CLASS))) for m in BFILE_SIZES]
    engines = rng.sample(TABLE_ENGINES, len(TABLE_ENGINES))
    jobs += [Job("table", _jitter(rng, m), engine=e) for m, e in zip(TABLE_SIZES, engines)]
    return jobs


def _validate(rng: random.Random) -> list[Job]:
    return [Job("validate", _jitter(rng, m)) for m in VALIDATE_SIZES]


def _point(rng: random.Random) -> list[Job]:
    engines = rng.sample(CLOSED_ENGINES, len(CLOSED_ENGINES))
    jobs = [Job("compute", _jitter(rng, n), arg=rng.choice(LABELS), engine=e) for n, e in zip(CLOSED_SIZES, engines)]
    for engine, n in RECURRENCES:
        label = "C" if engine == "quartic-c" else rng.choice(LABELS[:3])
        jobs.append(Job("compute", _jitter(rng, n), arg=label, engine=engine))
    jobs += [Job("compute", _jitter(rng, n), arg=rng.choice(LABELS), engine="coupled") for n in COUPLED_SIZES]
    bench_engines = ",".join(rng.sample(BENCH_ENGINES, len(BENCH_ENGINES)))
    jobs.append(Job("bench", _jitter(rng, BENCH_SIZE), arg=bench_engines))
    return jobs


_LISTS = {"stream": _stream, "validate": _validate, "point": _point}


def job_list(workload: str, seed: int) -> list[Job]:
    """The jobs of a workload, in the order they run."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = _LISTS[workload](rng)
    rng.shuffle(jobs)
    return jobs
