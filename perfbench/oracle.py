"""Independent oracle for the outputs of the triwords CLI.

Never imports triwords.  The expected class counts come from the
radical-free closed form, written out here from the definitions:

    n = 0:   A, B, C, D = 1, 0, 0, 0
    n >= 1:  base = 3^(3n-2),  D = 2 * 3^(3n-1)
      n = 0 mod 4:  A = base + 2h,  B = C = base - h,   h = 3^((3n-2)/2)
      n = 2 mod 4:  A = base - 2h,  B = C = base + h
      n = 1 mod 4:  A = base,  B = base + o,  C = base - o,  o = 3^((3n-1)/2)
      n = 3 mod 4:  A = base,  B = base - o,  C = base + o

and every total A + B + C + D must equal 27^n.  Output values are
compared modulo the Mersenne prime 2^61 - 1, which needs only modular
powers on the oracle side and one linear pass over the printed digits.  A
single corrupted digit changes a value by d * 10^k with 0 < |d| < 10, which
that prime never divides, so it is always caught.

Output files are read line by line and hashed as they go; no check holds
more than one line of a job's output.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

P = (1 << 61) - 1
LABELS = ("A", "B", "C", "D")
SEQUENCE_CLASS = {"A391468": "A", "A391469": "B", "A391470": "C"}
TABLE_HEADER = b"n,C_A,C_B,C_C,C_D,total"

_DIGIT_BLOCK = 256
_TEN_BLOCK = pow(10, _DIGIT_BLOCK, P)


class BadOutput(Exception):
    """The program's output disagrees with the oracle or is malformed."""


def _classes(n: int, pow3) -> tuple[int, int, int, int]:
    if n == 0:
        return (1, 0, 0, 0)
    base = pow3(3 * n - 2)
    d = 2 * pow3(3 * n - 1)
    if n % 2 == 0:
        h = pow3((3 * n - 2) // 2)
        if n % 4 == 0:
            return (base + 2 * h, base - h, base - h, d)
        return (base - 2 * h, base + h, base + h, d)
    o = pow3((3 * n - 1) // 2)
    if n % 4 == 1:
        return (base, base + o, base - o, d)
    return (base, base - o, base + o, d)


def exact_values(n: int) -> dict[str, int]:
    """The four class counts at n, exactly."""
    return dict(zip(LABELS, _classes(n, lambda e: 3**e)))


def residues(n: int) -> dict[str, int]:
    """The four class counts at n, modulo P."""
    return dict(zip(LABELS, (v % P for v in _classes(n, lambda e: pow(3, e, P)))))


def decimal_residue(digits: bytes) -> int:
    """A printed nonnegative decimal integer modulo P, rejecting anything else."""
    if not digits.isdigit() or (len(digits) > 1 and digits[:1] == b"0"):
        raise BadOutput(f"not a canonical decimal integer: {digits[:40]!r}")
    head = len(digits) % _DIGIT_BLOCK
    r = int(digits[:head]) % P if head else 0
    for i in range(head, len(digits), _DIGIT_BLOCK):
        r = (r * _TEN_BLOCK + int(digits[i : i + _DIGIT_BLOCK])) % P
    return r


def _expect_value(digits: bytes, want: int, what: str) -> None:
    if decimal_residue(digits) != want:
        raise BadOutput(f"wrong value for {what}")


def _bench_column(values: dict[str, int]) -> str:
    rendered = ",".join(f"{label}={v}" for label, v in sorted(values.items()))
    if len(rendered) <= 60:
        return rendered
    joined = ",".join(str(v) for _, v in sorted(values.items()))
    return "blake2b:" + hashlib.blake2b(joined.encode(), digest_size=8).hexdigest()


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its output must be.

    kind is the subcommand; n is the index (compute) or max_n (others);
    arg is the class (compute), the OEIS id (bfile) or the comma-separated
    engine list (bench); engine is the --engine of compute and table.
    """

    kind: str
    n: int
    arg: str = ""
    engine: str = ""

    def argv(self) -> list[str]:
        if self.kind == "compute":
            return ["compute", "--class", self.arg, "--n", str(self.n), "--engine", self.engine]
        if self.kind == "bfile":
            return ["bfile", self.arg, "--max-n", str(self.n)]
        if self.kind == "table":
            return ["table", "--format", "csv", "--max-n", str(self.n), "--engine", self.engine]
        if self.kind == "validate":
            return ["validate", "--max-n", str(self.n)]
        if self.kind == "bench":
            return ["bench", "--max-n", str(self.n), "--engines", self.arg]
        raise ValueError(f"unknown job kind {self.kind!r}")


def _check_compute(job: Job, lines) -> None:
    got = list(lines)
    if len(got) != 1:
        raise BadOutput(f"expected one line, got {len(got)}")
    _expect_value(got[0], residues(job.n)[job.arg], f"class {job.arg} at n={job.n}")


def _check_bfile(job: Job, lines) -> None:
    label = SEQUENCE_CLASS[job.arg]
    n = 0
    for n, line in enumerate(lines, start=1):
        index, _, value = line.partition(b" ")
        if index != str(n).encode():
            raise BadOutput(f"line {n}: index {index[:20]!r}")
        _expect_value(value, residues(n)[label], f"{job.arg} at n={n}")
    if n != job.n:
        raise BadOutput(f"{n} lines, expected {job.n}")


def _check_table(job: Job, lines) -> None:
    it = iter(lines)
    if next(it, None) != TABLE_HEADER:
        raise BadOutput("missing csv header")
    n = -1
    for n, line in enumerate(it):
        fields = line.split(b",")
        if len(fields) != 6 or fields[0] != str(n).encode():
            raise BadOutput(f"row {n}: malformed")
        want = residues(n)
        got = [decimal_residue(f) for f in fields[1:]]
        if got[:4] != [want[label] for label in LABELS]:
            raise BadOutput(f"row {n}: wrong class counts")
        if got[4] != pow(27, n, P) or sum(got[:4]) % P != got[4]:
            raise BadOutput(f"row {n}: total is not 27^n")
    if n != job.n:
        raise BadOutput(f"{n + 1} rows, expected {job.n + 1}")


def _check_validate(job: Job, lines) -> None:
    got = list(lines)
    k = len(got) - 1
    if k < 1 or not all(line.startswith(b"PASS  ") for line in got[:-1]):
        raise BadOutput("a validation check did not pass")
    if got[-1] != f"{k}/{k} checks passed (max_n = {job.n})".encode():
        raise BadOutput(f"summary line {got[-1][:80]!r}")


def _check_bench(job: Job, lines) -> None:
    engines = job.arg.split(",")
    got = list(lines)
    if len(got) != len(engines) + 1 or got[0].split() != [b"engine", b"seconds", b"digits", b"values"]:
        raise BadOutput("malformed bench table")
    exact = exact_values(job.n)
    for engine, line in zip(engines, got[1:]):
        fields = line.decode().split()
        if len(fields) != 4 or fields[0] != engine:
            raise BadOutput(f"malformed bench row for {engine}")
        float(fields[1])
        values = {"C": exact["C"]} if engine == "quartic-c" else exact
        if int(fields[2]) != sum(len(str(v)) for v in values.values()):
            raise BadOutput(f"{engine}: wrong digit count")
        if fields[3] != _bench_column(values):
            raise BadOutput(f"{engine}: wrong values")


_CHECKERS = {
    "compute": _check_compute,
    "bfile": _check_bfile,
    "table": _check_table,
    "validate": _check_validate,
    "bench": _check_bench,
}


def check_output(job: Job, path: str) -> tuple[str, int]:
    """Check one job's output file; return (blake2b hex digest, byte count).

    Raises BadOutput on any disagreement with the oracle.
    """
    digest = hashlib.blake2b(digest_size=16)
    size = 0

    def lines():
        nonlocal size
        with open(path, "rb") as f:
            for raw in f:
                digest.update(raw)
                size += len(raw)
                if not raw.endswith(b"\n"):
                    raise BadOutput("output does not end with a newline")
                yield raw[:-1]

    try:
        _CHECKERS[job.kind](job, lines())
    except ValueError as exc:  # unparsable numbers or text
        raise BadOutput(f"malformed output: {exc}") from exc
    return digest.hexdigest(), size
