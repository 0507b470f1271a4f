#!/usr/bin/env bash
# The CI checks, one function each, and STEPS, the one list of them in CI
# order: the workflow runs `bash tools/ci.sh install`, then `bash tools/ci.sh
# all`, which runs every step of STEPS.  `bash tools/ci.sh <step> [args]`
# runs one step.  The script sets each step's int-to-str cap, and
# point_1000000 and bfile_seek their time limits, whatever the caller's environment.  Run it
# from the repository root, with the package importable (the workflow sets
# PYTHONPATH=src; so does this script when PYTHONPATH is unset).
set -eo pipefail
export PYTHONPATH="${PYTHONPATH:-src}"
# 640 digits is the lowest int-to-str cap CPython accepts: under it no step,
# and no code it runs, may call str() on an int of over 640 digits.  Every
# step runs under it but tests and bfile_head, which remove it.
export PYTHONINTMAXSTRDIGITS=640
if [ -n "$RUNNER_TEMP" ]; then
  tmp="$RUNNER_TEMP"
else
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
fi

STEPS=(
  tests
  tests_capped
  "validate 40"
  "validate 300"   # compsum's definition-level check reaches its cap of 300
  "validate 1000"  # the closed forms against the coupled reference to n = 1000
  "validate 3000"  # every engine, the closed forms included (about 2 s)
  bfile_head
  output_full
  tables
  point_100000
  point_1000000
  bfile_seek
  enumerators
  bench
)

# The test extra in pyproject.toml lists the test dependencies.
install() {
  python -m pip install -e ".[test]"
}

tests() {
  env -u PYTHONINTMAXSTRDIGITS python -m pytest -q --continue-on-collection-errors
}

tests_capped() {
  python -m pytest -q --continue-on-collection-errors
}

# validate computes on ints and prints no value past 40 digits, so a check
# that called str() on a big value would fail under the cap.
validate() {
  python -m triwords validate --max-n "$1"
}

# A reader that stops early must not draw a traceback.  The status is
# head's: python exits 141 when head closes the pipe, so pipefail is off.
bfile_head() {
  set +o pipefail
  env -u PYTHONINTMAXSTRDIGITS python -m triwords bfile A391470 --max-n 3000 2>"$tmp/err.txt" | head -1 && test ! -s "$tmp/err.txt"
}

# A write error must not read as a failed check (status 1): a full stdout
# exits 74 (EX_IOERR) with one `error:` line on stderr, buffered or not.
# A stderr that cannot take that line, closed or full, keeps the status,
# and the line is not printed on stdout instead.
output_full() {
  for unbuffered in "" 1; do
    status=0
    PYTHONUNBUFFERED="$unbuffered" python -m triwords table --format csv --max-n 3000 > /dev/full 2> "$tmp/err.txt" ||
      status=$?
    test "$status" -eq 74
    test "$(wc -l < "$tmp/err.txt")" -eq 1
    grep -q '^error: ' "$tmp/err.txt"
  done
  status=0
  python -m triwords compute --class A --n -1 > "$tmp/out.txt" 2>&- || status=$?
  test "$status" -eq 2
  test ! -s "$tmp/out.txt"
  status=0
  python -m triwords table --format csv --max-n 3000 > /dev/full 2> /dev/full || status=$?
  test "$status" -eq 74
}

# table computes its rows in exact decimal arithmetic, which validate (ints
# only) never runs; three engines must print the same bytes.  The values at
# n = 3000 have over 4,000 digits, so the CLI must print them without str()
# of an int.  json names the engine, so that line is left out of the
# comparison; csv and the aligned table have no such line.
tables() {
  for format in csv json table; do
    for engine in coupled decoupled genfun; do
      python -m triwords table --format "$format" --max-n 3000 --engine "$engine" |
        sed '/^  "engine": /d' > "$tmp/table-$engine.$format"
    done
    cmp "$tmp/table-coupled.$format" "$tmp/table-decoupled.$format"
    cmp "$tmp/table-coupled.$format" "$tmp/table-genfun.$format"
  done
}

# coupled, decoupled, genfun and quartic-c each reach a single value by their
# own point route, in O(log n) big products, not by walking their stream; at
# n = 100000 each must print mod4's bytes.  decoupled runs one table of
# (seeds, step) recurrences, so B and D join A.
point_100000() {
  for pair in A:coupled A:decoupled B:decoupled D:decoupled A:genfun C:quartic-c; do
    cls="${pair%%:*}" engine="${pair#*:}"
    python -m triwords compute --class "$cls" --n 100000 --engine mod4 > "$tmp/point-mod4"
    python -m triwords compute --class "$cls" --n 100000 --engine "$engine" > "$tmp/point-$engine"
    cmp "$tmp/point-mod4" "$tmp/point-$engine"
  done
}

# A single value is computed in exact Decimal from Decimal seeds and
# constants.  A route that converted a computed int instead would take
# minutes at n = 10^6 on 3.10 and 3.11, where Decimal(int) is quadratic, so
# the step fails past its time limit.  compute writes its value in pieces,
# and every engine prints through that one writer, so the engines' bytes
# are also compared with libmpdec's own str() of the same Decimal.
point_1000000() {
  timeout 5m bash "$0" _point_1000000
}

_point_1000000() {
  python -m triwords compute --class A --n 1000000 --engine mod4 > "$tmp/million-mod4"
  python -c 'from decimal import Decimal, localcontext
from triwords.counting import ClassLabel
from triwords.digits import EXACT
from triwords.engines import compute_value
with localcontext(EXACT):
    print(compute_value("mod4", ClassLabel.A, 1000000, Decimal))' > "$tmp/million-str"
  cmp "$tmp/million-mod4" "$tmp/million-str"
  for engine in decoupled genfun closed rootbasis; do
    python -m triwords compute --class A --n 1000000 --engine "$engine" > "$tmp/million-$engine"
    cmp "$tmp/million-mod4" "$tmp/million-$engine"
  done
}

# A b-file from an offset takes the class's point values there and then
# steps, so its one row at n = 10^6 costs about one point value; a b-file
# that walked the rows below its offset would take far past the time limit.
bfile_seek() {
  timeout 5m bash "$0" _bfile_seek
}

_bfile_seek() {
  python -m triwords bfile A391470 --offset 1000000 --max-n 1000000 > "$tmp/seek-bfile"
  { printf '1000000 '; python -m triwords compute --class C --n 1000000 --engine mod4; } > "$tmp/seek-mod4"
  cmp "$tmp/seek-mod4" "$tmp/seek-bfile"
}

# brute and compsum enumerate on ints, and the registry converts their values
# to Decimal, so they print through str() of a Decimal like every other
# engine.  compsum's A at n = 1000 has 1,431 digits, past the cap; the tables
# name no engine, so coupled's bytes must match.
enumerators() {
  python -m triwords compute --class A --n 1000 --engine mod4 > "$tmp/enum-mod4"
  python -m triwords compute --class A --n 1000 --engine compsum > "$tmp/enum-compsum"
  cmp "$tmp/enum-mod4" "$tmp/enum-compsum"
  for pair in compsum:300 brute:5; do
    engine="${pair%%:*}" max_n="${pair#*:}"
    for format in csv table; do
      python -m triwords table --format "$format" --max-n "$max_n" --engine coupled > "$tmp/enum-coupled.$format"
      python -m triwords table --format "$format" --max-n "$max_n" --engine "$engine" > "$tmp/enum-$engine.$format"
      cmp "$tmp/enum-coupled.$format" "$tmp/enum-$engine.$format"
    done
  done
}

# Each value column at n = 4000 is a digest, and the seven engines that cover
# every class must print the same one; closed and rootbasis, which
# point_100000 never runs, are checked here.  bench is the one command that
# hashes.  It takes BLAKE2 from CPython's own _blake2 module, which
# hashlib only re-exports, so no command loads hashlib's _hashlib and
# OpenSSL: this runs that path as a real process, under -X importtime (-S
# leaves site's imports out), and fails if hashlib or _hashlib appears.
# The CLI reads argv from its own command table, so the same list must not
# hold argparse, or the gettext, getopt and locale that argparse-style
# parsing loads: start-up is most of a run that computes in milliseconds.
# A second run compares the six point routes that are not enumerators at
# n = 100000 in Decimal, where decoupled's shared residue and genfun's
# shared halving chain carry real weight.
bench() {
  python -S -X importtime -m triwords bench --max-n 4000 --engines compsum,coupled,decoupled,closed,rootbasis,mod4,genfun \
    2> "$tmp/bench-imports" | tee "$tmp/bench"
  one_digest 7 "$tmp/bench"
  if grep -E '\| +(_?hashlib|argparse|gettext|getopt|locale)$' "$tmp/bench-imports"; then exit 1; fi
  python -m triwords bench --max-n 100000 --engines coupled,decoupled,genfun,closed,rootbasis,mod4 | tee "$tmp/bench-100000"
  one_digest 6 "$tmp/bench-100000"
}

# A bench table ($2) has $1 rows after its header, all ending in one digest.
one_digest() {
  awk -v want="$1" 'NR > 1 { rows++; if (!($NF in seen)) { seen[$NF]; values++ } }
       END { exit !(rows == want && values == 1) }' "$2"
}

# Each step in its own process, so a step's shell options stay its own; its
# name comes first, so a failing log names its check.  $step is unquoted: a
# step is its function's name and arguments.
all() {
  for step in "${STEPS[@]}"; do
    echo "== ci.sh $step"
    bash "$0" $step
  done
}

if ! declare -F "$1" > /dev/null; then
  echo "usage: bash tools/ci.sh install | all | STEP [ARGS]; all runs these steps, in order:" >&2
  printf '  %s\n' "${STEPS[@]}" >&2
  exit 2
fi
"$@"
