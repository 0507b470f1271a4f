#!/usr/bin/env bash
# The CI steps, one function each: `bash tools/ci.sh <step> [args]` runs one
# step, as the workflow does, and `bash tools/ci.sh all` runs every check in
# the workflow's order.  The script sets each step's int-to-str cap, and
# point_1000000 its time limit, whatever the caller's environment.  Run it
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

install() {
  python -m pip install -e ".[test]"
}

tests() {
  env -u PYTHONINTMAXSTRDIGITS python -m pytest -q --continue-on-collection-errors
}

tests_capped() {
  python -m pytest -q --continue-on-collection-errors
}

validate() {
  python -m triwords validate --max-n "$1"
}

# A reader that stops early must not draw a traceback.  The status is
# head's: python exits 141 when head closes the pipe, so pipefail is off.
bfile_head() {
  set +o pipefail
  env -u PYTHONINTMAXSTRDIGITS python -m triwords bfile A391470 --max-n 3000 2>"$tmp/err.txt" | head -1 && test ! -s "$tmp/err.txt"
}

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

point_100000() {
  for pair in A:coupled A:decoupled B:decoupled D:decoupled A:genfun C:quartic-c; do
    cls="${pair%%:*}" engine="${pair#*:}"
    python -m triwords compute --class "$cls" --n 100000 --engine mod4 > "$tmp/point-mod4"
    python -m triwords compute --class "$cls" --n 100000 --engine "$engine" > "$tmp/point-$engine"
    cmp "$tmp/point-mod4" "$tmp/point-$engine"
  done
}

# A route that converted a computed int, not Decimal seeds, would take
# minutes at n = 10^6 on 3.10 and 3.11, where Decimal(int) is quadratic, so
# the step fails past its time limit.
point_1000000() {
  timeout 5m bash "$0" _point_1000000
}

_point_1000000() {
  python -m triwords compute --class A --n 1000000 --engine mod4 > "$tmp/million-mod4"
  for engine in decoupled genfun closed rootbasis; do
    python -m triwords compute --class A --n 1000000 --engine "$engine" > "$tmp/million-$engine"
    cmp "$tmp/million-mod4" "$tmp/million-$engine"
  done
}

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

bench() {
  python -S -X importtime -m triwords bench --max-n 4000 --engines compsum,coupled,decoupled,closed,rootbasis,mod4,genfun \
    2> "$tmp/bench-imports" | tee "$tmp/bench"
  awk 'NR > 1 { rows++; if (!($NF in seen)) { seen[$NF]; values++ } }
       END { exit !(rows == 7 && values == 1) }' "$tmp/bench"
  if grep -E '\| +_?hashlib$' "$tmp/bench-imports"; then exit 1; fi
}

# Each step in its own process, so a step's shell options stay its own.
all() {
  for step in tests tests_capped; do bash "$0" "$step"; done
  for max_n in 40 300 1000 3000; do bash "$0" validate "$max_n"; done
  for step in bfile_head tables point_100000 point_1000000 enumerators bench; do bash "$0" "$step"; done
}

if ! declare -F "$1" > /dev/null; then
  echo "usage: bash tools/ci.sh install|tests|tests_capped|validate MAX_N|bfile_head|tables|point_100000|point_1000000|enumerators|bench|all" >&2
  exit 2
fi
"$@"
