#!/usr/bin/env bash
# The CI steps, one function each: `bash tools/ci.sh <step> [args]` runs one
# step, as the workflow does, and `bash tools/ci.sh all` runs every check in
# the workflow's order, with the int-to-str cap each step has there.  Run it
# from the repository root, with the package importable (the workflow sets
# PYTHONPATH=src; so does this script when PYTHONPATH is unset).
set -eo pipefail
export PYTHONPATH="${PYTHONPATH:-src}"
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
  python -m pytest -q --continue-on-collection-errors
}

validate() {
  python -m triwords validate --max-n "$1"
}

# A reader that stops early must not draw a traceback.  The status is
# head's: python exits 141 when head closes the pipe, so pipefail is off.
bfile_head() {
  set +o pipefail
  python -m triwords bfile A391470 --max-n 3000 2>"$tmp/err.txt" | head -1 && test ! -s "$tmp/err.txt"
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

point_1000000() {
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
  local capped=(env PYTHONINTMAXSTRDIGITS=640 bash "$0")
  bash "$0" tests
  "${capped[@]}" tests
  for max_n in 40 300 1000 3000; do "${capped[@]}" validate "$max_n"; done
  bash "$0" bfile_head
  for step in tables point_100000 point_1000000 enumerators bench; do "${capped[@]}" "$step"; done
}

if ! declare -F "$1" > /dev/null; then
  echo "usage: bash tools/ci.sh install|tests|validate MAX_N|bfile_head|tables|point_100000|point_1000000|enumerators|bench|all" >&2
  exit 2
fi
"$@"
