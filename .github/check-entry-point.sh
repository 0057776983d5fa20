#!/usr/bin/env bash
# Checks the installed `spinscatter` script: for each argv its stdout must be byte-identical to that of
# `python -m spinscatter.cli` (whose bytes the tier-1 tests pin), read through real pipes, and its exit codes must be
# 0 / 2 / 1 as documented, each failure ending in its error line.  Run from any directory after `pip install -e .`:
# bash .github/check-entry-point.sh
set -euo pipefail

same_as_module() {
    local installed module
    installed=$(spinscatter "$@" | sha256sum)
    module=$(python -m spinscatter.cli "$@" | sha256sum)
    test "$installed" = "$module" || { echo "spinscatter $* differs from python -m spinscatter.cli" >&2; exit 1; }
}
same_as_module critical
same_as_module critical --interaction constant:0.6
# The edge pairs where one channel vanishes: critical's bracket gets one pair of numbers for the whole angle grid.
same_as_module critical --interaction constant:0
same_as_module critical --interaction constant:1
# constant:<f_plus> answers an angle grid with one pair of numbers, which the grid path broadcasts.
same_as_module scan --interaction constant:0.6 --format json
same_as_module scan --interaction constant:0 --statistics boson
same_as_module point 1.0 --format json
same_as_module scan --steps 10000 --format json
same_as_module scan --steps 100000
# fails STATUS COMMAND...: COMMAND exits with STATUS, and its last stderr line is the documented error line, which
# starts with `error:`, or when argparse rejects the command line with `spinscatter <command>: error:` (a bad option
# value) or `spinscatter: error:` (an unrecognized argument).
stderr_file=$(mktemp)
trap 'rm -f "$stderr_file"' EXIT
fails() {
    local want=$1 code=0
    shift
    "$@" 2>"$stderr_file" || code=$?
    test "$code" -eq "$want" || { echo "$*: exit status $code, want $want" >&2; exit 1; }
    tail -n 1 "$stderr_file" | grep -Eq '^(spinscatter( [a-z]+)?: )?error: ' \
        || { echo "$*: last stderr line is not an error line:" >&2; cat "$stderr_file" >&2; exit 1; }
}
fails 2 spinscatter point 2.0
fails 1 spinscatter point 1.0 --output /nonexistent/dir/t.csv
fails 1 spinscatter point 1.0 > /dev/full
fails 2 spinscatter scan --steps 1
fails 2 spinscatter critical --tol 1e-6
(ulimit -v 4000000; fails 1 spinscatter scan --steps 1000000000000)
echo "entry point checks passed"
