#!/usr/bin/env bash
# Checks the installed `spinscatter` script: for each argv its stdout must be byte-identical to that of
# `python -m spinscatter.cli` (whose bytes the tier-1 tests pin), read through real pipes, and its exit codes must be
# 0 / 2 / 1 as documented.  Run from any directory after `pip install -e .`: bash .github/check-entry-point.sh
set -euo pipefail

same_as_module() {
    local installed module
    installed=$(spinscatter "$@" | sha256sum)
    module=$(python -m spinscatter.cli "$@" | sha256sum)
    test "$installed" = "$module" || { echo "spinscatter $* differs from python -m spinscatter.cli" >&2; exit 1; }
}
same_as_module critical
same_as_module critical --interaction constant:0.6
same_as_module point 1.0 --format json
same_as_module scan --steps 10000 --format json
same_as_module scan --steps 100000
code=0; spinscatter point 2.0 || code=$?; test "$code" -eq 2
code=0; spinscatter point 1.0 --output /nonexistent/dir/t.csv || code=$?; test "$code" -eq 1
code=0; spinscatter point 1.0 > /dev/full || code=$?; test "$code" -eq 1
code=0; spinscatter scan --steps 1 || code=$?; test "$code" -eq 2
code=0; spinscatter critical --tol 1e-6 2>/dev/null || code=$?; test "$code" -eq 2
code=0; (ulimit -v 4000000; spinscatter scan --steps 1000000000000) || code=$?; test "$code" -eq 1
echo "entry point checks passed"
