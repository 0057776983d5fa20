#!/usr/bin/env bash
# Checks the installed `spinscatter` script: its output, the `point` JSON, 10k-step JSON (ten write blocks) and
# 100k-step scan digests, the critical line and the exit codes (0 / 2 / 1).  Run from any directory after
# `pip install -e .`: bash .github/check-entry-point.sh
set -euo pipefail

test "$(spinscatter critical)" = "theta_c = 0.785398163397 rad (45.000000000000 deg)"
test "$(spinscatter point 1.0 --format json | sha256sum | cut -d' ' -f1)" = 1cb1a9f572065ae4f730606e33682675bc6d2718259f4d6f8aaa8a9741eb75c2
test "$(spinscatter scan --steps 10000 --format json | sha256sum | cut -d' ' -f1)" = bb1460209592f1d6da9aed6364e08de685e0c17bcb98cbb4699ea4e358e6d7fa
test "$(spinscatter scan --steps 100000 | sha256sum | cut -d' ' -f1)" = a0710443964afa638760074c620da76f1a400fd02b13e5d85a86d81e139fc9c0
test "$(spinscatter critical --interaction constant:0.6)" = "no crossing"
code=0; spinscatter point 2.0 || code=$?; test "$code" -eq 2
code=0; spinscatter point 1.0 --output /nonexistent/dir/t.csv || code=$?; test "$code" -eq 1
code=0; spinscatter point 1.0 > /dev/full || code=$?; test "$code" -eq 1
code=0; spinscatter scan --steps 1 || code=$?; test "$code" -eq 2
code=0; spinscatter critical --tol 1e-6 2>/dev/null || code=$?; test "$code" -eq 2
code=0; (ulimit -v 4000000; spinscatter scan --steps 1000000000000) || code=$?; test "$code" -eq 1
echo "entry point checks passed"
