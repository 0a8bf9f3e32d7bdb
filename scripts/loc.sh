#!/usr/bin/env bash
# The two sizes ROADMAP needle 2 is judged by: Go lines outside the
# benchmark harness, without and with tests. Same recipe every PR's
# numbers since PR 16 came from; blank lines and comments count.
# With directories as arguments, the same two counts for each instead
# (`scripts/loc.sh internal/nat internal/libvig`: a PR that says a
# package shrank quotes these).
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # count <dir> [find predicates]
    local dir=$1
    shift
    find "$dir" -name '*.go' -not -path './benchmark/*' -not -path './.bench_build/*' "$@" -print0 |
        xargs -0 cat | wc -l
}

if [ $# -eq 0 ]; then
    printf 'non-test Go outside benchmark/: %d\n' "$(count . -not -name '*_test.go')"
    printf 'all Go outside benchmark/:      %d\n' "$(count .)"
    exit
fi
for dir in "$@"; do
    printf '%s: %d non-test, %d with tests\n' "$dir" "$(count "$dir" -not -name '*_test.go')" "$(count "$dir")"
done
