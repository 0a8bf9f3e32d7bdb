#!/usr/bin/env bash
# The two sizes ROADMAP needle 2 is judged by: Go lines outside the
# benchmark harness, without and with tests. Same recipe every PR's
# numbers since PR 16 came from; blank lines and comments count.
# Generated files (*_gen.go, written by `go generate`) are counted on a
# line of their own and left out of the two sizes: they are copies of
# hand-written code, not code anyone maintains.
# With directories as arguments (`scripts/loc.sh internal/nat
# internal/libvig`: a PR that says a package shrank quotes these), the
# same counts for each instead.
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # count <dir> [find predicates]
    local dir=$1
    shift
    find "$dir" -name '*.go' -not -path './benchmark/*' -not -path './.bench_build/*' "$@" -print0 |
        xargs -0 cat | wc -l
}

if [ $# -eq 0 ]; then
    printf 'non-test Go outside benchmark/: %d\n' "$(count . -not -name '*_test.go' -not -name '*_gen.go')"
    printf 'all Go outside benchmark/:      %d\n' "$(count . -not -name '*_gen.go')"
    printf 'generated Go (not in the above): %d\n' "$(count . -name '*_gen.go')"
    exit
fi
for dir in "$@"; do
    printf '%s: %d non-test, %d with tests, %d generated\n' "$dir" \
        "$(count "$dir" -not -name '*_test.go' -not -name '*_gen.go')" \
        "$(count "$dir" -not -name '*_gen.go')" "$(count "$dir" -name '*_gen.go')"
done
