#!/usr/bin/env bash
# The two sizes ROADMAP needle 2 is judged by: Go lines outside the
# benchmark harness, without and with tests. Same recipe every PR's
# numbers since PR 16 came from; blank lines and comments count.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find . -name '*.go' -not -path './benchmark/*' -not -path './.bench_build/*' "$@" -print0 |
        xargs -0 cat | wc -l
}

printf 'non-test Go outside benchmark/: %d\n' "$(count -not -name '*_test.go')"
printf 'all Go outside benchmark/:      %d\n' "$(count)"
