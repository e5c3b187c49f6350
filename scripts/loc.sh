#!/usr/bin/env bash
# Non-blank lines of non-test Go per package, outside benchmark/ — the census
# every CHANGES.md entry quotes. Report only; nothing gates on it.
# Usage: scripts/loc.sh [dir]   (default: the repository root)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"
find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 |
  xargs -0 awk 'NF { n[FILENAME]++ } END { for (f in n) print n[f], f }' |
  awk '{ d = $2; sub(/\/[^\/]*$/, "", d); if (d == ".") d = "./"; pkg[d] += $1; total += $1 }
       END { for (d in pkg) printf "%6d  %s\n", pkg[d], d; printf "%6d  total\n", total }' |
  sort -k2
