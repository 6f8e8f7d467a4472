#!/usr/bin/env bash
# Non-test Go lines per package and in total, without benchmark/ (its own
# module). The numbers a simplicity PR quotes in CHANGES.md come from here.
set -euo pipefail
cd "$(dirname "$0")/.."

for dir in $(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -printf '%h\n' | sort -u); do
	printf '%7d  %s\n' "$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)" "$dir"
done
printf '%7d  total\n' "$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs cat | wc -l)"
