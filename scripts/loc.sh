#!/bin/sh
# loc.sh — count the Go lines of each package under internal/
#
# Usage: scripts/loc.sh
#
# Prints, per package, the lines of its .go files that are neither blank
# nor a // comment, non-test and test files separately, then the totals.
# These are the sizes the change log reports.
set -eu
cd "$(dirname "$0")/.."

# lines DIR FIND-ARGS... counts the code lines of DIR's matching files.
lines() {
	dir=$1
	shift
	find "$dir" -maxdepth 1 -name '*.go' "$@" -exec cat {} + |
		grep -cvE '^[[:space:]]*(//|$)' || true
}

printf '%-24s %8s %8s\n' package code test
code_total=0
test_total=0
for dir in internal/*/; do
	code=$(lines "$dir" ! -name '*_test.go')
	test=$(lines "$dir" -name '*_test.go')
	printf '%-24s %8d %8d\n' "${dir%/}" "$code" "$test"
	code_total=$((code_total + code))
	test_total=$((test_total + test))
done
printf '%-24s %8d %8d\n' total "$code_total" "$test_total"
