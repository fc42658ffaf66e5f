#!/bin/sh
# bench_digests.sh — benchmark digest drift check.
#
# Runs every benchmark workload for one second from seed 1, so that its
# repetitions cover seeds 1, 2 and 3, requires each run's last line to
# report "correct":true, and diffs the workloads' sim_digest.s1–s3
# lines against the committed scripts/bench_digests.txt. A digest
# hashes one repetition's simulated results and counters (sim.events,
# the model's RPC count and the rest), so a change meant to keep
# behaviour leaves the file as it is, and a change to a workload's
# simulation updates it in the same diff, like TestModelDigests.
#
# Usage: scripts/bench_digests.sh [-w]
#   -w  write the measured digests to scripts/bench_digests.txt
set -eu
cd "$(dirname "$0")/.."

want=scripts/bench_digests.txt
got=$(mktemp)
trap 'rm -f "$got" "$got.run"' EXIT
for w in nfs-create lease-stat shard-repl filer-day; do
	bash benchmark/run.sh --workload "$w" --seed 1 --seconds 1 --trace 0 >"$got.run"
	if ! tail -n 1 "$got.run" | grep -q '"correct":true'; then
		echo "bench_digests: $w did not run correctly:" >&2
		tail -n 1 "$got.run" >&2
		exit 1
	fi
	grep -E "^$w sim_digest\.s[123] " "$got.run" >>"$got"
done
if [ "${1:-}" = -w ]; then
	cp "$got" "$want"
	exit 0
fi
if ! diff -u "$want" "$got"; then
	echo "bench_digests: the digests moved; a change meant to move them runs scripts/bench_digests.sh -w" >&2
	exit 1
fi
