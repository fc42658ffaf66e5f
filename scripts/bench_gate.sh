#!/bin/sh
# bench_gate.sh — benchmark regression gate for CI.
#
# Runs the substrate benchmarks into a fresh snapshot (bench-out/ by
# default), compares BenchmarkSimulatedCreate, BenchmarkCachedGetattr,
# BenchmarkSplitCreate, BenchmarkBackendCreate, BenchmarkDomainCreate,
# BenchmarkAggregateInject, BenchmarkKernelHandoff and
# BenchmarkKernelSpawn ns/op against the
# newest committed BENCH_*.json in the repo root, and for each gated
# benchmark
#
#   - fails (exit 1) on a regression worse than 2x,
#   - warns on any regression above 15%,
#   - passes otherwise.
#
# Absolute allocation guards ride along: BenchmarkAggregateInject's,
# BenchmarkKernelHandoff's and BenchmarkCachedGetattr's steady states
# must report 0 allocs/op, and
# the hot create paths, BenchmarkKernelSpawn and BenchmarkKernelFanout
# carry allocs/op ceilings (alloc creep fails the build before it
# becomes a ns/op regression). When the host fingerprint (CPU model/cores,
# recorded by bench.sh) differs between baseline and candidate, the
# gate prints a loud warning — cross-hardware ratios are advisory.
#
# A gated benchmark missing from the committed baseline is skipped with
# a notice (the first snapshot that includes it becomes its baseline).
#
# One informational run of the whole experiment suite rides along too:
# its wall clock and its -cells summary line (cell sum, share of the
# worker bound reached, peak RSS) go to suite_timing.txt in the output
# directory, so the CI trajectory records suite time and memory side by
# side. Neither is ever gated.
#
# Usage: scripts/bench_gate.sh [output-dir]
set -eu

cd "$(dirname "$0")/.."
outdir="${1:-bench-out}"
mkdir -p "$outdir"

baseline=$(ls BENCH_*.json 2>/dev/null | sort | tail -1)
if [ -z "$baseline" ]; then
	echo "bench_gate: no committed BENCH_*.json baseline found" >&2
	exit 1
fi

# Three samples per benchmark: one 1s sample on a shared CI runner is
# too noisy for a hard gate; the snapshot records the mean. Substrate
# benchmarks only — the gate never compares the failover or coherence
# experiments, so it does not pay for running them.
scripts/bench.sh "$outdir" -count 3 -substrate-only
fresh=$(ls "$outdir"/BENCH_*.json | sort | tail -1)

# Suite wall-clock timing lines: one parallel run of the whole suite, so
# the perf trajectory in the CI artifact captures end-to-end cost, not
# just ns/op, plus the -cells summary line: the cell sum, the wall time,
# the share of the j-worker bound max(sum/j, longest cell) the run
# reached and the suite's peak RSS (getrusage maxrss; absent where the
# platform reports none). Informational only — never gated (shared
# runners are too noisy for a hard wall-clock or memory bound).
workers=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
go build -o "$outdir/.experiments-gate" ./cmd/experiments
"$outdir/.experiments-gate" -j "$workers" -cells > "$outdir/.experiments-gate.out" ||
	echo "bench_gate: the suite run exited non-zero (not gated here; the docs job fails on it)"
suite_s=$(awk '/^total:/ { sub(/s$/, "", $2); print $2 }' "$outdir/.experiments-gate.out")
{
	echo "bench_gate: suite wall-clock ${suite_s}s (-j $workers)"
	grep '^cell sum ' "$outdir/.experiments-gate.out" | sed 's/^/bench_gate: /'
} | tee "$outdir/suite_timing.txt"
rm -f "$outdir/.experiments-gate" "$outdir/.experiments-gate.out"

extract() {
	# Pull one numeric field ($3, e.g. ns_per_op) of one benchmark out of
	# a snapshot; every snapshot format keeps one benchmark per line. The
	# quoted-key-plus-colon match is exact: a benchmark whose name is a
	# prefix of another's never matches the longer entry.
	awk -v bench="\"$2\":" -v field="\"$3\"" 'index($0, bench) {
		if (match($0, field ": *[0-9.]+")) {
			v = substr($0, RSTART, RLENGTH); sub(/.*: */, "", v); print v; exit
		}
	}' "$1"
}

# Host-fingerprint check: a ratio between snapshots from different
# hardware is advisory at best, so mismatches are flagged loudly (the
# ns/op gates still run — a >2x regression is meaningful even across
# machines, but read warnings in that light).
fingerprint() {
	awk '
	/"cpu_model":/ { split($0, q, "\""); m = q[4] }
	/"cpu_cores":/ { if (match($0, /[0-9]+/)) c = substr($0, RSTART, RLENGTH) }
	END {
		if (m == "" && c == "") print "unrecorded"
		else printf "%s, %s cores\n", m, c
	}' "$1"
}
base_fp=$(fingerprint "$baseline")
new_fp=$(fingerprint "$fresh")
if [ "$base_fp" != "$new_fp" ]; then
	echo "bench_gate: =================================================================="
	echo "bench_gate: WARNING — host fingerprint differs from the committed baseline:"
	echo "bench_gate:   baseline ($baseline): $base_fp"
	echo "bench_gate:   candidate: $new_fp"
	echo "bench_gate: ns/op ratios across different hardware are advisory only."
	echo "bench_gate: =================================================================="
fi

status=0
for bench in BenchmarkSimulatedCreate BenchmarkCachedGetattr BenchmarkSplitCreate BenchmarkBackendCreate BenchmarkDomainCreate BenchmarkAggregateInject BenchmarkKernelHandoff BenchmarkKernelSpawn; do
	base_ns=$(extract "$baseline" "$bench" ns_per_op)
	new_ns=$(extract "$fresh" "$bench" ns_per_op)
	if [ -z "$new_ns" ]; then
		echo "bench_gate: $bench missing from $fresh" >&2
		status=1
		continue
	fi
	if [ -z "$base_ns" ]; then
		echo "bench_gate: $bench has no baseline in $baseline yet; skipping"
		continue
	fi
	echo "bench_gate: $bench $base_ns ns/op ($baseline) -> $new_ns ns/op"
	awk -v base="$base_ns" -v new="$new_ns" -v bench="$bench" 'BEGIN {
		ratio = new / base
		printf "bench_gate: %s ratio %.2fx\n", bench, ratio
		if (ratio > 2.0) {
			printf "bench_gate: FAIL — %s regressed more than 2x\n", bench
			exit 1
		}
		if (ratio > 1.15) {
			printf "bench_gate: WARNING — %s regressed %.0f%%\n", bench, (ratio - 1) * 100
		}
		exit 0
	}' || status=1
done

# Allocation guards: the aggregate-injection steady state (its per-op
# cost is the whole point of the model), the kernel's park/resume
# round trip and the sharded MDS's lease-hit stat (client name and
# lease caches, no RPC) must stay allocation-free. These are absolute
# bounds, not baseline comparisons, so they hold from the first
# snapshot on.
for bench in BenchmarkAggregateInject BenchmarkKernelHandoff BenchmarkCachedGetattr; do
	a=$(extract "$fresh" "$bench" allocs_per_op)
	if [ -z "$a" ]; then
		echo "bench_gate: $bench allocs/op missing from $fresh" >&2
		status=1
	elif awk -v a="$a" 'BEGIN { exit !(a > 0) }'; then
		echo "bench_gate: FAIL — $bench allocates ($a allocs/op, want 0)" >&2
		status=1
	else
		echo "bench_gate: $bench allocs/op 0 — ok"
	fi
done

# Allocation-creep guards: absolute allocs/op ceilings on the hot
# simulated-create paths, set to their measured steady state (the
# single-kernel creates 3, DomainCreate 7), on a
# process lifetime (KernelSpawn 2: the Proc and its joiner list) and on
# a parallel fan-out of 8 (KernelFanout 0: its children are recycled,
# so its steady state does not grow with their number).
# Closure escapes on these paths creep in silently with refactors; the
# ceiling turns the creep into a red build instead of a slow one.
for guard in "BenchmarkSimulatedCreate 3" "BenchmarkShardedCreate 3" "BenchmarkBackendCreate 3" "BenchmarkSplitCreate 3" "BenchmarkDomainCreate 7" "BenchmarkKernelSpawn 2" "BenchmarkKernelFanout 0"; do
	bench=${guard% *}
	limit=${guard#* }
	a=$(extract "$fresh" "$bench" allocs_per_op)
	if [ -z "$a" ]; then
		echo "bench_gate: $bench allocs/op missing from $fresh" >&2
		status=1
	elif awk -v a="$a" -v lim="$limit" 'BEGIN { exit !(a > lim) }'; then
		echo "bench_gate: FAIL — $bench allocates $a allocs/op (ceiling $limit)" >&2
		status=1
	else
		echo "bench_gate: $bench allocs/op $a <= $limit — ok"
	fi
done
exit $status
