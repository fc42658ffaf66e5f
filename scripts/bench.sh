#!/bin/sh
# bench.sh — snapshot the substrate micro-benchmarks into BENCH_<date>.json
#
# Usage: scripts/bench.sh [output-dir] [-count N] [-substrate-only]
#        (default: repo root, 1, full snapshot)
#
# A full snapshot also times the experiment suite end to end, serial
# (-j 1) and parallel (-j nproc), and records both as suite_serial_s /
# suite_parallel_s so the perf trajectory captures suite wall-clock,
# not just ns/op. -substrate-only skips the suite timing (the bench
# gate adds its own timing line instead).
#
# The snapshot records ns/op, B/op and allocs/op for the simulator
# substrate benchmarks plus the fault-injection (E19–E21), cache-
# coherence (E22–E24), directory-splitting (E25–E27), storage-backend
# (E28–E30) and long-horizon aggregate-scale (E31–E33, at a reduced
# -period) experiments, and the toolchain and commit that
# produced it, so future PRs have a perf trajectory to compare against
# (see DESIGN.md, "Performance-regression workflow"). The experiment
# entries record the real-time cost of full experiment runs plus their
# summary metrics (hit rates, stale-read windows) as extra columns; they
# are in the snapshot for the trajectory only — the bench gate never
# compares them (failover timelines are intentionally non-steady-state),
# so it passes -substrate-only to skip them entirely. With -count N
# every benchmark runs N times; the JSON stores the per-benchmark mean
# and the raw `go test` output is written alongside as BENCH_<date>.txt
# for benchstat.
set -eu

cd "$(dirname "$0")/.."

outdir="."
count=1
suite=1
substrate='BenchmarkSimulatedCreate$|BenchmarkShardedCreate$|BenchmarkDomainCreate$|BenchmarkCachedGetattr$|BenchmarkSplitCreate$|BenchmarkBackendCreate$|BenchmarkAggregateInject$|BenchmarkKernelHandoff$|BenchmarkKernelSpawn$|BenchmarkNamespaceCreate$|BenchmarkRunnerMeasurement$'
failover='BenchmarkE19Failover$|BenchmarkE20ReplicationOverhead$|BenchmarkE21RecoveryScaling$'
coherence='BenchmarkE22LeaseTTL$|BenchmarkE23CacheModes$|BenchmarkE24FailoverCachedLoad$'
split='BenchmarkE25SplitScaling$|BenchmarkE26SplitStorm$|BenchmarkE27SplitRouting$'
backend='BenchmarkE28BackendProfile$|BenchmarkE29CompactionTimeline$|BenchmarkE30GroupCommit$'
# The long-horizon experiments (interval-series harness) run at a
# reduced -period inside their benchmarks; their row metrics carry
# spaces and slashes, which the unit-label column scan below tolerates.
scale='BenchmarkE31AggregateDay$|BenchmarkE32ForegroundTail$|BenchmarkE33CapacityPressure$'
# The filer-at-scale experiment (E35) runs at a reduced -period inside
# its benchmark like the E31-E33 group.
filer='BenchmarkE35FilerAtScale$'
pattern="$substrate|$failover|$coherence|$split|$backend|$scale|$filer"
while [ $# -gt 0 ]; do
	case "$1" in
	-count)
		count="$2"
		shift 2
		;;
	-substrate-only)
		pattern="$substrate"
		suite=0
		shift
		;;
	*)
		outdir="$1"
		shift
		;;
	esac
done

mkdir -p "$outdir"
out="$outdir/BENCH_$(date +%Y-%m-%d).json"

raw=$(go test -run '^$' -bench "$pattern" \
	-benchmem -benchtime=1s -count="$count" .)

if [ "$count" -gt 1 ]; then
	printf '%s\n' "$raw" > "$outdir/BENCH_$(date +%Y-%m-%d).txt"
fi

# Suite wall-clock, serial vs parallel. The experiments binary prints
# "total: <secs>s (<n> workers)"; build once so compile time is not
# measured into the first run.
suite_serial=""
suite_parallel=""
suite_workers=""
if [ "$suite" -eq 1 ]; then
	suite_workers=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
	bin="$outdir/.experiments-bench"
	go build -o "$bin" ./cmd/experiments
	suite_serial=$("$bin" -j 1 | awk '/^total:/ { sub(/s$/, "", $2); print $2 }')
	suite_parallel=$("$bin" -j "$suite_workers" | awk '/^total:/ { sub(/s$/, "", $2); print $2 }')
	rm -f "$bin"
fi

goversion=$(go version | sed 's/^go version //')
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)

# Host fingerprint: CPU model and core count. ns/op comparisons between
# snapshots taken on different hardware are advisory at best, so the
# bench gate warns loudly when the fingerprints of baseline and
# candidate differ.
cpu_model=$(awk -F': *' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)
if [ -z "$cpu_model" ]; then
	cpu_model=$(sysctl -n machdep.cpu.brand_string 2>/dev/null || echo unknown)
fi
cpu_cores=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)

printf '%s\n' "$raw" | awk -v host="$(uname -sm)" -v gover="$goversion" \
	-v commit="$commit" -v count="$count" \
	-v cpum="$cpu_model" -v cpuc="$cpu_cores" \
	-v ss="$suite_serial" -v sp="$suite_parallel" -v sw="$suite_workers" '
BEGIN {
	print "{"
	printf "  \"host\": \"%s\",\n", host
	printf "  \"cpu_model\": \"%s\",\n", cpum
	printf "  \"cpu_cores\": %s,\n", cpuc
	printf "  \"go\": \"%s\",\n", gover
	printf "  \"commit\": \"%s\",\n", commit
	printf "  \"count\": %d,\n", count
	if (ss != "" && sp != "") {
		printf "  \"suite_serial_s\": %s,\n", ss
		printf "  \"suite_parallel_s\": %s,\n", sp
		printf "  \"suite_workers\": %s,\n", sw
	}
	printf "  \"benchmarks\": {\n"
	n = 0
}
# Result lines only: "BenchmarkX-8  <iters>  <value> <unit> ...". The
# iteration-count guard skips headers and failure lines that happen to
# start with "Benchmark".
/^Benchmark/ && NF >= 4 && $2 ~ /^[0-9]+$/ {
	# Locate values by their unit label: experiment benchmarks insert
	# extra ReportMetric columns between ns/op and B/op, and B/op and
	# allocs/op are absent entirely without -benchmem. Only numeric
	# values count, so a malformed column cannot corrupt the sums.
	name = $1; sub(/-[0-9]+$/, "", name)
	for (i = 3; i <= NF; i++) {
		if ($(i - 1) !~ /^[0-9.]+(e[+-]?[0-9]+)?$/) continue
		if ($i == "ns/op") { ns[name] += $(i - 1); nsruns[name]++ }
		else if ($i == "B/op") { bytes[name] += $(i - 1); bruns[name]++ }
		else if ($i == "allocs/op") { allocs[name] += $(i - 1); aruns[name]++ }
	}
	if (!(name in seen)) { order[n++] = name; seen[name] = 1 }
}
END {
	first = 1
	for (i = 0; i < n; i++) {
		name = order[i]
		if (nsruns[name] == 0) continue # never a valid ns/op column
		if (!first) printf ",\n"
		first = 0
		printf "    \"%s\": {\"ns_per_op\": %.0f", name, ns[name] / nsruns[name]
		if (bruns[name] > 0) printf ", \"bytes_per_op\": %.0f", bytes[name] / bruns[name]
		if (aruns[name] > 0) printf ", \"allocs_per_op\": %.1f", allocs[name] / aruns[name]
		printf "}"
	}
	printf "\n  }\n}\n"
}
' > "$out"

echo "wrote $out"
cat "$out"
