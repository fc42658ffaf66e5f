#!/bin/sh
# traffic.sh — map which code of internal/ the evaluation runs
#
# Usage: scripts/traffic.sh [output-dir]   (default: traffic-out)
#
# Builds cmd/experiments, the examples, cmd/dmetabench, cmd/dmetaplot
# and the benchmark with coverage of every dmetabench package, then
# drives all of them:
#   - the experiment suite, reporting whether its -md output equals
#     EXPERIMENTS.md;
#   - every example;
#   - cmd/dmetabench on every -fs with every plugin of
#     core.PluginByName, and -mode real on a temporary directory;
#   - cmd/dmetaplot's time, procs and nodes charts;
#   - each benchmark workload at --seconds 1 --trace 1.
# It merges the coverage of every run and prints, per function under
# internal/, the statements that no run executed, largest first:
#   unrun  stmts  file:line function
# Functions that every run missed entirely read unrun == stmts.
#
# Everything it writes, the program output of each run included, goes
# to the output directory (traffic-out/ is git-ignored). A map took
# 2.5 minutes on a 2-vCPU Intel Xeon VM with Go 1.24.
set -eu

cd "$(dirname "$0")/.."
out=${1:-traffic-out}
mkdir -p "$out"
out=$(cd "$out" && pwd)
rm -rf "$out/bin" "$out/cov" "$out/runs" "$out/merged"
mkdir -p "$out/bin" "$out/cov" "$out/runs" "$out/merged"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

say() { echo "traffic: $*" >&2; }

# run NAME CMD... runs one instrumented command with its output in
# runs/NAME.out and reports a non-zero exit without stopping the map.
run() {
	name=$1
	shift
	if ! GOCOVERDIR="$out/cov" "$@" >"$out/runs/$name.out" 2>&1; then
		say "$name exited non-zero; see $out/runs/$name.out"
	fi
}

say "building with coverage"
cover="-cover -coverpkg=dmetabench/..."
go build $cover -o "$out/bin/experiments" ./cmd/experiments
go build $cover -o "$out/bin/dmetabench" ./cmd/dmetabench
go build $cover -o "$out/bin/dmetaplot" ./cmd/dmetaplot
examples=""
for d in examples/*/; do
	n=$(basename "$d")
	examples="$examples $n"
	go build $cover -o "$out/bin/example-$n" "./$d"
done
go -C benchmark build $cover -o "$out/bin/benchmark" .

say "running the experiment suite"
run experiments "$out/bin/experiments" -md "$out/runs/experiments.md"
if cmp -s "$out/runs/experiments.md" EXPERIMENTS.md; then
	say "suite: -md output equals EXPERIMENTS.md"
else
	say "suite: -md output differs from EXPERIMENTS.md"
fi

say "running the examples"
mkdir -p "$out/runs/cwd"
for n in $examples; do
	(cd "$out/runs/cwd" && run "example-$n" "$out/bin/example-$n")
done

say "running cmd/dmetabench"
fskinds=$(sed -n 's/^const fsKinds = "\(.*\)"$/\1/p' cmd/dmetabench/main.go | tr -d ' ' | tr '|' ' ')
ops=$(sed -n '/^func PluginByName/,/^}/s/^	case "\(.*\)":$/\1/p' internal/core/plugins.go | paste -sd, -)
for kind in $fskinds; do
	nodes=2
	[ "$kind" = local ] && nodes=1
	run "dmetabench-$kind" "$out/bin/dmetabench" -fs "$kind" -nodes $nodes -ppn 2 \
		-ops "$ops" -problemsize 100 -out "$out/runs/dmetabench-$kind"
done
mkdir -p "$out/runs/real-root"
run dmetabench-real "$out/bin/dmetabench" -mode real -root "$out/runs/real-root" \
	-workers 2 -ops "$ops" -problemsize 50

say "running cmd/dmetaplot"
res="$out/runs/dmetabench-nfs"
run dmetaplot-time "$out/bin/dmetaplot" -type time -dir "$res" -op MakeFiles -nodes 1 -ppn 1
run dmetaplot-procs "$out/bin/dmetaplot" -type procs "$res:MakeFiles" "$res:StatFiles"
run dmetaplot-nodes "$out/bin/dmetaplot" -type nodes -ppn 1 "$res:MakeFiles"

say "running the benchmark workloads"
mkdir -p "$out/runs/bench"
(cd "$out/runs/bench" && run benchmark "$out/bin/benchmark" --seconds 1 --trace 1)

say "merging coverage"
go tool covdata merge -i="$out/cov" -o="$out/merged"
go tool covdata textfmt -i="$out/merged" -o="$out/profile.txt"
# go tool cover -func cannot list the benchmark module's package, so it
# reads only the lines of internal/.
{
	head -n 1 "$out/profile.txt"
	grep '^dmetabench/internal/' "$out/profile.txt"
} >"$out/internal.txt"
go tool cover -func="$out/internal.txt" >"$out/func.txt"

# Each block of the profile belongs to the last function of its file
# that starts at or before the block.
awk '
FNR == NR {
	if ($1 == "total:") next
	split($1, a, ":")
	k = ++nf[a[1]]
	fline[a[1], k] = a[2] + 0
	fname[a[1], k] = $2
	next
}
FNR == 1 { next }
{
	split($1, a, ":")
	split(a[2], b, ".")
	line = b[1] + 0
	best = 0
	for (i = 1; i <= nf[a[1]]; i++)
		if (fline[a[1], i] <= line && (best == 0 || fline[a[1], i] >= fline[a[1], best]))
			best = i
	if (best == 0) next
	id = a[1] ":" fline[a[1], best] " " fname[a[1], best]
	stmts[id] += $2
	if ($3 == 0) unrun[id] += $2
}
END {
	for (id in unrun)
		if (unrun[id] > 0)
			printf "%5d  %5d  %s\n", unrun[id], stmts[id], id
}' "$out/func.txt" "$out/internal.txt" | sort -k1,1nr -k3,3 >"$out/unrun.txt"

echo "unrun  stmts  file:line function"
cat "$out/unrun.txt"
awk '{ u += $1 } END { printf "total: %d statements never ran, in %d functions\n", u, NR }' "$out/unrun.txt"
