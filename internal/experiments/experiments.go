// Package experiments regenerates the evaluation of the thesis (Chapter
// 4): every table and figure has a function here that builds the
// corresponding simulated environment, runs DMetabench on it and reports
// the numbers and shapes the paper discusses. cmd/experiments prints the
// reports; the root bench_test.go exposes each as a testing.B benchmark.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"dmetabench/internal/results"
	"dmetabench/internal/shard"
	"dmetabench/internal/sim"
)

// Domains, when > 0, overrides shard.Config.Domains for every sharded
// MDS in the suite (the -domains flag of cmd/experiments): each such
// simulation is partitioned into that many event-kernel domains running
// under the conservative-lookahead protocol. 0 keeps each experiment's
// own setting — the single-heap kernel, which the committed
// EXPERIMENTS.md corpus was generated with.
var Domains int

// newShardFS is the construction point for the sharded MDS in this
// package; it applies the package-wide Domains override so one flag
// domains every sharded experiment.
func newShardFS(k *sim.Kernel, name string, cfg shard.Config) *shard.FS {
	if Domains > 0 {
		cfg.Domains = Domains
	}
	return shard.New(k, name, cfg)
}

// Row is one reported metric.
type Row struct {
	Name  string
	Value float64
	Unit  string
	Note  string
}

// Report is the outcome of one experiment.
type Report struct {
	ID       string
	Title    string
	PaperRef string
	Rows     []Row
	// Charts holds rendered ASCII charts.
	Charts []string
	// Findings summarizes the shape comparison against the paper.
	Findings []string
	// Err, when set, is why the run failed: a kernel error, a failed
	// rank or a failed probe (see fail).
	Err error
	// Volatile marks a report whose values are real-time measurements
	// of the host machine (E02) rather than deterministic virtual-time
	// results. The committed EXPERIMENTS.md replaces volatile values
	// with a placeholder so regeneration is byte-stable across machines
	// (the CI docs job diffs it).
	Volatile bool
}

func (r *Report) row(name string, value float64, unit, note string) {
	r.Rows = append(r.Rows, Row{Name: name, Value: value, Unit: unit, Note: note})
}

func (r *Report) finding(format string, args ...interface{}) {
	r.Findings = append(r.Findings, fmt.Sprintf(format, args...))
}

// fail records err as the reason the run failed, adds it as a finding
// and returns the report.
func (r *Report) fail(err error) *Report {
	r.Err = err
	r.finding("run failed: %v", err)
	return r
}

// String renders the report as text.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s (%s) ==\n", r.ID, r.Title, r.PaperRef)
	for _, row := range r.Rows {
		note := ""
		if row.Note != "" {
			note = "  # " + row.Note
		}
		val := fmt.Sprintf("%14.1f", row.Value)
		if row.Value < 10 && row.Value > -10 && row.Value != float64(int64(row.Value)) {
			val = fmt.Sprintf("%14.3f", row.Value)
		}
		fmt.Fprintf(&b, "  %-46s %s %-8s%s\n", row.Name, val, row.Unit, note)
	}
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  -> %s\n", f)
	}
	for _, c := range r.Charts {
		b.WriteString(c)
	}
	return b.String()
}

// Experiment pairs an id with its runner. Cells is the number of
// independent execution cells the experiment decomposes into — the
// parallelism it exposes to the par worker pool (1 = inherently serial;
// it still runs concurrently with other experiments in the suite).
type Experiment struct {
	ID    string
	Run   func() *Report
	Cells int
}

// All lists every experiment in evaluation order.
func All() []Experiment {
	return []Experiment{
		{"E01", E01SyscallCounts, 2},
		{"E02", E02HarnessOverhead, 1}, // real-time: must not share the host
		{"E03", E03CPUHogCOV, 2},
		{"E04", E04SnapshotNoise, 2},
		{"E05", E05ConsistencyPoints, 2},
		{"E06", E06WriteInterference, 2},
		{"E07", E07CreateScaling, 16}, // 2 file systems x 8 sweep points
		{"E08", E08LargeDirectories, 11},
		{"E09", E09AllocationBursts, 1},
		{"E10", E10PriorityScheduling, 1},
		{"E11", E11SMPScaling, 12}, // 2 file systems x 6 PPN points
		{"E12", E12LatencySweep, 15},
		{"E13", E13NamespaceAggregation, 17}, // probe + 2 sweeps x 8 points
		{"E14", E14AFS, 6},
		{"E15", E15WritebackCaching, 2},
		{"E16", E16ShardScaling, 5},
		{"E17", E17ShardSkew, 4},
		{"E18", E18CrossShard, 2},
		{"E19", E19FailoverTimeline, 2},
		{"E20", E20ReplicationOverhead, 6},
		{"E21", E21RecoveryScaling, 4},
		{"E22", E22LeaseTTL, 4},
		{"E23", E23CacheModes, 13},
		{"E24", E24FailoverCachedLoad, 2},
		{"E25", E25SplitScaling, 10},
		{"E26", E26SplitStorm, 3},
		{"E27", E27SplitRouting, 7},
		{"E28", E28BackendProfile, 12},
		{"E29", E29CompactionTimeline, 3},
		{"E30", E30GroupCommit, 9},
		{"E31", E31AggregateDay, 2},
		{"E32", E32ForegroundTail, 3},
		{"E33", E33CapacityPressure, 3},
		{"E35", E35FilerAtScale, 2}, // quiet + loaded day
	}
}

const (
	chartW = 68
	chartH = 9
)

// stoneOf returns the stonewall throughput of (op, nodes, ppn) in a set,
// or 0 when missing.
func stoneOf(set *results.Set, op string, nodes, ppn int) float64 {
	m := set.Find(op, nodes, ppn)
	if m == nil {
		return 0
	}
	return m.Averages().Stonewall
}

// wallOf returns the wall-clock throughput, which uses exact completion
// times and is therefore meaningful even for runs shorter than one
// sampling interval (where the stonewall average floors at the grid).
func wallOf(m *results.Measurement) float64 { return m.Averages().WallClock }

// windowThroughput averages the per-interval throughput of a measurement
// between from and to.
func windowThroughput(m *results.Measurement, from, to time.Duration) float64 {
	rows := m.Summary()
	var sum float64
	var n int
	for _, r := range rows {
		if r.T > from && r.T <= to {
			sum += r.Throughput
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// minThroughput returns the lowest per-interval throughput of a
// measurement between from and to; ok is false when the window holds
// no samples (a genuine zero-throughput interval is a valid minimum,
// an empty window is not).
func minThroughput(m *results.Measurement, from, to time.Duration) (min float64, ok bool) {
	min = -1
	for _, r := range m.Summary() {
		if r.T > from && r.T <= to && (min < 0 || r.Throughput < min) {
			min = r.Throughput
		}
	}
	if min < 0 {
		return 0, false
	}
	return min, true
}

// maxCOV returns the maximum COV between from and to.
func maxCOV(m *results.Measurement, from, to time.Duration) float64 {
	var max float64
	for _, r := range m.Summary() {
		if r.T > from && r.T <= to && r.COV > max {
			max = r.COV
		}
	}
	return max
}
