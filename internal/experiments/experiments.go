// Package experiments regenerates the evaluation of the thesis (Chapter
// 4): every table and figure has a plan here, whose seeded cells build
// the corresponding simulated environment and run DMetabench on it, and
// whose assemble step reports the numbers and shapes the paper
// discusses. Run runs the plans; cmd/experiments prints the reports, and
// the root bench_test.go exposes each as a testing.B benchmark.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"dmetabench/internal/results"
)

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
	// Err, when set, is why the run failed: the first failed cell's
	// error (a kernel error, a failed rank or a failed probe), prefixed
	// "<ID>/<cell>: " (see Run).
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

// Experiment is one report of the suite: its header and plan, which
// declares the experiment's cells and assembles its report from their
// results. plan builds fresh result slots on every call, so an
// Experiment can run any number of times.
type Experiment struct {
	ID       string
	Title    string
	PaperRef string
	// Volatile marks a report of real-time host measurements (see
	// Report.Volatile).
	Volatile bool
	plan     func() plan
}

// NumCells returns the number of cells the experiment runs.
func (e Experiment) NumCells() int { return len(e.plan().cells) }

// All lists every experiment in evaluation order.
func All() []Experiment {
	return []Experiment{
		{ID: "E01", Title: "API-level operation counts per create",
			PaperRef: "§4.2.1 (dtrace op counting)", plan: e01SyscallCounts},
		// One cell that ignores its kernel; it shares the pool like any
		// other cell.
		{ID: "E02", Title: "Harness overhead vs. raw loop",
			PaperRef: "Table 4.2 (Python vs. C, 200k creates)", Volatile: true, plan: e02HarnessOverhead},
		{ID: "E03", Title: "CPU hog on one of 4 nodes: dip + COV step",
			PaperRef: "Fig. 4.4", plan: e03CPUHogCOV},
		{ID: "E04", Title: "Server snapshots: erratic COV",
			PaperRef: "Fig. 4.5", plan: e04SnapshotNoise},
		{ID: "E05", Title: "Saturation sawtooth; hog invisible in total, visible in COV",
			PaperRef: "Fig. 4.6", plan: e05ConsistencyPoints},
		{ID: "E06", Title: "Bulk data write slows metadata globally",
			PaperRef: "Fig. 4.7", plan: e06WriteInterference},
		{ID: "E07", Title: "NFS vs Lustre file creation scaling",
			PaperRef: "§4.3.2", plan: e07CreateScaling},
		{ID: "E08", Title: "Creates in large directories, sequential and parallel",
			PaperRef: "§4.3.3", plan: e08LargeDirectories},
		{ID: "E09", Title: "Internal allocation bursts in the time log",
			PaperRef: "§4.3.4", plan: e09AllocationBursts},
		{ID: "E10", Title: "Process priority vs. metadata throughput",
			PaperRef: "§4.4", plan: e10PriorityScheduling},
		{ID: "E11", Title: "Large-SMP intra-node scaling: CXFS vs NFS",
			PaperRef: "§4.5.3", plan: e11SMPScaling},
		{ID: "E12", Title: "Metadata throughput vs. network latency",
			PaperRef: "§4.6", plan: e12LatencySweep},
		{ID: "E13", Title: "Ontap GX: volume placement and forwarding",
			PaperRef: "§4.7.1-4.7.2", plan: e13NamespaceAggregation},
		{ID: "E14", Title: "AFS: persistent cache and volume-grain service",
			PaperRef: "§4.7.3", plan: e14AFS},
		{ID: "E15", Title: "Write-back caching of metadata",
			PaperRef: "§4.8", plan: e15WritebackCaching},
		{ID: "E16", Title: "Shard-count scaling of create throughput",
			PaperRef: "beyond §4.3 (HopsFS/MetaFlow direction)", plan: e16ShardScaling},
		{ID: "E17", Title: "Hot-directory skew: hash vs. subtree placement",
			PaperRef: "beyond §4.7 (placement under skew)", plan: e17ShardSkew},
		{ID: "E18", Title: "Cross-shard operation cost",
			PaperRef: "beyond §4.6 (MDS interconnect hops)", plan: e18CrossShard},
		{ID: "E19", Title: "Failover timeline: mid-run shard crash, single vs. replicated",
			PaperRef: "beyond §4.2 (fault injection; HopsFS/StoreTorrent direction)", plan: e19FailoverTimeline},
		{ID: "E20", Title: "Replication overhead: creates/s with and without a synchronous backup",
			PaperRef: "beyond §4.3 (cost of HopsFS-style availability)", plan: e20ReplicationOverhead},
		{ID: "E21", Title: "Recovery-time scaling: takeover latency vs. journal length",
			PaperRef: "beyond §4.8 (journal replay on failover)", plan: e21RecoveryScaling},
		{ID: "E22", Title: "Lease TTL sweep: hit rate vs. revocation traffic",
			PaperRef: "beyond §2.1.2 (callback coherence; MetaFlow/HopsFS direction)", plan: e22LeaseTTL},
		{ID: "E23", Title: "Coherent vs. timeout vs. no client cache across shard counts",
			PaperRef: "beyond §4.7.3 (AFS callbacks vs. NFS timeouts, per shard count)", plan: e23CacheModes},
		{ID: "E24", Title: "Failover under cached load: the stale-read window",
			PaperRef: "beyond §4.2 + §2.1.2 (cache coherence across failover)", plan: e24FailoverCachedLoad},
		{ID: "E25", Title: "Giant-directory splitting: one shared directory vs. shard count",
			PaperRef: "beyond §4.3.3 (the large-directory wall; GIGA+/HopsFS direction)", plan: e25SplitScaling},
		{ID: "E26", Title: "Split-storm cost: migration dips vs. split threshold",
			PaperRef: "beyond §4.2 + §4.3.4 (self-inflicted disturbances in the timeline)", plan: e26SplitStorm},
		{ID: "E27", Title: "Split-bitmap staleness: bounce rate vs. TTL, and the readdir fan-out",
			PaperRef: "beyond §2.1.2 (routing-hint caching; GIGA+ stale-bitmap tolerance)", plan: e27SplitRouting},
		{ID: "E28", Title: "Backend cost profile: create/stat/ENOENT/readdir per storage backend",
			PaperRef: "beyond §4.3 (HopsFS NewSQL / LSM-KV backend axis)", plan: e28BackendProfile},
		{ID: "E29", Title: "Compaction-pause timeline: throughput dips vs. LSM compaction interval",
			PaperRef: "beyond §4.2 + §2.7 (self-inflicted stalls in the timeline)", plan: e29CompactionTimeline},
		{ID: "E30", Title: "Group-commit window sweep: replication overhead vs. added latency",
			PaperRef: "beyond §4.3 (HopsFS-style batched commits)", plan: e30GroupCommit},
		{ID: "E31", Title: "A simulated day at 1.2M aggregate clients",
			PaperRef: "beyond §3.3 (fs-benchmark perftest shape, -period 3h)", plan: e31AggregateDay},
		{ID: "E32", Title: "Foreground tail latency under 10k-1M background clients",
			PaperRef: "beyond §4.5 (lease coherence at population scale)", plan: e32ForegroundTail},
		{ID: "E33", Title: "Lease-table and splitmap memory pressure at scale",
			PaperRef: "beyond §4.5/§4.8 (state capacity at population scale)", plan: e33CapacityPressure},
		{ID: "E35", Title: "The paper's filer at modern scale: 1M background clients",
			PaperRef: "beyond §4.2 (single filer, population scale, -period 3h day)", plan: e35FilerAtScale},
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
