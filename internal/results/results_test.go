package results

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// paperExample rebuilds the measurement of Listings 3.3/3.4: four
// processes, 5000 operations each, 0.1s interval; two processes finish at
// 0.9s, the others at 1.0s. The thesis computes a stonewall average of
// 22,191 ops/s (19,972 ops at 0.9s).
func paperExample() *Measurement {
	mk := func(host string, proc int, done []int64) Trace {
		return Trace{
			Host: host, Op: "StatNocacheFiles", Proc: proc, Done: done,
			Final:      done[len(done)-1],
			FinishedAt: time.Duration(len(done)) * 100 * time.Millisecond,
		}
	}
	// Counts chosen so the 0.9s total is exactly 19,972 like the paper.
	return &Measurement{
		Op: "StatNocacheFiles", Nodes: 2, PPN: 2,
		Interval: 100 * time.Millisecond,
		Traces: []Trace{
			mk("lx64a153", 0, []int64{1, 569, 1212, 1800, 2400, 3000, 3700, 4411, 5000, 5000}),
			mk("lx64a153", 1, []int64{1, 550, 1163, 1750, 2350, 2950, 3650, 4350, 4977, 5000}),
			mk("lx64a140", 2, []int64{1, 547, 1166, 1760, 2360, 2960, 3660, 4351, 4995, 5000}),
			mk("lx64a140", 3, []int64{24, 624, 1266, 1860, 2460, 3060, 3760, 4475, 5000, 5000}),
		},
		Errors: make([]string, 4),
	}
}

func TestStonewallMatchesPaperWorkedExample(t *testing.T) {
	m := paperExample()
	a := m.Averages()
	if a.StonewallAt != 900*time.Millisecond {
		t.Fatalf("stonewall at %v, want 0.9s", a.StonewallAt)
	}
	// 19,972 ops at 0.9s = 22,191 ops/s (§3.3.9 worked example).
	if math.Abs(a.Stonewall-22191.1) > 1 {
		t.Fatalf("stonewall = %.1f, want ~22191", a.Stonewall)
	}
	if a.Runtime != time.Second {
		t.Fatalf("runtime = %v", a.Runtime)
	}
	if math.Abs(a.WallClock-20000) > 1 {
		t.Fatalf("wallclock = %.1f, want 20000", a.WallClock)
	}
}

func TestFixedNAverage(t *testing.T) {
	m := paperExample()
	a := m.Averages(10000)
	got := a.FixedN[10000]
	// Totals: 9,570 at t=0.5s and 11,970 at t=0.6s, so 10,000 ops are
	// first exceeded at t=0.6s: 10,000 / 0.6 = 16,666.7 ops/s.
	if math.Abs(got-16666.7) > 1 {
		t.Fatalf("fixedN(10000) = %.1f, want 16666.7", got)
	}
	if _, ok := m.Averages(1 << 40).FixedN[1<<40]; ok {
		t.Fatal("unreachable fixed-N reported a value")
	}
}

func TestSummaryRows(t *testing.T) {
	m := paperExample()
	rows := m.Summary()
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].TotalDone != 27 {
		t.Fatalf("t=0.1 total = %d, want 27 (1+1+1+24 like Listing 3.4)", rows[0].TotalDone)
	}
	// Total ops never decrease; throughput consistent with deltas.
	for i := 1; i < len(rows); i++ {
		if rows[i].TotalDone < rows[i-1].TotalDone {
			t.Fatalf("total decreased at %d", i)
		}
		wantThr := float64(rows[i].TotalDone-rows[i-1].TotalDone) / 0.1
		if math.Abs(rows[i].Throughput-wantThr) > 0.01 {
			t.Fatalf("throughput[%d] = %f, want %f", i, rows[i].Throughput, wantThr)
		}
	}
	// COV at the final interval is high: two processes stopped.
	if rows[9].COV < 0.5 {
		t.Fatalf("final COV = %f, want > 0.5", rows[9].COV)
	}
}

func TestTraceTSVRoundTrip(t *testing.T) {
	m := paperExample()
	var buf bytes.Buffer
	if err := m.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "Hostname\tOperation\tProcessNo\tTimestamp\tOperationsDone") {
		t.Fatalf("missing header: %q", buf.String()[:60])
	}
	got, err := ParseTrace(&buf, m.Nodes, m.PPN, m.Interval)
	if err != nil {
		t.Fatal(err)
	}
	if got.Procs() != 4 || got.Op != "StatNocacheFiles" {
		t.Fatalf("parsed %d procs, op %q", got.Procs(), got.Op)
	}
	if got.TotalOps() != m.TotalOps() {
		t.Fatalf("total = %d, want %d", got.TotalOps(), m.TotalOps())
	}
	a1, a2 := m.Averages(), got.Averages()
	if math.Abs(a1.Stonewall-a2.Stonewall) > 1 {
		t.Fatalf("stonewall drifted through TSV: %f vs %f", a1.Stonewall, a2.Stonewall)
	}
}

func TestTraceFileName(t *testing.T) {
	m := paperExample()
	if got := m.TraceFileName(); got != "results-StatNocacheFiles-2-4.tsv" {
		t.Fatalf("file name = %q", got)
	}
}

func TestSetFindAndSeries(t *testing.T) {
	s := NewSet("test", "nfs", 100*time.Millisecond)
	s.Add(paperExample())
	m2 := paperExample()
	m2.Nodes, m2.PPN = 4, 2
	s.Add(m2)
	if s.Find("StatNocacheFiles", 2, 2) == nil {
		t.Fatal("find failed")
	}
	if s.Find("StatNocacheFiles", 9, 9) != nil {
		t.Fatal("found nonexistent measurement")
	}
	pts := s.ScaleSeries("StatNocacheFiles")
	if len(pts) != 2 || pts[0].Nodes != 2 || pts[1].Nodes != 4 {
		t.Fatalf("series = %+v", pts)
	}
	if ops := s.Ops(); len(ops) != 1 || ops[0] != "StatNocacheFiles" {
		t.Fatalf("ops = %v", ops)
	}
}

func TestWriteSummaryFormat(t *testing.T) {
	m := paperExample()
	var buf bytes.Buffer
	if err := m.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 10 {
		t.Fatalf("summary lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "StatNocacheFiles\t2\t4\t0.1\t27\t") {
		t.Fatalf("first row = %q", lines[0])
	}
}

func TestFailedMeasurement(t *testing.T) {
	m := paperExample()
	if err := m.Err(); err != nil {
		t.Fatalf("clean measurement reported %v", err)
	}
	m.Errors[2] = "dobench: boom"
	m.Errors[3] = "dobench: later"
	err := m.Err()
	if err == nil {
		t.Fatal("error not reported")
	}
	if want := "StatNocacheFiles 2x2: rank 2: dobench: boom"; err.Error() != want {
		t.Fatalf("Err() = %q, want %q", err, want)
	}
}

// buildMeasurement constructs a measurement from random per-tick
// increments, scaled by factor.
func buildMeasurement(raw []uint16, procs int, factor int64) *Measurement {
	n := procs%4 + 1
	ticks := len(raw)/n + 1
	m := &Measurement{Op: "X", Nodes: 1, PPN: n, Interval: 100 * time.Millisecond}
	idx := 0
	for p := 0; p < n; p++ {
		var done []int64
		var cum int64
		for i := 0; i < ticks; i++ {
			if idx < len(raw) {
				cum += int64(raw[idx]%100) * factor
				idx++
			}
			done = append(done, cum)
		}
		m.Traces = append(m.Traces, Trace{
			Host: "h", Op: "X", Proc: p, Done: done, Final: cum,
			FinishedAt: time.Duration(ticks) * 100 * time.Millisecond,
		})
	}
	return m
}

// Property: the averages are linear — doubling every count doubles the
// stonewall and wall-clock throughput; and both are always non-negative
// with StonewallAt on the sampling grid and within the runtime.
func TestAveragesProperties(t *testing.T) {
	f := func(raw []uint16, procs uint8) bool {
		if len(raw) < 2 {
			return true
		}
		m1 := buildMeasurement(raw, int(procs), 1)
		m2 := buildMeasurement(raw, int(procs), 2)
		if m1.TotalOps() == 0 {
			return true
		}
		a1, a2 := m1.Averages(), m2.Averages()
		if a1.Stonewall < 0 || a1.WallClock < 0 {
			return false
		}
		if math.Abs(a2.Stonewall-2*a1.Stonewall) > 0.01 {
			return false
		}
		if math.Abs(a2.WallClock-2*a1.WallClock) > 0.01 {
			return false
		}
		if a1.StonewallAt%m1.Interval != 0 {
			return false
		}
		return a1.StonewallAt <= a1.Runtime
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
