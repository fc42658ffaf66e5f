package results

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestFillPercentilesEdges covers the degenerate histograms an interval
// can produce: no foreground op completed (nil or empty histogram), a
// single sample, and samples sitting exactly on a power-of-two bucket
// edge where the bucket upper bound clamps to the observed max.
func TestFillPercentilesEdges(t *testing.T) {
	var s IntervalStat
	s.FillPercentiles(nil)
	if s.P50 != 0 || s.P99 != 0 || s.P999 != 0 {
		t.Errorf("nil histogram set percentiles: %+v", s)
	}
	s.FillPercentiles(&Histogram{})
	if s.P50 != 0 || s.P99 != 0 || s.P999 != 0 {
		t.Errorf("empty histogram set percentiles: %+v", s)
	}

	one := &Histogram{}
	one.Add(100 * time.Microsecond)
	s.FillPercentiles(one)
	if s.P50 != 100*time.Microsecond || s.P99 != 100*time.Microsecond || s.P999 != 100*time.Microsecond {
		t.Errorf("single-sample percentiles = %v/%v/%v, want the sample itself", s.P50, s.P99, s.P999)
	}

	// 64us is a bucket's lower edge; with every sample there, the bucket
	// upper bound (127.999us) exceeds the observed max and must clamp.
	edge := &Histogram{}
	for i := 0; i < 10; i++ {
		edge.Add(64 * time.Microsecond)
	}
	var e IntervalStat
	e.FillPercentiles(edge)
	if e.P99 != 64*time.Microsecond || e.P999 != 64*time.Microsecond {
		t.Errorf("bucket-edge percentiles = %v/%v, want 64us (clamped to max)", e.P99, e.P999)
	}

	// A heavy body with one tail outlier: p99/p999 resolve to the body's
	// bucket bound, not the outlier.
	mixed := &Histogram{}
	for i := 0; i < 999; i++ {
		mixed.Add(10 * time.Microsecond)
	}
	mixed.Add(5 * time.Millisecond)
	var m IntervalStat
	m.FillPercentiles(mixed)
	if m.P99 >= time.Millisecond {
		t.Errorf("p99 = %v pulled up by a 0.1%% outlier", m.P99)
	}
	if m.P999 >= time.Millisecond {
		t.Errorf("p999 = %v, want the 999th sample's bucket, not the outlier", m.P999)
	}
}

// TestSeriesWindow pins Window's half-open interval semantics and its
// aggregates, including the empty-window and whole-series cases.
func TestSeriesWindow(t *testing.T) {
	m := &Measurement{Op: "stage", Interval: time.Minute}
	if _, ok := m.Window(0, time.Hour); ok {
		t.Error("empty series reported a window")
	}
	m.Series = []IntervalStat{
		{T: 1 * time.Minute, Throughput: 10, Aux: 600, P99: 1 * time.Millisecond},
		{T: 2 * time.Minute, Throughput: 20, Aux: 1200, P99: 4 * time.Millisecond},
		{T: 3 * time.Minute, Throughput: 30, Aux: 300, P99: 2 * time.Millisecond},
	}
	// (1m, 3m] excludes the first interval (half-open on the left).
	w, ok := m.Window(1*time.Minute, 3*time.Minute)
	if !ok {
		t.Fatal("window (1m, 3m] reported no intervals")
	}
	if w.MeanThroughput != 25 {
		t.Errorf("MeanThroughput = %v, want 25", w.MeanThroughput)
	}
	if w.MeanAuxRate != 12.5 { // (1200/60 + 300/60) / 2
		t.Errorf("MeanAuxRate = %v, want 12.5", w.MeanAuxRate)
	}
	if w.PeakAuxRate != 20 || w.TroughAuxRate != 5 {
		t.Errorf("aux peak/trough = %v/%v, want 20/5", w.PeakAuxRate, w.TroughAuxRate)
	}
	if w.MaxP99 != 4*time.Millisecond {
		t.Errorf("MaxP99 = %v, want 4ms", w.MaxP99)
	}
	// The whole series; the trough is now the first interval's rate.
	all, ok := m.Window(0, time.Hour)
	if !ok || all.TroughAuxRate != 5 || all.PeakAuxRate != 20 {
		t.Errorf("whole-series window = %+v, ok=%v", all, ok)
	}
	if _, ok := m.Window(10*time.Minute, 20*time.Minute); ok {
		t.Error("out-of-range window reported intervals")
	}
}

// TestAuxCOV: a flat background has zero temporal COV, a bursty one a
// positive COV, and an empty series is safely zero.
func TestAuxCOV(t *testing.T) {
	m := &Measurement{Op: "stage", Interval: time.Minute}
	if got := m.AuxCOV(); got != 0 {
		t.Errorf("empty series AuxCOV = %v, want 0", got)
	}
	m.Series = []IntervalStat{{Aux: 600}, {Aux: 600}, {Aux: 600}}
	if got := m.AuxCOV(); got != 0 {
		t.Errorf("flat series AuxCOV = %v, want 0", got)
	}
	m.Series = []IntervalStat{{Aux: 300}, {Aux: 900}, {Aux: 300}, {Aux: 900}}
	if got := m.AuxCOV(); got <= 0 {
		t.Errorf("bursty series AuxCOV = %v, want > 0", got)
	}
}

// TestWriteSeriesGolden pins the TSV serialization, including an
// empty interval (no ops, zero percentiles) in the middle.
func TestWriteSeriesGolden(t *testing.T) {
	m := &Measurement{Op: "day", Interval: time.Minute, Series: []IntervalStat{
		{T: 1 * time.Minute, Ops: 120, Throughput: 2, COV: 0.25, Aux: 600,
			P50: 80 * time.Microsecond, P99: 500 * time.Microsecond, P999: time.Millisecond},
		{T: 2 * time.Minute, Ops: 0, Throughput: 0, COV: 0, Aux: 300},
	}}
	var b strings.Builder
	if err := m.WriteSeries(&b); err != nil {
		t.Fatal(err)
	}
	want := "Operation\tT\tOps\tOpsPerSec\tCOV\tAuxOps\tP50us\tP99us\tP999us\n" +
		"day\t60.0\t120\t2.0\t0.250\t600\t80\t500\t1000\n" +
		"day\t120.0\t0\t0.0\t0.000\t300\t0\t0\t0\n"
	if got := b.String(); got != want {
		t.Errorf("series TSV:\n%q\nwant:\n%q", got, want)
	}
}

// TestSaveSeriesFiles pins the file-layout contract: a stage measurement
// writes one extra series-*.tsv, a classic measurement writes none, and
// Load's results-* scan ignores series files entirely — so a directory
// round trip sees exactly the classic measurements.
func TestSaveSeriesFiles(t *testing.T) {
	dir := t.TempDir()
	set := NewSet("test", "sim", time.Minute)
	stage := &Measurement{
		Op: "day", Nodes: 2, PPN: 2, Interval: time.Minute,
		Traces: []Trace{
			{Host: "n0", Op: "day", Proc: 0, Done: []int64{50, 100}, Final: 100, FinishedAt: 2 * time.Minute},
			{Host: "n1", Op: "day", Proc: 1, Done: []int64{40, 90}, Final: 90, FinishedAt: 2 * time.Minute},
		},
		Errors: []string{"", ""},
		Series: []IntervalStat{{T: time.Minute, Ops: 90, Throughput: 1.5, Aux: 600}},
	}
	classic := &Measurement{
		Op: "create", Nodes: 1, PPN: 1, Interval: time.Minute,
		Traces: []Trace{{Host: "n0", Op: "create", Proc: 0, Done: []int64{10}, Final: 10, FinishedAt: time.Minute}},
		Errors: []string{""},
	}
	set.Add(stage)
	set.Add(classic)
	if err := set.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, stage.SeriesFileName())); err != nil {
		t.Errorf("stage measurement wrote no series file: %v", err)
	}
	if !strings.HasPrefix(stage.SeriesFileName(), "series-") {
		t.Errorf("series file %q does not use the series- prefix", stage.SeriesFileName())
	}
	if _, err := os.Stat(filepath.Join(dir, "series-create-1-1.tsv")); err == nil {
		t.Error("classic measurement wrote a series file")
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Measurements) != 2 {
		t.Fatalf("Load found %d measurements, want 2 (series files must be skipped)", len(loaded.Measurements))
	}
	for _, m := range loaded.Measurements {
		if m.Op != "day" && m.Op != "create" {
			t.Errorf("Load produced unexpected measurement %q", m.Op)
		}
	}
}
