package experiments

import (
	"strings"
	"testing"

	"dmetabench/internal/par"
)

// cheapIDs is a fast cross-section of the suite used by the parallel
// tests: plain parCells fan-out (E01), probe pairs (E18), a sweep with
// shared state analyzed at merge time (E21) and a sweep whose cells each
// measure on a fresh, identically seeded kernel (E16; the E07, E11 and
// E13 scaling sweeps are too slow here).
var cheapIDs = map[string]bool{"E01": true, "E18": true, "E21": true, "E16": true}

func cheapExperiments(t *testing.T) []Experiment {
	t.Helper()
	var out []Experiment
	for _, e := range All() {
		if cheapIDs[e.ID] {
			out = append(out, e)
		}
	}
	if len(out) != len(cheapIDs) {
		t.Fatalf("found %d of %d cheap experiments", len(out), len(cheapIDs))
	}
	return out
}

func renderAll(es []Experiment) string {
	var b strings.Builder
	for _, e := range es {
		b.WriteString(e.Run().String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestReportsByteIdenticalAcrossWorkers pins the user-visible contract:
// the rendered report of every experiment — every row, finding and
// chart — is byte-identical whether the suite runs with -j 1 or wide.
func TestReportsByteIdenticalAcrossWorkers(t *testing.T) {
	es := cheapExperiments(t)
	old := par.Workers()
	defer par.SetWorkers(old)

	par.SetWorkers(1)
	serial := renderAll(es)
	par.SetWorkers(8)
	parallel := renderAll(es)

	if serial != parallel {
		t.Fatalf("reports differ between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s",
			serial, parallel)
	}
}

// TestDeclaredCellCounts checks Experiment.Cells (surfaced by
// `cmd/experiments -list`) against the cells the experiment actually
// dispatches, counted via the per-cell timing log.
func TestDeclaredCellCounts(t *testing.T) {
	old := par.Workers()
	defer par.SetWorkers(old)
	par.SetWorkers(4)

	for _, e := range cheapExperiments(t) {
		par.DrainTimings()
		e.Run()
		got := 0
		for _, tm := range par.DrainTimings() {
			if strings.HasPrefix(tm.Label, e.ID+"/") {
				got++
			}
		}
		if got != e.Cells {
			t.Errorf("%s: dispatched %d cells, declares Cells=%d", e.ID, got, e.Cells)
		}
	}
}
