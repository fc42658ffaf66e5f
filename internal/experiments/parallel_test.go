package experiments

import (
	"strings"
	"testing"
)

// byID returns the suite's experiments with the given ids, in suite
// order.
func byID(t *testing.T, ids ...string) []Experiment {
	t.Helper()
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	var out []Experiment
	for _, e := range append(All(), Ablations()...) {
		if want[e.ID] {
			out = append(out, e)
		}
	}
	if len(out) != len(want) {
		t.Fatalf("found %d of the experiments %v", len(out), ids)
	}
	return out
}

// runReport runs experiment id alone on one worker and returns its
// report.
func runReport(t *testing.T, id string) *Report {
	t.Helper()
	reps, _ := Run(byID(t, id), 1)
	return reps[0]
}

// cheapExperiments is a fast cross-section of the suite used by the
// parallel tests: two cells that ignore their kernels (E01), probe pairs
// (E18), a sweep with shared state analyzed at assembly (E21) and a
// sweep whose cells each measure on a fresh, identically seeded kernel
// (E16; the E07, E11 and E13 scaling sweeps are too slow here).
func cheapExperiments(t *testing.T) []Experiment {
	return byID(t, "E01", "E16", "E18", "E21")
}

// renderAll runs es as one flattened suite on workers workers and
// renders every report.
func renderAll(es []Experiment, workers int) string {
	reps, _ := Run(es, workers)
	var b strings.Builder
	for _, r := range reps {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestReportsByteIdenticalAcrossWorkers pins the user-visible contract:
// the rendered report of every experiment — every row, finding and
// chart — is byte-identical whether the suite runs with -j 1 or wide.
func TestReportsByteIdenticalAcrossWorkers(t *testing.T) {
	es := cheapExperiments(t)
	serial := renderAll(es, 1)
	parallel := renderAll(es, 8)
	if serial != parallel {
		t.Fatalf("reports differ between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s",
			serial, parallel)
	}
	if strings.Contains(serial, "run failed") {
		t.Fatalf("a report failed:\n%s", serial)
	}
}
