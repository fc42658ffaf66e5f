package experiments

import (
	"strings"
	"testing"
	"time"
)

// scaleExperiments returns E31–E33 from the registry, so the tests run
// exactly the plans cmd/experiments runs.
func scaleExperiments(t *testing.T) []Experiment {
	return byID(t, "E31", "E32", "E33")
}

// withPeriod compresses the long-horizon experiments for test runs and
// restores the package override afterwards.
func withPeriod(t *testing.T, d time.Duration) {
	t.Helper()
	old := Period
	Period = d
	t.Cleanup(func() { Period = old })
}

// TestScaleReportsByteIdenticalAcrossWorkers is the E31–E33 leg of the
// suite determinism contract: the rendered reports of the long-horizon
// experiments — interval series, shed fractions, capacity censuses —
// are byte-identical at any worker count.
func TestScaleReportsByteIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("long-horizon experiments; skipped in -short")
	}
	withPeriod(t, 5*time.Minute)
	es := scaleExperiments(t)
	serial := renderAll(es, 1)
	parallel := renderAll(es, 8)

	if serial != parallel {
		t.Fatalf("scale reports differ between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s",
			serial, parallel)
	}
}

// TestScaleSmoke is the scaled-down long-horizon smoke: every scale
// experiment must produce rows and a non-degenerate background at a
// compressed horizon (the CI job runs the full E31 via cmd/experiments
// -period 10m; this keeps `go test` coverage without the binary).
func TestScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("long-horizon experiments; skipped in -short")
	}
	withPeriod(t, 2*time.Minute)
	reps, _ := Run(scaleExperiments(t), 1)
	for _, rep := range reps {
		if rep.Err != nil || len(rep.Rows) == 0 {
			t.Fatalf("%s: err %v, %d rows: %s", rep.ID, rep.Err, len(rep.Rows), rep.String())
		}
		for _, f := range rep.Findings {
			if strings.Contains(f, "failed") {
				t.Fatalf("%s: failed finding: %s", rep.ID, f)
			}
		}
	}
}
