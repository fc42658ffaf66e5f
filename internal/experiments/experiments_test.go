package experiments

import (
	"strings"
	"testing"
)

// The full experiment suite runs in cmd/experiments and the root
// benchmarks; here we smoke the fast ones and assert the headline shape
// findings that define a successful reproduction.

func TestE01Shape(t *testing.T) {
	rep := runReport(t, "E01")
	if len(rep.Findings) == 0 {
		t.Fatal("no findings")
	}
	var amp float64
	for _, row := range rep.Rows {
		if row.Name == "ops amplification" {
			amp = row.Value
		}
	}
	if amp < 2 {
		t.Fatalf("amplification = %f, want >= 2 (extra stat per create)", amp)
	}
}

func TestE09Shape(t *testing.T) {
	rep := runReport(t, "E09")
	rows := map[string]float64{}
	for _, r := range rep.Rows {
		rows[r.Name] = r.Value
	}
	if rows["OSS pre-allocation refills"] < 5 {
		t.Fatalf("refills = %f", rows["OSS pre-allocation refills"])
	}
	if rows["dip depth"] < 20 {
		t.Fatalf("dip depth = %f%%, want visible dips", rows["dip depth"])
	}
	if len(rep.Charts) == 0 {
		t.Fatal("no time chart")
	}
}

func TestE10Shape(t *testing.T) {
	rep := runReport(t, "E10")
	rows := map[string]float64{}
	for _, r := range rep.Rows {
		rows[r.Name] = r.Value
	}
	hi := rows["nice 0 ops/s during load"]
	lo := rows["nice 10 ops/s during load"]
	if hi <= 10*lo {
		t.Fatalf("priority had too little effect: hi=%f lo=%f", hi, lo)
	}
}

func TestE12Shape(t *testing.T) {
	rep := runReport(t, "E12")
	rows := map[string]float64{}
	for _, r := range rep.Rows {
		rows[r.Name] = r.Value
	}
	// Synchronous NFS creates degrade with RTT; write-back creates do not.
	if !(rows["RTT 0.2ms: NFS creates"] > 5*rows["RTT 10.0ms: NFS creates"]) {
		t.Fatalf("NFS latency sensitivity missing: %v", rows)
	}
	wbFast := rows["RTT 0.2ms: write-back creates"]
	wbSlow := rows["RTT 10.0ms: write-back creates"]
	if wbSlow < wbFast/2 {
		t.Fatalf("write-back should hide latency: %f -> %f", wbFast, wbSlow)
	}
}

func TestE14Shape(t *testing.T) {
	rep := runReport(t, "E14")
	rows := map[string]float64{}
	for _, r := range rep.Rows {
		rows[r.Name] = r.Value
	}
	afsWarm := rows["AFS StatFiles (warm cache)"]
	afsNo := rows["AFS StatNocacheFiles"]
	nfsWarm := rows["NFS StatFiles (warm cache)"]
	nfsNo := rows["NFS StatNocacheFiles"]
	if afsNo < afsWarm/2 {
		t.Fatalf("AFS persistent cache lost on drop: warm %f, nocache %f", afsWarm, afsNo)
	}
	if nfsNo > nfsWarm/10 {
		t.Fatalf("NFS cache drop had no effect: warm %f, nocache %f", nfsWarm, nfsNo)
	}
}

func TestE15Shape(t *testing.T) {
	rep := runReport(t, "E15")
	rows := map[string]float64{}
	for _, r := range rep.Rows {
		rows[r.Name] = r.Value
	}
	if rows["burst / sustained"] < 5 {
		t.Fatalf("burst/sustained = %f, want >> 1", rows["burst / sustained"])
	}
	// Sustained must be near the synchronous server rate (same hardware).
	sus, sync := rows["sustained rate (4..8s)"], rows["synchronous create rate"]
	if sus < sync/2 || sus > sync*2 {
		t.Fatalf("sustained %f vs synchronous %f: should converge", sus, sync)
	}
}

func TestE21Shape(t *testing.T) {
	rep := runReport(t, "E21")
	if len(rep.Findings) == 0 {
		t.Fatal("no findings")
	}
	var floor float64
	var takeovers []float64
	for _, r := range rep.Rows {
		if r.Name == "detection floor" {
			floor = r.Value
		}
		if strings.HasPrefix(r.Name, "takeover @") {
			takeovers = append(takeovers, r.Value)
		}
	}
	if floor <= 0 {
		t.Fatalf("detection floor = %f, want > 0", floor)
	}
	if len(takeovers) < 2 {
		t.Fatalf("takeover sweep rows = %d, want >= 2", len(takeovers))
	}
	for i := 1; i < len(takeovers); i++ {
		if takeovers[i] <= takeovers[i-1] {
			t.Fatalf("takeover latency not increasing with journal length: %v", takeovers)
		}
	}
	if takeovers[0] < floor {
		t.Fatalf("smallest takeover %f below the detection floor %f", takeovers[0], floor)
	}
}

func TestReportString(t *testing.T) {
	rep := &Report{ID: "EX", Title: "test", PaperRef: "§0"}
	rep.row("metric", 1234.5, "ops/s", "note")
	rep.row("small", 0.123, "", "")
	rep.finding("shape %d", 42)
	s := rep.String()
	for _, want := range []string{"EX", "metric", "1234.5", "0.123", "shape 42", "# note"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in %q", want, s)
		}
	}
}
