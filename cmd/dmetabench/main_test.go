package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"dmetabench/internal/core"
	"dmetabench/internal/results"
)

// simulate runs runSim for one pass of ops at a small problem size on 1
// to nodes nodes with one process each.
func simulate(t *testing.T, fsKind string, nodes int, latency time.Duration, ops ...string) (*results.Set, error) {
	t.Helper()
	var plugins []core.Plugin
	for _, name := range ops {
		p, err := core.PluginByName(name)
		if err != nil {
			t.Fatal(err)
		}
		plugins = append(plugins, p)
	}
	params := core.Params{ProblemSize: 50, WorkDir: "/bench", Interval: 100 * time.Millisecond, NodeStep: 1, PPNStep: 1, Label: "test"}
	return runSim(fsKind, nodes, 1, 8, 4, "mem", latency, 1, params, plugins)
}

// run runs simulate for one MakeFiles/StatFiles pass and returns one row
// per measurement.
func run(t *testing.T, fsKind string, nodes int, latency time.Duration) ([]string, error) {
	t.Helper()
	set, err := simulate(t, fsKind, nodes, latency, "MakeFiles", "StatFiles")
	if err != nil {
		return nil, err
	}
	var rows []string
	for _, m := range set.Measurements {
		a := m.Averages()
		rows = append(rows, fmt.Sprintf("%s %dx%d %.1f %.1f %v", m.Op, m.Nodes, m.PPN, a.Stonewall, a.WallClock, m.Err()))
	}
	return rows, nil
}

func TestLatencyRejectedWithoutNetwork(t *testing.T) {
	for _, kind := range []string{"cxfs", "local"} {
		if _, err := run(t, kind, 1, 100*time.Microsecond); err == nil {
			t.Errorf("-fs %s accepted -latency 100us", kind)
		}
		if _, err := run(t, kind, 1, 0); err != nil {
			t.Errorf("-fs %s at its own latency: %v", kind, err)
		}
	}
}

// TestBadSizesRejected runs runSim with each size no simulation can
// take. Each must fail with the flag's error before a kernel is built:
// -nodes 0 used to panic in the runner, -cores 0 to hang with every rank
// waiting for a CPU, and the rest to run silently as something else.
func TestBadSizesRejected(t *testing.T) {
	for _, tc := range []struct {
		fs                        string
		nodes, ppn, cores, shards int
		latency                   time.Duration
		want                      string
	}{
		{"nfs", 0, 1, 8, 4, 0, "-nodes"},
		{"nfs", -3, 1, 8, 4, 0, "-nodes"},
		{"gx", 0, 1, 8, 4, 0, "-nodes"},
		{"nfs", 2, 0, 8, 4, 0, "-ppn"},
		{"nfs", 2, 1, 0, 4, 0, "-cores"},
		{"lustre", 2, 1, 0, 4, 0, "-cores"},
		{"shard", 2, 1, 8, 0, 0, "-shards"},
		{"shard-subtree", 2, 1, 8, -1, 0, "-shards"},
		{"nfs", 2, 1, 8, 4, -time.Millisecond, "-latency"},
	} {
		plugins := []core.Plugin{core.MakeFiles{}}
		params := core.Params{ProblemSize: 10, WorkDir: "/bench"}
		_, err := runSim(tc.fs, tc.nodes, tc.ppn, tc.cores, tc.shards, "mem", tc.latency, 1, params, plugins)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want+" ") {
			t.Errorf("%+v: err %v, want one naming %s", tc, err, tc.want)
		}
	}
	// -shards only sizes the shard kinds.
	if _, err := simulate(t, "nfs", 1, 0, "MakeFiles"); err != nil {
		t.Errorf("nfs with the default -shards: %v", err)
	}
}

func TestLocalRejectsNodes(t *testing.T) {
	if _, err := run(t, "local", 4, 0); err == nil {
		t.Error("-fs local accepted -nodes 4")
	}
}

func TestLatencyChangesNFS(t *testing.T) {
	near, err := run(t, "nfs", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	far, err := run(t, "nfs", 2, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(near) == 0 || reflect.DeepEqual(near, far) {
		t.Errorf("nfs results ignore -latency:\n%v\n%v", near, far)
	}
}

func TestZeroLatencyIsCalibrated(t *testing.T) {
	def, err := run(t, "afs", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := run(t, "afs", 2, 300*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(def) == 0 || !reflect.DeepEqual(def, cal) {
		t.Errorf("afs at -latency 0:\n%v\nat 300us:\n%v", def, cal)
	}
}

// TestEveryListedFSRuns runs every -fs value the help text lists through
// a write-and-open pass, which must finish with no rank error, and checks
// that an unlisted value fails as unknown.
func TestEveryListedFSRuns(t *testing.T) {
	for _, kind := range strings.Split(fsKinds, " | ") {
		set, err := simulate(t, kind, 1, 0, "MakeFiles64byte", "OpenCloseFiles")
		if err != nil {
			t.Errorf("-fs %s: %v", kind, err)
			continue
		}
		if len(set.Measurements) != 2 {
			t.Errorf("-fs %s: %d measurements, want 2", kind, len(set.Measurements))
		}
		for _, m := range set.Measurements {
			if err := m.Err(); err != nil {
				t.Errorf("-fs %s: %v", kind, err)
			}
		}
	}
	if _, err := simulate(t, "pvfs", 1, 0, "MakeFiles"); err == nil || !strings.Contains(err.Error(), `unknown -fs "pvfs"`) {
		t.Errorf("-fs pvfs: %v, want unknown -fs", err)
	}
}
