package experiments

import (
	"fmt"
	"time"

	"dmetabench/internal/cluster"
	"dmetabench/internal/core"
	"dmetabench/internal/lustre"
	"dmetabench/internal/nfs"
	"dmetabench/internal/sim"
)

// A01AveragingMethods is the design ablation behind §3.2.5: on a run
// where one process lags, the wall-clock, stonewall and fixed-N averages
// tell different stories, and only the interval log shows why. We build
// the skewed run (one hogged node of four) and compare every summary the
// framework can produce.
func A01AveragingMethods() *Report {
	r := &Report{ID: "A01", Title: "Ablation: wall-clock vs stonewall vs fixed-N averaging",
		PaperRef: "§3.2.5, Fig. 3.2"}
	k := sim.New(2001)
	cl := cluster.New(k, cluster.DefaultConfig(4))
	fsys := nfs.New(k, "home", nfs.DefaultConfig())
	run := &core.Runner{
		Cluster:      cl,
		FS:           fsys,
		Params:       core.Params{ProblemSize: 6000, WorkDir: "/bench"},
		SlotsPerNode: 1,
		Plugins:      []core.Plugin{core.MakeFiles{}},
		Filter:       func(c core.Combo) bool { return c.Nodes == 4 && c.PPN == 1 },
		BenchStartHook: func(mp *sim.Proc, _ core.MeasurementInfo) {
			// One node runs at half speed for the whole bench: the
			// P3-lags-P1/P2 scenario of Fig. 3.2(b).
			cl.Nodes[2].StartCPUHog(24, 0, mp.Now(), 60*time.Second)
		},
	}
	set, err := run.Run()
	if err != nil {
		r.finding("run failed: %v", err)
		return r
	}
	r.Sets = append(r.Sets, set)
	m := set.Find("MakeFiles", 4, 1)
	if m == nil {
		r.finding("measurement missing")
		return r
	}
	a := m.Averages(6000, 12000)
	r.row("wall-clock average", a.WallClock, "ops/s", "total ops / last finisher")
	r.row("stonewall average", a.Stonewall, "ops/s", "cut at first finisher")
	r.row("fixed-N average (6k ops)", a.FixedN[6000], "ops/s", "strong-scaling view")
	r.row("fixed-N average (12k ops)", a.FixedN[12000], "ops/s", "")
	r.row("stonewall / wall-clock", a.Stonewall/a.WallClock, "x", "")
	r.finding("paper: summary numbers hide lagging processes (Fig. 3.2); the "+
		"stonewall average is %.0f%% above wall-clock on this skewed run, and "+
		"only the COV trace identifies the slow node", 100*(a.Stonewall/a.WallClock-1))
	return r
}

// A02WritebackWindow sweeps the write-back window size (the design knob
// of §4.8/§5.2.1): a larger window absorbs longer bursts but cannot lift
// the sustained rate above the metadata server's capacity.
func A02WritebackWindow() *Report {
	r := &Report{ID: "A02", Title: "Ablation: write-back window size",
		PaperRef: "§4.8, §5.2.1"}
	const window = 4 * time.Second
	// One cell per write-back window size.
	windows := []int{256, 1024, 4096, 16384}
	type a02cell struct {
		burst, sustained float64
		err              error
	}
	names := make([]string, len(windows))
	for i, w := range windows {
		names[i] = fmt.Sprintf("window%d", w)
	}
	cells := parCells("A02", names, func(i int) a02cell {
		w := windows[i]
		k := sim.New(int64(2100 + w))
		cl := cluster.New(k, cluster.DefaultConfig(1))
		cfg := lustre.DefaultConfig()
		cfg.Writeback = true
		cfg.WritebackWindow = w
		fsys := lustre.New(k, "scratch", cfg)
		run := &core.Runner{
			Cluster: cl,
			FS:      fsys,
			Params: core.Params{
				ProblemSize: 1 << 20,
				TimeLimit:   window,
				WorkDir:     "/bench",
			},
			SlotsPerNode: 1,
			Plugins:      []core.Plugin{core.MakeFiles{}},
		}
		set, err := run.Run()
		if err != nil {
			return a02cell{err: err}
		}
		m := set.Find("MakeFiles", 1, 1)
		return a02cell{
			burst:     windowThroughput(m, 0, 100*time.Millisecond),
			sustained: windowThroughput(m, 2*time.Second, window),
		}
	})
	var prevSustained float64
	for i, w := range windows {
		if cells[i].err != nil {
			r.finding("run failed: %v", cells[i].err)
			return r
		}
		r.row(fmt.Sprintf("window %5d: burst", w), cells[i].burst, "ops/s", "first 100ms")
		r.row(fmt.Sprintf("window %5d: sustained", w), cells[i].sustained, "ops/s", "2..4s")
		prevSustained = cells[i].sustained
	}
	r.finding("the window size scales the burst but the sustained rate stays "+
		"pinned at the MDS service rate (~%.0f ops/s) — client caching cannot "+
		"manufacture server capacity, only hide latency (§5.2.1)", prevSustained)
	return r
}

// Ablations lists the design-choice studies (run by cmd/experiments after
// the paper experiments).
func Ablations() []Experiment {
	return []Experiment{
		{"A01", A01AveragingMethods, 1},
		{"A02", A02WritebackWindow, 4},
	}
}
