package experiments

import (
	"fmt"
	"time"

	"dmetabench/internal/cluster"
	"dmetabench/internal/core"
	"dmetabench/internal/lustre"
	"dmetabench/internal/nfs"
	"dmetabench/internal/results"
	"dmetabench/internal/sim"
)

// a01AveragingMethods is the design ablation behind §3.2.5: on a run
// where one process lags, the wall-clock, stonewall and fixed-N averages
// tell different stories, and only the interval log shows why. We build
// the skewed run (one hogged node of four) and compare every summary the
// framework can produce.
func a01AveragingMethods() plan {
	var m *results.Measurement
	skewed := func(k *sim.Kernel) (err error) {
		cl := cluster.New(k, cluster.DefaultConfig(4))
		m, err = measure(cl, nfs.New(k, "home", nfs.DefaultConfig()), 4, 1,
			core.Params{ProblemSize: 6000, WorkDir: "/bench"}, core.MakeFiles{},
			func(mp *sim.Proc, _ core.MeasurementInfo) {
				// One node runs at half speed for the whole bench: the
				// P3-lags-P1/P2 scenario of Fig. 3.2(b).
				cl.Nodes[2].StartCPUHog(24, 0, mp.Now(), 60*time.Second)
			})
		return err
	}
	return plan{[]cell{{"skewed", 2001, skewed}}, func(r *Report) {
		a := m.Averages(6000, 12000)
		r.row("wall-clock average", a.WallClock, "ops/s", "total ops / last finisher")
		r.row("stonewall average", a.Stonewall, "ops/s", "cut at first finisher")
		r.row("fixed-N average (6k ops)", a.FixedN[6000], "ops/s", "strong-scaling view")
		r.row("fixed-N average (12k ops)", a.FixedN[12000], "ops/s", "")
		r.row("stonewall / wall-clock", a.Stonewall/a.WallClock, "x", "")
		r.finding("paper: summary numbers hide lagging processes (Fig. 3.2); the "+
			"stonewall average is %.0f%% above wall-clock on this skewed run, and "+
			"only the COV trace identifies the slow node", 100*(a.Stonewall/a.WallClock-1))
	}}
}

// a02WritebackWindow sweeps the write-back window size (the design knob
// of §4.8/§5.2.1): a larger window absorbs longer bursts but cannot lift
// the sustained rate above the metadata server's capacity.
func a02WritebackWindow() plan {
	const window = 4 * time.Second
	// One cell per write-back window size.
	windows := []int{256, 1024, 4096, 16384}
	type a02cell struct{ burst, sustained float64 }
	names := make([]string, len(windows))
	for i, w := range windows {
		names[i] = fmt.Sprintf("window%d", w)
	}
	cells, cs := cellsOf(names, func(i int) int64 { return int64(2100 + windows[i]) },
		func(i int, k *sim.Kernel) (a02cell, error) {
			cl := cluster.New(k, cluster.DefaultConfig(1))
			cfg := lustre.DefaultConfig()
			cfg.Writeback = true
			cfg.WritebackWindow = windows[i]
			m, err := measure(cl, lustre.New(k, "scratch", cfg), 1, 1, core.Params{
				ProblemSize: 1 << 20,
				TimeLimit:   window,
				WorkDir:     "/bench",
			}, core.MakeFiles{}, nil)
			if err != nil {
				return a02cell{}, err
			}
			return a02cell{
				burst:     windowThroughput(m, 0, 100*time.Millisecond),
				sustained: windowThroughput(m, 2*time.Second, window),
			}, nil
		})
	return plan{cs, func(r *Report) {
		var prevSustained float64
		for i, w := range windows {
			r.row(fmt.Sprintf("window %5d: burst", w), cells[i].burst, "ops/s", "first 100ms")
			r.row(fmt.Sprintf("window %5d: sustained", w), cells[i].sustained, "ops/s", "2..4s")
			prevSustained = cells[i].sustained
		}
		r.finding("the window size scales the burst but the sustained rate stays "+
			"pinned at the MDS service rate (~%.0f ops/s) — client caching cannot "+
			"manufacture server capacity, only hide latency (§5.2.1)", prevSustained)
	}}
}

// Ablations lists the design-choice studies (run by cmd/experiments after
// the paper experiments).
func Ablations() []Experiment {
	return []Experiment{
		{ID: "A01", Title: "Ablation: wall-clock vs stonewall vs fixed-N averaging",
			PaperRef: "§3.2.5, Fig. 3.2", plan: a01AveragingMethods},
		{ID: "A02", Title: "Ablation: write-back window size",
			PaperRef: "§4.8, §5.2.1", plan: a02WritebackWindow},
	}
}
