package core

import (
	"fmt"
	"testing"
	"time"

	"dmetabench/internal/agg"
	"dmetabench/internal/cluster"
	"dmetabench/internal/service"
	"dmetabench/internal/shard"
	"dmetabench/internal/sim"
	"dmetabench/internal/workload"
)

// stageAuxSeries runs a short StageRunner over a one-shard MDS in its
// own kernel domain, loaded by aggregate background lanes, on the given
// number of domain workers, and returns the per-interval Aux deltas.
func stageAuxSeries(t *testing.T, seed int64, workers int) []int64 {
	t.Helper()
	k := sim.New(seed)
	cl := cluster.New(k, cluster.DefaultConfig(2))
	cfg := shard.DefaultConfig(1)
	cfg.Domains = 2
	fsys := shard.New(k, "meta", cfg)
	fsys.Group().Workers = workers
	const tick = 5 * time.Millisecond
	model := agg.Model{
		Clients:      100_000,
		OpsPerClient: 0.5,
		Mix:          workload.DefaultMetaMix(),
		Zipf:         agg.ZipfPop{S: 1.1, V: 1, N: 64},
		Diurnal:      agg.Diurnal{Amplitude: 0.5, Period: time.Second},
		Tick:         tick,
		Seed:         seed,
	}
	sources := agg.NewSources(model, 1, cfg.ShardThreads, func(int) int { return 0 })
	fsys.AttachAggregate(tick, func(_, lane, i int) service.Demand {
		return sources[lane].Tick(int64(i))
	})
	r := &StageRunner{
		Cluster:  cl,
		FS:       fsys,
		Probes:   2,
		Interval: 25 * time.Millisecond,
		Think:    time.Millisecond,
		Label:    "aux",
		Stages:   []Stage{{Name: "a", Duration: 250 * time.Millisecond}, {Name: "b", Duration: 250 * time.Millisecond}},
		Aux: func() int64 {
			ops, _, _ := fsys.AggCounts()
			return ops
		},
	}
	set, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	var series []int64
	for _, m := range set.Measurements {
		for _, s := range m.Series {
			series = append(series, s.Aux)
		}
	}
	return series
}

// TestStageAuxWorkerInvariant pins the stage master's background
// readings under a domain group: the injector lanes run on the shard's
// domain, concurrently with the master on the client domain, and the
// Aux series must not depend on the worker count. A reading taken in
// the middle of a window varies with thread timing, so the comparison
// is repeated to give the interleavings a chance to differ.
func TestStageAuxWorkerInvariant(t *testing.T) {
	for rep := 0; rep < 24; rep++ {
		seed := int64(1 + rep%4)
		one := stageAuxSeries(t, seed, 1)
		two := stageAuxSeries(t, seed, 2)
		if fmt.Sprint(one) != fmt.Sprint(two) {
			t.Fatalf("rep %d (seed %d): Aux series differs between 1 and 2 workers:\n 1: %v\n 2: %v",
				rep, seed, one, two)
		}
	}
}
