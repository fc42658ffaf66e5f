package agg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"dmetabench/internal/service"
	"dmetabench/internal/workload"
)

// pinModel is the fixed configuration of the draw-sequence pins: every
// stochastic dimension of the model is on (Zipf popularity, diurnal
// modulation, flash spikes, session churn), so the pinned sequences
// cover the full draw order.
func pinModel() Model {
	return Model{
		Clients:      100_000,
		OpsPerClient: 0.5,
		Mix:          workload.DefaultMetaMix(),
		Zipf:         ZipfPop{S: 1.2, V: 1, N: 32},
		Diurnal:      Diurnal{Amplitude: 0.5, Period: time.Minute},
		Spikes:       Spikes{MeanInterval: 10 * time.Second, Peak: 2, Decay: time.Second},
		Churn:        Churn{ActiveFrac: 0.5, SessionMean: 20 * time.Second, Tick: time.Second},
		Tick:         time.Second,
		Seed:         42,
	}
}

// TestPoissonDrawSequence pins the exact sampler output on both sides
// of the Knuth/normal cutover. Any change to the draw order or the
// sampler itself breaks every seeded experiment, so it must be
// deliberate — this test is the tripwire.
func TestPoissonDrawSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	want := map[float64][]int64{
		0.5: {0, 2, 0, 1, 0},
		3:   {1, 3, 2, 2, 2},
		100: {97, 119, 111, 90, 110},
	}
	for _, mean := range []float64{0.5, 3, 100} {
		for i, w := range want[mean] {
			if got := poisson(rng, mean); got != w {
				t.Errorf("poisson(mean=%v) draw %d = %d, want %d", mean, i, got, w)
			}
		}
	}
}

// TestPoissonEdgeCases: non-positive means draw nothing and consume no
// randomness.
func TestPoissonEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	before := rng.Int63()
	rng = rand.New(rand.NewSource(1))
	if got := poisson(rng, 0); got != 0 {
		t.Errorf("poisson(0) = %d, want 0", got)
	}
	if got := poisson(rng, -1); got != 0 {
		t.Errorf("poisson(-1) = %d, want 0", got)
	}
	if after := rng.Int63(); after != before {
		t.Error("poisson with non-positive mean consumed randomness")
	}
}

// TestZipfShardWeights pins the analytic per-shard popularity mass and
// checks its invariants: weights form a distribution, and the shard
// holding the Zipf head carries the most mass.
func TestZipfShardWeights(t *testing.T) {
	w := ZipfPop{S: 1.1, V: 1, N: 8}.ShardWeights(3, func(obj int) int { return obj % 3 })
	want := []float64{0.531641726395, 0.293970753915, 0.174387519690}
	var sum float64
	for i := range w {
		if math.Abs(w[i]-want[i]) > 1e-9 {
			t.Errorf("weight[%d] = %.12f, want %.12f", i, w[i], want[i])
		}
		sum += w[i]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("weights sum to %v, want 1", sum)
	}
	if !(w[0] > w[1] && w[1] > w[2]) {
		t.Errorf("weights not ordered by Zipf head: %v", w)
	}
}

// TestSourceDrawSequence pins the exact per-tick demand of two sources
// of the pin model — the first lane of shard 0 and the last lane of
// shard 1 — exactly like the recordClient pin of the per-client Zipf
// workload: the committed experiment corpus is downstream of these
// numbers.
func TestSourceDrawSequence(t *testing.T) {
	srcs := NewSources(pinModel(), 2, 2, func(obj int) int { return obj % 2 })
	if len(srcs) != 4 {
		t.Fatalf("NewSources built %d sources, want 4", len(srcs))
	}
	// Per tick: Getattr, Lookup, Readdir, Create.
	want := map[int][][4]int64{
		0: {
			{4411, 2121, 726, 467},
			{4691, 2151, 732, 512},
			{4941, 2279, 757, 490},
			{5119, 2311, 744, 532},
			{5360, 2478, 784, 543},
			{5559, 2560, 829, 563},
		},
		3: {
			{2876, 1340, 409, 280},
			{2955, 1371, 423, 303},
			{3024, 1418, 459, 306},
			{3331, 1445, 475, 325},
			{3279, 1494, 495, 331},
			{3510, 1664, 555, 392},
		},
	}
	for _, idx := range []int{0, 3} {
		for i, w := range want[idx] {
			d := srcs[idx].Tick(int64(i))
			if got := [4]int64{d.Getattr, d.Lookup, d.Readdir, d.Create}; got != w {
				t.Errorf("source %d tick %d = %v, want %v", idx, i, got, w)
			}
		}
	}
}

// TestSourceTickSkipPurity is the index-purity property behind shed
// accounting: jumping straight to tick i yields exactly the same demand
// as stepping through every tick, because skipped indices advance the
// stream identically.
func TestSourceTickSkipPurity(t *testing.T) {
	mk := func() []*Source {
		return NewSources(pinModel(), 2, 2, func(obj int) int { return obj % 2 })
	}
	stepped := mk()
	var at7 service.Demand
	for i := int64(0); i <= 7; i++ {
		at7 = stepped[1].Tick(i)
	}
	jumped := mk()
	if got := jumped[1].Tick(7); got != at7 {
		t.Errorf("Tick(7) after skip = %+v, want stepped value %+v", got, at7)
	}
	// A stale index draws nothing: the stream only moves forward.
	if got := jumped[1].Tick(3); got != (service.Demand{}) {
		t.Errorf("stale Tick(3) = %+v, want zero demand", got)
	}
}

// TestSourcesReplicatedProcesses verifies the shared-process contract:
// population churn and the spike train are replicated with identical
// seeds into every source, so all sources see the same active-client
// count and the same spike onsets — there is no cross-domain state to
// share.
func TestSourcesReplicatedProcesses(t *testing.T) {
	srcs := NewSources(pinModel(), 2, 2, func(obj int) int { return obj % 2 })
	for i := int64(0); i < 50; i++ {
		a := srcs[0].pop.at(i)
		for j := 1; j < len(srcs); j++ {
			if b := srcs[j].pop.at(i); b != a {
				t.Fatalf("tick %d: source %d sees %d active clients, source 0 sees %d", i, j, b, a)
			}
		}
		ts := time.Duration(i) * time.Second
		s := srcs[0].spikes.at(ts)
		for j := 1; j < len(srcs); j++ {
			if v := srcs[j].spikes.at(ts); v != s {
				t.Fatalf("tick %d: source %d spike factor %v, source 0 %v", i, j, v, s)
			}
		}
	}
}

// TestSourceSeedSensitivity: different model seeds must yield different
// draw sequences (the whole point of seeding), while identical seeds
// are byte-identical.
func TestSourceSeedSensitivity(t *testing.T) {
	m := pinModel()
	a := NewSources(m, 2, 2, func(obj int) int { return obj % 2 })
	b := NewSources(m, 2, 2, func(obj int) int { return obj % 2 })
	m2 := m
	m2.Seed = 43
	c := NewSources(m2, 2, 2, func(obj int) int { return obj % 2 })
	same, diff := true, false
	for i := int64(0); i < 20; i++ {
		da, db, dc := a[0].Tick(i), b[0].Tick(i), c[0].Tick(i)
		if da != db {
			same = false
		}
		if da != dc {
			diff = true
		}
	}
	if !same {
		t.Error("identically-seeded sources diverged")
	}
	if !diff {
		t.Error("differently-seeded sources drew identical sequences")
	}
}

// TestDemandTotal covers the class sum used by shed accounting.
func TestDemandTotal(t *testing.T) {
	d := service.Demand{Getattr: 1, Lookup: 2, Readdir: 3, Create: 4}
	if d.Total() != 10 {
		t.Errorf("Total = %d, want 10", d.Total())
	}
	if (service.Demand{}).Total() != 0 {
		t.Errorf("zero demand Total = %d", (service.Demand{}).Total())
	}
}

// TestSplitmix64 pins the seed-derivation mixer: distinct inputs map to
// distinct, stable outputs (sources and replicated processes derive
// their streams from it).
func TestSplitmix64(t *testing.T) {
	seen := map[int64]int64{}
	for i := int64(-4); i < 4; i++ {
		v := splitmix64(i)
		for prev, pv := range seen {
			if pv == v {
				t.Errorf("splitmix64(%d) == splitmix64(%d) == %d", i, prev, v)
			}
		}
		seen[i] = v
		if splitmix64(i) != v {
			t.Errorf("splitmix64(%d) not stable", i)
		}
	}
}

// ExampleNewSources documents the lane indexing contract.
func ExampleNewSources() {
	m := Model{Clients: 1000, OpsPerClient: 1, Tick: time.Second, Seed: 1}
	srcs := NewSources(m, 2, 3, func(obj int) int { return obj % 2 })
	fmt.Println(len(srcs)) // shard*lanes+lane
	// Output: 6
}
