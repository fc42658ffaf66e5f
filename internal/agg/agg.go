// Package agg models millions of background clients analytically: an
// aggregate arrival process per metadata shard instead of one simulated
// process per client. A Model describes the population (size, per-client
// op rate, operation mix, Zipf object popularity, diurnal and
// flash-crowd rate modulation, session churn); NewSources compiles it
// into per-(shard, lane) Sources whose Tick method returns the number of
// operations of each class that arrive in one batching interval. The
// sharded MDS prices and injects those batches as virtual-time load
// (shard.FS.AttachAggregate), so 1M+ aggregate clients cost a few dozen
// small structs of memory while a handful of fully-simulated foreground
// clients observe the contention.
//
// Determinism contract: every Source is a pure function of (Model.Seed,
// source index, tick index). Per-source draws come from a private PRNG,
// and the population/spike processes shared by all shards are
// *replicated* — each Source advances its own identically-seeded copy —
// so no two Sources ever share mutable state. A Source living in one
// kernel domain can therefore tick concurrently with every other
// domain's Sources, and the whole arrival stream is byte-identical at
// any -j / -domains / worker count.
package agg

import (
	"math/rand"
	"time"

	"dmetabench/internal/service"
	"dmetabench/internal/workload"
)

// Model describes one aggregate background client population.
type Model struct {
	// Clients is the aggregate population size (sessions that exist);
	// churn decides how many are active at a time.
	Clients int
	// OpsPerClient is each active client's base op rate (ops/s) before
	// diurnal/spike modulation.
	OpsPerClient float64
	// Mix is the operation-class mix of the arrival stream.
	Mix workload.OpMix
	// Zipf is the object popularity law routing load to shards.
	Zipf ZipfPop
	// Diurnal modulates the rate with a sinusoid; zero = flat.
	Diurnal Diurnal
	// Spikes superimposes flash-crowd spikes; zero = none.
	Spikes Spikes
	// Churn opens and closes sessions; zero = everyone always active.
	Churn Churn
	// Tick is the batching interval of the arrival process.
	Tick time.Duration
	// Seed roots every PRNG below.
	Seed int64
}

// Source is the arrival process of one (shard, lane): an independent
// PRNG stream carrying weight/lanes of the shard's Zipf mass. It is not
// safe for concurrent use, but distinct Sources are independent.
type Source struct {
	weight float64 // fraction of the population's rate this source carries
	mix    workload.OpMix
	perSec float64 // OpsPerClient
	tick   float64 // Tick in seconds
	diur   Diurnal
	step   time.Duration
	rng    *rand.Rand
	pop    *population // replicated across sources (identical seed)
	spikes *spikeTrain // replicated across sources (identical seed)
	next   int64       // next tick index to draw
}

// splitmix64 decorrelates derived seeds; adjacent int64 seeds fed to
// math/rand produce visibly correlated low bits.
func splitmix64(x int64) int64 {
	z := uint64(x) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// NewSources compiles m into shards×lanes Sources: source shard*lanes+l
// carries 1/lanes of the Zipf mass route sends to that shard. route maps
// a popularity-ranked object index (0 = most popular) to its shard —
// callers pass the file system's own placement so the analytic load
// lands where real requests for those objects would.
func NewSources(m Model, shards, lanes int, route func(obj int) int) []*Source {
	if lanes < 1 {
		lanes = 1
	}
	weights := m.Zipf.ShardWeights(shards, route)
	mix := m.Mix.Normalized()
	out := make([]*Source, 0, shards*lanes)
	for s := 0; s < shards; s++ {
		for l := 0; l < lanes; l++ {
			idx := s*lanes + l
			out = append(out, &Source{
				weight: weights[s] / float64(lanes),
				mix:    mix,
				perSec: m.OpsPerClient,
				tick:   m.Tick.Seconds(),
				diur:   m.Diurnal,
				step:   m.Tick,
				rng:    rand.New(rand.NewSource(splitmix64(m.Seed + int64(idx)))),
				pop:    newPopulation(m.Clients, m.Churn, splitmix64(m.Seed-1)),
				spikes: newSpikeTrain(m.Spikes, splitmix64(m.Seed-2)),
			})
		}
	}
	return out
}

// Tick draws the arrivals of tick index i (the interval starting at
// i*Model.Tick). Indices must be requested in nondecreasing order;
// skipped indices are drawn and discarded so the stream stays a pure
// function of the index regardless of the caller's pacing.
func (s *Source) Tick(i int64) service.Demand {
	var d service.Demand
	for s.next <= i {
		t := time.Duration(s.next) * s.step
		active := s.pop.at(s.next)
		rate := float64(active) * s.perSec * s.diur.At(t) * s.spikes.at(t)
		mean := rate * s.tick * s.weight
		d = service.Demand{
			Getattr: poisson(s.rng, mean*s.mix.Getattr),
			Lookup:  poisson(s.rng, mean*s.mix.Lookup),
			Readdir: poisson(s.rng, mean*s.mix.Readdir),
			Create:  poisson(s.rng, mean*s.mix.Create),
		}
		s.next++
	}
	return d
}
