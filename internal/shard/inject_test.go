package shard

import (
	"testing"
	"time"

	"dmetabench/internal/cluster"
	"dmetabench/internal/service"
	"dmetabench/internal/sim"
)

// constDemand returns a source that yields the same demand on every
// (shard, lane, tick).
func constDemand(d service.Demand) func(int, int, int) service.Demand {
	return func(_, _, _ int) service.Demand { return d }
}

// TestAggregateInjectCounts runs an underloaded injector for a fixed
// horizon: every tick's batch fits inside the tick, so nothing sheds,
// every lane processes every tick, and the busy time is at least the
// unscaled base cost of the injected ops.
func TestAggregateInjectCounts(t *testing.T) {
	cfg := DefaultConfig(2)
	k := sim.New(3)
	f := New(k, "inj", cfg)
	const tick = 10 * time.Millisecond
	// 10 getattrs/lane/tick cost 400us base — 4% of a tick per lane.
	f.AttachAggregate(tick, constDemand(service.Demand{Getattr: 10}))
	k.Spawn("horizon", func(p *sim.Proc) { p.Sleep(100 * time.Millisecond) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	ops, shed, busy := f.AggCounts()
	lanes := cfg.NumShards * cfg.ShardThreads
	// Each lane covers ticks 0..9 within the horizon; the 100ms boundary
	// tick may or may not run before the kernel drains.
	lo, hi := int64(lanes*10*10), int64(lanes*11*10)
	if ops < lo || ops > hi {
		t.Errorf("injected ops = %d, want in [%d, %d]", ops, lo, hi)
	}
	if shed != 0 {
		t.Errorf("underloaded injector shed %d ops", shed)
	}
	if min := time.Duration(ops) * getattrService; busy < min {
		t.Errorf("busy = %v, want at least the base cost %v", busy, min)
	}
}

// TestAggregateInjectSheds overloads the injector: one tick's batch
// costs many ticks of hold time, so lanes sleep through tick indices
// and must account for them as shed rather than building a backlog.
func TestAggregateInjectSheds(t *testing.T) {
	cfg := DefaultConfig(1)
	k := sim.New(4)
	f := New(k, "shed", cfg)
	const tick = time.Millisecond
	// 1000 getattrs cost 40ms base — a 40x overload per lane.
	f.AttachAggregate(tick, constDemand(service.Demand{Getattr: 1000}))
	k.Spawn("horizon", func(p *sim.Proc) { p.Sleep(200 * time.Millisecond) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	ops, shed, _ := f.AggCounts()
	if ops == 0 {
		t.Fatal("overloaded injector processed nothing")
	}
	if shed == 0 {
		t.Fatal("overloaded injector shed nothing")
	}
	if shed < ops {
		t.Errorf("ops=%d shed=%d: a 40x overload must shed far more than it serves", ops, shed)
	}
	// Open loop: every elapsed tick is either served or shed, so the two
	// together cover the horizon's draw stream up to each lane's final
	// in-flight hold (whose later ticks are still unshed at the horizon).
	lanes := int64(cfg.NumShards * cfg.ShardThreads)
	if total := ops + shed; total < lanes*150*1000 {
		t.Errorf("ops+shed = %d, want coverage of at least 150 of ~200 ticks x %d lanes x 1000", total, lanes)
	}
}

// TestAggregateDaemonsExitWithSim pins the daemon contract: an FS with
// only injector lanes attached never keeps the kernel alive past the
// last real process.
func TestAggregateDaemonsExitWithSim(t *testing.T) {
	cfg := DefaultConfig(2)
	k := sim.New(6)
	f := New(k, "drain", cfg)
	f.AttachAggregate(time.Millisecond, constDemand(service.Demand{Getattr: 1}))
	const horizon = 5 * time.Millisecond
	k.Spawn("horizon", func(p *sim.Proc) { p.Sleep(horizon) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != horizon {
		t.Errorf("kernel ran to %v, want the %v horizon", k.Now(), horizon)
	}
	if ops, _, _ := f.AggCounts(); ops == 0 {
		t.Error("injector lanes never ran")
	}
}

// TestCapacityStatsCensus exercises the post-run capacity census E33
// reads: a lease-mode workload leaves server lease tables, journal
// entries and client caches behind, and Entries sums them all.
func TestCapacityStatsCensus(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.CacheMode = CacheLease
	k := sim.New(8)
	cl := cluster.New(k, cluster.DefaultConfig(1))
	f := New(k, "cap", cfg)
	k.Spawn("client", func(p *sim.Proc) {
		c := f.NewClient(cl.Nodes[0], p)
		c.Mkdir("/d")
		for i := 0; i < 8; i++ {
			path := "/d/f" + string(rune('a'+i))
			c.Create(path)
			c.Stat(path)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st := f.CapacityStats()
	if st.Nodes != 1 {
		t.Errorf("Nodes = %d, want 1", st.Nodes)
	}
	if st.LeaseEntries == 0 {
		t.Error("lease-mode run left no server lease entries")
	}
	if st.ClientAttrs+st.ClientLeases == 0 {
		t.Error("run left no client attribute- or lease-cache entries")
	}
	want := st.LeaseEntries + st.Delegations + st.SplitDirs + st.JournalEntries +
		st.ClientAttrs + st.ClientDentries + st.ClientLeases + st.ClientSplitDirs
	if got := st.Entries(); got != want {
		t.Errorf("Entries() = %d, want the field sum %d", got, want)
	}
}
