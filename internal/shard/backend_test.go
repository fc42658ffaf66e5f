package shard

import (
	"fmt"
	"testing"
	"time"

	"dmetabench/internal/fs"
	"dmetabench/internal/sim"
)

// backendWorkload runs a fixed mutation/read mix and returns the final
// virtual time plus the FS, so two configurations can be compared for
// exact cost equality.
func backendWorkload(t *testing.T, cfg Config) (time.Duration, *FS) {
	t.Helper()
	k, cl, f := env(t, 2, cfg)
	var end time.Duration
	drive(t, k, cl, f, func(c fs.Client, p *sim.Proc) {
		for d := 0; d < 4; d++ {
			dir := fmt.Sprintf("/d%d", d)
			if err := c.Mkdir(dir); err != nil {
				t.Fatalf("mkdir: %v", err)
			}
			for i := 0; i < 25; i++ {
				if err := c.Create(fmt.Sprintf("%s/f%d", dir, i)); err != nil {
					t.Fatalf("create: %v", err)
				}
			}
			if _, err := c.Stat(dir + "/f0"); err != nil {
				t.Fatalf("stat: %v", err)
			}
			if _, err := c.Stat(dir + "/missing"); !fs.IsNotExist(err) {
				t.Fatalf("stat missing: %v", err)
			}
			if _, err := c.ReadDir(dir); err != nil {
				t.Fatalf("readdir: %v", err)
			}
			if err := c.Rename(dir+"/f0", dir+"/r0"); err != nil {
				t.Fatalf("rename: %v", err)
			}
			if err := c.Unlink(dir + "/f1"); err != nil {
				t.Fatalf("unlink: %v", err)
			}
		}
		end = p.Now()
	})
	return end, f
}

// TestBackendDefaultEquivalence pins the tentpole contract: an untouched
// Config, an explicit BackendMemJournal and an explicit zero group-commit
// window all price a replicated workload to the exact same virtual
// nanosecond with the same mirror traffic.
func TestBackendDefaultEquivalence(t *testing.T) {
	base := DefaultConfig(4)
	base.Replicate = true
	refEnd, refFS := backendWorkload(t, base)

	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"explicit-memjournal", func(c *Config) { c.Backend = BackendMemJournal }},
		{"zero-window", func(c *Config) { c.GroupCommitWindow = 0 }},
	} {
		cfg := base
		tc.mut(&cfg)
		end, f := backendWorkload(t, cfg)
		if end != refEnd {
			t.Errorf("%s: end time %v, want %v", tc.name, end, refEnd)
		}
		if f.MirrorCount != refFS.MirrorCount {
			t.Errorf("%s: MirrorCount %d, want %d", tc.name, f.MirrorCount, refFS.MirrorCount)
		}
		if f.GroupCommits != 0 || f.GroupCommitOps != 0 {
			t.Errorf("%s: group-commit counters %d/%d on the per-op path",
				tc.name, f.GroupCommits, f.GroupCommitOps)
		}
	}
	if refFS.MirrorCount == 0 {
		t.Fatal("replicated workload produced no mirror traffic")
	}
	if len(refFS.Compactions) != 0 {
		t.Errorf("default backend recorded %d compactions", len(refFS.Compactions))
	}
}

// TestBackendsDivergeFromDefault guards against a silently disconnected
// pricing layer: the non-default backends must change the workload's
// total cost.
func TestBackendsDivergeFromDefault(t *testing.T) {
	base := DefaultConfig(4)
	refEnd, _ := backendWorkload(t, base)
	for _, kind := range []BackendKind{BackendLSM, BackendBTree} {
		cfg := base
		cfg.Backend = kind
		end, f := backendWorkload(t, cfg)
		if end == refEnd {
			t.Errorf("%s priced the workload identically to the default", kind)
		}
		if got := f.Name(); got != "shard4-hashdir-"+kind.String() {
			t.Errorf("Name() = %q, want backend suffix %q", got, kind.String())
		}
	}
}

// TestGroupCommitBatching drives concurrent writers into a replicated
// service with an open window and checks that mutations actually share
// flushes: batches form, followers join them, and the mirror round-trip
// count drops below the per-op run's.
func TestGroupCommitBatching(t *testing.T) {
	run := func(window time.Duration) *FS {
		cfg := DefaultConfig(2)
		cfg.Replicate = true
		cfg.GroupCommitWindow = window
		k, cl, f := env(t, 2, cfg)
		for w := 0; w < 6; w++ {
			w := w
			k.Spawn(fmt.Sprintf("writer%d", w), func(p *sim.Proc) {
				c := f.NewClient(cl.Nodes[w%2], p)
				dir := fmt.Sprintf("/w%d", w)
				if err := c.Mkdir(dir); err != nil {
					t.Errorf("mkdir: %v", err)
					return
				}
				for i := 0; i < 20; i++ {
					if err := c.Create(fmt.Sprintf("%s/f%d", dir, i)); err != nil {
						t.Errorf("create: %v", err)
						return
					}
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return f
	}
	perOp := run(0)
	batched := run(2 * time.Millisecond)
	if batched.GroupCommits == 0 {
		t.Fatal("no batches formed under a 2ms window")
	}
	if batched.GroupCommitOps == 0 {
		t.Error("no mutation ever joined an open batch")
	}
	if batched.MirrorCount >= perOp.MirrorCount {
		t.Errorf("batching did not reduce mirror round trips: %d >= %d",
			batched.MirrorCount, perOp.MirrorCount)
	}
	// Durability semantics are unchanged: everything acked exists.
	k, cl, f := env(t, 1, func() Config {
		c := DefaultConfig(2)
		c.Replicate = true
		c.GroupCommitWindow = 2 * time.Millisecond
		return c
	}())
	drive(t, k, cl, f, func(c fs.Client, p *sim.Proc) {
		if err := c.Mkdir("/d"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		for i := 0; i < 10; i++ {
			if err := c.Create(fmt.Sprintf("/d/f%d", i)); err != nil {
				t.Fatalf("create: %v", err)
			}
		}
		for i := 0; i < 10; i++ {
			if _, err := c.Stat(fmt.Sprintf("/d/f%d", i)); err != nil {
				t.Errorf("stat after batched create: %v", err)
			}
		}
	})
}

// TestLSMCompactionDeterministic checks that compaction pauses fire, are
// recorded per shard, and replay identically for the same seed.
func TestLSMCompactionDeterministic(t *testing.T) {
	run := func() *FS {
		cfg := DefaultConfig(2)
		cfg.Backend = BackendLSM
		cfg.CompactEvery = 16 << 10
		_, f := backendWorkload(t, cfg)
		return f
	}
	a, b := run(), run()
	if len(a.Compactions) == 0 {
		t.Fatal("no compactions with a 16KB interval")
	}
	if len(a.Compactions) != len(b.Compactions) {
		t.Fatalf("compaction count differs across identical runs: %d vs %d",
			len(a.Compactions), len(b.Compactions))
	}
	for i := range a.Compactions {
		if a.Compactions[i] != b.Compactions[i] {
			t.Errorf("compaction %d differs: %+v vs %+v", i, a.Compactions[i], b.Compactions[i])
		}
		if s := a.Compactions[i].Shard; s < 0 || s >= 2 {
			t.Errorf("compaction %d on impossible shard %d", i, s)
		}
		if a.Compactions[i].Dur <= 0 {
			t.Errorf("compaction %d has non-positive duration", i)
		}
	}
}

// TestLSMFactors unit-tests the LSM pricing hooks directly. Products of
// two factors are taken on float64 variables, as the backend takes them.
func TestLSMFactors(t *testing.T) {
	b := &lsmBackend{}
	if got := b.factor(0, opInfo{dirSize: -1}); got != 1 {
		t.Errorf("unclassified factor = %v, want exactly 1", got)
	}
	if got := b.factor(0, opInfo{cls: opRead, negative: true, dirSize: -1}); got != lsmBloomNegative {
		t.Errorf("negative lookup factor = %v, want %v", got, lsmBloomNegative)
	}
	if got := b.factor(0, opInfo{cls: opRead, dirSize: -1}); got != lsmReadFactor {
		t.Errorf("read factor = %v, want %v", got, lsmReadFactor)
	}
	b.compactEnd = time.Second
	slow, write := float64(lsmCompactSlowdown), float64(lsmWriteFactor)
	if got := b.factor(time.Millisecond, opInfo{cls: opWrite, dirSize: -1}); got != slow*write {
		t.Errorf("stalled write factor = %v, want %v", got, slow*write)
	}
	if got := b.factor(2*time.Second, opInfo{cls: opWrite, dirSize: -1}); got != write {
		t.Errorf("post-stall write factor = %v, want %v", got, write)
	}
	replay := time.Millisecond
	want := time.Duration(float64(replay) * lsmReplayFactor)
	if got := (&lsmBackend{replay: replay}).replayPerEntry(); got != want || got >= replay {
		t.Errorf("replayPerEntry = %v, want %v (cheaper than %v)", got, want, replay)
	}
}

// TestBTreeFactors unit-tests page-depth pricing and the hot-directory
// lock shadow.
func TestBTreeFactors(t *testing.T) {
	b := &btreeBackend{lastWrite: map[string]time.Duration{}}
	if got := b.pageFactor(btreePageFanout - 1); got != 1 {
		t.Errorf("pageFactor(one page) = %v, want 1", got)
	}
	one := b.pageFactor(btreePageFanout)
	two := b.pageFactor(btreePageFanout * btreePageFanout)
	if one <= 1 || two <= one {
		t.Errorf("pageFactor not increasing with depth: %v, %v", one, two)
	}
	// First write into a directory pays no lock wait; a second within
	// btreeLockWindow does; one after the window does not.
	w := opInfo{cls: opWrite, dir: "/hot", dirSize: -1}
	write, lock := float64(btreeWriteFactor), float64(btreeLockPenalty)
	if got := b.factor(0, w); got != write {
		t.Errorf("cold write factor = %v, want %v", got, write)
	}
	if got := b.factor(btreeLockWindow/2, w); got != write*lock {
		t.Errorf("hot write factor = %v, want %v", got, write*lock)
	}
	if got := b.factor(btreeLockWindow/2+btreeLockWindow, w); got != write {
		t.Errorf("cooled write factor = %v, want %v", got, write)
	}
	replay := time.Millisecond
	want := time.Duration(float64(replay) * btreeReplayFactor)
	if got := (&btreeBackend{replay: replay}).replayPerEntry(); got != want || got <= replay {
		t.Errorf("replayPerEntry = %v, want %v (dearer than %v)", got, want, replay)
	}
}

func TestParseBackend(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want BackendKind
	}{
		{"lsm", BackendLSM}, {"btree", BackendBTree}, {"sql", BackendBTree},
		{"mem", BackendMemJournal}, {"memjournal", BackendMemJournal}, {"", BackendMemJournal},
	} {
		if got := ParseBackend(tc.in); got != tc.want {
			t.Errorf("ParseBackend(%q) = %v, want %v", tc.in, got, tc.want)
		}
		if got := ParseBackend(tc.want.String()); got != tc.want {
			t.Errorf("round trip %v -> %q -> %v", tc.want, tc.want.String(), got)
		}
	}
}
