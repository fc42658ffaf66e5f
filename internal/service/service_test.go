package service

import (
	"slices"
	"testing"
	"time"

	"dmetabench/internal/fs"
	"dmetabench/internal/namespace"
	"dmetabench/internal/sim"
)

// TestAttachAggregateConserves runs two injector lanes whose priced
// holds sometimes outlast two ticks, and checks the accounting: every
// drawn operation is either injected or shed, and the busy time is the
// injected operations' price.
func TestAttachAggregateConserves(t *testing.T) {
	k := sim.New(1)
	pool := sim.NewResource(k, "pool", 2)
	var counts Counts
	var offered int64
	const each = 1500 * time.Microsecond
	AttachAggregate(AggregateConfig{
		Servers: 1,
		Lanes:   2,
		Tick:    time.Millisecond,
		Kernel:  func(int) *sim.Kernel { return k },
		Pool:    func(int) *sim.Resource { return pool },
		Source: func(_, lane, tick int) Demand {
			d := Demand{Getattr: int64((lane + tick) % 3)}
			offered += d.Total()
			return d
		},
		Prices: PriceTable{Getattr: each},
		Factor: func(int) float64 { return 1 },
		Counts: &counts,
	})
	k.Spawn("driver", func(p *sim.Proc) { p.Sleep(50 * time.Millisecond) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	ops, shed, busy := counts.Load()
	if ops == 0 || shed == 0 {
		t.Fatalf("ops %d, shed %d: the run should both inject and shed", ops, shed)
	}
	if offered != ops+shed {
		t.Errorf("offered %d != injected %d + shed %d", offered, ops, shed)
	}
	if priced := time.Duration(ops) * each; busy != priced {
		t.Errorf("busy %v != the injected operations' price %v", busy, priced)
	}
	if got := pool.BusyTime(); got > busy {
		t.Errorf("pool busy %v exceeds the priced holds %v", got, busy)
	}
}

// TestPriceAggregate pins the batch pricing: per-class base costs
// times the server's factor, zero for an empty batch without sampling
// the factor (a WAFL factor draws from the kernel's random source), and
// linear in the demand.
func TestPriceAggregate(t *testing.T) {
	calls := 0
	cfg := AggregateConfig{
		Prices: PriceTable{Getattr: 40 * time.Microsecond, Lookup: 50 * time.Microsecond,
			Readdir: 120 * time.Microsecond, Create: 150 * time.Microsecond},
		Factor: func(server int) float64 { calls++; return 1.25 + float64(server) },
	}
	if got := cfg.price(0, Demand{}); got != 0 || calls != 0 {
		t.Errorf("empty batch priced at %v with %d factor samples, want 0 and none", got, calls)
	}
	one := cfg.price(1, Demand{Getattr: 1, Lookup: 1, Readdir: 1, Create: 1})
	if want := time.Duration(float64(360*time.Microsecond) * 2.25); one != want {
		t.Errorf("mixed batch on server 1 priced at %v, want %v", one, want)
	}
	ten := cfg.price(1, Demand{Getattr: 10, Lookup: 10, Readdir: 10, Create: 10})
	if diff := ten - 10*one; diff < -time.Microsecond || diff > time.Microsecond {
		t.Errorf("pricing not linear: 10x batch = %v, 10 x 1x batch = %v", ten, 10*one)
	}
	if calls != 2 {
		t.Errorf("%d factor samples for 2 priced batches", calls)
	}
}

// TestLockParentCountsAfterLock runs two bodies that create in one
// directory: the one queued on the directory's lock sees the entry the
// other made while holding it.
func TestLockParentCountsAfterLock(t *testing.T) {
	k := sim.New(1)
	ns := namespace.New()
	if _, err := ns.Mkdir("/d", 0o755, 0); err != nil {
		t.Fatal(err)
	}
	locks := sim.NewLocks(k, "dir")
	var seen []int
	for _, p := range []string{"/d/a", "/d/b"} {
		k.Spawn("body:"+p, func(sp *sim.Proc) {
			h := ns.Parent(p)
			lock, n := LockParent(sp, locks, &h)
			defer lock.Unlock()
			seen = append(seen, n)
			sp.Sleep(time.Millisecond)
			if _, err := h.Create(0o644, sp.Now()); err != nil {
				t.Error(err)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(seen, []int{0, 1}) {
		t.Errorf("entry counts %v, want [0 1]", seen)
	}
}

// TestLockParentResolution checks which directory LockParent locks: none
// where the parent does not resolve, and with a trailing slash the one
// Lookup(fs.ParentDir(p)) names, the object itself.
func TestLockParentResolution(t *testing.T) {
	k := sim.New(1)
	ns := namespace.New()
	for _, d := range []string{"/d", "/d/sub"} {
		if _, err := ns.Mkdir(d, 0o755, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []string{"/d/sub/f1", "/d/sub/f2"} {
		if _, err := ns.Create(f, 0o644, 0); err != nil {
			t.Fatal(err)
		}
	}
	locks := sim.NewLocks(k, "dir")
	var waited time.Duration
	k.Spawn("holder", func(sp *sim.Proc) {
		for _, p := range []string{"/missing/x", "/d/missing/x"} {
			h := ns.Parent(p)
			if lock, n := LockParent(sp, locks, &h); lock != nil || n != -1 {
				t.Errorf("%s: lock %v, %d entries, want nil and -1", p, lock, n)
			}
		}
		// Had the failed steps taken a lock, the holder would deadlock
		// on it here.
		for _, p := range []string{"/x", "/d/x", "/d/sub/x"} {
			h := ns.Parent(p)
			lock, _ := LockParent(sp, locks, &h)
			lock.Unlock()
		}
		const p = "/d/sub/"
		dir, err := ns.Lookup(fs.ParentDir(p))
		if err != nil {
			t.Fatal(err)
		}
		h := ns.Parent(p)
		lock, n := LockParent(sp, locks, &h)
		// /d/sub holds two entries, its parent /d one.
		if want := ns.NumChildren(dir); lock == nil || n != want {
			t.Errorf("%s: lock %v, %d entries, want a lock and %d", p, lock, n, want)
		}
		sp.Sleep(time.Millisecond)
		lock.Unlock()
	})
	k.Spawn("waiter", func(sp *sim.Proc) {
		sp.Yield() // let the holder take /d/sub first
		h := ns.Parent("/d/sub/g")
		lock, _ := LockParent(sp, locks, &h)
		waited = sp.Now()
		lock.Unlock()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if waited != time.Millisecond {
		t.Errorf("a body on /d/sub got its lock at %v, want the holder's release at 1ms", waited)
	}
}
