package sim

import (
	"fmt"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// fanEntry is one resume point of a fan-out scenario: the virtual time,
// the events the kernel had dispatched and the sequence numbers it had
// drawn by then, the process's id and name, and what it had just done.
type fanEntry struct {
	at              Time
	dispatched, seq int64
	id              int
	name            string
	what            string
}

// fanScenario is a seeded tree of parallel fan-outs whose children
// sleep, queue on a shared one-server resource and fan out again, run
// either through Fanout or through the Spawn and Join loops Fanout
// replaces.
type fanScenario struct {
	k         *Kernel
	r         *Resource
	useFanout bool
	log       []fanEntry
	// remote, when set, is a second domain the children call into.
	remote *Kernel
}

func (s *fanScenario) note(p *Proc, what string) {
	k := p.Kernel()
	s.log = append(s.log, fanEntry{p.Now(), k.dispatched, k.seq, p.ID(), p.Name(), what})
}

// fan starts 0 to 4 children at depth and waits for all of them.
func (s *fanScenario) fan(p *Proc, depth int) {
	n := p.Kernel().Rand().Intn(5)
	name := fmt.Sprintf("kid%d", depth)
	if s.useFanout {
		p.Fanout(name, n, func(q *Proc, i int) { s.child(q, i, depth) })
	} else {
		kids := make([]*Proc, n)
		for i := range kids {
			kids[i] = p.Spawn(name, func(q *Proc) { s.child(q, i, depth) })
		}
		for _, q := range kids {
			p.Join(q)
		}
	}
	s.note(p, fmt.Sprintf("joined %d", n))
}

// child takes up to three random steps, so the children of one fan-out
// finish in any order.
func (s *fanScenario) child(q *Proc, i, depth int) {
	s.note(q, fmt.Sprintf("start %d", i))
	rng := q.Kernel().Rand()
	for steps := rng.Intn(4); steps > 0; steps-- {
		switch rng.Intn(4) {
		case 0:
			q.Sleep(Time(rng.Intn(5)) * time.Microsecond)
			s.note(q, "slept")
		case 1:
			s.r.Acquire(q)
			s.note(q, "granted")
			q.Sleep(Time(rng.Intn(3)) * time.Microsecond)
			s.r.Release()
			s.note(q, "released")
		case 2:
			if depth < 2 {
				s.fan(q, depth+1)
			}
		case 3:
			if s.remote != nil {
				Call(q, s.remote, fanLookahead, "rpc", func(x *Proc) { x.Sleep(time.Microsecond) })
				s.note(q, "called")
			}
		}
	}
}

// fanLookahead is the domained scenario's lookahead and call delay.
const fanLookahead = 10 * time.Microsecond

// run starts three roots that each fan out six times with random pauses
// in between, so fan-outs of different parents overlap and later ones
// start recycled children.
func (s *fanScenario) run(t *testing.T) {
	t.Helper()
	for r := range 3 {
		s.k.Spawn(fmt.Sprintf("root%d", r), func(p *Proc) {
			for range 6 {
				s.fan(p, 0)
				p.Sleep(Time(p.Kernel().Rand().Intn(4)) * time.Microsecond)
			}
		})
	}
	if err := s.k.Run(); err != nil {
		t.Fatal(err)
	}
}

// kernelCounts is what a kernel drew over a run.
type kernelCounts struct {
	now                Time
	seq, dispatched    int64
	procSeq, live, all int
}

func countsOf(k *Kernel) kernelCounts {
	return kernelCounts{k.now, k.seq, k.dispatched, k.procSeq, k.live, len(k.procs)}
}

// TestFanoutMatchesSpawnJoin is the differential test of Fanout: over
// seeded random fan-out trees, a run through Fanout and a run through
// Spawn and Join loops log the same process ids and names at the same
// virtual times and event and sequence counts at every resume point, and
// their kernels end having drawn the same sequence numbers, events and
// process ids.
func TestFanoutMatchesSpawnJoin(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		var logs [2][]fanEntry
		var counts [2]kernelCounts
		for v, useFanout := range []bool{false, true} {
			k := New(seed)
			s := &fanScenario{k: k, r: NewResource(k, "disk", 1), useFanout: useFanout}
			s.run(t)
			logs[v], counts[v] = s.log, countsOf(k)
		}
		if i := firstDiff(logs[0], logs[1]); i >= 0 {
			t.Fatalf("seed %d: entry %d differs: spawn+join %s, fanout %s", seed, i, entryAt(logs[0], i), entryAt(logs[1], i))
		}
		if counts[0] != counts[1] {
			t.Fatalf("seed %d: kernel counts differ: spawn+join %+v, fanout %+v", seed, counts[0], counts[1])
		}
		if len(logs[0]) < 50 {
			t.Fatalf("seed %d: only %d entries; the scenario exercises too little", seed, len(logs[0]))
		}
	}
}

// TestFanoutMatchesSpawnJoinDomained runs the differential scenario on
// a two-domain kernel whose fan-out children also Call into the second
// domain: Fanout behaves there as it does on a plain kernel.
func TestFanoutMatchesSpawnJoinDomained(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		var logs [2][]fanEntry
		var counts [2][2]kernelCounts
		for v, useFanout := range []bool{false, true} {
			k := New(seed)
			g := AddDomains(k, 1, fanLookahead)
			s := &fanScenario{k: k, r: NewResource(k, "disk", 1), useFanout: useFanout, remote: g.Kernel(1)}
			s.run(t)
			logs[v], counts[v] = s.log, [2]kernelCounts{countsOf(k), countsOf(g.Kernel(1))}
		}
		if i := firstDiff(logs[0], logs[1]); i >= 0 {
			t.Fatalf("seed %d: entry %d differs: spawn+join %s, fanout %s", seed, i, entryAt(logs[0], i), entryAt(logs[1], i))
		}
		if counts[0] != counts[1] {
			t.Fatalf("seed %d: kernel counts differ: spawn+join %+v, fanout %+v", seed, counts[0], counts[1])
		}
		if !slices.ContainsFunc(logs[1], func(e fanEntry) bool { return e.what == "called" }) {
			t.Fatalf("seed %d: no child called into the second domain", seed)
		}
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []fanEntry) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

func entryAt(l []fanEntry, i int) string {
	if i >= len(l) {
		return "(none)"
	}
	return fmt.Sprintf("%+v", l[i])
}

// TestFanoutRecycledProcIsFresh checks that a recycled child carries
// nothing of its previous life: the second fan-out runs in the first
// one's Procs, under new ids, with no Ctx, no joiner left and a live
// registration of its own.
func TestFanoutRecycledProcIsFresh(t *testing.T) {
	k := New(1)
	var first, second []*Proc
	var ids []int
	k.Spawn("parent", func(p *Proc) {
		p.Fanout("a", 3, func(q *Proc, i int) {
			first = append(first, q)
			q.Ctx = "previous life"
			q.Sleep(time.Duration(3-i) * time.Microsecond) // blocks, then ends in reverse order
		})
		// The free list holds the three children, finished, with their
		// carriers handed back and their joiner lists emptied; the
		// child joined while it still ran keeps its list's capacity.
		kept := 0
		for _, q := range k.spare {
			if !q.done || q.c != nil || len(q.waiters) != 0 || slices.ContainsFunc(q.waiters[:cap(q.waiters)], func(w *Proc) bool { return w != nil }) {
				t.Errorf("finished child %d: done %v, carrier %v, joiners %v", q.id, q.done, q.c, q.waiters[:cap(q.waiters)])
			}
			if cap(q.waiters) > 0 {
				kept++
			}
		}
		if kept == 0 {
			t.Error("no finished child kept its joiner list's capacity")
		}
		p.Fanout("b", 3, func(q *Proc, i int) {
			second = append(second, q)
			ids = append(ids, q.ID())
			switch {
			case q.done || q.daemon || q.step != nil || q.blockedOn != "":
				t.Errorf("child %d: done %v, daemon %v, step set %v, blocked on %q", i, q.done, q.daemon, q.step != nil, q.blockedOn)
			case q.Ctx != nil:
				t.Errorf("child %d: Ctx %v survived", i, q.Ctx)
			case len(q.waiters) > 1 || len(q.waiters) == 1 && (i != 0 || q.waiters[0] != p):
				// Only the parent, parked in its Join of child 0, may
				// wait on a child as it starts.
				t.Errorf("child %d: joiners %v survived", i, q.waiters)
			case q.slot < 0 || k.procs[q.slot] != q:
				t.Errorf("child %d: slot %d does not register it", i, q.slot)
			case q.Name() != "b" || int(q.idx) != i:
				t.Errorf("child %d: name %q, index %d", i, q.Name(), q.idx)
			}
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, q := range second {
		if !slices.Contains(first, q) {
			t.Fatalf("second fan-out started a new Proc instead of a recycled one")
		}
	}
	if !slices.Equal(ids, []int{5, 6, 7}) {
		t.Fatalf("second fan-out ids %v, want 5 6 7", ids)
	}
}

// TestFanoutZeroChildren checks that an empty fan-out returns at once,
// drawing no event, sequence number or process id.
func TestFanoutZeroChildren(t *testing.T) {
	k := New(1)
	k.Spawn("parent", func(p *Proc) {
		before := countsOf(k)
		p.Fanout("none", 0, func(*Proc, int) { t.Error("a child ran") })
		p.Fanout("none", -1, func(*Proc, int) { t.Error("a child ran") })
		if after := countsOf(k); after != before {
			t.Errorf("empty fan-out moved the kernel: %+v -> %+v", before, after)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// faultyKid is a fan-out body with a model bug in its second child.
func faultyKid(q *Proc, i int) {
	q.Sleep(time.Millisecond)
	if i == 1 {
		panic("model bug")
	}
}

// TestFanoutChildPanicSurfacesFromRun checks that a panic in a fan-out
// child surfaces from Run as a *PanicError naming the child.
func TestFanoutChildPanicSurfacesFromRun(t *testing.T) {
	k := New(1)
	k.Spawn("parent", func(p *Proc) { p.Fanout("kid", 3, faultyKid) })
	checkPanic(t, recoverRun(k), "model bug", "kid", "sim.faultyKid")
}

// TestProcSize pins the Proc layout: a fan-out child's index lives in
// the padding after daemon, so the struct stays two cache lines.
func TestProcSize(t *testing.T) {
	if got := unsafe.Sizeof(Proc{}); got != 128 {
		t.Fatalf("sim.Proc is %d bytes, want 128", got)
	}
}

// TestFanoutSteadyStateAllocFree checks that once the free lists have
// grown, a fan-out allocates nothing, whatever its width.
func TestFanoutSteadyStateAllocFree(t *testing.T) {
	for _, n := range []int{1, 8, 64} {
		k := New(1)
		var avg float64
		k.Spawn("parent", func(p *Proc) {
			avg = testing.AllocsPerRun(100, func() {
				p.Fanout("kid", n, func(q *Proc, _ int) { q.Sleep(time.Microsecond) })
			})
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if avg != 0 {
			t.Errorf("fan-out of %d allocated %.2f objects per call, want 0", n, avg)
		}
	}
}
