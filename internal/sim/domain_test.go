package sim

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// traceRun executes a small cross-domain workload on 4 domains with the
// given worker count and returns a trace of every call body.
func traceRun(t *testing.T, workers int) []string {
	t.Helper()
	k := New(42)
	g := AddDomains(k, 3, 50*time.Microsecond)
	g.Workers = workers

	var trace []string
	var mu sync.Mutex
	record := func(s string) {
		mu.Lock()
		trace = append(trace, s)
		mu.Unlock()
	}

	// Each domain runs a driver that, every round, starts a caller
	// that migrates to the next domain in a ring with varying delays,
	// plus local sleeps, for a few rounds.
	for i := 0; i < g.NumDomains(); i++ {
		i := i
		ki := g.Kernel(i)
		ki.Spawn(fmt.Sprintf("driver-%d", i), func(p *Proc) {
			for round := 0; round < 5; round++ {
				p.Sleep(time.Duration(10*(i+1)) * time.Microsecond)
				dst := g.Kernel((i + 1) % g.NumDomains())
				delay := 50*time.Microsecond + time.Duration(i*7)*time.Microsecond
				p.Spawn("ring", func(q *Proc) {
					Call(q, dst, delay, "ring", func(r *Proc) {
						record(fmt.Sprintf("d%d t%v", r.Kernel().DomainID(), r.Now()))
					})
				})
			}
		})
	}
	if err := g.Run(); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return trace
}

// TestDomainWorkerInvariance is the core determinism property of the
// window protocol: the same decomposition produces identical execution
// whether domains run on one worker thread or one thread per domain.
func TestDomainWorkerInvariance(t *testing.T) {
	// Calls into ONE domain execute in deterministic order; the global
	// interleaving across domains is inherently concurrent, so compare
	// per-domain projections of the trace.
	project := func(trace []string) map[string][]string {
		m := map[string][]string{}
		for _, s := range trace {
			d := strings.Fields(s)[0]
			m[d] = append(m[d], s)
		}
		return m
	}
	a := project(traceRun(t, 1))
	b := project(traceRun(t, 4))
	if len(a) != len(b) {
		t.Fatalf("domain counts differ: %d vs %d", len(a), len(b))
	}
	for d, as := range a {
		bs := b[d]
		if fmt.Sprint(as) != fmt.Sprint(bs) {
			t.Errorf("%s trace differs:\n 1 worker: %v\n 4 workers: %v", d, as, bs)
		}
	}
}

// TestDomainCallTiming checks the rendezvous primitive: a cross-domain
// Call charges exactly one-way delay, body time, one-way delay.
func TestDomainCallTiming(t *testing.T) {
	k := New(1)
	g := AddDomains(k, 1, 100*time.Microsecond)
	var elapsed, bodyAt time.Duration
	k.Spawn("caller", func(p *Proc) {
		start := p.Now()
		p.Sleep(time.Millisecond)
		callStart := p.Now()
		Call(p, g.Kernel(1), 150*time.Microsecond, "rpc", func(q *Proc) {
			bodyAt = q.Now()
			q.Sleep(300 * time.Microsecond)
		})
		elapsed = p.Now() - callStart
		_ = start
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if want := time.Millisecond + 150*time.Microsecond; bodyAt != want {
		t.Errorf("body ran at %v, want %v", bodyAt, want)
	}
	if want := 2*150*time.Microsecond + 300*time.Microsecond; elapsed != want {
		t.Errorf("call took %v, want %v", elapsed, want)
	}
}

// TestDomainCallMigratesCaller checks how a cross-domain Call runs its
// body: as the calling process itself, moved onto the destination
// kernel — where it queues on that kernel's resources and may call
// onward — and moved back to its home kernel afterwards, with its Ctx
// and identity intact and no helper process spawned anywhere.
func TestDomainCallMigratesCaller(t *testing.T) {
	k := New(1)
	g := AddDomains(k, 1, 100*time.Microsecond)
	dst := g.Kernel(1)
	pool := NewResource(dst, "pool", 1)
	dst.Spawn("holder", func(q *Proc) { pool.Use(q, time.Millisecond) })
	var caller *Proc
	var inBody, inNested, afterNested, after *Kernel
	var queuedUntil time.Duration
	k.Spawn("caller", func(p *Proc) {
		caller = p
		p.Ctx = "ctx"
		Call(p, dst, 100*time.Microsecond, "rpc", func(q *Proc) {
			if q != p || q.Ctx != "ctx" {
				t.Errorf("body runs as %q (ctx %v), want the caller itself", q.Name(), q.Ctx)
			}
			inBody = q.Kernel()
			pool.Acquire(q) // held by dst's own process until 1ms
			queuedUntil = q.Now()
			pool.Release()
			Call(q, k, 100*time.Microsecond, "back", func(r *Proc) { inNested = r.Kernel() })
			afterNested = q.Kernel()
		})
		after = p.Kernel()
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if inBody != dst || inNested != k || afterNested != dst || after != k {
		t.Errorf("kernels body/nested/after-nested/after = d%d/d%d/d%d/d%d, want d1/d0/d1/d0",
			inBody.DomainID(), inNested.DomainID(), afterNested.DomainID(), after.DomainID())
	}
	if queuedUntil != time.Millisecond {
		t.Errorf("body got dst's pool at %v, want 1ms behind its holder", queuedUntil)
	}
	if caller.ID() != 1 || k.live != 0 || dst.live != 0 {
		t.Errorf("caller id %d, live %d/%d after the run, want 1 and 0/0", caller.ID(), k.live, dst.live)
	}
	if dst.procSeq != 1 {
		t.Errorf("dst spawned %d procs, want only its holder", dst.procSeq)
	}
}

// TestDomainCausalityChecker checks that a send violating the lookahead
// bound panics with a diagnostic.
func TestDomainCausalityChecker(t *testing.T) {
	k := New(3)
	g := AddDomains(k, 1, 100*time.Microsecond)
	k.Spawn("violator", func(p *Proc) {
		defer func() {
			r := recover()
			if r == nil {
				t.Error("under-lookahead Call did not panic")
			} else if !strings.Contains(fmt.Sprint(r), "causality violation") {
				t.Errorf("unexpected panic: %v", r)
			}
		}()
		Call(p, g.Kernel(1), 10*time.Microsecond, "bad", func(q *Proc) {})
	})
	_ = g.Run()
}

// TestDomainDeadlock checks the group-level deadlock report: a proc
// blocked forever with no events and no in-flight messages anywhere.
func TestDomainDeadlock(t *testing.T) {
	k := New(5)
	g := AddDomains(k, 1, 50*time.Microsecond)
	sem := NewSemaphore(g.Kernel(1), "stuck", 0)
	g.Kernel(1).Spawn("waiter", func(p *Proc) {
		sem.Acquire(p, 1)
	})
	err := g.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if !strings.Contains(de.Error(), "waiter") {
		t.Errorf("deadlock report %q does not name the blocked proc", de.Error())
	}
}

// TestDomainRunFor checks horizon semantics across the group: the run
// stops with every clock at the horizon and resumes cleanly.
func TestDomainRunFor(t *testing.T) {
	k := New(9)
	g := AddDomains(k, 1, 50*time.Microsecond)
	var ticks int
	k.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(time.Millisecond)
			ticks++
		}
	})
	if err := g.RunFor(3500 * time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if ticks != 3 {
		t.Errorf("ticks at horizon = %d, want 3", ticks)
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 10 {
		t.Errorf("final ticks = %d, want 10", ticks)
	}
}
