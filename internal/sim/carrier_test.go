package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// faultyBody is a process body with a model bug.
func faultyBody(p *Proc) {
	p.Sleep(time.Millisecond)
	panic("model bug")
}

// recoverRun runs k and returns what it panicked with.
func recoverRun(k *Kernel) (got any) {
	defer func() { got = recover() }()
	_ = k.Run()
	return nil
}

// checkPanic asserts that got is a *PanicError wrapping value, raised
// by the process named proc, whose stack names fn.
func checkPanic(t *testing.T, got any, value any, proc, fn string) {
	t.Helper()
	pe, ok := got.(*PanicError)
	if !ok {
		t.Fatalf("Run raised %T %v, want *PanicError", got, got)
	}
	if pe.Value != value {
		t.Errorf("panic value %v, want %v", pe.Value, value)
	}
	if pe.Proc != proc {
		t.Errorf("panic names process %q, want %q", pe.Proc, proc)
	}
	if !strings.Contains(string(pe.Stack), fn) {
		t.Errorf("panic stack does not name %s:\n%s", fn, pe.Stack)
	}
	if msg := pe.Error(); !strings.Contains(msg, fn) || !strings.Contains(msg, proc) {
		t.Errorf("Error() = %q, want the process name and the stack", msg)
	}
}

// TestCarrierPanicSurfacesFromRun checks that a panic in a process body
// is raised again from Kernel.Run on the caller's goroutine, where the
// caller can recover it, instead of killing the program from the
// carrier — wrapped with the process name and the body's own frames,
// which the coroutine's re-raise would otherwise lose.
func TestCarrierPanicSurfacesFromRun(t *testing.T) {
	k := New(1)
	k.Spawn("bystander", func(p *Proc) { p.Sleep(time.Second) })
	k.Spawn("faulty", faultyBody)
	checkPanic(t, recoverRun(k), "model bug", "faulty", "sim.faultyBody")
}

// crossBody is a service body with a model bug, run through Call.
func crossBody(q *Proc) {
	q.Sleep(time.Microsecond)
	var m map[string]int
	m["x"]++
}

// TestCarrierPanicInCrossDomainCall checks that a panic in the body of
// a cross-domain Call — which runs on the caller's carrier inside the
// server's domain — still surfaces from Run with the caller's name and
// the body's frames.
func TestCarrierPanicInCrossDomainCall(t *testing.T) {
	k := New(1)
	g := AddDomains(k, 1, 100*time.Microsecond)
	g.Workers = 1
	k.Spawn("client", func(p *Proc) {
		Call(p, g.Kernel(1), 100*time.Microsecond, "rpc", crossBody)
	})
	got := recoverRun(k)
	pe, ok := got.(*PanicError)
	if !ok {
		t.Fatalf("Run raised %T %v, want *PanicError", got, got)
	}
	if _, isRuntime := pe.Value.(runtime.Error); !isRuntime {
		t.Errorf("panic value %T %v, want the nil-map runtime error", pe.Value, pe.Value)
	}
	checkPanic(t, got, pe.Value, "client", "sim.crossBody")
	if !strings.Contains(string(pe.Stack), "sim.Call") {
		t.Errorf("panic stack does not show the Call frame:\n%s", pe.Stack)
	}
}

// TestCarrierReuseSpawnJoin runs 10k sequential spawn+join cycles. A
// finished body hands its carrier to the next process, so the goroutine
// count stays bounded by the peak number of live processes (the parent
// and one child), a cycle stays within 3 allocations, and the run
// leaves no idle carrier behind.
func TestCarrierReuseSpawnJoin(t *testing.T) {
	base := runtime.NumGoroutine()
	k := New(1)
	peak := 0
	var allocs float64
	child := func(q *Proc) { q.Sleep(time.Microsecond) }
	k.Spawn("parent", func(p *Proc) {
		for i := 0; i < 10_000; i++ {
			p.Join(p.Spawn("child", child))
			peak = max(peak, runtime.NumGoroutine()-base)
		}
		allocs = testing.AllocsPerRun(1000, func() {
			p.Join(p.Spawn("child", child))
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if peak > 2 {
		t.Errorf("spawn+join cycles grew the goroutine count by %d, want <= 2 live procs", peak)
	}
	if allocs > 3 {
		t.Errorf("spawn+join allocated %.1f objects per cycle, want <= 3", allocs)
	}
	if n := runtime.NumGoroutine() - base; n > 0 {
		t.Errorf("%d goroutine(s) left behind after Run", n)
	}
}

// TestHandoffSemaphorePingPongAllocFree pins the blocking path: two
// processes ping-pong a pair of semaphores, so every round trip parks
// and resumes each side once, and must allocate nothing.
func TestHandoffSemaphorePingPongAllocFree(t *testing.T) {
	k := New(1)
	ping, pong := NewSemaphore(k, "ping", 0), NewSemaphore(k, "pong", 0)
	var allocs float64
	k.Spawn("ping", func(p *Proc) {
		roundTrip := func() {
			ping.Release(1)
			pong.Acquire(p, 1)
		}
		for i := 0; i < 100; i++ {
			roundTrip() // grow the heap and wait-queue storage
		}
		allocs = testing.AllocsPerRun(1000, roundTrip)
	})
	k.SpawnDaemon("pong", func(p *Proc) {
		for {
			ping.Acquire(p, 1)
			pong.Release(1)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("semaphore round trip allocated %.2f objects, want 0", allocs)
	}
}

// TestSpawnDeadlockReportNamesJoinTarget checks that a process blocked
// in Join is still reported with the name of the process it waits for,
// although Join no longer builds that label when it parks.
func TestSpawnDeadlockReportNamesJoinTarget(t *testing.T) {
	k := New(1)
	stuck := NewSemaphore(k, "never", 0)
	child := k.Spawn("child", func(p *Proc) { stuck.Acquire(p, 1) })
	k.Spawn("parent", func(p *Proc) { p.Join(child) })
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	got := strings.Join(de.Blocked, ", ")
	if !strings.Contains(got, "child (sem:never)") || !strings.Contains(got, "parent (join:child)") {
		t.Fatalf("deadlock report %q does not name both blocking reasons", got)
	}
}
