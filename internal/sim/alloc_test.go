package sim

import (
	"math"
	"testing"
	"time"
)

// TestScheduleAllocFree pins the zero-alloc property of the event queue:
// once the heap's backing array has grown, scheduling and dispatching
// events must not allocate (the container/heap implementation it
// replaced boxed one interface{} per push and per pop).
func TestScheduleAllocFree(t *testing.T) {
	k := New(1)
	p := &Proc{k: k, name: "probe"}
	// Warm the heap storage well past the test's working set.
	for i := 0; i < 64; i++ {
		k.schedule(p, Time(i))
	}
	for k.queue.len() > 0 {
		k.queue.pop()
	}
	if avg := testing.AllocsPerRun(1000, func() {
		k.schedule(p, k.now+time.Microsecond)
		k.schedule(p, k.now+2*time.Microsecond)
		k.schedule(p, k.now)
		k.queue.pop()
		k.queue.pop()
		k.queue.pop()
	}); avg != 0 {
		t.Fatalf("schedule/pop allocated %.2f objects per cycle, want 0", avg)
	}
}

// TestSleepFastPathAllocFree runs a long chain of uncontended Sleeps —
// the dominant pattern of every simulated RPC — and requires the whole
// run to stay allocation-free apart from fixed per-run setup.
func TestSleepFastPathAllocFree(t *testing.T) {
	k := New(1)
	var avg float64
	k.Spawn("sleeper", func(p *Proc) {
		avg = testing.AllocsPerRun(1000, func() {
			p.Sleep(time.Microsecond)
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Fatalf("Sleep allocated %.2f objects/op on the fast path, want 0", avg)
	}
}

// TestSleepOverflowClamps pins the schedule() clamp on the Sleep fast
// path: a wake-up time that overflows virtual time must behave like an
// immediate wake-up (as the slow path's schedule clamp guarantees), not
// move the clock backwards.
func TestSleepOverflowClamps(t *testing.T) {
	k := New(1)
	var at Time = -1
	k.Spawn("a", func(p *Proc) {
		p.Sleep(time.Millisecond)
		p.Spawn("forever", func(q *Proc) {
			q.Sleep(Time(math.MaxInt64)) // now + d overflows int64
			at = q.Now()
		})
		p.Sleep(time.Millisecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != time.Millisecond {
		t.Fatalf("overflowing Sleep woke at %v, want immediate wake at 1ms", at)
	}
	if k.Now() != 2*time.Millisecond {
		t.Fatalf("final clock %v, want 2ms", k.Now())
	}
}

// TestSleepFastPathSemantics checks that the in-place clock advance is
// observationally identical to a scheduled wake-up: time moves, ties go
// to the earlier-scheduled process, and RunFor's horizon is respected.
func TestSleepFastPathSemantics(t *testing.T) {
	k := New(1)
	var order []string
	k.Spawn("a", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		order = append(order, "a@"+p.Now().String())
	})
	k.Spawn("b", func(p *Proc) {
		p.Sleep(2 * time.Millisecond) // same instant: a spawned first, runs first
		order = append(order, "b@"+p.Now().String())
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "a@2ms" || order[1] != "b@2ms" {
		t.Fatalf("order = %v", order)
	}

	k2 := New(1)
	var reached Time = -1
	k2.Spawn("long", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		reached = p.Now()
	})
	if err := k2.RunFor(3 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if reached != -1 {
		t.Fatal("proc ran past the RunFor horizon")
	}
	if k2.Now() != 3*time.Millisecond {
		t.Fatalf("Now = %v after RunFor(3ms)", k2.Now())
	}
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	if reached != 10*time.Millisecond {
		t.Fatalf("proc finished at %v, want 10ms", reached)
	}
}
