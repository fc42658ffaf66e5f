package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// TestQueueOrder pushes and pops the kernel's event heap and a
// semaphore's wait queue at random and checks every pop against a
// reference kept sorted by insertion: events leave in (at, seq) order
// and waiters in (pri, seq) order. Keys come from a small range, so
// most pops break a tie on seq, and the queues grow and drain many
// times over.
func TestQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var events eventHeap
	var waiters waitQueue
	var refEvents []event
	var refWaiters []waiter
	byEvent := func(a, b event) int { return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq)) }
	byWaiter := func(a, b waiter) int { return cmp.Or(cmp.Compare(a.pri, b.pri), cmp.Compare(a.seq, b.seq)) }
	var seq int64
	for step := 0; step < 100_000; step++ {
		// Push with probability 0.55 so the queues drift up to a few
		// hundred entries, and drain to empty now and then.
		push := rng.Intn(100) < 55
		if step%5000 >= 4000 {
			push = false
		}
		if push {
			seq++
			e := event{at: Time(rng.Intn(16)), seq: seq}
			events.push(e)
			i, _ := slices.BinarySearchFunc(refEvents, e, byEvent)
			refEvents = slices.Insert(refEvents, i, e)
			w := waiter{pri: rng.Intn(4) - 1, seq: seq, n: int64(step)}
			waiters.push(w)
			i, _ = slices.BinarySearchFunc(refWaiters, w, byWaiter)
			refWaiters = slices.Insert(refWaiters, i, w)
			continue
		}
		if events.len() != len(refEvents) || waiters.len() != len(refWaiters) {
			t.Fatalf("step %d: queues hold %d events and %d waiters; reference %d and %d",
				step, events.len(), waiters.len(), len(refEvents), len(refWaiters))
		}
		if len(refEvents) == 0 {
			continue
		}
		if got, want := events.pop(), refEvents[0]; got != want {
			t.Fatalf("step %d: event pop = %+v, want %+v", step, got, want)
		}
		refEvents = refEvents[1:]
		if got, want := waiters.pop(), refWaiters[0]; got != want {
			t.Fatalf("step %d: waiter pop = %+v, want %+v", step, got, want)
		}
		refWaiters = refWaiters[1:]
	}
}
