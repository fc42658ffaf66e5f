package service

import (
	"testing"
	"time"

	"dmetabench/internal/sim"
)

// TestAttachAggregateConserves runs two injector lanes whose priced
// holds sometimes outlast two ticks, and checks the accounting: every
// drawn operation is either injected or shed, and the busy time is the
// sum of the prices charged.
func TestAttachAggregateConserves(t *testing.T) {
	k := sim.New(1)
	pool := sim.NewResource(k, "pool", 2)
	var ops, shed, busy, offered int64
	var priced time.Duration
	table := PriceTable{Getattr: 300 * time.Microsecond, Create: 2 * time.Millisecond}
	AttachAggregate(AggregateConfig{
		Servers: 1,
		Lanes:   2,
		Tick:    time.Millisecond,
		Kernel:  func(int) *sim.Kernel { return k },
		Pool:    func(int) *sim.Resource { return pool },
		Source: func(_, lane, tick int) Demand {
			d := Demand{Getattr: int64((lane + tick) % 3), Create: int64(tick % 2)}
			offered += d.Total()
			return d
		},
		Price: func(_ int, d Demand) time.Duration {
			c := table.Price(d)
			priced += c
			return c
		},
		Ops: &ops, Shed: &shed, Busy: &busy,
	})
	k.Spawn("driver", func(p *sim.Proc) { p.Sleep(50 * time.Millisecond) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ops == 0 || shed == 0 {
		t.Fatalf("ops %d, shed %d: the run should both inject and shed", ops, shed)
	}
	if offered != ops+shed {
		t.Errorf("offered %d != injected %d + shed %d", offered, ops, shed)
	}
	if time.Duration(busy) != priced {
		t.Errorf("busy %v != sum of priced holds %v", time.Duration(busy), priced)
	}
	if got := pool.BusyTime(); got > priced {
		t.Errorf("pool busy %v exceeds the priced holds %v", got, priced)
	}
}
