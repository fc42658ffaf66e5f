package service

import (
	"testing"
	"time"

	"dmetabench/internal/sim"
)

const lookahead = 100 * time.Microsecond

// TestRuntimePlacesServersRoundRobin checks the placement rule: domain
// 0 keeps the clients and server i lives on domain 1 + i mod (D-1).
func TestRuntimePlacesServersRoundRobin(t *testing.T) {
	k := sim.New(1)
	rt := New(k, 5, 3, lookahead)
	g := rt.Group()
	if !rt.Domained() || g == nil || g.NumDomains() != 3 {
		t.Fatalf("5 servers on 3 domains: domained %v, group %v", rt.Domained(), g)
	}
	if rt.Client() != k || g.Kernel(0) != k {
		t.Errorf("the client kernel must stay domain 0")
	}
	for i := 0; i < 5; i++ {
		if got, want := rt.KernelFor(i).DomainID(), 1+i%2; got != want {
			t.Errorf("server %d on domain %d, want %d", i, got, want)
		}
	}
	if g.Lookahead() != lookahead {
		t.Errorf("lookahead %v, want %v", g.Lookahead(), lookahead)
	}
}

// TestRuntimeClampsDomains checks that the domain count is clamped to
// one client domain plus one domain per server.
func TestRuntimeClampsDomains(t *testing.T) {
	rt := New(sim.New(1), 2, 10, lookahead)
	if n := rt.Group().NumDomains(); n != 3 {
		t.Fatalf("2 servers asked for 10 domains got %d, want 3", n)
	}
	if rt.KernelFor(0).DomainID() != 1 || rt.KernelFor(1).DomainID() != 2 {
		t.Errorf("servers on domains %d and %d, want 1 and 2",
			rt.KernelFor(0).DomainID(), rt.KernelFor(1).DomainID())
	}
}

// TestRuntimeInert checks that the runtime builds no group at
// Domains <= 1, nor on a kernel that already belongs to one: every
// accessor then returns the base kernel.
func TestRuntimeInert(t *testing.T) {
	grouped := sim.New(1)
	sim.AddDomains(grouped, 1, lookahead)
	cases := []struct {
		name    string
		k       *sim.Kernel
		domains int
	}{
		{"domains=0", sim.New(1), 0},
		{"domains=1", sim.New(1), 1},
		{"already grouped", grouped, 4},
	}
	for _, c := range cases {
		rt := New(c.k, 3, c.domains, lookahead)
		if rt.Domained() || rt.Group() != nil {
			t.Errorf("%s: runtime built a group", c.name)
		}
		if rt.Client() != c.k {
			t.Errorf("%s: client kernel is not the base kernel", c.name)
		}
		for i := 0; i < 3; i++ {
			if rt.KernelFor(i) != c.k {
				t.Errorf("%s: server %d not on the base kernel", c.name, i)
			}
		}
	}
}

// TestRuntimeAtSync checks that AtSync runs fn on the spot when
// undomained, and one lookahead later, at a sync point, when domained.
func TestRuntimeAtSync(t *testing.T) {
	for _, domains := range []int{0, 2} {
		k := sim.New(1)
		rt := New(k, 1, domains, lookahead)
		var ranAt time.Duration = -1
		var inline bool
		k.Spawn("p", func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			rt.AtSync(p, func() { ranAt = k.Now() })
			inline = ranAt >= 0
			p.Sleep(time.Millisecond) // keep the run alive past the sync point
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		want := time.Millisecond
		if domains > 1 {
			want += lookahead
		}
		if inline != (domains <= 1) || ranAt != want {
			t.Errorf("domains=%d: fn ran inline %v at %v, want inline %v at %v",
				domains, inline, ranAt, domains <= 1, want)
		}
	}
}

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
