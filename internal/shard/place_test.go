package shard

import (
	"testing"
	"time"

	"dmetabench/internal/sim"
)

const placeLookahead = 100 * time.Microsecond

// TestPlaceShardsRoundRobin checks the placement rule: domain 0 keeps
// the clients and shard i lives on domain 1 + i mod (D-1).
func TestPlaceShardsRoundRobin(t *testing.T) {
	k := sim.New(1)
	g, kernels := placeShards(k, 5, 3, placeLookahead)
	if g == nil || g.NumDomains() != 3 {
		t.Fatalf("5 shards on 3 domains: group %v", g)
	}
	if g.Kernel(0) != k {
		t.Errorf("the client kernel must stay domain 0")
	}
	for i := 0; i < 5; i++ {
		if got, want := kernels[i].DomainID(), 1+i%2; got != want {
			t.Errorf("shard %d on domain %d, want %d", i, got, want)
		}
	}
	if g.Lookahead() != placeLookahead {
		t.Errorf("lookahead %v, want %v", g.Lookahead(), placeLookahead)
	}
}

// TestPlaceShardsClampsDomains checks that the domain count is clamped
// to one client domain plus one domain per shard.
func TestPlaceShardsClampsDomains(t *testing.T) {
	g, kernels := placeShards(sim.New(1), 2, 10, placeLookahead)
	if n := g.NumDomains(); n != 3 {
		t.Fatalf("2 shards asked for 10 domains got %d, want 3", n)
	}
	if kernels[0].DomainID() != 1 || kernels[1].DomainID() != 2 {
		t.Errorf("shards on domains %d and %d, want 1 and 2",
			kernels[0].DomainID(), kernels[1].DomainID())
	}
}

// TestPlaceShardsInert checks that no group is built at Domains <= 1,
// nor on a kernel that already belongs to one: every shard of the FS
// then lives on the base kernel.
func TestPlaceShardsInert(t *testing.T) {
	grouped := sim.New(1)
	sim.AddDomains(grouped, 1, placeLookahead)
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
		if g, kernels := placeShards(c.k, 3, c.domains, placeLookahead); g != nil || kernels != nil {
			t.Errorf("%s: placement built a group", c.name)
		}
		cfg := DefaultConfig(3)
		cfg.Domains = c.domains
		f := New(c.k, "meta", cfg)
		if f.domained() || f.Group() != nil {
			t.Errorf("%s: FS is domained", c.name)
		}
		for i := 0; i < 3; i++ {
			if f.kFor(i) != c.k {
				t.Errorf("%s: shard %d not on the base kernel", c.name, i)
			}
		}
	}
}

// TestAtSync checks that atSync runs fn on the spot when undomained,
// and one lookahead later, at a sync point, when domained.
func TestAtSync(t *testing.T) {
	for _, domains := range []int{0, 2} {
		k := sim.New(1)
		cfg := DefaultConfig(1)
		cfg.Domains = domains
		f := New(k, "meta", cfg)
		var ranAt time.Duration = -1
		var inline bool
		k.Spawn("p", func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			f.atSync(p, func() { ranAt = k.Now() })
			inline = ranAt >= 0
			p.Sleep(time.Millisecond) // keep the run alive past the sync point
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		want := time.Millisecond
		if domains > 1 {
			want += min(cfg.CrossShardLatency, cfg.OneWayLatency)
		}
		if inline != (domains <= 1) || ranAt != want {
			t.Errorf("domains=%d: fn ran inline %v at %v, want inline %v at %v",
				domains, inline, ranAt, domains <= 1, want)
		}
	}
}
