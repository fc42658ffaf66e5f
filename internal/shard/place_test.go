package shard

import (
	"fmt"
	"strings"
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

// TestValidateRejectsMovingStateUnderDomains checks the loud failure
// of a configuration the static partition cannot run: Domains > 1 with
// lease coherence or directory splitting is an error naming the
// feature, and New panics with it; Domains <= 1 accepts both.
func TestValidateRejectsMovingStateUnderDomains(t *testing.T) {
	lease := DefaultConfig(4)
	lease.CacheMode = CacheLease
	split := DefaultConfig(4)
	split.SplitThreshold = 16
	for _, c := range []struct {
		name, feature string
		cfg           Config
	}{
		{"lease", "lease coherence", lease},
		{"split", "directory splitting", split},
	} {
		for _, domains := range []int{0, 1} {
			cfg := c.cfg
			cfg.Domains = domains
			if err := cfg.Validate(); err != nil {
				t.Errorf("%s at Domains %d: %v, want nil", c.name, domains, err)
			}
		}
		cfg := c.cfg
		cfg.Domains = 5
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), c.feature) {
			t.Errorf("%s at Domains 5: error %v, want one naming %q", c.name, err, c.feature)
			continue
		}
		func() {
			defer func() {
				if r := recover(); fmt.Sprint(r) != err.Error() {
					t.Errorf("%s: New panicked with %v, want %v", c.name, r, err)
				}
			}()
			New(sim.New(1), "meta", cfg)
		}()
	}
}

// TestFaultsPanicUnderDomains checks that Crash and Restart on a
// domained FS fail loudly, naming the restriction, instead of moving a
// slice between domains.
func TestFaultsPanicUnderDomains(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Replicate = true
	cfg.Domains = 5
	k := sim.New(1)
	f := New(k, "meta", cfg)
	for _, fault := range []struct {
		name string
		fn   func(p *sim.Proc, i int)
	}{{"Crash", f.Crash}, {"Restart", f.Restart}} {
		var got any
		k.Spawn(fault.name, func(p *sim.Proc) {
			defer func() { got = recover() }()
			fault.fn(p, 1)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if msg := fmt.Sprint(got); !strings.Contains(msg, fault.name) || !strings.Contains(msg, "static partition") {
			t.Errorf("%s on a domained FS: panic %q, want one naming the static partition", fault.name, msg)
		}
	}
	if !f.Up(1) || f.ServingShard(1) != 1 {
		t.Errorf("shard 1 up %v, served by %d after the refused faults, want up and 1", f.Up(1), f.ServingShard(1))
	}
}
