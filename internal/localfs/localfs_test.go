package localfs

import (
	"fmt"
	"testing"
	"time"

	"dmetabench/internal/cluster"
	"dmetabench/internal/fs"
	"dmetabench/internal/namespace"
	"dmetabench/internal/sim"
)

func TestBasicOps(t *testing.T) {
	k := sim.New(1)
	cl := cluster.New(k, cluster.DefaultConfig(1))
	f := New(k, cl.Nodes[0])
	k.Spawn("test", func(p *sim.Proc) {
		c := f.NewClient(cl.Nodes[0], p)
		if err := c.Mkdir("/d"); err != nil {
			t.Errorf("mkdir: %v", err)
		}
		if err := c.Create("/d/f"); err != nil {
			t.Errorf("create: %v", err)
		}
		h, err := c.Open("/d/f")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if err := c.Write(h, 100); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := c.Fsync(h); err != nil {
			t.Errorf("fsync: %v", err)
		}
		if err := c.Close(h); err != nil {
			t.Errorf("close: %v", err)
		}
		a, err := c.Stat("/d/f")
		if err != nil || a.Size != 100 {
			t.Errorf("stat: %v %+v", err, a)
		}
		if err := c.Create("/d/g"); err != nil {
			t.Errorf("create g: %v", err)
		}
		ents, err := c.ReadDir("/d")
		if err != nil || len(ents) != 2 {
			t.Errorf("readdir: %v %d", err, len(ents))
		}
		c.Unlink("/d/f")
		c.Unlink("/d/g")
		if err := c.Rmdir("/d"); err != nil {
			t.Errorf("rmdir: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestForeignNodePanics(t *testing.T) {
	k := sim.New(2)
	cl := cluster.New(k, cluster.DefaultConfig(2))
	f := New(k, cl.Nodes[0])
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for foreign-node client")
		}
	}()
	f.NewClient(cl.Nodes[1], nil)
}

// TestHashDirectoryKeepsRate checks that localfs directories are hashed:
// a 50k-entry directory keeps its create rate within the hash index's
// entry-cost factor of a small directory's.
func TestHashDirectoryKeepsRate(t *testing.T) {
	rate := func(prefill int) float64 {
		k := sim.New(3)
		cl := cluster.New(k, cluster.DefaultConfig(1))
		f := New(k, cl.Nodes[0])
		f.Namespace().Mkdir("/d", 0o755, 0)
		for i := 0; i < prefill; i++ {
			f.Namespace().Create(fmt.Sprintf("/d/p%d", i), 0o644, 0)
		}
		var elapsed time.Duration
		k.Spawn("probe", func(p *sim.Proc) {
			c := f.NewClient(cl.Nodes[0], p)
			start := p.Now()
			for i := 0; i < 100; i++ {
				if err := c.Create(fmt.Sprintf("/d/n%d", i)); err != nil {
					t.Errorf("create: %v", err)
				}
			}
			elapsed = p.Now() - start
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return 100 / elapsed.Seconds()
	}
	small, big := rate(100), rate(50000)
	if limit := small / namespace.IndexHash.EntryCost(50100); big < limit {
		t.Fatalf("hash index degraded: %.0f -> %.0f ops/s, want >= %.0f", small, big, limit)
	}
}

func TestErrorsPropagate(t *testing.T) {
	k := sim.New(4)
	cl := cluster.New(k, cluster.DefaultConfig(1))
	f := New(k, cl.Nodes[0])
	k.Spawn("test", func(p *sim.Proc) {
		c := f.NewClient(cl.Nodes[0], p)
		if err := c.Unlink("/missing"); fs.CodeOf(err) != fs.ENOENT {
			t.Errorf("unlink missing: %v", err)
		}
		if _, err := c.Stat("/missing"); fs.CodeOf(err) != fs.ENOENT {
			t.Errorf("stat missing: %v", err)
		}
		if err := c.Close(42); fs.CodeOf(err) != fs.EBADF {
			t.Errorf("close bad: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
