package cxfs

import (
	"fmt"
	"testing"
	"time"

	"dmetabench/internal/cluster"
	"dmetabench/internal/fs"
	"dmetabench/internal/sim"
)

func TestBasicOps(t *testing.T) {
	k := sim.New(1)
	cl := cluster.New(k, cluster.DefaultConfig(1))
	f := New(k, "t")
	k.Spawn("test", func(p *sim.Proc) {
		c := f.NewClient(cl.Nodes[0], p)
		if err := c.Mkdir("/d"); err != nil {
			t.Errorf("mkdir: %v", err)
		}
		if err := c.Create("/d/f"); err != nil {
			t.Errorf("create: %v", err)
		}
		if err := c.Create("/d/f"); fs.CodeOf(err) != fs.EEXIST {
			t.Errorf("dup: %v", err)
		}
		h, err := c.Open("/d/f")
		if err != nil {
			t.Errorf("open: %v", err)
		}
		if err := c.Write(h, 8192); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := c.Fsync(h); err != nil {
			t.Errorf("fsync: %v", err)
		}
		if err := c.Close(h); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := c.Rename("/d/f", "/d/g"); err != nil {
			t.Errorf("rename: %v", err)
		}
		if err := c.Unlink("/d/g"); err != nil {
			t.Errorf("unlink: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// elapsedCreates measures the makespan of two processes creating files in
// separate directories, either on one node or on two nodes.
func elapsedCreates(t *testing.T, sameNode bool) time.Duration {
	t.Helper()
	k := sim.New(2)
	cl := cluster.New(k, cluster.DefaultConfig(2))
	f := New(k, "t")
	k.Spawn("setup", func(p *sim.Proc) {
		c := f.NewClient(cl.Nodes[0], p)
		c.Mkdir("/d0")
		c.Mkdir("/d1")
		for i := 0; i < 2; i++ {
			i := i
			node := cl.Nodes[0]
			if !sameNode && i == 1 {
				node = cl.Nodes[1]
			}
			p.Spawn("w", func(q *sim.Proc) {
				qc := f.NewClient(node, q)
				for j := 0; j < 50; j++ {
					qc.Create(fmt.Sprintf("/d%d/f%d", i, j))
				}
			})
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return k.Now()
}

func TestTokenSerializesIntraNode(t *testing.T) {
	same := elapsedCreates(t, true)
	cross := elapsedCreates(t, false)
	// Same node: fully serialized by the client token. Two nodes: the
	// MDS (2 threads) can overlap them.
	if float64(same) < 1.4*float64(cross) {
		t.Fatalf("same node %v vs two nodes %v: token serialization missing", same, cross)
	}
}

func TestStatCache(t *testing.T) {
	k := sim.New(3)
	cl := cluster.New(k, cluster.DefaultConfig(1))
	f := New(k, "t")
	k.Spawn("test", func(p *sim.Proc) {
		c := f.NewClient(cl.Nodes[0], p)
		c.Create("/f")
		before := f.RPCCount()
		for i := 0; i < 5; i++ {
			if _, err := c.Stat("/f"); err != nil {
				t.Fatalf("stat: %v", err)
			}
		}
		if f.RPCCount() != before {
			t.Errorf("cached stats issued RPCs")
		}
		c.DropCaches()
		c.Stat("/f")
		if f.RPCCount() != before+1 {
			t.Errorf("post-drop stat served from nowhere")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSANWriteParallel(t *testing.T) {
	// Data writes go straight to the SAN: two nodes writing do not queue
	// at the metadata server.
	k := sim.New(4)
	cl := cluster.New(k, cluster.DefaultConfig(2))
	f := New(k, "t")
	k.Spawn("setup", func(p *sim.Proc) {
		c := f.NewClient(cl.Nodes[0], p)
		c.Create("/a")
		c.Create("/b")
		before := f.RPCCount()
		done := make([]bool, 2)
		for i, name := range []string{"/a", "/b"} {
			i, name := i, name
			p.Spawn("w", func(q *sim.Proc) {
				qc := f.NewClient(cl.Nodes[i], q)
				h, err := qc.Open(name)
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				qc.Write(h, 100<<20)
				qc.Close(h)
				done[i] = true
			})
		}
		_ = before
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
