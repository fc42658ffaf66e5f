package pvfs

import (
	"fmt"
	"testing"

	"dmetabench/internal/cluster"
	"dmetabench/internal/fs"
	"dmetabench/internal/sim"
)

func env(t *testing.T, nodes int, cfg Config) (*sim.Kernel, *cluster.Cluster, *FS) {
	t.Helper()
	k := sim.New(1)
	cl := cluster.New(k, cluster.DefaultConfig(nodes))
	return k, cl, New(k, "t", cfg)
}

func TestBasicOps(t *testing.T) {
	k, cl, f := env(t, 1, DefaultConfig())
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
			t.Fatalf("open: %v", err)
		}
		if err := c.Write(h, 2048); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := c.Close(h); err != nil {
			t.Errorf("close: %v", err)
		}
		a, err := c.Stat("/d/f")
		if err != nil || a.Size != 2048 {
			t.Errorf("stat: %v %+v", err, a)
		}
		if err := c.Rename("/d/f", "/d/g"); err != nil {
			t.Errorf("rename: %v", err)
		}
		if err := c.Symlink("/d/g", "/d/s"); err != nil {
			t.Errorf("symlink: %v", err)
		}
		c.Unlink("/d/s")
		c.Unlink("/d/g")
		if err := c.Rmdir("/d"); err != nil {
			t.Errorf("rmdir: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	f.Namespace().MustBeConsistent()
}

func TestNoClientCaching(t *testing.T) {
	// The defining PVFS2 property: repeated stats always hit the server,
	// and DropCaches changes nothing.
	k, cl, f := env(t, 1, DefaultConfig())
	k.Spawn("test", func(p *sim.Proc) {
		c := f.NewClient(cl.Nodes[0], p)
		c.Create("/f")
		before := f.RPCCount()
		for i := 0; i < 10; i++ {
			if _, err := c.Stat("/f"); err != nil {
				t.Fatalf("stat: %v", err)
			}
		}
		if got := f.RPCCount() - before; got != 10 {
			t.Errorf("10 stats issued %d RPCs, want 10 (no caching)", got)
		}
		c.DropCaches()
		mid := f.RPCCount()
		c.Stat("/f")
		if f.RPCCount() != mid+1 {
			t.Error("post-drop stat behaved differently — there is no cache to drop")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteIsSynchronous(t *testing.T) {
	k, cl, f := env(t, 2, DefaultConfig())
	k.Spawn("test", func(p *sim.Proc) {
		w := f.NewClient(cl.Nodes[0], p)
		r := f.NewClient(cl.Nodes[1], p)
		w.Create("/f")
		h, _ := w.Open("/f")
		if err := w.Write(h, 4096); err != nil {
			t.Fatalf("write: %v", err)
		}
		// Visible on another node immediately — before close. This is
		// the nonconflicting-write semantics of §2.6.1.
		a, err := r.Stat("/f")
		if err != nil || a.Size != 4096 {
			t.Errorf("remote stat mid-write: %v %+v", err, a)
		}
		w.Close(h)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDirectoriesSpreadAcrossServers(t *testing.T) {
	k, cl, f := env(t, 1, DefaultConfig())
	k.Spawn("test", func(p *sim.Proc) {
		c := f.NewClient(cl.Nodes[0], p)
		seen := map[int]bool{}
		for i := 0; i < 32; i++ {
			dir := fmt.Sprintf("/dir%d", i)
			if err := c.Mkdir(dir); err != nil {
				t.Fatalf("mkdir: %v", err)
			}
			seen[f.serverFor(dir)] = true
		}
		if len(seen) < numServers-1 {
			t.Errorf("32 directories landed on only %d of %d servers", len(seen), numServers)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
