package ontapgx

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"dmetabench/internal/cluster"
	"dmetabench/internal/fs"
	"dmetabench/internal/sim"
)

func env(t *testing.T, nodes, filers int) (*sim.Kernel, *cluster.Cluster, *FS) {
	t.Helper()
	k := sim.New(1)
	cl := cluster.New(k, cluster.DefaultConfig(nodes))
	gx := New(k, "gx", filers, DefaultConfig())
	for i := 0; i < filers; i++ {
		gx.AddVolume(fmt.Sprintf("vol%d", i), i)
	}
	return k, cl, gx
}

func run(t *testing.T, k *sim.Kernel, fn func(p *sim.Proc)) {
	t.Helper()
	k.Spawn("test", fn)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestVolumeOwnership(t *testing.T) {
	_, _, gx := env(t, 1, 4)
	for i := 0; i < 4; i++ {
		if got := gx.VolumeOwner(fmt.Sprintf("vol%d", i)); got != i {
			t.Fatalf("owner(vol%d) = %d", i, got)
		}
	}
	if gx.VolumeOwner("nope") != -1 {
		t.Fatal("unknown volume should report -1")
	}
}

func TestLocalFasterThanForwarded(t *testing.T) {
	k, cl, gx := env(t, 1, 4)
	gx.MountThrough(cl.Nodes[0], 0)
	var local, remote time.Duration
	run(t, k, func(p *sim.Proc) {
		c := gx.NewClient(cl.Nodes[0], p)
		c.Mkdir("/vol0/d")
		c.Mkdir("/vol2/d")
		measure := func(dir string) time.Duration {
			start := p.Now()
			for i := 0; i < 100; i++ {
				if err := c.Create(fmt.Sprintf("%s/f%d", dir, i)); err != nil {
					t.Errorf("create: %v", err)
				}
			}
			return p.Now() - start
		}
		local = measure("/vol0/d")
		remote = measure("/vol2/d")
	})
	if remote <= local {
		t.Fatalf("forwarded creates (%v) not slower than local (%v)", remote, local)
	}
	eff := float64(local) / float64(remote)
	if eff < 0.5 || eff > 0.95 {
		t.Fatalf("remote efficiency = %.2f, want the documented ~0.75 ballpark", eff)
	}
	if gx.ForwardCount == 0 {
		t.Fatal("no forwards counted")
	}
}

func TestCrossVolumeEXDEV(t *testing.T) {
	k, cl, gx := env(t, 1, 2)
	run(t, k, func(p *sim.Proc) {
		c := gx.NewClient(cl.Nodes[0], p)
		c.Create("/vol0/f")
		if err := c.Rename("/vol0/f", "/vol1/f"); fs.CodeOf(err) != fs.EXDEV {
			t.Errorf("cross-volume rename: %v, want EXDEV", err)
		}
	})
}

func TestRootReadDirListsVolumes(t *testing.T) {
	k, cl, gx := env(t, 1, 3)
	run(t, k, func(p *sim.Proc) {
		c := gx.NewClient(cl.Nodes[0], p)
		ents, err := c.ReadDir("/")
		if err != nil || len(ents) != 3 {
			t.Errorf("root readdir: %v, %d entries", err, len(ents))
		}
	})
}

// TestRootReadDirSorted lists the cluster root of a fresh 8-volume FS
// twenty times: the junctions come in name order, the same every time,
// whatever order the volume map ranges in.
func TestRootReadDirSorted(t *testing.T) {
	var first []string
	for run := range 20 {
		k := sim.New(1)
		cl := cluster.New(k, cluster.DefaultConfig(1))
		gx := New(k, "gx", 2, DefaultConfig())
		for _, name := range []string{"home", "vol7", "a", "scratch", "vol10", "b2", "proj", "vol1"} {
			gx.AddVolume(name, -1)
		}
		var names []string
		k.Spawn("test", func(p *sim.Proc) {
			ents, err := gx.NewClient(cl.Nodes[0], p).ReadDir("/")
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				names = append(names, e.Name)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if !slices.IsSorted(names) || len(names) != 8 {
			t.Fatalf("run %d: root lists %v, want the 8 volumes sorted", run, names)
		}
		if first == nil {
			first = names
		} else if !slices.Equal(names, first) {
			t.Fatalf("run %d: root lists %v, run 0 listed %v", run, names, first)
		}
	}
}

func TestWAFLBackedWrites(t *testing.T) {
	k, cl, gx := env(t, 1, 2)
	run(t, k, func(p *sim.Proc) {
		c := gx.NewClient(cl.Nodes[0], p)
		c.Create("/vol0/f")
		h, err := c.Open("/vol0/f")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		c.Write(h, 2048)
		if err := c.Close(h); err != nil {
			t.Fatalf("close: %v", err)
		}
		c.DropCaches()
		a, err := c.Stat("/vol0/f")
		if err != nil || a.Size != 2048 {
			t.Errorf("stat: %v %+v", err, a)
		}
	})
}

func TestMountDistribution(t *testing.T) {
	k, cl, gx := env(t, 4, 2)
	// Default mounts distribute round-robin by node index.
	run(t, k, func(p *sim.Proc) {
		for i, n := range cl.Nodes {
			c := gx.NewClient(n, p)
			if err := core_mkdirAll(c, fmt.Sprintf("/vol%d/n%d", i%2, i)); err != nil {
				t.Errorf("mkdir via node %d: %v", i, err)
			}
		}
	})
}

// core_mkdirAll is a minimal local copy to avoid importing core in a
// model test (keeps the dependency direction models <- core).
func core_mkdirAll(c fs.Client, p string) error {
	if p == "/" || p == "" {
		return nil
	}
	if _, err := c.Stat(p); err == nil {
		return nil
	}
	parent := p
	for i := len(p) - 1; i > 0; i-- {
		if p[i] == '/' {
			parent = p[:i]
			break
		}
	}
	if parent != p && parent != "" {
		if err := core_mkdirAll(c, parent); err != nil {
			return err
		}
	}
	err := c.Mkdir(p)
	if fs.IsExist(err) {
		return nil
	}
	return err
}

// TestWriteToDirectoryEISDIR checks that a write flushed to a directory,
// at close or at fsync, fails with EISDIR as POSIX write(2) on a
// directory does.
func TestWriteToDirectoryEISDIR(t *testing.T) {
	k, cl, gx := env(t, 1, 2)
	run(t, k, func(p *sim.Proc) {
		c := gx.NewClient(cl.Nodes[0], p)
		if err := c.Mkdir("/vol0/d"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		for _, flush := range []struct {
			name string
			fn   func(fs.Handle) error
		}{{"close", c.Close}, {"fsync", c.Fsync}} {
			h, err := c.Open("/vol0/d")
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			c.Write(h, 100)
			if err := flush.fn(h); fs.CodeOf(err) != fs.EISDIR {
				t.Errorf("%s after a write to a directory: %v, want EISDIR", flush.name, err)
			}
		}
	})
}
