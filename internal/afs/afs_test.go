package afs

import (
	"testing"

	"dmetabench/internal/cluster"
	"dmetabench/internal/fs"
	"dmetabench/internal/sim"
)

func env(t *testing.T) (*sim.Kernel, *cluster.Cluster, *FS) {
	t.Helper()
	k := sim.New(1)
	cl := cluster.New(k, cluster.DefaultConfig(2))
	cell := New(k, "cell", 2, DefaultConfig())
	cell.AddVolume("home", -1)
	cell.AddVolume("proj", -1)
	return k, cl, cell
}

func run(t *testing.T, k *sim.Kernel, fn func(p *sim.Proc)) {
	t.Helper()
	k.Spawn("test", fn)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestVolumeResolution(t *testing.T) {
	k, cl, cell := env(t)
	run(t, k, func(p *sim.Proc) {
		c := cell.NewClient(cl.Nodes[0], p)
		if err := c.Create("/home/f"); err != nil {
			t.Errorf("create: %v", err)
		}
		if err := c.Create("/nosuchvol/f"); fs.CodeOf(err) != fs.ENOENT {
			t.Errorf("create in unknown volume: %v", err)
		}
		if _, err := c.Stat("/home/f"); err != nil {
			t.Errorf("stat: %v", err)
		}
		if err := c.Mkdir("/proj/sub"); err != nil {
			t.Errorf("mkdir: %v", err)
		}
	})
	if cell.NumVolumes() != 2 {
		t.Fatalf("volumes = %d", cell.NumVolumes())
	}
}

func TestCrossVolumeRenameEXDEV(t *testing.T) {
	k, cl, cell := env(t)
	run(t, k, func(p *sim.Proc) {
		c := cell.NewClient(cl.Nodes[0], p)
		c.Create("/home/f")
		if err := c.Rename("/home/f", "/proj/f"); fs.CodeOf(err) != fs.EXDEV {
			t.Errorf("cross-volume rename: %v, want EXDEV", err)
		}
		if err := c.Rename("/home/f", "/home/g"); err != nil {
			t.Errorf("same-volume rename: %v", err)
		}
	})
}

func TestPersistentCacheSurvivesDrop(t *testing.T) {
	k, cl, cell := env(t)
	run(t, k, func(p *sim.Proc) {
		c := cell.NewClient(cl.Nodes[0], p)
		c.Create("/home/f")
		before := cell.RPCCount()
		for i := 0; i < 5; i++ {
			if _, err := c.Stat("/home/f"); err != nil {
				t.Fatalf("stat: %v", err)
			}
		}
		if cell.RPCCount() != before {
			t.Errorf("cached stats issued RPCs")
		}
		// drop_caches does not touch the persistent AFS cache.
		c.DropCaches()
		if _, err := c.Stat("/home/f"); err != nil {
			t.Fatalf("stat: %v", err)
		}
		if cell.RPCCount() != before {
			t.Errorf("stat after drop_caches issued an RPC — AFS cache should persist")
		}
	})
}

func TestCallbackBreakOnRemoteModification(t *testing.T) {
	k, cl, cell := env(t)
	run(t, k, func(p *sim.Proc) {
		a := cell.NewClient(cl.Nodes[0], p)
		b := cell.NewClient(cl.Nodes[1], p)
		a.Create("/home/f")
		// Node B caches the attributes.
		if _, err := b.Stat("/home/f"); err != nil {
			t.Fatalf("stat: %v", err)
		}
		// Node A writes: open-to-close semantics store on close and
		// break B's callback.
		h, err := a.Open("/home/f")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		a.Write(h, 1000)
		if err := a.Close(h); err != nil {
			t.Fatalf("close: %v", err)
		}
		attr, err := b.Stat("/home/f")
		if err != nil {
			t.Fatalf("stat after write: %v", err)
		}
		if attr.Size != 1000 {
			t.Errorf("node B sees stale size %d after callback break", attr.Size)
		}
		// A create, an unlink or a mkdir in a directory breaks the
		// callback on the directory's own status too.
		for _, change := range []func() error{
			func() error { return a.Create("/home/g") },
			func() error { return a.Unlink("/home/g") },
			func() error { return a.Mkdir("/home/d") },
		} {
			before, _ := b.Stat("/home")
			if err := change(); err != nil {
				t.Fatal(err)
			}
			if after, _ := b.Stat("/home"); after.Mtime == before.Mtime {
				t.Errorf("node B sees the directory's stale mtime %v after a change in it", after.Mtime)
			}
		}
		// A directory rename breaks the callbacks under the moved name,
		// which have no version of their own.
		a.Create("/home/d/x")
		b.Stat("/home/d/x")
		if err := a.Rename("/home/d", "/home/e"); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Stat("/home/d/x"); fs.CodeOf(err) != fs.ENOENT {
			t.Errorf("stat of a name under a moved directory: %v, want ENOENT", err)
		}
	})
}

func TestCacheStats(t *testing.T) {
	k, cl, cell := env(t)
	run(t, k, func(p *sim.Proc) {
		c := cell.NewClient(cl.Nodes[0], p)
		c.Create("/home/f")
		for i := 0; i < 9; i++ {
			c.Stat("/home/f")
		}
	})
	hits, misses := cell.CacheStats()
	if hits < 9 {
		t.Errorf("hits = %d, want >= 9", hits)
	}
	if misses != 0 {
		t.Errorf("misses = %d (create should prime the cache)", misses)
	}
}

func TestReadDirAndCleanupOps(t *testing.T) {
	k, cl, cell := env(t)
	run(t, k, func(p *sim.Proc) {
		c := cell.NewClient(cl.Nodes[0], p)
		c.Mkdir("/home/d")
		for i := 0; i < 5; i++ {
			c.Create("/home/d/f" + string(rune('0'+i)))
		}
		ents, err := c.ReadDir("/home/d")
		if err != nil || len(ents) != 5 {
			t.Fatalf("readdir: %v, %d", err, len(ents))
		}
		for _, e := range ents {
			if err := c.Unlink("/home/d/" + e.Name); err != nil {
				t.Fatalf("unlink: %v", err)
			}
		}
		if err := c.Rmdir("/home/d"); err != nil {
			t.Fatalf("rmdir: %v", err)
		}
	})
}

// TestWriteToDirectoryEISDIR checks that a write stored to a directory,
// at close or at fsync, fails with EISDIR as POSIX write(2) on a
// directory does.
func TestWriteToDirectoryEISDIR(t *testing.T) {
	k, cl, cell := env(t)
	run(t, k, func(p *sim.Proc) {
		c := cell.NewClient(cl.Nodes[0], p)
		if err := c.Mkdir("/home/d"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		for _, flush := range []struct {
			name string
			fn   func(fs.Handle) error
		}{{"close", c.Close}, {"fsync", c.Fsync}} {
			h, err := c.Open("/home/d")
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

// TestFsyncThenCloseStoresOnce checks that bytes an fsync stored are not
// stored again at close: 100 bytes, fsync, 50 more and close leave a
// 150-byte file.
func TestFsyncThenCloseStoresOnce(t *testing.T) {
	k, cl, cell := env(t)
	run(t, k, func(p *sim.Proc) {
		c := cell.NewClient(cl.Nodes[0], p)
		if err := c.Create("/home/f"); err != nil {
			t.Fatalf("create: %v", err)
		}
		h, err := c.Open("/home/f")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		c.Write(h, 100)
		if err := c.Fsync(h); err != nil {
			t.Fatalf("fsync: %v", err)
		}
		c.Write(h, 50)
		if err := c.Close(h); err != nil {
			t.Fatalf("close: %v", err)
		}
		if a, err := c.Stat("/home/f"); err != nil || a.Size != 150 {
			t.Errorf("size after write 100, fsync, write 50, close: %+v, %v; want 150", a, err)
		}
	})
}
