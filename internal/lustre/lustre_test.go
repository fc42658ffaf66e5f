package lustre

import (
	"fmt"
	"testing"
	"time"

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

func inProc(t *testing.T, k *sim.Kernel, fn func(p *sim.Proc)) {
	t.Helper()
	k.Spawn("test", fn)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBasicOps(t *testing.T) {
	k, cl, f := env(t, 1, DefaultConfig())
	inProc(t, k, func(p *sim.Proc) {
		c := f.NewClient(cl.Nodes[0], p)
		if err := c.Mkdir("/d"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := c.Create("/d/f"); err != nil {
			t.Fatalf("create: %v", err)
		}
		if err := c.Create("/d/f"); fs.CodeOf(err) != fs.EEXIST {
			t.Errorf("dup create: %v", err)
		}
		a, err := c.Stat("/d/f")
		if err != nil || a.Type != fs.TypeRegular {
			t.Errorf("stat: %v %+v", err, a)
		}
		if err := c.Rename("/d/f", "/d/g"); err != nil {
			t.Errorf("rename: %v", err)
		}
		if err := c.Unlink("/d/g"); err != nil {
			t.Errorf("unlink: %v", err)
		}
		if err := c.Rmdir("/d"); err != nil {
			t.Errorf("rmdir: %v", err)
		}
	})
}

func TestObjectPreallocationRefills(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumOSS = 2
	cfg.PreallocBatch = 64
	k, cl, f := env(t, 1, cfg)
	inProc(t, k, func(p *sim.Proc) {
		c := f.NewClient(cl.Nodes[0], p)
		c.Mkdir("/d")
		for i := 0; i < 640; i++ {
			if err := c.Create(fmt.Sprintf("/d/%d", i)); err != nil {
				t.Fatalf("create %d: %v", i, err)
			}
		}
	})
	// 640 creates over 2 OSTs with batch 64: 640/64 = 10 refills.
	if f.RefillCount != 10 {
		t.Fatalf("refills = %d, want 10", f.RefillCount)
	}
}

func TestWritebackCreateIsLocal(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Writeback = true
	cfg.WritebackWindow = 1000
	k, cl, f := env(t, 2, cfg)
	inProc(t, k, func(p *sim.Proc) {
		c := f.NewClient(cl.Nodes[0], p)
		start := p.Now()
		if err := c.Create("/f"); err != nil {
			t.Fatalf("create: %v", err)
		}
		elapsed := p.Now() - start
		// Far below one network round trip.
		if elapsed >= cfg.OneWayLatency {
			t.Errorf("write-back create took %v, want < %v", elapsed, cfg.OneWayLatency)
		}
		// Locally visible immediately.
		if _, err := c.Stat("/f"); err != nil {
			t.Errorf("local stat: %v", err)
		}
		// Invisible from another node until flushed.
		r := f.NewClient(cl.Nodes[1], p)
		if _, err := r.Stat("/f"); fs.CodeOf(err) != fs.ENOENT {
			t.Errorf("remote stat before flush: %v", err)
		}
		// After the flusher drains, the file is at the MDS.
		p.Sleep(100 * time.Millisecond)
		r.DropCaches()
		if _, err := r.Stat("/f"); err != nil {
			t.Errorf("remote stat after flush: %v", err)
		}
	})
}

func TestWritebackWindowBlocks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Writeback = true
	cfg.WritebackWindow = 8
	k, cl, f := env(t, 1, cfg)
	inProc(t, k, func(p *sim.Proc) {
		c := f.NewClient(cl.Nodes[0], p)
		start := p.Now()
		for i := 0; i < 64; i++ {
			if err := c.Create(fmt.Sprintf("/f%d", i)); err != nil {
				t.Fatalf("create %d: %v", i, err)
			}
		}
		elapsed := p.Now() - start
		// 64 creates with a window of 8: at least 56 must wait for MDS
		// round trips, so the total must exceed 56 * (RTT+service)/threads.
		min := 40 * (2*cfg.OneWayLatency + createService) / mdsThreads
		if elapsed < min {
			t.Errorf("64 creates took %v, want >= %v (window must throttle)", elapsed, min)
		}
	})
}

func TestWritebackUnlinkWaitsForFlush(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Writeback = true
	k, cl, f := env(t, 1, cfg)
	inProc(t, k, func(p *sim.Proc) {
		c := f.NewClient(cl.Nodes[0], p)
		if err := c.Create("/f"); err != nil {
			t.Fatalf("create: %v", err)
		}
		if err := c.Unlink("/f"); err != nil {
			t.Fatalf("unlink of pending create: %v", err)
		}
		if _, err := c.Stat("/f"); fs.CodeOf(err) != fs.ENOENT {
			t.Errorf("stat after unlink: %v", err)
		}
	})
}

// TestWritebackDirSeesPendingCreates empties a directory right after
// cached creates into it, as core.RemoveAll does in a cleanup phase: the
// listing must include every pending create and the rmdir must succeed.
func TestWritebackDirSeesPendingCreates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Writeback = true
	k, cl, f := env(t, 1, cfg)
	inProc(t, k, func(p *sim.Proc) {
		c := f.NewClient(cl.Nodes[0], p)
		if err := c.Mkdir("/d"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		const n = 200
		for i := 0; i < n; i++ {
			if err := c.Create(fmt.Sprintf("/d/f%d", i)); err != nil {
				t.Fatalf("create %d: %v", i, err)
			}
		}
		ents, err := c.ReadDir("/d")
		if err != nil || len(ents) != n {
			t.Fatalf("readdir lists %d of %d entries: %v", len(ents), n, err)
		}
		for _, e := range ents {
			if err := c.Unlink("/d/" + e.Name); err != nil {
				t.Fatalf("unlink %s: %v", e.Name, err)
			}
		}
		if err := c.Rmdir("/d"); err != nil {
			t.Fatalf("rmdir of emptied directory: %v", err)
		}
	})
}

func TestSharedDirSerializesAtMDS(t *testing.T) {
	// Creates from two nodes into one directory serialize on the MDS
	// directory lock; separate directories proceed in parallel.
	const workers = 4
	elapsed := func(shared bool) time.Duration {
		k := sim.New(7)
		cl := cluster.New(k, cluster.DefaultConfig(workers))
		f := New(k, "t", DefaultConfig())
		k.Spawn("setup", func(p *sim.Proc) {
			c := f.NewClient(cl.Nodes[0], p)
			for i := 0; i < workers; i++ {
				c.Mkdir(fmt.Sprintf("/d%d", i))
			}
			for i := 0; i < workers; i++ {
				i := i
				p.Spawn("w", func(q *sim.Proc) {
					qc := f.NewClient(cl.Nodes[i], q)
					dir := "/d0"
					if !shared {
						dir = fmt.Sprintf("/d%d", i)
					}
					for j := 0; j < 40; j++ {
						qc.Create(fmt.Sprintf("%s/n%d-%d", dir, i, j))
					}
				})
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.Now()
	}
	same, diff := elapsed(true), elapsed(false)
	if float64(same) < 1.4*float64(diff) {
		t.Fatalf("shared dir %v vs own dirs %v: expected serialization", same, diff)
	}
}

func TestDataGoesToOSS(t *testing.T) {
	k, cl, f := env(t, 1, DefaultConfig())
	inProc(t, k, func(p *sim.Proc) {
		c := f.NewClient(cl.Nodes[0], p)
		c.Create("/f")
		h, err := c.Open("/f")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		before := f.RPCCount()
		c.Write(h, 1<<20)
		c.Close(h)
		// Data path bypasses the MDS entirely.
		if f.RPCCount() != before {
			t.Errorf("data flush issued %d MDS RPCs", f.RPCCount()-before)
		}
		a, _ := c.Stat("/f")
		if a.Size != 1<<20 {
			t.Errorf("size = %d", a.Size)
		}
	})
}

// TestWritebackReplayKeepsWrittenSize writes to a file while its create
// is still pending: 100 bytes flushed by fsync (while the flusher's
// create RPC is in flight) and 4000 by close. Once the flusher has
// drained the create, the MDS holds the file at the size the client
// wrote, as a synchronous create leaves it.
func TestWritebackReplayKeepsWrittenSize(t *testing.T) {
	for _, writeback := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Writeback = writeback
		k, cl, f := env(t, 1, cfg)
		inProc(t, k, func(p *sim.Proc) {
			c := f.NewClient(cl.Nodes[0], p)
			if err := c.Create("/f"); err != nil {
				t.Fatal(err)
			}
			h, err := c.Open("/f")
			if err != nil {
				t.Fatal(err)
			}
			for _, err := range []error{c.Write(h, 100), c.Fsync(h), c.Write(h, 4000), c.Close(h)} {
				if err != nil {
					t.Fatal(err)
				}
			}
			if a, err := c.Stat("/f"); err != nil || a.Size != 4100 {
				t.Errorf("writeback %v: stat before the drain: size %d, %v", writeback, a.Size, err)
			}
			p.Sleep(5 * time.Second)
			if a, err := c.Stat("/f"); err != nil || a.Size != 4100 {
				t.Errorf("writeback %v: stat after the drain: size %d, %v", writeback, a.Size, err)
			}
			if a, err := f.Namespace().Stat("/f"); err != nil || a.Size != 4100 {
				t.Errorf("writeback %v: the MDS holds size %d, %v", writeback, a.Size, err)
			}
		})
	}
}

// TestWritebackKeepsLastWriteTime runs the writes of
// TestWritebackReplayKeepsWrittenSize and checks the file's mtime: a
// stat while the create is pending, a stat after the drain with the
// caches dropped, and the MDS itself all answer the time of the last
// flush, as synchronous Lustre does, not the create or the drain
// instant.
func TestWritebackKeepsLastWriteTime(t *testing.T) {
	for _, writeback := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Writeback = writeback
		k, cl, f := env(t, 1, cfg)
		inProc(t, k, func(p *sim.Proc) {
			c := f.NewClient(cl.Nodes[0], p)
			if err := c.Create("/f"); err != nil {
				t.Fatal(err)
			}
			h, err := c.Open("/f")
			if err != nil {
				t.Fatal(err)
			}
			for _, err := range []error{c.Write(h, 100), c.Fsync(h), c.Write(h, 4000), c.Close(h)} {
				if err != nil {
					t.Fatal(err)
				}
			}
			last := p.Now() // the close's flush is the last write
			if a, err := c.Stat("/f"); err != nil || a.Mtime != last || a.Ctime != last {
				t.Errorf("writeback %v: stat before the drain: mtime %v, ctime %v, %v; want %v", writeback, a.Mtime, a.Ctime, err, last)
			}
			p.Sleep(5 * time.Second)
			c.DropCaches()
			if a, err := c.Stat("/f"); err != nil || a.Mtime != last {
				t.Errorf("writeback %v: stat after the drain: mtime %v, %v; want %v", writeback, a.Mtime, err, last)
			}
			if a, err := f.Namespace().Stat("/f"); err != nil || a.Mtime != last || a.Size != 4100 {
				t.Errorf("writeback %v: the MDS holds mtime %v, size %d, %v; want %v", writeback, a.Mtime, a.Size, err, last)
			}
		})
	}
}
