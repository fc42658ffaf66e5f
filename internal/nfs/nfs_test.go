package nfs

import (
	"runtime"
	"testing"
	"time"

	"dmetabench/internal/cluster"
	"dmetabench/internal/fs"
	"dmetabench/internal/service"
	"dmetabench/internal/sim"
)

// env builds a kernel, a small cluster and an NFS file system.
func env(t *testing.T, nodes int, cfg Config) (*sim.Kernel, *cluster.Cluster, *FS) {
	t.Helper()
	k := sim.New(1)
	cl := cluster.New(k, cluster.DefaultConfig(nodes))
	return k, cl, New(k, "t", cfg)
}

// inProc runs fn as a single sim process and completes the simulation.
func inProc(t *testing.T, k *sim.Kernel, fn func(p *sim.Proc)) {
	t.Helper()
	k.Spawn("test", fn)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateStatUnlink(t *testing.T) {
	k, cl, f := env(t, 1, DefaultConfig())
	inProc(t, k, func(p *sim.Proc) {
		c := f.NewClient(cl.Nodes[0], p)
		if err := c.Create("/a"); err != nil {
			t.Errorf("create: %v", err)
		}
		if err := c.Create("/a"); fs.CodeOf(err) != fs.EEXIST {
			t.Errorf("dup create: %v", err)
		}
		a, err := c.Stat("/a")
		if err != nil || a.Type != fs.TypeRegular {
			t.Errorf("stat: %v %+v", err, a)
		}
		if err := c.Unlink("/a"); err != nil {
			t.Errorf("unlink: %v", err)
		}
		if _, err := c.Stat("/a"); err == nil {
			t.Error("stat after unlink succeeded (attr cache not invalidated)")
		}
	})
}

func TestCreateCostsAtLeastRTT(t *testing.T) {
	cfg := DefaultConfig()
	k, cl, f := env(t, 1, cfg)
	var elapsed time.Duration
	inProc(t, k, func(p *sim.Proc) {
		c := f.NewClient(cl.Nodes[0], p)
		start := p.Now()
		if err := c.Create("/f"); err != nil {
			t.Errorf("create: %v", err)
		}
		elapsed = p.Now() - start
	})
	min := 2*cfg.OneWayLatency + createService
	if elapsed < min {
		t.Fatalf("create took %v, want >= %v", elapsed, min)
	}
}

func TestAttrCacheAvoidsRPC(t *testing.T) {
	k, cl, f := env(t, 1, DefaultConfig())
	inProc(t, k, func(p *sim.Proc) {
		c := f.NewClient(cl.Nodes[0], p)
		if err := c.Create("/f"); err != nil {
			t.Fatalf("create: %v", err)
		}
		before := f.RPCCount()
		for i := 0; i < 10; i++ {
			if _, err := c.Stat("/f"); err != nil {
				t.Fatalf("stat: %v", err)
			}
		}
		if got := f.RPCCount(); got != before {
			t.Errorf("cached stats issued %d RPCs", got-before)
		}
		c.DropCaches()
		if _, err := c.Stat("/f"); err != nil {
			t.Fatalf("stat: %v", err)
		}
		if got := f.RPCCount(); got != before+1 {
			t.Errorf("post-drop stat issued %d RPCs, want 1", got-before)
		}
	})
}

func TestAttrCacheExpires(t *testing.T) {
	k, cl, f := env(t, 1, DefaultConfig())
	inProc(t, k, func(p *sim.Proc) {
		c := f.NewClient(cl.Nodes[0], p)
		if err := c.Create("/f"); err != nil {
			t.Fatalf("create: %v", err)
		}
		p.Sleep(2 * attrTTL)
		before := f.RPCCount()
		if _, err := c.Stat("/f"); err != nil {
			t.Fatalf("stat: %v", err)
		}
		if f.RPCCount() != before+1 {
			t.Error("expired attr cache entry served without RPC")
		}
	})
}

func TestCloseToOpenFlush(t *testing.T) {
	k, cl, f := env(t, 2, DefaultConfig())
	inProc(t, k, func(p *sim.Proc) {
		w := f.NewClient(cl.Nodes[0], p)
		if err := w.Create("/f"); err != nil {
			t.Fatalf("create: %v", err)
		}
		h, err := w.Open("/f")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if err := w.Write(h, 4096); err != nil {
			t.Fatalf("write: %v", err)
		}
		// Before close the server has no data.
		if n, _ := f.Namespace().Lookup("/f"); n.Size != 0 {
			t.Errorf("size visible before close: %d", n.Size)
		}
		if err := w.Close(h); err != nil {
			t.Fatalf("close: %v", err)
		}
		// After close another node sees the new size.
		r := f.NewClient(cl.Nodes[1], p)
		a, err := r.Stat("/f")
		if err != nil || a.Size != 4096 {
			t.Errorf("remote stat: %v %+v", err, a)
		}
	})
}

func TestInlineInodeBoundary(t *testing.T) {
	// The 65-byte file crosses the WAFL inline threshold and must be
	// slower to write than the 64-byte one (MakeFiles64byte/65byte).
	timeFor := func(n int64) time.Duration {
		k, cl, f := env(t, 1, DefaultConfig())
		var d time.Duration
		inProc(t, k, func(p *sim.Proc) {
			c := f.NewClient(cl.Nodes[0], p)
			if err := c.Create("/f"); err != nil {
				t.Fatalf("create: %v", err)
			}
			h, err := c.Open("/f")
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			start := p.Now()
			c.Write(h, n)
			c.Close(h)
			d = p.Now() - start
		})
		return d
	}
	d64, d65 := timeFor(64), timeFor(65)
	if d65 <= d64 {
		t.Fatalf("65-byte write (%v) not slower than 64-byte (%v)", d65, d64)
	}
	if d65-d64 < 50*time.Microsecond {
		t.Fatalf("allocation penalty too small: %v", d65-d64)
	}
}

func TestSameDirSerializationIntraNode(t *testing.T) {
	// Two processes creating in the same directory on one node serialize
	// on the VFS i_mutex; in different directories they overlap.
	elapsed := func(sameDir bool) time.Duration {
		k, cl, f := env(t, 1, DefaultConfig())
		k.Spawn("setup", func(p *sim.Proc) {
			c := f.NewClient(cl.Nodes[0], p)
			c.Mkdir("/d0")
			c.Mkdir("/d1")
			for i := 0; i < 2; i++ {
				i := i
				p.Spawn("w", func(q *sim.Proc) {
					qc := f.NewClient(cl.Nodes[0], q)
					dir := "/d0"
					if !sameDir && i == 1 {
						dir = "/d1"
					}
					for j := 0; j < 50; j++ {
						qc.Create(dir + "/" + string(rune('a'+i)) + itoa(j))
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
	if float64(same) < 1.5*float64(diff) {
		t.Fatalf("same-dir %v vs diff-dir %v: expected clear serialization", same, diff)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestReadDirPaging(t *testing.T) {
	k, cl, f := env(t, 1, DefaultConfig())
	inProc(t, k, func(p *sim.Proc) {
		c := f.NewClient(cl.Nodes[0], p)
		c.Mkdir("/d")
		for i := 0; i < 1200; i++ {
			if err := c.Create("/d/" + itoa(i)); err != nil {
				t.Fatalf("create %d: %v", i, err)
			}
		}
		ents, err := c.ReadDir("/d")
		if err != nil || len(ents) != 1200 {
			t.Fatalf("readdir: %v, %d entries", err, len(ents))
		}
	})
}

func TestRenameInvalidatesCaches(t *testing.T) {
	k, cl, f := env(t, 1, DefaultConfig())
	inProc(t, k, func(p *sim.Proc) {
		c := f.NewClient(cl.Nodes[0], p)
		c.Create("/a")
		c.Stat("/a")
		if err := c.Rename("/a", "/b"); err != nil {
			t.Fatalf("rename: %v", err)
		}
		if _, err := c.Stat("/a"); fs.CodeOf(err) != fs.ENOENT {
			t.Errorf("stat old name: %v", err)
		}
		if _, err := c.Stat("/b"); err != nil {
			t.Errorf("stat new name: %v", err)
		}
	})
}

func TestHandleErrors(t *testing.T) {
	k, cl, f := env(t, 1, DefaultConfig())
	inProc(t, k, func(p *sim.Proc) {
		c := f.NewClient(cl.Nodes[0], p)
		if err := c.Close(99); fs.CodeOf(err) != fs.EBADF {
			t.Errorf("close bad handle: %v", err)
		}
		if err := c.Write(99, 1); fs.CodeOf(err) != fs.EBADF {
			t.Errorf("write bad handle: %v", err)
		}
		if _, err := c.Open("/missing"); fs.CodeOf(err) != fs.ENOENT {
			t.Errorf("open missing: %v", err)
		}
	})
}

// createLoad creates n files from one client and then idles for a
// second of virtual time, so the filer's daemons keep running.
func createLoad(t *testing.T, k *sim.Kernel, cl *cluster.Cluster, f *FS, n int) {
	t.Helper()
	inProc(t, k, func(p *sim.Proc) {
		c := f.NewClient(cl.Nodes[0], p)
		for i := 0; i < n; i++ {
			if err := c.Create("/f" + itoa(i)); err != nil {
				t.Fatalf("create: %v", err)
			}
		}
		p.Sleep(time.Second)
	})
}

// TestAggregateLeavesNoGoroutines checks that a filer under aggregate
// load holds no goroutine once Run returns: the injector lanes and the
// WAFL consistency-point loop are tasks, which have no carrier to stay
// parked, and the idle carriers of the finished processes are released.
// Both counts are taken once the count has settled, so goroutines that
// earlier tests (or this test's earlier repetitions) released and that
// are still on their way out are not counted; a parked carrier never
// leaves, so it still shows.
func TestAggregateLeavesNoGoroutines(t *testing.T) {
	base := settledGoroutines()
	k, cl, f := env(t, 1, DefaultConfig())
	f.AttachAggregate(10*time.Millisecond, func(_, lane, tick int) service.Demand {
		return service.Demand{Getattr: int64(1 + (lane+tick)%3)}
	})
	createLoad(t, k, cl, f, 20)
	if ops, _, _ := f.AggCounts(); ops == 0 {
		t.Fatal("the aggregate load injected nothing")
	}
	if n := settledGoroutines() - base; n != 0 {
		t.Errorf("%d goroutine(s) left behind after Run", n)
	}
}

// settledGoroutines returns the goroutine count once it has read the
// same for 20 consecutive millisecond polls, or the last count after
// two seconds.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	deadline := time.Now().Add(2 * time.Second)
	for same := 0; same < 20 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}
