package workload

import (
	"fmt"
	"math/rand"
	"testing"

	"dmetabench/internal/cluster"
	"dmetabench/internal/fs"
	"dmetabench/internal/lustre"
	"dmetabench/internal/nfs"
	"dmetabench/internal/shard"
	"dmetabench/internal/sim"
)

func TestSizeDistShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// The 2004 distribution of the Agrawal et al. file-system study.
	d := SizeDist{MedianBytes: 4 << 10, Sigma: 2.65, MaxBytes: 1 << 32}
	const n = 200000
	var sum float64
	small := 0
	for i := 0; i < n; i++ {
		v := d.Sample(rng)
		if v < 0 {
			t.Fatal("negative size")
		}
		if v <= 16<<10 {
			small++
		}
		sum += float64(v)
	}
	mean := sum / n
	// The 2004 study: mean ~189 kB with most files small. The clipped
	// sample mean lands in the same order of magnitude.
	if mean < 50<<10 || mean > 1<<20 {
		t.Fatalf("sample mean = %.0f bytes, want ~1e5..1e6", mean)
	}
	// Median ~4 kB: most files are small even though the mean is huge.
	if frac := float64(small) / n; frac < 0.6 {
		t.Fatalf("only %.2f of files <= 16kB; distribution not skewed", frac)
	}
}

func TestPostmarkOnSimNFS(t *testing.T) {
	k := sim.New(1)
	cl := cluster.New(k, cluster.DefaultConfig(1))
	fsys := nfs.New(k, "home", nfs.DefaultConfig())
	cfg := DefaultPostmarkConfig()
	cfg.Files = 100
	cfg.Transactions = 300
	var st PostmarkStats
	var err error
	k.Spawn("postmark", func(p *sim.Proc) {
		c := fsys.NewClient(cl.Nodes[0], p)
		st, err = Postmark(c, cfg, p.Now)
	})
	if kerr := k.Run(); kerr != nil {
		t.Fatal(kerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if st.Transactions != 300 {
		t.Fatalf("transactions = %d", st.Transactions)
	}
	if st.TPS <= 0 {
		t.Fatalf("tps = %f", st.TPS)
	}
	if st.Created == 0 || st.Deleted == 0 || st.Read == 0 || st.Appended == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Everything deleted: the namespace holds only the root again.
	if n := fsys.Namespace().NumFiles(); n != 0 {
		t.Fatalf("files left: %d", n)
	}
	if n := fsys.Namespace().NumDirs(); n != 1 {
		t.Fatalf("dirs left: %d", n)
	}
}

// opLog is an fs.Client that records every operation Postmark issues
// with its path, in order.
type opLog struct {
	fs.Client
	ops   []string
	paths map[fs.Handle]string
}

func (l *opLog) note(op, p string) { l.ops = append(l.ops, op+" "+p) }

func (l *opLog) Mkdir(p string) error  { l.note("mkdir", p); return l.Client.Mkdir(p) }
func (l *opLog) Rmdir(p string) error  { l.note("rmdir", p); return l.Client.Rmdir(p) }
func (l *opLog) Create(p string) error { l.note("create", p); return l.Client.Create(p) }
func (l *opLog) Unlink(p string) error { l.note("unlink", p); return l.Client.Unlink(p) }

func (l *opLog) Stat(p string) (fs.Attr, error) {
	l.note("stat", p)
	return l.Client.Stat(p)
}

func (l *opLog) Open(p string) (fs.Handle, error) {
	l.note("open", p)
	h, err := l.Client.Open(p)
	l.paths[h] = p
	return h, err
}

func (l *opLog) Write(h fs.Handle, n int64) error {
	l.note(fmt.Sprintf("write %d", n), l.paths[h])
	return l.Client.Write(h, n)
}

func (l *opLog) Close(h fs.Handle) error {
	l.note("close", l.paths[h])
	return l.Client.Close(h)
}

// TestPostmarkDeterministic runs one seeded Postmark five times on the
// simulated Lustre model: every run must succeed, issue the same
// operations on the same paths in the same order and take the same
// virtual time.
func TestPostmarkDeterministic(t *testing.T) {
	run := func() (PostmarkStats, []string) {
		k := sim.New(5)
		cl := cluster.New(k, cluster.DefaultConfig(1))
		fsys := lustre.New(k, "scratch", lustre.DefaultConfig())
		cfg := DefaultPostmarkConfig()
		cfg.Files = 50
		cfg.Transactions = 200
		var st PostmarkStats
		var err error
		log := &opLog{paths: make(map[fs.Handle]string)}
		k.Spawn("pm", func(p *sim.Proc) {
			log.Client = fsys.NewClient(cl.Nodes[0], p)
			st, err = Postmark(log, cfg, p.Now)
		})
		if kerr := k.Run(); kerr != nil {
			t.Fatal(kerr)
		}
		if err != nil {
			t.Fatal(err)
		}
		return st, log.ops
	}
	first, firstOps := run()
	for i := 1; i < 5; i++ {
		st, ops := run()
		if st != first {
			t.Fatalf("run %d: %+v, run 0: %+v", i, st, first)
		}
		if len(ops) != len(firstOps) {
			t.Fatalf("run %d issued %d operations, run 0 %d", i, len(ops), len(firstOps))
		}
		for j := range ops {
			if ops[j] != firstOps[j] {
				t.Fatalf("run %d operation %d is %q, run 0's is %q", i, j, ops[j], firstOps[j])
			}
		}
	}
}

func TestScanBatchedVsFallback(t *testing.T) {
	// The same tree scanned through the sharded client (readdirplus)
	// and the NFS client (readdir+stat fallback): identical coverage,
	// but the batched scan pays per directory where the fallback pays
	// per entry, so it must finish faster in virtual time.
	build := func(c fs.Client) error {
		for d := 0; d < 3; d++ {
			dir := fmt.Sprintf("/scan/d%d", d)
			if err := c.Mkdir("/scan"); err != nil && !fs.IsExist(err) {
				return err
			}
			if err := c.Mkdir(dir); err != nil {
				return err
			}
			for i := 0; i < 20; i++ {
				if err := c.Create(fmt.Sprintf("%s/f%d", dir, i)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	run := func(mk func(k *sim.Kernel, n *cluster.Node, p *sim.Proc) fs.Client) ScanStats {
		k := sim.New(3)
		cl := cluster.New(k, cluster.DefaultConfig(1))
		var st ScanStats
		k.Spawn("scan", func(p *sim.Proc) {
			c := mk(k, cl.Nodes[0], p)
			if err := build(c); err != nil {
				t.Errorf("build: %v", err)
				return
			}
			c.DropCaches()
			var err error
			st, err = Scan(c, "/scan", p.Now)
			if err != nil {
				t.Errorf("scan: %v", err)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return st
	}
	batched := run(func(k *sim.Kernel, n *cluster.Node, p *sim.Proc) fs.Client {
		cfg := shard.DefaultConfig(4)
		cfg.CacheMode = shard.CacheLease
		return shard.New(k, "scan", cfg).NewClient(n, p)
	})
	fallback := run(func(k *sim.Kernel, n *cluster.Node, p *sim.Proc) fs.Client {
		return nfs.New(k, "scan", nfs.DefaultConfig()).NewClient(n, p)
	})
	if !batched.Batched || fallback.Batched {
		t.Fatalf("batched flags: shard=%v nfs=%v", batched.Batched, fallback.Batched)
	}
	if batched.Dirs != 4 || batched.Entries != 63 {
		t.Fatalf("batched coverage: %d dirs, %d entries", batched.Dirs, batched.Entries)
	}
	if fallback.Dirs != batched.Dirs || fallback.Entries != batched.Entries {
		t.Fatalf("coverage differs: %+v vs %+v", batched, fallback)
	}
	if batched.Elapsed >= fallback.Elapsed {
		t.Fatalf("batched scan (%v) not faster than per-entry fallback (%v)",
			batched.Elapsed, fallback.Elapsed)
	}
}
