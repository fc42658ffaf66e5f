package shard

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"dmetabench/internal/cluster"
	"dmetabench/internal/fs"
	"dmetabench/internal/sim"
)

// leaseCfg returns a lease-coherent n-shard config with staleness
// tracking on.
func leaseCfg(n int) Config {
	cfg := DefaultConfig(n)
	cfg.CacheMode = CacheLease
	cfg.TrackStaleness = true
	return cfg
}

// twoNodes builds a kernel, a two-node cluster and a sharded FS.
func twoNodes(cfg Config) (*sim.Kernel, *cluster.Cluster, *FS) {
	k := sim.New(42)
	cl := cluster.New(k, cluster.DefaultConfig(2))
	return k, cl, New(k, "coh", cfg)
}

func TestLeaseRevocationOnRemoteMutation(t *testing.T) {
	// Node 0 leases a file's attributes; node 1 writes it. The write
	// must deliver a revocation callback before returning, so node 0's
	// next stat refetches and never serves the stale size.
	k, cl, f := twoNodes(leaseCfg(4))
	k.Spawn("t", func(p *sim.Proc) {
		a := f.NewClient(cl.Nodes[0], p)
		b := f.NewClient(cl.Nodes[1], p)
		if err := a.Mkdir("/d"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := a.Create("/d/f"); err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, err := a.Stat("/d/f"); err != nil { // take the lease
			t.Fatalf("stat: %v", err)
		}
		hitsBefore, _, _, _ := f.CacheStats()
		if at, err := a.Stat("/d/f"); err != nil || at.Size != 0 {
			t.Fatalf("cached stat: %v size=%d", err, at.Size)
		}
		if hits, _, _, _ := f.CacheStats(); hits != hitsBefore+1 {
			t.Fatal("second stat did not hit the lease cache")
		}
		h, err := b.Open("/d/f")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		b.Write(h, 4096)
		if err := b.Close(h); err != nil {
			t.Fatalf("close: %v", err)
		}
		if f.Revocations == 0 {
			t.Fatal("remote write delivered no revocation callback")
		}
		at, err := a.Stat("/d/f")
		if err != nil {
			t.Fatalf("stat after revoke: %v", err)
		}
		if at.Size != 4096 {
			t.Fatalf("stale size %d served after revocation", at.Size)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if f.StaleReads != 0 {
		t.Fatalf("coherent cache served %d stale reads", f.StaleReads)
	}
}

func TestTTLCacheServesStaleWhereLeaseDoesNot(t *testing.T) {
	// The same two-node sequence on the TTL cache: node 0's cached size
	// survives node 1's write until the timeout — the §2.1.2 staleness
	// the lease protocol exists to eliminate.
	cfg := DefaultConfig(4)
	cfg.TrackStaleness = true
	k, cl, f := twoNodes(cfg)
	k.Spawn("t", func(p *sim.Proc) {
		a := f.NewClient(cl.Nodes[0], p)
		b := f.NewClient(cl.Nodes[1], p)
		a.Mkdir("/d")
		a.Create("/d/f")
		if _, err := a.Stat("/d/f"); err != nil {
			t.Fatalf("stat: %v", err)
		}
		h, _ := b.Open("/d/f")
		b.Write(h, 4096)
		b.Close(h)
		at, err := a.Stat("/d/f")
		if err != nil {
			t.Fatalf("stat: %v", err)
		}
		if at.Size != 0 {
			t.Fatalf("TTL cache refetched (size %d); expected the stale 0", at.Size)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if f.StaleReads == 0 {
		t.Fatal("staleness tracking missed the stale TTL hit")
	}
}

func TestDirectoryDelegationSkipsSoleWriterRevocations(t *testing.T) {
	// A single writer creating many files in one directory holds the
	// write delegation: no revocation traffic at all. A second writer
	// forces exactly one recall.
	k, cl, f := twoNodes(leaseCfg(4))
	k.Spawn("t", func(p *sim.Proc) {
		a := f.NewClient(cl.Nodes[0], p)
		b := f.NewClient(cl.Nodes[1], p)
		if err := a.Mkdir("/d"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		for i := 0; i < 20; i++ {
			if err := a.Create(fmt.Sprintf("/d/f%d", i)); err != nil {
				t.Fatalf("create: %v", err)
			}
		}
		if f.DelegationGrants == 0 {
			t.Fatal("sole writer was not granted a delegation")
		}
		if f.Revocations != 0 {
			t.Fatalf("sole writer paid %d revocations", f.Revocations)
		}
		recallsBefore := f.DelegationRecalls
		if err := b.Create("/d/other"); err != nil {
			t.Fatalf("second writer create: %v", err)
		}
		if f.DelegationRecalls != recallsBefore+1 {
			t.Fatalf("second writer triggered %d recalls, want 1",
				f.DelegationRecalls-recallsBefore)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRmdirDropsDelegation(t *testing.T) {
	// Removing a directory kills its write delegation with it: after a
	// recreate, the new incarnation's first writer must not pay a
	// recall against the dead delegation, and the old holder must not
	// silently resume covered write-back.
	k, cl, f := twoNodes(leaseCfg(4))
	k.Spawn("t", func(p *sim.Proc) {
		a := f.NewClient(cl.Nodes[0], p)
		b := f.NewClient(cl.Nodes[1], p)
		if err := a.Mkdir("/d"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := a.Create("/d/f"); err != nil { // a holds the delegation
			t.Fatalf("create: %v", err)
		}
		if f.DelegationGrants == 0 {
			t.Fatal("no delegation granted")
		}
		if err := a.Unlink("/d/f"); err != nil {
			t.Fatalf("unlink: %v", err)
		}
		if err := a.Rmdir("/d"); err != nil {
			t.Fatalf("rmdir: %v", err)
		}
		if err := b.Mkdir("/d"); err != nil { // a fresh incarnation
			t.Fatalf("re-mkdir: %v", err)
		}
		recallsBefore := f.DelegationRecalls
		if err := b.Create("/d/g"); err != nil {
			t.Fatalf("create in recreated dir: %v", err)
		}
		if f.DelegationRecalls != recallsBefore {
			t.Fatalf("first writer of a recreated directory paid %d recalls "+
				"against the dead delegation", f.DelegationRecalls-recallsBefore)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDirRenameRevokesDescendantLeases(t *testing.T) {
	// Renaming a directory (allowed under subtree placement) moves every
	// descendant: leases keyed by the old paths must die with it, or a
	// holder would keep serving attributes for names that no longer
	// exist.
	cfg := leaseCfg(4)
	cfg.Placement = PlaceSubtree
	cfg.SubtreeAssign = map[string]int{"vol": 1}
	k, cl, f := twoNodes(cfg)
	k.Spawn("t", func(p *sim.Proc) {
		a := f.NewClient(cl.Nodes[0], p)
		b := f.NewClient(cl.Nodes[1], p)
		if err := b.Mkdir("/vol"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := b.Mkdir("/vol/a"); err != nil {
			t.Fatalf("mkdir a: %v", err)
		}
		if err := b.Create("/vol/a/f"); err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, err := a.Stat("/vol/a/f"); err != nil { // lease on the old path
			t.Fatalf("stat: %v", err)
		}
		if err := b.Rename("/vol/a", "/vol/b"); err != nil {
			t.Fatalf("dir rename: %v", err)
		}
		if _, err := a.Stat("/vol/a/f"); !fs.IsNotExist(err) {
			t.Fatalf("stat of moved-away path: got %v, want ENOENT", err)
		}
		if at, err := a.Stat("/vol/b/f"); err != nil || at.Ino == 0 {
			t.Fatalf("stat of new path: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if f.StaleReads != 0 {
		t.Fatalf("dir rename left %d stale coherent reads", f.StaleReads)
	}
}

func TestReadDirPlusFillsCaches(t *testing.T) {
	// One readdirplus RPC returns every entry's attributes and leaves
	// the client able to stat each entry without further RPCs.
	k, cl, f := twoNodes(leaseCfg(4))
	k.Spawn("t", func(p *sim.Proc) {
		c := f.NewClient(cl.Nodes[0], p)
		if err := c.Mkdir("/d"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		for i := 0; i < 8; i++ {
			if err := c.Create(fmt.Sprintf("/d/f%d", i)); err != nil {
				t.Fatalf("create: %v", err)
			}
		}
		c.DropCaches()
		ents, attrs, err := fs.ReadDirPlus(c, "/d")
		if err != nil {
			t.Fatalf("readdirplus: %v", err)
		}
		if len(ents) != 8 || len(attrs) != 8 {
			t.Fatalf("got %d entries, %d attrs", len(ents), len(attrs))
		}
		for i, e := range ents {
			if attrs[i].Ino != e.Ino {
				t.Fatalf("attrs[%d] does not describe entries[%d]", i, i)
			}
		}
		rpcsBefore := f.RPCCount()
		for i := 0; i < 8; i++ {
			if _, err := c.Stat(fmt.Sprintf("/d/f%d", i)); err != nil {
				t.Fatalf("stat: %v", err)
			}
		}
		if f.RPCCount() != rpcsBefore {
			t.Fatalf("stats after readdirplus issued %d RPCs, want 0",
				f.RPCCount()-rpcsBefore)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// failoverStaleRun runs the E24 micro-scenario: node 0 leases a file on
// the slice about to crash, the slice fails over to its backup, node 1
// writes the file through the backup, and node 0 stats it again. It
// returns the size node 0 observed and the stale-read count.
func failoverStaleRun(t *testing.T, crashInvalidate bool) (int64, int64) {
	t.Helper()
	cfg := leaseCfg(2)
	cfg.Replicate = true
	cfg.CrashInvalidate = crashInvalidate
	cfg.LeaseTTL = time.Hour // only invalidation can end the lease here
	k := sim.New(7)
	cl := cluster.New(k, cluster.DefaultConfig(2))
	f := New(k, "fo", cfg)
	// A directory whose entries live on slice 0.
	dir := ""
	for i := 0; i < 64; i++ {
		cand := fmt.Sprintf("/d%d", i)
		if f.ShardOfDir(cand) == 0 {
			dir = cand
			break
		}
	}
	if dir == "" {
		t.Fatal("no slice-0 directory found")
	}
	file := dir + "/f"
	var size int64 = -1
	k.Spawn("t", func(p *sim.Proc) {
		a := f.NewClient(cl.Nodes[0], p)
		b := f.NewClient(cl.Nodes[1], p)
		if err := a.Mkdir(dir); err != nil {
			t.Errorf("mkdir: %v", err)
			return
		}
		if err := a.Create(file); err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if _, err := a.Stat(file); err != nil { // lease from the primary
			t.Errorf("stat: %v", err)
			return
		}
		f.Crash(p, 0)
		p.Sleep(takeoverDetect + 50*time.Millisecond) // past detection + replay
		if len(f.Takeovers) != 1 {
			t.Error("no takeover happened")
			return
		}
		h, err := b.Open(file) // served by the promoted backup
		if err != nil {
			t.Errorf("open via backup: %v", err)
			return
		}
		b.Write(h, 512)
		if err := b.Close(h); err != nil {
			t.Errorf("close via backup: %v", err)
			return
		}
		at, err := a.Stat(file)
		if err != nil {
			t.Errorf("stat after failover: %v", err)
			return
		}
		size = at.Size
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return size, f.StaleReads
}

func TestFailoverLeaseInvalidation(t *testing.T) {
	// With crash-time invalidation the epoch bump kills node 0's lease
	// at takeover: the post-failover stat refetches the true size. With
	// it off, the promoted backup cannot revoke the dead primary's
	// leases, and node 0 serves the stale size — PR 3's failover would
	// silently leak stale reads without the epoch mechanism.
	size, stale := failoverStaleRun(t, true)
	if size != 512 {
		t.Fatalf("with invalidation: observed size %d, want 512", size)
	}
	if stale != 0 {
		t.Fatalf("with invalidation: %d stale reads, want 0", stale)
	}
	size, stale = failoverStaleRun(t, false)
	if size != 0 {
		t.Fatalf("without invalidation: observed size %d, want the stale 0", size)
	}
	if stale == 0 {
		t.Fatal("without invalidation: stale read not counted")
	}
}

func TestCoherentCountersDeterministic(t *testing.T) {
	run := func() [6]int64 {
		cfg := leaseCfg(4)
		k := sim.New(99)
		cl := cluster.New(k, cluster.DefaultConfig(4))
		f := New(k, "det", cfg)
		for r := 0; r < 4; r++ {
			r := r
			node := cl.Nodes[r]
			k.Spawn(fmt.Sprintf("w%d", r), func(p *sim.Proc) {
				c := f.NewClient(node, p)
				c.Mkdir("/shared")
				for i := 0; i < 40; i++ {
					name := fmt.Sprintf("/shared/f%d", i%8)
					if i%5 == 0 {
						if err := c.Create(name); err != nil && !fs.IsExist(err) {
							t.Errorf("create: %v", err)
						}
					} else {
						c.Stat(name)
					}
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		h, m, rv, ep := f.CacheStats()
		_ = ep
		return [6]int64{f.LeaseGrants, f.Revocations, f.DelegationGrants,
			f.DelegationRecalls, h + m, rv}
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identically-seeded coherent runs diverged: %v vs %v", a, b)
	}
}

// TestCacheCensusScripted runs one scripted sequence per cache mode and
// checks CacheStats and the client half of CapacityStats against the
// counts the sequence must leave. Under CacheTTL the name cache holds
// both halves: a create caches attributes and a dentry, a failed walk a
// negative dentry, an unlink drops both. Under CacheLease it holds
// dentries only and the lease cache the attributes: a delegation recall
// and two revocations each drop a dentry with the lease.
func TestCacheCensusScripted(t *testing.T) {
	type census struct {
		hits, misses, revoked, epochDrops int64
		attrs, dentries, leases           int
	}
	stat := func(c fs.Client, p string) { c.Stat(p) }
	for _, tc := range []struct {
		mode   CacheMode
		script func(a, b fs.Client)
		want   census
	}{{
		mode: CacheTTL,
		script: func(a, _ fs.Client) {
			a.Mkdir("/d")    // attrs+dentries {/d}
			a.Create("/d/f") // + /d/f
			stat(a, "/d/f")  // hit
			stat(a, "/d/g")  // miss; ENOENT from the server, nothing cached
			stat(a, "/e/x")  // miss; negative dentry /e
			a.Unlink("/d/f") // drops /d/f
			stat(a, "/d/f")  // miss
		},
		want: census{hits: 1, misses: 3, attrs: 1, dentries: 2},
	}, {
		mode: CacheLease,
		script: func(a, b fs.Client) {
			a.Mkdir("/d")    // a: dentries and leases {/, /d}
			a.Create("/d/f") // a: + /d/f
			// b's walk leases /d and recalls a's delegation on it: a
			// loses its /d lease (revoked) and dentry.
			stat(b, "/d/f") // b misses; b: dentries and leases {/d, /d/f}
			// a's walk re-leases /d; the unlink revokes b's /d/f and /d,
			// dropping b's dentries, and drops a's own /d/f and /d
			// leases silently.
			a.Unlink("/d/f")
			stat(a, "/d/f") // a misses
			stat(a, "/")    // a hits its lease on /
		},
		want: census{hits: 1, misses: 2, revoked: 3, dentries: 2, leases: 1},
	}} {
		cfg := DefaultConfig(4)
		cfg.CacheMode = tc.mode
		k, cl, f := twoNodes(cfg)
		k.Spawn("t", func(p *sim.Proc) {
			tc.script(f.NewClient(cl.Nodes[0], p), f.NewClient(cl.Nodes[1], p))
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		var got census
		got.hits, got.misses, got.revoked, got.epochDrops = f.CacheStats()
		st := f.CapacityStats()
		got.attrs, got.dentries, got.leases = st.ClientAttrs, st.ClientDentries, st.ClientLeases
		if got != tc.want {
			t.Errorf("%v: census %+v, want %+v", tc.mode, got, tc.want)
		}
	}
}

// TestRecycledGrantListsKeepParkedVictims checks the grant-list reuse
// against its hazard: revokePath's victims alias the revoked path's
// grant list, so the list may only go back to the lease table once every
// callback has been delivered. Process x revokes /a (held by nodes 1-3)
// and parks in its fan-out; at the same instant, before x's children
// start, process y revokes /b (held only by y's own node and an expired
// grant, so its list goes back at once) and grants three fresh paths to
// nodes 4-6, taking every list the table has spare. A hog holds every
// node's callback thread until the callbacks have reached the servers,
// and then counts who queues on each: exactly nodes 1-3, one each.
func TestRecycledGrantListsKeepParkedVictims(t *testing.T) {
	k := sim.New(1)
	cl := cluster.New(k, cluster.DefaultConfig(7))
	f := New(k, "coh", leaseCfg(1))
	st := make([]*nodeState, 7)
	for i := range st {
		st[i] = f.nodeState(cl.Nodes[i])
	}
	file := fs.Attr{Type: fs.TypeRegular}
	t0 := f.cfg.LeaseTTL + time.Millisecond
	queued := make([]int, len(st))
	k.Spawn("hog", func(p *sim.Proc) {
		for _, s := range st {
			s.cb.Threads.Acquire(p)
		}
		p.Sleep(t0 + 10*f.cfg.OneWayLatency)
		for i, s := range st {
			queued[i] = s.cb.Threads.QueueLen()
			s.cb.Threads.Release()
		}
	})
	k.Spawn("setup", func(p *sim.Proc) {
		f.grant(p, st[6], "/b", file) // expired by t0
		p.Sleep(t0 - time.Microsecond)
		for _, n := range []int{1, 2, 3} {
			f.grant(p, st[n], "/a", file)
		}
		f.grant(p, st[0], "/b", file)
	})
	k.Spawn("x", func(p *sim.Proc) {
		p.Sleep(t0)
		f.revokePath(p, st[0], "/a")
	})
	k.Spawn("y", func(p *sim.Proc) {
		p.Sleep(t0)
		f.revokePath(p, st[0], "/b")
		for i, path := range []string{"/c", "/d", "/e"} {
			f.grant(p, st[4+i], path, file)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 1, 1, 0, 0, 0}; !slices.Equal(queued, want) {
		t.Errorf("callbacks queued per node %v, want %v", queued, want)
	}
	if f.Revocations != 3 {
		t.Errorf("Revocations = %d, want 3", f.Revocations)
	}
	// /b's list went to one of the fresh paths, and /a's list is back
	// in the table for the next.
	if n := len(f.leases[0].spare); n != 1 {
		t.Errorf("%d spare grant lists, want /a's one", n)
	}
}
