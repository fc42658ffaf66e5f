package shard

import (
	"fmt"
	"testing"
	"time"

	"dmetabench/internal/cluster"
	"dmetabench/internal/fs"
	"dmetabench/internal/sim"
)

// splitCfg returns a 4-shard hash-placement config with splitting on.
func splitCfg(threshold int) Config {
	cfg := DefaultConfig(4)
	cfg.SplitThreshold = threshold
	return cfg
}

func TestSplitSpreadsGiantDirectory(t *testing.T) {
	const files = 600
	k, cl, f := env(t, 1, splitCfg(64))
	drive(t, k, cl, f, func(c fs.Client, p *sim.Proc) {
		if err := c.Mkdir("/big"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		for i := 0; i < files; i++ {
			if err := c.Create(fmt.Sprintf("/big/f%d", i)); err != nil {
				t.Fatalf("create %d: %v", i, err)
			}
		}
		// The directory split up to the shard-coverage cap.
		if lvl := f.SplitLevel("/big"); lvl != 2 {
			t.Errorf("split level = %d, want 2 (4 shards)", lvl)
		}
		if len(f.Splits) == 0 || f.SplitMoved == 0 {
			t.Fatalf("no split events recorded (events=%d moved=%d)", len(f.Splits), f.SplitMoved)
		}
		// Entries spread across more than one slice's namespace.
		populated := 0
		total := 0
		for i := 0; i < f.NumShards(); i++ {
			ents, err := f.Namespace(i).ReadDir("/big", p.Now())
			if err != nil {
				continue
			}
			if len(ents) > 0 {
				populated++
			}
			total += len(ents)
		}
		if populated < 2 {
			t.Errorf("split directory still lives on %d slice(s)", populated)
		}
		if total != files {
			t.Errorf("entries across slices = %d, want %d", total, files)
		}
		// Every file remains reachable through the client.
		for i := 0; i < files; i++ {
			if _, err := c.Stat(fmt.Sprintf("/big/f%d", i)); err != nil {
				t.Fatalf("stat after split: %v", err)
			}
		}
		// The fan-out listing merges every partition exactly once.
		ents, err := c.ReadDir("/big")
		if err != nil {
			t.Fatalf("readdir: %v", err)
		}
		if len(ents) != files {
			t.Errorf("fan-out listing = %d entries, want %d", len(ents), files)
		}
		seen := make(map[string]bool, len(ents))
		for _, e := range ents {
			if seen[e.Name] {
				t.Fatalf("duplicate entry %q in merged listing", e.Name)
			}
			seen[e.Name] = true
		}
		// Batched fan-out returns aligned attributes.
		pents, attrs, err := fs.ReadDirPlus(c, "/big")
		if err != nil {
			t.Fatalf("readdirplus: %v", err)
		}
		if len(pents) != files || len(attrs) != files {
			t.Fatalf("readdirplus = %d/%d, want %d", len(pents), len(attrs), files)
		}
		for i := range pents {
			if attrs[i].Ino != pents[i].Ino {
				t.Fatalf("attrs misaligned at %d", i)
			}
		}
		// Rmdir refuses while any partition holds files, succeeds once
		// all are gone, and drops the split state with the directory.
		if err := c.Rmdir("/big"); fs.CodeOf(err) != fs.ENOTEMPTY {
			t.Errorf("rmdir of populated split dir: %v, want ENOTEMPTY", err)
		}
		for i := 0; i < files; i++ {
			if err := c.Unlink(fmt.Sprintf("/big/f%d", i)); err != nil {
				t.Fatalf("unlink: %v", err)
			}
		}
		if err := c.Rmdir("/big"); err != nil {
			t.Fatalf("rmdir of emptied split dir: %v", err)
		}
		if lvl := f.SplitLevel("/big"); lvl != 0 {
			t.Errorf("split state survived rmdir (level %d)", lvl)
		}
	})
}

func TestSplitMigrationIsPaidAndJournaled(t *testing.T) {
	cfg := splitCfg(64)
	cfg.Replicate = true
	k, cl, f := env(t, 1, cfg)
	drive(t, k, cl, f, func(c fs.Client, p *sim.Proc) {
		if err := c.Mkdir("/big"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		before := f.CrossCount
		for i := 0; i < 200; i++ {
			if err := c.Create(fmt.Sprintf("/big/f%d", i)); err != nil {
				t.Fatalf("create: %v", err)
			}
		}
		if f.SplitMoved == 0 {
			t.Fatal("split moved no entries")
		}
		if f.CrossCount <= before {
			t.Error("split migration crossed no interconnect hops")
		}
	})
	// The moves are journaled on both sides so a takeover or restart
	// replays them: total journal entries exceed the pure mutation count
	// (200 creates + 1 mkdir) by one unlink+create pair per moved entry.
	total := 0
	for i := 0; i < f.NumShards(); i++ {
		total += f.JournalLen(i)
	}
	if want := 201 + 2*int(f.SplitMoved); total != want {
		t.Errorf("journal entries = %d, want %d (moves journaled on both slices)", total, want)
	}
}

func TestSplitLeaseCoherence(t *testing.T) {
	// A reader on one node caches every file under leases; a writer on
	// another node pushes the directory over the threshold. The split
	// must revoke the moved entries' leases so the reader never serves a
	// stale (pre-migration) hit.
	cfg := splitCfg(64)
	cfg.CacheMode = CacheLease
	cfg.TrackStaleness = true
	cfg.LeaseTTL = time.Hour
	k := sim.New(42)
	cl := cluster.New(k, cluster.DefaultConfig(2))
	f := New(k, "test", cfg)
	k.Spawn("rw", func(p *sim.Proc) {
		reader := f.NewClient(cl.Nodes[0], p)
		writer := f.NewClient(cl.Nodes[1], p)
		if err := writer.Mkdir("/big"); err != nil {
			t.Errorf("mkdir: %v", err)
			return
		}
		// Subdirectories ride along: their entries are replicated, but
		// their leases re-key with the split level like any entry's.
		for i := 0; i < 8; i++ {
			if err := writer.Mkdir(fmt.Sprintf("/big/sub%d", i)); err != nil {
				t.Errorf("mkdir sub: %v", err)
				return
			}
		}
		for i := 0; i < 64; i++ {
			if err := writer.Create(fmt.Sprintf("/big/f%d", i)); err != nil {
				t.Errorf("create: %v", err)
				return
			}
		}
		for i := 0; i < 64; i++ {
			if _, err := reader.Stat(fmt.Sprintf("/big/f%d", i)); err != nil {
				t.Errorf("stat: %v", err)
				return
			}
		}
		for i := 0; i < 8; i++ {
			if _, err := reader.Stat(fmt.Sprintf("/big/sub%d", i)); err != nil {
				t.Errorf("stat sub: %v", err)
				return
			}
		}
		revBefore := f.Revocations
		// Push over the threshold: the split revokes moved leases.
		for i := 64; i < 80; i++ {
			if err := writer.Create(fmt.Sprintf("/big/f%d", i)); err != nil {
				t.Errorf("create: %v", err)
				return
			}
		}
		if f.SplitMoved == 0 {
			t.Error("no split happened")
		}
		if f.Revocations <= revBefore {
			t.Error("split revoked no leases")
		}
		for i := 0; i < 80; i++ {
			if _, err := reader.Stat(fmt.Sprintf("/big/f%d", i)); err != nil {
				t.Errorf("stat after split: %v", err)
				return
			}
		}
		// Mutations under the subdirectories must find (and revoke) the
		// reader's re-keyed subdirectory leases, then the re-stats must
		// be coherent.
		for i := 0; i < 8; i++ {
			if err := writer.Create(fmt.Sprintf("/big/sub%d/child", i)); err != nil {
				t.Errorf("create child: %v", err)
				return
			}
		}
		for i := 0; i < 8; i++ {
			if _, err := reader.Stat(fmt.Sprintf("/big/sub%d", i)); err != nil {
				t.Errorf("re-stat sub: %v", err)
				return
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if f.StaleReads != 0 {
		t.Errorf("coherent cache served %d stale reads across a split", f.StaleReads)
	}
}

func TestFlushFollowsSplitMigration(t *testing.T) {
	// A file opened (and written) before a split migrates must still
	// receive its write on Close: flush resolves by path, following the
	// migration to the new slice and inode, instead of silently
	// no-opping SetSize against the handle's dead inode.
	k, cl, f := env(t, 1, splitCfg(64))
	drive(t, k, cl, f, func(c fs.Client, p *sim.Proc) {
		if err := c.Mkdir("/big"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		const targets = 8
		handles := make([]fs.Handle, targets)
		for i := 0; i < targets; i++ {
			name := fmt.Sprintf("/big/t%d", i)
			if err := c.Create(name); err != nil {
				t.Fatalf("create: %v", err)
			}
			h, err := c.Open(name)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			if err := c.Write(h, 100); err != nil {
				t.Fatalf("write: %v", err)
			}
			handles[i] = h
		}
		for i := 0; i < 200; i++ {
			if err := c.Create(fmt.Sprintf("/big/f%d", i)); err != nil {
				t.Fatalf("create: %v", err)
			}
		}
		if f.SplitLevel("/big") == 0 || f.SplitMoved == 0 {
			t.Fatal("directory did not split under the open handles")
		}
		for i := 0; i < targets; i++ {
			if err := c.Close(handles[i]); err != nil {
				t.Fatalf("close t%d: %v", i, err)
			}
		}
		for i := 0; i < targets; i++ {
			a, err := c.Stat(fmt.Sprintf("/big/t%d", i))
			if err != nil {
				t.Fatalf("stat t%d: %v", i, err)
			}
			if a.Size != 100 {
				t.Errorf("t%d size = %d after flush across a split, want 100", i, a.Size)
			}
		}
	})
}

func TestOpenAfterSplitMigration(t *testing.T) {
	// A dentry cached before a split keeps the pre-migration ino; Open
	// must refresh it and open the current incarnation, not surface a
	// spurious ESTALE for a path that resolves fine.
	k, cl, f := env(t, 1, splitCfg(64))
	drive(t, k, cl, f, func(c fs.Client, p *sim.Proc) {
		if err := c.Mkdir("/big"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		for i := 0; i < 200; i++ {
			if err := c.Create(fmt.Sprintf("/big/f%d", i)); err != nil {
				t.Fatalf("create: %v", err)
			}
		}
		if f.SplitMoved == 0 {
			t.Fatal("directory did not split")
		}
		for i := 0; i < 200; i++ {
			h, err := c.Open(fmt.Sprintf("/big/f%d", i))
			if err != nil {
				t.Fatalf("open f%d after split: %v", i, err)
			}
			if err := c.Close(h); err != nil {
				t.Fatalf("close f%d: %v", i, err)
			}
		}
	})
}

func TestFlushAfterRenameWhileOpen(t *testing.T) {
	// A rename keeps the inode alive, so a write through a handle
	// opened under the old name must still land (POSIX fd semantics) —
	// the incarnation guard may only reject dead inodes.
	k, cl, f := env(t, 1, splitCfg(64))
	drive(t, k, cl, f, func(c fs.Client, p *sim.Proc) {
		if err := c.Mkdir("/d"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := c.Create("/d/a"); err != nil {
			t.Fatalf("create: %v", err)
		}
		h, err := c.Open("/d/a")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if err := c.Write(h, 100); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := c.Rename("/d/a", "/d/b"); err != nil {
			t.Fatalf("rename: %v", err)
		}
		if err := c.Close(h); err != nil {
			t.Fatalf("close after rename: %v", err)
		}
		// Bypass the TTL attribute cache (still fresh from the rename):
		// the authoritative namespace must show the write.
		c.DropCaches()
		a, err := c.Stat("/d/b")
		if err != nil {
			t.Fatalf("stat: %v", err)
		}
		if a.Size != 100 {
			t.Errorf("renamed file size = %d, want 100 (write lost)", a.Size)
		}
	})
	_ = f
}

func TestFlushStaleAfterReplacement(t *testing.T) {
	// A migration is the only re-inode a handle may follow: when the
	// name was unlinked and recreated behind the handle, the flush must
	// fail with ESTALE instead of writing into the new incarnation.
	k, cl, f := env(t, 1, splitCfg(64))
	drive(t, k, cl, f, func(c fs.Client, p *sim.Proc) {
		if err := c.Mkdir("/d"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := c.Create("/d/f"); err != nil {
			t.Fatalf("create: %v", err)
		}
		h, err := c.Open("/d/f")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if err := c.Write(h, 100); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := c.Unlink("/d/f"); err != nil {
			t.Fatalf("unlink: %v", err)
		}
		if err := c.Create("/d/f"); err != nil {
			t.Fatalf("recreate: %v", err)
		}
		if cerr := c.Close(h); fs.CodeOf(cerr) != fs.ESTALE {
			t.Errorf("flush into a replaced incarnation: %v, want ESTALE", cerr)
		}
		a, err := c.Stat("/d/f")
		if err != nil {
			t.Fatalf("stat: %v", err)
		}
		if a.Size != 0 {
			t.Errorf("replacement file size = %d, want 0 (stale write leaked in)", a.Size)
		}
	})
	_ = f
}

func TestRenameInsertTriggersSplit(t *testing.T) {
	// Directories can grow past the threshold through renames, not
	// just creates: the destination-side insert must trigger the split
	// exactly like a create would.
	k, cl, f := env(t, 1, splitCfg(64))
	drive(t, k, cl, f, func(c fs.Client, p *sim.Proc) {
		for _, d := range []string{"/src", "/big"} {
			if err := c.Mkdir(d); err != nil {
				t.Fatalf("mkdir %s: %v", d, err)
			}
		}
		for i := 0; i < 100; i++ {
			if err := c.Create(fmt.Sprintf("/src/f%d", i)); err != nil {
				t.Fatalf("create: %v", err)
			}
		}
		for i := 0; i < 100; i++ {
			if err := c.Rename(fmt.Sprintf("/src/f%d", i), fmt.Sprintf("/big/f%d", i)); err != nil {
				t.Fatalf("rename: %v", err)
			}
		}
		if f.SplitLevel("/big") == 0 {
			t.Error("rename-grown directory never split")
		}
		for i := 0; i < 100; i++ {
			if _, err := c.Stat(fmt.Sprintf("/big/f%d", i)); err != nil {
				t.Errorf("stat after rename-driven split: %v", err)
			}
		}
	})
}

func TestSplitBitmapBounces(t *testing.T) {
	// A second node with no bitmap must bounce on its first access to a
	// split directory, then route in one RPC once it has learned the
	// level.
	k := sim.New(42)
	cl := cluster.New(k, cluster.DefaultConfig(2))
	f := New(k, "test", splitCfg(64))
	k.Spawn("bounce", func(p *sim.Proc) {
		a := f.NewClient(cl.Nodes[0], p)
		b := f.NewClient(cl.Nodes[1], p)
		if err := a.Mkdir("/big"); err != nil {
			t.Errorf("mkdir: %v", err)
			return
		}
		for i := 0; i < 200; i++ {
			if err := a.Create(fmt.Sprintf("/big/f%d", i)); err != nil {
				t.Errorf("create: %v", err)
				return
			}
		}
		if f.SplitLevel("/big") == 0 {
			t.Error("directory did not split")
			return
		}
		// Pick a file whose partition left the home slice: a client with
		// no bitmap must misroute its first access to it.
		target := ""
		home := f.ShardOfDir("/big")
		for i := 0; i < 200; i++ {
			if p := fmt.Sprintf("/big/f%d", i); f.ShardOfEntry(p) != home {
				target = p
				break
			}
		}
		if target == "" {
			t.Fatal("no file left the home slice")
		}
		before := f.Bounces
		if _, err := b.Stat(target); err != nil {
			t.Errorf("stat: %v", err)
			return
		}
		if f.Bounces != before+1 {
			t.Errorf("cold client paid %d bounces on a moved entry, want 1", f.Bounces-before)
		}
		// The bounce refreshed the bitmap: everything else routes in one
		// RPC.
		before = f.Bounces
		for i := 0; i < 200; i++ {
			if _, err := b.Stat(fmt.Sprintf("/big/f%d", i)); err != nil {
				t.Errorf("stat: %v", err)
				return
			}
		}
		if f.Bounces != before {
			t.Errorf("warm client paid %d extra bounces, want 0", f.Bounces-before)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitBitmapExpiryCausesRebounces(t *testing.T) {
	// With a tiny bitmap TTL the client keeps forgetting the level and
	// re-pays bounces; with a long one it learns once.
	run := func(ttl time.Duration) int64 {
		cfg := splitCfg(64)
		cfg.SplitBitmapTTL = ttl
		k := sim.New(42)
		cl := cluster.New(k, cluster.DefaultConfig(2))
		f := New(k, "test", cfg)
		k.Spawn("w", func(p *sim.Proc) {
			a := f.NewClient(cl.Nodes[0], p)
			b := f.NewClient(cl.Nodes[1], p)
			if err := a.Mkdir("/big"); err != nil {
				t.Errorf("mkdir: %v", err)
				return
			}
			for i := 0; i < 200; i++ {
				if err := a.Create(fmt.Sprintf("/big/f%d", i)); err != nil {
					t.Errorf("create: %v", err)
					return
				}
			}
			for round := 0; round < 20; round++ {
				for i := 0; i < 10; i++ {
					if _, err := b.Stat(fmt.Sprintf("/big/f%d", i)); err != nil {
						t.Errorf("stat: %v", err)
						return
					}
				}
				p.Sleep(50 * time.Millisecond)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return f.Bounces
	}
	short := run(time.Millisecond)
	long := run(time.Hour)
	if short <= long {
		t.Errorf("bounces: ttl 1ms = %d, ttl 1h = %d; expiring bitmaps must bounce more", short, long)
	}
}

// splitMakeOnedirRun drives w concurrent creators hammering ONE shared
// directory and returns the virtual completion time — the E25 shape at
// unit-test size.
func splitMakeOnedirRun(t *testing.T, cfg Config, w, n int) time.Duration {
	t.Helper()
	k := sim.New(7)
	cl := cluster.New(k, cluster.DefaultConfig(w))
	f := New(k, "scale", cfg)
	var end time.Duration
	for r := 0; r < w; r++ {
		r := r
		node := cl.Nodes[r]
		k.Spawn(fmt.Sprintf("w%d", r), func(p *sim.Proc) {
			c := f.NewClient(node, p)
			if err := c.Mkdir("/wide"); err != nil && !fs.IsExist(err) {
				t.Errorf("mkdir: %v", err)
				return
			}
			for i := 0; i < n; i++ {
				if err := c.Create(fmt.Sprintf("/wide/r%d-%d", r, i)); err != nil {
					t.Errorf("create: %v", err)
					return
				}
			}
			if p.Now() > end {
				end = p.Now()
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return end
}

func TestSplitUnserializesSharedDirectory(t *testing.T) {
	// 16 clients hammering one directory: without splitting all creates
	// serialize on the directory's home shard; with splitting they
	// spread over all 4 shards and finish sooner despite paying for the
	// migrations.
	off := splitMakeOnedirRun(t, DefaultConfig(4), 16, 150)
	on := splitMakeOnedirRun(t, splitCfg(128), 16, 150)
	if on >= off {
		t.Errorf("splitting on (%v) not faster than off (%v) for a shared directory", on, off)
	}
}

func TestConcurrentCreatesSurviveSplits(t *testing.T) {
	// Many clients racing creates into one splitting directory: an
	// insert whose service body waited out a concurrent split (lock
	// queueing, service charge) must still land on the slice the
	// split-aware routing consults — no entry may be stranded where
	// Stat/Unlink cannot find it, and no entry may be lost or doubled.
	const (
		workers = 8
		each    = 60
	)
	cfg := splitCfg(32)
	k := sim.New(11)
	cl := cluster.New(k, cluster.DefaultConfig(workers))
	f := New(k, "race", cfg)
	for r := 0; r < workers; r++ {
		r := r
		node := cl.Nodes[r]
		k.Spawn(fmt.Sprintf("w%d", r), func(p *sim.Proc) {
			c := f.NewClient(node, p)
			if err := c.Mkdir("/wide"); err != nil && !fs.IsExist(err) {
				t.Errorf("mkdir: %v", err)
				return
			}
			for i := 0; i < each; i++ {
				if err := c.Create(fmt.Sprintf("/wide/w%d-f%d", r, i)); err != nil {
					t.Errorf("create w%d-f%d: %v", r, i, err)
					return
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if f.SplitLevel("/wide") == 0 {
		t.Fatal("directory did not split under the race")
	}
	// Every entry must live on exactly its authoritative slice.
	total := 0
	for i := 0; i < f.NumShards(); i++ {
		ents, err := f.Namespace(i).ReadDir("/wide", 0)
		if err != nil {
			continue
		}
		for _, e := range ents {
			p := "/wide/" + e.Name
			if want := f.ShardOfEntry(p); want != i {
				t.Errorf("%s stranded on slice %d, authoritative slice %d", p, i, want)
			}
		}
		total += len(ents)
	}
	if total != workers*each {
		t.Errorf("entries across slices = %d, want %d", total, workers*each)
	}
	// And every entry must be reachable through a client.
	k.Spawn("check", func(p *sim.Proc) {
		c := f.NewClient(cl.Nodes[0], p)
		for r := 0; r < workers; r++ {
			for i := 0; i < each; i++ {
				if _, err := c.Stat(fmt.Sprintf("/wide/w%d-f%d", r, i)); err != nil {
					t.Errorf("stat w%d-f%d after race: %v", r, i, err)
					return
				}
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReadDirPartialListingSurfacesDownPeer(t *testing.T) {
	// Satellite regression (PR 5): the subtree root merge used to skip
	// down peers silently. A peer that crashes mid-listing must still be
	// skipped — the listing degrades rather than fails — but the
	// degradation is now counted on FS.PartialListings.
	cfg := DefaultConfig(4)
	cfg.Placement = PlaceSubtree
	cfg.SubtreeAssign = map[string]int{"a": 0, "b": 1, "c": 2, "d": 3}
	k, cl, f := env(t, 1, cfg)
	drive(t, k, cl, f, func(c fs.Client, p *sim.Proc) {
		for _, d := range []string{"/a", "/b", "/c", "/d"} {
			if err := c.Mkdir(d); err != nil {
				t.Fatalf("mkdir %s: %v", d, err)
			}
		}
		full, err := c.ReadDir("/")
		if err != nil {
			t.Fatalf("readdir: %v", err)
		}
		if len(full) != 4 || f.PartialListings != 0 {
			t.Fatalf("healthy listing: %d entries, %d partials", len(full), f.PartialListings)
		}
		// Crash the last-visited peer while the merge is in flight: as
		// the first peer hop arrives, two hops before the last visit.
		home := cl.Nodes[0].Index % f.NumShards()
		last := (home + 3) % 4
		crashAt := cfg.OneWayLatency + readdirService + crossShardOverhead + crossShardLatency
		k.AfterFunc("crash", crashAt, func(q *sim.Proc) { f.Crash(q, last) })
		ents, err := c.ReadDir("/")
		if err != nil {
			t.Fatalf("readdir with down peer: %v", err)
		}
		if len(ents) != 3 {
			t.Errorf("degraded listing has %d entries, want 3", len(ents))
		}
		if f.PartialListings != 1 {
			t.Errorf("PartialListings = %d, want 1", f.PartialListings)
		}
	})
}

func TestSplitReadDirSurfacesDownPeer(t *testing.T) {
	k, cl, f := env(t, 1, splitCfg(64))
	drive(t, k, cl, f, func(c fs.Client, p *sim.Proc) {
		if err := c.Mkdir("/big"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		for i := 0; i < 300; i++ {
			if err := c.Create(fmt.Sprintf("/big/f%d", i)); err != nil {
				t.Fatalf("create: %v", err)
			}
		}
		full, err := c.ReadDir("/big")
		if err != nil {
			t.Fatalf("readdir: %v", err)
		}
		slices := f.splitSlices("/big")
		if len(slices) < 2 {
			t.Fatal("directory did not split across slices")
		}
		f.Crash(p, slices[len(slices)-1])
		ents, err := c.ReadDir("/big")
		if err != nil {
			t.Fatalf("readdir with down partition: %v", err)
		}
		if len(ents) >= len(full) {
			t.Errorf("degraded listing has %d entries, full had %d", len(ents), len(full))
		}
		if f.PartialListings == 0 {
			t.Error("partial split listing not surfaced")
		}
	})
}

// renameTimes returns the virtual time of one same-shard and one
// cross-shard rename with the source and destination directories
// holding extra entries. The entries go straight into the slices that
// own them, so nothing but the directory sizes differs between calls.
func renameTimes(t *testing.T, extra int) (same, cross time.Duration) {
	t.Helper()
	k, cl, f := env(t, 1, DefaultConfig(4))
	src, dst := twoDirsOnDifferentShards(t, f)
	drive(t, k, cl, f, func(c fs.Client, p *sim.Proc) {
		for _, d := range []string{src, dst} {
			if err := c.Mkdir(d); err != nil {
				t.Fatalf("mkdir: %v", err)
			}
			ns := f.shards[f.ShardOfDir(d)].ns
			for i := 0; i < extra; i++ {
				if _, err := ns.Create(fmt.Sprintf("%s/pad%d", d, i), 0o644, p.Now()); err != nil {
					t.Fatalf("pad: %v", err)
				}
			}
		}
		if err := c.Create(src + "/same"); err != nil {
			t.Fatalf("create: %v", err)
		}
		if err := c.Create(src + "/move"); err != nil {
			t.Fatalf("create: %v", err)
		}
		start := p.Now()
		if err := c.Rename(src+"/same", src+"/same2"); err != nil {
			t.Fatalf("same-shard rename: %v", err)
		}
		same = p.Now() - start
		start = p.Now()
		if err := c.Rename(src+"/move", dst+"/move"); err != nil {
			t.Fatalf("cross-shard rename: %v", err)
		}
		cross = p.Now() - start
	})
	return same, cross
}

func TestRenameChargesDirectorySurchargeOnAllBranches(t *testing.T) {
	// Satellite regression (PR 5): the cross-shard migrate used to
	// charge its rename and remove service with dirEntries -1, so a
	// large directory priced a cross-shard rename like an empty one
	// while the local branch paid the full directory-index surcharge.
	// The hashed index charges nothing up to 4096 entries and 1% per
	// doubling beyond, so the large directory holds 4x that.
	big := 4 * 4096
	if dirIndex.EntryCost(big) <= 1 {
		t.Fatalf("%d entries carry no %v surcharge", big, dirIndex)
	}
	sameSmall, crossSmall := renameTimes(t, 4)
	sameBig, crossBig := renameTimes(t, big)
	if sameBig <= sameSmall {
		t.Fatalf("same-shard rename: big dir %v not slower than small %v", sameBig, sameSmall)
	}
	if crossBig <= crossSmall {
		t.Fatalf("cross-shard rename: big dir %v not slower than small %v (surcharge not charged)", crossBig, crossSmall)
	}
	// The cross-shard path pays the surcharge at the source, the
	// destination and the removal, so it cannot grow by less than half
	// the local branch's growth.
	if sameGrowth, crossGrowth := sameBig-sameSmall, crossBig-crossSmall; crossGrowth < sameGrowth/2 {
		t.Errorf("cross-shard surcharge %v vs local %v: large-directory cost not applied consistently",
			crossGrowth, sameGrowth)
	}
}

func TestReaddirCostPageBoundaries(t *testing.T) {
	// Satellite (PR 5): pin the 512-entry paging model of readdirCost,
	// including the n=0 floor of one page.
	cases := []struct {
		n     int
		pages int
	}{
		{0, 1}, {1, 1}, {511, 1}, {512, 1}, {513, 2}, {1024, 2},
	}
	for _, tc := range cases {
		want := time.Duration(tc.pages)*readdirService + time.Duration(tc.n)*readdirPerEntry
		if got := readdirCost(tc.n); got != want {
			t.Errorf("readdirCost(%d) = %v, want %v (%d page(s))", tc.n, got, want, tc.pages)
		}
	}
}

// TestSplitKeepsSideTables checks what a split does to the entries the
// namespace keeps in its side table: 4 subdirectories made before the
// split stay replicated, with ".." naming the split directory on every
// slice that holds them.
func TestSplitKeepsSideTables(t *testing.T) {
	k, cl, f := env(t, 1, splitCfg(64))
	drive(t, k, cl, f, func(c fs.Client, p *sim.Proc) {
		if err := c.Mkdir("/big"); err != nil {
			t.Fatal(err)
		}
		for i := range 4 {
			if err := c.Mkdir(fmt.Sprintf("/big/sub%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; f.SplitLevel("/big") == 0; i++ {
			if err := c.Create(fmt.Sprintf("/big/f%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		dirs := 0
		for s := range f.NumShards() {
			ns := f.Namespace(s)
			big, err := ns.Lookup("/big")
			if err != nil {
				continue
			}
			for i := range 4 {
				up, err := ns.Lookup(fmt.Sprintf("/big/sub%d/..", i))
				if err != nil {
					continue
				}
				dirs++
				if up != big {
					t.Errorf("slice %d: /big/sub%d/.. is inode %d, want /big (%d)", s, i, up.Ino, big.Ino)
				}
			}
		}
		if dirs < 4 {
			t.Errorf("the subdirectories resolve on %d slices in all, want at least 4", dirs)
		}
	})
	for s := range f.NumShards() {
		if p := f.Namespace(s).Check(); len(p) != 0 {
			t.Fatalf("slice %d fsck: %v", s, p)
		}
	}
}
