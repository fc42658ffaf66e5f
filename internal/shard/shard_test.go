package shard

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dmetabench/internal/cluster"
	"dmetabench/internal/fs"
	"dmetabench/internal/sim"
)

// env builds a kernel, a small cluster and a sharded FS.
func env(t *testing.T, nodes int, cfg Config) (*sim.Kernel, *cluster.Cluster, *FS) {
	t.Helper()
	k := sim.New(42)
	cl := cluster.New(k, cluster.DefaultConfig(nodes))
	return k, cl, New(k, "test", cfg)
}

// drive runs fn as a single simulated process and drives the kernel.
func drive(t *testing.T, k *sim.Kernel, cl *cluster.Cluster, f *FS, fn func(c fs.Client, p *sim.Proc)) {
	t.Helper()
	k.Spawn("test", func(p *sim.Proc) {
		fn(f.NewClient(cl.Nodes[0], p), p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// twoDirsOnDifferentShards returns two top-level directory paths whose
// file contents live on different shards under the given FS.
func twoDirsOnDifferentShards(t *testing.T, f *FS) (string, string) {
	t.Helper()
	first := "/d0"
	for i := 1; i < 64; i++ {
		cand := fmt.Sprintf("/d%d", i)
		if f.ShardOfDir(cand) != f.ShardOfDir(first) {
			return first, cand
		}
	}
	t.Fatal("no shard-crossing directory pair found")
	return "", ""
}

func TestHashPlacementRouting(t *testing.T) {
	_, _, f := env(t, 1, DefaultConfig(4))
	// All files of one directory belong to one shard (partition by
	// parent), and the shard of an entry is the shard of its parent's
	// contents.
	if f.ShardOfEntry("/a/f1") != f.ShardOfEntry("/a/f2") {
		t.Error("files of one directory routed to different shards")
	}
	if f.ShardOfEntry("/a/f1") != f.ShardOfDir("/a") {
		t.Error("entry owner disagrees with parent content shard")
	}
	// Directory grain: at least two of these dirs must land on
	// different shards for a 4-way partition of 32 names.
	seen := map[int]bool{}
	for i := 0; i < 32; i++ {
		seen[f.ShardOfDir(fmt.Sprintf("/dir%d", i))] = true
	}
	if len(seen) < 2 {
		t.Errorf("32 directories all hashed to %d shard(s)", len(seen))
	}
}

func TestSubtreeAssignPinsPlacement(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Placement = PlaceSubtree
	cfg.SubtreeAssign = map[string]int{"p0": 0, "p1": 1, "p2": 2, "p3": 3}
	_, _, f := env(t, 1, cfg)
	for i := 0; i < 4; i++ {
		top := fmt.Sprintf("/p%d", i)
		if got := f.ShardOfDir(top); got != i {
			t.Errorf("ShardOfDir(%s) = %d, want %d", top, got, i)
		}
		// Everything below the subtree stays on the same shard.
		if got := f.ShardOfEntry(top + "/sub/file"); got != i {
			t.Errorf("ShardOfEntry(%s/sub/file) = %d, want %d", top, got, i)
		}
	}
	if f.ShardOfDir("/") != -1 {
		t.Error("subtree root should span shards (ShardOfDir = -1)")
	}
}

func TestHashDirReplication(t *testing.T) {
	k, cl, f := env(t, 1, DefaultConfig(4))
	drive(t, k, cl, f, func(c fs.Client, p *sim.Proc) {
		if err := c.Mkdir("/proj"); err != nil {
			t.Errorf("mkdir: %v", err)
		}
		if err := c.Mkdir("/proj/sub"); err != nil {
			t.Errorf("mkdir sub: %v", err)
		}
	})
	// Directories must exist in every shard's namespace.
	for i := 0; i < f.NumShards(); i++ {
		for _, dir := range []string{"/proj", "/proj/sub"} {
			if _, err := f.Namespace(i).Stat(dir); err != nil {
				t.Errorf("shard %d missing replicated dir %s: %v", i, dir, err)
			}
		}
	}
	if f.BroadcastCount != 2 {
		t.Errorf("BroadcastCount = %d, want 2", f.BroadcastCount)
	}

	// Rmdir removes the replica everywhere.
	k2 := sim.New(43)
	cl2 := cluster.New(k2, cluster.DefaultConfig(1))
	f2 := New(k2, "test2", DefaultConfig(4))
	k2.Spawn("rm", func(p *sim.Proc) {
		c := f2.NewClient(cl2.Nodes[0], p)
		c.Mkdir("/gone")
		if err := c.Rmdir("/gone"); err != nil {
			t.Errorf("rmdir: %v", err)
		}
	})
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < f2.NumShards(); i++ {
		if _, err := f2.Namespace(i).Stat("/gone"); !fs.IsNotExist(err) {
			t.Errorf("shard %d still has removed dir (err=%v)", i, err)
		}
	}
}

func TestCrossShardRenameMigratesFile(t *testing.T) {
	k, cl, f := env(t, 1, DefaultConfig(4))
	src, dst := twoDirsOnDifferentShards(t, f)
	drive(t, k, cl, f, func(c fs.Client, p *sim.Proc) {
		for _, d := range []string{src, dst} {
			if err := c.Mkdir(d); err != nil {
				t.Fatalf("mkdir %s: %v", d, err)
			}
		}
		if err := c.Create(src + "/f"); err != nil {
			t.Fatalf("create: %v", err)
		}
		h, err := c.Open(src + "/f")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		c.Write(h, 1000)
		c.Close(h)
		before := f.CrossCount
		if err := c.Rename(src+"/f", dst+"/f"); err != nil {
			t.Fatalf("cross-shard rename: %v", err)
		}
		if f.CrossCount <= before {
			t.Error("cross-shard rename did not cross the interconnect")
		}
		if _, err := c.Stat(src + "/f"); !fs.IsNotExist(err) {
			t.Errorf("source still present after migrate (err=%v)", err)
		}
		a, err := c.Stat(dst + "/f")
		if err != nil {
			t.Fatalf("stat migrated file: %v", err)
		}
		if a.Size != 1000 {
			t.Errorf("migrated size = %d, want 1000", a.Size)
		}
	})
}

func TestSameShardRenameStaysLocal(t *testing.T) {
	k, cl, f := env(t, 1, DefaultConfig(4))
	drive(t, k, cl, f, func(c fs.Client, p *sim.Proc) {
		if err := c.Mkdir("/dir"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := c.Create("/dir/a"); err != nil {
			t.Fatalf("create: %v", err)
		}
		before := f.CrossCount
		if err := c.Rename("/dir/a", "/dir/b"); err != nil {
			t.Fatalf("rename: %v", err)
		}
		if f.CrossCount != before {
			t.Error("same-directory rename crossed the interconnect")
		}
	})
}

func TestCrossShardDirRenameEXDEV(t *testing.T) {
	k, cl, f := env(t, 1, DefaultConfig(4))
	src, dst := twoDirsOnDifferentShards(t, f)
	drive(t, k, cl, f, func(c fs.Client, p *sim.Proc) {
		for _, d := range []string{src, dst} {
			if err := c.Mkdir(d); err != nil {
				t.Fatalf("mkdir %s: %v", d, err)
			}
		}
		if err := c.Mkdir(src + "/sub"); err != nil {
			t.Fatalf("mkdir sub: %v", err)
		}
		if err := c.Rename(src+"/sub", dst+"/sub"); fs.CodeOf(err) != fs.EXDEV {
			t.Errorf("cross-shard dir rename: got %v, want EXDEV", err)
		}
	})
}

func TestSubtreeRootReadDirMerges(t *testing.T) {
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
		before := f.CrossCount
		ents, err := c.ReadDir("/")
		if err != nil {
			t.Fatalf("readdir /: %v", err)
		}
		if len(ents) != 4 {
			t.Errorf("root listing has %d entries, want 4", len(ents))
		}
		if f.CrossCount != before+3 {
			t.Errorf("root readdir crossed %d times, want 3 (one per peer)", f.CrossCount-before)
		}
	})
}

func TestSubtreeOpsStayOnOwningShard(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Placement = PlaceSubtree
	cfg.SubtreeAssign = map[string]int{"vol": 2}
	k, cl, f := env(t, 1, cfg)
	drive(t, k, cl, f, func(c fs.Client, p *sim.Proc) {
		if err := c.Mkdir("/vol"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := c.Mkdir("/vol/sub"); err != nil {
			t.Fatalf("mkdir sub: %v", err)
		}
		for i := 0; i < 10; i++ {
			if err := c.Create(fmt.Sprintf("/vol/sub/f%d", i)); err != nil {
				t.Fatalf("create: %v", err)
			}
		}
		if f.CrossCount != 0 || f.BroadcastCount != 0 {
			t.Errorf("subtree-local ops crossed shards: cross=%d bcast=%d",
				f.CrossCount, f.BroadcastCount)
		}
	})
	ops := f.ShardOps()
	for i, n := range ops {
		if i == 2 && n == 0 {
			t.Error("owning shard served no operations")
		}
		if i != 2 && n != 0 {
			t.Errorf("shard %d served %d ops, want 0", i, n)
		}
	}
}

// makeFilesRun drives w concurrent creator processes of n files each in
// per-process directories and returns the virtual completion time.
func makeFilesRun(t *testing.T, shards, w, n int) time.Duration {
	t.Helper()
	k := sim.New(7)
	cl := cluster.New(k, cluster.DefaultConfig(w))
	f := New(k, "scale", DefaultConfig(shards))
	var end time.Duration
	for r := 0; r < w; r++ {
		r := r
		node := cl.Nodes[r]
		k.Spawn(fmt.Sprintf("w%d", r), func(p *sim.Proc) {
			c := f.NewClient(node, p)
			dir := fmt.Sprintf("/w%d", r)
			if err := c.Mkdir(dir); err != nil {
				t.Errorf("mkdir: %v", err)
				return
			}
			for i := 0; i < n; i++ {
				if err := c.Create(fmt.Sprintf("%s/f%d", dir, i)); err != nil {
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

func TestShardScalingReducesCompletionTime(t *testing.T) {
	// 32 concurrent clients oversubscribe one shard's 4 worker threads
	// (~7.4 threads of demand); 4 shards spread the queueing.
	one := makeFilesRun(t, 1, 32, 150)
	four := makeFilesRun(t, 4, 32, 150)
	if four >= one {
		t.Errorf("4 shards (%v) not faster than 1 shard (%v)", four, one)
	}
}

func TestIdenticalSeedsIdenticalCounters(t *testing.T) {
	run := func() (int64, int64, int64, time.Duration) {
		k := sim.New(99)
		cl := cluster.New(k, cluster.DefaultConfig(4))
		f := New(k, "det", DefaultConfig(4))
		var end time.Duration
		for r := 0; r < 4; r++ {
			r := r
			node := cl.Nodes[r]
			k.Spawn(fmt.Sprintf("w%d", r), func(p *sim.Proc) {
				c := f.NewClient(node, p)
				dir := fmt.Sprintf("/w%d", r)
				c.Mkdir(dir)
				for i := 0; i < 100; i++ {
					c.Create(fmt.Sprintf("%s/f%d", dir, i))
				}
				c.Rename(fmt.Sprintf("%s/f0", dir), fmt.Sprintf("%s/g0", dir))
				end = p.Now()
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return f.RPCCount(), f.CrossCount, f.BroadcastCount, end
	}
	r1, c1, b1, e1 := run()
	r2, c2, b2, e2 := run()
	if r1 != r2 || c1 != c2 || b1 != b2 || e1 != e2 {
		t.Errorf("identically-seeded runs diverged: rpc %d/%d cross %d/%d bcast %d/%d end %v/%v",
			r1, r2, c1, c2, b1, b2, e1, e2)
	}
}

func TestHashDirRenameEXDEVSameParent(t *testing.T) {
	// Under hash placement even a same-parent directory rename is
	// refused: the partition key of every descendant embeds the
	// directory path, and the replicated tree would go stale.
	k, cl, f := env(t, 1, DefaultConfig(4))
	drive(t, k, cl, f, func(c fs.Client, p *sim.Proc) {
		if err := c.Mkdir("/proj"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := c.Rename("/proj", "/proj2"); fs.CodeOf(err) != fs.EXDEV {
			t.Errorf("hash dir rename: got %v, want EXDEV", err)
		}
		// Replicas must still agree on the original name.
		for i := 0; i < f.NumShards(); i++ {
			if _, err := f.Namespace(i).Stat("/proj"); err != nil {
				t.Errorf("shard %d lost /proj after refused rename: %v", i, err)
			}
			if _, err := f.Namespace(i).Stat("/proj2"); !fs.IsNotExist(err) {
				t.Errorf("shard %d grew /proj2 after refused rename", i)
			}
		}
		// File renames in one directory stay allowed.
		if err := c.Create("/proj/f"); err != nil {
			t.Fatalf("create: %v", err)
		}
		if err := c.Rename("/proj/f", "/proj/g"); err != nil {
			t.Errorf("same-dir file rename: %v", err)
		}
	})
}

func TestSubtreeDirRenameInsideSubtree(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Placement = PlaceSubtree
	cfg.SubtreeAssign = map[string]int{"vol": 1}
	k, cl, f := env(t, 1, cfg)
	drive(t, k, cl, f, func(c fs.Client, p *sim.Proc) {
		if err := c.Mkdir("/vol"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := c.Mkdir("/vol/a"); err != nil {
			t.Fatalf("mkdir a: %v", err)
		}
		if err := c.Create("/vol/a/f"); err != nil {
			t.Fatalf("create: %v", err)
		}
		if err := c.Rename("/vol/a", "/vol/b"); err != nil {
			t.Fatalf("subtree-local dir rename: %v", err)
		}
		if _, err := c.Stat("/vol/b/f"); err != nil {
			t.Errorf("file lost by local dir rename: %v", err)
		}
	})
}

// TestWriteToDirectoryEISDIR checks that a write flushed to a directory
// fails with EISDIR, as POSIX write(2) on a directory does, and leaves
// the directory untouched, on every flush path: Close and Fsync.
func TestWriteToDirectoryEISDIR(t *testing.T) {
	k, cl, f := env(t, 1, DefaultConfig(4))
	drive(t, k, cl, f, func(c fs.Client, p *sim.Proc) {
		if err := c.Mkdir("/d"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		for _, flush := range []struct {
			name string
			fn   func(fs.Handle) error
		}{{"close", c.Close}, {"fsync", c.Fsync}} {
			h, err := c.Open("/d")
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			if err := c.Write(h, 100); err != nil {
				t.Fatalf("write: %v", err)
			}
			if err := flush.fn(h); fs.CodeOf(err) != fs.EISDIR {
				t.Errorf("%s after a write to a directory: %v, want EISDIR", flush.name, err)
			}
		}
		if a, err := f.Namespace(f.ShardOfEntry("/d")).Stat("/d"); err != nil || a.Size != 0 {
			t.Errorf("directory after the refused writes: %+v, %v; want size 0", a, err)
		}
	})
}

// TestWalkUnderFileENOTDIR checks that an operation below a regular
// file fails at the parent with ENOTDIR, as a POSIX walk does, and not
// with the ENOENT of the operation's own shard, which never holds the
// file. Cold, the parent's LOOKUP reply answers; warm, its cached
// dentry answers without an RPC.
func TestWalkUnderFileENOTDIR(t *testing.T) {
	ops := []struct {
		name string
		fn   func(c fs.Client, p string) error
	}{
		{"stat", func(c fs.Client, p string) error { _, err := c.Stat(p); return err }},
		{"create", fs.Client.Create},
		{"mkdir", fs.Client.Mkdir},
		{"unlink", fs.Client.Unlink},
	}
	for _, warm := range []bool{false, true} {
		for _, op := range ops {
			k, cl, f := env(t, 1, DefaultConfig(4))
			drive(t, k, cl, f, func(c fs.Client, p *sim.Proc) {
				if err := c.Mkdir("/d"); err != nil {
					t.Fatalf("mkdir: %v", err)
				}
				if err := c.Create("/d/f"); err != nil {
					t.Fatalf("create: %v", err)
				}
				if !warm {
					c.DropCaches()
				}
				for _, target := range []string{"/d/f/x", "/d/f/x/y"} {
					rpcs := f.RPCCount()
					err := op.fn(c, target)
					var fe *fs.Error
					if !errors.As(err, &fe) || fe.Code != fs.ENOTDIR || fe.Path != "/d/f" {
						t.Errorf("warm=%v %s(%s) = %v; want ENOTDIR at /d/f", warm, op.name, target, err)
					}
					if sent := f.RPCCount() - rpcs; warm && sent != 0 {
						t.Errorf("warm=%v %s(%s) sent %d RPCs; the cached dentry must answer", warm, op.name, target, sent)
					}
				}
			})
		}
	}
}

// TestRmdirOfFileENOTDIR checks that rmdir of a regular file answers
// ENOTDIR under hash placement, where the file lives on its owner slice
// and not on the slice that would hold a directory's entries, at depth
// 1 and 2 with cold and warm caches. A missing name still answers
// ENOENT.
func TestRmdirOfFileENOTDIR(t *testing.T) {
	for _, warm := range []bool{false, true} {
		k, cl, f := env(t, 1, DefaultConfig(4))
		drive(t, k, cl, f, func(c fs.Client, p *sim.Proc) {
			if err := c.Mkdir("/d"); err != nil {
				t.Fatalf("mkdir: %v", err)
			}
			for _, file := range []string{"/f", "/d/f"} {
				if err := c.Create(file); err != nil {
					t.Fatalf("create %s: %v", file, err)
				}
				if !warm {
					c.DropCaches()
				}
				if err := c.Rmdir(file); fs.CodeOf(err) != fs.ENOTDIR {
					t.Errorf("warm=%v rmdir(%s) = %v; want ENOTDIR", warm, file, err)
				}
				if _, err := c.Stat(file); err != nil {
					t.Errorf("warm=%v stat(%s) after the failed rmdir: %v", warm, file, err)
				}
			}
			if err := c.Rmdir("/d/none"); fs.CodeOf(err) != fs.ENOENT {
				t.Errorf("warm=%v rmdir(/d/none) = %v; want ENOENT", warm, err)
			}
		})
	}
}
