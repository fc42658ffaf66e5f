package experiments

import (
	"fmt"
	"math/rand"
	"testing"

	"dmetabench/internal/afs"
	"dmetabench/internal/cluster"
	"dmetabench/internal/cxfs"
	"dmetabench/internal/fs"
	"dmetabench/internal/localfs"
	"dmetabench/internal/lustre"
	"dmetabench/internal/namespace"
	"dmetabench/internal/nfs"
	"dmetabench/internal/ontapgx"
	"dmetabench/internal/shard"
	"dmetabench/internal/sim"
)

// FuzzModelsAgainstNamespace is the single-client layer of the semantic
// oracle. A seeded sequence of metadata operations runs through the NFS
// model, the synchronous Lustre model, CXFS, the node-local file system,
// a one-volume Ontap GX cluster and a one-volume AFS cell, one client
// each on one kernel, and through a bare namespace.Namespace. The GX and
// AFS clients see every path under their volume, /v, and the root as /v
// itself. Each client drops its node's caches before every operation,
// so every operation reaches the server, except on AFS, whose cache
// survives drop_caches and answers from callbacks. Every errno must
// match the reference's, and so must every successful Stat's type, size
// and link count. The committed corpus under testdata/fuzz replays on
// every go test run.
func FuzzModelsAgainstNamespace(f *testing.F) {
	f.Add(int64(1), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		ops := oracleOps(seed, int(n))
		k := sim.New(seed)
		cl := cluster.New(k, cluster.DefaultConfig(1))
		nfsFS := nfs.New(k, "home", nfs.DefaultConfig())
		lustreFS := lustre.New(k, "scratch", lustre.DefaultConfig())
		cxfsFS := cxfs.New(k, "san")
		localFS := localfs.New(k, cl.Nodes[0])
		gxFS := ontapgx.New(k, "gx", 1, ontapgx.DefaultConfig())
		gxFS.AddVolume("v", 0)
		afsFS := afs.New(k, "cell", 1, afs.DefaultConfig())
		afsFS.AddVolume("v", 0)
		ref := namespace.New()
		k.Spawn("oracle", func(p *sim.Proc) {
			models := []struct {
				name string
				c    fs.Client
				base string
			}{
				{"nfs", nfsFS.NewClient(cl.Nodes[0], p), ""},
				{"lustre", lustreFS.NewClient(cl.Nodes[0], p), ""},
				{"cxfs", cxfsFS.NewClient(cl.Nodes[0], p), ""},
				{"localfs", localFS.NewClient(cl.Nodes[0], p), ""},
				{"ontapgx", gxFS.NewClient(cl.Nodes[0], p), "/v"},
				{"afs", afsFS.NewClient(cl.Nodes[0], p), "/v"},
			}
			for i, op := range ops {
				want := op.applyRef(ref, p)
				for _, m := range models {
					m.c.DropCaches()
					if got := op.under(m.base).apply(m.c); got != want {
						t.Errorf("op %d %v on %s: got %+v, reference %+v", i, op, m.name, got, want)
					}
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		for name, ns := range map[string]*namespace.Namespace{
			"nfs": nfsFS.Namespace(), "lustre": lustreFS.Namespace(), "cxfs": cxfsFS.Namespace(),
			"localfs": localFS.Namespace(),
		} {
			if problems := ns.Check(); len(problems) != 0 {
				t.Errorf("%s namespace after the run: %v", name, problems)
			}
		}
	})
}

// TestShardLeaseOracleTwoNodes is the two-client layer of the oracle
// for lease coherence. Two nodes on a 4-shard CacheLease file system
// take turns through the oracleOps of seeds 1 to 40, and after each
// operation the other node stats the operation's path, with no cache
// drop anywhere, so each node reads through leases the other's
// mutations must revoke. TrackStaleness compares every cache hit with
// the path's owner slice, and no hit on a regular file may be stale.
// Directories are left out only because their hash-placed replicas
// disagree: creates and unlinks update the content slice's copy of a
// directory, GETATTR answers from the owner slice's copy, and a
// mutator's reply caches the content copy (CHANGES.md, FOUND). The
// test pins the run's totals, so a change to the lease protocol shows
// here as well.
func TestShardLeaseOracleTwoNodes(t *testing.T) {
	var hits, misses, grants, revocations, dirStale int64
	staleSeeds := 0
	for seed := int64(1); seed <= 40; seed++ {
		k := sim.New(seed)
		cl := cluster.New(k, cluster.DefaultConfig(2))
		cfg := shard.DefaultConfig(4)
		cfg.CacheMode = shard.CacheLease
		cfg.TrackStaleness = true
		fsys := shard.New(k, "meta", cfg)
		var seedStale int64
		k.Spawn("oracle", func(p *sim.Proc) {
			nodes := []fs.Client{fsys.NewClient(cl.Nodes[0], p), fsys.NewClient(cl.Nodes[1], p)}
			// stat runs one Stat on c and sorts a stale hit by the type
			// it answered.
			stat := func(i int, c fs.Client, path string) {
				before := fsys.StaleReads
				a, _ := c.Stat(path)
				if fsys.StaleReads == before {
					return
				}
				if a.Type != fs.TypeDirectory {
					t.Errorf("seed %d op %d: stale hit on %s, a %v", seed, i, path, a.Type)
				}
				seedStale += fsys.StaleReads - before
			}
			for i, op := range oracleOps(seed, 255) {
				if op.kind == "stat" {
					stat(i, nodes[i%2], op.p)
				} else {
					op.apply(nodes[i%2])
				}
				stat(i, nodes[(i+1)%2], op.p)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		h, m, _, _ := fsys.CacheStats()
		hits, misses, grants, revocations = hits+h, misses+m, grants+fsys.LeaseGrants, revocations+fsys.Revocations
		dirStale += seedStale
		if seedStale > 0 {
			staleSeeds++
		}
	}
	t.Logf("%d hits, %d misses, %d grants, %d revocations, %d stale directory hits in %d seeds",
		hits, misses, grants, revocations, dirStale, staleSeeds)
	got := [6]int64{hits, misses, grants, revocations, dirStale, int64(staleSeeds)}
	if want := [6]int64{4556, 7735, 7056, 1286, 420, 37}; got != want {
		t.Errorf("hits, misses, grants, revocations, stale directory hits, seeds with one = %v, want %v", got, want)
	}
}

// oracleOp is one operation of the sequence: kind on path p, with q the
// new name of a rename, and n the bytes written between open and close.
type oracleOp struct {
	kind string
	p, q string
	n    int64
}

// outcome is what the test compares: the errno, and for a successful
// Stat the type, size and link count.
type outcome struct {
	errno fs.Errno
	typ   fs.FileType
	size  int64
	nlink uint32
}

func statOutcome(a fs.Attr, err error) outcome {
	if err != nil {
		return outcome{errno: fs.CodeOf(err)}
	}
	return outcome{typ: a.Type, size: a.Size, nlink: a.Nlink}
}

func errOutcome(err error) outcome { return outcome{errno: fs.CodeOf(err)} }

// oracleOps draws n operations over a small tree, so names collide often
// and every error path is reached: three names at depths one to three,
// and the root now and then.
func oracleOps(seed int64, n int) []oracleOp {
	rng := rand.New(rand.NewSource(seed))
	path := func() string {
		if rng.Intn(40) == 0 {
			return "/"
		}
		p := ""
		for d := 1 + rng.Intn(3); d > 0; d-- {
			p += "/" + string(rune('a'+rng.Intn(3)))
		}
		return p
	}
	kinds := []string{"mkdir", "mkdir", "create", "create", "stat", "stat", "unlink",
		"rmdir", "rename", "write"}
	ops := make([]oracleOp, n)
	for i := range ops {
		ops[i] = oracleOp{kind: kinds[rng.Intn(len(kinds))], p: path(), q: path(),
			n: int64(rng.Intn(200))}
	}
	return ops
}

func (op oracleOp) String() string {
	switch op.kind {
	case "rename":
		return fmt.Sprintf("%s(%s, %s)", op.kind, op.p, op.q)
	case "write":
		return fmt.Sprintf("open/write(%d)/close(%s)", op.n, op.p)
	default:
		return fmt.Sprintf("%s(%s)", op.kind, op.p)
	}
}

// under returns op with both paths moved below base, the root to base
// itself; an empty base leaves op as it is.
func (op oracleOp) under(base string) oracleOp {
	if base == "" {
		return op
	}
	at := func(p string) string {
		if p == "/" {
			return base
		}
		return base + p
	}
	op.p, op.q = at(op.p), at(op.q)
	return op
}

// applyRef runs op on the reference namespace at p's virtual time.
func (op oracleOp) applyRef(ns *namespace.Namespace, p *sim.Proc) outcome {
	now := p.Now()
	switch op.kind {
	case "mkdir":
		_, err := ns.Mkdir(op.p, 0o755, now)
		return errOutcome(err)
	case "create":
		_, err := ns.Create(op.p, 0o644, now)
		return errOutcome(err)
	case "stat":
		return statOutcome(ns.Stat(op.p))
	case "unlink":
		return errOutcome(ns.Unlink(op.p, now))
	case "rmdir":
		return errOutcome(ns.Rmdir(op.p, now))
	case "rename":
		return errOutcome(ns.Rename(op.p, op.q, now))
	default: // write: open, write, close
		node, err := ns.Lookup(op.p)
		if err != nil {
			return errOutcome(err)
		}
		// A write to a directory fails with EISDIR.
		return errOutcome(ns.SetSize(node.Ino, node.Size+op.n, now))
	}
}

// apply runs op through a model client.
func (op oracleOp) apply(c fs.Client) outcome {
	switch op.kind {
	case "mkdir":
		return errOutcome(c.Mkdir(op.p))
	case "create":
		return errOutcome(c.Create(op.p))
	case "stat":
		return statOutcome(c.Stat(op.p))
	case "unlink":
		return errOutcome(c.Unlink(op.p))
	case "rmdir":
		return errOutcome(c.Rmdir(op.p))
	case "rename":
		return errOutcome(c.Rename(op.p, op.q))
	default:
		h, err := c.Open(op.p)
		if err != nil {
			return errOutcome(err)
		}
		if err := c.Write(h, op.n); err != nil {
			return errOutcome(err)
		}
		return errOutcome(c.Close(h))
	}
}
