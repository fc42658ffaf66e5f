package experiments

import (
	"fmt"
	"math/rand"
	"testing"

	"dmetabench/internal/cluster"
	"dmetabench/internal/fs"
	"dmetabench/internal/lustre"
	"dmetabench/internal/namespace"
	"dmetabench/internal/nfs"
	"dmetabench/internal/sim"
)

// FuzzModelsAgainstNamespace is the single-client layer of the semantic
// oracle. A seeded sequence of metadata operations runs through the NFS
// model and the synchronous Lustre model, one client each on one
// kernel, and through a bare namespace.Namespace. Each client drops its
// node's caches before every operation, so every operation reaches the
// server. Every errno must match the reference's, and so must every
// successful Stat's type, size and link count, except where
// modelDeviation lists an intended difference. The committed corpus
// under testdata/fuzz replays on every go test run.
func FuzzModelsAgainstNamespace(f *testing.F) {
	f.Add(int64(1), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		ops := oracleOps(seed, int(n))
		k := sim.New(seed)
		cl := cluster.New(k, cluster.DefaultConfig(1))
		nfsFS := nfs.New(k, "home", nfs.DefaultConfig())
		lustreFS := lustre.New(k, "scratch", lustre.DefaultConfig())
		ref := namespace.New()
		k.Spawn("oracle", func(p *sim.Proc) {
			models := []struct {
				name string
				c    fs.Client
			}{
				{"nfs", nfsFS.NewClient(cl.Nodes[0], p)},
				{"lustre", lustreFS.NewClient(cl.Nodes[0], p)},
			}
			for i, op := range ops {
				walk := ancestorErrno(ref, op.q)
				want := op.applyRef(ref, p)
				for _, m := range models {
					m.c.DropCaches()
					got := op.apply(m.c)
					exp := want
					if dev, ok := modelDeviation(m.name, op, walk); ok {
						exp = dev
					}
					if got != exp {
						t.Errorf("op %d %v on %s: got %+v, reference %+v", i, op, m.name, got, exp)
					}
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		for name, ns := range map[string]*namespace.Namespace{
			"nfs": nfsFS.Namespace(), "lustre": lustreFS.Namespace(),
		} {
			if problems := ns.Check(); len(problems) != 0 {
				t.Errorf("%s namespace after the run: %v", name, problems)
			}
		}
	})
}

// oracleOp is one operation of the sequence: kind on path p, with q the
// second path of rename and link (the new name) or symlink (the
// target), and n the bytes written between open and close.
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
		"rmdir", "rename", "link", "symlink", "write"}
	ops := make([]oracleOp, n)
	for i := range ops {
		ops[i] = oracleOp{kind: kinds[rng.Intn(len(kinds))], p: path(), q: path(),
			n: int64(rng.Intn(200))}
	}
	return ops
}

func (op oracleOp) String() string {
	switch op.kind {
	case "rename", "link", "symlink":
		return fmt.Sprintf("%s(%s, %s)", op.kind, op.p, op.q)
	case "write":
		return fmt.Sprintf("open/write(%d)/close(%s)", op.n, op.p)
	default:
		return fmt.Sprintf("%s(%s)", op.kind, op.p)
	}
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
	case "link":
		return errOutcome(ns.Link(op.p, op.q, now))
	case "symlink":
		_, err := ns.Symlink(op.q, op.p, now)
		return errOutcome(err)
	default: // write: open, write, close
		node, err := ns.Lookup(op.p)
		if err != nil {
			return errOutcome(err)
		}
		// Like the models' flushes, a write to a directory changes
		// nothing and reports nothing.
		_ = ns.SetSize(node.Ino, node.Size+op.n, now)
		return outcome{}
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
	case "link":
		return errOutcome(c.Link(op.p, op.q))
	case "symlink":
		return errOutcome(c.Symlink(op.q, op.p))
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

// ancestorErrno is the errno of the first strict ancestor of p that does
// not resolve in ns, OK if all do: the walk an NFS client makes with one
// LOOKUP per component before it sends the operation.
func ancestorErrno(ns *namespace.Namespace, p string) fs.Errno {
	for i := 1; i < len(p); i++ {
		if p[i] != '/' {
			continue
		}
		if _, err := ns.Stat(p[:i]); err != nil {
			return fs.CodeOf(err)
		}
	}
	return fs.OK
}

// modelDeviation returns the outcome a model intends where it differs
// from the reference namespace. walk is ancestorErrno of op.q before op
// ran.
//
//   - NFS link walks the new name's ancestors on the client before the
//     server looks at the old path, so when the new name's walk fails
//     that failure is the answer, whatever the old path would report.
func modelDeviation(model string, op oracleOp, walk fs.Errno) (outcome, bool) {
	if model == "nfs" && op.kind == "link" && walk != fs.OK {
		return outcome{errno: walk}, true
	}
	return outcome{}, false
}
