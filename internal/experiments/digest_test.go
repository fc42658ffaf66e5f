package experiments

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"
	"time"

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

// digestModel is one model configuration under TestModelDigests: its
// client, the directory the script works in, its RPC count and the
// namespaces it exposes for Check (none for the volume models, whose
// volume namespaces are private).
type digestModel struct {
	client func(n *cluster.Node, p *sim.Proc) fs.Client
	base   string
	rpcs   func() int64
	spaces func() []*namespace.Namespace
}

// modelDigests are the committed digests of TestModelDigests. A change
// that means to alter a model's simulated behaviour updates its digest
// in the same diff; any other change must leave them as they are.
var modelDigests = map[string]string{
	"nfs":         "a50161826a00df63",
	"lustre":      "0402202dd56dca27",
	"lustre-wb":   "98ec827cbefd38e2",
	"cxfs":        "a1162e2e0e33cf3e",
	"afs":         "c6e7fc21b56f6c6b",
	"ontapgx":     "4480b888e5735203",
	"localfs":     "5e7d2f199ec8a070",
	"shard-ttl":   "990ee16494a49d90",
	"shard-lease": "33519a80ce461ccc",
	"shard-repl":  "a764283d474a015b",
}

// digestModels builds each configuration of TestModelDigests on its
// own kernel and one-node cluster, so that no two share a node's CPU or
// its directory locks.
var digestModels = map[string]func(k *sim.Kernel, cl *cluster.Cluster) digestModel{
	"nfs": func(k *sim.Kernel, _ *cluster.Cluster) digestModel {
		f := nfs.New(k, "home", nfs.DefaultConfig())
		return digestModel{f.NewClient, "", f.RPCCount, oneSpace(f.Namespace())}
	},
	"lustre":    lustreDigest(false),
	"lustre-wb": lustreDigest(true),
	"cxfs": func(k *sim.Kernel, _ *cluster.Cluster) digestModel {
		f := cxfs.New(k, "san")
		return digestModel{f.NewClient, "", f.RPCCount, oneSpace(f.Namespace())}
	},
	"afs": func(k *sim.Kernel, _ *cluster.Cluster) digestModel {
		f := afs.New(k, "cell", 2, afs.DefaultConfig())
		f.AddVolume("vol0", -1)
		return digestModel{f.NewClient, "/vol0", f.RPCCount, nil}
	},
	"ontapgx": func(k *sim.Kernel, _ *cluster.Cluster) digestModel {
		f := ontapgx.New(k, "gx", 2, ontapgx.DefaultConfig())
		f.AddVolume("vol0", 1) // node 0 mounts through filer 0: every request is forwarded
		return digestModel{f.NewClient, "/vol0", f.RPCCount, nil}
	},
	"localfs": func(k *sim.Kernel, cl *cluster.Cluster) digestModel {
		f := localfs.New(k, cl.Nodes[0])
		return digestModel{f.NewClient, "", func() int64 { return 0 }, oneSpace(f.Namespace())}
	},
	"shard-ttl":   shardDigest(func(*shard.Config) {}),
	"shard-lease": shardDigest(func(c *shard.Config) { c.CacheMode = shard.CacheLease }),
	"shard-repl":  shardDigest(func(c *shard.Config) { c.Replicate = true }),
}

func oneSpace(ns *namespace.Namespace) func() []*namespace.Namespace {
	return func() []*namespace.Namespace { return []*namespace.Namespace{ns} }
}

func lustreDigest(writeback bool) func(k *sim.Kernel, _ *cluster.Cluster) digestModel {
	return func(k *sim.Kernel, _ *cluster.Cluster) digestModel {
		cfg := lustre.DefaultConfig()
		cfg.Writeback = writeback
		f := lustre.New(k, "scratch", cfg)
		return digestModel{f.NewClient, "", f.RPCCount, oneSpace(f.Namespace())}
	}
}

// shardDigest is a four-shard hash-placed MDS with tweak applied.
func shardDigest(tweak func(*shard.Config)) func(k *sim.Kernel, _ *cluster.Cluster) digestModel {
	return func(k *sim.Kernel, _ *cluster.Cluster) digestModel {
		cfg := shard.DefaultConfig(4)
		tweak(&cfg)
		f := shard.New(k, "meta", cfg)
		return digestModel{f.NewClient, "", f.RPCCount, func() []*namespace.Namespace {
			var out []*namespace.Namespace
			for i := 0; i < f.NumShards(); i++ {
				out = append(out, f.Namespace(i))
			}
			return out
		}}
	}
}

// digestScript runs the fixed script through c under base and logs, for
// every op, its errno, a successful Stat's type, size and link count,
// and the virtual time after it. It also sleeps past every model's
// attribute TTL, which a lease outlives. It calls every fs.Client method, and
// reaches EEXIST, ENOTEMPTY, ENOENT, EBADF (a write, fsync and close
// through a closed handle) and EISDIR (bytes flushed to a directory).
func digestScript(w io.Writer, c fs.Client, p *sim.Proc, base string) {
	d := base + "/d"
	step := func(op string, err error) {
		fmt.Fprintf(w, "%s %v %d\n", op, fs.CodeOf(err), p.Now())
	}
	stat := func(path string) {
		a, err := c.Stat(path)
		if err == nil {
			fmt.Fprintf(w, "stat %s %v %d %d ", path, a.Type, a.Size, a.Nlink)
		}
		step("stat "+path, err)
	}
	step("mkdir", c.Mkdir(d))
	step("create", c.Create(d+"/f"))
	step("create again", c.Create(d+"/f"))
	stat(d + "/f")
	h, err := c.Open(d + "/f")
	step("open", err)
	step("write", c.Write(h, 100))
	step("fsync", c.Fsync(h))
	step("write", c.Write(h, 4000))
	step("close", c.Close(h))
	stat(d + "/f")
	p.Sleep(5 * time.Second) // past every attribute TTL, within a lease
	stat(d + "/f")
	step("write closed", c.Write(h, 10))
	step("fsync closed", c.Fsync(h))
	step("close closed", c.Close(h))
	hd, err := c.Open(d)
	step("open dir", err)
	step("write dir", c.Write(hd, 10))
	step("close dir", c.Close(hd))
	step("link", c.Link(d+"/f", d+"/g"))
	stat(d + "/g")
	step("symlink", c.Symlink("f", d+"/s"))
	step("rename", c.Rename(d+"/g", d+"/h"))
	ents, err := c.ReadDir(d)
	fmt.Fprintf(w, "readdir %d ", len(ents))
	step("readdir", err)
	c.DropCaches()
	step("dropcaches", nil)
	stat(d + "/f")
	stat(d + "/h")
	step("mkdir e", c.Mkdir(d+"/e"))
	step("create e/x", c.Create(d+"/e/x"))
	stat(d + "/e/x")
	step("rmdir nonempty", c.Rmdir(d))
	step("rmdir missing", c.Rmdir(d+"/none"))
	step("unlink e/x", c.Unlink(d+"/e/x"))
	step("rmdir e", c.Rmdir(d+"/e"))
	for _, name := range []string{"f", "h", "s"} {
		step("unlink "+name, c.Unlink(d+"/"+name))
	}
	stat(d + "/f")
	step("rmdir", c.Rmdir(d))
	_, err = c.ReadDir(d)
	step("readdir gone", err)
}

// TestModelDigests is tier-1's drift check: one seeded client per model
// configuration runs digestScript, and the hash of its log, the model's
// RPC count and Check() of its namespaces must equal the committed
// digest. The determinism tests compare two runs of the same code; this
// test compares against a committed output, so a change to a model's
// costs or answers fails here, not only in a full suite diff.
func TestModelDigests(t *testing.T) {
	for name, build := range digestModels {
		k := sim.New(1)
		cl := cluster.New(k, cluster.DefaultConfig(1))
		m := build(k, cl)
		h := fnv.New64a()
		k.Spawn("digest", func(p *sim.Proc) {
			digestScript(h, m.client(cl.Nodes[0], p), p, m.base)
		})
		if err := k.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(h, "rpcs %d\n", m.rpcs())
		if m.spaces != nil {
			for _, ns := range m.spaces() {
				fmt.Fprintf(h, "check %v\n", ns.Check())
			}
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != modelDigests[name] {
			t.Errorf("%s: digest %s, committed %s", name, got, modelDigests[name])
		}
	}
}
