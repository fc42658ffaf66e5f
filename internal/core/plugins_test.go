package core

import (
	"reflect"
	"testing"
	"time"

	"dmetabench/internal/cluster"
	"dmetabench/internal/localfs"
	"dmetabench/internal/nfs"
	"dmetabench/internal/sim"
)

// pluginEnv runs one plugin's three phases as a single process on a
// local file system and returns the ops counted plus the file system for
// inspection.
func pluginEnv(t *testing.T, plugin Plugin, params Params) (int64, *localfs.FS) {
	t.Helper()
	k := sim.New(1)
	cl := cluster.New(k, cluster.DefaultConfig(1))
	fsys := localfs.New(k, cl.Nodes[0])
	var ticks int64
	k.Spawn("plugin", func(p *sim.Proc) {
		ctx := &Ctx{
			FS:      fsys.NewClient(cl.Nodes[0], p),
			Workers: 1,
			Dir:     "/w/p000",
			PeerDir: "/w/p000",
			Params:  params,
			Now:     func() time.Duration { return p.Now() },
		}
		if err := plugin.Prepare(ctx); err != nil {
			t.Errorf("prepare: %v", err)
			return
		}
		if err := plugin.DoBench(ctx); err != nil {
			t.Errorf("dobench: %v", err)
			return
		}
		ticks = ctx.Progress()
		if err := plugin.Cleanup(ctx); err != nil {
			t.Errorf("cleanup: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return ticks, fsys
}

func TestEveryPluginRoundTrips(t *testing.T) {
	params := Params{ProblemSize: 50, WorkDir: "/w"}
	names := []string{
		"MakeFiles", "MakeFiles64byte", "MakeFiles65byte", "MakeOnedirFiles",
		"MakeDirs", "DeleteFiles", "StatFiles", "StatNocacheFiles",
		"StatMultinodeFiles", "OpenCloseFiles", "ReadDirStatFiles",
		"ReadDirPlusFiles", "RenameFiles", "StatMutateFiles",
		"WideDirFiles",
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			plugin, err := PluginByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if plugin.Name() != name {
				t.Fatalf("Name() = %q", plugin.Name())
			}
			ticks, fsys := pluginEnv(t, plugin, params)
			if ticks != 50 {
				t.Fatalf("ticks = %d, want 50", ticks)
			}
			// Cleanup restored an empty namespace (files gone; the
			// shared onedir may remain as an empty directory).
			if n := fsys.Namespace().NumFiles(); n != 0 {
				t.Fatalf("files left after cleanup: %d", n)
			}
			fsys.Namespace().MustBeConsistent()
		})
	}
	if _, err := PluginByName("NoSuchOp"); err == nil {
		t.Fatal("unknown plugin name accepted")
	}
}

// TestMakeFilesSubdirRotation runs the three plugins of the make loop
// with ProblemSize 10, untimed and timed. Untimed, each makes exactly 10
// names in s0; timed, each rotates into a fresh s1 after 10 names and
// stops at the deadline, which the test's clock, reading the progress
// count, reaches after 15 names.
func TestMakeFilesSubdirRotation(t *testing.T) {
	for _, plugin := range []Plugin{MakeFiles{}, MakeFilesSized{Bytes: 64}, MakeDirs{}} {
		for _, timed := range []bool{false, true} {
			k := sim.New(2)
			cl := cluster.New(k, cluster.DefaultConfig(1))
			fsys := localfs.New(k, cl.Nodes[0])
			k.Spawn("t", func(p *sim.Proc) {
				ctx := &Ctx{
					FS: fsys.NewClient(cl.Nodes[0], p), Workers: 1,
					Dir:    "/w/p000",
					Params: Params{ProblemSize: 10, WorkDir: "/w"},
				}
				ctx.Now = func() time.Duration { return time.Duration(ctx.Progress()) }
				want := map[string]int{"s0": 10}
				if timed {
					ctx.Deadline = 15
					want["s1"] = 5
				}
				if err := plugin.Prepare(ctx); err != nil {
					t.Errorf("%s prepare: %v", plugin.Name(), err)
				}
				if err := plugin.DoBench(ctx); err != nil {
					t.Errorf("%s dobench: %v", plugin.Name(), err)
				}
				ents, err := ctx.FS.ReadDir("/w/p000")
				if err != nil {
					t.Fatal(err)
				}
				got := map[string]int{}
				for _, e := range ents {
					sub, err := ctx.FS.ReadDir("/w/p000/" + e.Name)
					if err != nil {
						t.Fatal(err)
					}
					got[e.Name] = len(sub)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s timed %v: entries per subdirectory %v, want %v", plugin.Name(), timed, got, want)
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestMakeFilesSizedWritesPayload(t *testing.T) {
	k := sim.New(3)
	cl := cluster.New(k, cluster.DefaultConfig(1))
	fsys := localfs.New(k, cl.Nodes[0])
	k.Spawn("t", func(p *sim.Proc) {
		ctx := &Ctx{
			FS: fsys.NewClient(cl.Nodes[0], p), Workers: 1,
			Dir:    "/w/p000",
			Params: Params{ProblemSize: 5, WorkDir: "/w"},
			Now:    func() time.Duration { return p.Now() },
		}
		plugin := MakeFilesSized{Bytes: 65}
		if err := plugin.Prepare(ctx); err != nil {
			t.Errorf("prepare: %v", err)
		}
		if err := plugin.DoBench(ctx); err != nil {
			t.Errorf("dobench: %v", err)
		}
		a, err := ctx.FS.Stat("/w/p000/s0/0")
		if err != nil || a.Size != 65 {
			t.Errorf("payload size = %d (%v)", a.Size, err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStatMultinodePeerExchange(t *testing.T) {
	// Two workers on two nodes: each stats the files the peer created.
	k := sim.New(4)
	cl := cluster.New(k, cluster.DefaultConfig(2))
	fsys := nfs.New(k, "home", nfs.DefaultConfig())
	r := &Runner{
		Cluster:      cl,
		FS:           fsys,
		Params:       Params{ProblemSize: 100, WorkDir: "/bench"},
		SlotsPerNode: 1,
		Plugins:      []Plugin{StatMultinodeFiles{}},
		Filter:       func(c Combo) bool { return c.Nodes == 2 },
	}
	set, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	m := set.Find("StatMultinodeFiles", 2, 1)
	if m == nil || m.Err() != nil {
		t.Fatalf("measurement failed: %+v", m.Errors)
	}
	if m.TotalOps() != 200 {
		t.Fatalf("ops = %d", m.TotalOps())
	}
}
