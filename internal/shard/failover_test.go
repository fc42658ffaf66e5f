package shard

import (
	"fmt"
	"testing"
	"time"

	"dmetabench/internal/fs"
	"dmetabench/internal/sim"
)

// replCfg returns a 2-shard replicated configuration with a replay
// cost small enough for tight test assertions.
func replCfg() Config {
	cfg := DefaultConfig(2)
	cfg.Replicate = true
	cfg.ReplayPerEntry = 10 * time.Microsecond
	return cfg
}

// dirOnShard returns a top-level directory whose file contents hash to
// shard want.
func dirOnShard(t *testing.T, f *FS, want int) string {
	t.Helper()
	for i := 0; i < 256; i++ {
		cand := fmt.Sprintf("/d%d", i)
		if f.ShardOfDir(cand) == want {
			return cand
		}
	}
	t.Fatalf("no directory hashing to shard %d", want)
	return ""
}

func TestFailoverBackupTakesOver(t *testing.T) {
	k, cl, f := env(t, 1, replCfg())
	dir := dirOnShard(t, f, 0)
	var outage time.Duration
	drive(t, k, cl, f, func(c fs.Client, p *sim.Proc) {
		if err := c.Mkdir(dir); err != nil {
			t.Errorf("mkdir: %v", err)
			return
		}
		for i := 0; i < 100; i++ {
			if err := c.Create(fmt.Sprintf("%s/f%d", dir, i)); err != nil {
				t.Errorf("create: %v", err)
				return
			}
		}
		f.Crash(p, 0)
		start := p.Now()
		// The next create on the slice blocks until the backup has
		// taken over, then succeeds against the promoted server.
		if err := c.Create(dir + "/after-crash"); err != nil {
			t.Errorf("create after crash: %v", err)
			return
		}
		outage = p.Now() - start
	})
	if len(f.Takeovers) != 1 {
		t.Fatalf("takeovers = %d, want 1", len(f.Takeovers))
	}
	to := f.Takeovers[0]
	if to.Shard != 0 || to.Backup != 1 {
		t.Fatalf("takeover %d -> %d, want 0 -> 1", to.Shard, to.Backup)
	}
	if to.Entries == 0 || to.Replay == 0 {
		t.Fatalf("takeover replayed %d entries in %v, want a non-empty journal", to.Entries, to.Replay)
	}
	if f.ServingShard(0) != 1 {
		t.Fatalf("slice 0 served by %d, want backup 1", f.ServingShard(0))
	}
	if outage < to.Total() {
		t.Fatalf("client outage %v shorter than takeover %v", outage, to.Total())
	}
	if f.RetryCount == 0 {
		t.Fatal("no client retries recorded across the outage")
	}
}

func TestNoTakeoverWhenBackupDiesInDetectionWindow(t *testing.T) {
	// Both replicas of slice 0 crash before the lease expires: nothing
	// can be promoted, so serving must stay on the primary and no
	// Takeover may be recorded. Both servers restarting brings the
	// slice back on its primary.
	k, cl, f := env(t, 1, replCfg())
	dir := dirOnShard(t, f, 0)
	drive(t, k, cl, f, func(c fs.Client, p *sim.Proc) {
		if err := c.Mkdir(dir); err != nil {
			t.Errorf("mkdir: %v", err)
			return
		}
		f.Crash(p, 0)
		p.Sleep(takeoverDetect / 2) // inside the detection window
		f.Crash(p, 1)
		p.Sleep(time.Second)
		if len(f.Takeovers) != 0 {
			t.Errorf("promoted a dead backup: %+v", f.Takeovers)
		}
		if f.ServingShard(0) != 0 {
			t.Errorf("slice 0 rerouted to %d with no live backup", f.ServingShard(0))
		}
		f.Restart(p, 0)
		f.Restart(p, 1)
		p.Sleep(time.Second)
		if err := c.Create(dir + "/after"); err != nil {
			t.Errorf("create after double restart: %v", err)
		}
	})
}

func TestRestartFailsBack(t *testing.T) {
	k, cl, f := env(t, 1, replCfg())
	dir := dirOnShard(t, f, 0)
	drive(t, k, cl, f, func(c fs.Client, p *sim.Proc) {
		if err := c.Mkdir(dir); err != nil {
			t.Errorf("mkdir: %v", err)
			return
		}
		for i := 0; i < 50; i++ {
			if err := c.Create(fmt.Sprintf("%s/f%d", dir, i)); err != nil {
				t.Errorf("create: %v", err)
				return
			}
		}
		f.Crash(p, 0)
		p.Sleep(time.Second) // takeover completes
		if f.ServingShard(0) != 1 {
			t.Error("backup not serving after crash")
		}
		f.Restart(p, 0)
		p.Sleep(time.Second) // recovery completes
		if !f.Up(0) || f.ServingShard(0) != 0 {
			t.Errorf("after restart: up=%v serving=%d, want true/0", f.Up(0), f.ServingShard(0))
		}
		if f.JournalLen(0) != 0 {
			t.Errorf("journal not checkpointed on recovery: %d entries", f.JournalLen(0))
		}
		// The failed-back primary serves again.
		if err := c.Create(dir + "/after-restart"); err != nil {
			t.Errorf("create after failback: %v", err)
		}
	})
}

func TestUnreplicatedOutageBlocksUntilRestart(t *testing.T) {
	k, cl, f := env(t, 1, DefaultConfig(2))
	dir := dirOnShard(t, f, 0)
	const downFor = 2 * time.Second
	var outage time.Duration
	drive(t, k, cl, f, func(c fs.Client, p *sim.Proc) {
		if err := c.Mkdir(dir); err != nil {
			t.Errorf("mkdir: %v", err)
			return
		}
		f.Crash(p, 0)
		k.AfterFunc("restart", downFor, func(q *sim.Proc) { f.Restart(q, 0) })
		start := p.Now()
		if err := c.Create(dir + "/f"); err != nil {
			t.Errorf("create across outage: %v", err)
			return
		}
		outage = p.Now() - start
	})
	if len(f.Takeovers) != 0 {
		t.Fatalf("unreplicated config recorded a takeover: %+v", f.Takeovers)
	}
	if outage < downFor {
		t.Fatalf("client op completed in %v, inside the %v outage", outage, downFor)
	}
}

func TestRetryMaxGivesUpWithTimeout(t *testing.T) {
	k, cl, f := env(t, 1, DefaultConfig(2))
	dir := dirOnShard(t, f, 0)
	drive(t, k, cl, f, func(c fs.Client, p *sim.Proc) {
		if err := c.Mkdir(dir); err != nil {
			t.Errorf("mkdir: %v", err)
			return
		}
		f.Crash(p, 0) // never restarted
		start := p.Now()
		err := c.Create(dir + "/f")
		if !fs.IsTimeout(err) {
			t.Errorf("create on a dark slice: err=%v, want ETIMEDOUT", err)
		}
		// retryMax attempts, each timing out, with a backoff between
		// consecutive attempts.
		if f.RetryCount != retryMax-1 {
			t.Errorf("retries = %d, want %d", f.RetryCount, retryMax-1)
		}
		if d := p.Now() - start; d < retryMax*retryTimeout {
			t.Errorf("gave up after %v, want >= %v", d, retryMax*retryTimeout)
		}
	})
}

func TestMirrorAccountingAndOverhead(t *testing.T) {
	// The same create workload must cost more wall-clock with a
	// synchronous backup than without, and count one mirror per file
	// mutation.
	run := func(replicate bool) (time.Duration, *FS) {
		cfg := DefaultConfig(2)
		cfg.Replicate = replicate
		k, cl, f := env(t, 1, cfg)
		var elapsed time.Duration
		drive(t, k, cl, f, func(c fs.Client, p *sim.Proc) {
			if err := c.Mkdir("/d"); err != nil {
				t.Errorf("mkdir: %v", err)
				return
			}
			start := p.Now()
			for i := 0; i < 200; i++ {
				if err := c.Create(fmt.Sprintf("/d/f%d", i)); err != nil {
					t.Errorf("create: %v", err)
					return
				}
			}
			elapsed = p.Now() - start
		})
		return elapsed, f
	}
	plain, fPlain := run(false)
	repl, fRepl := run(true)
	if fPlain.MirrorCount != 0 {
		t.Fatalf("unreplicated run mirrored %d mutations", fPlain.MirrorCount)
	}
	if fRepl.MirrorCount != 200 {
		t.Fatalf("mirrors = %d, want 200 (one per create)", fRepl.MirrorCount)
	}
	if repl <= plain {
		t.Fatalf("replicated run (%v) not slower than plain (%v)", repl, plain)
	}
}

func TestJournalCheckpointsAtCap(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Replicate = true
	cfg.JournalCap = 64
	k, cl, f := env(t, 1, cfg)
	dir := dirOnShard(t, f, 0)
	drive(t, k, cl, f, func(c fs.Client, p *sim.Proc) {
		if err := c.Mkdir(dir); err != nil {
			t.Errorf("mkdir: %v", err)
			return
		}
		for i := 0; i < 200; i++ {
			if err := c.Create(fmt.Sprintf("%s/f%d", dir, i)); err != nil {
				t.Errorf("create: %v", err)
				return
			}
		}
	})
	if n := f.JournalLen(0); n >= 200 {
		t.Fatalf("journal grew unbounded: %d entries with cap 64", n)
	}
	if f.shards[0].checkpoints == 0 {
		t.Fatal("no checkpoints recorded despite exceeding the cap")
	}
}

func TestTakeoverScalesWithJournal(t *testing.T) {
	// Takeover latency = detect + entries * ReplayPerEntry: more dirty
	// entries at crash time means a longer promotion.
	takeover := func(files int) time.Duration {
		k, cl, f := env(t, 1, replCfg())
		dir := dirOnShard(t, f, 0)
		drive(t, k, cl, f, func(c fs.Client, p *sim.Proc) {
			if err := c.Mkdir(dir); err != nil {
				t.Errorf("mkdir: %v", err)
				return
			}
			for i := 0; i < files; i++ {
				if err := c.Create(fmt.Sprintf("%s/f%d", dir, i)); err != nil {
					t.Errorf("create: %v", err)
					return
				}
			}
			f.Crash(p, 0)
			if err := c.Create(dir + "/after"); err != nil {
				t.Errorf("create after crash: %v", err)
			}
		})
		if len(f.Takeovers) != 1 {
			t.Fatalf("takeovers = %d, want 1", len(f.Takeovers))
		}
		return f.Takeovers[0].Total()
	}
	small := takeover(50)
	large := takeover(1000)
	if large <= small {
		t.Fatalf("takeover with 1000 dirty entries (%v) not longer than with 50 (%v)", large, small)
	}
}
