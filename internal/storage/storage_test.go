package storage

import (
	"testing"
	"time"

	"dmetabench/internal/sim"
)

func TestDiskIO(t *testing.T) {
	k := sim.New(1)
	d := NewDisk(k, "d", 1, 5*time.Millisecond, 100<<20)
	var elapsed time.Duration
	k.Spawn("io", func(p *sim.Proc) {
		start := p.Now()
		d.IO(p, 10<<20) // 10 MB at 100 MB/s = 100ms + 5ms seek
		elapsed = p.Now() - start
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed != 105*time.Millisecond {
		t.Fatalf("IO took %v, want 105ms", elapsed)
	}
}

func TestDiskSpindlesSerialize(t *testing.T) {
	k := sim.New(1)
	d := NewDisk(k, "d", 2, time.Millisecond, 0)
	for i := 0; i < 6; i++ {
		k.Spawn("io", func(p *sim.Proc) { d.IO(p, 0) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 3*time.Millisecond {
		t.Fatalf("6 IOs on 2 spindles took %v, want 3ms", k.Now())
	}
}

func TestWAFLTimerCP(t *testing.T) {
	k := sim.New(1)
	w := NewWAFL(k, "t")
	// Half an NVRAM half per timer period: only the timer starts CPs.
	const step = cpInterval / 1000
	const n = nvramBytes / 2000
	var sawCP bool
	k.Spawn("load", func(p *sim.Proc) {
		for p.Now() < 5*cpInterval/2 {
			w.LogMetadata(p, n)
			if w.CPActive() {
				sawCP = true
				if f := w.ServiceFactor(); f != cpSlowdown {
					t.Errorf("service factor during CP = %f, want %f", f, cpSlowdown)
				}
			}
			p.Sleep(step)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawCP {
		t.Fatalf("no consistency point observed in %v", 5*cpInterval/2)
	}
	if w.NumCPs() < 2 {
		t.Fatalf("CPs = %d, want >= 2 over %v with a %v timer", w.NumCPs(), 5*cpInterval/2, cpInterval)
	}
}

func TestWAFLHalfFullCP(t *testing.T) {
	k := sim.New(1)
	w := NewWAFL(k, "t")
	k.Spawn("load", func(p *sim.Proc) {
		// Ten appends of an eighth of a half each: the half fills
		// long before the timer would start a CP.
		for i := 0; i < 10; i++ {
			w.LogMetadata(p, nvramBytes/8)
			p.Sleep(time.Millisecond)
		}
		// Give the CP loop time to notice.
		p.Sleep(5 * cpPoll)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() >= cpInterval {
		t.Fatalf("run lasted %v, past the %v timer", k.Now(), cpInterval)
	}
	if w.NumCPs() < 1 {
		t.Fatal("no half-full CP despite 1.25 NVRAM halves logged")
	}
}

func TestWAFLSnapshotJitter(t *testing.T) {
	k := sim.New(1)
	w := NewWAFL(k, "t")
	var base, during float64
	k.Spawn("probe", func(p *sim.Proc) {
		base = w.ServiceFactor()
		w.TriggerSnapshots(5 * time.Second)
		max := 0.0
		for i := 0; i < 1000; i++ {
			if f := w.ServiceFactor(); f > max {
				max = f
			}
		}
		during = max
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if base != 1.0 {
		t.Fatalf("idle service factor = %f", base)
	}
	if during < 10 {
		t.Fatalf("snapshot window max factor = %f, want occasional large stalls", during)
	}
}

func TestJournalGroupCommit(t *testing.T) {
	k := sim.New(1)
	d := NewDisk(k, "d", 1, time.Millisecond, 100<<20)
	j := NewJournal(k, "j", d)
	k.Spawn("load", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			j.Log(512)
			p.Sleep(journalCommit / 10)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Five commit intervals of logging, ten records per interval:
	// ~5 commits, not 50.
	if c := j.Commits(); c < 3 || c > 8 {
		t.Fatalf("commits = %d, want grouped (~5)", c)
	}
}
