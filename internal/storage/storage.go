// Package storage models the persistent-storage side of file servers:
// disks with positioning delays, NVRAM-backed write logging with
// WAFL-style consistency points (§2.7, [HLM02]) and a simpler
// journal-based store (ldiskfs-style) used by the Lustre MDS model.
//
// The consistency-point behaviour matters for the benchmark reproduction:
// Fig. 4.6 of the thesis shows a saturated NFS/WAFL filer settling into a
// sawtooth where throughput collapses periodically while the filer writes
// a consistency point. The model reproduces that shape: metadata
// operations append cheaply to NVRAM until a consistency point is
// triggered (half-full NVRAM or a 10 s timer); during the CP, service is
// slowed by a configurable factor while dirty data drains to disk.
//
// This package is the *device* layer: it prices raw log appends, disk
// I/O and consistency points, and it does not know what a metadata
// operation is. The per-operation storage pricing of the sharded MDS —
// which backend a shard runs on, write amplification, compaction
// stalls, page-depth and lock penalties — lives one level up in
// internal/shard's backend layer (shard/backend.go), which *uses* a
// WAFL instance from this package as its journal device. Changing a
// shard backend never changes this package's behaviour.
package storage

import (
	"time"

	"dmetabench/internal/sim"
)

// Disk models a spindle: every I/O pays a positioning delay plus
// size-proportional transfer, serialized per spindle.
type Disk struct {
	r        *sim.Resource
	seek     time.Duration
	transfer int64 // bytes per second
}

// NewDisk returns a disk array with the given spindle count, average
// positioning time and per-spindle transfer rate.
func NewDisk(k *sim.Kernel, name string, spindles int, seek time.Duration, transfer int64) *Disk {
	return &Disk{r: sim.NewResource(k, "disk:"+name, spindles), seek: seek, transfer: transfer}
}

// IO performs one disk I/O of n bytes.
func (d *Disk) IO(p *sim.Proc, n int64) {
	t := d.seek
	if d.transfer > 0 && n > 0 {
		t += time.Duration(float64(n) / float64(d.transfer) * float64(time.Second))
	}
	d.r.Use(p, t)
}

// WAFLConfig parameterizes a WAFL-style store.
type WAFLConfig struct {
	// NVRAMBytes is the size of one NVRAM half (the log fills one half
	// while the previous half drains in a consistency point). Zero or
	// less means no half-full trigger: consistency points then run on
	// the CPInterval timer alone, and LogMetadata never waits for a
	// free half. With neither a size nor a timer no consistency point
	// ever runs.
	NVRAMBytes int64
	// CPInterval forces a consistency point at most this long after the
	// previous one (Data ONTAP uses 10 s). Zero or less means no timer:
	// a consistency point then starts only when the NVRAM half fills,
	// which is still checked every 100 ms.
	CPInterval time.Duration
	// CPSlowdown multiplies service times while a CP is active.
	CPSlowdown float64
	// DrainRate is the rate (bytes/s) at which a CP writes dirty data.
	DrainRate int64
}

// DefaultWAFLConfig mirrors a midrange filer: 512 MB NVRAM halves, 10 s
// CP timer, 2.2x service-time inflation during a CP.
func DefaultWAFLConfig() WAFLConfig {
	return WAFLConfig{
		NVRAMBytes: 512 << 20,
		CPInterval: 10 * time.Second,
		CPSlowdown: 2.2,
		DrainRate:  400 << 20,
	}
}

// WAFL is a write-anywhere store with NVRAM logging and consistency
// points. One WAFL instance backs one simulated filer.
type WAFL struct {
	k   *sim.Kernel
	cfg WAFLConfig

	dirty     int64 // bytes logged since the last CP began
	cpActive  bool
	lastCP    time.Duration
	cpDone    *sim.Cond
	numCPs    int
	snapUntil time.Duration // snapshot jitter window end
}

// NewWAFL creates the store and starts its consistency-point task.
func NewWAFL(k *sim.Kernel, name string, cfg WAFLConfig) *WAFL {
	if cfg.CPSlowdown < 1 {
		cfg.CPSlowdown = 1
	}
	w := &WAFL{
		k: k, cfg: cfg,
		cpDone: sim.NewCond(k, "wafl-cpdone:"+name),
	}
	k.SpawnTask("wafl-cp:"+name, w.cpStep)
	return w
}

// cpPoll is the longest sleep of the wait for the next consistency
// point: polling this often honours half-full kicks promptly without
// needing interruptible sleeps.
const cpPoll = 100 * time.Millisecond

// cpStep is one wake-up of the consistency-point task
// (sim.Kernel.SpawnTask). Its loop triggers a consistency point on the
// NVRAM-half-full condition or the CP timer, whichever comes first, and
// drains it; a wake-up resumes the drain when cpActive is set, else the
// wait. It makes the same sleeps in the same order as a process running
// the loop, so it draws the same events.
func (w *WAFL) cpStep(p *sim.Proc) {
	if w.cpActive {
		w.endCP()
	}
	for {
		// Wait until the timer expires or the NVRAM half fills.
		for !w.halfFull() {
			step := cpPoll
			if w.cfg.CPInterval > 0 {
				remain := w.lastCP + w.cfg.CPInterval - w.k.Now()
				if remain <= 0 {
					break
				}
				step = min(step, remain)
			}
			if p.Wake(step) {
				return
			}
		}
		if w.dirty == 0 {
			w.lastCP = w.k.Now()
			continue
		}
		if p.Wake(w.startCP()) {
			return
		}
		w.endCP()
	}
}

// halfFull reports whether the NVRAM half being logged into is full;
// never when NVRAMBytes sets no size.
func (w *WAFL) halfFull() bool {
	return w.cfg.NVRAMBytes > 0 && w.dirty >= w.cfg.NVRAMBytes
}

// startCP begins a consistency point and returns how long draining the
// dirty data takes at the configured rate.
func (w *WAFL) startCP() time.Duration {
	w.cpActive = true
	w.numCPs++
	drainable := w.dirty
	w.dirty = 0 // new writes log into the other NVRAM half
	return time.Duration(float64(drainable) / float64(w.cfg.DrainRate) * float64(time.Second))
}

// endCP ends the drain of a consistency point and wakes the writers
// waiting for the NVRAM half it frees.
func (w *WAFL) endCP() {
	w.cpActive = false
	w.lastCP = w.k.Now()
	w.cpDone.Broadcast()
}

// LogMetadata appends n bytes of metadata change to the NVRAM log. If the
// incoming half is itself full (back-to-back CP), the caller blocks until
// the active CP finishes.
func (w *WAFL) LogMetadata(p *sim.Proc, n int64) {
	for w.cpActive && w.halfFull() {
		w.cpDone.Wait(p)
	}
	w.dirty += n
}

// ServiceFactor returns the current service-time multiplier: >1 while a
// consistency point is running or a snapshot is being created.
func (w *WAFL) ServiceFactor() float64 {
	f := 1.0
	if w.cpActive {
		f = w.cfg.CPSlowdown
	}
	if w.k.Now() < w.snapUntil {
		// Snapshot creation adds erratic overhead (Fig. 4.5): a mild
		// uniform tax plus sporadic long stalls that hit requests — and
		// therefore client processes — unevenly, which is what makes
		// the COV rise "in a much more random manner" than a steady
		// per-node disturbance.
		f *= 1.2
		if w.k.Rand().Float64() < 0.012 {
			f *= 150 + 450*w.k.Rand().Float64()
		}
	}
	return f
}

// CPActive reports whether a consistency point is currently running.
func (w *WAFL) CPActive() bool { return w.cpActive }

// NumCPs returns the number of completed consistency points.
func (w *WAFL) NumCPs() int { return w.numCPs }

// TriggerSnapshots opens a window of duration d during which service
// times are randomly inflated, modelling snapshot creation load (§4.2.3,
// Fig. 4.5).
func (w *WAFL) TriggerSnapshots(d time.Duration) {
	w.snapUntil = w.k.Now() + d
}

// Journal models a journaling local file system (ldiskfs/ext3-style) used
// by metadata servers: metadata updates append to a journal with a group
// commit every CommitInterval; synchronous requests pay the commit wait.
type Journal struct {
	k              *sim.Kernel
	disk           *Disk
	CommitInterval time.Duration
	pending        int64
	commits        int
}

// NewJournal returns a journal flushing to disk every interval. An
// interval of zero or less starts no committer: records then accumulate
// without ever being written.
func NewJournal(k *sim.Kernel, name string, disk *Disk, interval time.Duration) *Journal {
	j := &Journal{k: k, disk: disk, CommitInterval: interval}
	if interval > 0 {
		k.SpawnDaemon("journal:"+name, j.commitLoop)
	}
	return j
}

func (j *Journal) commitLoop(p *sim.Proc) {
	for {
		p.Sleep(j.CommitInterval)
		if j.pending > 0 {
			n := j.pending
			j.pending = 0
			j.commits++
			j.disk.IO(p, n)
		}
	}
}

// Log appends n bytes of journal records (asynchronous).
func (j *Journal) Log(n int64) { j.pending += n }

// Commits returns the number of group commits performed.
func (j *Journal) Commits() int { return j.commits }
