// Package service holds the server-side pieces the FS models (shard and
// nfs) share:
//
//   - Per-class op pricing (PriceTable): the base service times the
//     cost models charge per operation class, shared between foreground
//     RPC pricing and background demand batches so both pay the same
//     rates.
//
//   - Aggregate background injection (AttachAggregate): analytically
//     modeled load (internal/agg) enters a server as batched
//     virtual-time demand instead of per-client processes. Injector
//     lanes run as daemon tasks (sim.Kernel.SpawnTask: no carrier, the
//     dispatch loop calls each wake-up directly) on the server's own
//     kernel; each tick every lane draws its slice of the server's
//     arrival batch, prices it through the model's hook, then occupies
//     one server thread for that long. Foreground clients queue FIFO
//     behind the injected holds, so they observe genuine contention —
//     queueing delay, diurnal swell, flash-crowd saturation — from a
//     load that costs no per-client state.
//
// The sharded MDS can run its shards in separate kernel domains
// (internal/shard domain.go), so injector lanes of different servers
// may run concurrently: the counters they bump are atomics (AddI64,
// LoadI64) whose sums are order-independent.
package service

import (
	"strconv"
	"sync/atomic"
	"time"

	"dmetabench/internal/sim"
)

// Demand is one tick's background arrivals for one injector lane, by
// operation class. The classes map onto the priced service kinds of the
// per-model cost tables (GetattrService etc.).
type Demand struct {
	Getattr int64
	Lookup  int64
	Readdir int64
	Create  int64
}

// Total sums the classes.
func (d Demand) Total() int64 { return d.Getattr + d.Lookup + d.Readdir + d.Create }

// PriceTable holds the base per-class service times a server charges.
// Price converts a demand batch into unscaled service time; models
// layer their dynamic factors (WAFL consistency points, journal
// pressure) on top.
type PriceTable struct {
	Getattr time.Duration
	Lookup  time.Duration
	Readdir time.Duration
	Create  time.Duration
}

// Price returns the base service time for one demand batch.
func (t PriceTable) Price(d Demand) time.Duration {
	return time.Duration(d.Getattr)*t.Getattr +
		time.Duration(d.Lookup)*t.Lookup +
		time.Duration(d.Readdir)*t.Readdir +
		time.Duration(d.Create)*t.Create
}

// AggregateConfig wires AttachAggregate to one model's servers.
type AggregateConfig struct {
	// Servers is the injected server count; lanes spawn for servers
	// 0..Servers-1 in order.
	Servers int
	// Lanes is the injector lane count per server (clamped to >= 1);
	// use the server's thread-pool width so injected demand can fill
	// the pool.
	Lanes int
	// Tick is the batching interval (defaults to one second).
	Tick time.Duration
	// Kernel returns the kernel server i's lanes spawn on — the
	// kernel (under domains, the domain) server i's state lives on.
	Kernel func(server int) *sim.Kernel
	// Pool returns server i's client-facing thread pool; each batch
	// occupies one thread for its priced duration.
	Pool func(server int) *sim.Resource
	// Source draws server i's arrivals for one (lane, tick); it is
	// called in strictly increasing tick order per (server, lane) and
	// runs on the server's kernel domain, so per-(server, lane) state
	// must not be shared across servers (internal/agg's
	// replicated-stream design).
	Source func(server, lane, tick int) Demand
	// Price converts one batch into service time, including any
	// dynamic model factor sampled at injection time.
	Price func(server int, d Demand) time.Duration
	// Ops, Shed and Busy are the model's counters: injected operations,
	// operations shed under overload, and cumulative injected service
	// time (as int64 nanoseconds). They are bumped atomically — lanes
	// in different domains run concurrently.
	Ops, Shed, Busy *int64
}

// AttachAggregate starts the background injector: Lanes injector lanes
// per server, each drawing its (server, lane) stream tick by tick and
// occupying one pool thread for the priced duration. Call before the
// kernel runs. The lanes are daemon tasks (sim.Kernel.SpawnTask), so
// they never keep a finished simulation alive and hold no goroutine
// once Run returns.
//
// Overload is open-loop: a lane that cannot finish a tick's hold before
// later ticks begin shedding the ticks it slept through (Shed). The
// pool therefore saturates at 100% utilization instead of building an
// unbounded virtual queue, which is the admission-control behavior a
// real front end would enforce.
//
// Determinism: lanes touch only their own server's pool and the atomic
// counters, and each (server, lane) draws from a private source stream
// in strict tick order, so runs are byte-identical at any
// Domains/worker count.
func AttachAggregate(cfg AggregateConfig) {
	tick := cfg.Tick
	if tick <= 0 {
		tick = time.Second
	}
	lanes := cfg.Lanes
	if lanes < 1 {
		lanes = 1
	}
	for i := 0; i < cfg.Servers; i++ {
		k := cfg.Kernel(i)
		for l := 0; l < lanes; l++ {
			ln := &lane{cfg: &cfg, pool: cfg.Pool(i), srv: i, lane: l, tick: tick}
			k.SpawnTask("agginject:"+strconv.Itoa(i)+":"+strconv.Itoa(l), ln.step)
		}
	}
}

// laneState is where an injector lane resumes at its next wake-up.
type laneState uint8

const (
	laneTop     laneState = iota // first wake-up: the top of the loop
	laneWoken                    // woken at the boundary of tick next
	laneGranted                  // granted a pool thread for the hold
	laneHeld                     // the hold is over
)

// lane is one injector lane: a task whose loop state lives here between
// wake-ups. The loop is the one a process would run — sleep to the
// owed tick, shed, draw, price, count, then Acquire, hold and Release a
// pool thread — and it makes the same scheduling calls in the same
// order, so it draws the same events and sequence numbers. The steady
// state allocates nothing (BenchmarkAggregateInject's alloc guard pins
// this).
type lane struct {
	cfg       *AggregateConfig
	pool      *sim.Resource
	srv, lane int
	tick      time.Duration
	next      int           // next tick index this lane owes
	cost      time.Duration // the priced hold being served
	state     laneState
}

// step runs the lane from where its last wake-up left it to the next
// wait that schedules an event.
func (l *lane) step(p *sim.Proc) {
	switch l.state {
	case laneWoken:
		if l.inject(p, l.next) {
			return
		}
	case laneGranted:
		if l.hold(p) {
			return
		}
	case laneHeld:
		l.pool.Release()
	}
	for {
		i := int(p.Now() / l.tick)
		if i < l.next {
			// Our tick's work is done; wait for the next boundary.
			if p.Wake(time.Duration(l.next)*l.tick - p.Now()) {
				l.state = laneWoken
				return
			}
			i = l.next
		}
		if l.inject(p, i) {
			return
		}
	}
}

// inject serves tick i: it sheds the ticks the lane slept through,
// draws, prices and counts tick i, and holds a pool thread for the
// price. It reports whether the lane waits, for the thread or for the
// end of the hold.
func (l *lane) inject(p *sim.Proc, i int) bool {
	cfg := l.cfg
	// Ticks the lane slept through entirely are shed: draw them to keep
	// the source stream index-pure, count them, do not hold.
	for l.next < i {
		d := cfg.Source(l.srv, l.lane, l.next)
		if n := d.Total(); n > 0 {
			AddI64(cfg.Shed, n)
		}
		l.next++
	}
	d := cfg.Source(l.srv, l.lane, i)
	l.next = i + 1
	n := d.Total()
	if n == 0 {
		return false
	}
	cost := cfg.Price(l.srv, d)
	AddI64(cfg.Ops, n)
	AddI64(cfg.Busy, int64(cost))
	if cost <= 0 {
		return false
	}
	l.cost = cost
	if l.pool.AcquireTask(p) {
		l.state = laneGranted
		return true
	}
	return l.hold(p)
}

// hold occupies the granted pool thread for the priced cost and reports
// whether the lane waits for the end of the hold; a hold that ends
// inline releases the thread at once.
func (l *lane) hold(p *sim.Proc) bool {
	if p.Wake(l.cost) {
		l.state = laneHeld
		return true
	}
	l.pool.Release()
	return false
}

// AddI64 bumps a counter that service bodies increment from several
// domains concurrently. Sums are order-independent, so the totals stay
// deterministic; undomained the atomic op is just an add.
func AddI64(ctr *int64, d int64) { atomic.AddInt64(ctr, d) }

// LoadI64 reads such a counter (safe during a run from any domain).
func LoadI64(ctr *int64) int64 { return atomic.LoadInt64(ctr) }
