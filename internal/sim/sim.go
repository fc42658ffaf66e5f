// Package sim implements a deterministic, cooperative discrete-event
// simulation kernel.
//
// A Kernel owns a virtual clock and a set of processes. Exactly one
// process executes at a time: a process runs until it blocks (Sleep,
// semaphore wait, barrier, queue receive ...) and the kernel then resumes
// the process with the earliest pending event. Ties are broken by event
// sequence number, so runs are fully deterministic: the same program
// produces the same event order and the same virtual timings on every
// run.
//
// The kernel is the substrate for every simulated subsystem in this
// repository: cluster nodes, networks, storage devices and the file system
// models are all built from sim processes and sim resources. Strict
// determinism is what makes the thesis methodology reproducible here: the
// per-interval traces and COV analysis of §3.2.5/§3.3.9 — and the fault
// timelines injected on top of them — come out byte-identical for a
// given seed.
//
// Scheduling is built for throughput: the event queue is a concrete-typed
// binary heap (no interface boxing, storage reused across events), and a
// wake-up takes one of three paths, cheapest first:
//
//   - The Sleep fast path: a process whose wake-up would be the next
//     event anyway (a Sleep with no earlier pending event) simply
//     advances the clock and keeps running — no heap traffic and no
//     switch at all.
//   - Carriers: process bodies run on pooled coroutines that the
//     dispatch loop switches into and a blocking process switches out
//     of, bypassing the Go scheduler (see carrier). Each wake-up costs
//     two coroutine switches.
//   - Tasks (SpawnTask): a daemon with no coroutine, whose step function
//     the dispatch loop calls directly at each wake-up. The step never
//     parks: it waits through the non-parking halves of Sleep and
//     Acquire (Proc.Wake, Resource.AcquireTask), which schedule the
//     same events a process would, and returns.
//
// A daemon may be a task when every wait in its loop is a sleep or a
// resource acquire and it calls no code that may park — no RPC, no
// caller-supplied body — and when its wake-ups are frequent enough to
// pay for writing its loop as an explicit state machine. Everything else
// stays a process.
package sim

import (
	"fmt"
	"iter"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"time"
)

// Time is virtual time since the start of the simulation.
type Time = time.Duration

// forever is the run horizon of an unbounded Run call.
const forever = Time(math.MaxInt64)

// event is a scheduled wake-up of a process.
type event struct {
	at  Time
	seq int64
	p   *Proc
}

// lessThan orders events by (at, seq); seq ties never occur.
func (a event) lessThan(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// ordered is satisfied by heap elements that know their own ordering.
type ordered[T any] interface {
	lessThan(T) bool
}

// minHeap is a concrete-typed binary min-heap shared by the kernel event
// queue and the synchronization wait queues. Compared to container/heap
// it avoids the interface{} boxing that costs one allocation per entry;
// the backing slice is reused for the lifetime of the kernel, so
// steady-state scheduling does not allocate.
type minHeap[T ordered[T]] struct {
	e []T
}

func (h *minHeap[T]) len() int { return len(h.e) }

func (h *minHeap[T]) push(v T) {
	e := append(h.e, v)
	i := len(e) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e[i].lessThan(e[parent]) {
			break
		}
		e[i], e[parent] = e[parent], e[i]
		i = parent
	}
	h.e = e
}

func (h *minHeap[T]) pop() T {
	e := h.e
	top := e[0]
	n := len(e) - 1
	e[0] = e[n]
	var zero T
	e[n] = zero // clear the popped slot so interior pointers can be collected
	e = e[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && e[r].lessThan(e[l]) {
			m = r
		}
		if !e[m].lessThan(e[i]) {
			break
		}
		e[i], e[m] = e[m], e[i]
		i = m
	}
	h.e = e
	return top
}

// eventHeap is the kernel's scheduling queue.
type eventHeap = minHeap[event]

// Kernel is a discrete-event simulation kernel. The zero value is not
// usable; call New.
type Kernel struct {
	now     Time
	seq     int64
	queue   eventHeap
	live    int // procs started and not yet finished
	daemons int // live daemon procs (ignored for termination)
	rng     *rand.Rand
	procSeq int
	horizon Time    // events beyond this virtual time stay queued
	procs   []*Proc // all spawned procs, for deadlock diagnostics
	// dispatched counts events executed by this kernel — in a domain
	// group it is the per-domain work share, the quantity the parallel
	// speedup bound is computed from (DESIGN.md, "Parallel DES").
	dispatched int64
	// dom is non-nil when this kernel is one domain of a DomainGroup
	// (domain.go); scheduling then runs in lookahead windows and
	// termination is decided at group level.
	dom  *Domain
	idle []*carrier // carriers between bodies, for the next first dispatch
}

// New returns a kernel whose random source is seeded with seed.
func New(seed int64) *Kernel {
	return &Kernel{
		rng:     rand.New(rand.NewSource(seed)),
		horizon: forever,
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source. It must only be
// used from running sim processes (or before Run).
func (k *Kernel) Rand() *rand.Rand { return k.rng }

func (k *Kernel) nextSeq() int64 {
	k.seq++
	return k.seq
}

// schedule enqueues a wake-up for p at time at (>= now).
func (k *Kernel) schedule(p *Proc, at Time) {
	if at < k.now {
		at = k.now
	}
	k.queue.push(event{at: at, seq: k.nextSeq(), p: p})
}

// scheduleSeq enqueues a wake-up under a caller-provided sequence number
// without advancing the kernel counter. Cross-domain delivery uses it so
// a message's heap position is intrinsic to the send (sender sequence and
// domain), never to delivery timing — the local sequence stream stays
// identical whatever the window structure (see domain.go, msgSeqBase).
func (k *Kernel) scheduleSeq(p *Proc, at Time, seq int64) {
	if at < k.now {
		at = k.now
	}
	k.queue.push(event{at: at, seq: seq, p: p})
}

// runsBefore reports whether some queued event runs strictly before a
// wake-up scheduled now at time at would: it is earlier, or ties with a
// local (pre-msgSeqBase) sequence number, which is necessarily older
// than the sequence a fresh wake-up would draw.
func (k *Kernel) runsBefore(at Time) bool {
	if k.queue.len() == 0 {
		return false
	}
	h := &k.queue.e[0]
	return h.at < at || (h.at == at && h.seq < msgSeqBase)
}

// dispatch pops the earliest event and runs its process until it parks
// or its body ends; the callers decide whether the event may run at all.
func (k *Kernel) dispatch() {
	ev := k.queue.pop()
	p := ev.p
	if p.done {
		panic(fmt.Sprintf("sim: stale event at %v (seq %d) for finished proc %q", ev.at, ev.seq, p.name))
	}
	if ev.at > k.now {
		k.now = ev.at
	}
	k.dispatched++
	if p.step != nil {
		p.step(p)
		return
	}
	if p.c == nil {
		p.c = k.carrier()
		p.c.p = p
	}
	p.c.next()
}

// carrier is a pooled iter.Pull coroutine that runs process bodies: the
// dispatch loop resumes a process with next, the process parks with
// yield, and a carrier whose body ended waits in the kernel's idle pool
// for the next process. Calls into one carrier never overlap, as a
// kernel (or domain window) runs on one goroutine at a time.
type carrier struct {
	p     *Proc // the process being carried; nil while idle
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// carrier takes an idle carrier, or starts one when none is left.
func (k *Kernel) carrier() *carrier {
	if n := len(k.idle); n > 0 {
		c := k.idle[n-1]
		k.idle = k.idle[:n-1]
		return c
	}
	c := new(carrier)
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		var p *Proc
		// iter.Pull raises a body's panic again from the dispatcher's
		// next call, whose stack no longer shows the body's frames, so
		// the panic is caught here first and raised again as a
		// *PanicError carrying p's name and the body's stack.
		defer func() {
			if r := recover(); r != nil {
				panic(&PanicError{Value: r, Proc: p.name, Stack: debug.Stack()})
			}
		}()
		for {
			p = c.p
			p.fn(p)
			p.k.exit(p)
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return c
}

// PanicError is the value Run raises when a process body panics: the
// original panic value, the name of the process and the stack of the
// body at the panic. Error includes the stack, so an unrecovered crash
// prints the model line that failed.
type PanicError struct {
	Value any
	Proc  string
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v\n\n%s", e.Proc, e.Value, e.Stack)
}

// releaseCarriers ends the idle carriers when a run returns, so only
// parked processes keep a goroutine past the run; a task has none.
func (k *Kernel) releaseCarriers() {
	for _, c := range k.idle {
		c.stop()
	}
	k.idle = nil
}

// Dispatched returns the number of events this kernel has executed. In a
// domain group each member kernel counts its own events, so the per-
// domain shares expose how evenly the parallel workload is distributed.
func (k *Kernel) Dispatched() int64 { return k.dispatched }

// Proc is a simulated process. Procs are created with Kernel.Spawn or
// Proc.Spawn (or as tasks with Kernel.SpawnTask) and must only call
// kernel methods while running (i.e. from their own body or step,
// between resumptions).
type Proc struct {
	k      *Kernel
	id     int
	name   string
	done   bool
	daemon bool
	fn     func(p *Proc) // the body; dropped when it returns
	c      *carrier      // runs the body from its first dispatch to its end
	step   func(p *Proc) // a task's step, called at each wake-up; nil for a body
	// slot is this proc's index in k.procs; finished procs are
	// swap-removed so the diagnostics slice never pins dead procs (a
	// model that spawns one short-lived proc per callback or revocation
	// would otherwise grow a graveyard that is pure GC scan load).
	slot int
	// waiters are procs blocked in Join on this proc.
	waiters []*Proc
	// blockedOn is a short description of the current blocking reason,
	// used in deadlock reports.
	blockedOn string
	// Ctx is a free slot for harness layers (internal/simnet keeps its
	// cross-domain call context in it); it travels with the process when
	// Call migrates it, and the kernel never touches it.
	Ctx any
}

// ID returns the process id (assigned in spawn order, starting at 1).
func (p *Proc) ID() int { return p.id }

// Name returns the name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Spawn starts fn as a new simulated process scheduled at the current
// virtual time. It may be called before Run (to create initial processes)
// or from a running process.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.spawn(name, fn, false)
}

// SpawnDaemon starts fn as a daemon process: Run and RunFor terminate as
// soon as no non-daemon processes remain live, regardless of pending
// daemon events. Background services (consistency-point writers, journal
// committers, cache flushers) are daemons.
func (k *Kernel) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	return k.spawn(name, fn, true)
}

// SpawnTask starts a daemon task: a process with no coroutine, whose
// step the dispatch loop calls directly at each of its wake-ups,
// starting at the current virtual time. A step never parks. It
// continues inline or schedules its next wake-up through Proc.Wake or
// Resource.AcquireTask, keeps its loop state outside the call, and
// returns; a step that reaches a parking primitive (Sleep, Acquire,
// Join ...) panics. A panic in a step leaves Run as it was raised: the
// step runs on the dispatch loop's own stack, so the trace already
// shows its frames. Like SpawnDaemon's processes, a task never keeps a
// finished simulation alive; it lives as long as its kernel and has no
// exit path.
func (k *Kernel) SpawnTask(name string, step func(p *Proc)) *Proc {
	p := &Proc{k: k, daemon: true, step: step}
	// A task's carrier is a stub that the dispatch loop never resumes.
	// Its yield, which park calls, panics with the task's name, so the
	// check costs a parking process nothing.
	p.c = &carrier{p: p, yield: func(struct{}) bool {
		panic(fmt.Sprintf("sim: task %q cannot park (%s): a task step schedules its wake-up and returns", p.name, p.blockedOn))
	}}
	k.start(p, name, nil)
	k.schedule(p, k.now)
	return p
}

// spawn starts fn as a new process scheduled at the current time.
func (k *Kernel) spawn(name string, fn func(p *Proc), daemon bool) *Proc {
	p := &Proc{k: k, daemon: daemon}
	k.start(p, name, fn)
	k.schedule(p, k.now)
	return p
}

// start registers p as a live process with body fn.
func (k *Kernel) start(p *Proc, name string, fn func(p *Proc)) {
	k.procSeq++
	p.id = k.procSeq
	p.name = name
	p.fn = fn
	k.live++
	if p.daemon {
		k.daemons++
	}
	p.slot = len(k.procs)
	k.procs = append(k.procs, p)
}

// exit retires p once its body has returned: it wakes p's joiners and
// returns p's carrier to the idle pool.
func (k *Kernel) exit(p *Proc) {
	p.fn = nil
	p.done = true
	k.removeProc(p)
	k.live--
	if p.daemon {
		k.daemons--
	}
	for _, w := range p.waiters {
		w.blockedOn = ""
		k.schedule(w, k.now)
	}
	p.waiters = nil
	p.c.p = nil
	k.idle = append(k.idle, p.c)
	p.c = nil
}

// removeProc swap-removes a finished proc from the diagnostics slice.
func (k *Kernel) removeProc(p *Proc) {
	last := len(k.procs) - 1
	if p.slot < 0 || p.slot > last || k.procs[p.slot] != p {
		return
	}
	q := k.procs[last]
	k.procs[p.slot] = q
	q.slot = p.slot
	k.procs[last] = nil
	k.procs = k.procs[:last]
	p.slot = -1
}

// Spawn starts a child process from a running process.
func (p *Proc) Spawn(name string, fn func(p *Proc)) *Proc {
	return p.k.Spawn(name, fn)
}

// AfterFunc spawns a daemon process that sleeps d of virtual time and
// then runs fn — the timer primitive behind deterministic disturbance
// and fault injection (internal/fault). Because the timer is a daemon,
// it only fires while non-daemon processes keep the simulation alive: an
// injection scheduled beyond the end of the workload never runs, and
// never prevents termination.
func (k *Kernel) AfterFunc(name string, d Time, fn func(p *Proc)) *Proc {
	return k.SpawnDaemon(name, func(p *Proc) {
		p.Sleep(d)
		fn(p)
	})
}

// park switches back to the dispatch loop and returns once the loop
// dispatches p again. Sleep schedules that wake-up before parking; a
// synchronization primitive leaves it to whoever calls k.wake(p). A task
// has no coroutine to switch out of; its stub carrier's yield panics.
func (p *Proc) park(reason string) {
	p.blockedOn = reason
	p.c.yield(struct{}{})
	p.blockedOn = ""
}

// Sleep suspends the process for d of virtual time. Negative durations
// sleep zero time (yield).
func (p *Proc) Sleep(d Time) {
	if p.Wake(d) {
		p.park("sleep")
	}
}

// Wake is the non-parking half of Sleep, for a task's step: it schedules
// p's wake-up d ahead and reports true, and the step then returns to the
// dispatch loop; or it takes Sleep's fast path, advancing the clock in
// place with no event and no sequence number, and reports false, and the
// step continues inline. Negative durations count as zero.
func (p *Proc) Wake(d Time) bool {
	k := p.k
	if d < 0 {
		d = 0
	}
	at := k.now + d
	if at < k.now {
		// Overflow (sleep-forever idioms): schedule() would clamp the
		// wake-up to now; the fast path must not move the clock backwards.
		at = k.now
	}
	// Fast path: if no pending event precedes this wake-up, the scheduler
	// would hand control straight back to this process — advance the
	// clock in place and skip the heap and the carrier switch entirely.
	// Ties go to a queued local event (its sequence number is older), but
	// a delivered cross-domain message carries an intrinsic sequence at or
	// above msgSeqBase and loses the tie to a local wake-up — exactly as
	// the slow path would order them. The message tie MUST take the fast
	// path: the slow path would pop this proc's own wake-up (its fresh
	// local sequence sorts below msgSeqBase) and self-deadlock on resume.
	if at <= k.horizon && !k.runsBefore(at) {
		k.now = at
		return false
	}
	k.schedule(p, at)
	return true
}

// Yield reschedules the process at the current time, letting other
// processes scheduled for the same instant run first.
func (p *Proc) Yield() { p.Sleep(0) }

// wake schedules a blocked process to resume at the current time.
func (k *Kernel) wake(p *Proc) {
	k.schedule(p, k.now)
}

// Join blocks until q has finished.
func (p *Proc) Join(q *Proc) {
	if q.done {
		return
	}
	q.waiters = append(q.waiters, p)
	p.park("join")
}

// reason describes why p is blocked, for deadlock reports. Join parks
// under a bare "join"; its target is the live proc whose waiters hold p.
func (k *Kernel) reason(p *Proc) string {
	for _, q := range k.procs {
		if slices.Contains(q.waiters, p) {
			return "join:" + q.name
		}
	}
	return p.blockedOn
}

// DeadlockError reports the simulation stopping with live, blocked
// processes and no pending events.
type DeadlockError struct {
	Blocked []string // "name (reason)" per blocked proc
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock: %d blocked process(es): %v", len(e.Blocked), e.Blocked)
}

// Run executes the simulation until no events remain. It returns a
// *DeadlockError if live processes remain blocked with an empty event
// queue, and nil otherwise. On a kernel that belongs to a DomainGroup,
// Run drives the whole group's window loop — callers need not know
// whether the simulation was partitioned. A panic in a process body is
// raised again from Run on the caller's goroutine (from a worker's, when
// a group runs on several workers) as a *PanicError.
func (k *Kernel) Run() error {
	if k.dom != nil {
		return k.dom.g.Run()
	}
	return k.run(forever)
}

func (k *Kernel) blockedProcNames() []string {
	var names []string
	for _, p := range k.procs {
		if !p.done && !p.daemon && p.blockedOn != "" {
			names = append(names, fmt.Sprintf("%s (%s)", p.name, k.reason(p)))
		}
	}
	if len(names) == 0 {
		names = append(names, fmt.Sprintf("%d live (details unavailable)", k.live))
	}
	return names
}

// RunFor executes the simulation until virtual time t or until no events
// remain, whichever comes first. Processes still runnable when t is
// reached remain parked; a subsequent Run/RunFor continues them.
func (k *Kernel) RunFor(t Time) error {
	if k.dom != nil {
		return k.dom.g.RunFor(t)
	}
	return k.run(t)
}

// run is the dispatch loop of a plain kernel: it runs the next event
// until only daemons are left, the queue is empty (a deadlock if
// processes are still blocked) or the next event lies beyond horizon.
func (k *Kernel) run(horizon Time) error {
	k.horizon = horizon
	defer k.releaseCarriers()
	for {
		switch {
		case k.live <= k.daemons:
			return nil // only daemons (or nothing) left
		case k.queue.len() == 0:
			return &DeadlockError{Blocked: k.blockedProcNames()}
		case k.queue.e[0].at > horizon:
			k.now = horizon
			return nil
		}
		k.dispatch()
	}
}
