// Conservative-lookahead parallel execution: a DomainGroup partitions
// one simulation into N kernel domains — each with its own event heap,
// clock, sequence counters and random source — that execute windows of
// virtual time concurrently on real OS threads and exchange timestamped
// messages between windows.
//
// The partition is static: state created on a domain's kernel stays
// there, and the only cross-domain interaction is Call, which migrates
// the calling process to the destination kernel for a body and back.
// If every such migration carries a minimum delay L (the lookahead —
// for the sharded MDS model, the interconnect latency floor
// crossShardLatency), then after all mailboxes are drained the events
// in the window [M, M+L) — M being the global minimum pending event
// time — are causally independent across domains: any message sent
// while executing an event at t >= M arrives at t+delay >= M+L, beyond
// the window. Each domain may therefore run its slice of the window in
// isolation, on its own thread, with no locks on the hot path.
//
// Determinism does not depend on the number of worker threads: domains
// only interact through mailboxes that are drained at window edges and
// sorted by (arrival time, sender domain, sender sequence), so the
// merged event order — and every simulation result — is byte-identical
// whether the group runs on one worker or one per domain. The
// determinism matrix test in internal/core pins exactly that.
//
// Windows are adaptive by default (DomainGroup.Adaptive): when a single
// domain holds the global minimum event time, its window extends to the
// second-minimum next-event time plus the lookahead — the earliest
// instant anything can reach it — instead of the worst-case fixed edge,
// with a dynamic horizon clamp guarding against arrivals the extended
// window itself provokes. The schedule is byte-identical to fixed
// windows; only the window count drops.
package sim

import (
	"fmt"
	"runtime"
	"sync"
)

// Domain is one partition of a grouped simulation: a kernel plus its
// mailbox. Domain 0 is the kernel the group was built from (clients and
// the benchmark master in the sharded model); further domains host one
// shard each.
type Domain struct {
	id int
	k  *Kernel
	g  *DomainGroup

	mu    sync.Mutex
	inbox []message

	// sendSeq orders messages from this domain; only the goroutine
	// currently executing this domain's window touches it.
	sendSeq int64
}

// message is one cross-domain event in flight: the wake-up of a
// process migrating for Call, on either leg, which resumes it on the
// destination kernel at the arrival time.
type message struct {
	at   Time
	src  int   // sender domain id
	seq  int64 // sender-local sequence
	name string
	wake *Proc
}

// msgSeqBase offsets delivered-message sequence numbers far above any
// kernel-local sequence. A delivered message's heap position is derived
// from its *intrinsic* identity — (sender sequence, sender domain) — not
// from the destination's sequence counter at delivery time, so the order
// of same-timestamp events never depends on which window edge happened
// to deliver the message. That invariance is what lets adaptive windows
// (variable edges) produce byte-identical schedules to fixed windows.
const msgSeqBase = int64(1) << 62

// DomainGroup coordinates a set of domains through the window protocol.
type DomainGroup struct {
	domains   []*Domain
	lookahead Time

	// Workers is the number of OS threads that execute domain windows
	// (default: min(domains, NumCPU)). Results are identical for any
	// value >= 1; tests pin 1 vs N to prove it.
	Workers int

	// Adaptive widens one domain's window past the classic fixed edge
	// when it is the unique holder of the minimum pending event time:
	// that domain may run to (second-minimum next-event time + lookahead)
	// instead of (minimum + lookahead), because no other domain can
	// produce an arrival before that. A dynamic clamp keeps the
	// extension safe against work the window itself creates — see run().
	// Defaults on; results are byte-identical either way (tests pin it),
	// adaptive just reaches the same schedule in fewer, fuller windows.
	Adaptive bool

	// CheckCausality enables the invariant checker: every cross-domain
	// send must carry at least the lookahead, and no domain may be past
	// an in-flight message's arrival time when it is delivered. The
	// checks are cheap compares, so they default on; a violation is a
	// protocol bug and panics with a diagnostic.
	CheckCausality bool

	windows int64  // completed windows, for stats/tests
	ends    []Time // per-domain window ends, reused across windows
}

// Lookahead returns the group's lookahead window width.
func (g *DomainGroup) Lookahead() Time { return g.lookahead }

// NumDomains returns the number of domains in the group.
func (g *DomainGroup) NumDomains() int { return len(g.domains) }

// Windows returns the number of synchronization windows executed so far.
func (g *DomainGroup) Windows() int64 { return g.windows }

// Kernel returns domain i's kernel. Domain 0 is the kernel the group was
// built from.
func (g *DomainGroup) Kernel(i int) *Kernel { return g.domains[i].k }

// AddDomains converts k into domain 0 of a new group and creates n
// further domains whose kernels share the deterministic seed lineage
// (each derived from k's random source). lookahead is the minimum delay
// every cross-domain interaction must carry; it must be positive.
//
// Must be called before k runs. Kernel.Run/RunFor on any member kernel
// drive the whole group afterwards.
func AddDomains(k *Kernel, n int, lookahead Time) *DomainGroup {
	if k.dom != nil {
		panic("sim: kernel already belongs to a domain group")
	}
	if lookahead <= 0 {
		panic("sim: domain lookahead must be positive")
	}
	if n < 1 {
		panic("sim: AddDomains needs at least one extra domain")
	}
	g := &DomainGroup{lookahead: lookahead, CheckCausality: true, Adaptive: true}
	attach := func(kn *Kernel) {
		d := &Domain{id: len(g.domains), k: kn, g: g}
		kn.dom = d
		g.domains = append(g.domains, d)
	}
	attach(k)
	for i := 0; i < n; i++ {
		attach(New(k.rng.Int63()))
	}
	g.Workers = len(g.domains)
	if cpus := runtime.NumCPU(); g.Workers > cpus {
		g.Workers = cpus
	}
	return g
}

// Group returns the domain group k belongs to, or nil for a plain
// single-heap kernel.
func (k *Kernel) Group() *DomainGroup {
	if k.dom == nil {
		return nil
	}
	return k.dom.g
}

// DomainID returns the id of the domain k hosts (0 for a plain kernel).
func (k *Kernel) DomainID() int {
	if k.dom == nil {
		return 0
	}
	return k.dom.id
}

// Call is the cross-domain RPC rendezvous: p migrates to dst's domain,
// arriving after delay, runs fn there on its own stack, and migrates
// back, arriving after the same delay. Timing is identical to sleeping
// the two delays around an inline call; only the domain fn executes in
// changes. Within a single domain — or on a plain kernel — it degrades
// to exactly that inline form, which is the legacy path the Domains<=1
// contract pins. fn is only ever called, never stored, so a caller's
// closure stays on its stack on both paths.
func Call(p *Proc, dst *Kernel, delay Time, name string, fn func(q *Proc)) {
	home := p.k
	if dst == home || home.dom == nil || dst.dom == nil {
		p.Sleep(delay)
		fn(p)
		p.Sleep(delay)
		return
	}
	p.migrate(dst, delay, name)
	fn(p)
	p.migrate(home, delay, name)
}

// migrate parks p and sends it to dst's domain as a wake message
// stamped delay ahead, so it resumes on dst's kernel at the arrival
// time. p keeps its carrier, its Ctx and its registration (live count,
// diagnostics) on the kernel it was spawned on; Call always brings it
// back there.
//
// The send applies the sender-side reflection clamp: a message sent at
// t_s can provoke a reply (processed by the recipient in a later
// window) that arrives no earlier than t_s + 2L, so the sender must not
// execute past t_s + 2L - 1 within its current window. For classic
// fixed windows the bound is a no-op (the window end m + L never
// exceeds t_s + 2L - 1); it only bites when Adaptive has extended this
// domain's window, and is exactly what makes the extension safe against
// arrivals the extension itself provokes.
func (p *Proc) migrate(dst *Kernel, delay Time, name string) {
	src := p.k
	if delay < 0 {
		delay = 0
	}
	g := src.dom.g
	if g != dst.dom.g {
		panic("sim: Call across unrelated domain groups")
	}
	if g.CheckCausality && delay < g.lookahead {
		panic(fmt.Sprintf("sim: causality violation: %s calls %s with delay %v < lookahead %v",
			src.dom.label(), name, delay, g.lookahead))
	}
	d := dst.dom
	d.mu.Lock()
	d.inbox = append(d.inbox, message{at: src.now + delay, src: src.dom.id, seq: src.dom.sendSeq, name: name, wake: p})
	d.mu.Unlock()
	src.dom.sendSeq++
	if h := src.now + 2*g.lookahead - 1; h >= src.now && h < src.horizon {
		src.horizon = h
	}
	p.k = dst
	p.park(name)
}

func (d *Domain) label() string { return fmt.Sprintf("domain %d", d.id) }

// deliver drains every mailbox into its kernel's event queue in
// deterministic order. Called on the coordinating goroutine with all
// domains parked. Each message is enqueued under its intrinsic sequence
// number — msgSeqBase + senderSeq*numDomains + senderDomain — so the
// destination's own sequence counter never advances on delivery and the
// heap order of same-timestamp events is independent of which window
// edge delivered which message (see msgSeqBase).
func (g *DomainGroup) deliver() {
	nd := int64(len(g.domains))
	for _, d := range g.domains {
		d.mu.Lock()
		msgs := d.inbox
		d.inbox = d.inbox[:0]
		d.mu.Unlock()
		if len(msgs) == 0 {
			continue
		}
		for _, m := range msgs {
			if g.CheckCausality && m.at < d.k.now {
				panic(fmt.Sprintf("sim: causality violation: %s at %v receives message %q stamped %v from domain %d",
					d.label(), d.k.now, m.name, m.at, m.src))
			}
			d.k.scheduleSeq(m.wake, m.at, msgSeqBase+m.seq*nd+int64(m.src))
		}
	}
}

// minEvent returns the earliest pending event time across all domains.
func (g *DomainGroup) minEvent() (Time, bool) {
	min, ok := Time(0), false
	for _, d := range g.domains {
		if d.k.queue.len() == 0 {
			continue
		}
		if at := d.k.queue.e[0].at; !ok || at < min {
			min, ok = at, true
		}
	}
	return min, ok
}

// totals returns the group-wide live and daemon process counts.
func (g *DomainGroup) totals() (live, daemons int) {
	for _, d := range g.domains {
		live += d.k.live
		daemons += d.k.daemons
	}
	return
}

// Run executes the whole group until no non-daemon work remains anywhere.
func (g *DomainGroup) Run() error { return g.run(forever) }

// RunFor executes the group until virtual time t (inclusive, like
// Kernel.RunFor) or until no work remains.
func (g *DomainGroup) RunFor(t Time) error { return g.run(t) }

// run is the window loop: deliver mailboxes, decide the next window
// edge (min event + lookahead, capped by the horizon), execute the
// window on the worker pool, repeat.
//
// With Adaptive on, one domain per window may receive a wider end than
// the classic m + lookahead: if exactly one domain holds the global
// minimum pending event time m, every other domain's earliest possible
// send happens at M2 (the second-minimum next-event time) or later, so
// nothing can arrive at the minimum domain before M2 + lookahead — it
// may run until then. The extended domain's own sends can provoke
// replies arriving as early as send-time + 2L, so every cross-domain
// send clamps the sender's horizon to t_s + 2L - 1 (Domain.send). The
// clamp is a no-op for classic fixed windows, and the schedule produced
// is byte-identical either way because delivered messages carry
// window-structure-independent sequence numbers (msgSeqBase) — adaptive
// merely reaches it in fewer, fuller windows.
func (g *DomainGroup) run(horizon Time) error {
	defer func() {
		for _, d := range g.domains {
			d.k.releaseCarriers()
		}
	}()
	for {
		g.deliver()
		live, daemons := g.totals()
		if live <= daemons {
			return nil
		}
		m, haveEvents := g.minEvent()
		if !haveEvents {
			return &DeadlockError{Blocked: g.blockedProcNames()}
		}
		if m > horizon {
			for _, d := range g.domains {
				if d.k.now < horizon {
					d.k.now = horizon
				}
			}
			return nil
		}
		end := m + g.lookahead
		if end < m { // overflow
			end = forever
		}
		if horizon < forever && end > horizon+1 {
			end = horizon + 1
		}
		if cap(g.ends) < len(g.domains) {
			g.ends = make([]Time, len(g.domains))
		}
		ends := g.ends[:len(g.domains)]
		for i := range ends {
			ends[i] = end
		}
		if g.Adaptive {
			argmin, mins := -1, 0
			m2, haveM2 := Time(0), false
			for i, d := range g.domains {
				if d.k.queue.len() == 0 {
					continue
				}
				at := d.k.queue.e[0].at
				if at == m {
					argmin = i
					mins++
					continue
				}
				if !haveM2 || at < m2 {
					m2, haveM2 = at, true
				}
			}
			// Extend only when a second-minimum exists: it is the finite
			// bound on when anything can next reach the minimum domain.
			// Without one (every other domain idle) the extension would
			// be unbounded, and an infinite daemon loop — a consistency-
			// point writer, a journal committer — would spin inside the
			// window forever, never returning to the group loop where
			// termination is decided.
			if mins == 1 && haveM2 {
				ext := m2 + g.lookahead
				if ext < m2 { // overflow
					ext = forever
				}
				if horizon < forever && ext > horizon+1 {
					ext = horizon + 1
				}
				if ext > ends[argmin] {
					ends[argmin] = ext
				}
			}
		}
		g.runWindows(ends)
		g.windows++
	}
}

// runWindows executes events strictly before ends[i] in domain i,
// distributing domains across the worker pool. Correctness never
// depends on the distribution: domains do not interact inside a window.
func (g *DomainGroup) runWindows(ends []Time) {
	workers := g.Workers
	if workers < 1 {
		workers = 1
	}
	if workers == 1 {
		for i, d := range g.domains {
			d.k.runWindow(ends[i])
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(g.domains); i += workers {
				g.domains[i].k.runWindow(ends[i])
			}
		}(w)
	}
	wg.Wait()
}

// blockedProcNames aggregates deadlock diagnostics across domains.
func (g *DomainGroup) blockedProcNames() []string {
	var names []string
	for _, d := range g.domains {
		for _, p := range d.k.procs {
			if !p.done && !p.daemon && p.blockedOn != "" {
				names = append(names, fmt.Sprintf("%s [%s] (%s)", p.name, d.label(), d.k.reason(p)))
			}
		}
	}
	if len(names) == 0 {
		live, _ := g.totals()
		names = append(names, fmt.Sprintf("%d live (details unavailable)", live))
	}
	return names
}

// runWindow drains this kernel's queue up to (but excluding) virtual
// time end. Unlike run(), a domain kernel with blocked processes and an
// empty queue is not deadlocked — a message may arrive next window — and
// daemon-only liveness does not stop the window: termination is decided
// at group level.
func (k *Kernel) runWindow(end Time) {
	k.horizon = end - 1
	for k.queue.len() > 0 && k.queue.e[0].at <= k.horizon {
		k.dispatch()
	}
}
