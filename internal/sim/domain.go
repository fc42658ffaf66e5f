// Conservative-lookahead parallel execution: a DomainGroup partitions
// one simulation into N kernel domains — each with its own event heap,
// clock, sequence counters and random source — that execute windows of
// virtual time concurrently on real OS threads and exchange timestamped
// messages between windows.
//
// The protocol is the classic conservative (null-message-free, barrier
// style) scheme: if every cross-domain interaction carries a minimum
// delay L (the lookahead — for the sharded MDS model, the interconnect
// latency floor Config.CrossShardLatency), then after all mailboxes are
// drained the events in the window [M, M+L) — M being the global
// minimum pending event time — are causally independent across domains:
// any message sent while executing an event at t >= M arrives at
// t+delay >= M+L, beyond the window. Each domain may therefore run its
// slice of the window in isolation, on its own thread, with no locks on
// the hot path.
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
// with dynamic horizon clamps guarding against arrivals the extended
// window itself provokes (sends, sync registrations). The schedule is
// byte-identical to fixed windows; only the window count drops.
//
// Rare global transitions that cannot be expressed as priced messages
// (server crashes, failover takeovers, split re-partitioning) register
// sync points: virtual times at which every domain rendezvous exactly.
// A sync point forces a window edge; the registered functions run on the
// coordinating goroutine while every domain is parked at that instant,
// so they may touch any domain's state race-free, and every domain
// observes the transition at the same virtual time. Because domains
// resume only after the coordinating barrier, cross-domain reads of
// sync-point-managed state need no locks either: the barrier is the
// happens-before edge.
package sim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
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

// message is one cross-domain event in flight. Exactly one of fn and
// wake is set: fn runs as a fresh (pooled) process at the arrival time
// (Post), wake resumes a parked process on the destination kernel — a
// process migrating for Call, on either leg.
type message struct {
	at   Time
	src  int   // sender domain id
	seq  int64 // sender-local sequence
	name string
	fn   func(p *Proc)
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

// syncPoint is a registered global rendezvous.
type syncPoint struct {
	at  Time
	src int
	seq int64
	fn  func()
}

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
	// produce an arrival before that. Two dynamic clamps keep the
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

	mu      sync.Mutex
	syncs   []syncPoint
	syncSeq int64

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

// Post sends a cross-domain message: fn runs in dst's domain as a new
// process at p's current time plus delay. Within one domain it is an
// ordinary deferred spawn. Across domains the delay must be at least the
// group lookahead — that bound is what makes the window protocol safe —
// and the message is delivered at the next window edge, so its execution
// order depends only on (arrival time, sender domain, sender sequence),
// never on thread timing.
func Post(p *Proc, dst *Kernel, delay Time, name string, fn func(q *Proc)) {
	src := p.k
	if delay < 0 {
		delay = 0
	}
	if dst == src || src.dom == nil || dst.dom == nil {
		dst.spawn(name, dst.now+delay, fn, false)
		return
	}
	g := src.dom.g
	if g != dst.dom.g {
		panic("sim: Post across unrelated domain groups")
	}
	if g.CheckCausality && delay < g.lookahead {
		panic(fmt.Sprintf("sim: causality violation: %s posts %s with delay %v < lookahead %v",
			src.dom.label(), name, delay, g.lookahead))
	}
	m := message{at: src.now + delay, src: src.dom.id, seq: src.dom.sendSeq, name: name, fn: fn}
	src.dom.sendSeq++
	src.dom.send(dst.dom, m)
}

// send appends m to dst's mailbox and applies the sender-side reflection
// clamp: a message sent at t_s can provoke a reply (processed by the
// recipient in a later window) that arrives no earlier than t_s + 2L, so
// the sender must not execute past t_s + 2L - 1 within its current
// window. For classic fixed windows the bound is a no-op (the window end
// m + L never exceeds t_s + 2L - 1); it only bites when Adaptive has
// extended this domain's window, and is exactly what makes the extension
// safe against arrivals the extension itself provokes.
func (src *Domain) send(dst *Domain, m message) {
	dst.mu.Lock()
	dst.inbox = append(dst.inbox, m)
	dst.mu.Unlock()
	if h := src.k.now + 2*src.g.lookahead - 1; h >= src.k.now && h < src.k.horizon {
		src.k.horizon = h
	}
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
// time. The send is checked and clamped like Post's. p keeps its
// carrier, its Ctx and its registration (live count, diagnostics) on
// the kernel it was spawned on; Call always brings it back there.
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
	m := message{at: src.now + delay, src: src.dom.id, seq: src.dom.sendSeq, name: name, wake: p}
	src.dom.sendSeq++
	src.dom.send(dst.dom, m)
	p.k = dst
	p.park(name)
}

func (d *Domain) label() string { return fmt.Sprintf("domain %d", d.id) }

// AtSync registers fn to run at virtual time at as a global sync point:
// a forced window edge where every domain rendezvous at exactly that
// instant and fn runs with all of them parked. at must be at least the
// caller's current time plus the lookahead — no domain can have advanced
// past that, for the same reason messages are safe.
func (g *DomainGroup) AtSync(p *Proc, at Time, fn func()) {
	if min := p.Now() + g.lookahead; at < min {
		at = min
	}
	// The registering domain must not execute past the rendezvous within
	// its current window: under Adaptive its window may extend beyond
	// at - 1, and fireSyncs would then find its clock past the sync
	// point. Every *other* domain is provably short of at already (its
	// window ends at m + L <= now + L <= at for classic windows, and an
	// extended window ends at M2 + L <= now + L <= at because the
	// registering domain's events bound M2). A no-op for fixed windows.
	if at-1 < p.k.horizon {
		p.k.horizon = at - 1
	}
	g.addSync(p.k.DomainID(), at, fn)
}

// AtSyncAbs registers a sync point from within a running sync function
// (which has no process context). at must lie strictly in the future of
// the sync point being executed.
func (g *DomainGroup) AtSyncAbs(at Time, fn func()) {
	g.addSync(0, at, fn)
}

func (g *DomainGroup) addSync(src int, at Time, fn func()) {
	g.mu.Lock()
	g.syncSeq++
	g.syncs = append(g.syncs, syncPoint{at: at, src: src, seq: g.syncSeq, fn: fn})
	g.mu.Unlock()
}

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
			seq := msgSeqBase + m.seq*nd + int64(m.src)
			if m.wake != nil {
				d.k.scheduleSeq(m.wake, m.at, seq)
				continue
			}
			d.k.spawnMsgAt(m.name, m.at, seq, m.fn)
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

// peekSync returns the earliest registered sync time.
func (g *DomainGroup) peekSync() (Time, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	min, ok := Time(0), false
	for _, s := range g.syncs {
		if !ok || s.at < min {
			min, ok = s.at, true
		}
	}
	return min, ok
}

// fireSyncs runs every sync function registered for time at, in
// (registration domain, registration sequence) order, with all domains
// parked at exactly that virtual time.
func (g *DomainGroup) fireSyncs(at Time) {
	for _, d := range g.domains {
		if g.CheckCausality && d.k.now > at {
			panic(fmt.Sprintf("sim: causality violation: %s reached %v before sync point at %v",
				d.label(), d.k.now, at))
		}
		if d.k.now < at {
			d.k.now = at
		}
	}
	for {
		g.mu.Lock()
		var due []syncPoint
		rest := g.syncs[:0]
		for _, s := range g.syncs {
			if s.at <= at {
				due = append(due, s)
			} else {
				rest = append(rest, s)
			}
		}
		g.syncs = rest
		g.mu.Unlock()
		if len(due) == 0 {
			return
		}
		sort.Slice(due, func(i, j int) bool {
			a, b := due[i], due[j]
			if a.at != b.at {
				return a.at < b.at
			}
			if a.src != b.src {
				return a.src < b.src
			}
			return a.seq < b.seq
		})
		// A sync function may register another sync at the same instant
		// (chained transitions); loop until none remain due.
		for _, s := range due {
			s.fn()
		}
	}
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
// edge (min event + lookahead, capped by the next sync point and the
// horizon), execute the window on the worker pool, fire due sync
// points, repeat.
//
// With Adaptive on, one domain per window may receive a wider end than
// the classic m + lookahead: if exactly one domain holds the global
// minimum pending event time m, every other domain's earliest possible
// send happens at M2 (the second-minimum next-event time) or later, so
// nothing can arrive at the minimum domain before M2 + lookahead — it
// may run until then. Two dynamic clamps close the loopholes the static
// argument leaves open: (a) the extended domain's own sends can provoke
// replies arriving as early as send-time + 2L, so every cross-domain
// send clamps the sender's horizon to t_s + 2L - 1 (Domain.send); (b) a
// sync point it registers clamps its horizon to the rendezvous - 1
// (AtSync). Both clamps are no-ops for classic fixed windows, and the
// schedule produced is byte-identical either way because delivered
// messages carry window-structure-independent sequence numbers
// (msgSeqBase) — adaptive merely reaches it in fewer, fuller windows.
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
		s, haveSync := g.peekSync()
		if !haveEvents && !haveSync {
			return &DeadlockError{Blocked: g.blockedProcNames()}
		}
		if haveEvents && m > horizon {
			for _, d := range g.domains {
				if d.k.now < horizon {
					d.k.now = horizon
				}
			}
			return nil
		}
		var end Time
		switch {
		case haveEvents:
			end = m + g.lookahead
			if end < m { // overflow
				end = forever
			}
		default:
			end = forever
		}
		if haveSync && s < end {
			end = s
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
		if g.Adaptive && haveEvents {
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
				if haveSync && s < ext {
					ext = s
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
		if haveSync && end == s {
			g.fireSyncs(s)
		}
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

// SyncDelay returns the minimum interval after which a sync point
// registered now can fire (the lookahead), letting callers timestamp
// state transitions honestly.
func (g *DomainGroup) SyncDelay() time.Duration { return time.Duration(g.lookahead) }
