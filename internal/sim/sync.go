package sim

// waiter is a process queued on a synchronization primitive.
type waiter struct {
	p   *Proc
	pri int   // lower value = served first
	seq int64 // FIFO tie-break
	n   int64 // units requested (semaphores)
}

// lessThan orders waiters by (pri, seq); seq ties never occur.
func (a waiter) lessThan(b waiter) bool {
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

// waitQueue is a binary min-heap of waiters ordered by (pri, seq),
// sharing the kernel's boxing-free minHeap implementation.
type waitQueue = minHeap[waiter]

// Semaphore is a counted semaphore with priority-aware FIFO queueing.
// Acquire requests may ask for multiple units, which is convenient for
// modelling byte-counted resources such as NVRAM space.
type Semaphore struct {
	k     *Kernel
	label string // blocking reason, built once so that a wait allocates nothing
	units int64
	q     waitQueue
}

// NewSemaphore returns a semaphore holding units units.
func NewSemaphore(k *Kernel, name string, units int64) *Semaphore {
	return &Semaphore{k: k, label: "sem:" + name, units: units}
}

// Available returns the number of free units.
func (s *Semaphore) Available() int64 { return s.units }

// QueueLen returns the number of waiting processes.
func (s *Semaphore) QueueLen() int { return s.q.len() }

// Acquire obtains n units, blocking p until they are available. Waiters
// are served in (priority, arrival) order; a large request blocks later
// smaller requests (no barging), which keeps queueing fair and
// deterministic.
func (s *Semaphore) Acquire(p *Proc, n int64) { s.AcquirePri(p, n, 0) }

// AcquirePri is Acquire with an explicit priority (lower = sooner).
//
// Scheduling bookkeeping (seq numbers, wake-ups) runs on the waiting
// process's own kernel, not the kernel the primitive was created on:
// under a domain group a primitive's ownership can migrate between
// domains at sync points (a promoted backup inherits its dead partner's
// locks), and each domain must only ever touch its own event queue.
// With a single kernel both are the same object.
func (s *Semaphore) AcquirePri(p *Proc, n int64, pri int) {
	if s.q.len() == 0 && s.units >= n {
		s.units -= n
		return
	}
	s.q.push(waiter{p: p, pri: pri, seq: p.k.nextSeq(), n: n})
	p.park(s.label)
}

// Release returns n units and wakes as many waiters as can now be served.
func (s *Semaphore) Release(n int64) {
	s.units += n
	for s.q.len() > 0 && s.q.e[0].n <= s.units {
		w := s.q.pop()
		s.units -= w.n
		w.p.k.wake(w.p)
	}
}

// TryAcquire obtains n units without blocking, reporting success.
func (s *Semaphore) TryAcquire(n int64) bool {
	if s.q.len() == 0 && s.units >= n {
		s.units -= n
		return true
	}
	return false
}

// Mutex is a binary semaphore.
type Mutex struct{ s Semaphore }

// NewMutex returns an unlocked mutex.
func NewMutex(k *Kernel, name string) *Mutex {
	return &Mutex{s: Semaphore{k: k, label: "sem:" + name, units: 1}}
}

// Lock acquires the mutex for p.
func (m *Mutex) Lock(p *Proc) { m.s.Acquire(p, 1) }

// Unlock releases the mutex.
func (m *Mutex) Unlock() { m.s.Release(1) }

// Barrier blocks processes until a fixed number have arrived, then
// releases all of them; it is reusable for successive rounds, matching
// MPI_Barrier semantics used between benchmark phases.
type Barrier struct {
	k       *Kernel
	label   string // blocking reason, built once
	parties int
	arrived []*Proc
}

// NewBarrier returns a barrier for parties processes.
func NewBarrier(k *Kernel, name string, parties int) *Barrier {
	return &Barrier{k: k, label: "barrier:" + name, parties: parties}
}

// Wait blocks p until all parties have called Wait.
func (b *Barrier) Wait(p *Proc) {
	if b.parties <= 1 {
		return
	}
	if len(b.arrived) == b.parties-1 {
		for _, q := range b.arrived {
			q.k.wake(q)
		}
		b.arrived = b.arrived[:0]
		return
	}
	b.arrived = append(b.arrived, p)
	p.park(b.label)
}

// Cond is a waitable condition with explicit Signal/Broadcast, for
// building primitives whose wake-ups are data-dependent.
type Cond struct {
	k     *Kernel
	label string // blocking reason, built once
	q     []*Proc
}

// NewCond returns an empty condition.
func NewCond(k *Kernel, name string) *Cond { return &Cond{k: k, label: "cond:" + name} }

// Wait blocks p until a Signal or Broadcast wakes it.
func (c *Cond) Wait(p *Proc) {
	c.q = append(c.q, p)
	p.park(c.label)
}

// Signal wakes the oldest waiter, if any.
func (c *Cond) Signal() {
	if len(c.q) == 0 {
		return
	}
	p := c.q[0]
	c.q = c.q[1:]
	p.k.wake(p)
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast() {
	for _, p := range c.q {
		p.k.wake(p)
	}
	c.q = c.q[:0]
}

// Waiters reports the number of blocked processes.
func (c *Cond) Waiters() int { return len(c.q) }

// Queue is an unbounded FIFO message queue between processes.
type Queue struct {
	k     *Kernel
	name  string
	items []interface{}
	recv  Cond
}

// NewQueue returns an empty queue.
func NewQueue(k *Kernel, name string) *Queue {
	return &Queue{k: k, name: name, recv: Cond{k: k, label: "cond:q:" + name}}
}

// Put appends v and wakes one receiver.
func (q *Queue) Put(v interface{}) {
	q.items = append(q.items, v)
	q.recv.Signal()
}

// Get removes and returns the oldest item, blocking p while the queue is
// empty.
func (q *Queue) Get(p *Proc) interface{} {
	for len(q.items) == 0 {
		q.recv.Wait(p)
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v
}

// Len returns the number of queued items.
func (q *Queue) Len() int { return len(q.items) }

// Resource models a station with a fixed number of servers and
// priority-FIFO queueing: Use(p, d) occupies one server for d of virtual
// time. It is the building block for CPUs, disks, server thread pools and
// network interfaces.
type Resource struct {
	sem  *Semaphore
	busy int64 // cumulative busy time across servers
	kern *Kernel
}

// NewResource returns a resource with servers parallel servers.
func NewResource(k *Kernel, name string, servers int) *Resource {
	return &Resource{sem: NewSemaphore(k, name, int64(servers)), kern: k}
}

// Use occupies one server for d.
func (r *Resource) Use(p *Proc, d Time) { r.UsePri(p, d, 0) }

// UsePri is Use with a queueing priority (lower = sooner).
func (r *Resource) UsePri(p *Proc, d Time, pri int) {
	r.sem.AcquirePri(p, 1, pri)
	p.Sleep(d)
	r.busy += int64(d)
	r.sem.Release(1)
}

// Acquire and Release expose manual holds for callers that interleave
// other waits while holding a server.
func (r *Resource) Acquire(p *Proc)             { r.sem.Acquire(p, 1) }
func (r *Resource) AcquirePri(p *Proc, pri int) { r.sem.AcquirePri(p, 1, pri) }
func (r *Resource) Release()                    { r.sem.Release(1) }

// QueueLen returns the number of waiting processes.
func (r *Resource) QueueLen() int { return r.sem.QueueLen() }

// BusyTime returns cumulative busy time summed over servers (only
// accounting for completed Use calls).
func (r *Resource) BusyTime() Time { return Time(r.busy) }
