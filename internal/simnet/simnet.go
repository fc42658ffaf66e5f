// Package simnet models the network paths of a distributed file system:
// propagation latency, bandwidth-limited transfer and server-side thread
// pools with FIFO queueing.
//
// The model is intentionally at RPC granularity — the thesis shows that
// metadata performance in distributed file systems is dominated by
// request/response latency and server queueing (§4.6), not by wire
// details, so a latency + bandwidth + thread-pool abstraction captures
// the relevant behaviour.
//
// Servers can be marked down and up again (SetDown/SetUp), the substrate
// hook the failure-injection experiments (E19–E21, internal/fault) drive:
// a Conn.TryCall against a down server burns the client-observed RPC
// timeout and returns ErrDown instead of executing its service body.
//
// Connections are direction-agnostic: a Server can just as well stand
// for a client node's callback endpoint, with the metadata servers
// holding Conns to it. The lease-coherence protocol (internal/shard
// coherence.go, E22–E24) uses exactly that for its server→client
// revocation and delegation-recall callbacks, with a per-node callback
// thread pool so coherence traffic cannot deadlock against the MDS
// client/peer pools.
//
// Under a kernel DomainGroup a server's state lives in one domain while
// its callers may run in others. Call and TryCall then move the calling
// process into the server's domain for the service body and back
// (sim.Call), and the client-cache updates a body queues with Defer
// apply once the caller is home. The same two methods serve the inline
// and the cross-domain case, so every model has one RPC path.
package simnet

import (
	"errors"
	"time"

	"dmetabench/internal/clientcache"
	"dmetabench/internal/sim"
)

// ErrDown is returned by TryCall when the server is down: the client's
// request received no reply within its timeout.
var ErrDown = errors.New("simnet: server down")

// DefaultFailTimeout is the client-observed RPC timeout charged by
// TryCall against a down server when the connection sets none.
const DefaultFailTimeout = 500 * time.Millisecond

// Server is an RPC service endpoint with a bounded worker thread pool.
// Requests queue in arrival order when all threads are busy.
type Server struct {
	Name    string
	Threads *sim.Resource

	k       *sim.Kernel
	rpcName string // "rpc:"+Name, the name of a cross-domain call
	down    bool
	downs   int64
}

// NewServer returns a server with the given number of worker threads.
// The kernel is where the server's state lives: when it belongs to a
// domain group, callers from other domains migrate to it to run their
// service bodies there (Call).
func NewServer(k *sim.Kernel, name string, threads int) *Server {
	return &Server{Name: name, k: k, rpcName: "rpc:" + name,
		Threads: sim.NewResource(k, "srv:"+name, threads)}
}

// Kernel returns the kernel (and therefore the domain) the server's
// state lives on.
func (s *Server) Kernel() *sim.Kernel { return s.k }

// SetDown marks the server crashed: subsequent (and already queued)
// TryCall requests fail with ErrDown until SetUp. State changes take
// effect between operations — the simulator runs one process at a time,
// so a service body never observes the flag flipping mid-execution.
func (s *Server) SetDown() {
	if !s.down {
		s.down = true
		s.downs++
	}
}

// SetUp marks the server reachable again.
func (s *Server) SetUp() { s.down = false }

// IsDown reports whether the server is currently down.
func (s *Server) IsDown() bool { return s.down }

// Downs returns the number of times the server has gone down.
func (s *Server) Downs() int64 { return s.downs }

// Conn is a client's path to a server: one-way latency plus a bandwidth
// limit shared by all users of the connection.
type Conn struct {
	srv *Server
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Bandwidth in bytes per second; 0 means unlimited.
	Bandwidth int64
	// FailTimeout is the time a TryCall against a down server blocks
	// before reporting ErrDown (the client's RPC timeout). Zero means
	// DefaultFailTimeout.
	FailTimeout time.Duration
	// wire serializes transfers on this connection when bandwidth-limited.
	wire *sim.Resource
}

// NewConn returns a connection to srv with the given one-way latency and
// bandwidth (bytes/s, 0 = unlimited).
func NewConn(k *sim.Kernel, srv *Server, latency time.Duration, bandwidth int64) *Conn {
	c := &Conn{srv: srv, Latency: latency, Bandwidth: bandwidth}
	if bandwidth > 0 {
		c.wire = sim.NewResource(k, "wire:"+srv.Name, 1)
	}
	return c
}

// Server returns the connection's endpoint.
func (c *Conn) Server() *Server { return c.srv }

// transferTime returns the serialization delay for n bytes.
func (c *Conn) transferTime(n int64) time.Duration {
	if c.Bandwidth <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / float64(c.Bandwidth) * float64(time.Second))
}

// send models moving n bytes across the connection in one direction.
func (c *Conn) send(p *sim.Proc, n int64) {
	if c.wire != nil && n > 0 {
		c.wire.Use(p, c.transferTime(n))
	}
	p.Sleep(c.Latency)
}

// callCtx is the cross-domain call state simnet keeps in sim.Proc.Ctx:
// the reply fills queued by the service bodies of the calls p has in
// progress, innermost last, and how many such calls there are. It is
// made once per process and reused by every later call.
type callCtx struct {
	fills []clientcache.Fill
	depth int
}

// Defer applies fill for the RPC whose service body is running on p:
// state the protocol ships back to the client (cache fills, lease
// grants) must change client-side structures in the client's domain,
// not the server's. On the inline (same-kernel) path, and outside any
// RPC, it applies on the spot — the legacy semantics; in a cross-domain
// service body it applies right after p has migrated back home, which
// is both deterministic and race-free.
func Defer(p *sim.Proc, fill clientcache.Fill) {
	if cc, ok := p.Ctx.(*callCtx); ok && cc.depth > 0 {
		cc.fills = append(cc.fills, fill)
		return
	}
	fill.Apply()
}

// cross reports whether an RPC from p to the server crosses domains.
func (c *Conn) cross(p *sim.Proc) bool {
	return c.srv.k != p.Kernel() && p.Kernel().Group() != nil &&
		p.Kernel().Group() == c.srv.k.Group()
}

// Call performs a synchronous RPC: request transfer and propagation,
// queueing for a server thread, the caller-supplied service body, then
// the reply path. service runs while holding a server thread; it charges
// whatever virtual time the operation costs at the server. When the
// caller runs in another domain of the server's DomainGroup, the caller
// migrates to the server's domain for the body (sim.Call) and the
// one-way latencies ride the migration; virtual-time cost is identical
// to the inline path.
func (c *Conn) Call(p *sim.Proc, reqBytes, respBytes int64, service func(p *sim.Proc)) {
	if c.cross(p) {
		c.callCross(p, reqBytes, respBytes, false, service)
		return
	}
	c.send(p, reqBytes)
	c.srv.Threads.Acquire(p)
	service(p)
	c.srv.Threads.Release()
	c.send(p, respBytes)
}

// callCross is the cross-domain half of Call and TryCall: the body runs
// in the server's domain, and the fills it queued with Defer apply once
// p is home again. With checkDown, a crash landing while the request
// is queued is detected in the server's domain; the client then waits
// out its RPC timer after the (wasted) round trip.
func (c *Conn) callCross(p *sim.Proc, reqBytes, respBytes int64, checkDown bool, service func(p *sim.Proc)) error {
	if c.wire != nil && reqBytes > 0 {
		c.wire.Use(p, c.transferTime(reqBytes))
	}
	cc, _ := p.Ctx.(*callCtx)
	if cc == nil {
		cc = new(callCtx)
		p.Ctx = cc
	}
	mark := len(cc.fills)
	cc.depth++
	srv := c.srv
	crashed := false
	sim.Call(p, srv.k, c.Latency, srv.rpcName, func(q *sim.Proc) {
		srv.Threads.Acquire(q)
		if checkDown && srv.down {
			srv.Threads.Release()
			crashed = true
			return
		}
		service(q)
		srv.Threads.Release()
	})
	cc.depth--
	for i := mark; i < len(cc.fills); i++ {
		cc.fills[i].Apply()
	}
	clear(cc.fills[mark:])
	cc.fills = cc.fills[:mark]
	if crashed {
		p.Sleep(c.failTimeout())
		return ErrDown
	}
	if c.wire != nil && respBytes > 0 {
		c.wire.Use(p, c.transferTime(respBytes))
	}
	return nil
}

// failTimeout returns the effective client RPC timeout.
func (c *Conn) failTimeout() time.Duration {
	if c.FailTimeout > 0 {
		return c.FailTimeout
	}
	return DefaultFailTimeout
}

// TryCall is Call against a server that may be down. A request to a down
// server blocks for the connection's FailTimeout (the client waiting out
// its RPC timer) and returns ErrDown without running the service body; a
// request that was already queued for a worker thread when the server
// crashed fails the same way once dequeued. Fault-tolerant clients wrap
// TryCall in a retry loop with deterministic backoff (internal/shard).
//
// The down flag is safe to read from any domain: under a domain group
// it only flips at sync points, where every domain is parked (the
// window barrier is the happens-before edge).
func (c *Conn) TryCall(p *sim.Proc, reqBytes, respBytes int64, service func(p *sim.Proc)) error {
	if c.srv.down {
		p.Sleep(c.failTimeout())
		return ErrDown
	}
	if c.cross(p) {
		return c.callCross(p, reqBytes, respBytes, true, service)
	}
	c.send(p, reqBytes)
	c.srv.Threads.Acquire(p)
	if c.srv.down {
		// The server crashed while this request sat in its queue: the
		// service never ran, the client times out like an unsent request.
		c.srv.Threads.Release()
		p.Sleep(c.failTimeout())
		return ErrDown
	}
	service(p)
	c.srv.Threads.Release()
	c.send(p, respBytes)
	return nil
}

// OneWay models a fire-and-forget message (used for asynchronous
// write-back flushes): the sender pays the transfer cost and the service
// body runs in a spawned process after the propagation delay.
func (c *Conn) OneWay(p *sim.Proc, reqBytes int64, service func(p *sim.Proc)) {
	if c.wire != nil && reqBytes > 0 {
		c.wire.Use(p, c.transferTime(reqBytes))
	}
	lat := c.Latency
	srv := c.srv
	if c.cross(p) {
		sim.Post(p, srv.k, lat, "oneway:"+srv.Name, func(q *sim.Proc) {
			srv.Threads.Acquire(q)
			service(q)
			srv.Threads.Release()
		})
		return
	}
	p.Spawn("oneway:"+srv.Name, func(q *sim.Proc) {
		q.Sleep(lat)
		srv.Threads.Acquire(q)
		service(q)
		srv.Threads.Release()
	})
}

// RTT returns the request/response round-trip latency of the connection
// (excluding transfer and service time).
func (c *Conn) RTT() time.Duration { return 2 * c.Latency }
