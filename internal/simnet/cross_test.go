package simnet

import (
	"testing"
	"time"

	"dmetabench/internal/clientcache"
	"dmetabench/internal/fs"
	"dmetabench/internal/sim"
)

// cell builds a client kernel and a server on it (cross false) or on
// the second domain of a two-domain group (cross true), with the
// server's one-way latency as the group's lookahead.
func cell(cross bool, latency time.Duration, threads int) (*sim.Kernel, *sim.DomainGroup, *Server) {
	k := sim.New(1)
	if !cross {
		return k, nil, NewServer(k, "s", threads)
	}
	g := sim.AddDomains(k, 1, latency)
	return k, g, NewServer(g.Kernel(1), "s", threads)
}

// TestCrossDomainCallTiming checks that Call and TryCall from another
// domain cost exactly the virtual time of the inline path: transfers,
// both one-way latencies and the service body.
func TestCrossDomainCallTiming(t *testing.T) {
	const lat = 100 * time.Microsecond
	// 1000 B out and 500 B back at 1 MB/s, 300us of service.
	want := time.Millisecond + 2*lat + 300*time.Microsecond + 500*time.Microsecond
	for _, cross := range []bool{false, true} {
		k, _, srv := cell(cross, lat, 1)
		conn := NewConn(k, srv, lat, 1_000_000)
		var call, try time.Duration
		var err error
		var ran *sim.Kernel
		k.Spawn("client", func(p *sim.Proc) {
			start := p.Now()
			conn.Call(p, 1000, 500, func(sp *sim.Proc) {
				ran = sp.Kernel()
				sp.Sleep(300 * time.Microsecond)
			})
			call = p.Now() - start
			start = p.Now()
			err = conn.TryCall(p, 1000, 500, func(sp *sim.Proc) { sp.Sleep(300 * time.Microsecond) })
			try = p.Now() - start
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if call != want || try != want || err != nil {
			t.Errorf("cross=%v: Call %v, TryCall %v (err %v), want %v each", cross, call, try, err, want)
		}
		if ran != srv.Kernel() {
			t.Errorf("cross=%v: body ran on domain %d, want the server's %d",
				cross, ran.DomainID(), srv.Kernel().DomainID())
		}
	}
}

// TestCrossDomainTryCallQueuedAtCrash checks the crash path across
// domains: a request queued for the only server thread when the server
// goes down at a sync point fails with ErrDown, without running its
// body, after the wasted round trip plus the connection's FailTimeout.
func TestCrossDomainTryCallQueuedAtCrash(t *testing.T) {
	const lat = 100 * time.Microsecond
	k, g, srv := cell(true, lat, 1)
	conn := NewConn(k, srv, lat, 0)
	conn.FailTimeout = 50 * time.Millisecond
	srv.Kernel().Spawn("holder", func(q *sim.Proc) {
		srv.Threads.Acquire(q)
		q.Sleep(10 * time.Millisecond)
		srv.Threads.Release()
	})
	var err error
	var elapsed time.Duration
	served := false
	k.Spawn("queued", func(p *sim.Proc) {
		g.AtSync(p, 5*time.Millisecond, srv.SetDown)
		start := p.Now()
		err = conn.TryCall(p, 0, 0, func(*sim.Proc) { served = true })
		elapsed = p.Now() - start
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err != ErrDown || served {
		t.Fatalf("queued call: err=%v served=%v, want ErrDown/false", err, served)
	}
	// Dequeued when the holder releases at 10ms, home one latency later.
	if want := 10*time.Millisecond + lat + conn.FailTimeout; elapsed != want {
		t.Errorf("queued call failed after %v, want %v", elapsed, want)
	}
}

// TestCrossDomainReplyFill checks when a fill queued with Defer reaches
// the client's cache: inside the body on the inline path, but across
// domains only once the caller is home — a reader on the client's
// domain must not see it while the call is in flight.
func TestCrossDomainReplyFill(t *testing.T) {
	const lat = 100 * time.Microsecond
	for _, cross := range []bool{false, true} {
		k, _, srv := cell(cross, lat, 1)
		conn := NewConn(k, srv, lat, 0)
		dentries := clientcache.NewDentryCache(time.Hour, k.Now)
		attrs := clientcache.NewAttrCache(time.Hour, k.Now)
		var during, after bool
		var at time.Duration
		k.Spawn("client", func(p *sim.Proc) {
			conn.Call(p, 0, 0, func(sp *sim.Proc) {
				Defer(sp, clientcache.PositiveFill(attrs, dentries, "/f", fs.Attr{Ino: 7}))
				sp.Sleep(time.Millisecond)
			})
			_, _, after = dentries.Lookup("/f")
			a, _ := attrs.Get("/f")
			at = p.Now()
			if a.Ino != 7 {
				t.Errorf("cross=%v: cached attrs %+v, want ino 7", cross, a)
			}
		})
		k.Spawn("reader", func(p *sim.Proc) {
			p.Sleep(lat + time.Millisecond/2) // mid-body
			_, _, during = dentries.Lookup("/f")
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if during == cross || !after {
			t.Errorf("cross=%v: fill visible mid-call %v, after the call %v; want %v, true",
				cross, during, after, !cross)
		}
		if want := 2*lat + time.Millisecond; at != want {
			t.Errorf("cross=%v: call returned at %v, want %v", cross, at, want)
		}
	}
}

// TestCallInlineAllocFree pins the property the single RPC path rests
// on: an undomained Call whose service closure captures the caller's
// locals — and queues a reply fill — allocates nothing, because Call
// only ever calls the closure, on either path.
func TestCallInlineAllocFree(t *testing.T) {
	k := sim.New(1)
	srv := NewServer(k, "s", 1)
	conn := NewConn(k, srv, 100*time.Microsecond, 0)
	dentries := clientcache.NewDentryCache(time.Hour, k.Now)
	attrs := clientcache.NewAttrCache(time.Hour, k.Now)
	var allocs float64
	k.Spawn("client", func(p *sim.Proc) {
		n := 0
		var a fs.Attr
		call := func() {
			conn.Call(p, 100, 100, func(sp *sim.Proc) {
				sp.Sleep(time.Microsecond)
				n++
				a.Size = int64(n)
				Defer(sp, clientcache.PositiveFill(attrs, dentries, "/f", a))
			})
		}
		call() // first insertion grows the cache maps
		allocs = testing.AllocsPerRun(1000, call)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("inline Call allocated %.2f objects per call, want 0", allocs)
	}
}
