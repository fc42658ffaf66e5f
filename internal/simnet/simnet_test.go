package simnet

import (
	"testing"
	"time"

	"dmetabench/internal/sim"
)

func TestCallLatencyAndService(t *testing.T) {
	k := sim.New(1)
	srv := NewServer(k, "s", 4)
	conn := NewConn(k, srv, time.Millisecond, 0)
	var elapsed time.Duration
	k.Spawn("client", func(p *sim.Proc) {
		start := p.Now()
		conn.Call(p, 100, 100, func(sp *sim.Proc) { sp.Sleep(500 * time.Microsecond) })
		elapsed = p.Now() - start
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := 2*time.Millisecond + 500*time.Microsecond
	if elapsed != want {
		t.Fatalf("RPC took %v, want %v", elapsed, want)
	}
}

func TestThreadPoolQueueing(t *testing.T) {
	k := sim.New(1)
	srv := NewServer(k, "s", 2)
	conn := NewConn(k, srv, 0, 0)
	k.Spawn("load", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			p.Spawn("c", func(q *sim.Proc) {
				conn.Call(q, 0, 0, func(sp *sim.Proc) { sp.Sleep(time.Millisecond) })
			})
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 6 calls of 1ms over 2 threads: 3ms.
	if k.Now() != 3*time.Millisecond {
		t.Fatalf("makespan = %v, want 3ms", k.Now())
	}
}

func TestBandwidthTransfer(t *testing.T) {
	k := sim.New(1)
	srv := NewServer(k, "s", 1)
	conn := NewConn(k, srv, 0, 1<<20) // 1 MB/s
	var elapsed time.Duration
	k.Spawn("client", func(p *sim.Proc) {
		start := p.Now()
		conn.Call(p, 1<<19, 0, func(sp *sim.Proc) {}) // 512 KB at 1 MB/s = 0.5 s
		elapsed = p.Now() - start
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed != 500*time.Millisecond {
		t.Fatalf("transfer took %v, want 500ms", elapsed)
	}
}

func TestRTT(t *testing.T) {
	k := sim.New(1)
	srv := NewServer(k, "s", 1)
	conn := NewConn(k, srv, 250*time.Microsecond, 0)
	if conn.RTT() != 500*time.Microsecond {
		t.Fatalf("RTT = %v", conn.RTT())
	}
}

func TestTryCallOnDownServer(t *testing.T) {
	k := sim.New(1)
	srv := NewServer(k, "s", 1)
	conn := NewConn(k, srv, time.Millisecond, 0)
	conn.FailTimeout = 100 * time.Millisecond
	var errDown, errUp error
	var downElapsed time.Duration
	served := 0
	k.Spawn("client", func(p *sim.Proc) {
		srv.SetDown()
		start := p.Now()
		errDown = conn.TryCall(p, 100, 100, func(sp *sim.Proc) { served++ })
		downElapsed = p.Now() - start
		srv.SetUp()
		errUp = conn.TryCall(p, 100, 100, func(sp *sim.Proc) { served++ })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if errDown != ErrDown {
		t.Fatalf("down call error = %v, want ErrDown", errDown)
	}
	if downElapsed != 100*time.Millisecond {
		t.Fatalf("down call blocked %v, want the 100ms fail timeout", downElapsed)
	}
	if errUp != nil || served != 1 {
		t.Fatalf("recovered call: err=%v served=%d, want nil/1", errUp, served)
	}
	if srv.Downs() != 1 {
		t.Fatalf("Downs() = %d, want 1", srv.Downs())
	}
}

func TestTryCallQueuedAtCrash(t *testing.T) {
	// A request already queued for a worker thread when the server goes
	// down must fail with ErrDown instead of running its service body.
	k := sim.New(1)
	srv := NewServer(k, "s", 1)
	conn := NewConn(k, srv, 0, 0)
	conn.FailTimeout = 50 * time.Millisecond
	var queuedErr error
	queuedServed := false
	k.Spawn("holder", func(p *sim.Proc) {
		conn.TryCall(p, 0, 0, func(sp *sim.Proc) { sp.Sleep(10 * time.Millisecond) })
	})
	k.Spawn("queued", func(p *sim.Proc) {
		p.Yield() // let the holder occupy the only thread first
		queuedErr = conn.TryCall(p, 0, 0, func(sp *sim.Proc) { queuedServed = true })
	})
	k.Spawn("crasher", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond)
		srv.SetDown()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if queuedErr != ErrDown || queuedServed {
		t.Fatalf("queued call: err=%v served=%v, want ErrDown/false", queuedErr, queuedServed)
	}
}
