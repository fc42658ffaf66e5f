package realrun

import (
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"time"

	"dmetabench/internal/core"
	"dmetabench/internal/results"
)

// The net/rpc master/worker protocol replaces MPI for real runs:
// dmetaworker daemons (or Runner's in-process workers) register a Worker
// service, the master assigns every worker a rank and its directories
// (core.WorkerDirs), drives the three phases, and polls the progress
// counters on the interval grid.

// SetupArgs configures a worker for one measurement.
type SetupArgs struct {
	Root    string
	Op      string
	Rank    int
	Workers int
	Dir     string
	PeerDir string
	Params  core.Params
}

// PhaseArgs starts one phase; the call returns when the phase finishes.
type PhaseArgs struct {
	Phase string // "prepare" | "dobench" | "cleanup"
}

// PhaseReply carries the phase outcome.
type PhaseReply struct {
	Err        string
	FinishedAt time.Duration // doBench only: time from phase start
	Final      int64
}

// ProgressReply carries the live progress counter.
type ProgressReply struct {
	Done int64
}

// Worker is the RPC service run by dmetaworker, and in-process by
// Runner.
type Worker struct {
	Hostname string
	// plugins, when set, are looked up by name before PluginByName.
	plugins []core.Plugin

	mu       sync.Mutex
	ctx      *core.Ctx
	plugin   core.Plugin
	prepared bool
}

// lookup resolves an operation name to a plugin.
func (w *Worker) lookup(op string) (core.Plugin, error) {
	for _, p := range w.plugins {
		if p.Name() == op {
			return p, nil
		}
	}
	return core.PluginByName(op)
}

// Setup prepares the worker state for one measurement.
func (w *Worker) Setup(args *SetupArgs, _ *struct{}) error {
	plugin, err := w.lookup(args.Op)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.plugin = plugin
	w.prepared = false
	w.ctx = &core.Ctx{
		FS:      NewOSClient(args.Root),
		Rank:    args.Rank,
		Workers: args.Workers,
		Node:    w.Hostname,
		Dir:     args.Dir,
		PeerDir: args.PeerDir,
		Params:  args.Params,
	}
	return nil
}

// RunPhase executes one phase synchronously. doBench is skipped after
// a failed prepare, as in the simulator.
func (w *Worker) RunPhase(args *PhaseArgs, reply *PhaseReply) error {
	w.mu.Lock()
	ctx, plugin, prepared := w.ctx, w.plugin, w.prepared
	w.mu.Unlock()
	if ctx == nil {
		return fmt.Errorf("worker: RunPhase before Setup")
	}
	start := time.Now()
	ctx.Now = func() time.Duration { return time.Since(start) }
	var err error
	switch args.Phase {
	case "prepare":
		err = plugin.Prepare(ctx)
		w.mu.Lock()
		w.prepared = err == nil
		w.mu.Unlock()
	case "dobench":
		if !prepared {
			return nil
		}
		ctx.Deadline = ctx.Params.TimeLimit
		err = plugin.DoBench(ctx)
		reply.FinishedAt = time.Since(start)
		reply.Final = ctx.Progress()
	case "cleanup":
		err = plugin.Cleanup(ctx)
	default:
		return fmt.Errorf("worker: unknown phase %q", args.Phase)
	}
	if err != nil {
		reply.Err = err.Error()
	}
	return nil
}

// Progress reports the current operation count.
func (w *Worker) Progress(_ *struct{}, reply *ProgressReply) error {
	w.mu.Lock()
	ctx := w.ctx
	w.mu.Unlock()
	if ctx != nil {
		reply.Done = ctx.Progress()
	}
	return nil
}

// Serve registers a Worker on the listener and serves until the listener
// closes.
func Serve(l net.Listener, hostname string) error {
	srv := rpc.NewServer()
	if err := srv.RegisterName("Worker", &Worker{Hostname: hostname}); err != nil {
		return err
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go srv.ServeConn(conn)
	}
}

// Master coordinates a distributed real run over a set of worker
// addresses (one OS process per address).
type Master struct {
	Root    string
	Addrs   []string
	Params  core.Params
	Plugins []core.Plugin
}

// Run executes every plugin across all workers, one node per address.
func (m *Master) Run() (*results.Set, error) {
	clients := make([]*rpc.Client, len(m.Addrs))
	for i, addr := range m.Addrs {
		c, err := rpc.Dial("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("dial worker %s: %w", addr, err)
		}
		defer c.Close()
		clients[i] = c
	}
	return m.run(clients, len(clients), m.Addrs, "os-cluster:"+m.Root)
}

// run drives every plugin across the connected workers, which spread
// over the given number of nodes (rank i on node i mod nodes, the
// simulator's round-robin order); hosts[i] labels rank i's trace.
func (m *Master) run(clients []*rpc.Client, nodes int, hosts []string, fsName string) (*results.Set, error) {
	interval := m.Params.Interval
	if interval <= 0 {
		interval = core.DefaultInterval
	}
	set := results.NewSet(m.Params.Label, fsName, interval)
	for _, plugin := range m.Plugins {
		meas, err := m.runOne(clients, plugin, interval, nodes, hosts)
		if err != nil {
			return nil, err
		}
		set.Add(meas)
	}
	return set, nil
}

func (m *Master) runOne(clients []*rpc.Client, plugin core.Plugin, interval time.Duration,
	nodes int, hosts []string) (*results.Measurement, error) {
	n := len(clients)
	nodeOf := make([]int, n)
	for rank := range nodeOf {
		nodeOf[rank] = rank % nodes
	}
	dirs, peers := core.WorkerDirs(m.Params, plugin.Name(), nodes, nodeOf)
	for rank, c := range clients {
		args := &SetupArgs{
			Root: m.Root, Op: plugin.Name(), Rank: rank, Workers: n,
			Dir: dirs[rank], PeerDir: peers[rank], Params: m.Params,
		}
		if err := c.Call("Worker.Setup", args, &struct{}{}); err != nil {
			return nil, fmt.Errorf("setup rank %d: %w", rank, err)
		}
	}

	errs := make([]string, n)
	traces := make([][]int64, n)
	// phase runs one phase on every rank and waits for all of them,
	// polling the progress counters on the interval grid if sample.
	phase := func(name string, sample bool) ([]PhaseReply, error) {
		replies := make([]PhaseReply, n)
		calls := make([]*rpc.Call, n)
		finished := make(chan *rpc.Call, n)
		for rank, c := range clients {
			calls[rank] = c.Go("Worker.RunPhase", &PhaseArgs{Phase: name}, &replies[rank], finished)
		}
		var tick <-chan time.Time
		if sample {
			ticker := time.NewTicker(interval)
			defer ticker.Stop()
			tick = ticker.C
		}
		for left := n; left > 0; {
			select {
			case <-tick:
				for rank, c := range clients {
					var pr ProgressReply
					if err := c.Call("Worker.Progress", &struct{}{}, &pr); err == nil {
						traces[rank] = append(traces[rank], pr.Done)
					}
				}
			case <-finished:
				left--
			}
		}
		for rank, call := range calls {
			if call.Error != nil {
				return nil, fmt.Errorf("%s rank %d: %w", name, rank, call.Error)
			}
			if replies[rank].Err != "" && errs[rank] == "" {
				errs[rank] = name + ": " + replies[rank].Err
			}
		}
		return replies, nil
	}

	if _, err := phase("prepare", false); err != nil {
		return nil, err
	}
	replies, err := phase("dobench", true)
	if err != nil {
		return nil, err
	}
	if _, err := phase("cleanup", false); err != nil {
		return nil, err
	}

	meas := &results.Measurement{
		Op: plugin.Name(), Nodes: nodes, PPN: n / nodes, Interval: interval, Errors: errs,
	}
	for rank := range clients {
		done := traces[rank]
		if len(done) == 0 || done[len(done)-1] < replies[rank].Final {
			done = append(done, replies[rank].Final)
		}
		meas.Traces = append(meas.Traces, results.Trace{
			Host: hosts[rank], Op: plugin.Name(), Proc: rank,
			Done:       done,
			Final:      replies[rank].Final,
			FinishedAt: replies[rank].FinishedAt,
		})
	}
	return meas, nil
}
