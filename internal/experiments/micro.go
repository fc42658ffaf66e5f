package experiments

import (
	"fmt"
	"strconv"
	"time"

	"dmetabench/internal/core"
	"dmetabench/internal/fs"
	"dmetabench/internal/namespace"
	"dmetabench/internal/sim"
)

// nullClient is an fs.Client over a bare namespace with no simulated
// costs: it isolates the pure Go overhead of the harness (E02) and
// provides a cheap substrate for op counting (E01).
type nullClient struct {
	ns    *namespace.Namespace
	files fs.Files[fs.Ino]
}

func newNullClient() *nullClient {
	return &nullClient{ns: namespace.New()}
}

func (c *nullClient) Create(p string) error {
	_, err := c.ns.Create(p, 0o644, 0)
	return err
}

func (c *nullClient) Open(p string) (fs.Handle, error) {
	n, err := c.ns.Lookup(p)
	if err != nil {
		return 0, err
	}
	return c.files.Open(n.Ino), nil
}

func (c *nullClient) Close(h fs.Handle) error {
	_, err := c.files.Close(h)
	return err
}

func (c *nullClient) Write(h fs.Handle, n int64) error {
	ino, err := c.files.Get("write", h)
	if err != nil {
		return err
	}
	node := c.ns.Get(ino)
	if node == nil {
		return fs.NewError("write", "", fs.ESTALE)
	}
	return c.ns.SetSize(ino, node.Size+n, 0)
}

func (c *nullClient) Fsync(h fs.Handle) error {
	_, err := c.files.Get("fsync", h)
	return err
}

func (c *nullClient) Mkdir(p string) error {
	_, err := c.ns.Mkdir(p, 0o755, 0)
	return err
}

func (c *nullClient) Rmdir(p string) error  { return c.ns.Rmdir(p, 0) }
func (c *nullClient) Unlink(p string) error { return c.ns.Unlink(p, 0) }
func (c *nullClient) Rename(o, n string) error {
	return c.ns.Rename(o, n, 0)
}
func (c *nullClient) Stat(p string) (fs.Attr, error) {
	return c.ns.Stat(p)
}
func (c *nullClient) ReadDir(p string) ([]fs.DirEntry, error) {
	return c.ns.ReadDir(p, 0)
}
func (c *nullClient) DropCaches() {}

// e01SyscallCounts reproduces the dtrace finding of §4.2.1: a high-level
// file object API issues an extra stat per created file compared with the
// thin OS-call wrapper. We count client operations for both styles.
func e01SyscallCounts() plan {
	const n = 10000

	// Two independent cells, one per API style, each over its own
	// namespace and counter; neither simulates, so both ignore their
	// kernel.
	create := []func(fs.Client, string) error{fs.CreateHighLevel, fs.CreateDirect}
	cells, cs := cellsOf([]string{"high-level", "direct"}, func(int) int64 { return 0 },
		func(i int, _ *sim.Kernel) (*fs.CountingClient, error) {
			c := fs.NewCountingClient(newNullClient())
			for j := 0; j < n; j++ {
				if err := create[i](c, fmt.Sprintf("/f%d", j)); err != nil {
					return nil, err
				}
			}
			return c, nil
		})
	return plan{cs, func(r *Report) {
		naive, direct := cells[0], cells[1]
		r.row("high-level: stat ops", float64(naive.N.Get(fs.OpStat)), "calls", "extra stat per file, like Python file objects")
		r.row("high-level: open ops", float64(naive.N.Get(fs.OpOpen)), "calls", "")
		r.row("high-level: create ops", float64(naive.N.Get(fs.OpCreate)), "calls", "")
		r.row("high-level: total ops", float64(naive.N.Total()), "calls", "")
		r.row("direct: total ops", float64(direct.N.Total()), "calls", "os.open-style thin wrapper")
		ratio := float64(naive.N.Total()) / float64(direct.N.Total())
		r.row("ops amplification", ratio, "x", "")
		r.finding("paper: Python file objects issued equal counts of fstat/open/close; "+
			"here the high-level path issues %.0fx the operations of the direct path",
			ratio)
	}}
}

// e02HarnessOverhead reproduces Table 4.2 (Python-vs-C loop overhead):
// the fixed per-operation cost the benchmark harness adds over a raw
// create loop, measured in real time on a zero-cost file system.
//
// Its two loops run back to back in one cell, which ignores its kernel
// and shares the worker pool like any other cell; the report is
// Volatile, so pool neighbours move only the live numbers.
func e02HarnessOverhead() plan {
	const n = 200000
	var rawDur, harnessDur time.Duration
	loops := func(*sim.Kernel) error {
		// Raw loop: direct namespace creates. Path construction matches
		// the harness plugins' byte-append builder so the delta isolates
		// the harness machinery (context, progress counter, deadline
		// checks) rather than string formatting.
		rawClient := newNullClient()
		start := time.Now()
		for i := 0; i < n; i++ {
			name := "/" + strconv.Itoa(i)
			if err := rawClient.Create(name); err != nil {
				return fmt.Errorf("raw loop: %w", err)
			}
		}
		rawDur = time.Since(start)

		// Harness loop: the MakeFiles plugin with context, counter and
		// deadline checks, as used in every measurement.
		hClient := newNullClient()
		ctx := &core.Ctx{
			FS:      hClient,
			Workers: 1,
			Dir:     "/bench",
			Params:  core.Params{ProblemSize: n},
			Now:     func() time.Duration { return 0 },
		}
		plugin := core.MakeFiles{}
		if err := plugin.Prepare(ctx); err != nil {
			return fmt.Errorf("prepare: %w", err)
		}
		start = time.Now()
		if err := plugin.DoBench(ctx); err != nil {
			return fmt.Errorf("dobench: %w", err)
		}
		harnessDur = time.Since(start)
		return nil
	}
	return plan{[]cell{{"loops", 0, loops}}, func(r *Report) {
		r.row("raw loop", rawDur.Seconds(), "s", fmt.Sprintf("%d creates", n))
		r.row("harness loop", harnessDur.Seconds(), "s", "MakeFiles plugin + progress counter")
		perOp := float64(harnessDur-rawDur) / float64(n)
		r.row("overhead per op", perOp, "ns", "fixed, amortizes at file system speeds")
		pct := 100 * float64(harnessDur-rawDur) / float64(rawDur)
		if pct < 5 && pct > -5 {
			r.finding("paper measured 0.62s (C) vs 2.1s (Python) for 200k creates — a "+
				"fixed 6.9µs/op interpreter tax; the Go harness is within measurement "+
				"noise of the raw loop (%.1f%%), so comparative results are unaffected", pct)
		} else {
			r.finding("paper measured 0.62s (C) vs 2.1s (Python); the Go harness adds "+
				"%.0f ns/op (%.1f%%) over the raw loop", perOp, pct)
		}
	}}
}
