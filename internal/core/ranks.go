package core

import (
	"strconv"
	"time"

	"dmetabench/internal/cluster"
	"dmetabench/internal/results"
	"dmetabench/internal/sim"
)

// WorkerDirs lays out the working directories of one measurement's
// ranks; the simulator and both real-mode runners share it. Rank i,
// whose node index is nodeOf[i], works in
// "<base>/<op>-n<nodes>-p<procs>/p<i padded to 3>", where base is the
// i-th path-list entry (cycling) for namespace-aggregated file systems
// (§3.3.6), else WorkDir. peers[i] is the directory of rank i's partner
// (StatMultinodeFiles, §3.4.3): the next rank on another node if there
// is one, else simply the next rank.
func WorkerDirs(p Params, op string, nodes int, nodeOf []int) (dirs, peers []string) {
	procs := len(nodeOf)
	dirs = make([]string, procs)
	for rank := range dirs {
		base := p.WorkDir
		if len(p.PathList) > 0 {
			base = p.PathList[rank%len(p.PathList)]
		}
		dirs[rank] = workerDir(base, op, nodes, procs, rank)
	}
	peers = make([]string, procs)
	for rank := range peers {
		peers[rank] = dirs[peerRank(rank, nodeOf)]
	}
	return dirs, peers
}

// workerDir builds "<base>/<op>-n<nodes>-p<procs>/p<rank padded to 3>"
// with a single sized allocation (the fmt.Sprintf it replaces showed up
// in measurement-setup profiles).
func workerDir(base, op string, nodes, procs, rank int) string {
	b := make([]byte, 0, len(base)+len(op)+32)
	b = append(b, base...)
	b = append(b, '/')
	b = append(b, op...)
	b = append(b, "-n"...)
	b = strconv.AppendInt(b, int64(nodes), 10)
	b = append(b, "-p"...)
	b = strconv.AppendInt(b, int64(procs), 10)
	b = append(b, "/p"...)
	if rank < 100 {
		b = append(b, '0')
	}
	if rank < 10 {
		b = append(b, '0')
	}
	b = strconv.AppendInt(b, int64(rank), 10)
	return string(b)
}

// peerRank pairs every rank with a partner on another node when
// possible; with a single node the partner is simply the next rank.
func peerRank(rank int, nodeOf []int) int {
	n := len(nodeOf)
	for off := 1; off < n; off++ {
		if cand := (rank + off) % n; nodeOf[cand] != nodeOf[rank] {
			return cand
		}
	}
	return (rank + 1) % n
}

// rankSet is a simulated master's handle on the ranks of one run: their
// contexts, their errors ("" = ok) and the interval log of the phase
// being measured, which counts each rank's progress since base.
type rankSet struct {
	ctxs   []*Ctx
	errs   []string
	base   []int64
	traces [][]int64
}

func newRankSet(ctxs []*Ctx) *rankSet {
	n := len(ctxs)
	return &rankSet{ctxs: ctxs, errs: make([]string, n),
		base: make([]int64, n), traces: make([][]int64, n)}
}

// spawn starts one process per rank, in rank order, named prefix+rank
// and running on nodes[rank]. Each starts its phase clock and binds its
// file system client before it runs body.
func (rs *rankSet) spawn(k *sim.Kernel, fsys FileSystem, prefix string,
	nodes []*cluster.Node, body func(p *sim.Proc, c *Ctx)) {
	for rank, c := range rs.ctxs {
		node := nodes[rank]
		k.Spawn(prefix+strconv.Itoa(rank), func(p *sim.Proc) {
			c.Now = clockFrom(p)
			c.FS = fsys.NewClient(node, p)
			body(p, c)
		})
	}
}

// clockFrom returns a clock reading the virtual time elapsed since now.
func clockFrom(p *sim.Proc) func() time.Duration {
	start := p.Now()
	return func() time.Duration { return p.Now() - start }
}

// startLog opens a fresh interval log with room for n samples per rank.
func (rs *rankSet) startLog(n int) {
	for i := range rs.traces {
		rs.traces[i] = make([]int64, 0, n)
	}
}

// sample appends every rank's progress since base to its log.
func (rs *rankSet) sample() {
	for i, c := range rs.ctxs {
		rs.traces[i] = append(rs.traces[i], c.Progress()-rs.base[i])
	}
}

// rebase counts every rank's progress from its current value on.
func (rs *rankSet) rebase() {
	for i, c := range rs.ctxs {
		rs.base[i] = c.Progress()
	}
}

// measurement assembles the logged phase: rank i's trace is its log,
// its final count the progress it made since base[i], and its finishing
// time finishedAt(i). The errors are copied, so later phases cannot
// rewrite the result.
func (rs *rankSet) measurement(op string, nodes, ppn int, interval time.Duration,
	finishedAt func(rank int) time.Duration) *results.Measurement {
	m := &results.Measurement{
		Op:       op,
		Nodes:    nodes,
		PPN:      ppn,
		Interval: interval,
		Errors:   append([]string(nil), rs.errs...),
	}
	for i, c := range rs.ctxs {
		m.Traces = append(m.Traces, results.Trace{
			Host:       c.Node,
			Op:         op,
			Proc:       i,
			Done:       rs.traces[i],
			Final:      c.Progress() - rs.base[i],
			FinishedAt: finishedAt(i),
		})
	}
	return m
}
