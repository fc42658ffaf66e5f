// Package cluster models the client side of the benchmark environment:
// compute nodes with a fixed number of CPU cores, a priority-aware CPU
// scheduler, and per-node operating system state (client caches live in
// the file system models, keyed by node).
//
// The model captures the two kinds of parallelism the thesis insists a
// metadata benchmark must separate (§3.2.2): intra-node parallelism
// (processes sharing one OS instance, its locks and caches) and
// inter-node parallelism (independent OS instances coordinated only by
// the distributed file system).
package cluster

import (
	"fmt"
	"time"

	"dmetabench/internal/sim"
)

// Node is one simulated compute node / OS instance.
type Node struct {
	Name  string
	Index int
	Cores int

	k   *sim.Kernel
	cpu *sim.Resource

	// SyscallTime is the client-side CPU cost charged per file system
	// system call (VFS entry, argument copying, dentry handling).
	SyscallTime time.Duration

	// dirLocks are the per-node VFS locks held on a parent directory
	// during namespace modifications (i_mutex). They serialize
	// same-directory modifications *within* the node, which is exactly
	// the intra-node semantic difference the thesis probes.
	dirLocks map[string]*sim.Mutex

	// hogs counts active CPU hog processes (disturbance injection).
	hogs int
}

// Kernel returns the simulation kernel the node runs on.
func (n *Node) Kernel() *sim.Kernel { return n.k }

// Exec charges d of CPU time at default priority.
func (n *Node) Exec(p *sim.Proc, d time.Duration) { n.cpu.Use(p, d) }

// ExecNice charges d of CPU time at the given niceness; lower niceness is
// scheduled sooner under contention (§4.4 priority scheduling).
func (n *Node) ExecNice(p *sim.Proc, d time.Duration, nice int) {
	n.cpu.UsePri(p, d, nice)
}

// Syscall charges the fixed per-call CPU overhead.
func (n *Node) Syscall(p *sim.Proc) { n.cpu.Use(p, n.SyscallTime) }

// DirLock returns the node-local lock guarding modifications of the
// directory identified by key (typically the parent path of the entry
// being created or removed).
func (n *Node) DirLock(key string) *sim.Mutex {
	m, ok := n.dirLocks[key]
	if !ok {
		m = sim.NewMutex(n.k, "imutex:"+n.Name+":"+key)
		n.dirLocks[key] = m
	}
	return m
}

// CPUQueueLen reports the number of processes waiting for a core.
func (n *Node) CPUQueueLen() int { return n.cpu.QueueLen() }

// StartCPUHog spawns count compute-bound processes at niceness nice that
// keep all cores busy from the current virtual time until stop. It models
// the stress(1) disturbance used in §4.2.3 (Fig. 4.4).
func (n *Node) StartCPUHog(count int, nice int, start, duration time.Duration) {
	for i := 0; i < count; i++ {
		n.k.SpawnDaemon(fmt.Sprintf("hog:%s:%d", n.Name, i), func(p *sim.Proc) {
			p.Sleep(start - p.Now())
			n.hogs++
			end := p.Now() + duration
			for p.Now() < end {
				n.cpu.UsePri(p, time.Millisecond, nice)
			}
			n.hogs--
		})
	}
}

// ActiveHogs returns the number of currently running hog processes.
func (n *Node) ActiveHogs() int { return n.hogs }

// Config describes a node pool.
type Config struct {
	Nodes       int
	Cores       int
	SyscallTime time.Duration
}

// DefaultConfig is a pool of dual-quad-core nodes like the LRZ Linux
// cluster measurement nodes (§4.1.2).
func DefaultConfig(nodes int) Config {
	return Config{Nodes: nodes, Cores: 8, SyscallTime: 3 * time.Microsecond}
}

// Cluster is a set of nodes driven by one simulation kernel.
type Cluster struct {
	Nodes []*Node
	k     *sim.Kernel
}

// New builds a cluster of identical nodes.
func New(k *sim.Kernel, cfg Config) *Cluster {
	c := &Cluster{k: k}
	for i := 0; i < cfg.Nodes; i++ {
		n := &Node{
			Name:        fmt.Sprintf("lx64a%03d", i+100),
			Index:       i,
			Cores:       cfg.Cores,
			k:           k,
			cpu:         sim.NewResource(k, fmt.Sprintf("cpu:%d", i), cfg.Cores),
			SyscallTime: cfg.SyscallTime,
			dirLocks:    make(map[string]*sim.Mutex),
		}
		c.Nodes = append(c.Nodes, n)
	}
	return c
}

// NewSMP builds a single large SMP node (HLRB II partition style, §4.1.3).
func NewSMP(k *sim.Kernel, cores int) *Cluster {
	cfg := Config{Nodes: 1, Cores: cores, SyscallTime: 3 * time.Microsecond}
	c := New(k, cfg)
	c.Nodes[0].Name = "hlrb2-part01"
	return c
}

// Kernel returns the simulation kernel.
func (c *Cluster) Kernel() *sim.Kernel { return c.k }
