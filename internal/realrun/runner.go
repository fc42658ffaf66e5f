package realrun

import (
	"net"
	"net/rpc"
	"sync"

	"dmetabench/internal/core"
	"dmetabench/internal/results"
)

// Runner executes plugins with real worker goroutines against a real file
// system (intra-node mode): the RPC master drives Workers in-process
// Worker services, each connected over an in-memory pipe. Nodes is
// always 1; Workers maps to the processes-per-node dimension.
type Runner struct {
	// Root is the directory the virtual namespace is rooted at.
	Root string
	// Workers is the number of concurrent benchmark processes.
	Workers int
	Params  core.Params
	Plugins []core.Plugin
	// Hostname labels the traces; defaults to "localhost".
	Hostname string
}

// Run executes every plugin once at the configured concurrency.
func (r *Runner) Run() (*results.Set, error) {
	if r.Workers < 1 {
		r.Workers = 1
	}
	host := r.Hostname
	if host == "" {
		host = "localhost"
	}
	clients := make([]*rpc.Client, r.Workers)
	hosts := make([]string, r.Workers)
	// Closing a client ends its server's ServeConn; the deferred closes
	// run before the deferred wait.
	var served sync.WaitGroup
	defer served.Wait()
	for i := range clients {
		srv := rpc.NewServer()
		// The in-process workers run the given plugin values, so
		// parameterised plugins work here, not only PluginByName's.
		if err := srv.RegisterName("Worker", &Worker{Hostname: host, plugins: r.Plugins}); err != nil {
			return nil, err
		}
		conn, peer := net.Pipe()
		served.Add(1)
		go func() {
			defer served.Done()
			srv.ServeConn(peer)
		}()
		clients[i] = rpc.NewClient(conn)
		defer clients[i].Close()
		hosts[i] = host
	}
	m := &Master{Root: r.Root, Params: r.Params, Plugins: r.Plugins}
	return m.run(clients, 1, hosts, "os:"+r.Root)
}
