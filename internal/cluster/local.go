package cluster

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"aviv/internal/server"
)

// LocalConfig configures an in-process cluster (see StartLocal).
type LocalConfig struct {
	// N is the node count.
	N int
	// NodeConfig builds node i's compile-server configuration. Each
	// node must get its own cache tiers — sharing one store across
	// nodes would silently fake the aggregate-capacity effect the
	// cluster exists to provide.
	NodeConfig func(i int) server.Config
	// ProbeInterval, ForwardTimeout, EntryTimeout: as in Config; zero
	// values select the same defaults.
	ProbeInterval  time.Duration
	ForwardTimeout time.Duration
	EntryTimeout   time.Duration
	// Transport overrides every node's peer-RPC transport (tests
	// inject corrupting or failing round-trippers); nil is default.
	Transport http.RoundTripper
}

// LocalCluster is an in-process cluster: N nodes on loopback
// listeners, optionally fronted by a router. It backs this package's
// tests and the root differential test (TestClusterDifferentialCorpus,
// the clustersmoke CI stage) — same Node and Router code as
// production, only the listeners are local.
type LocalCluster struct {
	Nodes []*Node
	URLs  []string

	cfg       LocalConfig
	listeners []net.Listener
	servers   []*http.Server
	router    *Router
	routerLn  net.Listener
	routerSrv *http.Server
}

// StartLocal brings up an N-node cluster and returns once every node
// is serving. Callers own Close.
func StartLocal(cfg LocalConfig) (*LocalCluster, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("cluster: N must be positive, got %d", cfg.N)
	}
	lc := &LocalCluster{cfg: cfg}
	// Reserve every address first so each node knows the full
	// membership before any of them starts.
	for i := 0; i < cfg.N; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			lc.Close()
			return nil, err
		}
		lc.listeners = append(lc.listeners, ln)
		lc.URLs = append(lc.URLs, "http://"+ln.Addr().String())
	}
	for i := 0; i < cfg.N; i++ {
		scfg := server.Config{}
		if cfg.NodeConfig != nil {
			scfg = cfg.NodeConfig(i)
		}
		node := New(Config{
			Self:           lc.URLs[i],
			Peers:          lc.URLs,
			Server:         scfg,
			ProbeInterval:  cfg.ProbeInterval,
			ForwardTimeout: cfg.ForwardTimeout,
			EntryTimeout:   cfg.EntryTimeout,
			Transport:      cfg.Transport,
		})
		lc.Nodes = append(lc.Nodes, node)
		hs := &http.Server{Handler: node.Handler()}
		lc.servers = append(lc.servers, hs)
		go hs.Serve(lc.listeners[i])
	}
	return lc, nil
}

// StartRouter fronts the cluster with a Router on its own loopback
// listener and returns the router's base URL.
func (lc *LocalCluster) StartRouter() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	lc.routerLn = ln
	lc.router = NewRouter(RouterConfig{
		Nodes:          lc.URLs,
		ProbeInterval:  lc.cfg.ProbeInterval,
		ForwardTimeout: lc.cfg.ForwardTimeout,
	})
	lc.routerSrv = &http.Server{Handler: lc.router.Handler()}
	go lc.routerSrv.Serve(ln)
	return "http://" + ln.Addr().String(), nil
}

// Router exposes the running router, if StartRouter was called.
func (lc *LocalCluster) Router() *Router { return lc.router }

// KillNode abruptly stops node i — connections refused, no drain —
// simulating a crash. The node stays dead; peers eject it reactively
// or via probes.
func (lc *LocalCluster) KillNode(i int) {
	if lc.servers[i] != nil {
		lc.servers[i].Close()
		lc.servers[i] = nil
	}
	lc.Nodes[i].Close()
}

// Close shuts the whole cluster down.
func (lc *LocalCluster) Close() {
	if lc.routerSrv != nil {
		lc.routerSrv.Close()
	}
	if lc.router != nil {
		lc.router.Close()
	}
	for i := range lc.servers {
		if lc.servers[i] != nil {
			lc.servers[i].Close()
		}
	}
	for _, n := range lc.Nodes {
		n.Close()
	}
}
