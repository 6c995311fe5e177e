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
	// NodeConfig builds node i's compile-server configuration. Give
	// every node a disk tier opened on one shared directory, as N avivd
	// processes given one -cache-dir have.
	NodeConfig func(i int) server.Config
	// ProbeInterval, ForwardTimeout: the router's, as in RouterConfig;
	// zero values select the same defaults.
	ProbeInterval  time.Duration
	ForwardTimeout time.Duration
}

// LocalCluster is an in-process cluster: N plain compile servers on
// loopback listeners, optionally fronted by a router. It backs this
// package's tests and the root differential test
// (TestClusterDifferentialCorpus, the clustersmoke CI stage) — the
// same server and Router code as production, only the listeners are
// local.
type LocalCluster struct {
	Servers []*server.Server
	URLs    []string

	cfg       LocalConfig
	servers   []*http.Server
	router    *Router
	routerSrv *http.Server
}

// StartLocal brings up an N-node cluster and returns once every node
// is serving. Callers own Close.
func StartLocal(cfg LocalConfig) (*LocalCluster, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("cluster: N must be positive, got %d", cfg.N)
	}
	lc := &LocalCluster{cfg: cfg}
	for i := 0; i < cfg.N; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			lc.Close()
			return nil, err
		}
		scfg := server.Config{}
		if cfg.NodeConfig != nil {
			scfg = cfg.NodeConfig(i)
		}
		srv := server.New(scfg)
		hs := &http.Server{Handler: srv.Handler()}
		lc.URLs = append(lc.URLs, "http://"+ln.Addr().String())
		lc.Servers = append(lc.Servers, srv)
		lc.servers = append(lc.servers, hs)
		go hs.Serve(ln)
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

// KillNode abruptly stops node i — connections refused, in-flight
// requests severed — simulating a crash. The node stays dead; the
// router ejects it reactively or via probes.
func (lc *LocalCluster) KillNode(i int) {
	if lc.servers[i] != nil {
		lc.servers[i].Close()
		lc.servers[i] = nil
	}
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
}
