package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"aviv/internal/server"
)

// RouterConfig configures a Router.
type RouterConfig struct {
	// Nodes is the cluster membership the router dispatches over.
	Nodes []string
	// ProbeInterval, ForwardTimeout: as in Config; zero values select
	// the same defaults.
	ProbeInterval  time.Duration
	ForwardTimeout time.Duration
	// Transport overrides the HTTP transport (tests); nil is default.
	Transport http.RoundTripper
}

// Router is the thin `avivd -route` front end: it computes each
// request's content key, sends it to the owning node, and fails over
// along the ring when the owner is down. It holds no compiler and no
// cache — the nodes do the work; the router only makes the first hop
// land on the right shard so node-side forwarding is the exception,
// not the rule. It deliberately does not set the forwarded marker:
// if its membership view is stale, the receiving node may still make
// one corrective hop.
type Router struct {
	ring      *Ring
	nodes     []string
	health    *healthTracker
	client    *http.Client
	done      chan struct{}
	closeOnce sync.Once
}

// NewRouter builds and starts a Router (probe loop runs until Close).
func NewRouter(cfg RouterConfig) *Router {
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = 30 * time.Second
	}
	rt := &Router{
		ring:   NewRing(cfg.Nodes),
		health: newHealthTracker(),
		client: &http.Client{Timeout: cfg.ForwardTimeout, Transport: cfg.Transport},
		done:   make(chan struct{}),
	}
	rt.nodes = rt.ring.Nodes()
	go rt.health.probeLoop(rt.done, rt.client, rt.nodes, "", cfg.ProbeInterval)
	return rt
}

// Close stops the probe loop.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() { close(rt.done) })
}

// Handler returns the router's HTTP surface: POST /compile (routed),
// GET /healthz.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/compile", rt.handleCompile)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (rt *Router) handleCompile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	var req server.CompileRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	key := server.RequestKey(req)

	// Walk the ring from the owner: each transport failure ejects that
	// node and retries the next healthy one, so a dead node costs one
	// connection error per request at worst, and nothing once probes
	// notice. Non-transport responses (including 429 and compile
	// errors) pass through verbatim — the owner answered, its answer
	// stands.
	tried := make(map[string]bool, len(rt.nodes))
	for len(tried) < len(rt.nodes) {
		target := rt.ring.Owner(key, func(n string) bool {
			return !tried[n] && rt.health.healthy(n)
		})
		if target == "" {
			// Every healthy node tried and failed; last resort is any
			// untried node regardless of health state.
			target = rt.ring.Owner(key, func(n string) bool { return !tried[n] })
		}
		if target == "" {
			break
		}
		tried[target] = true
		httpReq, err := http.NewRequestWithContext(r.Context(), http.MethodPost, target+"/compile", bytes.NewReader(body))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		httpReq.Header.Set("Content-Type", "application/json")
		resp, err := rt.client.Do(httpReq)
		if err != nil {
			rt.health.markFailure(target)
			if r.Context().Err() != nil {
				return // client gone; nothing to write
			}
			continue
		}
		copyResponse(w, resp)
		return
	}
	http.Error(w, "no cluster node reachable", http.StatusBadGateway)
}

// copyResponse relays a node's answer to the client.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}
