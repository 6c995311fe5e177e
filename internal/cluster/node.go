package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"aviv/internal/cover"
	"aviv/internal/diskcache"
	"aviv/internal/metrics"
	"aviv/internal/server"
)

// forwardedHeader marks a /compile request that already crossed one
// forwarding hop. The receiving node serves it locally no matter who
// the ring says owns the key, which caps routing at one extra hop even
// when two nodes briefly disagree about membership — without the cap a
// disagreement would bounce the request forever.
const forwardedHeader = "X-Aviv-Forwarded"

// forwardedKey is the context marker the handler middleware sets from
// forwardedHeader; the PeerCompiler hook declines forwarded requests.
type forwardedKey struct{}

// Config configures a cluster Node.
type Config struct {
	// Self is this node's advertised base URL (as it appears in Peers).
	Self string
	// Peers is the full cluster membership, including Self.
	Peers []string
	// Server is the underlying compile-server configuration. The node
	// installs itself as Server.Peer and wraps Options.DiskCache with
	// the peering store; when Options.DiskCache is nil an in-memory
	// store backs the peering path.
	Server server.Config
	// ProbeInterval is the health re-probe period — the recovery path
	// for ejected peers; <= 0 selects 1s. Ejection itself is reactive
	// (the first failed forward or fetch marks the peer), so a huge
	// interval only delays recovery, never failure handling.
	ProbeInterval time.Duration
	// ForwardTimeout bounds one forwarded compile RPC; <= 0 selects
	// 30s. EntryTimeout bounds one cache-entry fetch or push; <= 0
	// selects 5s.
	ForwardTimeout time.Duration
	EntryTimeout   time.Duration
	// Transport overrides the HTTP transport for all peer RPCs (tests
	// inject blocking or failing round-trippers); nil uses the default.
	Transport http.RoundTripper
}

// Node is one cluster member: a compile server plus the ring, health
// view, forwarder, and entry-peering store that tie it to its peers.
type Node struct {
	cfg         Config
	ring        *Ring
	health      *healthTracker
	rpcClient   *http.Client // forwarded compiles
	entryClient *http.Client // entry fetch/push, health probes
	srv         *server.Server
	local       cover.EntryStore // the unwrapped local tier behind the peer store
	draining    atomic.Bool
	peerPushes  atomic.Int64
	peerRejects atomic.Int64
	done        chan struct{}
	closeOnce   sync.Once
}

// New builds and starts a Node (its health probe loop runs until
// Close). The returned node's Handler must be served at cfg.Self for
// peers to reach it.
func New(cfg Config) *Node {
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = 30 * time.Second
	}
	if cfg.EntryTimeout <= 0 {
		cfg.EntryTimeout = 5 * time.Second
	}
	hasSelf := false
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			hasSelf = true
		}
	}
	if !hasSelf {
		cfg.Peers = append(append([]string(nil), cfg.Peers...), cfg.Self)
	}
	n := &Node{
		cfg:         cfg,
		ring:        NewRing(cfg.Peers),
		health:      newHealthTracker(),
		rpcClient:   &http.Client{Timeout: cfg.ForwardTimeout, Transport: cfg.Transport},
		entryClient: &http.Client{Timeout: cfg.EntryTimeout, Transport: cfg.Transport},
		done:        make(chan struct{}),
	}
	n.local = cfg.Server.Options.DiskCache
	if n.local == nil {
		n.local = NewMemStore()
	}
	cfg.Server.Options.DiskCache = &peerStore{n: n, local: n.local}
	cfg.Server.Peer = n
	n.srv = server.New(cfg.Server)
	go n.health.probeLoop(n.done, n.entryClient, cfg.Peers, cfg.Self, cfg.ProbeInterval)
	return n
}

// Close stops the probe loop. It does not drain; call Drain first for
// a graceful exit.
func (n *Node) Close() {
	n.closeOnce.Do(func() { close(n.done) })
}

// Server exposes the underlying compile server (for tests and benches).
func (n *Node) Server() *server.Server { return n.srv }

// Self returns the node's advertised URL.
func (n *Node) Self() string { return n.cfg.Self }

// Compile implements server.PeerCompiler: requests whose key another
// node owns are forwarded to that node, making its single-flight group
// the cluster-wide dedup point. Forwarded-in requests and self-owned
// keys stay local; so does any key whose owner cannot be reached — the
// failure is counted, the peer ejected, and the compile falls back to
// the local pipeline (never an error to the client).
func (n *Node) Compile(ctx context.Context, key string, req server.CompileRequest) (*server.CompileResponse, bool, error) {
	if ctx.Value(forwardedKey{}) != nil {
		return nil, false, nil
	}
	owner := n.ring.Owner(key, n.health.healthy)
	if owner == "" || owner == n.cfg.Self {
		return nil, false, nil
	}
	resp, err := n.forward(ctx, owner, req)
	if err != nil {
		if ctx.Err() != nil {
			// The caller is gone (timeout or abandonment), not the peer:
			// propagate so the flight unwinds instead of compiling
			// locally for nobody — and don't eject the peer for a
			// failure that was ours.
			return nil, false, ctx.Err()
		}
		n.health.markFailure(owner)
		c := n.srv.Counters()
		c.ForwardErrors.Add(1)
		c.LocalFallbacks.Add(1)
		return nil, false, nil
	}
	n.health.markSuccess(owner)
	n.srv.Counters().Forwarded.Add(1)
	return resp, true, nil
}

// forward sends one compile to owner. The request context travels with
// the RPC, so when the last local waiter abandons the flight the
// owner's handler context cancels too and its own single-flight
// abandonment semantics take over — waiter counting works across the
// hop.
func (n *Node) forward(ctx context.Context, owner string, req server.CompileRequest) (*server.CompileResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+"/compile", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpReq.Header.Set(forwardedHeader, n.cfg.Self)
	httpResp, err := n.rpcClient.Do(httpReq)
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(httpResp.Body, 4<<10))
		return nil, fmt.Errorf("peer %s: status %d", owner, httpResp.StatusCode)
	}
	var resp server.CompileResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return nil, fmt.Errorf("peer %s: %w", owner, err)
	}
	return &resp, nil
}

// Handler returns the node's HTTP surface: the compile server's
// endpoints (with /stats gaining the cluster section and /healthz
// reflecting drain state) plus /peer/entry for cache peering.
func (n *Node) Handler() http.Handler {
	inner := n.srv.Handler()
	mux := http.NewServeMux()
	mux.HandleFunc("/peer/entry", n.handlePeerEntry)
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		stats := n.srv.Stats()
		stats.Cluster = n.clusterStats()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(stats)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		if n.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(forwardedHeader) != "" {
			r = r.WithContext(context.WithValue(r.Context(), forwardedKey{}, true))
		}
		inner.ServeHTTP(w, r)
	})
	return mux
}

// clusterStats assembles the /stats "cluster" section.
func (n *Node) clusterStats() *metrics.ClusterStats {
	c := n.srv.Counters()
	nodes := n.ring.Nodes()
	return &metrics.ClusterStats{
		Self:           n.cfg.Self,
		Nodes:          len(nodes),
		Healthy:        n.health.healthyCount(nodes),
		Draining:       n.draining.Load(),
		Forwarded:      c.Forwarded.Load(),
		LocalFallbacks: c.LocalFallbacks.Load(),
		PeerHits:       c.PeerHits.Load(),
		PeerMisses:     c.PeerMisses.Load(),
		PeerPushes:     n.peerPushes.Load(),
		PeerRejects:    n.peerRejects.Load(),
		ForwardErrors:  c.ForwardErrors.Load(),
		Drained:        c.Drained.Load(),
	}
}

// handlePeerEntry serves the cache-peering wire protocol. GET returns
// the locally held entry for ?key= in diskcache's checksummed framing
// (404 on miss); POST accepts a framed entry and stores the verified
// payload locally. Both sides go through EncodeEntry/DecodeEntry, so a
// corrupt or truncated transfer is rejected by the sha256 check and
// degrades to a miss — peered bytes are either exactly what the owner
// holds or not used at all.
func (n *Node) handlePeerEntry(w http.ResponseWriter, r *http.Request) {
	key, err := parseEntryKey(r.URL.Query().Get("key"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet:
		data, ok := n.local.Get(key)
		if !ok {
			http.Error(w, "no entry", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(diskcache.EncodeEntry(data))
	case http.MethodPost:
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
		if err != nil {
			n.peerRejects.Add(1)
			http.Error(w, "bad entry: "+err.Error(), http.StatusBadRequest)
			return
		}
		payload, err := diskcache.DecodeEntry(body)
		if err != nil {
			n.peerRejects.Add(1)
			http.Error(w, "bad entry: "+err.Error(), http.StatusBadRequest)
			return
		}
		n.local.Put(key, payload)
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "GET or POST only", http.StatusMethodNotAllowed)
	}
}

// parseEntryKey decodes a 64-hex-digit cache key.
func parseEntryKey(s string) ([sha256.Size]byte, error) {
	var key [sha256.Size]byte
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != sha256.Size {
		return key, fmt.Errorf("key must be %d hex digits", 2*sha256.Size)
	}
	copy(key[:], raw)
	return key, nil
}

// fetchEntry asks owner for the entry over /peer/entry and verifies
// the framing. A 404 is a clean miss (nil, false, no error — the owner
// just doesn't have it); transport errors and corrupt frames return
// the error so the caller can count and eject.
func (n *Node) fetchEntry(owner string, key [sha256.Size]byte) ([]byte, bool, error) {
	resp, err := n.entryClient.Get(owner + "/peer/entry?key=" + hex.EncodeToString(key[:]))
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return nil, false, nil
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return nil, false, fmt.Errorf("peer %s: status %d", owner, resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, false, err
	}
	payload, err := diskcache.DecodeEntry(body)
	if err != nil {
		return nil, false, err
	}
	return payload, true, nil
}

// pushEntry write-through-replicates one entry to owner.
func (n *Node) pushEntry(owner string, key [sha256.Size]byte, data []byte) error {
	url := owner + "/peer/entry?key=" + hex.EncodeToString(key[:])
	resp, err := n.entryClient.Post(url, "application/octet-stream", bytes.NewReader(diskcache.EncodeEntry(data)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("peer %s: status %d", owner, resp.StatusCode)
	}
	return nil
}

// Drain gracefully bleeds the node: /healthz flips to 503 so probes
// eject it from peers' rings, and every locally held cache entry is
// pushed to the node that owns it once this one is gone. Returns the
// number of entries successfully re-homed. The node keeps serving
// while draining (in-flight and late requests still complete); stop
// routing to it, Drain, then shut down.
func (n *Node) Drain() int {
	n.draining.Store(true)
	enum, ok := n.local.(interface{ Keys() [][sha256.Size]byte })
	if !ok {
		return 0
	}
	var survivors []string
	for _, p := range n.ring.Nodes() {
		if p != n.cfg.Self {
			survivors = append(survivors, p)
		}
	}
	ring := NewRing(survivors)
	moved := 0
	for _, key := range enum.Keys() {
		owner := ring.Owner(hex.EncodeToString(key[:]), n.health.healthy)
		if owner == "" {
			continue
		}
		data, ok := n.local.Get(key)
		if !ok {
			continue
		}
		if err := n.pushEntry(owner, key, data); err != nil {
			n.health.markFailure(owner)
			continue
		}
		moved++
	}
	n.srv.Counters().Drained.Add(int64(moved))
	return moved
}
