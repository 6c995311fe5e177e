// Command avivd is the AVIV compile server: a long-running daemon that
// serves mini-C -> VLIW compiles over HTTP/JSON, amortizing the
// covering search across requests with a two-tier (memory + disk)
// per-block cache — every block an earlier request already compiled is
// reused, so an edited program re-covers only its changed blocks —
// single-flight deduplication of identical in-flight requests, and a
// bounded worker pool with load shedding.
//
// Usage:
//
//	avivd [-listen :8377] [-cache-dir .avivcache] [-cache-max-mb 512]
//	      [-mem-entries 4096] [-parallel N] [-queue N] [-timeout 30s]
//	      [-self URL -peers URL,URL,...] [-probe 1s]
//	avivd -route URL,URL,...
//
// With -peers, the server joins a compile cluster: a consistent-hash
// ring over the member URLs assigns every request key an owning node,
// requests owned by a peer are forwarded there (making the owner's
// single-flight group the cluster-wide dedup point), and cache entries
// peer between nodes in the disk cache's checksummed framing. On
// SIGTERM the node drains: /healthz flips to 503 and locally held
// cache entries bleed to the surviving owners before exit.
//
// With -route, avivd is instead a thin router: it holds no compiler
// and no cache, just computes each request's content key and proxies
// it to the owning node, failing over along the ring when a node is
// down.
//
// Endpoints:
//
//	POST /compile     {"source": "...", "machine": "<ISDL text>", ...}
//	GET  /stats       server, cache tier, and cluster counters
//	GET  /healthz     liveness probe (503 while draining)
//	GET  /peer/entry  cluster cache peering (nodes only)
//
// Served output is byte-identical to a local `avivcc` compile of the
// same source and machine — standalone, clustered, or routed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"aviv"
	"aviv/internal/cluster"
	"aviv/internal/cover"
	"aviv/internal/diskcache"
	"aviv/internal/server"
)

func main() {
	listen := flag.String("listen", ":8377", "address to listen on")
	cacheDir := flag.String("cache-dir", ".avivcache", "persistent compile-cache directory (empty disables the disk tier)")
	cacheMaxMB := flag.Int64("cache-max-mb", 512, "disk-cache size bound in MiB (<= 0 unbounded)")
	memEntries := flag.Int("mem-entries", 4096, "memory-tier block entry cap (<= 0 unbounded)")
	parallel := flag.Int("parallel", 0, "worker-pool size (<= 0 selects GOMAXPROCS)")
	queue := flag.Int("queue", 0, "queue bound before load shedding (<= 0 selects 4x workers)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request compile deadline")
	self := flag.String("self", "", "this node's advertised base URL within -peers (cluster mode)")
	peers := flag.String("peers", "", "comma-separated cluster member base URLs, including -self (cluster mode)")
	route := flag.String("route", "", "comma-separated node base URLs: run as a thin consistent-hash router instead of a compile server")
	probe := flag.Duration("probe", time.Second, "cluster health re-probe interval")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "avivd: unexpected arguments %v\n", flag.Args())
		flag.Usage()
		os.Exit(1)
	}

	var (
		handler http.Handler
		// preShutdown runs after the listener stops taking new work and
		// before in-flight requests are drained (cluster drain).
		preShutdown func()
	)
	switch {
	case *route != "":
		if *peers != "" || *self != "" {
			log.Fatalf("avivd: -route is exclusive with -self/-peers (a router holds no compiler)")
		}
		nodes := splitList(*route)
		if len(nodes) == 0 {
			log.Fatalf("avivd: -route needs at least one node URL")
		}
		rt := cluster.NewRouter(cluster.RouterConfig{Nodes: nodes, ProbeInterval: *probe})
		defer rt.Close()
		handler = rt.Handler()
		log.Printf("avivd: routing over %d nodes: %s", len(nodes), strings.Join(nodes, ", "))

	default:
		opts := aviv.Options{
			Cache:       cover.NewBoundedCache(*memEntries),
			Parallelism: *parallel,
		}
		if *cacheDir != "" {
			disk, err := diskcache.Open(*cacheDir, *cacheMaxMB<<20)
			if err != nil {
				log.Fatalf("avivd: opening disk cache: %v", err)
			}
			opts.DiskCache = disk
			log.Printf("avivd: disk cache at %s (max %d MiB)", disk.Dir(), *cacheMaxMB)
		}
		cfg := server.Config{
			Options:    opts,
			QueueLimit: *queue,
			Timeout:    *timeout,
		}

		if *peers != "" {
			if *self == "" {
				log.Fatalf("avivd: -peers requires -self (this node's URL within the peer list)")
			}
			node := cluster.New(cluster.Config{
				Self:          *self,
				Peers:         splitList(*peers),
				Server:        cfg,
				ProbeInterval: *probe,
			})
			defer node.Close()
			handler = node.Handler()
			preShutdown = func() {
				moved := node.Drain()
				log.Printf("avivd: drained %d cache entries to peers", moved)
			}
			log.Printf("avivd: cluster node %s among %v (%d workers, timeout %v)",
				*self, splitList(*peers), node.Server().Workers(), *timeout)
		} else {
			srv := server.New(cfg)
			handler = srv.Handler()
			log.Printf("avivd: listening on %s (%d workers, queue %s, timeout %v)",
				*listen, srv.Workers(), queueDesc(*queue, srv.Workers()), *timeout)
		}
	}

	httpSrv := &http.Server{
		Addr:              *listen,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Graceful shutdown: SIGINT/SIGTERM stops accepting connections,
	// runs the cluster drain (when clustered), and finishes in-flight
	// compiles (bounded by the shutdown deadline), so a redeploy does
	// not sever requests mid-compile and does not strand cache entries
	// on the leaving node.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Printf("avivd: signal received, draining")
		if preShutdown != nil {
			preShutdown()
		}
		sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			log.Printf("avivd: shutdown: %v", err)
		}
	}()
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("avivd: %v", err)
	}
	log.Printf("avivd: stopped")
}

// splitList parses a comma-separated URL list, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, strings.TrimRight(item, "/"))
		}
	}
	return out
}

func queueDesc(queue, workers int) string {
	if queue <= 0 {
		return fmt.Sprintf("%d (4x workers)", 4*workers)
	}
	return fmt.Sprint(queue)
}
