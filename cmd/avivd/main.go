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
//	avivd -route URL,URL,... [-listen :8080] [-probe 1s]
//
// With -route, avivd is instead a thin router: it holds no compiler
// and no cache, just computes each request's content key and proxies
// it to the owning server on a consistent-hash ring over the given
// URLs, failing over along the ring when a server is down. A compile
// cluster is N plain avivd servers started with one shared -cache-dir
// behind one router: a block any server compiled is a disk hit for
// all of them, and the router keeps each server's memory tier and
// single-flight group to its own share of the keys.
//
// Endpoints:
//
//	POST /compile     {"source": "...", "machine": "<ISDL text>", ...}
//	GET  /stats       server and cache-tier counters (servers only)
//	GET  /healthz     liveness probe
//
// Served output is byte-identical to a local `avivcc` compile of the
// same source and machine — served directly or routed.
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
	cacheMaxMB := flag.Int64("cache-max-mb", 512, "disk-cache size bound in MiB (<= 0 unbounded); each server re-measures a shared -cache-dir at least once per 1/16 of it that it writes, so N servers sharing one hold at most (1 + N/16) times it")
	memEntries := flag.Int("mem-entries", 4096, "memory-tier block entry cap (<= 0 unbounded)")
	parallel := flag.Int("parallel", 0, "worker-pool size (<= 0 selects GOMAXPROCS)")
	queue := flag.Int("queue", 0, "queue bound before load shedding (<= 0 selects 4x workers)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request compile deadline")
	route := flag.String("route", "", "comma-separated server base URLs: run as a thin consistent-hash router instead of a compile server")
	probe := flag.Duration("probe", time.Second, "router health re-probe interval")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "avivd: unexpected arguments %v\n", flag.Args())
		flag.Usage()
		os.Exit(1)
	}

	var handler http.Handler
	switch {
	case *route != "":
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
		srv := server.New(cfg)
		handler = srv.Handler()
		log.Printf("avivd: listening on %s (%d workers, queue %s, timeout %v)",
			*listen, srv.Workers(), queueDesc(*queue, srv.Workers()), *timeout)
	}

	httpSrv := &http.Server{
		Addr:              *listen,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Graceful shutdown: SIGINT/SIGTERM stops accepting connections and
	// finishes in-flight compiles (bounded by the shutdown deadline), so
	// a redeploy does not sever requests mid-compile.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Printf("avivd: signal received, draining")
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
