// Command astore-serve serves an A-Store catalog over HTTP.
//
// By default it generates Star Schema Benchmark data in memory and serves
// it; -load serves a binary database image written by astore-gen instead:
//
//	astore-serve -addr :8080 -sf 0.1
//	astore-serve -addr :8080 -load ssb.astore
//
// Endpoints (see the README for request bodies):
//
//	POST /v1/query                 SQL query (supports "trace": true and
//	                               EXPLAIN [ANALYZE])
//	POST /v1/tables/{table}/append live ingest
//	GET  /healthz                  liveness
//	GET  /v1/stats                 serving counters (JSON)
//	GET  /metrics                  Prometheus text exposition
//
// SIGINT/SIGTERM shut down gracefully: new requests are rejected with 503
// while in-flight queries drain and release their snapshot pins.
//
// Scale-out (see README "Scale-out: sharded execution"):
//
//	astore-serve -worker -addr :9001            shard worker (adds POST /v1/shard/exec)
//	astore-serve -shards host:9001,host:9002    coordinator: scatter-gather across workers
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"astore/internal/core"
	"astore/internal/datagen/ssb"
	"astore/internal/db"
	"astore/internal/server"
	"astore/internal/shard"
	"astore/internal/storage"
)

const (
	// shardTimeout is the coordinator's per-worker scatter deadline.
	shardTimeout = 30 * time.Second
	// drainWait bounds the drain of in-flight queries on shutdown.
	drainWait = 30 * time.Second
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		loadPath = flag.String("load", "", "serve a saved database image instead of generating SSB")
		sf       = flag.Float64("sf", 0.05, "SSB scale factor when generating")
		seed     = flag.Int64("seed", 1, "SSB generation seed")

		workers = flag.Int("workers", 0, "worker threads per query (0 = serial)")
		segRows = flag.Int("segment-rows", storage.DefaultSegmentRows,
			"rows per fact-table segment (sealed segments + mutable tail: zone-map pruning, append-stable plans; 0 = never seal)")
		sortKeys = flag.String("sort-keys", "",
			"comma-separated fact columns to sort rows by at open and at every consolidation (keys a table lacks are ignored)")
		encode = flag.Bool("encode-sealed", false,
			"compress sealed-segment chunks (RLE/FoR); queries read them in place, without decoding")

		maxInFlight = flag.Int("max-inflight", 4, "max concurrently executing queries")
		timeout     = flag.Duration("timeout", 30*time.Second, "default per-query deadline")
		slowQuery   = flag.Duration("slow-query", 0,
			"log queries at or above this latency as JSON lines to stderr (0 = disabled)")

		worker = flag.Bool("worker", false,
			"serve POST /v1/shard/exec: execute shard slices and return serialized partial aggregates")
		shards = flag.String("shards", "",
			"coordinator mode: comma-separated worker addresses (host:port) to scatter queries across")
	)
	flag.Parse()

	catalog, err := loadCatalog(*loadPath, *sf, *seed)
	if err != nil {
		log.Fatal(err)
	}
	opt := core.Options{Workers: *workers, SegmentRows: *segRows, SealedEncodings: *encode}
	for _, k := range strings.Split(*sortKeys, ",") {
		if k = strings.TrimSpace(k); k != "" {
			opt.SortKeys = append(opt.SortKeys, k)
		}
	}
	d, err := db.Open(catalog, opt)
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range catalog.Tables() {
		sealed, total := t.SegmentCounts()
		layout := fmt.Sprintf("%d segments (%d sealed)", total, sealed)
		if comp := t.Compression(); comp.EncodedChunks > 0 && comp.PhysicalBytes > 0 {
			layout += fmt.Sprintf(", %.2fx compressed", float64(comp.LogicalBytes)/float64(comp.PhysicalBytes))
		}
		log.Printf("table %-12s %10d rows  %8.1f MB  %s", t.Name, t.NumRows(), float64(t.MemBytes())/(1<<20), layout)
	}
	log.Printf("serving fact tables %v on %s", d.Facts(), *addr)

	var coord *shard.Coordinator
	if *shards != "" {
		var addrs []string
		for _, a := range strings.Split(*shards, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		// Every worker holds the full dataset; worker i of n scans the
		// canonical segment slice (i, n), by position in -shards.
		var workerList []shard.Worker
		for i, a := range addrs {
			workerList = append(workerList, shard.NewHTTPWorker(a, i, len(addrs), shardTimeout))
		}
		coord, err = shard.New(d, workerList, shard.Options{ExecTimeout: shardTimeout})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("coordinator: scattering across %d shard workers %v", len(workerList), coord.Workers())
	}

	srv := server.New(d, server.Config{
		MaxInFlight:    *maxInFlight,
		DefaultTimeout: *timeout,
		SlowQuery:      *slowQuery,
		Logf:           log.Printf,
		Coordinator:    coord,
		ShardWorker:    *worker,
	})
	if *worker {
		log.Printf("shard worker: serving POST /v1/shard/exec")
	}

	// Graceful shutdown: reject new work, drain in-flight queries (releasing
	// snapshot pins), then close the listener.
	go func() {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
		log.Printf("shutting down: draining in-flight queries (max %v)", drainWait)
		ctx, cancel := context.WithTimeout(context.Background(), drainWait)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
			os.Exit(1)
		}
	}()

	if err := srv.ListenAndServe(*addr); err != nil {
		log.Fatal(err)
	}
	log.Printf("bye")
}

// loadCatalog builds the catalog to serve: a saved image, or generated SSB.
func loadCatalog(path string, sf float64, seed int64) (*storage.Database, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		catalog, err := storage.LoadDatabase(f)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", path, err)
		}
		log.Printf("loaded database image %s", path)
		return catalog, nil
	}
	log.Printf("generating SSB SF=%g (seed %d) ...", sf, seed)
	t0 := time.Now()
	data := ssb.Generate(ssb.Config{SF: sf, Seed: seed})
	log.Printf("generated %d lineorder rows in %v", data.Lineorder.NumRows(), time.Since(t0).Round(time.Millisecond))
	return data.DB, nil
}
