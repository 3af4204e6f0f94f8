package main

import (
	"fmt"
	"strconv"
	"time"
)

// The pinned configuration. Every committed number comes from these values;
// the smoke test is the only caller that shrinks them.
const (
	pinnedSF       = 0.5 // 3 M lineorder rows, 23 segments of 128 Ki
	pinnedDataSeed = 1
	pinnedSeconds  = 10 // measured window per workload (BENCHMARK.json run_seconds)
	pinnedClients  = 2  // closed-loop clients, one keep-alive connection each

	factTable = "lineorder"

	// The writer of mixed_ingest: one pre-rendered batch per period, sent on
	// its due time whether or not the server kept up: 20 k rows/s, which
	// seals a 128 Ki segment every 6.5 s.
	appendPeriod    = 25 * time.Millisecond
	appendBatchRows = 500
	appendPoolSize  = 32

	// adhocStatements outlasts any window at the rates measured (about 100
	// statements/s), so the ad-hoc stream never wraps around.
	adhocStatements = 4096
)

// config is what a run is allowed to vary.
type config struct {
	sf       float64
	dataSeed int64
	seconds  float64
	// warmup is the discarded lead-in of every window, 15 % of it: 1.5 s at
	// the pinned 10 s.
	warmup   time.Duration
	serveBin string
}

func pinnedConfig() config {
	return config{sf: pinnedSF, dataSeed: pinnedDataSeed}.window(pinnedSeconds)
}

// window sets the measured seconds and the warm-up that goes with them.
func (c config) window(seconds float64) config {
	c.seconds = seconds
	c.warmup = time.Duration(0.15 * seconds * float64(time.Second))
	return c
}

// Flow declares one workload: which servers to start and what traffic they
// receive. The program under test sees only the requests a Flow generates.
type Flow struct {
	name string

	serverFlags  []string
	shardWorkers int // 0: a single node; n: a coordinator in front of n workers

	clients int      // closed-loop readers, one connection each
	stmts   []string // replayed round-robin across the readers, wrapping
	prime   []string // sent once, in order, as the last step of set-up

	appendEvery time.Duration // 0: no writer
	appendPool  []appendBatch

	duration time.Duration // the measured window at full length
	warmup   time.Duration // discarded before every window

	// verifyEvery picks the answers compared with the oracle: every n-th
	// statement of the stream (1: all of them, 0: none).
	verifyEvery int
}

// NewFlow starts a flow declaration. The seed reaches a flow through the
// streams it is given.
func NewFlow(name string) *Flow {
	return &Flow{name: name, clients: 1, verifyEvery: 1}
}

// Server sets the flags of every astore-serve the flow starts.
func (f *Flow) Server(flags ...string) *Flow { f.serverFlags = flags; return f }

// Sharded puts a coordinator in front of n shard workers.
func (f *Flow) Sharded(n int) *Flow { f.shardWorkers = n; return f }

// Clients sets the number of closed-loop readers.
func (f *Flow) Clients(n int) *Flow { f.clients = n; return f }

// Replay sets the statement stream the readers send.
func (f *Flow) Replay(stmts []string) *Flow { f.stmts = stmts; return f }

// Prime sets the statements sent once before the clock starts.
func (f *Flow) Prime(stmts []string) *Flow { f.prime = stmts; return f }

// VerifyEvery compares every n-th statement's answer with the oracle; 0
// records none, for a flow with a writer, which is verified from its final
// state.
func (f *Flow) VerifyEvery(n int) *Flow { f.verifyEvery = n; return f }

// AppendEvery adds an open-loop writer sending one batch of the pool per
// period.
func (f *Flow) AppendEvery(period time.Duration, pool []appendBatch) *Flow {
	f.appendEvery, f.appendPool = period, pool
	return f
}

// For sets the measured window and its discarded warm-up.
func (f *Flow) For(d, warmup time.Duration) *Flow { f.duration, f.warmup = d, warmup; return f }

// workloadNames is the order every report uses.
var workloadNames = []string{"warm_repeat", "adhoc_plain", "adhoc_encoded", "mixed_ingest", "sharded_warm"}

// workloadWhy is the one-line reason each workload exists; BENCHMARK.json
// carries the same lines.
var workloadWhy = map[string]string{
	"warm_repeat":   "13 SSB statements repeated: fits plan and aggregate caches, so HTTP, SQL parse and db dominate and the scan kernel sees only the tail",
	"adhoc_plain":   "SSB templates with seeded literals, every statement new: bypasses every cache, so compile and the full AIR scan over plain segments dominate",
	"adhoc_encoded": "the adhoc_plain stream over sorted RLE/FoR segments: isolates storage encodings and zone-map pruning from core",
	"mixed_ingest":  "warm reads beside a paced 20 k rows/s writer: appends, re-pins, tail growth and segment seals on the same layers as the reads",
	"sharded_warm":  "the warm stream through a coordinator and two worker processes: scatter, partial wire codec, HTTP hop and merge dominate",
}

// buildFlow declares the named workload for one seed.
func buildFlow(cfg config, name string, seed int64) (*Flow, error) {
	base := []string{
		"-sf", strconv.FormatFloat(cfg.sf, 'g', -1, 64),
		"-seed", strconv.FormatInt(cfg.dataSeed, 10),
		"-workers", "0", "-max-inflight", "4",
	}
	encoded := append(append([]string(nil), base...), "-encode-sealed", "-sort-keys", "lo_orderdate")
	d := time.Duration(cfg.seconds * float64(time.Second))
	warm := warmStream(seed)
	f := NewFlow(name).For(d, cfg.warmup)
	switch name {
	case "warm_repeat":
		return f.Server(base...).Clients(pinnedClients).Replay(warm).Prime(warm), nil
	case "adhoc_plain", "adhoc_encoded":
		// Both send the same stream; priming uses other statements (seed+1
		// million never meets a driver seed) so the first measured
		// statement is as new as the last.
		flags := base
		if name == "adhoc_encoded" {
			flags = encoded
		}
		return f.Server(flags...).Clients(pinnedClients).
			Replay(adhocStream(seed, adhocStatements)).
			Prime(adhocStream(seed+1_000_000, len(adhocTemplates))).
			VerifyEvery(25), nil
	case "mixed_ingest":
		pool, err := appendPool(seed, cfg.sf, appendPoolSize, appendBatchRows)
		if err != nil {
			return nil, err
		}
		return f.Server(base...).Clients(1).Replay(warm).Prime(warm).VerifyEvery(0).AppendEvery(appendPeriod, pool), nil
	case "sharded_warm":
		return f.Server(base...).Sharded(2).Clients(pinnedClients).Replay(warm).Prime(warm), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}
