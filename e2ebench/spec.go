package main

import (
	"flag"
	"fmt"
	"io"
	"time"
)

// Seeds. DefaultSeed is what a run without --seed uses; ConfirmSeed is
// reserved for confirming a claimed gain on a seed that was not used while
// the change was written.
const (
	DefaultSeed = 1
	ConfirmSeed = 20261016
)

// RunSeconds is the run length BENCHMARK.json asks for.
const RunSeconds = 12

// warmupStatements are streamed per session before the measured phase,
// through the same requests, so connection set-up, the first phase's cold
// candidate mining and the Go runtime's heap growth are not timed.
const warmupStatements = 100

// setupRepeats is how many times a run launches the daemons from nothing;
// setup_s is the median, and the last launch serves the measured phase.
const setupRepeats = 7

// recoveryRepeats is how many kill -9 / restart cycles a run times;
// recovery_s is the median.
const recoveryRepeats = 5

// recoveryGap spaces the restarts of a run.
const recoveryGap = 250 * time.Millisecond

// dbaCadence fixes the statement positions of the DBA's requests: after
// every k-th acked statement of a session (k counted from the session's
// first statement, warmup included), on the same connection.
type dbaCadence struct {
	ReadEvery   int // GET .../recommendation
	ScrapeEvery int // GET /metrics
	VoteEvery   int // POST .../votes (uses the read just made)
	AcceptEvery int // POST .../accept
}

// knobs is the per-session configuration sent in POST /sessions.
type knobs struct {
	IdxCnt          int `json:"idx_cnt"`
	StateCnt        int `json:"state_cnt"`
	RetireAfter     int `json:"retire_after,omitempty"`
	CheckpointEvery int `json:"checkpoint_every"`
}

// Workload is one traffic mix the benchmark drives.
type Workload struct {
	Name string
	Why  string
	// Profile and QueryTemplates select the generated statement stream
	// (workload.Options); the daemons only ever see its SQL text.
	Profile        string
	QueryTemplates int
	// Sessions is the number of sessions, each with its own client
	// connection and its own seed-derived stream.
	Sessions int
	// PerRequest is the statements per POST .../sql.
	PerRequest int
	// StmtsPerSecond sizes the measured input: each session streams
	// StmtsPerSecond × --seconds statements (rounded so the final WAL tail
	// is half a checkpoint interval, see inputSize). It is the rate this
	// workload sustained on a 2-core host, so a run measures for about
	// --seconds there, and every commit is measured on the same input.
	StmtsPerSecond int
	// ServeFlags are the primary's flags beyond -addr/-data (and -standby
	// when replicated); FollowerFlags the follower's. A workload with
	// follower flags is replicated: requests go through wfit-router to a
	// primary that ships synchronously to a -follower wfit-serve. Every
	// other setting of the topology (fsync, speculation) is read from these
	// flags, so the daemons, the traced run and the environment stamp all
	// follow the same source.
	ServeFlags    []string
	FollowerFlags []string
	Knobs         knobs
	DBA           dbaCadence
}

// replicated reports whether the workload runs the replicated topology.
func (w Workload) replicated() bool { return len(w.FollowerFlags) > 0 }

// serveFlags are the wfit-serve settings a workload's flags select.
type serveFlags struct {
	Fsync    bool
	Pipeline int
	Batch    int
	Follower bool
}

// parseServeFlags reads the wfit-serve flags a workload sets, with the
// daemon's defaults for the ones it does not.
func parseServeFlags(args []string) (serveFlags, error) {
	fs := flag.NewFlagSet("wfit-serve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var sf serveFlags
	fs.BoolVar(&sf.Fsync, "fsync", false, "")
	fs.IntVar(&sf.Pipeline, "pipeline", 0, "")
	fs.IntVar(&sf.Batch, "batch", daemonBatch, "")
	fs.BoolVar(&sf.Follower, "follower", false, "")
	if err := fs.Parse(args); err != nil {
		return serveFlags{}, fmt.Errorf("workload flags %q: %w", args, err)
	}
	if fs.NArg() > 0 {
		return serveFlags{}, fmt.Errorf("workload flags %q: unexpected %q", args, fs.Args())
	}
	return sf, nil
}

// LoopType is the same for every workload: each caller waits for its ack,
// because the ack is the durability promise and the session queue applies
// backpressure.
const LoopType = "closed"

// Workloads are the benchmark's traffic mixes. Every workload carries a
// DBA reading and voting, because every end-to-end metric must be reported
// on every workload; only phased-dba scrapes /metrics and accepts. The
// other two read and vote often enough for a steady median (a vote every
// 200 statements gave adhoc-fresh 30 samples a run, and a spread of 0.24).
var Workloads = []Workload{
	{
		Name:           "phased-dba",
		Why:            "paper loop: 8-phase stream, closed loop, 1 client x 1 stmt/request, DBA reads every 25, votes every 100, accepts every 200; fsync off; analysis-bound",
		Sessions:       1,
		PerRequest:     1,
		StmtsPerSecond: 450,
		Knobs:          knobs{IdxCnt: 40, StateCnt: 500, CheckpointEvery: 500},
		DBA:            dbaCadence{ReadEvery: 25, ScrapeEvery: 100, VoteEvery: 100, AcceptEvery: 200},
	},
	{
		Name:           "durable-replicated",
		Why:            "write path: write-heavy stream via wfit-router to an -fsync -pipeline -1 primary shipping sync to an -fsync follower; closed loop, 1 client x 4 stmts/request",
		Profile:        "write-heavy",
		Sessions:       1,
		PerRequest:     4,
		StmtsPerSecond: 650,
		ServeFlags:     []string{"-fsync", "-pipeline", "-1"},
		FollowerFlags:  []string{"-follower", "-fsync"},
		Knobs:          knobs{IdxCnt: 16, StateCnt: 200, RetireAfter: 400, CheckpointEvery: 200},
		DBA:            dbaCadence{ReadEvery: 100, VoteEvery: 100},
	},
	{
		Name:           "adhoc-fresh",
		Why:            "no template reuse: adhoc stream with 200 templates/phase into 2 sessions, closed loop, 2 clients x 1 stmt/request; fsync off; both cores busy",
		Profile:        "adhoc",
		QueryTemplates: 200,
		Sessions:       2,
		PerRequest:     1,
		StmtsPerSecond: 300,
		Knobs:          knobs{IdxCnt: 40, StateCnt: 500, CheckpointEvery: 500},
		DBA:            dbaCadence{ReadEvery: 50, VoteEvery: 50},
	},
}

func workloadByName(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// Metric is one reported figure. Bound applies to end-to-end metrics only;
// Layer, Moves, Most and Least document per-layer metrics: which module
// owns the work, which end-to-end metric a change to it should move, and
// the workloads where the layer does the most and the least work.
type Metric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Layer  string
	Moves  string
	Most   string
	Least  string
}

// EndToEnd are the client-observed metrics of a --trace 0 run.
var EndToEnd = []Metric{
	{Name: "ack_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "ack_tail_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "stmts_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "dba_read_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "feedback_ack_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "total_work", Unit: "cost", Better: "lower", Bound: 0.1},
	{Name: "recovery_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

const (
	allW   = "phased-dba,durable-replicated,adhoc-fresh"
	dbaW   = "phased-dba"
	durW   = "durable-replicated"
	adhocW = "adhoc-fresh"
	otherW = "phased-dba,adhoc-fresh"
)

// PerLayer are the figures of a --trace 1 run.
var PerLayer = []Metric{
	{Name: "sqlmini.parse_p50_us", Unit: "us", Better: "lower", Layer: "internal/sqlmini", Moves: "ack_p50_us", Most: allW, Least: allW},
	{Name: "sqlmini.parse_busy_ms", Unit: "ms", Better: "lower", Layer: "internal/sqlmini", Moves: "recovery_s", Most: allW, Least: allW},
	{Name: "cost.mine_p50_us", Unit: "us", Better: "lower", Layer: "internal/cost", Moves: "ack_p50_us", Most: adhocW, Least: durW},
	{Name: "cost.candidates_per_stmt", Unit: "count", Better: "lower", Layer: "internal/cost", Moves: "ack_p50_us", Most: adhocW, Least: durW},
	{Name: "whatif.calls_per_stmt_p50", Unit: "count", Better: "lower", Layer: "internal/whatif", Moves: "ack_tail_us", Most: otherW, Least: durW},
	{Name: "whatif.calls_per_stmt_max", Unit: "count", Better: "lower", Layer: "internal/whatif", Moves: "ack_tail_us", Most: otherW, Least: durW},
	{Name: "whatif.calls_total", Unit: "count", Better: "lower", Layer: "internal/whatif", Moves: "ack_tail_us", Most: otherW, Least: durW},
	{Name: "whatif.cache_hit_ratio", Unit: "ratio", Better: "higher", Layer: "internal/whatif", Moves: "ack_tail_us", Most: otherW, Least: durW},
	{Name: "ibg.build_p50_us", Unit: "us", Better: "lower", Layer: "internal/ibg", Moves: "ack_tail_us", Most: adhocW, Least: durW},
	{Name: "ibg.build_tail_us", Unit: "us", Better: "lower", Layer: "internal/ibg", Moves: "ack_tail_us", Most: adhocW, Least: durW},
	{Name: "ibg.build_busy_ms", Unit: "ms", Better: "lower", Layer: "internal/ibg", Moves: "ack_tail_us", Most: adhocW, Least: durW},
	{Name: "core.run_p50_us", Unit: "us", Better: "lower", Layer: "internal/core", Moves: "ack_tail_us", Most: otherW, Least: durW},
	{Name: "core.run_tail_us", Unit: "us", Better: "lower", Layer: "internal/core", Moves: "ack_tail_us", Most: otherW, Least: durW},
	{Name: "core.run_busy_ms", Unit: "ms", Better: "lower", Layer: "internal/core", Moves: "ack_tail_us", Most: otherW, Least: durW},
	{Name: "core.apply_p50_us", Unit: "us", Better: "lower", Layer: "internal/core", Moves: "ack_p50_us", Most: otherW, Least: durW},
	{Name: "core.apply_tail_us", Unit: "us", Better: "lower", Layer: "internal/core", Moves: "stmts_per_s", Most: otherW, Least: durW},
	{Name: "core.apply_busy_ms", Unit: "ms", Better: "lower", Layer: "internal/core", Moves: "stmts_per_s", Most: otherW, Least: durW},
	{Name: "core.spec_valid_ratio", Unit: "ratio", Better: "higher", Layer: "internal/core", Moves: "stmts_per_s", Most: otherW, Least: durW},
	{Name: "core.repartitions", Unit: "count", Better: "lower", Layer: "internal/interaction", Moves: "ack_p50_us", Most: otherW, Least: durW},
	{Name: "core.states", Unit: "count", Better: "lower", Layer: "internal/core", Moves: "ack_p50_us", Most: otherW, Least: durW},
	{Name: "core.universe", Unit: "count", Better: "lower", Layer: "internal/core", Moves: "ack_p50_us", Most: adhocW, Least: durW},
	{Name: "core.feedback_p50_us", Unit: "us", Better: "lower", Layer: "internal/core", Moves: "feedback_ack_p50_us", Most: dbaW, Least: durW},
	{Name: "core.recommend_p50_us", Unit: "us", Better: "lower", Layer: "internal/core", Moves: "dba_read_p50_us", Most: dbaW, Least: durW},
	{Name: "core.compact_busy_ms", Unit: "ms", Better: "lower", Layer: "internal/core", Moves: "ack_tail_us", Most: durW, Least: otherW},
	{Name: "state.wal_append_p50_us", Unit: "us", Better: "lower", Layer: "internal/state", Moves: "ack_p50_us", Most: durW, Least: otherW},
	{Name: "state.fsync_p50_us", Unit: "us", Better: "lower", Layer: "internal/state", Moves: "stmts_per_s", Most: durW, Least: otherW},
	{Name: "state.wal_bytes_per_stmt", Unit: "B", Better: "lower", Layer: "internal/state", Moves: "stmts_per_s", Most: durW, Least: otherW},
	{Name: "state.snapshot_p50_us", Unit: "us", Better: "lower", Layer: "internal/state", Moves: "ack_tail_us", Most: durW, Least: otherW},
	{Name: "state.snapshot_bytes_max", Unit: "B", Better: "lower", Layer: "internal/state", Moves: "ack_tail_us", Most: durW, Least: otherW},
	{Name: "state.bytes_written_per_stmt", Unit: "B", Better: "lower", Layer: "internal/state", Moves: "stmts_per_s", Most: durW, Least: otherW},
	{Name: "state.recover_ms", Unit: "ms", Better: "lower", Layer: "internal/state", Moves: "recovery_s", Most: durW, Least: otherW},
	{Name: "replica.ship_p50_us", Unit: "us", Better: "lower", Layer: "internal/replica", Moves: "ack_p50_us", Most: durW, Least: otherW},
	{Name: "replica.standby_apply_p50_us", Unit: "us", Better: "lower", Layer: "internal/replica", Moves: "stmts_per_s", Most: durW, Least: otherW},
	{Name: "replica.ship_busy_ms", Unit: "ms", Better: "lower", Layer: "internal/replica", Moves: "stmts_per_s", Most: durW, Least: otherW},
	{Name: "replica.lag_max_records", Unit: "count", Better: "lower", Layer: "internal/replica", Moves: "ack_p50_us", Most: durW, Least: otherW},
	{Name: "router.forward_p50_us", Unit: "us", Better: "lower", Layer: "internal/router", Moves: "ack_p50_us", Most: durW, Least: otherW},
	{Name: "server.request_p50_us", Unit: "us", Better: "lower", Layer: "internal/server", Moves: "ack_p50_us", Most: allW, Least: allW},
	{Name: "server.group_records_mean", Unit: "count", Better: "higher", Layer: "internal/server", Moves: "stmts_per_s", Most: durW, Least: otherW},
	{Name: "server.spec_hit_ratio", Unit: "ratio", Better: "higher", Layer: "internal/server", Moves: "stmts_per_s", Most: durW, Least: otherW},
	{Name: "server.unattributed_mean_us", Unit: "us", Better: "lower", Layer: "internal/server", Moves: "ack_p50_us", Most: allW, Least: allW},
	{Name: "obs.scrape_p50_us", Unit: "us", Better: "lower", Layer: "internal/obs", Moves: "dba_read_p50_us", Most: dbaW, Least: "durable-replicated,adhoc-fresh"},
	{Name: "go.alloc_bytes_per_stmt", Unit: "B", Better: "lower", Layer: "Go runtime", Moves: "stmts_per_s", Most: adhocW, Least: durW},
	{Name: "go.allocs_per_stmt", Unit: "count", Better: "lower", Layer: "Go runtime", Moves: "stmts_per_s", Most: adhocW, Least: durW},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower", Layer: "Go runtime", Moves: "peak_rss_mb", Most: adhocW, Least: durW},
	{Name: "go.heap_live_mb", Unit: "MB", Better: "lower", Layer: "Go runtime", Moves: "peak_rss_mb", Most: adhocW, Least: durW},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher", Layer: "trace", Moves: "none", Most: allW, Least: allW},
}
