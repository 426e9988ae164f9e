// Command wfit-serve runs the semi-automatic index tuning service: a
// network-facing daemon hosting N concurrent named tuning sessions whose
// state (index registry, work-function tables, benefit/interaction
// statistics, votes) survives restarts through snapshot + write-ahead-log
// persistence. Recovery is bit-identical to an uninterrupted tuner.
//
// Usage:
//
//	wfit-serve -addr :7781 -data ./wfit-data [-checkpoint-every N]
//	           [-checkpoint-bytes N] [-queue N] [-idxcnt N] [-statecnt N]
//	           [-histsize N] [-retire-after N] [-tuner NAME] [-fsync]
//	           [-batch N] [-standby URL] [-follower]
//
// -pipeline N is deprecated and ignored: every session analyzes each
// statement on its apply path.
//
// Replication (see the README's "Replication & failover" section):
// -standby URL ships every session's WAL to a warm standby at URL before
// acking each write; -follower starts this node AS a standby — it applies
// the replication stream, serves reads, and rejects client writes with
// 503 until POST /replication/promote.
//
// The HTTP/JSON API (see the README's "Running as a service" section):
//
//	POST   /sessions                      create a session
//	GET    /sessions                      list sessions
//	POST   /sessions/{id}/sql             ingest a batch of SQL statements
//	GET    /sessions/{id}/recommendation  current recommendation + diff
//	POST   /sessions/{id}/votes           cast explicit index votes
//	POST   /sessions/{id}/accept          materialize the recommendation
//	GET    /sessions/{id}/status          session statistics
//	POST   /sessions/{id}/checkpoint      force a snapshot
//	GET    /sessions/{id}/trace?n=K       recent + slowest statement traces
//	GET    /metrics                       Prometheus text exposition
//	GET    /healthz                       liveness probe (role + standby lag)
//
// plus the replication API (active when peers use it):
//
//	POST   /replication/sessions/{id}/wal       apply shipped WAL records
//	POST   /replication/sessions/{id}/snapshot  bootstrap from a snapshot
//	GET    /replication/status                  role + replication cursors
//	POST   /replication/promote                 standby becomes primary
//
// SIGINT/SIGTERM trigger a graceful shutdown that checkpoints every
// session, so the next start recovers without WAL replay.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/state"
)

// mountPprof exposes the runtime profiler under /debug/pprof/ on mux —
// only when the -pprof flag asked for it (the endpoints leak heap and
// goroutine internals, so they are off by default).
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	addr := flag.String("addr", ":7781", "listen address")
	dataDir := flag.String("data", "wfit-data", "state directory (snapshots + WALs)")
	checkpointEvery := flag.Int("checkpoint-every", 500, "statements between automatic snapshots (negative disables)")
	checkpointBytes := flag.Int64("checkpoint-bytes", 0, "snapshot automatically when the WAL exceeds this many bytes, bounding recovery replay time (0 disables)")
	queueDepth := flag.Int("queue", 256, "per-session ingest queue depth (backpressure bound)")
	batch := flag.Int("batch", 64, "max WAL records per group commit: the ingest loop drains queued work up to this bound and persists it with one flush+fsync (1 = commit per record)")
	flag.Int("pipeline", 0, "deprecated and ignored: every session analyzes each statement on its apply path")
	options := core.DefaultOptions()
	flag.IntVar(&options.IdxCnt, "idxcnt", options.IdxCnt, "default idxCnt knob for new sessions")
	flag.IntVar(&options.StateCnt, "statecnt", options.StateCnt, "default stateCnt knob for new sessions")
	flag.IntVar(&options.HistSize, "histsize", options.HistSize, "default histSize knob for new sessions")
	flag.IntVar(&options.RetireAfter, "retire-after", options.RetireAfter, "retire candidates with no recorded benefit in this many statements, bounding memory on long-horizon sessions (0 disables)")
	tunerKind := flag.String("tuner", "", "default tuner engine for new sessions (empty: wfit); recovered sessions keep the engine persisted in their snapshot")
	fsync := flag.Bool("fsync", false, "fsync the WAL on every append (power-loss durability)")
	standby := flag.String("standby", "", "warm-standby base URL to ship every session's WAL to (empty: unreplicated)")
	follower := flag.Bool("follower", false, "start as a warm standby: apply the replication stream, serve reads, reject client writes until promoted")
	pprofOn := flag.Bool("pprof", false, "expose the runtime profiler at /debug/pprof/ (off by default: the endpoints leak process internals)")
	readHeaderTimeout := flag.Duration("read-header-timeout", 10*time.Second, "how long a client may take to send request headers (slowloris bound)")
	readTimeout := flag.Duration("read-timeout", 60*time.Second, "how long a client may take to send a full request")
	writeTimeout := flag.Duration("write-timeout", 60*time.Second, "how long a response may take to generate and drain to the client")
	idleTimeout := flag.Duration("idle-timeout", 120*time.Second, "how long an idle keep-alive connection is kept open")
	flag.Parse()

	if *follower && *standby != "" {
		fmt.Fprintln(os.Stderr, "wfit-serve: -follower and -standby are mutually exclusive (chained replication is not supported)")
		return 2
	}

	// Fail fast on knob values that would silently create unbounded
	// tuner state (the same rule the API applies to per-session knobs),
	// and on a batch bound every session would reject.
	defaults := server.SessionConfig{Name: "defaults", Tuner: *tunerKind, Options: options, QueueDepth: *queueDepth, CheckpointBytes: *checkpointBytes}
	if err := errors.Join(defaults.Check(), server.SessionRuntime{Batch: *batch}.Check()); err != nil {
		fmt.Fprintf(os.Stderr, "wfit-serve: invalid flags: %v\n", err)
		return 2
	}

	// The daemon always serves metrics; only library embedders run
	// uninstrumented (server.Config.Metrics nil).
	metrics := obs.NewRegistry()
	svCfg := server.Config{
		DataDir:         *dataDir,
		DefaultOptions:  options,
		DefaultTuner:    *tunerKind,
		QueueDepth:      *queueDepth,
		CheckpointEvery: *checkpointEvery,
		CheckpointBytes: *checkpointBytes,
		Fsync:           *fsync,
		Batch:           *batch,
		Follower:        *follower,
		Metrics:         metrics,
	}
	if *standby != "" {
		svCfg.NewShipper = func(name, dir string, base uint64, tail []state.Record) server.Shipper {
			return replica.NewShipper(replica.Config{
				Session: name,
				Dir:     dir,
				Standby: *standby,
				Base:    base,
				Backlog: tail,
				Metrics: metrics,
			})
		}
	}
	start := time.Now()
	sv, err := server.New(svCfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfit-serve: %v\n", err)
		return 1
	}
	if n := len(sv.Sessions()); n > 0 {
		fmt.Printf("wfit-serve: recovered %d session(s) from %s in %.3fs\n", n, *dataDir, time.Since(start).Seconds())
	}

	mux := http.NewServeMux()
	mux.Handle("/replication/", replica.NewHandler(sv))
	if *pprofOn {
		mountPprof(mux)
	}
	mux.Handle("/", sv.Handler())
	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("wfit-serve: listening on %s (data dir %s, role %s)\n", *addr, *dataDir, sv.Role())
		errCh <- httpServer.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("wfit-serve: %v, shutting down (checkpointing sessions)\n", sig)
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "wfit-serve: %v\n", err)
		sv.Close()
		return 1
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	code := 0
	if err := httpServer.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "wfit-serve: http shutdown: %v\n", err)
		code = 1
	}
	if err := sv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "wfit-serve: closing sessions: %v\n", err)
		code = 1
	}
	return code
}
