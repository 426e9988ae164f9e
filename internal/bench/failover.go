package bench

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/datagen"
	"repro/internal/replica"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/state"
	"repro/internal/workload"
)

// FailoverOptions configures the failover bench: one synchronously
// replicated shard (primary + warm standby) behind the session router,
// a client streaming statements through the router, and a primary kill
// partway through the stream.
type FailoverOptions struct {
	// DataDir roots the two nodes' persisted state (required).
	DataDir string
	// Statements is the stream length (default 160).
	Statements int
	// FailAt is the statement index at which the primary is killed
	// (default Statements/2).
	FailAt int
	// IdxCnt and StateCnt are the session's tuner knobs (defaults 16/200).
	IdxCnt, StateCnt int
	// CheckpointEvery controls automatic snapshots (default 40 — at least
	// one checkpoint lands before the kill, so the bench also exercises
	// retry-buffer trimming and recovery-from-snapshot paths).
	CheckpointEvery int
	// Seed drives workload generation (default 42).
	Seed int64
	// HealthInterval is the router's probe cadence (default 25ms — bench
	// scale; production uses the 500ms default).
	HealthInterval time.Duration
	// FailThreshold is the router's consecutive-failure bound (default 2).
	FailThreshold int
}

func (o *FailoverOptions) applyDefaults() {
	if o.Statements <= 0 {
		o.Statements = 160
	}
	if o.FailAt <= 0 || o.FailAt >= o.Statements {
		o.FailAt = o.Statements / 2
	}
	if o.IdxCnt <= 0 {
		o.IdxCnt = 16
	}
	if o.StateCnt <= 0 {
		o.StateCnt = 200
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 40
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.HealthInterval <= 0 {
		o.HealthInterval = 25 * time.Millisecond
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 2
	}
}

// FailoverPerf is the failover section of the BENCH trajectory: the
// client-observed cost of losing a primary. Steady* is the ingest latency
// distribution while the primary lives (synchronous replication on the
// write path), Post* after the standby took over; the blip is the
// client-visible write outage spanning detection + promotion; LostAcked
// is the number of acknowledged statements missing after promotion and
// must be zero — that is the replication design's whole claim.
type FailoverPerf struct {
	Statements int `json:"statements"`
	FailAt     int `json:"fail_at"`
	// Steady-state ingest latency through the router, primary alive,
	// sync-replicated (µs per statement).
	SteadyUSMean float64 `json:"steady_us_mean"`
	SteadyUSP50  float64 `json:"steady_us_p50"`
	SteadyUSP90  float64 `json:"steady_us_p90"`
	SteadyUSP99  float64 `json:"steady_us_p99"`
	// Post-failover ingest latency against the promoted standby
	// (unreplicated until a new standby is attached).
	PostUSMean float64 `json:"post_us_mean"`
	PostUSP50  float64 `json:"post_us_p50"`
	PostUSP90  float64 `json:"post_us_p90"`
	PostUSP99  float64 `json:"post_us_p99"`
	// BlipMS is the write outage the client rode out with retries: from
	// the first refused write after the kill to the first acknowledged
	// write on the promoted standby. BlipRetries counts the refused
	// attempts in between.
	BlipMS      float64 `json:"failover_blip_ms"`
	BlipRetries int     `json:"failover_blip_retries"`
	// AckedBeforeKill is what the client had confirmed when the primary
	// died; OnStandbyAtPromotion what the promoted standby held;
	// LostAcked their difference (must be 0 under sync replication).
	AckedBeforeKill      int `json:"acked_before_kill"`
	OnStandbyAtPromotion int `json:"on_standby_at_promotion"`
	LostAcked            int `json:"lost_acked"`
	// Replication-lag samples (primary's local seq minus standby-acked
	// seq, sampled after every acknowledged ingest while the primary
	// lived; sync mode should pin this at 0).
	LagSamples int     `json:"lag_samples"`
	LagMean    float64 `json:"lag_mean"`
	LagMax     uint64  `json:"lag_max"`
	// Ship-path counters at kill time.
	ShipErrors    int64   `json:"ship_errors"`
	SnapshotShips int64   `json:"snapshot_ships"`
	WallMS        float64 `json:"wall_ms"`
}

// RunFailover stands up the replicated pair and the router in-process,
// streams the workload through the router one statement per request,
// kills the primary at FailAt (sessions die without checkpointing, the
// listener drops), rides out the failover window with client-side
// retries, and finishes the stream against the promoted standby.
func RunFailover(o FailoverOptions) (*FailoverPerf, error) {
	o.applyDefaults()
	if o.DataDir == "" {
		return nil, fmt.Errorf("bench: FailoverOptions.DataDir is required")
	}
	for _, sub := range []string{"primary", "standby"} {
		if err := os.MkdirAll(filepath.Join(o.DataDir, sub), 0o755); err != nil {
			return nil, err
		}
	}

	cat, joins := datagen.Build()
	wopts := workload.DefaultOptions()
	wopts.Seed = o.Seed
	wopts.Phases = (o.Statements+wopts.PerPhase-1)/wopts.PerPhase + 1
	wl := workload.Generate(cat, joins, wopts)
	if wl.Len() < o.Statements {
		return nil, fmt.Errorf("bench: workload too short (%d < %d)", wl.Len(), o.Statements)
	}

	// Standby node: follower server with the replication API mounted.
	standbySv, err := server.NewWithCatalog(server.Config{
		DataDir:  filepath.Join(o.DataDir, "standby"),
		Follower: true,
	}, cat)
	if err != nil {
		return nil, err
	}
	standbyTS := httptest.NewServer(replicatedMux(standbySv))
	defer func() { standbyTS.Close(); standbySv.Close() }() //nolint:errcheck

	// Primary node: every session ships synchronously to the standby.
	primarySv, err := server.NewWithCatalog(server.Config{
		DataDir: filepath.Join(o.DataDir, "primary"),
		NewShipper: func(name, dir string, base uint64, tail []state.Record) server.Shipper {
			return replica.NewShipper(replica.Config{
				Session: name, Dir: dir, Standby: standbyTS.URL, Sync: true,
				Base: base, Backlog: tail,
			})
		},
	}, cat)
	if err != nil {
		return nil, err
	}
	primaryTS := httptest.NewServer(replicatedMux(primarySv))
	primaryDead := false
	defer func() {
		if !primaryDead {
			primaryTS.Close()
		}
	}()

	rt, err := router.New(router.Config{
		Shards:         []router.Shard{{Primary: primaryTS.URL, Standby: standbyTS.URL}},
		HealthInterval: o.HealthInterval,
		HealthTimeout:  time.Second,
		FailThreshold:  o.FailThreshold,
		Logf:           func(string, ...any) {},
	})
	if err != nil {
		return nil, err
	}
	routerTS := httptest.NewServer(rt.Handler())
	defer func() { routerTS.Close(); rt.Close() }()

	perf := &FailoverPerf{Statements: o.Statements, FailAt: o.FailAt}
	start := time.Now()
	if err := postJSON(routerTS.URL+"/sessions", map[string]any{
		"name": "fo", "idx_cnt": o.IdxCnt, "state_cnt": o.StateCnt,
		"checkpoint_every": o.CheckpointEvery, "seed": o.Seed,
	}, nil); err != nil {
		return nil, fmt.Errorf("bench: creating failover session: %w", err)
	}
	sess, ok := primarySv.Session("fo")
	if !ok {
		return nil, fmt.Errorf("bench: failover session missing on the primary")
	}
	ingestURL := routerTS.URL + "/sessions/fo/sql"

	// Phase 1: steady state. One statement per request, lag sampled after
	// every ack.
	steady := make([]float64, 0, o.FailAt)
	var lagTotal float64
	for i := 0; i < o.FailAt; i++ {
		t0 := time.Now()
		if err := postJSON(ingestURL, map[string]any{"sql": []string{wl.Statements[i].SQL}}, nil); err != nil {
			return nil, fmt.Errorf("bench: steady-state ingest %d: %w", i, err)
		}
		steady = append(steady, float64(time.Since(t0).Microseconds()))
		if repl := sess.Status().Replication; repl != nil {
			perf.LagSamples++
			lagTotal += float64(repl.Lag)
			if repl.Lag > perf.LagMax {
				perf.LagMax = repl.Lag
			}
		}
	}
	if perf.LagSamples > 0 {
		perf.LagMean = lagTotal / float64(perf.LagSamples)
	}
	perf.AckedBeforeKill = o.FailAt

	// Capture ship-path counters, then kill -9 the primary: sessions die
	// without flushing or checkpointing, the listener drops.
	if repl := sess.Status().Replication; repl != nil {
		perf.ShipErrors = repl.ShipErrors
		perf.SnapshotShips = repl.SnapshotShips
	}
	for _, s := range primarySv.Sessions() {
		s.Kill()
	}
	primaryTS.Close()
	primaryDead = true

	// Failover window: retry the next statement until the router routes
	// it to the promoted standby. Every refusal is counted; the blip is
	// the whole client-visible outage.
	blipStart := time.Now()
	blipDeadline := blipStart.Add(60 * time.Second)
	for {
		err := postJSON(ingestURL, map[string]any{"sql": []string{wl.Statements[o.FailAt].SQL}}, nil)
		if err == nil {
			break
		}
		perf.BlipRetries++
		if time.Now().After(blipDeadline) {
			return nil, fmt.Errorf("bench: failover never completed: %w", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	perf.BlipMS = float64(time.Since(blipStart).Microseconds()) / 1e3

	// The promoted standby must hold every acknowledged statement (the
	// write that just succeeded rode on top of them).
	var status struct {
		Statements int `json:"statements"`
	}
	if err := getJSON(routerTS.URL+"/sessions/fo/status", &status); err != nil {
		return nil, err
	}
	perf.OnStandbyAtPromotion = status.Statements - 1
	perf.LostAcked = perf.AckedBeforeKill - perf.OnStandbyAtPromotion

	// Phase 2: finish the stream against the promoted standby.
	post := make([]float64, 0, o.Statements-o.FailAt-1)
	for i := o.FailAt + 1; i < o.Statements; i++ {
		t0 := time.Now()
		if err := postJSON(ingestURL, map[string]any{"sql": []string{wl.Statements[i].SQL}}, nil); err != nil {
			return nil, fmt.Errorf("bench: post-failover ingest %d: %w", i, err)
		}
		post = append(post, float64(time.Since(t0).Microseconds()))
	}
	perf.WallMS = float64(time.Since(start).Microseconds()) / 1e3

	if err := getJSON(routerTS.URL+"/sessions/fo/status", &status); err != nil {
		return nil, err
	}
	if status.Statements != o.Statements {
		return nil, fmt.Errorf("bench: promoted standby finished with %d statements, want %d",
			status.Statements, o.Statements)
	}

	perf.SteadyUSMean, perf.SteadyUSP50, perf.SteadyUSP90, perf.SteadyUSP99, _ = latencySummary(steady)
	perf.PostUSMean, perf.PostUSP50, perf.PostUSP90, perf.PostUSP99, _ = latencySummary(post)
	return perf, nil
}

// replicatedMux is the combined frontend a real wfit-serve runs: the
// replication API mounted next to the service API.
func replicatedMux(sv *server.Server) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/replication/", replica.NewHandler(sv))
	mux.Handle("/", sv.Handler())
	return mux
}
