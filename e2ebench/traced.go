package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/state"
)

// serverConfig is the server.Config wfit-serve builds from its flags.
func serverConfig(dir string, sf serveFlags) server.Config {
	return server.Config{
		DataDir:         dir,
		DefaultOptions:  core.DefaultOptions(),
		QueueDepth:      daemonQueueDepth,
		CheckpointEvery: 500,
		Fsync:           sf.Fsync,
		Batch:           sf.Batch,
		Pipeline:        sf.Pipeline,
		Follower:        sf.Follower,
		Metrics:         obs.NewRegistry(),
	}
}

// serviceMux mounts a server the way wfit-serve does.
func serviceMux(sv *server.Server) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/replication/", replica.NewHandler(sv))
	mux.Handle("/", sv.Handler())
	return mux
}

// inproc is the workload's topology in-process, every handler wrapped in
// span middleware.
type inproc struct {
	primary, follower *server.Server
	rt                *router.Router
	https             []*httptest.Server
	clientURL         string
	primaryURL        string
}

func startInproc(w Workload, dir string, tr *tracer) (*inproc, error) {
	sf, err := parseServeFlags(w.ServeFlags)
	if err != nil {
		return nil, err
	}
	ip := &inproc{}
	cfg := serverConfig(filepath.Join(dir, "primary"), sf)
	if w.replicated() {
		ff, err := parseServeFlags(w.FollowerFlags)
		if err != nil {
			return nil, err
		}
		if ip.follower, err = server.New(serverConfig(filepath.Join(dir, "follower"), ff)); err != nil {
			return nil, err
		}
		fts := httptest.NewServer(tr.middleware("standby", serviceMux(ip.follower)))
		ip.https = append(ip.https, fts)
		metrics := cfg.Metrics
		cfg.NewShipper = func(name, sdir string, base uint64, tail []state.Record) server.Shipper {
			return replica.NewShipper(replica.Config{Session: name, Dir: sdir, Standby: fts.URL, Sync: true, Base: base, Backlog: tail, Metrics: metrics})
		}
	}
	if ip.primary, err = server.New(cfg); err != nil {
		ip.close()
		return nil, err
	}
	pts := httptest.NewServer(tr.middleware("server", serviceMux(ip.primary)))
	ip.https = append(ip.https, pts)
	ip.primaryURL, ip.clientURL = pts.URL, pts.URL
	if w.replicated() {
		ip.rt, err = router.New(router.Config{
			Shards:  []router.Shard{{Primary: pts.URL, Standby: ip.https[0].URL}},
			Client:  &http.Client{Transport: &spanTransport{base: http.DefaultTransport}},
			Logf:    func(string, ...any) {},
			Metrics: obs.NewRegistry(),
		})
		if err != nil {
			ip.close()
			return nil, err
		}
		rts := httptest.NewServer(tr.middleware("router", ip.rt.Handler()))
		ip.https = append(ip.https, rts)
		ip.clientURL = rts.URL
	}
	return ip, nil
}

func (ip *inproc) close() {
	for i := len(ip.https) - 1; i >= 0; i-- {
		ip.https[i].Close()
	}
	if ip.rt != nil {
		ip.rt.Close()
	}
	for _, sv := range []*server.Server{ip.primary, ip.follower} {
		if sv != nil {
			sv.Close() //nolint:errcheck // the pass's gates already ran
		}
	}
}

// httpPass drives the inputs through the in-process topology with the
// same clients as the end-to-end run, and returns the final statuses.
func httpPass(in *inputs, dir string, tr *tracer) (map[string]server.SessionStatus, tally, error) {
	w := in.W
	ip, err := startInproc(w, dir, tr)
	if err != nil {
		return nil, tally{}, err
	}
	defer ip.close()
	hc := newHTTPClient()
	if err := createSessions(hc, ip.clientURL, w, in); err != nil {
		return nil, tally{}, err
	}
	rec := &recorder{}
	clients := make([]*client, len(in.Sessions))
	for i, s := range in.Sessions {
		clients[i] = &client{w: w, in: s, base: ip.clientURL, metricsURL: ip.primaryURL, hc: newHTTPClient(), rec: rec, tag: true}
	}
	if err := driveAll(clients, 0, in.total()); err != nil {
		return nil, rec.tally, err
	}
	statuses := make(map[string]server.SessionStatus)
	for _, s := range in.Sessions {
		sess, ok := ip.primary.Session(s.Name)
		if !ok {
			return nil, rec.tally, fmt.Errorf("HTTP pass lost session %s", s.Name)
		}
		st := sess.Status()
		if st.Statements != in.total() {
			return nil, rec.tally, fmt.Errorf("gate: HTTP pass session %s reports %d statements, %d were acked", s.Name, st.Statements, in.total())
		}
		if ip.follower != nil {
			fs, ok := ip.follower.Session(s.Name)
			if !ok || fs.Status().Statements != st.Statements || math.Float64bits(fs.Status().TotalWork) != math.Float64bits(st.TotalWork) {
				return nil, rec.tally, fmt.Errorf("gate: HTTP pass standby diverged from the primary on session %s", s.Name)
			}
		}
		statuses[s.Name] = st
	}
	return statuses, rec.tally, nil
}

// runTraced replays the inputs twice in-process — through the HTTP
// handlers, then through the layers' public functions — and derives the
// per-layer metrics from both passes' spans. The layer pass must end on
// the HTTP pass's total work, bit for bit.
func runTraced(in *inputs, dir, traceDir string) (*outcome, error) {
	obs.SetOutput(io.Discard)
	w := in.W
	htr := newTracer(w.Name)
	statuses, tl, err := httpPass(in, filepath.Join(dir, "http"), htr)
	if err != nil {
		return nil, err
	}
	httpTotal := 0.0
	var groups, groupRecs, specHits, specMisses int64
	for _, s := range in.Sessions {
		st := statuses[s.Name]
		httpTotal += st.TotalWork
		groups += st.GroupCommits
		groupRecs += st.GroupCommitRecords
		specHits += st.SpecHits
		specMisses += st.SpecMisses
	}

	ltr := newTracer(w.Name)
	lr, err := runLayerPass(in, filepath.Join(dir, "layer"), ltr)
	if err != nil {
		return nil, err
	}
	if math.Float64bits(lr.totalWork) != math.Float64bits(httpTotal) {
		return nil, fmt.Errorf("gate: the layer pass ended on total work %v, the HTTP pass on %v", lr.totalWork, httpTotal)
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	for pass, tr := range map[string]*tracer{"http": htr, "layer": ltr} {
		// One file per workload and pass, overwritten by the next traced
		// run: the spans of a full run take tens of megabytes.
		if err := tr.write(filepath.Join(traceDir, fmt.Sprintf("%s-%s.jsonl", w.Name, pass))); err != nil {
			return nil, err
		}
	}

	hs, ls := htr.snapshot(), ltr.snapshot()
	hself, lself := selfTimes(hs), selfTimes(ls)
	c := lr.counts
	stmts := float64(c.statements)
	L := func(name string) *dist { return durations(ls, name, nil) }
	H := func(name string) *dist { return durations(hs, name, nil) }
	build, run, apply := L("ibg.build"), L("core.run"), L("core.apply")
	serverSQL := H("server.sql")

	// Coverage: the layer pass's time inside statement requests against
	// the HTTP pass's server time for the same requests.
	layerNS := 0.0
	for _, s := range ls {
		if s.Name == "layer.sql" {
			layerNS += float64(s.dur().Nanoseconds() - lself[s.ID].Nanoseconds())
		}
	}
	serverUS := serverSQL.sum()
	layerUS := layerNS / 1e3

	m := map[string]float64{
		"sqlmini.parse_p50_us":         L("sqlmini.parse").median(),
		"sqlmini.parse_busy_ms":        L("sqlmini.parse").sum() / 1e3,
		"cost.mine_p50_us":             L("cost.mine").median(),
		"cost.candidates_per_stmt":     ratio(float64(c.candidates), stmts-float64(c.mineMisses)),
		"whatif.calls_per_stmt_p50":    c.whatifPerStmt.median(),
		"whatif.calls_per_stmt_max":    c.whatifPerStmt.max(),
		"whatif.calls_total":           float64(c.whatifCalls),
		"whatif.cache_hit_ratio":       ratio(float64(c.whatifHits), float64(c.whatifHits+c.whatifCalls)),
		"ibg.build_p50_us":             build.median(),
		"ibg.build_tail_us":            build.tail().Value,
		"ibg.build_busy_ms":            build.sum() / 1e3,
		"core.run_p50_us":              run.median(),
		"core.run_tail_us":             run.tail().Value,
		"core.run_busy_ms":             run.sum() / 1e3,
		"core.apply_p50_us":            apply.median(),
		"core.apply_tail_us":           apply.tail().Value,
		"core.apply_busy_ms":           apply.sum() / 1e3,
		"core.spec_valid_ratio":        ratio(float64(c.specConsumed), float64(c.speculated)),
		"core.repartitions":            float64(c.repartitions),
		"core.states":                  float64(c.states),
		"core.universe":                float64(c.universe),
		"core.feedback_p50_us":         L("core.feedback").median(),
		"core.recommend_p50_us":        L("core.recommend").median(),
		"core.compact_busy_ms":         L("core.compact").sum() / 1e3,
		"state.wal_append_p50_us":      durations(ls, "state.wal_append", lself).median(),
		"state.fsync_p50_us":           L("state.fsync").median(),
		"state.wal_bytes_per_stmt":     ratio(float64(c.walBytes), stmts),
		"state.snapshot_p50_us":        L("state.snapshot").median(),
		"state.snapshot_bytes_max":     float64(c.snapshotMax),
		"state.bytes_written_per_stmt": ratio(float64(c.walBytes+c.snapshotBytes), stmts),
		"state.recover_ms":             (&dist{vals: c.recoverMS}).sum(),
		"replica.ship_p50_us":          L("replica.ship").median(),
		"replica.standby_apply_p50_us": L("standby.replication_wal").median(),
		"replica.ship_busy_ms":         L("replica.ship").sum() / 1e3,
		"replica.lag_max_records":      float64(c.lagMax),
		"router.forward_p50_us":        durations(hs, "router.", hself).median(),
		"server.request_p50_us":        serverSQL.median(),
		"server.group_records_mean":    ratio(float64(groupRecs), float64(groups)),
		"server.spec_hit_ratio":        ratio(float64(specHits), float64(specHits+specMisses)),
		"server.unattributed_mean_us":  (serverUS - layerUS) / stmts,
		"obs.scrape_p50_us":            H("server.metrics").median(),
		"go.alloc_bytes_per_stmt":      float64(lr.allocBytes) / stmts,
		"go.allocs_per_stmt":           float64(lr.allocObjects) / stmts,
		"go.gc_pause_ms":               lr.gcPauseMS,
		"go.heap_live_mb":              lr.heapLiveMB,
		"trace.coverage":               ratio(layerUS, serverUS),
	}
	return &outcome{
		metrics: m,
		info: map[string]any{
			"http_spans":          len(hs),
			"layer_spans":         len(ls),
			"total_work":          httpTotal,
			"ibg_build_tail":      build.tail(),
			"core_run_tail":       run.tail(),
			"core_apply_tail":     apply.tail(),
			"side_copy_mine_miss": c.mineMisses,
			"layer_speculation": map[string]int{
				"speculated": c.speculated, "consumed": c.specConsumed, "stale": c.specStale, "fell_back": c.specFellBack,
			},
			"statements_per_session": in.total(),
		},
		tally:     tl,
		totalWork: httpTotal,
	}, nil
}

// durations collects, in µs, the spans whose name is name — or starts
// with it, when name ends in "." — as their self time when self is given,
// else as their duration.
func durations(spans []span, name string, self map[int64]time.Duration) *dist {
	d := &dist{}
	prefix := strings.HasSuffix(name, ".")
	for _, s := range spans {
		if s.Name != name && !(prefix && strings.HasPrefix(s.Name, name)) {
			continue
		}
		v := s.dur()
		if self != nil {
			v = self[s.ID]
		}
		d.add(float64(v.Nanoseconds()) / 1e3)
	}
	return d
}
