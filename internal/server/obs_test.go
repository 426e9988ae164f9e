package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/state"
)

// newObsRig is newAPIRig with the daemon's observability wired: a metrics
// registry on the server, so sessions register stage histograms and trace
// rings and GET /metrics serves the exposition.
func newObsRig(t *testing.T) (*apiRig, *obs.Registry) {
	t.Helper()
	dir := t.TempDir()
	reg := obs.NewRegistry()
	sv, err := New(Config{DataDir: dir, CheckpointEvery: -1, Metrics: reg})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(func() {
		ts.Close()
		sv.Close()
	})
	return &apiRig{t: t, sv: sv, ts: ts, dir: dir}, reg
}

// promSample is one parsed exposition sample.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// key renders the sample's identity (name + sorted labels, no value).
func (s promSample) key() string {
	keys := make([]string, 0, len(s.labels))
	for k := range s.labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, s.labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// parseProm parses Prometheus text exposition, failing the test on any
// line that is neither a well-formed comment nor a well-formed sample.
func parseProm(t *testing.T, text string) []promSample {
	t.Helper()
	var out []promSample
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				t.Fatalf("malformed comment line %q", line)
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		val, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("sample line %q: bad value: %v", line, err)
		}
		series := line[:sp]
		s := promSample{labels: map[string]string{}, value: val}
		if i := strings.IndexByte(series, '{'); i >= 0 {
			s.name = series[:i]
			body := strings.TrimSuffix(series[i+1:], "}")
			for _, pair := range splitLabelPairs(t, body) {
				k, v, ok := strings.Cut(pair, "=")
				if !ok {
					t.Fatalf("sample line %q: bad label pair %q", line, pair)
				}
				uq, err := strconv.Unquote(v)
				if err != nil {
					t.Fatalf("sample line %q: label value %s: %v", line, v, err)
				}
				s.labels[k] = uq
			}
		} else {
			s.name = series
		}
		out = append(out, s)
	}
	return out
}

// splitLabelPairs splits `a="x",b="y"` on commas outside quotes.
func splitLabelPairs(t *testing.T, body string) []string {
	t.Helper()
	if body == "" {
		return nil
	}
	var pairs []string
	start, quoted, escaped := 0, false, false
	for i := 0; i < len(body); i++ {
		switch {
		case escaped:
			escaped = false
		case body[i] == '\\':
			escaped = true
		case body[i] == '"':
			quoted = !quoted
		case body[i] == ',' && !quoted:
			pairs = append(pairs, body[start:i])
			start = i + 1
		}
	}
	return append(pairs, body[start:])
}

// scrapeMetrics GETs /metrics and parses it.
func scrapeMetrics(t *testing.T, rig *apiRig) []promSample {
	t.Helper()
	resp, err := http.Get(rig.ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	return parseProm(t, string(body))
}

func obsIngest(rig *apiRig, session string) {
	rig.call("POST", "/sessions/"+session+"/sql", map[string]any{"sql": []string{
		"SELECT count(*) FROM tpch.lineitem WHERE l_shipdate BETWEEN 100 AND 140",
		"SELECT count(*) FROM tpch.lineitem WHERE l_shipdate BETWEEN 200 AND 260",
		"UPDATE tpch.orders SET o_totalprice = o_totalprice + 0.000001 WHERE o_orderdate BETWEEN 10 AND 12",
	}}, http.StatusOK, nil)
}

// TestMetricsScrapeGolden drives a live session and compares the scrape's
// series structure (every metric name + label set, values elided — they
// are timings) against a committed golden file. Run with UPDATE_GOLDEN=1
// to regenerate after intentionally changing the exported series.
func TestMetricsScrapeGolden(t *testing.T) {
	rig, _ := newObsRig(t)
	rig.call("POST", "/sessions", map[string]any{"name": "obs", "idx_cnt": 16, "state_cnt": 200}, http.StatusCreated, nil)
	obsIngest(rig, "obs")
	rig.call("POST", "/sessions/obs/checkpoint", nil, http.StatusOK, nil)

	samples := scrapeMetrics(t, rig)
	lines := make([]string, 0, len(samples))
	for _, s := range samples {
		lines = append(lines, s.key())
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", "metrics_scrape.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("scrape series diverged from golden %s.\nGot:\n%s\nWant:\n%s\n(run with UPDATE_GOLDEN=1 if the change is intentional)", golden, got, want)
	}
}

// TestStatusMetricsConsistency asserts the one-source-of-truth contract:
// every numeric SessionStatus field — including the nested replication
// section — appears on /metrics as a wfit_session_* gauge with the right
// value.
func TestStatusMetricsConsistency(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	sv, err := NewWithCatalog(Config{
		DataDir:         dir,
		CheckpointEvery: -1,
		Metrics:         reg,
		// A shipper makes Status().Replication non-nil, so the nested
		// struct's fields are part of what must be exported.
		NewShipper: func(name, d string, base uint64, tail []state.Record) Shipper {
			return noopShipper{}
		},
	}, mustCatalog(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	defer sv.Close()
	rig := &apiRig{t: t, sv: sv, ts: ts, dir: dir}

	rig.call("POST", "/sessions", map[string]any{"name": "cons", "idx_cnt": 16, "state_cnt": 200}, http.StatusCreated, nil)
	obsIngest(rig, "cons")

	samples := scrapeMetrics(t, rig)
	byKey := make(map[string]float64, len(samples))
	for _, s := range samples {
		byKey[s.key()] = s.value
	}

	sess, _ := sv.Session("cons")
	st := sess.Status()
	if st.Replication == nil {
		t.Fatal("status has no replication section despite an attached shipper")
	}
	count := 0
	forEachStatusMetric(&st, func(metric string, v float64) {
		count++
		key := promSample{name: metric, labels: map[string]string{"session": "cons", "engine": "wfit"}}.key()
		got, ok := byKey[key]
		if !ok {
			t.Errorf("status field %s has no /metrics series %s", metric, key)
			return
		}
		// The session is idle between Status() and the scrape, so the
		// projections must agree exactly.
		if got != v {
			t.Errorf("series %s = %v, want %v (status and metrics disagree)", key, got, v)
		}
	})
	if count < 20 {
		t.Fatalf("status walker enumerated only %d numeric fields — walker broken?", count)
	}
	if _, ok := byKey[promSample{name: metricFollowerLag, labels: map[string]string{"session": "cons"}}.key()]; !ok {
		t.Errorf("no %s series", metricFollowerLag)
	}
}

// noopShipper satisfies Shipper for tests that only need Replication
// status to be present.
type noopShipper struct{}

func (noopShipper) Commit([]state.Record) error { return nil }
func (noopShipper) Checkpointed(uint64)         {}
func (noopShipper) Stats() ShipperStats         { return ShipperStats{} }
func (noopShipper) Close() error                { return nil }

func mustCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat, _ := datagen.Build()
	return cat
}

// TestTraceEndpoint exercises GET /sessions/{id}/trace: recent traces
// arrive newest-first with populated stage timings, the slowest list is
// sorted, n bounds both, and a bad n is a 400.
func TestTraceEndpoint(t *testing.T) {
	rig, _ := newObsRig(t)
	rig.call("POST", "/sessions", map[string]any{"name": "tr", "idx_cnt": 16, "state_cnt": 200}, http.StatusCreated, nil)
	obsIngest(rig, "tr")

	var tr traceResponse
	rig.call("GET", "/sessions/tr/trace", nil, http.StatusOK, &tr)
	if !tr.Enabled {
		t.Fatal("tracing reported disabled on an instrumented server")
	}
	if len(tr.Recent) != 3 || len(tr.Slowest) != 3 {
		t.Fatalf("got %d recent / %d slowest traces, want 3/3", len(tr.Recent), len(tr.Slowest))
	}
	if tr.Recent[0].ID != 3 || tr.Recent[2].ID != 1 {
		t.Fatalf("recent traces not newest-first: ids %d,%d,%d", tr.Recent[0].ID, tr.Recent[1].ID, tr.Recent[2].ID)
	}
	for _, st := range tr.Recent {
		if st.TotalUS <= 0 || st.SQL == "" {
			t.Fatalf("trace %d not populated: %+v", st.ID, st)
		}
		if st.WhatIfCalls <= 0 {
			t.Fatalf("trace %d recorded no what-if calls", st.ID)
		}
	}
	for i := 1; i < len(tr.Slowest); i++ {
		if tr.Slowest[i].TotalUS > tr.Slowest[i-1].TotalUS {
			t.Fatalf("slowest traces not sorted: %v then %v", tr.Slowest[i-1].TotalUS, tr.Slowest[i].TotalUS)
		}
	}

	rig.call("GET", "/sessions/tr/trace?n=2", nil, http.StatusOK, &tr)
	if len(tr.Recent) != 2 || len(tr.Slowest) != 2 {
		t.Fatalf("n=2 returned %d recent / %d slowest", len(tr.Recent), len(tr.Slowest))
	}
	rig.call("GET", "/sessions/tr/trace?n=bogus", nil, http.StatusBadRequest, nil)
	rig.call("GET", "/sessions/tr/trace?n=-1", nil, http.StatusBadRequest, nil)
}

// TestObservabilityOffByDefault pins the library default: no registry, no
// /metrics endpoint, no tracing — zero instrumentation for embedders.
func TestObservabilityOffByDefault(t *testing.T) {
	rig := newAPIRig(t)
	rig.call("POST", "/sessions", map[string]any{"name": "plain", "idx_cnt": 16, "state_cnt": 200}, http.StatusCreated, nil)
	obsIngest(rig, "plain")

	rig.call("GET", "/metrics", nil, http.StatusNotFound, nil)
	var tr traceResponse
	rig.call("GET", "/sessions/plain/trace", nil, http.StatusOK, &tr)
	if tr.Enabled || len(tr.Recent) != 0 || len(tr.Slowest) != 0 {
		t.Fatalf("uninstrumented server returned traces: %+v", tr)
	}
}

// TestFollowerLagInHealthz drives a follower server to a known lag (a
// gapped ship leaves the offered high-water mark beyond the applied
// cursor) and asserts /healthz reports it, and that a caught-up follower
// reports zero.
func TestFollowerLagInHealthz(t *testing.T) {
	const total = 12
	sqls := recoveryWorkloadSQL(t, total)
	cat, _ := datagen.Build()

	// A plain primary session whose WAL becomes the ship stream.
	pDir := filepath.Join(t.TempDir(), "p")
	primary, err := CreateSession(pDir, cat, testSessionConfig("s"))
	if err != nil {
		t.Fatal(err)
	}
	driveSession(t, primary, sqls, 0, total, false)
	primary.Kill()
	var stream []state.Record
	wal, err := state.OpenWAL(filepath.Join(pDir, walFile), func(rec state.Record) error {
		stream = append(stream, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wal.Close()

	sv, err := NewWithCatalog(Config{DataDir: t.TempDir(), CheckpointEvery: -1, Follower: true}, cat)
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	sess, err := sv.CreateSession(testSessionConfig("s"))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	rig := &apiRig{t: t, sv: sv, ts: ts}

	healthLag := func() (uint64, bool) {
		var rep struct {
			Status string  `json:"status"`
			Role   string  `json:"role"`
			Lag    *uint64 `json:"lag_records"`
		}
		rig.call("GET", "/healthz", nil, http.StatusOK, &rep)
		if rep.Role != "standby" {
			t.Fatalf("follower reports role %q", rep.Role)
		}
		if rep.Lag == nil {
			return 0, false
		}
		return *rep.Lag, true
	}

	if lag, ok := healthLag(); !ok || lag != 0 {
		t.Fatalf("fresh follower lag = %v (present %v), want 0", lag, ok)
	}

	cut := len(stream) / 2
	if _, err := sess.ApplyReplicated(stream[:cut], nil); err != nil {
		t.Fatal(err)
	}
	// A gapped ship is rejected, but the offered high-water mark — and
	// therefore the reported lag — must reflect how far behind we are.
	if _, err := sess.ApplyReplicated(stream[cut+1:], nil); err == nil {
		t.Fatal("gapped batch accepted")
	}
	wantLag := stream[len(stream)-1].Seq - stream[cut-1].Seq
	if lag, ok := healthLag(); !ok || lag != wantLag {
		t.Fatalf("stale follower lag = %v (present %v), want %v", lag, ok, wantLag)
	}

	if _, err := sess.ApplyReplicated(stream, nil); err != nil {
		t.Fatal(err)
	}
	if lag, ok := healthLag(); !ok || lag != 0 {
		t.Fatalf("caught-up follower lag = %v (present %v), want 0", lag, ok)
	}
}
