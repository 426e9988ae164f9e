package router_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/replica"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/state"
	"repro/internal/workload"
)

// workloadSQL renders a deterministic SQL stream of at least n statements.
func workloadSQL(t *testing.T, n int) []string {
	t.Helper()
	cat, joins := datagen.Build()
	w := workload.DefaultOptions()
	w.Phases = 2
	w.PerPhase = (n + 1) / 2
	w.QueryTemplates = 4
	w.UpdateTemplates = 1
	wl := workload.Generate(cat, joins, w)
	if wl.Len() < n {
		t.Fatalf("workload too short: %d < %d", wl.Len(), n)
	}
	out := make([]string, 0, n)
	for _, s := range wl.Statements[:n] {
		out = append(out, s.SQL)
	}
	return out
}

// node is one wfit-serve process under test.
type node struct {
	sv *server.Server
	ts *httptest.Server
}

func (n *node) close() { n.ts.Close() }

// serveMux is the combined frontend every real node runs: replication API
// next to the service API.
func serveMux(sv *server.Server) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/replication/", replica.NewHandler(sv))
	mux.Handle("/", sv.Handler())
	return mux
}

func newStandalone(t *testing.T, cat *catalog.Catalog) *node {
	t.Helper()
	sv, err := server.NewWithCatalog(server.Config{DataDir: t.TempDir()}, cat)
	if err != nil {
		t.Fatal(err)
	}
	return &node{sv: sv, ts: httptest.NewServer(serveMux(sv))}
}

func newStandby(t *testing.T, cat *catalog.Catalog) *node {
	t.Helper()
	sv, err := server.NewWithCatalog(server.Config{DataDir: t.TempDir(), Follower: true}, cat)
	if err != nil {
		t.Fatal(err)
	}
	return &node{sv: sv, ts: httptest.NewServer(serveMux(sv))}
}

// newPrimary starts a primary that synchronously ships every session to
// standbyURL.
func newPrimary(t *testing.T, cat *catalog.Catalog, standbyURL string) *node {
	t.Helper()
	sv, err := server.NewWithCatalog(server.Config{
		DataDir: t.TempDir(),
		NewShipper: func(name, sdir string, base uint64, tail []state.Record) server.Shipper {
			return replica.NewShipper(replica.Config{
				Session: name, Dir: sdir, Standby: standbyURL,
				Base: base, Backlog: tail,
			})
		},
	}, cat)
	if err != nil {
		t.Fatal(err)
	}
	return &node{sv: sv, ts: httptest.NewServer(serveMux(sv))}
}

// newRouter wraps a Router in an httptest frontend with test-speed health
// probing.
func newRouter(t *testing.T, shards []router.Shard) (*router.Router, *httptest.Server) {
	t.Helper()
	rt, err := router.New(router.Config{
		Shards:         shards,
		HealthInterval: 20 * time.Millisecond,
		HealthTimeout:  500 * time.Millisecond,
		FailThreshold:  2,
		RequestTimeout: 10 * time.Second,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { ts.Close(); rt.Close() })
	return rt, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out := new(bytes.Buffer)
	out.ReadFrom(resp.Body) //nolint:errcheck
	return resp, out.Bytes()
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding GET %s: %v", url, err)
		}
	}
	return resp
}

// createReq is the session shape the router tests use (small tuner).
func createReq(name string) map[string]any {
	return map[string]any{"name": name, "idx_cnt": 16, "state_cnt": 200, "checkpoint_every": -1}
}

// nameForShard finds a session name that FNV-hashes onto the given shard.
func nameForShard(t *testing.T, want, shards int) string {
	t.Helper()
	for i := 0; i < 256; i++ {
		name := fmt.Sprintf("s%d", i)
		h := fnv.New32a()
		h.Write([]byte(name))
		if int(h.Sum32())%shards == want {
			return name
		}
	}
	t.Fatal("no name found for shard")
	return ""
}

// routerHealth is the router's /healthz shape.
type routerHealth struct {
	Status string `json:"status"`
	Shards []struct {
		Leader string `json:"leader"`
		Nodes  []struct {
			URL     string `json:"url"`
			Healthy bool   `json:"healthy"`
			Role    string `json:"role"`
		} `json:"nodes"`
	} `json:"shards"`
}

// TestRouterShardsSessionsAndMergesList spreads sessions across two
// single-node shards by hash and checks creates land on the right
// backend, per-session requests follow them, and GET /sessions merges the
// fleet view.
func TestRouterShardsSessionsAndMergesList(t *testing.T) {
	sqls := workloadSQL(t, 4)
	cat, _ := datagen.Build()
	a, b := newStandalone(t, cat), newStandalone(t, cat)
	defer a.close()
	defer b.close()

	_, ts := newRouter(t, []router.Shard{{Primary: a.ts.URL}, {Primary: b.ts.URL}})
	nameA, nameB := nameForShard(t, 0, 2), nameForShard(t, 1, 2)

	for _, name := range []string{nameA, nameB} {
		resp, body := postJSON(t, ts.URL+"/sessions", createReq(name))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s via router: HTTP %d %s", name, resp.StatusCode, body)
		}
	}
	if _, ok := a.sv.Session(nameA); !ok {
		t.Fatalf("session %s did not land on shard 0", nameA)
	}
	if _, ok := b.sv.Session(nameB); !ok {
		t.Fatalf("session %s did not land on shard 1", nameB)
	}
	if _, ok := a.sv.Session(nameB); ok {
		t.Fatalf("session %s landed on both shards", nameB)
	}

	// Per-session writes and reads route by the path's session id.
	resp, body := postJSON(t, fmt.Sprintf("%s/sessions/%s/sql", ts.URL, nameB), map[string]any{"sql": sqls[:2]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest via router: HTTP %d %s", resp.StatusCode, body)
	}
	var status struct {
		Statements int `json:"statements"`
	}
	if resp := getJSON(t, fmt.Sprintf("%s/sessions/%s/status", ts.URL, nameB), &status); resp.StatusCode != http.StatusOK {
		t.Fatalf("status via router: HTTP %d", resp.StatusCode)
	}
	if status.Statements != 2 {
		t.Fatalf("status via router reports %d statements, want 2", status.Statements)
	}

	// The fleet listing merges both shards.
	var list struct {
		Sessions []json.RawMessage `json:"sessions"`
		Partial  bool              `json:"partial"`
	}
	getJSON(t, ts.URL+"/sessions", &list)
	if len(list.Sessions) != 2 || list.Partial {
		t.Fatalf("merged listing wrong: %d sessions, partial=%v", len(list.Sessions), list.Partial)
	}

	// Paths with no session to route by are rejected, not guessed at.
	if resp := getJSON(t, ts.URL+"/nonsense", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unroutable path: HTTP %d, want 404", resp.StatusCode)
	}

	var health routerHealth
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Status != "ok" || len(health.Shards) != 2 {
		t.Fatalf("router health wrong: %+v", health)
	}
}

// TestRouterWriteFailoverToPromotedStandby is the router acceptance test:
// a replicated shard loses its primary mid-session; the health loop
// notices, promotes the standby, and client writes resume against it with
// every acknowledged statement intact — and the router never fails back
// on its own.
func TestRouterWriteFailoverToPromotedStandby(t *testing.T) {
	const acked = 6
	sqls := workloadSQL(t, acked+2)
	cat, _ := datagen.Build()

	standby := newStandby(t, cat)
	defer standby.close()
	primary := newPrimary(t, cat, standby.ts.URL)
	defer primary.close()

	_, ts := newRouter(t, []router.Shard{{Primary: primary.ts.URL, Standby: standby.ts.URL}})

	resp, body := postJSON(t, ts.URL+"/sessions", createReq("t"))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create via router: HTTP %d %s", resp.StatusCode, body)
	}
	for i := 0; i < acked; i++ {
		resp, body := postJSON(t, ts.URL+"/sessions/t/sql", map[string]any{"sql": sqls[i : i+1]})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d via router: HTTP %d %s", i, resp.StatusCode, body)
		}
	}

	// Kill -9 the primary: sessions die without checkpointing, the
	// listener goes away.
	for _, s := range primary.sv.Sessions() {
		s.Kill()
	}
	primary.ts.Close()

	// A write in the failover window is refused loudly — 502 (forward
	// failed) or 503 (leader marked down) — with Retry-After, never
	// silently dropped or blindly retried.
	resp, _ = postJSON(t, ts.URL+"/sessions/t/sql", map[string]any{"sql": sqls[acked : acked+1]})
	if resp.StatusCode != http.StatusBadGateway && resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("write during failover: HTTP %d, want 502/503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("failover-window refusal carries no Retry-After")
	}

	// The health loop promotes the standby.
	deadline := time.Now().Add(15 * time.Second)
	for {
		var health routerHealth
		getJSON(t, ts.URL+"/healthz", &health)
		if health.Shards[0].Leader == standby.ts.URL {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never failed over: %+v", health)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if standby.sv.Follower() {
		t.Fatal("router reports failover but the standby was not promoted")
	}

	// Every acknowledged write survived (sync replication: acked ⇒ on the
	// standby), and writes now flow to the new leader.
	var status struct {
		Statements int `json:"statements"`
	}
	getJSON(t, ts.URL+"/sessions/t/status", &status)
	if status.Statements != acked {
		t.Fatalf("promoted standby has %d statements, want %d", status.Statements, acked)
	}
	resp, body = postJSON(t, ts.URL+"/sessions/t/sql", map[string]any{"sql": sqls[acked : acked+1]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("write after failover: HTTP %d %s", resp.StatusCode, body)
	}
	getJSON(t, ts.URL+"/sessions/t/status", &status)
	if status.Statements != acked+1 {
		t.Fatalf("post-failover session has %d statements, want %d", status.Statements, acked+1)
	}

	// No automatic failback: the leader stays put even as probes continue.
	time.Sleep(100 * time.Millisecond)
	var health routerHealth
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Shards[0].Leader != standby.ts.URL {
		t.Fatalf("router failed back on its own: %+v", health)
	}
}

// TestRouterReadFallbackAndUnavailable routes reads around a dead primary
// and answers an honest 503 when a shard is fully unreachable.
func TestRouterReadFallbackAndUnavailable(t *testing.T) {
	cat, _ := datagen.Build()

	deadServer := httptest.NewServer(http.NotFoundHandler())
	deadURL := deadServer.URL
	deadServer.Close()

	live := newStandalone(t, cat)
	defer live.close()
	o := core.DefaultOptions()
	o.IdxCnt = 16
	o.StateCnt = 200
	if _, err := live.sv.CreateSession(server.SessionConfig{Name: "t", Options: o}); err != nil {
		t.Fatal(err)
	}

	_, ts := newRouter(t, []router.Shard{{Primary: deadURL, Standby: live.ts.URL}})

	// Reads fall back to the shard's other node while the leader is dead.
	if resp := getJSON(t, ts.URL+"/sessions/t/status", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("read with dead leader: HTTP %d, want 200 via fallback", resp.StatusCode)
	}

	// A fully dead shard degrades loudly: 503 + Retry-After on reads.
	dead2 := httptest.NewServer(http.NotFoundHandler())
	dead2URL := dead2.URL
	dead2.Close()
	_, tsDown := newRouter(t, []router.Shard{{Primary: deadURL, Standby: dead2URL}})
	resp := getJSON(t, tsDown.URL+"/sessions/t/status", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("read against dead shard: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("dead-shard 503 carries no Retry-After")
	}

	// Writes against the dead shard are refused with Retry-After too (502
	// before the probes mark the leader down, 503 after).
	wresp, _ := postJSON(t, tsDown.URL+"/sessions/t/sql", map[string]any{"sql": []string{"SELECT 1"}})
	if wresp.StatusCode != http.StatusBadGateway && wresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("write against dead shard: HTTP %d, want 502/503", wresp.StatusCode)
	}
	if wresp.Header.Get("Retry-After") == "" {
		t.Fatal("dead-shard write refusal carries no Retry-After")
	}
}
