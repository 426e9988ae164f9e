package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// apiRig is an httptest-backed server over a temp data dir.
type apiRig struct {
	t   *testing.T
	sv  *Server
	ts  *httptest.Server
	dir string
}

func newAPIRig(t *testing.T) *apiRig {
	t.Helper()
	dir := t.TempDir()
	sv, err := New(Config{DataDir: dir, CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(func() {
		ts.Close()
		sv.Close()
	})
	return &apiRig{t: t, sv: sv, ts: ts, dir: dir}
}

// call performs one request and decodes the JSON response into out (when
// non-nil), asserting the status code.
func (r *apiRig) call(method, path string, body any, wantCode int, out any) {
	r.t.Helper()
	_, data := r.raw(method, path, body, wantCode)
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			r.t.Fatalf("%s %s: decoding %q: %v", method, path, data, err)
		}
	}
}

// raw performs one request and returns the response with its body read,
// asserting the status code.
func (r *apiRig) raw(method, path string, body any, wantCode int) (*http.Response, []byte) {
	r.t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			r.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, r.ts.URL+path, rd)
	if err != nil {
		r.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		r.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		r.t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		r.t.Fatalf("%s %s: status %d (want %d): %s", method, path, resp.StatusCode, wantCode, data)
	}
	return resp, data
}

// TestAPIReplyFraming checks the replies that carry the recommendation —
// the SQL ack, the recommendation read and the vote reply. Each must carry
// a Content-Length equal to its body length, so it is not chunked, and its
// body must be the compact form of the document the indenting encoder
// wrote for the same value, newline-terminated. The batch makes the
// recommendation large enough that its indented form exceeds the 2 KB
// net/http sends unchunked when a handler sets no length.
func TestAPIReplyFraming(t *testing.T) {
	rig := newAPIRig(t)
	rig.call("POST", "/sessions", map[string]any{"name": "prod"}, http.StatusCreated, nil)
	sess, ok := rig.sv.Session("prod")
	if !ok {
		t.Fatal("session prod not found")
	}
	check := func(what string, resp *http.Response, body []byte, want any) {
		t.Helper()
		if resp.ContentLength != int64(len(body)) || resp.Header.Get("Content-Length") != strconv.Itoa(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("%s: Content-Length %d (header %q, transfer encoding %v) for a %d-byte body",
				what, resp.ContentLength, resp.Header.Get("Content-Length"), resp.TransferEncoding, len(body))
		}
		var indented bytes.Buffer
		enc := json.NewEncoder(&indented)
		enc.SetIndent("", "  ")
		if err := enc.Encode(want); err != nil {
			t.Fatal(err)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, indented.Bytes()); err != nil {
			t.Fatal(err)
		}
		compact.WriteByte('\n')
		if !bytes.Equal(body, compact.Bytes()) {
			t.Fatalf("%s: body\n%s\nwant the compact form of\n%s", what, body, indented.Bytes())
		}
		if indented.Len() <= 2048 {
			t.Fatalf("%s: the indented reply has only %d bytes", what, indented.Len())
		}
	}

	var batch []string
	for _, c := range []struct{ table, col string }{
		{"lineitem", "l_shipdate"}, {"lineitem", "l_commitdate"}, {"lineitem", "l_receiptdate"},
		{"orders", "o_orderdate"}, {"orders", "o_totalprice"}, {"part", "p_retailprice"},
		{"partsupp", "ps_supplycost"}, {"partsupp", "ps_availqty"}, {"customer", "c_acctbal"},
		{"supplier", "s_acctbal"}, {"lineitem", "l_extendedprice"}, {"orders", "o_custkey"},
		{"lineitem", "l_partkey"}, {"lineitem", "l_suppkey"}, {"partsupp", "ps_partkey"},
		{"customer", "c_custkey"}, {"part", "p_partkey"},
	} {
		for k := 0; k < 3; k++ {
			batch = append(batch, fmt.Sprintf("SELECT count(*) FROM tpch.%s WHERE %s BETWEEN %d AND %d", c.table, c.col, 100+k, 101+k))
		}
	}
	resp, body := rig.raw("POST", "/sessions/prod/sql", map[string]any{"sql": batch}, http.StatusOK)
	var ack sqlResponse
	if err := json.Unmarshal(body, &ack); err != nil || len(ack.Results) != len(batch) {
		t.Fatalf("SQL ack %s: %v", body, err)
	}
	rec, create, drop := sess.recommendationDefs()
	if len(rec) == 0 {
		t.Fatal("no recommendation after selective scans")
	}
	check("SQL ack", resp, body, sqlResponse{Results: ack.Results, Recommendation: defsJSON(rec)})

	resp, body = rig.raw("GET", "/sessions/prod/recommendation", nil, http.StatusOK)
	check("recommendation read", resp, body, map[string]any{
		"recommendation": defsJSON(rec),
		"would_create":   defsJSON(create),
		"would_drop":     defsJSON(drop),
	})

	resp, body = rig.raw("POST", "/sessions/prod/votes", map[string]any{
		"plus": []indexJSON{{Table: "tpch.part", Columns: []string{"p_size"}}},
	}, http.StatusOK)
	rec, _, _ = sess.recommendationDefs()
	check("vote reply", resp, body, map[string]any{"recommendation": defsJSON(rec)})
}

func TestAPIEndToEnd(t *testing.T) {
	rig := newAPIRig(t)

	// Create a session (201) and its duplicate (409).
	var status SessionStatus
	rig.call("POST", "/sessions", map[string]any{"name": "prod", "idx_cnt": 16, "state_cnt": 200}, http.StatusCreated, &status)
	if status.Name != "prod" || status.Statements != 0 {
		t.Fatalf("unexpected created status %+v", status)
	}
	rig.call("POST", "/sessions", map[string]any{"name": "prod"}, http.StatusConflict, nil)

	// List shows it.
	var list struct {
		Sessions []SessionStatus `json:"sessions"`
	}
	rig.call("GET", "/sessions", nil, http.StatusOK, &list)
	if len(list.Sessions) != 1 || list.Sessions[0].Name != "prod" {
		t.Fatalf("unexpected session list %+v", list)
	}

	// Ingest a batch.
	var ingest sqlResponse
	rig.call("POST", "/sessions/prod/sql", map[string]any{"sql": []string{
		"SELECT count(*) FROM tpch.lineitem WHERE l_shipdate BETWEEN 100 AND 140",
		"SELECT count(*) FROM tpch.lineitem WHERE l_shipdate BETWEEN 200 AND 260",
		"UPDATE tpch.orders SET o_totalprice = o_totalprice + 0.000001 WHERE o_orderdate BETWEEN 10 AND 12",
	}}, http.StatusOK, &ingest)
	if len(ingest.Results) != 3 {
		t.Fatalf("ingest returned %d results", len(ingest.Results))
	}
	if ingest.Results[2].Kind != "UPDATE" || ingest.Results[2].ID != 3 {
		t.Fatalf("unexpected third result %+v", ingest.Results[2])
	}
	if len(ingest.Recommendation) == 0 {
		t.Fatalf("no recommendation after selective scans")
	}

	// Recommendation endpoint agrees and reports the create diff.
	var rec struct {
		Recommendation []indexJSON `json:"recommendation"`
		WouldCreate    []indexJSON `json:"would_create"`
		WouldDrop      []indexJSON `json:"would_drop"`
	}
	rig.call("GET", "/sessions/prod/recommendation", nil, http.StatusOK, &rec)
	if len(rec.Recommendation) != len(ingest.Recommendation) || len(rec.WouldCreate) != len(rec.Recommendation) || len(rec.WouldDrop) != 0 {
		t.Fatalf("unexpected recommendation payload %+v", rec)
	}

	// Vote for a specific index; it must enter the recommendation
	// (positive votes force consistency).
	var vote struct {
		Recommendation []indexJSON `json:"recommendation"`
	}
	rig.call("POST", "/sessions/prod/votes", map[string]any{
		"plus": []indexJSON{{Table: "tpch.part", Columns: []string{"p_size"}}},
	}, http.StatusOK, &vote)
	found := false
	for _, ix := range vote.Recommendation {
		if ix.Table == "tpch.part" && len(ix.Columns) == 1 && ix.Columns[0] == "p_size" {
			found = true
		}
	}
	if !found {
		t.Fatalf("positive vote missing from recommendation: %+v", vote.Recommendation)
	}

	// Accept materializes it.
	var accept struct {
		Materialized   []indexJSON `json:"materialized"`
		Created        []indexJSON `json:"created"`
		TransitionCost float64     `json:"transition_cost"`
	}
	rig.call("POST", "/sessions/prod/accept", nil, http.StatusOK, &accept)
	if len(accept.Created) == 0 || accept.TransitionCost <= 0 {
		t.Fatalf("accept created nothing: %+v", accept)
	}

	// Status reflects the work so far.
	rig.call("GET", "/sessions/prod/status", nil, http.StatusOK, &status)
	if status.Statements != 3 || status.TotalWork <= 0 || status.Materialized != len(accept.Materialized) {
		t.Fatalf("unexpected status %+v", status)
	}

	// Checkpoint responds with the WAL position.
	var ck struct {
		WALSeq uint64 `json:"wal_seq"`
	}
	rig.call("POST", "/sessions/prod/checkpoint", nil, http.StatusOK, &ck)
	if ck.WALSeq == 0 {
		t.Fatalf("checkpoint reported seq 0")
	}

	rig.call("GET", "/healthz", nil, http.StatusOK, nil)
}

func TestAPIMalformedInputs(t *testing.T) {
	rig := newAPIRig(t)
	rig.call("POST", "/sessions", map[string]any{"name": "s1"}, http.StatusCreated, nil)

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		code   int
	}{
		{"missing name", "POST", "/sessions", map[string]any{}, http.StatusBadRequest},
		{"bad name", "POST", "/sessions", map[string]any{"name": "no/slashes"}, http.StatusBadRequest},
		{"unknown field", "POST", "/sessions", map[string]any{"name": "x", "bogus": 1}, http.StatusBadRequest},
		{"runtime knob field", "POST", "/sessions", map[string]any{"name": "x", "batch": 2}, http.StatusBadRequest},
		{"unknown session sql", "POST", "/sessions/nope/sql", map[string]any{"sql": []string{"SELECT count(*) FROM tpch.part"}}, http.StatusNotFound},
		{"unknown session status", "GET", "/sessions/nope/status", nil, http.StatusNotFound},
		{"unknown session rec", "GET", "/sessions/nope/recommendation", nil, http.StatusNotFound},
		{"unknown session accept", "POST", "/sessions/nope/accept", nil, http.StatusNotFound},
		{"unknown session checkpoint", "POST", "/sessions/nope/checkpoint", nil, http.StatusNotFound},
		{"empty sql batch", "POST", "/sessions/s1/sql", map[string]any{"sql": []string{}}, http.StatusBadRequest},
		{"sql parse error", "POST", "/sessions/s1/sql", map[string]any{"sql": []string{"DELETE FROM tpch.part"}}, http.StatusBadRequest},
		{"sql unknown table", "POST", "/sessions/s1/sql", map[string]any{"sql": []string{"SELECT count(*) FROM nosuch.table"}}, http.StatusBadRequest},
		{"sql not json", "POST", "/sessions/s1/sql", "just text", http.StatusBadRequest},
		{"vote no indices", "POST", "/sessions/s1/votes", map[string]any{}, http.StatusBadRequest},
		{"vote unknown table", "POST", "/sessions/s1/votes", map[string]any{"plus": []indexJSON{{Table: "tpch.nope", Columns: []string{"a"}}}}, http.StatusBadRequest},
		{"vote unknown column", "POST", "/sessions/s1/votes", map[string]any{"plus": []indexJSON{{Table: "tpch.part", Columns: []string{"nope"}}}}, http.StatusBadRequest},
		{"vote empty columns", "POST", "/sessions/s1/votes", map[string]any{"minus": []indexJSON{{Table: "tpch.part", Columns: []string{}}}}, http.StatusBadRequest},
		{"wrong method", "GET", "/sessions/s1/accept", nil, http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rig.call(tc.method, tc.path, tc.body, tc.code, nil)
		})
	}

	// A parse error must not have consumed statements.
	var status SessionStatus
	rig.call("GET", "/sessions/s1/status", nil, http.StatusOK, &status)
	if status.Statements != 0 {
		t.Fatalf("malformed inputs consumed %d statements", status.Statements)
	}
}

// TestAPIServerRestart exercises the manager-level recovery: sessions
// created over HTTP survive a server restart with their counters intact.
func TestAPIServerRestart(t *testing.T) {
	rig := newAPIRig(t)
	rig.call("POST", "/sessions", map[string]any{"name": "a", "idx_cnt": 12, "state_cnt": 100}, http.StatusCreated, nil)
	rig.call("POST", "/sessions", map[string]any{"name": "b", "idx_cnt": 12, "state_cnt": 100}, http.StatusCreated, nil)
	for i := 0; i < 4; i++ {
		sql := fmt.Sprintf("SELECT count(*) FROM tpce.trade WHERE t_trade_price BETWEEN %d AND %d", 10*i, 10*i+5)
		rig.call("POST", "/sessions/a/sql", map[string]any{"sql": []string{sql}}, http.StatusOK, nil)
	}
	rig.call("POST", "/sessions/b/sql", map[string]any{"sql": []string{"SELECT count(*) FROM nref.protein WHERE length BETWEEN 100 AND 200"}}, http.StatusOK, nil)
	rig.ts.Close()
	if err := rig.sv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	sv2, err := New(Config{DataDir: rig.dir})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer sv2.Close()
	ts2 := httptest.NewServer(sv2.Handler())
	defer ts2.Close()
	rig2 := &apiRig{t: t, sv: sv2, ts: ts2, dir: rig.dir}

	var status SessionStatus
	rig2.call("GET", "/sessions/a/status", nil, http.StatusOK, &status)
	if status.Statements != 4 {
		t.Fatalf("session a recovered with %d statements, want 4", status.Statements)
	}
	rig2.call("GET", "/sessions/b/status", nil, http.StatusOK, &status)
	if status.Statements != 1 {
		t.Fatalf("session b recovered with %d statements, want 1", status.Statements)
	}
	// And it keeps tuning after the restart.
	rig2.call("POST", "/sessions/a/sql", map[string]any{"sql": []string{"SELECT count(*) FROM tpce.trade WHERE t_trade_price BETWEEN 1 AND 2"}}, http.StatusOK, nil)
}
