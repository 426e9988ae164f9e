package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "server.sql", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Name: "b", StartNS: 20, EndNS: 50},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", StartNS: 90, EndNS: 120}, // runs past its parent
		{ID: 5, Parent: 3, Name: "d", StartNS: 25, EndNS: 45},  // grandchild: only b's
		{ID: 6, Name: "other", StartNS: 0, EndNS: 7},
	}
	got := selfTimes(spans)
	want := map[int64]time.Duration{1: 100 - 40 - 10, 2: 20, 3: 30 - 20, 4: 30, 5: 20, 6: 7}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, got[id], w)
		}
	}
}

func TestSpanPropagationAcrossHops(t *testing.T) {
	tr := newTracer("test")
	backend := httptest.NewServer(tr.middleware("server", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})))
	defer backend.Close()
	fwd := &http.Client{Transport: &spanTransport{base: http.DefaultTransport}}
	front := httptest.NewServer(tr.middleware("router", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := http.NewRequestWithContext(r.Context(), http.MethodPost, backend.URL+r.URL.Path, nil)
		resp, err := fwd.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
	})))
	defer front.Close()

	req, _ := http.NewRequest(http.MethodPost, front.URL+"/sessions/s0/sql", nil)
	req.Header.Set(hdrStmts, "4")
	req.Header.Set(hdrPos, "100")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	byName := map[string]span{}
	for _, s := range tr.snapshot() {
		byName[s.Name] = s
	}
	r, s := byName["router.sql"], byName["server.sql"]
	if r.ID == 0 || s.ID == 0 {
		t.Fatalf("spans = %+v, want router.sql and server.sql", tr.snapshot())
	}
	if s.Parent != r.ID || s.Session != "s0" || s.Stmts != 4 || s.Pos != 100 {
		t.Fatalf("server span = %+v, want child of %d for statements 101..104 of s0", s, r.ID)
	}
	if self := selfTimes(tr.snapshot())[r.ID]; self < 0 || self > r.dur() {
		t.Fatalf("router self time %v outside [0, %v]", self, r.dur())
	}
}
