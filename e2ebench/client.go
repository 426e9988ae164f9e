package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// reqKind classifies the client's requests for latency accounting.
type reqKind int

const (
	kindSQL reqKind = iota
	kindRead
	kindScrape
	kindVote
	kindAccept
	numKinds
)

// Headers the client tags statement batches with, so the traced run can
// attribute a server span to the statements it carried. The daemons
// ignore them.
const (
	hdrStmts = "X-Bench-Stmts"
	hdrPos   = "X-Bench-Pos"
)

// recorder collects request outcomes from every client of a run.
type recorder struct {
	mu    sync.Mutex
	lat   [numKinds]dist
	tally tally
	// idle is held for reading by every request in flight, and for
	// writing while the host-speed probe takes a sample (probe.go).
	idle sync.RWMutex
}

func (r *recorder) observe(k reqKind, d time.Duration, ok, measured bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tally.record(ok)
	if !measured {
		return
	}
	if ok {
		r.lat[k].add(float64(d.Nanoseconds()) / 1e3)
	} else {
		r.lat[k].fail()
	}
}

// indexSpec is the wire form of an index in recommendation reads and votes.
type indexSpec struct {
	Table   string   `json:"table"`
	Columns []string `json:"columns"`
}

// recommendation is a GET .../recommendation reply.
type recommendation struct {
	Recommendation []indexSpec `json:"recommendation"`
	WouldCreate    []indexSpec `json:"would_create"`
	WouldDrop      []indexSpec `json:"would_drop"`
}

// chooseVote decides the DBA's n-th vote from the recommendation read just
// before it. Even votes agree with the tuner: F+ on the first index it
// would create, else F− on the first it would drop, else F+ on the first
// recommended index. Odd votes disagree: F− on the first recommended
// index. ok is false when there is nothing to vote on.
func chooseVote(n int, rec recommendation) (plus, minus []indexSpec, ok bool) {
	if n%2 == 1 {
		if len(rec.Recommendation) == 0 {
			return nil, nil, false
		}
		return nil, rec.Recommendation[:1], true
	}
	switch {
	case len(rec.WouldCreate) > 0:
		return rec.WouldCreate[:1], nil, true
	case len(rec.WouldDrop) > 0:
		return nil, rec.WouldDrop[:1], true
	case len(rec.Recommendation) > 0:
		return rec.Recommendation[:1], nil, true
	}
	return nil, nil, false
}

// statementResult mirrors one element of a POST .../sql reply.
type statementResult struct {
	ID int `json:"id"`
}

// client drives one session over one keep-alive connection, in a closed
// loop: it sends its next request only after the previous one answered.
type client struct {
	w          Workload
	in         sessionInput
	base       string // where session requests go (router or primary)
	metricsURL string // the primary's /metrics
	hc         *http.Client
	rec        *recorder
	tag        bool // send the attribution headers
	measuring  bool
	elapsed    time.Duration // wall time of the client's last driveAll
	paused     time.Duration // of it, measured requests waiting out a probe's idle window
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   120 * time.Second,
	}
}

// do sends one request, records its latency (request write to last
// response byte) and decodes a 2xx body into out.
func (c *client) do(kind reqKind, method, url string, body any, out any, hdr map[string]string) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	wait := time.Now()
	c.rec.idle.RLock()
	defer c.rec.idle.RUnlock()
	if c.measuring {
		c.paused += time.Since(wait)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.rec.observe(kind, 0, false, c.measuring)
		return fmt.Errorf("%s %s: %w", method, url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	ok := err == nil && resp.StatusCode/100 == 2
	c.rec.observe(kind, elapsed, ok, c.measuring)
	if !ok {
		return fmt.Errorf("%s %s: HTTP %d: %s (read error %v)", method, url, resp.StatusCode, bytes.TrimSpace(data), err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: decoding reply: %w", method, url, err)
		}
	}
	return nil
}

func (c *client) sessionURL(suffix string) string {
	return c.base + "/sessions/" + c.in.Name + suffix
}

// stream sends statements [from, to) of the session's input, PerRequest
// at a time, with the DBA's requests at their fixed positions. Every ack
// must carry one result per statement sent, numbered consecutively.
func (c *client) stream(from, to int) error {
	for k := from; k < to; {
		end := k + c.w.PerRequest
		if end > to {
			end = to
		}
		var hdr map[string]string
		if c.tag {
			hdr = map[string]string{hdrStmts: strconv.Itoa(end - k), hdrPos: strconv.Itoa(k)}
		}
		var reply struct {
			Results []statementResult `json:"results"`
		}
		if err := c.do(kindSQL, http.MethodPost, c.sessionURL("/sql"), map[string]any{"sql": c.in.SQL[k:end]}, &reply, hdr); err != nil {
			return err
		}
		if len(reply.Results) != end-k {
			return fmt.Errorf("gate: session %s: ack for statements %d..%d carried %d results", c.in.Name, k+1, end, len(reply.Results))
		}
		for i, r := range reply.Results {
			if r.ID != k+i+1 {
				return fmt.Errorf("gate: session %s: result %d of the ack for statement %d has id %d", c.in.Name, i, k+1, r.ID)
			}
		}
		k = end
		if err := c.dba(k); err != nil {
			return err
		}
	}
	return nil
}

// dba issues the DBA's requests due after the k-th statement.
func (c *client) dba(k int) error {
	d := c.w.DBA
	var rec recommendation
	if due(k, d.ReadEvery) {
		if err := c.do(kindRead, http.MethodGet, c.sessionURL("/recommendation"), nil, &rec, nil); err != nil {
			return err
		}
	}
	if due(k, d.ScrapeEvery) {
		if err := c.do(kindScrape, http.MethodGet, c.metricsURL+"/metrics", nil, nil, nil); err != nil {
			return err
		}
	}
	if due(k, d.VoteEvery) {
		if plus, minus, ok := chooseVote(k/d.VoteEvery-1, rec); ok {
			body := map[string]any{}
			if plus != nil {
				body["plus"] = plus
			}
			if minus != nil {
				body["minus"] = minus
			}
			if err := c.do(kindVote, http.MethodPost, c.sessionURL("/votes"), body, nil, nil); err != nil {
				return err
			}
		}
	}
	if due(k, d.AcceptEvery) {
		if err := c.do(kindAccept, http.MethodPost, c.sessionURL("/accept"), nil, nil, nil); err != nil {
			return err
		}
	}
	return nil
}

func due(k, every int) bool { return every > 0 && k%every == 0 }

// sessionStatus is the part of GET .../status the benchmark checks.
type sessionStatus struct {
	Statements  int     `json:"statements"`
	TotalWork   float64 `json:"total_work"`
	Replication *struct {
		Lag uint64 `json:"lag"`
	} `json:"replication"`
}

// getJSON is an unrecorded GET for the benchmark's own checks.
func getJSON(hc *http.Client, url string, out any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// postJSON is an unrecorded POST for the benchmark's own set-up.
func postJSON(hc *http.Client, url string, body any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := hc.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return nil
}

// createSessions creates every session of the run through base and waits
// until each answers a status read there.
func createSessions(hc *http.Client, base string, w Workload, in *inputs) error {
	for _, s := range in.Sessions {
		body := map[string]any{
			"name":             s.Name,
			"idx_cnt":          w.Knobs.IdxCnt,
			"state_cnt":        w.Knobs.StateCnt,
			"checkpoint_every": w.Knobs.CheckpointEvery,
		}
		if w.Knobs.RetireAfter > 0 {
			body["retire_after"] = w.Knobs.RetireAfter
		}
		if err := postJSON(hc, base+"/sessions", body); err != nil {
			return err
		}
		var st sessionStatus
		if err := getJSON(hc, base+"/sessions/"+s.Name+"/status", &st); err != nil {
			return err
		}
	}
	return nil
}

// driveAll runs one client per session over [from, to) concurrently and
// returns when all are done, with the first error.
func driveAll(clients []*client, from, to int) error {
	errs := make(chan error, len(clients))
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			start := time.Now()
			errs <- c.stream(from, to)
			c.elapsed = time.Since(start)
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
