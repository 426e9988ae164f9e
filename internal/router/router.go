// Package router is the session-aware front door of a replicated
// wfit-serve fleet: it hashes each session onto a shard (a primary plus
// an optional warm standby), health-checks every node, proxies requests
// to the shard's current leader, retries idempotent reads against the
// standby with jittered backoff, and — when a primary stays dead past a
// failure threshold — promotes the standby and fails writes over to it.
//
// Degradation is always loud: when a shard has no writable node the
// router answers 503 with Retry-After; a request is never dropped
// silently and a write is never blindly retried (the client owns write
// retries — it knows whether its request was acknowledged).
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Metric names the router registers when Config.Metrics is set.
const (
	metricProbes          = "wfit_router_probes_total"
	metricFailovers       = "wfit_router_failovers_total"
	metricForwardedWrites = "wfit_router_forwarded_writes_total"
	metricRetriedReads    = "wfit_router_retried_reads_total"
)

// maxBodyBytes bounds a proxied request body (matches the service's own
// request bound).
const maxBodyBytes = 8 << 20

// Shard is one replication pair: a primary and an optional warm standby.
type Shard struct {
	Primary string
	Standby string // empty: the shard runs unreplicated
}

// Config configures a Router. Zero durations and counts get the defaults
// noted on each field.
type Config struct {
	// Shards are the replication pairs; sessions hash across them.
	Shards []Shard
	// Client overrides the proxy HTTP client (tests inject faults).
	Client *http.Client
	// HealthInterval is the probe cadence (default 500ms).
	HealthInterval time.Duration
	// HealthTimeout bounds one /healthz probe (default 2s).
	HealthTimeout time.Duration
	// FailThreshold is how many consecutive probe failures mark a node
	// down — and, for a primary with a healthy standby, trigger
	// promotion (default 3).
	FailThreshold int
	// ReadRetries is how many extra attempts an idempotent read gets
	// across the shard's nodes, with jittered backoff (default 2).
	ReadRetries int
	// RequestTimeout bounds one proxied request (default 60s — ingest
	// batches against a loaded session can legitimately take a while).
	RequestTimeout time.Duration
	// Logf receives failover events (default log.Printf).
	Logf func(format string, args ...any)
	// Metrics, when set, records per-shard probe outcomes, failovers,
	// forwarded writes, and retried reads, and is served at GET /metrics.
	// Nil keeps the router uninstrumented (library default; the daemon
	// always wires a registry).
	Metrics *obs.Registry
}

func (c *Config) applyDefaults() {
	if c.HealthInterval <= 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = 2 * time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.ReadRetries < 0 {
		c.ReadRetries = 0
	} else if c.ReadRetries == 0 {
		c.ReadRetries = 2
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	if c.Client == nil {
		c.Client = &http.Client{} // per-request contexts carry the deadlines
	}
}

// node is one health-tracked backend.
type node struct {
	url     string
	healthy bool
	fails   int
	// lag is the node's self-reported replication lag in records, valid
	// only when hasLag (standbys report it on /healthz; primaries don't).
	lag    uint64
	hasLag bool
}

// shardState is a shard's routing state. leader indexes nodes; it starts
// at the primary and moves to the standby on promotion — never back
// automatically (a recovered old primary holds a stale timeline; human
// intervention re-attaches it as a standby).
type shardState struct {
	idx      int // position in Router.shards — the "shard" metric label
	mu       sync.Mutex
	nodes    []*node // [primary] or [primary, standby]
	leader   int
	promoted bool
}

// Router proxies a fleet. Create with New, serve Handler, stop with
// Close.
type Router struct {
	cfg    Config
	shards []*shardState
	done   chan struct{}
	wg     sync.WaitGroup
}

// New validates the config and starts the health loop.
func New(cfg Config) (*Router, error) {
	cfg.applyDefaults()
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("router: at least one shard is required")
	}
	rt := &Router{cfg: cfg, done: make(chan struct{})}
	for i, sh := range cfg.Shards {
		if sh.Primary == "" {
			return nil, fmt.Errorf("router: shard with no primary URL")
		}
		st := &shardState{idx: i, nodes: []*node{{url: strings.TrimRight(sh.Primary, "/"), healthy: true}}}
		if sh.Standby != "" {
			st.nodes = append(st.nodes, &node{url: strings.TrimRight(sh.Standby, "/"), healthy: true})
		}
		rt.shards = append(rt.shards, st)
	}
	if reg := cfg.Metrics; reg != nil {
		reg.Help(metricProbes, "Health probes by shard, node, and result (ok/fail).")
		reg.Help(metricFailovers, "Standby promotions the router has driven, by shard.")
		reg.Help(metricForwardedWrites, "Write requests forwarded to a shard leader.")
		reg.Help(metricRetriedReads, "Read retry attempts after a full pass over a shard's nodes failed.")
	}
	rt.wg.Add(1)
	go rt.healthLoop()
	return rt, nil
}

// Close stops the health loop.
func (rt *Router) Close() {
	close(rt.done)
	rt.wg.Wait()
}

// shardLabel renders a shard's index as its metric label value.
func shardLabel(sh *shardState) string { return strconv.Itoa(sh.idx) }

// count bumps a per-shard counter when metrics are wired; extra label
// pairs append after the shard label.
func (rt *Router) count(metric string, sh *shardState, extra ...string) {
	if rt.cfg.Metrics == nil {
		return
	}
	lbl := append(obs.Labels{"shard", shardLabel(sh)}, extra...)
	rt.cfg.Metrics.Counter(metric, lbl).Inc()
}

// shardFor hashes a session name onto a shard (FNV-1a — the same family
// the service uses to derive session seeds).
func (rt *Router) shardFor(session string) *shardState {
	h := fnv.New32a()
	h.Write([]byte(session))
	return rt.shards[int(h.Sum32())%len(rt.shards)]
}

// healthLoop probes every node and drives failover.
func (rt *Router) healthLoop() {
	defer rt.wg.Done()
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.done:
			return
		case <-t.C:
		}
		for i, sh := range rt.shards {
			rt.probeShard(i, sh)
		}
	}
}

// probeShard refreshes one shard's node health and promotes the standby
// when the primary has been down for FailThreshold consecutive probes.
func (rt *Router) probeShard(idx int, sh *shardState) {
	results := make([]probeResult, len(sh.nodes))
	sh.mu.Lock()
	urls := make([]string, len(sh.nodes))
	for i, n := range sh.nodes {
		urls[i] = n.url
	}
	sh.mu.Unlock()
	for i, url := range urls {
		results[i] = rt.probe(url)
		outcome := "fail"
		if results[i].ok {
			outcome = "ok"
		}
		rt.count(metricProbes, sh, "node", url, "result", outcome)
	}

	sh.mu.Lock()
	for i, n := range sh.nodes {
		if results[i].ok {
			n.fails = 0
			n.healthy = true
			n.lag, n.hasLag = results[i].lag, results[i].hasLag
		} else {
			n.fails++
			if n.fails >= rt.cfg.FailThreshold {
				n.healthy = false
			}
		}
	}
	needPromote := !sh.promoted && len(sh.nodes) == 2 &&
		sh.leader == 0 && !sh.nodes[0].healthy && sh.nodes[1].healthy
	standbyURL := ""
	if needPromote {
		standbyURL = sh.nodes[1].url
	}
	sh.mu.Unlock()

	if !needPromote {
		return
	}
	rt.cfg.Logf("router: shard %d primary %s down for %d probes; promoting standby %s",
		idx, urls[0], rt.cfg.FailThreshold, standbyURL)
	if err := rt.promote(standbyURL); err != nil {
		rt.cfg.Logf("router: promoting %s failed: %v", standbyURL, err)
		return
	}
	sh.mu.Lock()
	sh.leader = 1
	sh.promoted = true
	sh.mu.Unlock()
	rt.count(metricFailovers, sh)
	obs.Event("router", "failover", "shard", idx, "from", urls[0], "to", standbyURL)
	rt.cfg.Logf("router: shard %d now led by %s", idx, standbyURL)
}

// probeResult is one /healthz round trip: liveness plus, when the node is
// a standby, its self-reported replication lag.
type probeResult struct {
	ok     bool
	lag    uint64
	hasLag bool
}

func (rt *Router) probe(url string) probeResult {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return probeResult{}
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return probeResult{}
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20)) //nolint:errcheck // a short body just skips the lag field
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return probeResult{}
	}
	res := probeResult{ok: true}
	// Standbys report lag_records on /healthz; primaries omit it. The
	// lag rides the health view so an operator (and the failover smoke
	// test) can tell a caught-up standby from a stale one.
	var rep struct {
		LagRecords *uint64 `json:"lag_records"`
	}
	if err := json.Unmarshal(body, &rep); err == nil && rep.LagRecords != nil {
		res.lag, res.hasLag = *rep.LagRecords, true
	}
	return res
}

func (rt *Router) promote(url string) error {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/replication/promote", nil)
	if err != nil {
		return err
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("promote returned HTTP %d", resp.StatusCode)
	}
	return nil
}

// Handler returns the routing frontend: the service API surface, proxied
// per session, plus the router's own /healthz and /metrics.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /sessions", rt.handleList)
	mux.HandleFunc("/", rt.handleProxy)
	return mux
}

type shardHealth struct {
	Leader string   `json:"leader"`
	Nodes  []member `json:"nodes"`
}

type member struct {
	URL     string  `json:"url"`
	Healthy bool    `json:"healthy"`
	Role    string  `json:"role"`
	Lag     *uint64 `json:"lag_records,omitempty"` // standbys only, from their last healthy probe
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	out := make([]shardHealth, 0, len(rt.shards))
	for _, sh := range rt.shards {
		sh.mu.Lock()
		h := shardHealth{Leader: sh.nodes[sh.leader].url}
		for i, n := range sh.nodes {
			role := "standby"
			if i == sh.leader {
				role = "leader"
			}
			m := member{URL: n.url, Healthy: n.healthy, Role: role}
			if n.hasLag {
				lag := n.lag
				m.Lag = &lag
			}
			h.Nodes = append(h.Nodes, m)
		}
		sh.mu.Unlock()
		out = append(out, h)
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "shards": out})
}

// handleMetrics serves the router's own registry in Prometheus text
// format; 404 when the embedding process wired none.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if rt.cfg.Metrics == nil {
		writeErr(w, http.StatusNotFound, "metrics are not enabled on this router")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rt.cfg.Metrics.WritePrometheus(w) //nolint:errcheck // the scraper is gone if this fails
}

// handleList merges GET /sessions across every shard, reading from
// whichever node of each shard answers. Unreachable shards degrade the
// response to partial (flagged, never silent).
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	var sessions []json.RawMessage
	partial := false
	for _, sh := range rt.shards {
		body, ok := rt.readShard(r, sh, "/sessions")
		if !ok {
			partial = true
			continue
		}
		var rep struct {
			Sessions []json.RawMessage `json:"sessions"`
		}
		if err := json.Unmarshal(body, &rep); err != nil {
			partial = true
			continue
		}
		sessions = append(sessions, rep.Sessions...)
	}
	if sessions == nil {
		sessions = []json.RawMessage{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": sessions, "partial": partial})
}

// readShard GETs path from the shard's leader, falling back to its other
// node, and returns the first 200 body.
func (rt *Router) readShard(r *http.Request, sh *shardState, path string) ([]byte, bool) {
	for _, target := range rt.readOrder(sh) {
		ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, target+path, nil)
		if err != nil {
			cancel()
			continue
		}
		resp, err := rt.cfg.Client.Do(req)
		if err != nil {
			cancel()
			continue
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
		resp.Body.Close()
		cancel()
		if err == nil && resp.StatusCode == http.StatusOK {
			return body, true
		}
	}
	return nil, false
}

// readOrder returns the shard's nodes leader-first, skipping known-down
// nodes unless every node is down (then try them all anyway — probes can
// lag reality).
func (rt *Router) readOrder(sh *shardState) []string {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var healthy, down []string
	for i := 0; i < len(sh.nodes); i++ {
		n := sh.nodes[(sh.leader+i)%len(sh.nodes)]
		if n.healthy {
			healthy = append(healthy, n.url)
		} else {
			down = append(down, n.url)
		}
	}
	return append(healthy, down...)
}

// sessionOf extracts the routing key from a request: the {id} of a
// /sessions/{id}/... path, or the "name" field of a POST /sessions body.
func sessionOf(r *http.Request, body []byte) (string, bool) {
	rest, ok := strings.CutPrefix(r.URL.Path, "/sessions/")
	if ok {
		if i := strings.IndexByte(rest, '/'); i > 0 {
			return rest[:i], true
		}
		return rest, rest != ""
	}
	if r.URL.Path == "/sessions" && r.Method == http.MethodPost {
		var req struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(body, &req); err == nil && req.Name != "" {
			return req.Name, true
		}
	}
	return "", false
}

// handleProxy forwards one request to its session's shard.
func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeErr(w, http.StatusRequestEntityTooLarge, "reading request body: %v", err)
		return
	}
	session, ok := sessionOf(r, body)
	if !ok {
		writeErr(w, http.StatusNotFound, "unroutable path %s (no session in request)", r.URL.Path)
		return
	}
	sh := rt.shardFor(session)
	if r.Method == http.MethodGet {
		rt.proxyRead(w, r, sh)
		return
	}
	rt.proxyWrite(w, r, sh, body)
}

// proxyRead forwards an idempotent read, retrying across the shard's
// nodes with jittered backoff up to ReadRetries extra attempts.
func (rt *Router) proxyRead(w http.ResponseWriter, r *http.Request, sh *shardState) {
	backoff := 25 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt <= rt.cfg.ReadRetries; attempt++ {
		if attempt > 0 {
			rt.count(metricRetriedReads, sh)
			select {
			case <-r.Context().Done():
				writeErr(w, http.StatusServiceUnavailable, "request cancelled: %v", r.Context().Err())
				return
			case <-time.After(jitter(backoff)):
			}
			backoff *= 2
		}
		for _, target := range rt.readOrder(sh) {
			resp, err := rt.forward(r, target, nil)
			if err != nil {
				lastErr = err
				continue
			}
			relay(w, resp)
			return
		}
	}
	w.Header().Set("Retry-After", "1")
	writeErr(w, http.StatusServiceUnavailable, "shard unreachable for reads: %v", lastErr)
}

// proxyWrite forwards a mutating request to the shard's leader, exactly
// once: the router never blindly retries a write (it cannot know whether
// the dying node applied it), it reports the failure and lets the client
// decide. While the leader is down and the standby not yet promoted, the
// answer is an honest 503 + Retry-After.
func (rt *Router) proxyWrite(w http.ResponseWriter, r *http.Request, sh *shardState, body []byte) {
	sh.mu.Lock()
	leader := sh.nodes[sh.leader]
	target, healthy := leader.url, leader.healthy
	sh.mu.Unlock()
	if !healthy {
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, "shard leader %s is down (failover pending)", target)
		return
	}
	resp, err := rt.forward(r, target, body)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusBadGateway, "forwarding write to %s: %v", target, err)
		return
	}
	rt.count(metricForwardedWrites, sh)
	relay(w, resp)
}

// forward re-issues r against target with the captured body and the
// router's per-request deadline.
func (rt *Router) forward(r *http.Request, target string, body []byte) (*http.Response, error) {
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	url := target + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, url, rd)
	if err != nil {
		cancel()
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

// cancelBody ties a response body to its request context.
type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// relay copies a backend response to the client verbatim. The body goes
// through the response's buffered writer, whose ReadFrom the wrapper
// hides: given a body with a Content-Length, as every backend JSON reply
// has, ReadFrom would flush the head early and pass the rest to the
// socket's generic ReadFrom, which allocates a 32 KB buffer per reply.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.CopyBuffer(struct{ io.Writer }{w}, resp.Body, make([]byte, 4<<10)) //nolint:errcheck // the client is gone if this fails
}

func jitter(d time.Duration) time.Duration {
	return d/2 + time.Duration(rand.Int63n(int64(d/2))) //nolint:gosec // backoff spread, not crypto
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
