package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// hdrSpan carries the parent span's ID across an HTTP hop of the traced
// run. The daemons never see it.
const hdrSpan = "X-Bench-Span"

// span is one timed interval at a layer boundary. Spans of one request
// share their root: a child names the span that caused it.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent,omitempty"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Session  string `json:"session,omitempty"`
	// Pos and Stmts locate the statements a span worked on: statements
	// Pos+1 .. Pos+Stmts of the session (0 Stmts: not statement work).
	Pos   int `json:"pos,omitempty"`
	Stmts int `json:"stmts,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps every span of a run in memory until the run ends.
type tracer struct {
	workload string
	epoch    time.Time
	next     atomic.Int64
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

func (t *tracer) newID() int64          { return t.next.Add(1) }
func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// add records a finished span.
func (t *tracer) add(s span) {
	s.Workload = t.workload
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn inside a span named name.
func (t *tracer) timed(name string, parent int64, session string, pos, stmts int, fn func()) {
	s := span{ID: t.newID(), Parent: parent, Name: name, Session: session, Pos: pos, Stmts: stmts}
	start := time.Now()
	fn()
	s.StartNS, s.EndNS = t.ns(start), t.ns(time.Now())
	t.add(s)
}

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// bufferBytes is the memory the recorded spans take.
func (t *tracer) bufferBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int64(cap(t.spans)) * int64(unsafe.Sizeof(span{}))
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanMeta travels in a request's context from a middleware to the
// transport of any request the handler makes on its behalf.
type spanMeta struct {
	id         int64
	pos, stmts string
}

type spanKey struct{}

// route names a request by what it does, for span names.
func route(r *http.Request) (name, session string) {
	p := r.URL.Path
	if rest, ok := strings.CutPrefix(p, "/replication/sessions/"); ok {
		sess, op, _ := strings.Cut(rest, "/")
		return "replication_" + op, sess
	}
	if rest, ok := strings.CutPrefix(p, "/sessions/"); ok {
		sess, op, _ := strings.Cut(rest, "/")
		return op, sess
	}
	return strings.Trim(strings.ReplaceAll(p, "/", "_"), "_"), ""
}

// middleware wraps a handler in spans named layer.<route>. The parent is
// the span named by the X-Bench-Span header, if the caller sent one.
func (t *tracer) middleware(layer string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, sess := route(r)
		s := span{ID: t.newID(), Name: layer + "." + op, Session: sess}
		s.Parent, _ = strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		meta := spanMeta{id: s.ID, pos: r.Header.Get(hdrPos), stmts: r.Header.Get(hdrStmts)}
		s.Pos, _ = strconv.Atoi(meta.pos)
		s.Stmts, _ = strconv.Atoi(meta.stmts)
		r = r.WithContext(context.WithValue(r.Context(), spanKey{}, meta))
		start := time.Now()
		next.ServeHTTP(w, r)
		s.StartNS, s.EndNS = t.ns(start), t.ns(time.Now())
		t.add(s)
	})
}

// spanTransport carries the calling span to the next hop. A request whose
// context holds a middleware's span (the router's forwards) becomes its
// child and keeps its statement range; otherwise parent() names the
// parent (the shipper, whose requests carry no context).
type spanTransport struct {
	base   http.RoundTripper
	parent func() int64
}

func (st *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	req = req.Clone(req.Context())
	parent := int64(0)
	if meta, ok := req.Context().Value(spanKey{}).(spanMeta); ok {
		parent = meta.id
		if meta.stmts != "" {
			req.Header.Set(hdrStmts, meta.stmts)
			req.Header.Set(hdrPos, meta.pos)
		}
	} else if st.parent != nil {
		parent = st.parent()
	}
	req.Header.Set(hdrSpan, strconv.FormatInt(parent, 10))
	return st.base.RoundTrip(req)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once,
// and a child running past its parent counts only inside it).
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered := int64(0)
		curStart, curEnd := int64(-1), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.StartNS, s.StartNS), min(k.EndNS, s.EndNS)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				covered += curEnd - curStart
				curStart, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		covered += curEnd - curStart
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}
