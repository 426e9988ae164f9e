package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/state"
)

// maxBodyBytes bounds request bodies (a batch of SQL text fits easily).
const maxBodyBytes = 8 << 20

// indexJSON is the wire form of an index definition.
type indexJSON struct {
	Table      string   `json:"table"`
	Columns    []string `json:"columns"`
	CreateCost float64  `json:"create_cost,omitempty"`
}

// defsJSON encodes definitions a session resolved under its lock. The
// replies never resolve IDs themselves: once the session lock is
// released, a compacting checkpoint may renumber them.
func defsJSON(defs []*index.Index) []indexJSON {
	out := make([]indexJSON, 0, len(defs))
	for _, def := range defs {
		out = append(out, indexJSON{Table: def.Table, Columns: def.Columns, CreateCost: def.CreateCost})
	}
	return out
}

func specsOf(in []indexJSON) []state.IndexSpec {
	out := make([]state.IndexSpec, 0, len(in))
	for _, ix := range in {
		out = append(out, state.IndexSpec{Table: ix.Table, Columns: ix.Columns})
	}
	return out
}

type errorJSON struct {
	Error string `json:"error"`
}

// WriteJSON sends v as one compact, newline-terminated JSON document with
// its Content-Length, in a single write, so the reply is not chunked: a
// client reads it whole even while the handler keeps running, as the
// replication handler does after its early ack. A value that does not
// encode is a 500 with the error.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = json.Marshal(errorJSON{Error: err.Error()})
	}
	body = append(body, '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body) //nolint:errcheck // the client is gone if this fails
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, errorJSON{Error: fmt.Sprintf(format, args...)})
}

// decodeBody strictly decodes a JSON request body into v.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	return true
}

// Handler returns the HTTP API:
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
//	GET    /healthz                       liveness probe (+ lag_records on standbys)
func (sv *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sessions", sv.gateWrites(sv.handleCreateSession))
	mux.HandleFunc("GET /sessions", sv.handleListSessions)
	mux.HandleFunc("POST /sessions/{id}/sql", sv.gateWrites(sv.withSession(sv.handleSQL)))
	mux.HandleFunc("GET /sessions/{id}/recommendation", sv.withSession(sv.handleRecommendation))
	mux.HandleFunc("POST /sessions/{id}/votes", sv.gateWrites(sv.withSession(sv.handleVotes)))
	mux.HandleFunc("POST /sessions/{id}/accept", sv.gateWrites(sv.withSession(sv.handleAccept)))
	mux.HandleFunc("GET /sessions/{id}/status", sv.withSession(sv.handleStatus))
	mux.HandleFunc("POST /sessions/{id}/checkpoint", sv.gateWrites(sv.withSession(sv.handleCheckpoint)))
	mux.HandleFunc("GET /sessions/{id}/trace", sv.withSession(sv.handleTrace))
	mux.HandleFunc("GET /metrics", sv.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		resp := map[string]any{"status": "ok", "role": sv.Role()}
		if sv.Follower() {
			// The router's health loop reads this to tell a caught-up
			// standby from a stale one before promoting it.
			resp["lag_records"] = sv.MaxReplicationLag()
		}
		WriteJSON(w, http.StatusOK, resp)
	})
	return mux
}

// handleMetrics serves the Prometheus text exposition. 404 when the
// serving process wired no registry (library embedders; the daemon
// always wires one).
func (sv *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if sv.cfg.Metrics == nil {
		writeErr(w, http.StatusNotFound, "metrics are not enabled on this server")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	sv.cfg.Metrics.WritePrometheus(w) //nolint:errcheck // the scraper is gone if this fails
}

// traceResponse is the payload of GET /sessions/{id}/trace: the most
// recent statement traces (newest first) and the slowest retained ones
// (slowest first), each with per-stage timings and what-if call counts.
type traceResponse struct {
	Enabled bool                 `json:"enabled"`
	Recent  []obs.StatementTrace `json:"recent"`
	Slowest []obs.StatementTrace `json:"slowest"`
}

func (sv *Server) handleTrace(w http.ResponseWriter, r *http.Request, sess *Session) {
	n := 0
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeErr(w, http.StatusBadRequest, "invalid n %q", q)
			return
		}
		n = v
	}
	recent, slowest, enabled := sess.TraceSnapshot(n)
	if recent == nil {
		recent = []obs.StatementTrace{}
	}
	if slowest == nil {
		slowest = []obs.StatementTrace{}
	}
	WriteJSON(w, http.StatusOK, traceResponse{Enabled: enabled, Recent: recent, Slowest: slowest})
}

// gateWrites rejects mutating requests while the server is a standby:
// 503 with Retry-After, so clients (and the router) back off and retry
// against whichever node is primary — reads stay open on followers, and
// nothing is ever dropped silently.
func (sv *Server) gateWrites(fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if sv.Follower() {
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusServiceUnavailable, "standby: not accepting writes (send writes to the primary, or promote this node)")
			return
		}
		fn(w, r)
	}
}

func (sv *Server) withSession(fn func(http.ResponseWriter, *http.Request, *Session)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("id")
		sess, ok := sv.Session(name)
		if !ok {
			writeErr(w, http.StatusNotFound, "unknown session %q", name)
			return
		}
		fn(w, r, sess)
	}
}

type createSessionRequest struct {
	Name            string `json:"name"`
	Tuner           string `json:"tuner,omitempty"`
	IdxCnt          int    `json:"idx_cnt,omitempty"`
	StateCnt        int    `json:"state_cnt,omitempty"`
	HistSize        int    `json:"hist_size,omitempty"`
	Seed            int64  `json:"seed,omitempty"`
	RetireAfter     int    `json:"retire_after,omitempty"`
	QueueDepth      int    `json:"queue_depth,omitempty"`
	CheckpointEvery int    `json:"checkpoint_every,omitempty"`
	CheckpointBytes int64  `json:"checkpoint_bytes,omitempty"`
}

func (sv *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req createSessionRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Name == "" {
		writeErr(w, http.StatusBadRequest, "session name is required")
		return
	}
	if !nameRE.MatchString(req.Name) {
		writeErr(w, http.StatusBadRequest, "invalid session name %q (want [A-Za-z0-9][A-Za-z0-9_-]{0,63})", req.Name)
		return
	}
	cfg := SessionConfig{
		Name:  req.Name,
		Tuner: req.Tuner,
		Options: core.Options{
			IdxCnt:      req.IdxCnt,
			StateCnt:    req.StateCnt,
			HistSize:    req.HistSize,
			Seed:        req.Seed,
			RetireAfter: req.RetireAfter,
		},
		QueueDepth:      req.QueueDepth,
		CheckpointEvery: req.CheckpointEvery,
		CheckpointBytes: req.CheckpointBytes,
	}
	sess, err := sv.CreateSession(cfg)
	if err != nil {
		var ce *ConfigError
		code := http.StatusInternalServerError
		switch {
		case errors.As(err, &ce):
			code = http.StatusBadRequest
		default:
			if _, exists := sv.Session(req.Name); exists {
				code = http.StatusConflict
			}
		}
		writeErr(w, code, "%v", err)
		return
	}
	WriteJSON(w, http.StatusCreated, sess.Status())
}

func (sv *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	sessions := sv.Sessions()
	statuses := make([]SessionStatus, 0, len(sessions))
	for _, s := range sessions {
		statuses = append(statuses, s.Status())
	}
	WriteJSON(w, http.StatusOK, map[string]any{"sessions": statuses})
}

type sqlRequest struct {
	SQL []string `json:"sql"`
}

type sqlResponse struct {
	Results        []StatementResult `json:"results"`
	Recommendation []indexJSON       `json:"recommendation"`
}

func (sv *Server) handleSQL(w http.ResponseWriter, r *http.Request, sess *Session) {
	var req sqlRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.SQL) == 0 {
		writeErr(w, http.StatusBadRequest, "sql batch is empty")
		return
	}
	rep, err := sess.ingest(r.Context(), req.SQL)
	if err != nil {
		writeApplyErr(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, sqlResponse{
		Results:        rep.results,
		Recommendation: defsJSON(rep.recDefs),
	})
}

// writeApplyErr maps a session write's failure: a malformed statement or
// vote (ParseError) is the client's, and a closed session (shutdown race)
// and a cancelled request are unavailability, not server bugs.
func writeApplyErr(w http.ResponseWriter, err error) {
	var pe *ParseError
	switch {
	case errors.As(err, &pe):
		writeErr(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, ErrSessionClosed) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeErr(w, http.StatusInternalServerError, "%v", err)
	}
}

func (sv *Server) handleRecommendation(w http.ResponseWriter, r *http.Request, sess *Session) {
	rec, create, drop := sess.recommendationDefs()
	WriteJSON(w, http.StatusOK, map[string]any{
		"recommendation": defsJSON(rec),
		"would_create":   defsJSON(create),
		"would_drop":     defsJSON(drop),
	})
}

type votesRequest struct {
	Plus  []indexJSON `json:"plus,omitempty"`
	Minus []indexJSON `json:"minus,omitempty"`
}

func (sv *Server) handleVotes(w http.ResponseWriter, r *http.Request, sess *Session) {
	var req votesRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Plus) == 0 && len(req.Minus) == 0 {
		writeErr(w, http.StatusBadRequest, "vote with no plus or minus indices")
		return
	}
	rep, err := sess.vote(r.Context(), specsOf(req.Plus), specsOf(req.Minus))
	if err != nil {
		writeApplyErr(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"recommendation": defsJSON(rep.recDefs),
	})
}

func (sv *Server) handleAccept(w http.ResponseWriter, r *http.Request, sess *Session) {
	rep, err := sess.accept(r.Context())
	if err != nil {
		writeApplyErr(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"materialized":    defsJSON(rep.acceptDefs.materialized),
		"created":         defsJSON(rep.acceptDefs.created),
		"dropped":         defsJSON(rep.acceptDefs.dropped),
		"transition_cost": rep.accept.TransitionCost,
	})
}

func (sv *Server) handleStatus(w http.ResponseWriter, r *http.Request, sess *Session) {
	WriteJSON(w, http.StatusOK, sess.Status())
}

func (sv *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request, sess *Session) {
	seq, err := sess.Checkpoint()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"wal_seq": seq})
}
