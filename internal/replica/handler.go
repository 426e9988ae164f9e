package replica

import (
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/state"
)

// maxShipBytes bounds a replication request body (a 512-record chunk of
// statements, or one snapshot).
const maxShipBytes = 256 << 20

// NewHandler returns the standby-side replication API, mounted next to
// the regular service handler:
//
//	POST /replication/sessions/{id}/wal       apply a chunk of shipped WAL records
//	POST /replication/sessions/{id}/snapshot  bootstrap the session from a snapshot
//	GET  /replication/status                  role + per-session replication cursors
//	POST /replication/promote                 become primary (stop following)
//
// The ship endpoints answer 409 in exactly two shapes the shipper acts
// on: {"need_snapshot":true,"last_seq":N} when the incremental stream
// cannot continue (unknown session or sequence gap), and
// {"promoted":true} once this node has been promoted — the fence that
// stops a zombie primary from overwriting the new timeline. The WAL
// endpoint acks a batch once it is durable in the follower's WAL and
// applies it after the reply (see server.Session.ApplyReplicated).
func NewHandler(sv *server.Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /replication/sessions/{id}/wal", handleWAL(sv))
	mux.HandleFunc("POST /replication/sessions/{id}/snapshot", handleSnapshot(sv))
	mux.HandleFunc("GET /replication/status", handleStatus(sv))
	mux.HandleFunc("POST /replication/promote", handlePromote(sv))
	return mux
}

// fenceIfPromoted answers the zombie-primary 409 when this node no
// longer follows, reporting whether the request was terminated.
func fenceIfPromoted(w http.ResponseWriter, r *http.Request, sv *server.Server) bool {
	if sv.Follower() {
		return false
	}
	fence(w, r)
	return true
}

// fence answers the zombie-primary 409.
func fence(w http.ResponseWriter, r *http.Request) {
	obs.Event("replica", "fence", "session", r.PathValue("id"), "path", r.URL.Path)
	server.WriteJSON(w, http.StatusConflict, walReply{Promoted: true, Error: "node is primary; replication stream rejected"})
}

func readShipBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	return io.ReadAll(http.MaxBytesReader(w, r.Body, maxShipBytes))
}

func handleWAL(sv *server.Server) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if fenceIfPromoted(w, r, sv) {
			return
		}
		body, err := readShipBody(w, r)
		if err != nil {
			server.WriteJSON(w, http.StatusBadRequest, walReply{Error: fmt.Sprintf("reading ship body: %v", err)})
			return
		}
		recs, err := state.DecodeRecords(body)
		if err != nil {
			// A torn or corrupt ship payload is rejected whole; the
			// primary re-ships the chunk intact.
			server.WriteJSON(w, http.StatusBadRequest, walReply{Error: err.Error()})
			return
		}
		name := r.PathValue("id")
		sess, ok := sv.Session(name)
		if !ok {
			// The session predates this standby (or the standby lost it):
			// ask for a snapshot bootstrap.
			server.WriteJSON(w, http.StatusConflict, walReply{NeedSnapshot: true, Error: fmt.Sprintf("unknown session %q", name)})
			return
		}
		// The ack goes out once the batch is durable here, before it
		// applies. An apply that fails after it poisons the session, and
		// the next ship is answered with the error.
		acked := false
		last, err := sess.ApplyReplicated(recs, func(seq uint64) {
			server.WriteJSON(w, http.StatusOK, walReply{LastSeq: seq})
			http.NewResponseController(w).Flush() //nolint:errcheck // the peer is gone if this fails
			acked = true
		})
		var gap *server.GapError
		switch {
		case acked:
			// Already answered.
		case errors.Is(err, server.ErrPromoted):
			fence(w, r)
		case errors.As(err, &gap):
			server.WriteJSON(w, http.StatusConflict, walReply{LastSeq: gap.Have, NeedSnapshot: true, Error: err.Error()})
		case err != nil:
			server.WriteJSON(w, http.StatusInternalServerError, walReply{LastSeq: last, Error: err.Error()})
		default:
			server.WriteJSON(w, http.StatusOK, walReply{LastSeq: last})
		}
	}
}

func handleSnapshot(sv *server.Server) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if fenceIfPromoted(w, r, sv) {
			return
		}
		body, err := readShipBody(w, r)
		if err != nil {
			server.WriteJSON(w, http.StatusBadRequest, walReply{Error: fmt.Sprintf("reading snapshot body: %v", err)})
			return
		}
		sess, err := sv.InstallSnapshot(body)
		if errors.Is(err, server.ErrPromoted) {
			fence(w, r)
			return
		}
		if err != nil {
			server.WriteJSON(w, http.StatusBadRequest, walReply{Error: err.Error()})
			return
		}
		if name := r.PathValue("id"); sess.Name() != name {
			// The snapshot named a different session than the URL: the
			// install stands (the bytes were valid), but the mismatch is a
			// shipper bug worth failing loudly.
			server.WriteJSON(w, http.StatusBadRequest, walReply{
				LastSeq: sess.LastSeq(),
				Error:   fmt.Sprintf("snapshot is for session %q, shipped as %q", sess.Name(), name),
			})
			return
		}
		server.WriteJSON(w, http.StatusOK, walReply{LastSeq: sess.LastSeq()})
	}
}

// sessionCursor is one session's replication position in the status
// reply.
type sessionCursor struct {
	Name       string `json:"name"`
	LastSeq    uint64 `json:"last_seq"`
	Statements int    `json:"statements"`
	LagRecords uint64 `json:"lag_records"`
}

func handleStatus(sv *server.Server) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sessions := sv.Sessions()
		cursors := make([]sessionCursor, 0, len(sessions))
		for _, s := range sessions {
			st := s.Status()
			cursors = append(cursors, sessionCursor{
				Name:       st.Name,
				LastSeq:    st.WALSeq,
				Statements: st.Statements,
				LagRecords: s.ReplicationLag(),
			})
		}
		server.WriteJSON(w, http.StatusOK, map[string]any{
			"role":     sv.Role(),
			"sessions": cursors,
		})
	}
}

func handlePromote(sv *server.Server) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sv.Promote()
		server.WriteJSON(w, http.StatusOK, map[string]string{"role": sv.Role()})
	}
}
