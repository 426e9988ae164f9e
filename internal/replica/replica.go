// Package replica is wfit-serve's WAL-shipping replication layer: a
// primary-side Shipper that streams committed WAL records (and, when the
// incremental stream cannot continue, whole snapshots) to a warm standby
// over HTTP, and a follower-side handler that applies the stream through
// the session's one apply path — the one live ingest and crash recovery
// use. The handler acks a batch once it is durable in the follower's WAL
// and applies it after the reply, before it releases the session lock,
// so no read, promotion or later batch on the standby sees the batch
// unapplied.
//
// The wire unit is the WAL's own frame format (state.EncodeRecords), so
// the standby's log is byte-identical to the stretch of the primary's it
// mirrors — the same property recovery relies on locally, extended over
// the network. Records carry the primary's sequence numbers; the follower
// drops already-applied duplicates and rejects gaps, which makes re-ships
// after lost acks idempotent and turns every divergence into a loud 409
// instead of silent drift.
//
// Commit returns only after the standby made the group durable in its
// WAL, so an acked client write is durable on both nodes. The primary
// runs Commit beside its own apply of the group and joins it before
// replying, so neither node's apply sits on the round trip. A ship
// failure does NOT fail the local write: the write is acked from local
// durability, ShipperStats.Errors counts the failure, and the records
// stay pending for the next Commit (semi-sync).
//
// The shipper keeps every record past the session's last checkpoint, so
// shipper memory is bounded by one checkpoint interval. A standby that
// cannot continue the stream is resumed from its own cursor when that is
// at or past the checkpoint (a standby restarted on an older copy of its
// data dir), and bootstrapped from the checkpoint's snapshot otherwise
// (a late joiner, or a standby restarted on an empty data dir).
package replica

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/state"
)

// Metric names the shipper registers when Config.Metrics is set.
const (
	metricShipLatency   = "wfit_replication_ship_seconds"
	metricShipErrors    = "wfit_replication_ship_errors_total"
	metricSnapshotShips = "wfit_replication_snapshot_ships_total"
)

// shipChunk bounds how many records one POST carries.
const shipChunk = 512

// ErrFenced is returned by Commit after the standby reported itself
// promoted: this node is a zombie primary and must not keep shipping.
var ErrFenced = errors.New("replica: standby promoted; shipper fenced")

// errClosed is returned by Commit after Close.
var errClosed = errors.New("replica: shipper closed")

// Config configures a Shipper for one session.
type Config struct {
	// Session is the session name (the replication URL path component).
	Session string
	// Dir is the session directory; the shipper reads Dir/state.snap for
	// snapshot bootstraps.
	Dir string
	// Standby is the standby's base URL (scheme://host:port).
	Standby string
	// Sync is ignored: every Commit ships before it returns.
	//
	// Deprecated: e2ebench is its last setter.
	Sync bool
	// Client overrides the HTTP client (tests wrap the transport with
	// fault injection). Nil gets a 10s-timeout default.
	Client *http.Client
	// Base is the sequence number the session's on-disk snapshot covers
	// at attach time, and Backlog the replayed WAL tail past it. The
	// shipper keeps both until the next checkpoint, so a restarted
	// primary resumes the stream from the standby's cursor and ships the
	// snapshot only to a standby behind Base.
	Base uint64
	// Backlog — see Base.
	Backlog []state.Record
	// Metrics, when set, records ship round-trip latency, ship errors,
	// and snapshot bootstraps, labeled by session. Nil keeps the shipper
	// uninstrumented.
	Metrics *obs.Registry
}

// Shipper implements server.Shipper over HTTP. One Shipper serves one
// session; the server attaches one per session via the factory hook.
type Shipper struct {
	cfg    Config
	client *http.Client

	// Resolved instruments; all nil when Config.Metrics is nil.
	hShip *obs.Histogram
	cErrs *obs.Counter
	cSnap *obs.Counter

	mu        sync.Mutex
	base      uint64         // the seq the session's on-disk snapshot covers
	recs      []state.Record // every committed record past base, in seq order
	acked     uint64         // the standby's cursor: it holds every record up to here
	errors    int64
	snapshots int64
	fenced    bool
	closed    bool
}

// NewShipper builds a shipper. It ships nothing until the first Commit.
func NewShipper(cfg Config) *Shipper {
	s := &Shipper{cfg: cfg, client: cfg.Client, base: cfg.Base}
	if s.client == nil {
		s.client = &http.Client{Timeout: 10 * time.Second}
	}
	if reg := cfg.Metrics; reg != nil {
		reg.Help(metricShipLatency, "Replication ship round-trip latency (one WAL chunk or snapshot POST to the standby).")
		reg.Help(metricShipErrors, "Replication ship attempts that failed (network error, bad reply, or fencing).")
		reg.Help(metricSnapshotShips, "Snapshot bootstraps shipped to the standby.")
		lbl := obs.Labels{"session", cfg.Session}
		s.hShip = reg.Histogram(metricShipLatency, lbl, obs.LatencyBuckets)
		s.cErrs = reg.Counter(metricShipErrors, lbl)
		s.cSnap = reg.Counter(metricSnapshotShips, lbl)
	}
	s.recs = append(s.recs, cfg.Backlog...)
	return s
}

// Commit implements server.Shipper: it ships every record past the
// standby's cursor, recs included, and returns once the standby has made
// them durable. A standby that answers need_snapshot is resumed from its
// own cursor when every record past it is still held, and bootstrapped
// from the snapshot otherwise. Each happens at most once per call, so a
// standby that still cannot continue fails the call instead of wedging
// the session.
func (s *Shipper) Commit(recs []state.Record) error {
	s.mu.Lock()
	if s.closed || s.fenced {
		err := errClosed
		if s.fenced {
			err = ErrFenced
		}
		s.errors++
		s.mu.Unlock()
		return err
	}
	s.recs = append(s.recs, recs...)
	s.mu.Unlock()
	rewound, bootstrapped := false, false
	for {
		chunk := s.unconfirmed()
		if len(chunk) == 0 {
			return nil
		}
		rep, err := s.postWAL(chunk)
		switch {
		case err != nil:
			return s.fail(err)
		case rep.Promoted:
			return s.fence()
		case !rep.NeedSnapshot:
			if !s.confirm(rep.LastSeq) {
				return s.fail(fmt.Errorf("replica: standby acked seq %d, short of shipped seq %d", rep.LastSeq, chunk[len(chunk)-1].Seq))
			}
		case !rewound && s.rewind(rep.LastSeq):
			rewound = true
		case bootstrapped:
			return s.fail(fmt.Errorf("replica: standby at seq %d cannot continue the stream", rep.LastSeq))
		default:
			bootstrapped = true
			if err := s.shipSnapshot(); err != nil {
				return err
			}
		}
	}
}

// Checkpointed implements server.Shipper: the snapshot now on disk covers
// every record up to base, so those records are dropped (a standby
// behind base is bootstrapped from the snapshot instead), bounding memory
// by one checkpoint interval.
func (s *Shipper) Checkpointed(base uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.base = base
	s.recs = s.recs[s.after(base):]
}

// Stats implements server.Shipper.
func (s *Shipper) Stats() server.ShipperStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return server.ShipperStats{
		AckedSeq:      s.acked,
		Pending:       len(s.recs) - s.after(s.acked),
		Errors:        s.errors,
		SnapshotShips: s.snapshots,
	}
}

// Close implements server.Shipper: later Commits fail. Nothing is
// flushed, because Close is also the crash path; a session's final
// checkpoint has already covered the records, and the standby resumes
// or re-bootstraps when the node returns.
func (s *Shipper) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return nil
}

// after returns the index of the first held record past seq.
func (s *Shipper) after(seq uint64) int {
	return sort.Search(len(s.recs), func(i int) bool { return s.recs[i].Seq > seq })
}

// unconfirmed returns the next chunk of records past the standby's
// cursor. The round trip runs without the mutex and without a copy:
// Commit and Checkpointed never overlap, so nothing changes the held
// records while the chunk is in flight.
func (s *Shipper) unconfirmed() []state.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	rest := s.recs[s.after(s.acked):]
	return rest[:min(len(rest), shipChunk)]
}

// confirm moves the cursor to last, the standby's reply to a chunk it
// made durable, and reports whether the cursor advanced.
func (s *Shipper) confirm(last uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if last <= s.acked {
		return false
	}
	s.acked = last
	return true
}

// rewind moves the cursor back to have, the cursor of a standby that
// lost records it had confirmed, when every record past have is still
// held. It reports whether the cursor moved.
func (s *Shipper) rewind(have uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if have < s.base || have >= s.acked {
		return false
	}
	s.acked = have
	return true
}

// fail counts a failed ship and returns its error.
func (s *Shipper) fail(err error) error {
	s.mu.Lock()
	s.errors++
	s.mu.Unlock()
	if s.cErrs != nil {
		s.cErrs.Inc()
	}
	return err
}

// fence marks the shipper permanently fenced: the standby reported itself
// promoted, so this node's timeline is dead. Loud by design — the event
// is the operator's cue that a zombie primary tried to keep shipping.
func (s *Shipper) fence() error {
	s.mu.Lock()
	alreadyFenced := s.fenced
	s.fenced = true
	s.mu.Unlock()
	if !alreadyFenced {
		obs.Event("replica", "fenced", "session", s.cfg.Session, "standby", s.cfg.Standby)
	}
	return s.fail(ErrFenced)
}

// walReply is the follower's response to both ship endpoints.
type walReply struct {
	LastSeq      uint64 `json:"last_seq"`
	NeedSnapshot bool   `json:"need_snapshot,omitempty"`
	Promoted     bool   `json:"promoted,omitempty"`
	Error        string `json:"error,omitempty"`
}

// postWAL ships one chunk of records.
func (s *Shipper) postWAL(recs []state.Record) (*walReply, error) {
	url := fmt.Sprintf("%s/replication/sessions/%s/wal", s.cfg.Standby, s.cfg.Session)
	return s.post(url, state.EncodeRecords(recs))
}

// shipSnapshot bootstraps the standby from the session's on-disk
// snapshot and moves the cursor to the sequence number the standby
// confirmed; the records past it ship next. A failure is counted.
func (s *Shipper) shipSnapshot() error {
	data, err := os.ReadFile(filepath.Join(s.cfg.Dir, server.SnapshotFile))
	if err != nil {
		return s.fail(fmt.Errorf("replica: reading snapshot for bootstrap: %w", err))
	}
	url := fmt.Sprintf("%s/replication/sessions/%s/snapshot", s.cfg.Standby, s.cfg.Session)
	rep, err := s.post(url, data)
	if err != nil {
		return s.fail(err)
	}
	if rep.Promoted {
		return s.fence()
	}
	s.mu.Lock()
	s.acked = rep.LastSeq
	s.snapshots++
	s.mu.Unlock()
	if s.cSnap != nil {
		s.cSnap.Inc()
	}
	return nil
}

// post performs one ship round trip and decodes the follower's reply.
// A 409 is decoded, not failed: it carries the resync instruction
// (need_snapshot) or the fencing verdict (promoted).
func (s *Shipper) post(url string, body []byte) (*walReply, error) {
	var start time.Time
	if s.hShip != nil {
		start = time.Now()
	}
	resp, err := s.client.Post(url, "application/octet-stream", bytes.NewReader(body))
	if s.hShip != nil {
		// Failed round trips are observed too: a standby timing out is
		// exactly the tail the latency histogram must show.
		s.hShip.Observe(time.Since(start).Seconds())
	}
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var rep walReply
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&rep); err != nil {
		return nil, fmt.Errorf("replica: decoding standby reply (HTTP %d): %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
		return nil, fmt.Errorf("replica: standby returned HTTP %d: %s", resp.StatusCode, rep.Error)
	}
	return &rep, nil
}
