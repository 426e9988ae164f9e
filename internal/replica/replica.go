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
// Two ship modes:
//
//   - sync: Commit returns only after the standby made the group durable
//     in its WAL — an acked client write is durable on both nodes. The
//     primary runs Commit beside its own apply of the group and joins it
//     before replying, so neither node's apply sits on the round trip. A
//     ship failure does NOT fail the local write: the service degrades to
//     async semantics and surfaces the condition through
//     ShipperStats.Errors (semi-sync).
//   - async: Commit buffers and returns; a background loop ships with
//     jittered backoff. The loss window on primary death is the unshipped
//     pending buffer.
//
// In both modes the pending buffer is trimmed at every checkpoint: a
// snapshot covering seq ≤ base supersedes buffered records ≤ base (a
// lagging standby re-bootstraps from the snapshot), so shipper memory is
// bounded by one checkpoint interval.
package replica

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
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

const (
	// shipChunk bounds how many records one POST carries.
	shipChunk = 512
	// retryMin/retryMax bound the async loop's jittered backoff.
	retryMin = 50 * time.Millisecond
	retryMax = 1 * time.Second
)

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
	// Sync selects ship-before-ack mode (see the package comment).
	Sync bool
	// Client overrides the HTTP client (tests wrap the transport with
	// fault injection). Nil gets a 10s-timeout default.
	Client *http.Client
	// Base is the sequence number the session's snapshot covers at
	// attach time; Backlog is the replayed WAL tail past it. Seeding the
	// two lets a restarted primary resume the stream without forcing a
	// snapshot re-ship.
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
	pending   []state.Record // committed, not yet standby-confirmed
	acked     uint64         // highest seq the standby confirmed
	errors    int64
	snapshots int64
	fenced    bool
	closed    bool

	notify chan struct{} // async mode: kick the ship loop
	done   chan struct{}
	loopWG sync.WaitGroup
}

// NewShipper builds (and, in async mode, starts) a shipper.
func NewShipper(cfg Config) *Shipper {
	s := &Shipper{
		cfg:    cfg,
		client: cfg.Client,
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
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
	s.pending = append(s.pending, cfg.Backlog...)
	if !cfg.Sync {
		s.loopWG.Add(1)
		go s.loop()
		if len(s.pending) > 0 {
			s.kick()
		}
	}
	return s
}

// Commit implements server.Shipper. Sync mode ships everything pending
// before returning; async mode buffers and kicks the loop.
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
	s.pending = append(s.pending, recs...)
	s.mu.Unlock()
	if !s.cfg.Sync {
		s.kick()
		return nil
	}
	for {
		progressed, empty, err := s.shipOnce()
		if err != nil {
			return err
		}
		if empty {
			return nil
		}
		if !progressed {
			// Defensive: shipOnce either progresses, empties, or errors.
			return fmt.Errorf("replica: ship made no progress")
		}
	}
}

// Checkpointed implements server.Shipper: records the snapshot now on
// disk covers are dropped from the retry buffer (snapshot bootstrap
// supersedes them), bounding memory by one checkpoint interval.
func (s *Shipper) Checkpointed(base uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := 0
	for i < len(s.pending) && s.pending[i].Seq <= base {
		i++
	}
	s.pending = s.pending[i:]
}

// Stats implements server.Shipper.
func (s *Shipper) Stats() server.ShipperStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return server.ShipperStats{
		Sync:          s.cfg.Sync,
		AckedSeq:      s.acked,
		Pending:       len(s.pending),
		Errors:        s.errors,
		SnapshotShips: s.snapshots,
	}
}

// Close implements server.Shipper: stop shipping. Pending records are NOT
// flushed — Close is also the crash path, and the unshipped buffer is
// exactly the async mode's documented loss window. (On a graceful session
// close the final checkpoint has already trimmed the buffer; the standby
// re-bootstraps from the snapshot when the node returns.)
func (s *Shipper) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	if !s.cfg.Sync {
		close(s.done)
		s.loopWG.Wait()
	}
	return nil
}

// kick nudges the async loop without blocking.
func (s *Shipper) kick() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// loop is the async ship loop: drain pending, retry failures with
// jittered exponential backoff, stop on Close.
func (s *Shipper) loop() {
	defer s.loopWG.Done()
	backoff := retryMin
	for {
		select {
		case <-s.done:
			return
		case <-s.notify:
		}
		for {
			progressed, empty, err := s.shipOnce()
			if empty {
				backoff = retryMin
				break
			}
			if err == nil && progressed {
				backoff = retryMin
				continue
			}
			if errors.Is(err, ErrFenced) {
				return // nothing left to do; Commit now fails fast
			}
			t := time.NewTimer(jitter(backoff))
			select {
			case <-s.done:
				t.Stop()
				return
			case <-t.C:
			}
			if backoff *= 2; backoff > retryMax {
				backoff = retryMax
			}
		}
	}
}

// jitter spreads a backoff over [d/2, d) so a fleet of shippers does not
// hammer a recovering standby in lockstep.
func jitter(d time.Duration) time.Duration {
	return d/2 + time.Duration(rand.Int63n(int64(d/2))) //nolint:gosec // backoff spread, not crypto
}

// shipOnce ships at most one chunk (or one snapshot bootstrap). It
// reports whether the standby's cursor advanced, whether the pending
// buffer is now empty, and the error of a failed attempt. The HTTP round
// trip runs without the mutex: the single-writer apply loop is the only
// committer, so pending can only grow underneath it.
func (s *Shipper) shipOnce() (progressed, empty bool, err error) {
	s.mu.Lock()
	if s.fenced {
		s.mu.Unlock()
		return false, false, ErrFenced
	}
	if len(s.pending) == 0 {
		s.mu.Unlock()
		return false, true, nil
	}
	n := len(s.pending)
	if n > shipChunk {
		n = shipChunk
	}
	chunk := make([]state.Record, n)
	copy(chunk, s.pending[:n])
	s.mu.Unlock()

	rep, err := s.postWAL(chunk)
	switch {
	case err != nil:
		s.fail()
		return false, false, err
	case rep.Promoted:
		s.fence()
		return false, false, ErrFenced
	case rep.NeedSnapshot:
		last, serr := s.shipSnapshot()
		if serr != nil {
			s.fail()
			return false, false, serr
		}
		return true, s.confirm(last), nil
	default:
		return true, s.confirm(rep.LastSeq), nil
	}
}

// confirm advances the standby cursor and trims confirmed records,
// reporting whether pending is now empty.
func (s *Shipper) confirm(acked uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if acked > s.acked {
		s.acked = acked
	}
	i := 0
	for i < len(s.pending) && s.pending[i].Seq <= s.acked {
		i++
	}
	s.pending = s.pending[i:]
	return len(s.pending) == 0
}

func (s *Shipper) fail() {
	s.mu.Lock()
	s.errors++
	s.mu.Unlock()
	if s.cErrs != nil {
		s.cErrs.Inc()
	}
}

// fence marks the shipper permanently fenced: the standby reported itself
// promoted, so this node's timeline is dead. Loud by design — the event
// is the operator's cue that a zombie primary tried to keep shipping.
func (s *Shipper) fence() {
	s.mu.Lock()
	alreadyFenced := s.fenced
	s.fenced = true
	s.errors++
	s.mu.Unlock()
	if s.cErrs != nil {
		s.cErrs.Inc()
	}
	if !alreadyFenced {
		obs.Event("replica", "fenced", "session", s.cfg.Session, "standby", s.cfg.Standby)
	}
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
// snapshot, returning the sequence number the standby confirmed. Pending
// records past the snapshot stay pending and ship next.
func (s *Shipper) shipSnapshot() (uint64, error) {
	data, err := os.ReadFile(filepath.Join(s.cfg.Dir, server.SnapshotFile))
	if err != nil {
		return 0, fmt.Errorf("replica: reading snapshot for bootstrap: %w", err)
	}
	url := fmt.Sprintf("%s/replication/sessions/%s/snapshot", s.cfg.Standby, s.cfg.Session)
	rep, err := s.post(url, data)
	if err != nil {
		return 0, err
	}
	if rep.Promoted {
		s.fence()
		return 0, ErrFenced
	}
	s.mu.Lock()
	s.snapshots++
	s.mu.Unlock()
	if s.cSnap != nil {
		s.cSnap.Inc()
	}
	return rep.LastSeq, nil
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
