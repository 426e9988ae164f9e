package server

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/state"
)

// Config configures a Server.
type Config struct {
	// DataDir is the root of the persisted state; sessions live under
	// DataDir/sessions/<name>/.
	DataDir string
	// DefaultOptions seeds new sessions' tuner knobs (zero fields fall
	// back to core.DefaultOptions). Seed is deliberately NOT consulted: a
	// session's default seed derives from its name (see NameSeed), so
	// distinct sessions explore the randomized partition restarts
	// independently; a server-wide shared seed would correlate them all.
	// Sessions that want a specific seed pass it in their own config.
	DefaultOptions core.Options
	// DefaultTuner names the engine new sessions run when their config
	// leaves Tuner empty ("" falls through to the session default, wfit).
	// Recovered sessions ignore it: the engine kind persisted in their
	// snapshot always wins.
	DefaultTuner string
	// QueueDepth and CheckpointEvery default new sessions' service knobs
	// (zero: 256 and 500).
	QueueDepth      int
	CheckpointEvery int
	// CheckpointBytes defaults new sessions' WAL-growth checkpoint
	// trigger (0 disables).
	CheckpointBytes int64
	// Fsync, Batch and Pipeline are every session's runtime knobs,
	// created and recovered alike (see SessionRuntime): WAL fsync per
	// commit, the group-commit record bound, and the speculative-analysis
	// worker count (zero: off, 1, and 0). They are properties of the
	// serving process, not of the persisted state, and never change the
	// tuner trajectory.
	Fsync    bool
	Batch    int
	Pipeline int
	// NewShipper, when set, attaches a replication stream to every
	// session (created and recovered): the factory receives the session's
	// name and directory, the sequence number its snapshot covers, and
	// the replayed WAL tail past it, and returns the stream the session's
	// group commits feed. Nil disables replication.
	NewShipper func(name, dir string, base uint64, tail []state.Record) Shipper
	// Follower starts the server as a warm standby: client writes are
	// rejected with 503 + Retry-After, state arrives through the
	// replication handler, and reads serve the replicated state. Promote
	// flips the server to primary at runtime.
	Follower bool
	// WALHooks threads fault-injection hooks under every session's WAL
	// writer (tests only; nil in production).
	WALHooks *state.WALHooks
	// Metrics, when set, turns the server's observability on: every
	// session (created and recovered) registers stage-latency histograms
	// and a trace ring, per-session status gauges refresh on scrape, and
	// GET /metrics serves the registry in Prometheus text format. Nil
	// (the library default) keeps instrumentation entirely off; the
	// daemon always wires a registry.
	Metrics *obs.Registry
}

// nameRE restricts session names to path- and URL-safe tokens.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_-]{0,63}$`)

// Server manages N named tuning sessions over one shared catalog and
// persists them under a data directory. It is safe for concurrent use;
// per-session ordering is the session's single-writer loop.
type Server struct {
	cfg Config
	cat *catalog.Catalog

	// follower is the server's role; Promote flips it to primary at
	// runtime (atomically — health probes read it without the lock).
	follower atomic.Bool

	mu       sync.Mutex
	sessions map[string]*Session
	closed   bool
}

// New builds a server over the benchmark catalog and recovers every
// session already present in the data directory.
func New(cfg Config) (*Server, error) {
	cat, _ := datagen.Build()
	return NewWithCatalog(cfg, cat)
}

// NewWithCatalog is New with an explicit catalog (shared, read-only).
func NewWithCatalog(cfg Config, cat *catalog.Catalog) (*Server, error) {
	sv := &Server{cfg: cfg, cat: cat, sessions: make(map[string]*Session)}
	sv.follower.Store(cfg.Follower)
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("server: DataDir is required")
	}
	if cfg.Metrics != nil {
		// One collector refreshes every per-session gauge from Status()
		// at scrape time: /metrics and /status are projections of the
		// same struct, never separately maintained counters.
		cfg.Metrics.Help(metricFollowerLag, "Records the primary has offered a follower session beyond what it has applied (0 on primaries).")
		cfg.Metrics.OnScrape(func() {
			for _, s := range sv.Sessions() {
				st := s.Status()
				// The engine label namespaces the session gauges per tuner
				// kind: a wfit and a bandit session exporting the same
				// wfit_session_* series stay distinguishable to queries that
				// aggregate by engine.
				forEachStatusMetric(&st, func(metric string, v float64) {
					cfg.Metrics.Gauge(metric, obs.Labels{labelSession, st.Name, labelEngine, st.Tuner}).Set(v)
				})
				cfg.Metrics.Gauge(metricFollowerLag, obs.Labels{labelSession, st.Name}).Set(float64(s.ReplicationLag()))
			}
		})
	}
	if err := os.MkdirAll(sv.sessionsRoot(), 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(sv.sessionsRoot())
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(sv.sessionsRoot(), e.Name())
		if _, err := os.Stat(filepath.Join(dir, snapshotFile)); err != nil {
			continue // not a session directory
		}
		sess, err := OpenSession(dir, cat, sv.runtime(e.Name(), dir))
		if err != nil {
			sv.Close()
			return nil, fmt.Errorf("server: recovering session %s: %w", e.Name(), err)
		}
		sv.sessions[sess.Name()] = sess
	}
	return sv, nil
}

func (sv *Server) sessionsRoot() string {
	return filepath.Join(sv.cfg.DataDir, "sessions")
}

// runtime builds a session's process-level runtime wiring: the flag-borne
// knobs plus, when replication is configured, a shipper factory bound to
// the session's name and directory.
func (sv *Server) runtime(name, dir string) SessionRuntime {
	rt := SessionRuntime{
		Fsync:    sv.cfg.Fsync,
		Batch:    sv.cfg.Batch,
		Pipeline: sv.cfg.Pipeline,
		Hooks:    sv.cfg.WALHooks,
		Metrics:  sv.cfg.Metrics,
		follower: &sv.follower,
	}
	if sv.cfg.NewShipper != nil {
		rt.NewShipper = func(base uint64, tail []state.Record) Shipper {
			return sv.cfg.NewShipper(name, dir, base, tail)
		}
	}
	return rt
}

// Catalog exposes the shared catalog (read-only).
func (sv *Server) Catalog() *catalog.Catalog { return sv.cat }

// applyServerDefaults fills zero-valued session knobs from the server's
// configured defaults, leaving the rest for SessionConfig.applyDefaults —
// the session-level rules stay the single source of truth for what a
// still-zero knob ultimately becomes. Options.Seed is deliberately not
// filled here (see Config.DefaultOptions): a zero seed falls through to
// the per-name derivation, never to a shared server-wide value.
func (sv *Server) applyServerDefaults(cfg *SessionConfig) {
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = sv.cfg.QueueDepth
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = sv.cfg.CheckpointEvery
	}
	if cfg.CheckpointBytes == 0 {
		cfg.CheckpointBytes = sv.cfg.CheckpointBytes
	}
	if cfg.Tuner == "" {
		cfg.Tuner = sv.cfg.DefaultTuner
	}
	if cfg.Options.IdxCnt == 0 {
		cfg.Options.IdxCnt = sv.cfg.DefaultOptions.IdxCnt
	}
	if cfg.Options.StateCnt == 0 {
		cfg.Options.StateCnt = sv.cfg.DefaultOptions.StateCnt
	}
	if cfg.Options.HistSize == 0 {
		cfg.Options.HistSize = sv.cfg.DefaultOptions.HistSize
	}
	if cfg.Options.RetireAfter == 0 {
		cfg.Options.RetireAfter = sv.cfg.DefaultOptions.RetireAfter
	}
}

// CreateSession creates and registers a new named session.
func (sv *Server) CreateSession(cfg SessionConfig) (*Session, error) {
	if !nameRE.MatchString(cfg.Name) {
		return nil, fmt.Errorf("server: invalid session name %q", cfg.Name)
	}
	sv.applyServerDefaults(&cfg)

	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.closed {
		return nil, ErrSessionClosed
	}
	if _, ok := sv.sessions[cfg.Name]; ok {
		return nil, fmt.Errorf("server: session %q already exists", cfg.Name)
	}
	dir := filepath.Join(sv.sessionsRoot(), cfg.Name)
	sess, err := CreateSessionWith(dir, sv.cat, cfg, sv.runtime(cfg.Name, dir))
	if err != nil {
		return nil, err
	}
	sv.sessions[cfg.Name] = sess
	return sess, nil
}

// Session looks a session up by name.
func (sv *Server) Session(name string) (*Session, bool) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	s, ok := sv.sessions[name]
	return s, ok
}

// Sessions returns every session in name order.
func (sv *Server) Sessions() []*Session {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	names := make([]string, 0, len(sv.sessions))
	for name := range sv.sessions {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*Session, 0, len(names))
	for _, name := range names {
		out = append(out, sv.sessions[name])
	}
	return out
}

// Close gracefully shuts every session down, checkpointing each so a
// subsequent start recovers instantly (empty WALs). The first error is
// returned; all sessions are closed regardless.
func (sv *Server) Close() error {
	sv.mu.Lock()
	closed := sv.closed
	sv.closed = true
	sv.mu.Unlock()
	if closed {
		return nil
	}
	// Close in name order (Sessions' order; no session joins a closed
	// server) so shutdown checkpointing, and any error surfaced from it,
	// is deterministic rather than map-ordered.
	var first error
	for _, s := range sv.Sessions() {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
