// Package tuner defines the engine seam between the online tuning
// algorithms and everything that drives them. An Engine is the full
// session contract internal/server consumes — one sequential analysis
// per statement, recommendation and feedback, materialized-set
// tracking, registry compaction, status gauges, and versioned state
// export — and the same contract internal/bench drives in-process.
// Engines register themselves in a process-global registry keyed by
// kind, the string that names them in SessionConfig, the HTTP create
// API, daemon flags, and the kind tag of v3 snapshots.
//
// Every engine must be deterministic: a pure function of the statement
// and feedback stream, drawing randomness only from interaction.Rand
// (whose position its exported state carries). wfitlint enforces this
// for the whole package tree.
package tuner

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/state"
	"repro/internal/stmt"
	"repro/internal/whatif"
)

// Analysis was the handle of a speculative statement analysis. No engine
// issues one: Engine.BeginAnalysis returns nil.
//
// Deprecated: engines analyze through AnalyzeQuery alone. e2ebench's
// layer pass is the last caller.
type Analysis interface {
	Run()
	Discard()
}

// NoSpeculation supplies Engine's three deprecated speculation methods.
// Every engine embeds it.
//
// Deprecated: it goes with the methods once e2ebench's layer pass, their
// last caller, calls AnalyzeQuery alone.
type NoSpeculation struct{}

// BeginAnalysis returns nil, which tells the caller to call AnalyzeQuery.
//
// Deprecated: call AnalyzeQuery. e2ebench's layer pass is the last caller.
func (NoSpeculation) BeginAnalysis(*stmt.Statement, int) Analysis { return nil }

// AnalysisValid returns false.
//
// Deprecated: call AnalyzeQuery. e2ebench's layer pass is the last caller.
func (NoSpeculation) AnalysisValid(Analysis) bool { return false }

// ApplyAnalysis does nothing and returns false.
//
// Deprecated: call AnalyzeQuery. e2ebench's layer pass is the last caller.
func (NoSpeculation) ApplyAnalysis(Analysis) bool { return false }

// Core is the minimal tuning contract shared by every driver: the
// current recommendation, the DBA feedback channel (§5 F+/F− votes),
// and the externally-materialized set. bench.Algorithm embeds it, so
// the experiment harness and the server drive the same surface.
type Core interface {
	// Recommend returns the current recommended index set.
	Recommend() index.Set
	// Feedback applies DBA votes: plus = F+ (indexes the DBA wants
	// kept/created), minus = F− (indexes to bias against).
	Feedback(plus, minus index.Set)
	// SetMaterialized informs the engine of the externally-materialized
	// configuration its cost accounting should assume.
	SetMaterialized(m index.Set)
}

// Status is the engine-generic gauge set surfaced through /status and
// the wfit_session_* metrics. Engines without a notion for a gauge
// report zero.
type Status struct {
	// UniverseSize is the candidate universe size.
	UniverseSize int
	// Repartitions counts structural reorganizations of the engine's
	// internal decomposition (WFIT: stable-partition changes).
	Repartitions int
	// Parts and States describe the current decomposition (WFIT: stable
	// partition part count and Σ 2^|part|; bandit: selection size).
	Parts  int
	States int
	// BenefitWindows and PairWindows count live statistics windows.
	BenefitWindows int
	PairWindows    int
	// Retired counts candidates dropped by idle retirement.
	Retired int
}

// Engine is the full tuner contract a server session drives. Its
// methods are called from one goroutine at a time.
type Engine interface {
	Core

	// Kind returns the engine's registry key (e.g. "wfit", "bandit").
	Kind() string

	// AnalyzeQuery observes the next statement and updates all internal
	// state, on the calling goroutine from start to finish.
	AnalyzeQuery(s *stmt.Statement)

	// BeginAnalysis returns nil (see NoSpeculation).
	//
	// Deprecated: call AnalyzeQuery. e2ebench's layer pass is the last
	// caller.
	BeginAnalysis(s *stmt.Statement, workers int) Analysis
	// AnalysisValid returns false (see NoSpeculation).
	//
	// Deprecated: call AnalyzeQuery. e2ebench's layer pass is the last
	// caller.
	AnalysisValid(a Analysis) bool
	// ApplyAnalysis does nothing and returns false (see NoSpeculation).
	//
	// Deprecated: call AnalyzeQuery. e2ebench's layer pass is the last
	// caller.
	ApplyAnalysis(a Analysis) bool

	// Materialized returns the engine's view of the materialized set.
	Materialized() index.Set

	// CompactRegistry drops every registry entry the engine no longer
	// references and remaps surviving IDs densely, returning the number
	// of entries dropped.
	CompactRegistry() int

	// Status returns the engine's current gauge values.
	Status() Status

	// LastIBGNodes reports the node count of the last statement's IBG
	// (= what-if optimizer calls for that statement).
	LastIBGNodes() int

	// LastAnalysisDurations reports the wall-clock time of the last
	// statement's analysis, split into its read-only run and its fold
	// (observability only; the values never influence tuning decisions).
	LastAnalysisDurations() (run, finish time.Duration)

	// ExportState captures the engine's complete state for a snapshot.
	// The result must be registered with state.RegisterTunerCodec under
	// the engine's kind, and restoring it through the engine's Factory
	// must continue the interrupted instance bit-identically.
	ExportState() state.TunerState
}

// Factory constructs and restores one engine kind. Engines register a
// Factory from an init function (like WAL record kinds and snapshot
// codecs); which engines a binary can serve is exactly which packages
// it links.
type Factory struct {
	// Kind is the registry key, also used as the snapshot kind tag.
	Kind string
	// New builds a fresh engine against a what-if optimizer.
	New func(opt *whatif.Optimizer, options core.Options) Engine
	// Restore rebuilds an engine from exported state against an
	// optimizer whose registry already holds every referenced index.
	Restore func(opt *whatif.Optimizer, st state.TunerState) (Engine, error)
}

// factories is the process-global engine registry. Registration happens
// in init functions only, so no locking is needed.
var factories = map[string]Factory{}

// Register adds a factory to the engine registry. It panics on a
// duplicate or empty kind — both are wiring bugs.
func Register(f Factory) {
	if f.Kind == "" || f.New == nil || f.Restore == nil {
		panic("tuner: Register with empty kind or nil constructor")
	}
	if _, dup := factories[f.Kind]; dup {
		panic(fmt.Sprintf("tuner: duplicate engine kind %q", f.Kind))
	}
	factories[f.Kind] = f
}

// Lookup returns the factory for kind, if registered.
func Lookup(kind string) (Factory, bool) {
	f, ok := factories[kind]
	return f, ok
}

// Kinds returns the registered engine kinds in sorted order.
func Kinds() []string {
	ks := make([]string, 0, len(factories))
	for k := range factories {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// New constructs a fresh engine of the given kind, erroring on an
// unregistered kind (SessionConfig validation normally rejects those
// earlier, with the same kind list in the message).
func New(kind string, opt *whatif.Optimizer, options core.Options) (Engine, error) {
	f, ok := Lookup(kind)
	if !ok {
		return nil, fmt.Errorf("tuner: unknown engine kind %q (registered: %v)", kind, Kinds())
	}
	return f.New(opt, options), nil
}

// Restore rebuilds an engine from exported state, dispatching on the
// state's kind tag — the snapshot decides which engine resumes, not the
// caller's configuration.
func Restore(opt *whatif.Optimizer, st state.TunerState) (Engine, error) {
	f, ok := Lookup(st.TunerKind())
	if !ok {
		return nil, fmt.Errorf("tuner: snapshot needs engine kind %q, which is not linked into this binary (registered: %v)", st.TunerKind(), Kinds())
	}
	return f.Restore(opt, st)
}
