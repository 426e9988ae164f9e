package core

import (
	"time"

	"repro/internal/cost"
	"repro/internal/ibg"
	"repro/internal/index"
	"repro/internal/stmt"
	"repro/internal/whatif"
)

// Analysis is the expensive, read-only half of one statement's analysis,
// split out of AnalyzeQuery so a batched ingest loop can compute it
// speculatively — off the serialized apply path, concurrently for several
// queued statements — and then fold it in cheaply, in order.
//
// The split is validated, not trusted: BeginAnalysis captures the tuner's
// change epoch and registry length, Run performs candidate mining (via the
// non-interning Extractor.Peek), IBG construction, and the benefit/doi
// maximizations against that frozen context, and ApplyAnalysis only
// consumes the result when the context is still current — otherwise it
// recomputes on the serialized path. Correctness therefore never depends
// on the speculation winning; a hit only removes the what-if probing from
// the apply path's critical section.
//
// Run touches nothing but the captured sets, the concurrency-safe index
// registry, and the concurrency-safe what-if optimizer, so it may execute
// concurrently with other Runs and with the serialized apply of earlier
// events. It must not run concurrently with CompactRegistry (which
// renumbers the ID space under readers); the service joins every
// in-flight Run before checkpointing.
type Analysis struct {
	stmt      *stmt.Statement
	opt       *whatif.Optimizer
	extractor *cost.Extractor

	// base is the IBG context beyond the statement's own candidates:
	// C ∪ M, the monitored and materialized indices.
	base index.Set

	workers      int
	doiThreshold float64

	// epoch and regLen pin the tuner state the capture is valid against.
	epoch  uint64
	regLen int

	ran bool // Run completed
	ok  bool // Run produced a usable result (every candidate was interned)

	// runDur is Run's wall time — the stage timestamp the service's
	// trace attributes to "analysis" whether the run happened inline on
	// the apply path or concurrently on the speculative pipeline.
	runDur time.Duration

	extracted    index.Set
	g            *ibg.Graph
	benefits     []float64 // in g.UsedUnion() order
	interactions []ibg.Interaction
}

// BeginAnalysis captures the context a speculative analysis of s will be
// validated against. It is cheap (a few set unions) and must be called
// under the same serialization as ApplyAnalysis — the capture has to see
// a consistent tuner. workers bounds the goroutines this one analysis
// fans across inside its IBG (see package ibg); speculative callers
// typically pass 1 and get their parallelism from running several
// analyses at once (any value produces byte-identical results).
func (t *WFIT) BeginAnalysis(s *stmt.Statement, workers int) *Analysis {
	return &Analysis{
		stmt:         s,
		opt:          t.opt,
		extractor:    t.extractor,
		base:         t.partsetC.Union(t.materialized),
		workers:      workers,
		doiThreshold: t.options.DoiThreshold,
		epoch:        t.epoch,
		regLen:       t.reg.Len(),
	}
}

// Run executes the heavy phase: candidate mining, IBG construction (the
// statement's what-if probes), and the per-index benefit and per-pair doi
// maximizations over the frozen graph. Safe for concurrent use as
// documented on Analysis. After Run, the analysis either holds a usable
// result or is marked for recomputation (a candidate was not interned
// yet — ApplyAnalysis falls back).
func (a *Analysis) Run() { a.run(false) }

// run is Run with the interning/peeking choice explicit: the serialized
// path interns (assigning new registry IDs at the statement's position in
// the event order), the speculative path peeks and bails if any candidate
// is new.
func (a *Analysis) run(intern bool) {
	//lint:allow nondeterminism(stage timing feeds only obs traces, never tuner state)
	start := time.Now()
	defer func() {
		//lint:allow nondeterminism(stage timing feeds only obs traces, never tuner state)
		a.runDur = time.Since(start)
		a.ran = true
	}()
	if intern {
		a.extracted = a.extractor.Extract(a.stmt)
	} else {
		var ok bool
		a.extracted, ok = a.extractor.Peek(a.stmt)
		if !ok {
			return
		}
	}
	// The graph spans the indices this statement brings into play — its
	// own extracted candidates plus the relevant monitored and
	// materialized ones — not the whole mined universe: that is what
	// keeps the per-statement what-if budget in the paper's 5–100 band
	// while the universe grows into the hundreds. Statistics for universe
	// members untouched by recent statements simply age out through the
	// history window.
	g := ibg.BuildWorkers(a.opt, a.stmt, a.extracted.Union(a.base), a.workers)
	a.g = g
	a.benefits, a.interactions = g.Statistics(a.doiThreshold, a.workers)
	a.ok = true
}

// Discard releases the analysis's graph (returning its pooled probe cache)
// without applying it. Call it for speculative analyses that were
// abandoned; ApplyAnalysis discards internally on a miss.
func (a *Analysis) Discard() {
	if a.g != nil {
		a.g.Release()
		a.g = nil
	}
}

// AnalysisValid reports whether a's captured context is still current: no
// repartition, materialization change, or compaction since the capture
// (the change epoch), and no registry growth (a new ID would mean the
// serial path could have mined a different IBG, and — worse — that the
// speculative peek saw an ID-assignment order the WAL does not record).
// Callers that queued an analysis behind other events use it to skip
// waiting for a Run whose result is already unusable.
func (t *WFIT) AnalysisValid(a *Analysis) bool {
	return a.epoch == t.epoch && a.regLen == t.reg.Len()
}

// ApplyAnalysis folds a speculative analysis into the tuner, exactly as
// AnalyzeQuery would have analyzed the statement at this position. It
// reports whether the speculation was consumed; on a miss (stale context
// or an un-interned candidate) it discards the speculative work and
// recomputes on the serialized path, so the outcome is bit-identical
// either way.
func (t *WFIT) ApplyAnalysis(a *Analysis) bool {
	if a.ran && a.ok && t.AnalysisValid(a) {
		t.finishAnalysis(a)
		return true
	}
	a.Discard()
	fresh := t.BeginAnalysis(a.stmt, t.options.Workers)
	fresh.run(true)
	t.finishAnalysis(fresh)
	return false
}

// finishAnalysis is the serialized half of a statement's analysis: fold
// the statistics observations in, maintain the candidate set and stable
// partition (chooseCands/repartition, Figure 6), and feed the statement's
// IBG to the WFA+ per-part work functions. The summation and
// insertion orders are identical to the pre-split AnalyzeQuery, which is
// what keeps serial, batched, and recovered trajectories bit-identical.
func (t *WFIT) finishAnalysis(a *Analysis) {
	//lint:allow nondeterminism(stage timing feeds only obs traces, never tuner state)
	start := time.Now()
	defer func() {
		t.lastRunDur = a.runDur
		//lint:allow nondeterminism(stage timing feeds only obs traces, never tuner state)
		t.lastFinishDur = time.Since(start)
	}()
	t.n++
	// Line 1 (Figure 6): grow the universe with the mined candidates.
	t.universe = t.universe.Union(a.extracted)
	// Line 3: fold the precomputed benefit/doi maximizations into the
	// histories, serially and in deterministic order.
	for i, id := range a.g.UsedUnion().IDs() {
		t.idxStats.Add(id, t.n, a.benefits[i])
	}
	for _, in := range a.interactions {
		t.intStats.Add(in.A, in.B, t.n, in.Doi)
	}
	// Lines 4–5: D = M ∪ topIndices(U − M, idxCnt − |M|).
	d := t.chooseTop()
	// Line 6: choose the stable partition of D. Both sides are normalized
	// — the WFA+ partition always is (see repartition) and Choose returns
	// Normalize output — so the comparison needs none of Equal's
	// re-sorting copies.
	current := t.Partition()
	if newPartition := t.partn.Choose(d, current, t.doiFunc()); !newPartition.EqualNormalized(current) {
		t.repartition(newPartition)
		t.repartitions++
	}
	t.lastIBGNodes = a.g.NodeCount()
	t.plus.AnalyzeStatement(a.g)
	a.g.Release()
	t.retire()
}
