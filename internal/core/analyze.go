package core

import (
	"time"

	"repro/internal/ibg"
	"repro/internal/stmt"
)

// AnalyzeQuery implements WFIT.analyzeQuery (Figures 4 and 6), one
// sequential step per statement on the calling goroutine. The run mines
// the statement's candidates, builds its index benefit graph (the
// statement's what-if probes) and computes the per-index benefit and
// per-pair doi maximizations over it. The fold then takes the
// observations into the statistics, maintains the candidate set and
// stable partition (chooseCands/repartition), and feeds the graph to the
// WFA+ per-part work functions. The graph is private to this call, so its
// pooled probe cache is released at the end for the next statement.
// LastAnalysisDurations reports the run and the fold separately.
func (t *WFIT) AnalyzeQuery(s *stmt.Statement) {
	//lint:allow nondeterminism(stage timing feeds only obs traces, never tuner state)
	start := time.Now()
	// Line 1 (Figure 6): mine the candidates, interning them at the
	// statement's position in the event order.
	extracted := t.extractor.Extract(s)
	// The graph spans the indices this statement brings into play — its
	// own extracted candidates plus the monitored and materialized ones —
	// not the whole mined universe: that is what keeps the per-statement
	// what-if budget in the paper's 5–100 band while the universe grows
	// into the hundreds. Statistics for universe members untouched by
	// recent statements simply age out through the history window.
	g := ibg.Build(t.opt, s, extracted.Union(t.partsetC.Union(t.materialized)))
	benefits, interactions := g.Statistics(t.options.DoiThreshold)
	//lint:allow nondeterminism(stage timing feeds only obs traces, never tuner state)
	fold := time.Now()
	t.lastRunDur = fold.Sub(start)

	t.n++
	t.universe = t.universe.Union(extracted)
	// Line 3: fold the benefit/doi maximizations into the histories, in
	// deterministic order.
	for i, id := range g.UsedUnion().IDs() {
		t.idxStats.Add(id, t.n, benefits[i])
	}
	for _, in := range interactions {
		t.intStats.Add(in.A, in.B, t.n, in.Doi)
	}
	// Lines 4–5: D = M ∪ topIndices(U − M, idxCnt − |M|).
	d := t.chooseTop()
	// Line 6: choose the stable partition of D from D's pairs whose
	// current doi is above the threshold, listed from the partner
	// adjacency. Both sides are normalized — the WFA+ partition always is
	// (see repartition) and Choose returns Normalize output — so the
	// comparison needs none of Equal's re-sorting copies.
	t.pairScratch = t.intStats.AppendPairs(t.pairScratch[:0], d, t.n, t.options.DoiThreshold)
	current := t.Partition()
	if newPartition := t.partn.Choose(d, current, t.pairScratch); !newPartition.EqualNormalized(current) {
		t.repartition(newPartition)
		t.repartitions++
	}
	t.lastIBGNodes = g.NodeCount()
	t.plus.AnalyzeStatement(g)
	g.Release()
	t.retire()
	//lint:allow nondeterminism(stage timing feeds only obs traces, never tuner state)
	t.lastFinishDur = time.Since(fold)
}
