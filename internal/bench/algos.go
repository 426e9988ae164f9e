package bench

import (
	"repro/internal/bc"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/interaction"
	"repro/internal/stmt"
	"repro/internal/tuner"
	"repro/internal/whatif"
)

// wfaPlusAlgo adapts the fixed-candidate WFIT (= WFA+ with feedback) to
// the harness.
type wfaPlusAlgo struct {
	name string
	p    *core.WFAPlus
}

// NewWFITFixedAlgo builds the simplified WFIT over a preset stable
// partition — the configuration used by Figures 8–11.
func (e *Env) NewWFITFixedAlgo(name string, partition interaction.Partition) Algorithm {
	return &wfaPlusAlgo{
		name: name,
		p:    core.NewWFAPlus(e.Reg, partition, index.EmptySet),
	}
}

// NewWFITIndAlgo builds WFIT-IND: every candidate in its own part, i.e.
// all interactions assumed away.
func (e *Env) NewWFITIndAlgo(name string) Algorithm {
	return e.NewWFITFixedAlgo(name, interaction.Singletons(e.FixedC))
}

func (a *wfaPlusAlgo) Name() string { return a.name }
func (a *wfaPlusAlgo) Analyze(_ int, _ *stmt.Statement, sc core.StatementCost) {
	a.p.AnalyzeStatement(sc)
}
func (a *wfaPlusAlgo) Recommend() index.Set           { return a.p.Recommend() }
func (a *wfaPlusAlgo) Feedback(plus, minus index.Set) { a.p.Feedback(plus, minus) }
func (a *wfaPlusAlgo) SetMaterialized(index.Set)      {}

// bcAlgo adapts the Bruno–Chaudhuri baseline. BC has no feedback channel.
type bcAlgo struct {
	name string
	b    *bc.BC
}

// NewBCAlgo builds the BC baseline over the fixed candidate set.
func (e *Env) NewBCAlgo(name string) Algorithm {
	return &bcAlgo{name: name, b: bc.New(e.Reg, e.FixedC, index.EmptySet)}
}

func (a *bcAlgo) Name() string { return a.name }
func (a *bcAlgo) Analyze(_ int, _ *stmt.Statement, sc core.StatementCost) {
	a.b.AnalyzeStatement(sc)
}
func (a *bcAlgo) Recommend() index.Set           { return a.b.Recommend() }
func (a *bcAlgo) Feedback(plus, minus index.Set) {}
func (a *bcAlgo) SetMaterialized(index.Set)      {}

// EngineAlgo drives any registered tuner engine — an engine with online
// candidate maintenance, building its own IBGs over its evolving
// universe through a private what-if optimizer whose call counter
// provides the overhead statistics. It replaces the WFIT-only AUTO
// adapter: the harness sees only the tuner.Engine contract, so every
// engine the server can run is benchmarkable unchanged.
type EngineAlgo struct {
	name string
	eng  tuner.Engine
	opt  *whatif.Optimizer

	// per-statement IBG node counts (= what-if calls per statement)
	ibgNodes []int
}

// NewEngineAlgo builds the adapter for the named engine kind over a
// private what-if optimizer.
func (e *Env) NewEngineAlgo(name, kind string, options core.Options) (*EngineAlgo, error) {
	o := whatif.New(e.Model)
	eng, err := tuner.New(kind, o, options)
	if err != nil {
		return nil, err
	}
	return &EngineAlgo{name: name, eng: eng, opt: o}, nil
}

// NewWFITAutoAlgo builds the full WFIT with online candidate and
// partition maintenance (Figure 12's AUTO).
func (e *Env) NewWFITAutoAlgo(name string, options core.Options) *EngineAlgo {
	a, err := e.NewEngineAlgo(name, tuner.KindWFIT, options)
	if err != nil {
		panic("bench: wfit engine not registered: " + err.Error())
	}
	return a
}

func (a *EngineAlgo) Name() string { return a.name }
func (a *EngineAlgo) Analyze(_ int, s *stmt.Statement, _ core.StatementCost) {
	a.eng.AnalyzeQuery(s)
	a.ibgNodes = append(a.ibgNodes, a.eng.LastIBGNodes())
}
func (a *EngineAlgo) Recommend() index.Set           { return a.eng.Recommend() }
func (a *EngineAlgo) Feedback(plus, minus index.Set) { a.eng.Feedback(plus, minus) }
func (a *EngineAlgo) SetMaterialized(m index.Set)    { a.eng.SetMaterialized(m) }

// Engine exposes the underlying engine (status gauges: universe size,
// repartition counts).
func (a *EngineAlgo) Engine() tuner.Engine { return a.eng }

// WhatIfCalls reports the what-if optimizations performed so far.
func (a *EngineAlgo) WhatIfCalls() int64 { return a.opt.Calls() }

// IBGNodeCounts returns per-statement IBG sizes (what-if calls/query).
func (a *EngineAlgo) IBGNodeCounts() []int { return a.ibgNodes }
