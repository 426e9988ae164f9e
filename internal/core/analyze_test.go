package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// TestSpeculativeAnalysisBitIdentical drives two private tuners over the
// same workload: a serial reference using AnalyzeQuery, and a pipelined
// one that captures a whole batch of analyses up front (all against the
// pre-batch epoch), runs them concurrently, and folds them in order via
// ApplyAnalysis. Interleaved accept-style feedback forces epoch bumps so
// both the hit path (consume the speculation) and the miss path
// (recompute serially) are exercised — and the final exported tuner
// states must be deeply equal either way. Run under -race this also
// checks the concurrent Runs' footprint (registry lookups, what-if
// probes) is actually read-only.
func TestSpeculativeAnalysisBitIdentical(t *testing.T) {
	cat, joins := datagen.Build()
	w := workload.DefaultOptions()
	w.Phases = 3
	w.PerPhase = 60
	w.QueryTemplates = 6
	w.UpdateTemplates = 2
	wl := workload.Generate(cat, joins, w)
	stmts := wl.Statements
	if len(stmts) > 150 {
		stmts = stmts[:150]
	}

	mk := func() *WFIT {
		reg := index.NewRegistry()
		model := cost.NewModel(cat, reg, cost.DefaultParams())
		options := DefaultOptions()
		options.IdxCnt = 16
		options.StateCnt = 200
		return NewWFIT(whatif.New(model), options)
	}
	serial, spec := mk(), mk()

	accept := func(tuner *WFIT) {
		rec := tuner.Recommend()
		prev := tuner.Materialized()
		tuner.SetMaterialized(rec)
		tuner.Feedback(rec.Minus(prev), prev.Minus(rec))
	}

	hits, misses := 0, 0
	const batch = 8
	for at := 0; at < len(stmts); at += batch {
		end := min(at+batch, len(stmts))
		for _, s := range stmts[at:end] {
			serial.AnalyzeQuery(s)
		}

		as := make([]*Analysis, end-at)
		for i, s := range stmts[at:end] {
			as[i] = spec.BeginAnalysis(s)
		}
		var wg sync.WaitGroup
		for _, a := range as {
			wg.Add(1)
			go func(a *Analysis) {
				defer wg.Done()
				a.Run()
			}(a)
		}
		wg.Wait()
		for _, a := range as {
			if spec.ApplyAnalysis(a) {
				hits++
			} else {
				misses++
			}
		}

		if !serial.Recommend().Equal(spec.Recommend()) {
			t.Fatalf("batch ending at %d: recommendations diverge: %v vs %v",
				end, serial.Recommend(), spec.Recommend())
		}
		// Periodically materialize the recommendation with implicit
		// feedback, the way the service's accept path does — this bumps
		// the epoch and must invalidate any speculation taken across it.
		if (at/batch)%4 == 3 {
			accept(serial)
			accept(spec)
		}
	}

	if misses == 0 {
		t.Fatalf("speculation never missed — the recompute path went untested")
	}
	if hits == 0 {
		t.Fatalf("speculation never hit — the pipelined path went untested")
	}
	t.Logf("speculation: %d hits, %d misses over %d statements", hits, misses, len(stmts))

	if !reflect.DeepEqual(serial.ExportState(), spec.ExportState()) {
		t.Fatalf("speculative trajectory diverged from serial AnalyzeQuery")
	}
}

// TestAnalysisValidity pins the invalidation triggers: registry growth,
// repartition, and a materialization change each flip AnalysisValid; a
// no-op SetMaterialized does not.
func TestAnalysisValidity(t *testing.T) {
	cat, _ := datagen.Build()
	reg := index.NewRegistry()
	model := cost.NewModel(cat, reg, cost.DefaultParams())
	tuner := NewWFIT(whatif.New(model), DefaultOptions())

	mkStmt := func() *Analysis {
		return tuner.BeginAnalysis(nil)
	}

	a := mkStmt()
	if !tuner.AnalysisValid(a) {
		t.Fatalf("fresh capture already invalid")
	}
	tuner.SetMaterialized(tuner.Materialized())
	if !tuner.AnalysisValid(a) {
		t.Fatalf("no-op SetMaterialized invalidated the capture")
	}
	reg.Intern(cost.BuildIndexProto(cat, model.Params(), "tpch.lineitem", []string{"l_shipdate"}))
	if tuner.AnalysisValid(a) {
		t.Fatalf("registry growth did not invalidate the capture")
	}

	a = mkStmt()
	tuner.SetMaterialized(index.NewSet(1))
	if tuner.AnalysisValid(a) {
		t.Fatalf("materialization change did not invalidate the capture")
	}

	a = mkStmt()
	tuner.Feedback(index.NewSet(1), index.EmptySet) // extends the partition
	if tuner.AnalysisValid(a) {
		t.Fatalf("feedback-driven repartition did not invalidate the capture")
	}
}
