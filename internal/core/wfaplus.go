package core

import (
	"repro/internal/index"
	"repro/internal/interaction"
	"repro/internal/par"
)

// WFAPlus is the divide-and-conquer WFA of §4.2: one WFA instance per part
// of a stable partition, with recommendations formed as the union of the
// per-part recommendations. Theorem 4.2 shows it selects the same indices
// as a monolithic WFA over the whole candidate set; Theorem 4.3 improves
// the competitive ratio to 2^{cmax+1} − 1.
//
// On its own, WFAPlus is the paper's "simplified WFIT" used whenever
// experiments fix the candidate set and partition (§6.1): it accepts DBA
// feedback but performs no candidate maintenance. WFIT holds one and
// replaces its parts as candidate maintenance repartitions.
type WFAPlus struct {
	partition interaction.Partition // Normalize form
	// parts holds one WFA per part of partition, in the order they were
	// built — not necessarily partition order (see WFIT.Feedback). The
	// order is state: WFIT.repartition sums old work functions in it.
	parts   []*WFA
	workers int

	active []*WFA // scratch reused across statements
}

// NewWFAPlus creates per-part WFA instances, each initialized with the
// projection of the initial configuration onto its part.
func NewWFAPlus(reg *index.Registry, partition interaction.Partition, init index.Set) *WFAPlus {
	p := &WFAPlus{partition: partition.Normalize()}
	for _, part := range p.partition {
		p.parts = append(p.parts, NewWFA(reg, part, init.Intersect(part)))
	}
	return p
}

// Partition returns the stable partition in normalized order.
func (p *WFAPlus) Partition() interaction.Partition { return p.partition }

// Parts exposes the per-part WFA instances in their build order
// (read-mostly; used by WFIT's state export and by tests).
func (p *WFAPlus) Parts() []*WFA { return p.parts }

// SetWorkers bounds the goroutines AnalyzeStatement fans per-part updates
// across: 1 forces the serial path, values <= 0 mean one per CPU. Part
// updates are independent (Theorem 4.2's decomposition), so the result is
// identical for any setting.
func (p *WFAPlus) SetWorkers(n int) { p.workers = n }

// parallelAnalyzeThreshold is the minimum total configuration count
// (Σ 2^|Ck| over active parts) before per-part updates fan out; below it
// goroutine handoff costs more than the updates themselves.
const parallelAnalyzeThreshold = 2048

// AnalyzeStatement feeds the statement to every part whose candidates can
// influence its cost. Untouched parts would receive a uniform
// work-function shift, which changes no decision, so they are skipped.
// The remaining updates fan out over up to workers goroutines: each WFA
// mutates only its own state and sc is safe for concurrent probing (the
// IBG memo is atomic), so any worker count yields byte-identical results;
// tiny statements stay on the calling goroutine.
func (p *WFAPlus) AnalyzeStatement(sc StatementCost) {
	p.active = p.active[:0]
	total := 0
	for _, part := range p.parts {
		if sc.Influences(part.candSet) {
			p.active = append(p.active, part)
			total += part.Size()
		}
	}
	if len(p.active) > 1 && total >= parallelAnalyzeThreshold && par.Workers(p.workers) > 1 {
		par.Do(p.workers, len(p.active), func(i int) { p.active[i].AnalyzeStatement(sc) })
		return
	}
	for _, part := range p.active {
		part.AnalyzeStatement(sc)
	}
}

// Recommend returns ⋃_k WFA(k).recommend().
func (p *WFAPlus) Recommend() index.Set {
	rec := index.EmptySet
	for _, part := range p.parts {
		rec = rec.Union(part.Recommend())
	}
	return rec
}

// Feedback applies DBA votes to every part (Figure 4). Votes outside the
// candidate set are ignored here; WFIT extends the partition first.
func (p *WFAPlus) Feedback(plus, minus index.Set) {
	for _, part := range p.parts {
		part.Feedback(plus.Intersect(part.Candidates()), minus)
	}
}

// remapIDs renames the partition and every part through a registry
// compaction remap (see WFA.remapIDs). The partition is rewritten in
// place: the remap is monotone, so it stays in Normalize form.
func (p *WFAPlus) remapIDs(remap []index.ID) {
	for i, part := range p.partition {
		p.partition[i] = part.Remap(remap)
	}
	for _, a := range p.parts {
		a.remapIDs(remap)
	}
}
