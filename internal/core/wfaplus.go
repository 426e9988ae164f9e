package core

import (
	"repro/internal/index"
	"repro/internal/interaction"
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
// replaces its parts as candidate maintenance repartitions. The parts
// update serially: within StateCnt they are too small to pay for a
// goroutine handoff.
type WFAPlus struct {
	partition interaction.Partition // Normalize form
	// parts holds one WFA per part of partition, in the order they were
	// built — not necessarily partition order (see WFIT.Feedback). The
	// order is state: WFIT.repartition sums old work functions in it.
	parts []*WFA
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

// AnalyzeStatement feeds the statement to every part whose candidates can
// influence its cost. Untouched parts would receive a uniform
// work-function shift, which changes no decision, so they are skipped.
func (p *WFAPlus) AnalyzeStatement(sc StatementCost) {
	for _, part := range p.parts {
		if sc.Influences(part.candSet) {
			part.AnalyzeStatement(sc)
		}
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
