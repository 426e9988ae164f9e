// Package whatif wraps the cost model behind the what-if optimizer
// interface that index advisors consume, adding call accounting. The
// paper reports tuning overhead partly as the number of what-if
// optimizations per query (§6.2); Calls counts exactly those. Repeated
// configuration probes of one statement are answered by its IBG, which
// costs one call per node, so there is nothing left to memoize here. An
// IBG build prices its nodes through CostMask on a cost.Prepared
// statement; each CostMask counts one call, like CostUsed.
package whatif

import (
	"sync/atomic"

	"repro/internal/cost"
	"repro/internal/index"
	"repro/internal/stmt"
)

// Optimizer is a call-counting what-if optimizer. It is safe for
// concurrent use: the model is read-only and the counter is atomic.
type Optimizer struct {
	model *cost.Model
	calls atomic.Int64
}

// New wraps the model.
func New(m *cost.Model) *Optimizer {
	return &Optimizer{model: m}
}

// Model exposes the underlying cost model.
func (o *Optimizer) Model() *cost.Model { return o.model }

// CostUsed returns the what-if cost of s under cfg and the plan's used-
// index set. Indices on tables s does not access are ignored by the model.
func (o *Optimizer) CostUsed(s *stmt.Statement, cfg index.Set) (float64, index.Set) {
	o.calls.Add(1)
	return o.model.CostUsed(s, cfg)
}

// CostMask returns the what-if cost of a prepared statement under the
// candidates whose bits are set in mask, and the plan's used-index mask:
// one what-if optimization, counted like CostUsed.
func (o *Optimizer) CostMask(p *cost.Prepared, mask uint64) (float64, uint64) {
	o.calls.Add(1)
	return p.CostMask(mask)
}

// Cost returns just the what-if cost.
func (o *Optimizer) Cost(s *stmt.Statement, cfg index.Set) float64 {
	c, _ := o.CostUsed(s, cfg)
	return c
}

// Calls reports how many what-if optimizations have happened since
// construction or the last ResetStats.
func (o *Optimizer) Calls() int64 { return o.calls.Load() }

// ResetStats zeroes the call counter.
func (o *Optimizer) ResetStats() { o.calls.Store(0) }

// Hits always returns 0: no probe is served without an optimization.
//
// Deprecated: Calls counts every probe.
func (o *Optimizer) Hits() int64 { return 0 }

// Invalidate does nothing: the optimizer holds no state keyed by index
// IDs, so registry compaction has nothing to drop here.
//
// Deprecated: there is nothing to invalidate.
func (o *Optimizer) Invalidate() {}
