package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/stmt"
	"repro/internal/workload"
)

// inputs are everything a run sends, derived from the workload and the
// seed alone: the same (workload, seed, seconds) always yields the same
// SQL text and the same DBA positions.
type inputs struct {
	W    Workload
	Seed int64
	// Warmup and Measured count statements per session; each session's
	// stream holds Warmup+Measured statements.
	Warmup   int
	Measured int
	Sessions []sessionInput
}

type sessionInput struct {
	Name string
	SQL  []string
}

// total is the statements each session streams.
func (in *inputs) total() int { return in.Warmup + in.Measured }

// inputSize returns the measured statements per session for a run of the
// given length. The total is rounded so that it ends half a checkpoint
// interval past a checkpoint: the WAL tail that recovery_s replays then
// has the same length on every seed.
func inputSize(w Workload, seconds int) int {
	ckpt := w.Knobs.CheckpointEvery
	// k*ckpt + ckpt/2 is the aligned total nearest to the wanted one.
	k := (w.StmtsPerSecond*seconds + warmupStatements) / ckpt
	if k < 1 {
		k = 1
	}
	return k*ckpt + ckpt/2 - warmupStatements
}

// structureSeed fixes session i's template stream: which statement shape
// (tables, joins, predicate columns, projections, update targets) comes at
// which position. It is the generator's default seed for session 0.
//
// The run's --seed draws every literal of that stream instead. Seeds
// that also redrew the shapes would measure different amounts of work:
// the generator's per-phase pools hold ten query templates, so whether a
// seed draws one with a large index benefit graph moved the p99 ack 2.5x
// and throughput ±15% between seeds in trial runs, more than any bound a
// regression check could use.
func structureSeed(i int) int64 {
	return workload.DefaultOptions().Seed + int64(i)
}

// literalSeed derives session i's literal stream from the run's seed.
func literalSeed(seed int64, i int) int64 {
	return seed*1_000_003 + int64(i)
}

// makeInputs generates every session's statement stream.
func makeInputs(w Workload, seed int64, measured int) (*inputs, error) {
	if measured < 1 {
		return nil, fmt.Errorf("measured statements must be positive, got %d", measured)
	}
	in := &inputs{W: w, Seed: seed, Warmup: warmupStatements, Measured: measured}
	cat, joins := datagen.Build()
	opts := workload.DefaultOptions()
	opts.Profile = w.Profile
	if w.QueryTemplates > 0 {
		opts.QueryTemplates = w.QueryTemplates
	}
	opts.Phases = (in.total()+opts.PerPhase-1)/opts.PerPhase + 1
	for i := 0; i < w.Sessions; i++ {
		opts.Seed = structureSeed(i)
		wl := workload.Generate(cat, joins, opts)
		if wl.Len() < in.total() {
			return nil, fmt.Errorf("workload %s generated %d statements, need %d", w.Name, wl.Len(), in.total())
		}
		rng := rand.New(rand.NewSource(literalSeed(seed, i)))
		sqls := make([]string, in.total())
		for j := range sqls {
			sqls[j] = render(cat, wl.Statements[j], rng)
		}
		in.Sessions = append(in.Sessions, sessionInput{Name: fmt.Sprintf("s%d", i), SQL: sqls})
	}
	return in, nil
}

// render writes the statement as SQL in the generator's dialect with
// literals drawn from rng: each range predicate keeps its column and,
// up to a ×[0.61,1.65] jitter, its selectivity, at a new position in the
// column's domain; each equality predicate gets a new value.
func render(cat *catalog.Catalog, s *stmt.Statement, rng *rand.Rand) string {
	alias := make(map[string]string, len(s.Tables))
	for i, t := range s.Tables {
		alias[t] = fmt.Sprintf("t%d", i)
	}
	var b strings.Builder
	if s.Kind == stmt.Update {
		fmt.Fprintf(&b, "UPDATE %s SET ", s.UpdateTable())
		for i, c := range s.SetColumns {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s = %s + 0.000001", c, c)
		}
		b.WriteString(" WHERE ")
		renderPred(&b, cat, s.Preds[0], "", rng)
		return b.String()
	}
	b.WriteString("SELECT ")
	if len(s.Output) == 0 {
		b.WriteString("count(*)")
	}
	for i, oc := range s.Output {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s.%s", alias[oc.Table], oc.Column)
	}
	b.WriteString(" FROM ")
	for i, t := range s.Tables {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", t, alias[t])
	}
	sep := " WHERE "
	for _, p := range s.Preds {
		b.WriteString(sep)
		renderPred(&b, cat, p, alias[p.Table], rng)
		sep = " AND "
	}
	for _, j := range s.Joins {
		b.WriteString(sep)
		fmt.Fprintf(&b, "%s.%s = %s.%s", alias[j.LeftTable], j.LeftColumn, alias[j.RightTable], j.RightColumn)
		sep = " AND "
	}
	return b.String()
}

func renderPred(b *strings.Builder, cat *catalog.Catalog, p stmt.Pred, alias string, rng *rand.Rand) {
	col, _ := cat.MustTable(p.Table).Column(p.Column)
	ref := p.Column
	if alias != "" {
		ref = alias + "." + p.Column
	}
	if p.Eq {
		fmt.Fprintf(b, "%s = %.6g", ref, col.Min+rng.Float64()*(col.Max-col.Min))
		return
	}
	sel := math.Min(math.Max(p.Selectivity*math.Exp(rng.Float64()-0.5), 1e-6), 0.5)
	span := (col.Max - col.Min) * sel
	lo := col.Min + rng.Float64()*math.Max(col.Max-col.Min-span, 0)
	fmt.Fprintf(b, "%s BETWEEN %.6g AND %.6g", ref, lo, lo+span)
}
