package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/index"
	"repro/internal/interaction"
)

// BenchmarkChooseTop measures topIndices over a 1,500-member universe
// with benefit windows, a 40-member C and IdxCnt 40. One WFIT serves
// every iteration with n advancing: each iteration records a few fresh
// benefits at the new position, as a statement does, and takes the
// result as the next C, as a repartition does.
func BenchmarkChooseTop(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	reg := index.NewRegistry()
	var ids []index.ID
	for len(ids) < 1500 {
		var key []string
		for _, c := range rng.Perm(10)[:1+rng.Intn(3)] {
			key = append(key, fmt.Sprintf("c%d", c))
		}
		proto := index.Index{Table: fmt.Sprintf("t%d", rng.Intn(50)), Columns: key, CreateCost: 10 + rng.Float64()*1000}
		if id := reg.Intern(proto); int(id) > len(ids) {
			ids = append(ids, id)
		}
	}
	const hist = 100
	w := &WFIT{
		reg:      reg,
		options:  Options{IdxCnt: 40, HistSize: hist},
		idxStats: interaction.NewBenefitStats(hist),
		pinned:   make(map[index.ID]int),
		universe: index.NewSet(ids...),
	}
	// Every member has a window; a few hot members collect most of the
	// later benefit, so windows range from one entry to the full history.
	for _, id := range ids {
		w.idxStats.Add(id, 1, rng.ExpFloat64()*100)
	}
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(ids)-1))
	for w.n < 2000 {
		w.n++
		for k := 0; k < 8; k++ {
			w.idxStats.Add(ids[zipf.Uint64()], w.n, rng.ExpFloat64()*100)
		}
	}
	var c []index.ID
	for _, k := range rng.Perm(len(ids))[:40] {
		c = append(c, ids[k])
	}
	w.partsetC = index.NewSet(c...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.n++
		for k := 0; k < 8; k++ {
			w.idxStats.Add(ids[zipf.Uint64()], w.n, rng.ExpFloat64()*100)
		}
		w.partsetC = w.chooseTop()
	}
}
