// Package state is a fixture stand-in for the real repro/internal/state:
// the maprange analyzer recognizes its WAL/writer types as ordered
// sinks, and the file exercises every hazard and every exemption.
package state

import (
	"sort"

	"repro/internal/index"
)

// WAL is an ordered sink: bytes appended in map order differ per run.
type WAL struct{}

// Append appends one record payload.
func (w *WAL) Append(b []byte) {}

// writer is the snapshot codec's ordered sink.
type writer struct{}

func (w *writer) u64(v uint64) {}

func sumFloats(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		total += v // want `float accumulation in map-iteration order`
	}
	return total
}

func sumFloatsExpanded(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		total = total + v // want `float accumulation in map-iteration order`
	}
	return total
}

// sumInts is fine: integer addition commutes exactly.
func sumInts(m map[string]int) int {
	var total int
	for _, v := range m {
		total += v
	}
	return total
}

// sumSortedKeys is the canonical fix: iterate the slice, not the map.
func sumSortedKeys(m map[string]float64, keys []string) float64 {
	var total float64
	for _, k := range keys {
		total += m[k]
	}
	return total
}

func collectKeys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append to keys in map-iteration order`
	}
	return keys
}

// collectKeysSorted is exempt: the slice is sorted after the loop.
func collectKeysSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// collectIDs is exempt: index.NewSet canonicalizes its arguments, so
// the append order never escapes (mirrors core.Votes.Active).
func collectIDs(m map[index.ID]bool) index.Set {
	var ids []index.ID
	for id := range m {
		ids = append(ids, id)
	}
	return index.NewSet(ids...)
}

// partition mirrors interaction.Partition: Normalize canonicalizes the
// part order.
type partition []index.Set

func (p partition) Normalize() partition { return p }

// grouped is exempt: out.Normalize() erases the append order (mirrors
// interaction's stable-partition construction).
func grouped(groups map[index.ID][]index.ID) partition {
	var out partition
	for _, g := range groups {
		out = append(out, index.NewSet(g...))
	}
	return out.Normalize()
}

// perIteration is fine: the slice is declared inside the loop, reset
// every pass, so no cross-iteration order accumulates.
func perIteration(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		n += len(local)
	}
	return n
}

func walInMapOrder(w *WAL, m map[string][]byte) {
	for _, b := range m {
		w.Append(b) // want `WAL.Append called in map-iteration order`
	}
}

func codecInMapOrder(w *writer, m map[string]uint64) {
	for _, v := range m {
		w.u64(v) // want `writer.u64 called in map-iteration order`
	}
}

// walSorted is the fix: drain the map into a sorted slice first.
func walSorted(w *WAL, m map[string][]byte) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w.Append(m[k])
	}
}

// audited shows the escape hatch for a reviewed exception.
func audited(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		//lint:allow maprange(sum feeds a human-facing log line, never serialized state)
		total += v
	}
	return total
}
