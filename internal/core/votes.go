package core

import (
	"fmt"
	"sort"

	"repro/internal/index"
)

// Votes holds DBA votes that must outlive candidate maintenance: it maps
// each voted index to the statement position of its vote. A fresh vote
// names an index with an empty benefit window, which the next statement's
// candidate maintenance would score 0 and drop, so a vote covers its index
// for a grace window of HistSize statements (the statistics horizon of
// §5.2.2), long enough for the workload to supply the evidence the vote
// predicted. WFIT keeps its F+ pins in one; the bandit keeps its pins and
// its bans in one each.
//
// Expiry is lazy: a vote leaves the map only when Active sweeps it, and
// until then compaction keeps its index and the snapshot carries it.
type Votes map[index.ID]int

// Cast records a vote at statement position n for each member of s.
func (v Votes) Cast(s index.Set, n int) {
	s.Each(func(id index.ID) { v[id] = n })
}

// Withdraw drops the votes for the members of s.
func (v Votes) Withdraw(s index.Set) {
	s.Each(func(id index.ID) { delete(v, id) })
}

// Active expires the votes whose grace window has passed at position n and
// returns the indices the rest still cover. A non-positive grace means
// unbounded histories and, consistently, unbounded votes.
func (v Votes) Active(n, grace int) index.Set {
	if len(v) == 0 {
		return index.EmptySet
	}
	ids := make([]index.ID, 0, len(v))
	for id, pos := range v {
		if grace > 0 && n-pos >= grace {
			delete(v, id)
			continue
		}
		ids = append(ids, id)
	}
	return index.NewSet(ids...)
}

// Voted returns every index the map holds a vote for, expired votes that
// no Active call has swept yet included.
func (v Votes) Voted() index.Set {
	ids := make([]index.ID, 0, len(v))
	for id := range v {
		ids = append(ids, id)
	}
	return index.NewSet(ids...)
}

// Remap returns the votes under a registry compaction's new ID space.
func (v Votes) Remap(remap []index.ID) Votes {
	if len(v) == 0 {
		return v
	}
	out := make(Votes, len(v))
	for id, pos := range v {
		out[remap[id]] = pos
	}
	return out
}

// PinnedVote is one entry of exported Votes: the index and the statement
// position of the vote that pins its fate (an F+ pin, or a bandit ban).
type PinnedVote struct {
	ID  index.ID
	Pos int
}

// Export lists the votes in ascending ID order, nil when there are none.
func (v Votes) Export() []PinnedVote {
	var out []PinnedVote
	for id, pos := range v {
		out = append(out, PinnedVote{ID: id, Pos: pos})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RestoreVotes rebuilds exported votes, refusing an index outside reg.
func RestoreVotes(reg *index.Registry, votes []PinnedVote) (Votes, error) {
	v := make(Votes, len(votes))
	for _, p := range votes {
		if err := reg.CheckIDs(p.ID); err != nil {
			return nil, fmt.Errorf("core: vote for %w", err)
		}
		v[p.ID] = p.Pos
	}
	return v, nil
}
