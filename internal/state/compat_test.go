package state

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/interaction"
)

// compatSnapshot is a small but fully-populated snapshot for codec tests.
func compatSnapshot() *Snapshot {
	return &Snapshot{
		Defs: []index.Index{
			{ID: 1, Table: "tpch.lineitem", Columns: []string{"l_shipdate"}, LeafPages: 120, Height: 2, CreateCost: 900, DropCost: 1},
			{ID: 2, Table: "tpce.trade", Columns: []string{"t_dts", "t_bid_price"}, LeafPages: 80, Height: 2, CreateCost: 700, DropCost: 1},
		},
		Tuner: &core.TunerState{
			Options:      core.Options{IdxCnt: 8, StateCnt: 100, HistSize: 10, RandCnt: 4, MaxPartSize: 10, DoiThreshold: 1e-6, Seed: 3},
			N:            17,
			Repartitions: 2,
			S0:           index.EmptySet,
			Materialized: index.NewSet(1),
			Universe:     index.NewSet(1, 2),
			Partition:    interaction.Partition{index.NewSet(1), index.NewSet(2)},
			Parts: []core.WFAState{
				{Cand: []index.ID{1}, W: []float64{0, 12.5}, Base: 3.25, CurrRec: 1},
				{Cand: []index.ID{2}, W: []float64{0.5, 0}, Base: 1, CurrRec: 0},
			},
			IdxStats: interaction.BenefitStatsState{Hist: 10, Entries: []interaction.BenefitWindow{
				{ID: 1, Window: interaction.WindowState{Cap: 10, Dropped: 1, Pos: []int{3, 9}, Vals: []float64{4.5, 6}}},
			}},
			IntStats: interaction.InteractionStatsState{Hist: 10, Entries: []interaction.PairWindow{
				{A: 1, B: 2, Window: interaction.WindowState{Cap: 10, Pos: []int{9}, Vals: []float64{2.5}}},
			}},
			RandState: 0xdeadbeefcafef00d,
		},
		Session: SessionState{
			Name: "compat", Statements: 17, TotalWork: 123.5, TransitionCost: 7,
			Changes: 2, LastSeq: 21, QueueDepth: 64, CheckpointEvery: 500,
		},
	}
}

// writeV1 encodes the snapshot in the exact v1 layout (the PR 3 codec):
// no RetireAfter, no retirement counter, no pins, no CheckpointBytes.
// Kept as a byte-level reference so the v1 read path stays covered after
// the writer moved to v2.
func writeV1(s *Snapshot) []byte {
	var buf bytes.Buffer
	buf.WriteString(snapMagicPrefix + "1")
	e := newWriter(&buf)
	writeDefs(e, s.Defs)

	t := s.Tuner.(*core.TunerState)
	o := t.Options
	e.intv(o.IdxCnt)
	e.intv(o.StateCnt)
	e.intv(o.HistSize)
	e.intv(o.RandCnt)
	e.intv(o.MaxPartSize)
	e.f64(o.DoiThreshold)
	e.boolv(false)
	e.intv(0)
	e.i64(o.Seed)
	e.intv(t.N)
	e.intv(t.Repartitions)
	e.boolv(false)
	e.set(t.S0)
	e.set(t.Materialized)
	e.set(t.Universe)
	e.lenPrefix(len(t.Partition))
	for _, part := range t.Partition {
		e.set(part)
	}
	e.lenPrefix(len(t.Parts))
	for _, p := range t.Parts {
		e.ids(p.Cand)
		e.f64s(p.W)
		e.f64(p.Base)
		e.u32(p.CurrRec)
	}
	writeBenefitStats(e, t.IdxStats)
	writeInteractionStats(e, t.IntStats)
	e.u64(t.RandState)

	se := s.Session
	e.str(se.Name)
	e.intv(se.Statements)
	e.f64(se.TotalWork)
	e.f64(se.TransitionCost)
	e.intv(se.Changes)
	e.u64(se.LastSeq)
	e.intv(se.QueueDepth)
	e.intv(se.CheckpointEvery)
	e.u32(e.sum())
	return buf.Bytes()
}

// TestSnapshotV1BackwardCompat reads a byte-exact v1 stream with the v2
// codec: every v1 field must round-trip and every v2-only field must
// decode to its zero value — the semantics v1 sessions actually ran with
// (no retirement, no pins, no byte-triggered checkpoints).
func TestSnapshotV1BackwardCompat(t *testing.T) {
	want := compatSnapshot()
	got, err := Read(bytes.NewReader(writeV1(want)))
	if err != nil {
		t.Fatalf("reading v1 snapshot: %v", err)
	}
	gt := got.Tuner.(*core.TunerState)
	if gt.Options.RetireAfter != 0 || gt.Retired != 0 || gt.Pinned != nil {
		t.Fatalf("v2-only tuner fields not zero: %+v", got.Tuner)
	}
	if got.Session.CheckpointBytes != 0 {
		t.Fatalf("v2-only session field not zero: %+v", got.Session)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("v1 snapshot did not round-trip:\n got %+v\nwant %+v", got, want)
	}
}

// writeV2 encodes the snapshot in the exact v2 layout (the PR 4 codec):
// retirement fields, pins, and CheckpointBytes present, but no engine
// kind tag — v2 predates pluggable engines, so the stream is implicitly
// WFIT. The tuner and session payloads are byte-identical to v3's, so
// the current write helpers serve as the reference; only the header
// differs. Kept so the v2 read path stays covered after the writer
// moved to the kind-tagged v3.
func writeV2(s *Snapshot) []byte {
	var buf bytes.Buffer
	buf.WriteString(snapMagicPrefix + "2")
	e := newWriter(&buf)
	writeDefs(e, s.Defs)
	writeTuner(e, s.Tuner.(*core.TunerState))
	se := s.Session
	writeSession(e, &se)
	e.u32(e.sum())
	return buf.Bytes()
}

// v2Snapshot is compatSnapshot carrying every v2 addition.
func v2Snapshot() *Snapshot {
	s := compatSnapshot()
	st := s.Tuner.(*core.TunerState)
	st.Options.RetireAfter = 400
	st.Retired = 31
	st.Pinned = []core.PinnedVote{{ID: 2, Pos: 15}}
	s.Session.CheckpointBytes = 1 << 20
	return s
}

// TestSnapshotV2BackwardCompat reads a byte-exact v2 stream with the v3
// codec: with no kind tag present, the payload must decode under the
// implicit "wfit" kind with every v2 field intact.
func TestSnapshotV2BackwardCompat(t *testing.T) {
	want := v2Snapshot()
	got, err := Read(bytes.NewReader(writeV2(want)))
	if err != nil {
		t.Fatalf("reading v2 snapshot: %v", err)
	}
	if kind := got.Tuner.TunerKind(); kind != "wfit" {
		t.Fatalf("v2 snapshot decoded as tuner kind %q, want wfit", kind)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("v2 snapshot did not round-trip:\n got %+v\nwant %+v", got, want)
	}
}

// TestSnapshotV3RoundTripNewFields round-trips a fully-populated wfit
// snapshot through the current kind-tagged writer, and pins v3's one
// layout change: the kind tag sits between the defs block and the
// payload, so the v3 stream must be the v2 stream with "wfit" spliced
// in (and the version digit and CRC updated).
func TestSnapshotV3RoundTripNewFields(t *testing.T) {
	want := v2Snapshot()

	var buf bytes.Buffer
	if err := Write(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("v3 snapshot did not round-trip:\n got %+v\nwant %+v", got, want)
	}

	v2 := writeV2(want)
	v3 := buf.Bytes()
	var defsEnd int
	for i := len(snapMagicPrefix) + 1; i < len(v3); i++ {
		// The kind tag is the first point where the streams diverge.
		if v3[i] != v2[i] {
			defsEnd = i
			break
		}
	}
	if defsEnd == 0 {
		t.Fatal("v2 and v3 streams identical: kind tag missing")
	}
	// str() writes a fixed-width little-endian u32 length then the bytes.
	tag := append([]byte{4, 0, 0, 0}, []byte("wfit")...)
	if !bytes.Equal(v3[defsEnd:defsEnd+len(tag)], tag) ||
		!bytes.Equal(v3[defsEnd+len(tag):len(v3)-4], v2[defsEnd:len(v2)-4]) {
		t.Fatal("v3 stream is not the v2 stream with the kind tag spliced in: the wfit payload bytes changed")
	}
}

// TestSnapshotUnknownVersionRejected guards the forward edge: a version
// digit newer than the writer's must fail loudly, not misparse.
func TestSnapshotUnknownVersionRejected(t *testing.T) {
	data := writeV1(compatSnapshot())
	data[len(snapMagicPrefix)] = '9'
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatalf("version-9 snapshot accepted")
	}
}
