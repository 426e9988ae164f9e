package state

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/sqlmini"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// testWorkloadSQL renders a deterministic SQL stream for tuner tests.
func testWorkloadSQL(n int) []string {
	cat, joins := datagen.Build()
	w := workload.DefaultOptions()
	w.Phases = 2
	w.PerPhase = (n + 1) / 2
	w.QueryTemplates = 6
	w.UpdateTemplates = 2
	wl := workload.Generate(cat, joins, w)
	out := make([]string, 0, n)
	for _, s := range wl.Statements[:n] {
		out = append(out, s.SQL)
	}
	return out
}

// tunerRig is one independent tuner world: registry, model, optimizer,
// parser, and statement counter.
type tunerRig struct {
	reg    *index.Registry
	opt    *whatif.Optimizer
	parser *sqlmini.Parser
	tuner  *core.WFIT
	n      int
}

func newTunerRig(t *testing.T) *tunerRig {
	t.Helper()
	cat, _ := datagen.Build()
	reg := index.NewRegistry()
	model := cost.NewModel(cat, reg, cost.DefaultParams())
	opt := whatif.New(model)
	options := core.DefaultOptions()
	options.IdxCnt = 16
	options.StateCnt = 200
	return &tunerRig{
		reg:    reg,
		opt:    opt,
		parser: sqlmini.NewParser(cat),
		tuner:  core.NewWFIT(opt, options),
	}
}

func (r *tunerRig) analyze(t *testing.T, sql string) {
	t.Helper()
	s, err := r.parser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	r.n++
	s.ID = r.n
	r.tuner.AnalyzeQuery(s)
}

// restoreRig rebuilds an independent tuner world from a snapshot.
func restoreRig(t *testing.T, snap *Snapshot) *tunerRig {
	t.Helper()
	cat, _ := datagen.Build()
	reg, err := index.RestoreRegistry(snap.Defs)
	if err != nil {
		t.Fatalf("restore registry: %v", err)
	}
	model := cost.NewModel(cat, reg, cost.DefaultParams())
	opt := whatif.New(model)
	tuner, err := core.RestoreWFIT(opt, snap.Tuner.(*core.TunerState))
	if err != nil {
		t.Fatalf("restore tuner: %v", err)
	}
	return &tunerRig{
		reg:    reg,
		opt:    opt,
		parser: sqlmini.NewParser(cat),
		tuner:  tuner,
		n:      snap.Session.Statements,
	}
}

// TestSnapshotContinuationBitIdentical is the codec-level differential
// test: snapshot a tuner mid-workload, round-trip the snapshot through the
// binary format, restore it into a fresh registry/model/optimizer, then
// feed both tuners the identical remainder — their full exported states
// (work-function tables, statistics windows, partitions, random stream)
// must stay bit-identical to the uninterrupted original.
func TestSnapshotContinuationBitIdentical(t *testing.T) {
	sqls := testWorkloadSQL(120)
	cut := 73

	full := newTunerRig(t)
	for _, sql := range sqls[:cut] {
		full.analyze(t, sql)
	}
	// Feedback exercises the vote path's partition extension before the
	// snapshot point.
	votePlus := full.tuner.Recommend()
	full.tuner.Feedback(votePlus, index.EmptySet)

	snap := &Snapshot{
		Defs:    CaptureRegistry(full.reg),
		Tuner:   full.tuner.ExportState(),
		Session: SessionState{Name: "t", Statements: cut},
	}
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatalf("write snapshot: %v", err)
	}
	decoded, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	if decoded.Session != snap.Session {
		t.Fatalf("session state mismatch: %+v != %+v", decoded.Session, snap.Session)
	}

	restored := restoreRig(t, decoded)
	if got, want := restored.tuner.StatementsSeen(), full.tuner.StatementsSeen(); got != want {
		t.Fatalf("restored StatementsSeen = %d, want %d", got, want)
	}
	if !restored.tuner.Recommend().Equal(full.tuner.Recommend()) {
		t.Fatalf("restored recommendation diverged immediately")
	}

	for i, sql := range sqls[cut:] {
		full.analyze(t, sql)
		restored.analyze(t, sql)
		if !restored.tuner.Recommend().Equal(full.tuner.Recommend()) {
			t.Fatalf("recommendation diverged at continuation statement %d", i+1)
		}
	}
	a, b := full.tuner.ExportState(), restored.tuner.ExportState()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("final tuner states differ after identical continuation")
	}
	if full.reg.Len() != restored.reg.Len() {
		t.Fatalf("registries diverged: %d vs %d defs", full.reg.Len(), restored.reg.Len())
	}
}

func TestSnapshotFileRoundTripAndCorruption(t *testing.T) {
	rig := newTunerRig(t)
	for _, sql := range testWorkloadSQL(20) {
		rig.analyze(t, sql)
	}
	snap := &Snapshot{
		Defs:    CaptureRegistry(rig.reg),
		Tuner:   rig.tuner.ExportState(),
		Session: SessionState{Name: "file", Statements: 20, TotalWork: 123.5, LastSeq: 20},
	}
	path := filepath.Join(t.TempDir(), "state.snap")
	if err := WriteFile(path, snap); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !reflect.DeepEqual(back.Tuner, snap.Tuner) {
		t.Fatalf("tuner state did not round-trip")
	}

	// Flip one byte in the middle: the CRC must catch it.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatalf("corrupted snapshot read succeeded")
	}
}

// TestSnapshotRetiredModesRejected sets each byte of a retired tuner mode
// to 1 in an otherwise valid stream (CRC recomputed). Writers always emit
// 0 there; a 1 must fail the decode with an error naming the mode, not
// restore a tuner that silently drops it.
func TestSnapshotRetiredModesRejected(t *testing.T) {
	s := compatSnapshot()
	st := s.Tuner.(*core.TunerState)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()

	// Locate the two bytes by re-encoding the v3 fields before each one.
	pre, e := v3OptionsHead(s)
	assumeIndependentAt := pre.Len()
	e.boolv(false)
	e.intv(0) // retired Workers
	e.i64(st.Options.Seed)
	e.intv(st.Options.RetireAfter)
	e.intv(st.N)
	e.intv(st.Repartitions)
	e.intv(st.Retired)
	e.lenPrefix(len(st.Pinned)) // compatSnapshot pins nothing
	statsDisabledAt := pre.Len()
	e.boolv(false)
	if !bytes.HasPrefix(stream, pre.Bytes()) {
		t.Fatalf("reference prefix does not match the written stream")
	}
	// set returns stream with byte at set to v and the trailing CRC redone.
	set := func(at int, v byte) []byte {
		b := append([]byte(nil), stream...)
		b[at] = v
		return resum(b)
	}
	if !bytes.Equal(set(statsDisabledAt, 0), stream) {
		t.Fatalf("reference CRC does not match the written stream")
	}

	for _, c := range []struct {
		mode string
		at   int
	}{
		{"AssumeIndependent", assumeIndependentAt},
		{"StatsDisabled", statsDisabledAt},
	} {
		_, err := Read(bytes.NewReader(set(c.at, 1)))
		if err == nil || !strings.Contains(err.Error(), c.mode) {
			t.Errorf("%s set to 1: Read error = %v, want one naming the mode", c.mode, err)
		}
	}
}

// v3OptionsHead re-encodes s's v3 stream up to the options' DoiThreshold:
// the header, the defs block, the kind tag and the options before it. The
// caller goes on writing with the returned writer.
func v3OptionsHead(s *Snapshot) (*bytes.Buffer, *writer) {
	pre := new(bytes.Buffer)
	pre.WriteString(snapMagicPrefix + "3")
	e := newWriter(pre)
	writeDefs(e, s.Defs)
	st := s.Tuner.(*core.TunerState)
	e.str(st.TunerKind())
	o := st.Options
	for _, v := range []int{o.IdxCnt, o.StateCnt, o.HistSize, o.RandCnt, o.MaxPartSize} {
		e.intv(v)
	}
	e.f64(o.DoiThreshold)
	return pre, e
}

// resum redoes the trailing CRC of a snapshot stream in place.
func resum(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(b[len(snapMagicPrefix)+1:len(b)-4], crcTable))
	return b
}

// TestSnapshotRetiredWorkersSlotIgnored puts 1 into the options slot of
// the retired Workers setting, the value harness-made snapshots may hold,
// in the stream of a tuner snapshotted mid-workload. Unlike a retired
// mode's byte, the slot never moved a trajectory: the stream must decode,
// re-encode with 0 in the slot and every other byte unchanged, and the
// restored tuner must continue bit-identically to the uninterrupted one.
func TestSnapshotRetiredWorkersSlotIgnored(t *testing.T) {
	sqls := testWorkloadSQL(90)
	cut := 60
	full := newTunerRig(t)
	for _, sql := range sqls[:cut] {
		full.analyze(t, sql)
	}
	snap := &Snapshot{
		Defs:    CaptureRegistry(full.reg),
		Tuner:   full.tuner.ExportState(),
		Session: SessionState{Name: "t", Statements: cut},
	}
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()

	// The test's own writer: the v3 stream with 1 in the slot.
	pre, e := v3OptionsHead(snap)
	e.boolv(false) // retired AssumeIndependent
	workersAt := pre.Len()
	e.intv(0)
	if !bytes.HasPrefix(stream, pre.Bytes()) {
		t.Fatalf("reference prefix does not match the written stream")
	}
	legacy := append([]byte(nil), stream...)
	binary.LittleEndian.PutUint64(legacy[workersAt:], 1)
	resum(legacy)

	decoded, err := Read(bytes.NewReader(legacy))
	if err != nil {
		t.Fatalf("reading a snapshot with 1 in the Workers slot: %v", err)
	}
	// legacy is stream with 1 in the slot and its CRC redone, so a
	// re-encoding equal to stream has 0 there and every other byte as read.
	var again bytes.Buffer
	if err := Write(&again, decoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), stream) {
		t.Fatalf("re-encoding differs from the stream written with 0 in the Workers slot")
	}

	restored := restoreRig(t, decoded)
	for i, sql := range sqls[cut:] {
		full.analyze(t, sql)
		restored.analyze(t, sql)
		if !restored.tuner.Recommend().Equal(full.tuner.Recommend()) {
			t.Fatalf("recommendation diverged at continuation statement %d", i+1)
		}
	}
	if !reflect.DeepEqual(full.tuner.ExportState(), restored.tuner.ExportState()) {
		t.Fatalf("final tuner states differ after identical continuation")
	}
}

func TestWALAppendReplayTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	recs := []Record{
		{Type: RecStatement, SQL: "SELECT count(*) FROM tpch.lineitem"},
		{Type: RecVote, Plus: []IndexSpec{{Table: "tpch.lineitem", Columns: []string{"l_shipdate", "l_partkey"}}}},
		{Type: RecAccept},
		{Type: RecStatement, SQL: "UPDATE tpch.orders SET o_comment = o_comment WHERE o_orderdate BETWEEN 1 AND 2"},
	}
	for i, rec := range recs {
		seq, err := w.AppendBatch([]Record{rec})
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d got seq %d", i, seq)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var got []Record
	w, err = OpenWAL(path, func(r Record) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i, r := range got {
		want := recs[i]
		want.Seq = uint64(i + 1)
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("record %d = %+v, want %+v", i, r, want)
		}
	}
	if w.LastSeq() != 4 {
		t.Fatalf("LastSeq = %d, want 4", w.LastSeq())
	}
	w.Close()

	// Tear the tail mid-record: replay must stop at the last intact
	// record, repair the file, and accept new appends.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	got = nil
	w, err = OpenWAL(path, func(r Record) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatalf("reopen torn: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("torn replay returned %d records, want 3", len(got))
	}
	if seq, err := w.AppendBatch([]Record{{Type: RecAccept}}); err != nil || seq != 4 {
		t.Fatalf("append after repair: seq=%d err=%v", seq, err)
	}
	w.Close()

	// Reset truncates content but the sequence counter keeps rising.
	w, err = OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if seq, err := w.AppendBatch([]Record{{Type: RecAccept}}); err != nil || seq != 5 {
		t.Fatalf("append after reset: seq=%d err=%v", seq, err)
	}
	w.Close()
	got = nil
	w, err = OpenWAL(path, func(r Record) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Seq != 5 {
		t.Fatalf("post-reset replay = %+v, want one record with seq 5", got)
	}
	w.Close()
}
