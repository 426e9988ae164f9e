package state

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/interaction"
)

// snapMagicPrefix identifies a snapshot stream; the trailing version
// digit is the format version and bumps on any layout change. Writers
// always emit the current version; readers accept every version listed
// here:
//
//	v1 — the original layout (PR 3).
//	v2 — adds Options.RetireAfter, the retirement counter and F+ vote
//	     pins to the tuner section, and CheckpointBytes to the session
//	     section. A v1 stream decodes with all of them zero — exactly
//	     the semantics those sessions ran with.
//	v3 — prefixes the tuner section with the engine kind tag and
//	     dispatches the payload to the codec registered for that kind
//	     (RegisterTunerCodec). v1/v2 streams decode as kind "wfit";
//	     the wfit payload bytes are unchanged from v2.
const (
	snapMagicPrefix = "WFITSNP"
	snapVersion     = 3
)

// SessionState is the service-level state that travels with a tuner
// snapshot: ingestion counters, the total-work account, and the WAL
// position the snapshot covers (records with Seq <= LastSeq are already
// folded in and replay skips them).
type SessionState struct {
	Name            string
	Statements      int
	TotalWork       float64
	TransitionCost  float64
	Changes         int
	LastSeq         uint64
	QueueDepth      int
	CheckpointEvery int
	// CheckpointBytes triggers an automatic snapshot whenever the WAL
	// grows past this size, bounding replay time regardless of statement
	// cadence (0 disables; v2 snapshots only).
	CheckpointBytes int64
}

// Snapshot is a complete persisted tuner: the index registry in ID order,
// the engine's kind-tagged state payload, and the owning session's
// counters.
type Snapshot struct {
	Defs    []index.Index
	Tuner   TunerState
	Session SessionState
}

// CaptureRegistry exports reg's definitions in ID order as value copies,
// the form RestoreRegistry and the snapshot codec consume.
func CaptureRegistry(reg *index.Registry) []index.Index {
	all := reg.All()
	defs := make([]index.Index, len(all))
	for i, d := range all {
		defs[i] = *d
	}
	return defs
}

// Write serializes the snapshot: magic, sections, and a trailing CRC32C of
// everything after the magic.
func Write(w io.Writer, s *Snapshot) error {
	kind := s.Tuner.TunerKind()
	codec, ok := tunerCodecs[kind]
	if !ok {
		return fmt.Errorf("state: no codec registered for tuner kind %q (registered: %v)", kind, tunerCodecKinds())
	}
	if _, err := fmt.Fprintf(w, "%s%d", snapMagicPrefix, snapVersion); err != nil {
		return err
	}
	e := newWriter(w)
	writeDefs(e, s.Defs)
	e.str(kind)
	codec.Encode(&Encoder{w: e}, s.Tuner)
	writeSession(e, &s.Session)
	crc := e.sum()
	e.u32(crc)
	return e.err
}

// Read deserializes a snapshot, verifying magic, version, and CRC. Every
// version snapMagicPrefix documents is accepted.
func Read(r io.Reader) (*Snapshot, error) {
	magic := make([]byte, len(snapMagicPrefix)+1)
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("state: reading snapshot magic: %w", err)
	}
	if string(magic[:len(snapMagicPrefix)]) != snapMagicPrefix {
		return nil, fmt.Errorf("state: bad snapshot magic %q (want %q)", magic, snapMagicPrefix)
	}
	version := int(magic[len(snapMagicPrefix)] - '0')
	if version < 1 || version > snapVersion {
		return nil, fmt.Errorf("state: unsupported snapshot version %c (supported: 1..%d)", magic[len(snapMagicPrefix)], snapVersion)
	}
	d := newReader(r)
	s := &Snapshot{}
	s.Defs = readDefs(d)
	kind := core.Kind
	if version >= 3 {
		kind = d.str()
	}
	if d.err == nil {
		codec, ok := tunerCodecs[kind]
		if !ok {
			return nil, fmt.Errorf("state: snapshot carries tuner kind %q with no registered codec (registered: %v)", kind, tunerCodecKinds())
		}
		t, err := codec.Decode(&Decoder{r: d}, version)
		if err != nil {
			return nil, fmt.Errorf("state: decoding %q tuner payload: %w", kind, err)
		}
		s.Tuner = t
	}
	readSession(d, &s.Session, version)
	want := d.sum()
	got := d.u32()
	if d.err != nil {
		return nil, fmt.Errorf("state: snapshot decode: %w", d.err)
	}
	if got != want {
		return nil, fmt.Errorf("state: snapshot CRC mismatch (stored %08x, computed %08x)", got, want)
	}
	return s, nil
}

// WriteFile persists the snapshot durably (see WriteFileAtomic).
func WriteFile(path string, s *Snapshot) error {
	return WriteFileAtomic(path, func(w io.Writer) error { return Write(w, s) })
}

// WriteFileAtomic persists the bytes write emits durably: write them to a
// temporary file in the same directory, fsync, and rename over path — so
// path always holds either the previous complete file or the new one,
// never a torn mix.
func WriteFileAtomic(path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	bw := bufio.NewWriter(tmp)
	if err := write(bw); err != nil {
		tmp.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Sync the directory so the rename's entry survives power loss —
	// without it a checkpoint could persist its WAL truncation but lose
	// the new snapshot, dropping acknowledged events.
	return SyncDir(dir)
}

// SyncDir fsyncs a directory, making recent renames and file creations
// in it durable against power failure.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ReadFile loads a snapshot from disk.
func ReadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(bufio.NewReader(f))
}

func writeDefs(e *writer, defs []index.Index) {
	e.lenPrefix(len(defs))
	for _, d := range defs {
		e.u32(uint32(d.ID))
		e.str(d.Table)
		e.strs(d.Columns)
		e.f64(d.LeafPages)
		e.f64(d.Height)
		e.f64(d.CreateCost)
		e.f64(d.DropCost)
	}
}

func readDefs(d *reader) []index.Index {
	return decodeSlice(d, d.lenPrefix(), func() index.Index {
		return index.Index{
			ID:         index.ID(d.u32()),
			Table:      d.str(),
			Columns:    d.strs(),
			LeafPages:  d.f64(),
			Height:     d.f64(),
			CreateCost: d.f64(),
			DropCost:   d.f64(),
		}
	})
}

// writeOptions and readOptions serialize the engine options every tuner
// payload leads with, in the field order writeTuner has used since v1
// (RetireAfter appeared in v2). InitialMaterialized is deliberately not
// serialized here: it travels as the payload's S0 set, and restore paths
// reinject it (see core.RestoreWFIT). The byte after DoiThreshold held
// the retired AssumeIndependent option: it is written as 0, and a 1 fails
// the decode (see readRetired). The int after it held the retired Workers
// option, which bounded a goroutine fan-out inside one analysis and never
// moved a trajectory: it is written as 0, and any value read is dropped.
//
//lint:allow parity(InitialMaterialized travels as the payload S0 set, not in the options block)
func writeOptions(e *writer, o core.Options) {
	e.intv(o.IdxCnt)
	e.intv(o.StateCnt)
	e.intv(o.HistSize)
	e.intv(o.RandCnt)
	e.intv(o.MaxPartSize)
	e.f64(o.DoiThreshold)
	e.boolv(false) // retired AssumeIndependent
	e.intv(0)      // retired Workers
	e.i64(o.Seed)
	e.intv(o.RetireAfter)
}

//lint:allow parity(InitialMaterialized travels as the payload S0 set, not in the options block)
func readOptions(d *reader, version int) core.Options {
	var o core.Options
	o.IdxCnt = d.intv()
	o.StateCnt = d.intv()
	o.HistSize = d.intv()
	o.RandCnt = d.intv()
	o.MaxPartSize = d.intv()
	o.DoiThreshold = d.f64()
	readRetired(d, "AssumeIndependent (interaction-blind WFIT)")
	d.intv() // retired Workers
	o.Seed = d.i64()
	if version >= 2 {
		o.RetireAfter = d.intv()
	}
	return o
}

// readRetired reads the byte of a retired mode flag. Writers have set it
// to 0 since the mode was removed; a 1 is a state no current tuner can
// continue, so the decode fails rather than silently dropping the mode.
func readRetired(d *reader, mode string) {
	if d.boolv() {
		d.fail(fmt.Errorf("state: payload enables the retired %s mode", mode))
	}
}

func writeTuner(e *writer, t *core.TunerState) {
	writeOptions(e, t.Options)

	e.intv(t.N)
	e.intv(t.Repartitions)
	e.intv(t.Retired)
	e.lenPrefix(len(t.Pinned))
	for _, p := range t.Pinned {
		e.u32(uint32(p.ID))
		e.intv(p.Pos)
	}
	e.boolv(false) // retired StatsDisabled
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
}

func readTuner(d *reader, version int) *core.TunerState {
	t := &core.TunerState{}
	t.Options = readOptions(d, version)

	t.N = d.intv()
	t.Repartitions = d.intv()
	if version >= 2 {
		t.Retired = d.intv()
		nPins := d.lenPrefix()
		for i := 0; i < nPins && d.err == nil; i++ {
			t.Pinned = append(t.Pinned, core.PinnedVote{
				ID:  index.ID(d.u32()),
				Pos: d.intv(),
			})
		}
	}
	readRetired(d, "StatsDisabled (fixed-partition WFIT)")
	t.S0 = d.set()
	t.Materialized = d.set()
	t.Universe = d.set()

	nParts := d.lenPrefix()
	for i := 0; i < nParts && d.err == nil; i++ {
		t.Partition = append(t.Partition, d.set())
	}
	nWFA := d.lenPrefix()
	for i := 0; i < nWFA && d.err == nil; i++ {
		t.Parts = append(t.Parts, core.WFAState{
			Cand:    d.idSlice(),
			W:       d.f64s(),
			Base:    d.f64(),
			CurrRec: d.u32(),
		})
	}

	t.IdxStats = readBenefitStats(d)
	t.IntStats = readInteractionStats(d)
	t.RandState = d.u64()
	return t
}

func writeWindow(e *writer, w interaction.WindowState) {
	e.intv(w.Cap)
	e.intv(w.Dropped)
	e.ints(w.Pos)
	e.f64s(w.Vals)
}

func readWindow(d *reader) interaction.WindowState {
	return interaction.WindowState{
		Cap:     d.intv(),
		Dropped: d.intv(),
		Pos:     d.ints(),
		Vals:    d.f64s(),
	}
}

func writeBenefitStats(e *writer, s interaction.BenefitStatsState) {
	e.intv(s.Hist)
	e.lenPrefix(len(s.Entries))
	for _, entry := range s.Entries {
		e.u32(uint32(entry.ID))
		writeWindow(e, entry.Window)
	}
}

func readBenefitStats(d *reader) interaction.BenefitStatsState {
	s := interaction.BenefitStatsState{Hist: d.intv()}
	n := d.lenPrefix()
	for i := 0; i < n && d.err == nil; i++ {
		s.Entries = append(s.Entries, interaction.BenefitWindow{
			ID:     index.ID(d.u32()),
			Window: readWindow(d),
		})
	}
	return s
}

func writeInteractionStats(e *writer, s interaction.InteractionStatsState) {
	e.intv(s.Hist)
	e.lenPrefix(len(s.Entries))
	for _, entry := range s.Entries {
		e.u32(uint32(entry.A))
		e.u32(uint32(entry.B))
		writeWindow(e, entry.Window)
	}
}

func readInteractionStats(d *reader) interaction.InteractionStatsState {
	s := interaction.InteractionStatsState{Hist: d.intv()}
	n := d.lenPrefix()
	for i := 0; i < n && d.err == nil; i++ {
		s.Entries = append(s.Entries, interaction.PairWindow{
			A:      index.ID(d.u32()),
			B:      index.ID(d.u32()),
			Window: readWindow(d),
		})
	}
	return s
}

func writeSession(e *writer, s *SessionState) {
	e.str(s.Name)
	e.intv(s.Statements)
	e.f64(s.TotalWork)
	e.f64(s.TransitionCost)
	e.intv(s.Changes)
	e.u64(s.LastSeq)
	e.intv(s.QueueDepth)
	e.intv(s.CheckpointEvery)
	e.i64(s.CheckpointBytes)
}

func readSession(d *reader, s *SessionState, version int) {
	s.Name = d.str()
	s.Statements = d.intv()
	s.TotalWork = d.f64()
	s.TransitionCost = d.f64()
	s.Changes = d.intv()
	s.LastSeq = d.u64()
	s.QueueDepth = d.intv()
	s.CheckpointEvery = d.intv()
	if version >= 2 {
		s.CheckpointBytes = d.i64()
	}
}
