package state

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/interaction"
)

// TunerState is what a tuner engine exports into a snapshot: an opaque
// payload tagged with the engine kind that owns it, plus the options the
// engine ran with (which a recovering session folds back into its
// configuration). Concrete payloads (core.TunerState for WFIT, the
// bandit engine's state) implement it structurally; the codec that
// serializes each kind registers with RegisterTunerCodec, mirroring how
// WAL record kinds register.
type TunerState interface {
	// TunerKind is the engine kind tag written into v3 snapshots and
	// used to dispatch the payload codec and the restoring factory.
	TunerKind() string
	// TunerOptions returns the engine options carried by the payload.
	TunerOptions() core.Options
}

// TunerCodec serializes one engine kind's payload. Encode and Decode
// must be exact mirrors: every exported payload field round-trips
// bit-identically (float64s via their bit patterns), in a deterministic
// order. wfitlint's parity analyzer checks the pairing.
type TunerCodec struct {
	Kind string
	// Encode writes st's payload (everything after the kind tag).
	Encode func(e *Encoder, st TunerState)
	// Decode reads a payload written by Encode. version is the snapshot
	// format version, for codecs whose layout evolved across versions.
	Decode func(d *Decoder, version int) (TunerState, error)
}

// tunerCodecs is the kind → codec registry. Registration happens in
// init functions only, so no locking is needed.
var tunerCodecs = map[string]TunerCodec{}

// RegisterTunerCodec adds a payload codec to the registry, panicking on
// a duplicate or incomplete registration — both are wiring bugs.
func RegisterTunerCodec(c TunerCodec) {
	if c.Kind == "" || c.Encode == nil || c.Decode == nil {
		panic("state: RegisterTunerCodec with empty kind or nil codec")
	}
	if _, dup := tunerCodecs[c.Kind]; dup {
		panic(fmt.Sprintf("state: duplicate tuner codec kind %q", c.Kind))
	}
	tunerCodecs[c.Kind] = c
}

// tunerCodecKinds returns the registered kinds in sorted order, for
// error messages.
func tunerCodecKinds() []string {
	ks := make([]string, 0, len(tunerCodecs))
	for k := range tunerCodecs {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func init() {
	RegisterTunerCodec(TunerCodec{
		Kind: core.Kind,
		Encode: func(e *Encoder, st TunerState) {
			writeTuner(e.w, st.(*core.TunerState))
		},
		Decode: func(d *Decoder, version int) (TunerState, error) {
			return readTuner(d.r, version), nil
		},
	})
}

// Encoder exposes the snapshot codec's primitives to engine payload
// codecs in other packages. Everything written goes through the same
// little-endian, CRC-folding writer as the built-in sections; the first
// error sticks and later writes are no-ops.
type Encoder struct {
	w *writer
}

// Int writes an int as a little-endian int64.
func (e *Encoder) Int(v int) { e.w.intv(v) }

// I64 writes an int64.
func (e *Encoder) I64(v int64) { e.w.i64(v) }

// U32 writes a uint32.
func (e *Encoder) U32(v uint32) { e.w.u32(v) }

// U64 writes a uint64.
func (e *Encoder) U64(v uint64) { e.w.u64(v) }

// F64 writes a float64 via its exact bit pattern.
func (e *Encoder) F64(v float64) { e.w.f64(v) }

// Bool writes a bool as one byte.
func (e *Encoder) Bool(v bool) { e.w.boolv(v) }

// Len writes a collection length prefix.
func (e *Encoder) Len(n int) { e.w.lenPrefix(n) }

// F64s writes a length-prefixed []float64.
func (e *Encoder) F64s(vs []float64) { e.w.f64s(vs) }

// IDs writes a length-prefixed []index.ID.
func (e *Encoder) IDs(vs []index.ID) { e.w.ids(vs) }

// Set writes an index set as its IDs in ascending order.
func (e *Encoder) Set(s index.Set) { e.w.set(s) }

// Options writes engine options in the shared layout every payload
// leads with (the same field order writeTuner has used since v1).
func (e *Encoder) Options(o core.Options) { writeOptions(e.w, o) }

// BenefitStats writes exported per-index benefit windows.
func (e *Encoder) BenefitStats(s interaction.BenefitStatsState) { writeBenefitStats(e.w, s) }

// Decoder mirrors Encoder for engine payload codecs. The first error
// (including length-bound violations) sticks and zero values flow from
// then on; Snapshot.Read checks it once at the end alongside the CRC.
type Decoder struct {
	r *reader
}

// Int reads an int.
func (d *Decoder) Int() int { return d.r.intv() }

// I64 reads an int64.
func (d *Decoder) I64() int64 { return d.r.i64() }

// U32 reads a uint32.
func (d *Decoder) U32() uint32 { return d.r.u32() }

// U64 reads a uint64.
func (d *Decoder) U64() uint64 { return d.r.u64() }

// F64 reads a float64 from its exact bit pattern.
func (d *Decoder) F64() float64 { return d.r.f64() }

// Bool reads a bool.
func (d *Decoder) Bool() bool { return d.r.boolv() }

// Len reads a collection length prefix, enforcing the global bound.
func (d *Decoder) Len() int { return d.r.lenPrefix() }

// F64s reads a length-prefixed []float64.
func (d *Decoder) F64s() []float64 { return d.r.f64s() }

// IDs reads a length-prefixed []index.ID.
func (d *Decoder) IDs() []index.ID { return d.r.idSlice() }

// Set reads an index set.
func (d *Decoder) Set() index.Set { return d.r.set() }

// Options reads engine options written by Encoder.Options.
func (d *Decoder) Options(version int) core.Options { return readOptions(d.r, version) }

// BenefitStats reads exported per-index benefit windows.
func (d *Decoder) BenefitStats() interaction.BenefitStatsState { return readBenefitStats(d.r) }

// Fail records a payload-level decode error (the first one sticks).
func (d *Decoder) Fail(err error) { d.r.fail(err) }

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.r.err }
