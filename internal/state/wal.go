package state

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"
)

// walMagic identifies a WAL file; the trailing digit versions the record
// layout.
const walMagic = "WFITWAL1"

// RecType distinguishes WAL record kinds.
type RecType uint8

const (
	// RecStatement is one ingested SQL statement (replay re-parses and
	// re-analyzes it; the parser and tuner are deterministic).
	RecStatement RecType = 1
	// RecVote is an explicit DBA feedback event. Indices travel as
	// (table, columns) specs, not IDs: replay resolves them through the
	// same lookup-or-intern path the live vote took, so registry growth
	// is reproduced exactly.
	RecVote RecType = 2
	// RecAccept materializes the recommendation current at that point.
	// It carries no payload — the replayed tuner recomputes the same
	// recommendation, which is what makes recovery self-checking: any
	// divergence earlier in replay surfaces as a different config here.
	RecAccept RecType = 3
	// RecCompact marks a registry compaction (retire-enabled sessions log
	// one on every checkpoint, just before snapshotting). Compaction
	// renumbers the index ID space, so it must happen at the identical
	// stream position during replay — logging it is what keeps recovery
	// bit-identical even when a crash lands between the compaction and
	// the snapshot that would have covered it. No payload: compaction is
	// a deterministic function of the tuner state.
	RecCompact RecType = 4
)

// IndexSpec names an index by definition rather than registry ID.
type IndexSpec struct {
	Table   string
	Columns []string
}

// Record is one WAL entry. Seq is assigned by AppendBatch and strictly
// increases across the session's lifetime, surviving checkpoints (which
// truncate the log but not the counter); a standby's log carries the
// primary's numbers.
type Record struct {
	Seq  uint64
	Type RecType

	SQL         string      // RecStatement
	Plus, Minus []IndexSpec // RecVote
}

// WAL is a single-writer append-only log. AppendBatch frames each record
// with a length prefix and CRC32C and flushes the group to the OS before
// returning, so a killed process (kill -9) loses at most the group being
// written — never an acknowledged record. Fsync additionally syncs to
// stable storage per group, trading throughput for power-failure
// durability. One group is one group commit of the tuning service's
// ingest loop (or one record, for a checkpoint's compaction), or one
// batch a standby received.
type WAL struct {
	f     *os.File
	w     *bufio.Writer
	seq   uint64
	size  int64 // current log size in bytes (header + intact records)
	Fsync bool
	hooks *WALHooks

	// OnCommit, when set, observes every commit (the flush-and-maybe-
	// fsync that acknowledges an AppendBatch):
	// the wall time of the flush and of the fsync (sync is zero when
	// Fsync is off), plus the records and bytes the commit covered. It
	// runs synchronously on the appending goroutine — keep it cheap.
	// The observability layer hangs stage-latency histograms here.
	OnCommit func(flush, sync time.Duration, records int, bytes int64)
}

// WALHooks intercept the WAL's file operations — the seam the
// fault-injection harness threads under the writer to model torn writes
// and delayed or failed fsyncs. Each hook receives the real operation and
// decides whether (and how much of) it happens. Nil hooks (and a nil
// WALHooks) are the production path.
type WALHooks struct {
	// Write replaces a raw file write of a flushed frame buffer. A torn
	// write performs real(p[:k]) and returns an error — exactly what a
	// crash mid-write leaves on disk.
	Write func(p []byte, real func([]byte) (int, error)) (int, error)
	// Sync replaces the per-commit fsync (consulted only when Fsync is
	// set, the only time the real sync would run).
	Sync func(real func() error) error
}

// SetHooks installs fault-injection hooks. Call before appending; the
// WAL does not synchronize hook replacement with in-flight appends.
func (w *WAL) SetHooks(h *WALHooks) { w.hooks = h }

// walSink is the io.Writer behind the append buffer: the file, with the
// write hook (when installed) interposed at flush time.
type walSink struct{ w *WAL }

func (s walSink) Write(p []byte) (int, error) {
	if h := s.w.hooks; h != nil && h.Write != nil {
		return h.Write(p, s.w.f.Write)
	}
	return s.w.f.Write(p)
}

// OpenWAL opens (creating if needed) the log at path for appending. Every
// intact existing record is passed to replay in order; a torn tail —
// truncated frame or CRC mismatch, the signature of a crash mid-write —
// ends the scan and is truncated away so appends restart from the last
// intact record. A nil replay skips delivery but still scans and repairs.
func OpenWAL(path string, replay func(Record) error) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	w := &WAL{f: f}
	end, err := w.scan(replay)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	w.size = end
	w.w = bufio.NewWriter(walSink{w})
	return w, nil
}

// scan reads the header and records, returning the offset just past the
// last intact record (writing the header first if the file is empty).
func (w *WAL) scan(replay func(Record) error) (int64, error) {
	info, err := w.f.Stat()
	if err != nil {
		return 0, err
	}
	if info.Size() == 0 {
		if _, err := w.f.WriteString(walMagic); err != nil {
			return 0, err
		}
		return int64(len(walMagic)), nil
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	r := bufio.NewReader(w.f)
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != walMagic {
		return 0, fmt.Errorf("state: %s is not a WAL (bad magic)", w.f.Name())
	}
	end := int64(len(walMagic))
	var frame [8]byte
	for {
		if _, err := io.ReadFull(r, frame[:]); err != nil {
			break // clean EOF or torn frame header: end of intact log
		}
		n := binary.LittleEndian.Uint32(frame[:4])
		want := binary.LittleEndian.Uint32(frame[4:])
		if n > maxSliceLen || int64(n) > info.Size()-end-8 {
			// Corrupt length, or a payload longer than the bytes left in
			// the file: either way the frame cannot be intact, so treat
			// it as a torn tail — and never allocate more than the file
			// actually holds.
			break
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			break
		}
		if crc32.Checksum(payload, crcTable) != want {
			break
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			break
		}
		if rec.Seq <= w.seq {
			return 0, fmt.Errorf("state: WAL sequence regressed (%d after %d)", rec.Seq, w.seq)
		}
		w.seq = rec.Seq
		if replay != nil {
			if err := replay(rec); err != nil {
				return 0, err
			}
		}
		end += int64(8 + n)
	}
	return end, nil
}

// LastSeq returns the sequence number of the most recent record (0 for an
// empty log).
func (w *WAL) LastSeq() uint64 { return w.seq }

// Size returns the log's current size in bytes (header plus every intact
// record). Sessions use it to trigger snapshots by WAL growth, bounding
// recovery replay time independently of statement cadence.
func (w *WAL) Size() int64 { return w.size }

// AppendBatch assigns consecutive sequence numbers to recs (writing them
// into the slice), frames them all into the buffered writer, then
// performs ONE flush and (when Fsync is set) ONE fsync for the whole
// group. It returns the sequence number of the last record. A standby's
// records arrive numbered by the primary; the session checks that they
// continue this log before appending, so the numbers assigned here are
// the primary's.
//
// Once AppendBatch returns, every record in the batch survives a process
// kill (flushed to the OS), and with Fsync additionally survives power
// loss. Until it returns, nothing in the batch is acknowledged — a crash
// during the call may persist any prefix of the batch (each record is
// framed and CRC'd individually), and recovery keeps that intact prefix
// and truncates the rest as a torn tail. A non-nil error leaves the log
// in an undefined position; callers must stop appending (the tuning
// service poisons the session).
func (w *WAL) AppendBatch(recs []Record) (uint64, error) {
	if len(recs) == 0 {
		return w.seq, nil
	}
	var batchBytes int64
	for i := range recs {
		w.seq++
		recs[i].Seq = w.seq
		payload := encodeRecord(recs[i])
		if err := w.writeFrame(payload); err != nil {
			return 0, err
		}
		batchBytes += int64(8 + len(payload))
	}
	if err := w.commit(len(recs), batchBytes); err != nil {
		return 0, err
	}
	w.size += batchBytes
	return w.seq, nil
}

// writeFrame writes one length+CRC framed payload into the buffered
// writer without flushing.
func (w *WAL) writeFrame(payload []byte) error {
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
	if _, err := w.w.Write(frame[:]); err != nil {
		return err
	}
	_, err := w.w.Write(payload)
	return err
}

// commit flushes buffered frames to the OS and, when Fsync is set, syncs
// them to stable storage. records/bytes describe what the commit covers;
// they flow to OnCommit untouched.
func (w *WAL) commit(records int, bytes int64) error {
	var start time.Time
	if w.OnCommit != nil {
		//lint:allow nondeterminism(flush/fsync timing feeds only OnCommit observability)
		start = time.Now()
	}
	if err := w.w.Flush(); err != nil {
		return err
	}
	var flushed time.Time
	if w.OnCommit != nil {
		//lint:allow nondeterminism(flush/fsync timing feeds only OnCommit observability)
		flushed = time.Now()
	}
	if w.Fsync {
		var err error
		if h := w.hooks; h != nil && h.Sync != nil {
			err = h.Sync(w.f.Sync)
		} else {
			err = w.f.Sync()
		}
		if err != nil {
			return err
		}
	}
	if w.OnCommit != nil {
		var sync time.Duration
		if w.Fsync {
			//lint:allow nondeterminism(flush/fsync timing feeds only OnCommit observability)
			sync = time.Since(flushed)
		}
		w.OnCommit(flushed.Sub(start), sync, records, bytes)
	}
	return nil
}

// SetSeq fast-forwards the sequence counter to seq, so the next
// AppendBatch assigns seq+1. Two callers need it: recovery, to restore
// the counter from the snapshot when the WAL on disk is empty (the
// counter lives in memory and a checkpoint truncates the log without it
// — without the restore, a restart after a clean checkpoint would reissue
// sequence numbers the snapshot already covers, and the NEXT recovery
// would skip those records as old); and a standby bootstrapping from an
// installed snapshot, whose WAL must continue the primary's numbering.
// The counter only moves forward.
func (w *WAL) SetSeq(seq uint64) error {
	if seq < w.seq {
		return fmt.Errorf("state: SetSeq(%d) would regress the WAL sequence (at %d)", seq, w.seq)
	}
	w.seq = seq
	return nil
}

// EncodeRecords serializes records in the WAL's own frame format
// (length + CRC32C per record) — the replication wire payload. Shipping
// the frames a WAL would write keeps the standby's log bit-identical to
// the primary's by construction.
func EncodeRecords(recs []Record) []byte {
	var buf bytes.Buffer
	var frame [8]byte
	for _, rec := range recs {
		payload := encodeRecord(rec)
		binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
		buf.Write(frame[:])
		buf.Write(payload)
	}
	return buf.Bytes()
}

// DecodeRecords parses an EncodeRecords payload. Unlike the tolerant WAL
// scan, any truncation or corruption rejects the whole batch — a torn
// replication message must never be half-applied.
func DecodeRecords(data []byte) ([]Record, error) {
	var out []Record
	for len(data) > 0 {
		if len(data) < 8 {
			return nil, fmt.Errorf("state: truncated replication frame header (%d bytes)", len(data))
		}
		n := binary.LittleEndian.Uint32(data[:4])
		want := binary.LittleEndian.Uint32(data[4:8])
		if n > maxSliceLen || int(n) > len(data)-8 {
			return nil, fmt.Errorf("state: truncated replication frame (%d byte payload, %d remaining)", n, len(data)-8)
		}
		payload := data[8 : 8+n]
		if crc32.Checksum(payload, crcTable) != want {
			return nil, fmt.Errorf("state: replication frame CRC mismatch")
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
		data = data[8+n:]
	}
	return out, nil
}

// FrameSize returns the exact on-disk footprint of rec once appended: the
// 8-byte frame header plus the encoded payload. The encoding is
// fixed-width for the sequence number, so the size does not depend on the
// seq AppendBatch will assign — which is what lets the tuning service
// simulate WAL growth (and cut group commits at checkpoint boundaries)
// before appending anything.
func FrameSize(rec Record) int64 {
	return int64(8 + len(encodeRecord(rec)))
}

// Reset truncates the log back to its header after a checkpoint. The
// sequence counter is NOT reset — snapshot LastSeq plus monotonic record
// seqs are what let recovery skip records a snapshot already covers, even
// if a crash lands between snapshot rename and log truncation.
func (w *WAL) Reset() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	if err := w.f.Truncate(int64(len(walMagic))); err != nil {
		return err
	}
	if _, err := w.f.Seek(int64(len(walMagic)), io.SeekStart); err != nil {
		return err
	}
	w.size = int64(len(walMagic))
	w.w.Reset(walSink{w})
	return nil
}

// Close flushes and closes the log file.
func (w *WAL) Close() error {
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// Abort closes the log file without flushing buffered data. AppendBatch
// flushes eagerly, so this is equivalent to Close for acknowledged
// records; tests use it to model a process killed mid-run.
func (w *WAL) Abort() error { return w.f.Close() }

func encodeRecord(rec Record) []byte {
	var buf bytes.Buffer
	e := newWriter(&buf)
	e.u64(rec.Seq)
	e.u8(uint8(rec.Type))
	switch rec.Type {
	case RecStatement:
		e.str(rec.SQL)
	case RecVote:
		writeSpecs(e, rec.Plus)
		writeSpecs(e, rec.Minus)
	case RecAccept, RecCompact:
	}
	return buf.Bytes()
}

func decodeRecord(payload []byte) (Record, error) {
	d := newReader(bytes.NewReader(payload))
	rec := Record{Seq: d.u64(), Type: RecType(d.u8())}
	switch rec.Type {
	case RecStatement:
		rec.SQL = d.str()
	case RecVote:
		rec.Plus = readSpecs(d)
		rec.Minus = readSpecs(d)
	case RecAccept, RecCompact:
	default:
		return rec, fmt.Errorf("state: unknown WAL record type %d", rec.Type)
	}
	if d.err != nil {
		return rec, d.err
	}
	return rec, nil
}

func writeSpecs(e *writer, specs []IndexSpec) {
	e.lenPrefix(len(specs))
	for _, s := range specs {
		e.str(s.Table)
		e.strs(s.Columns)
	}
}

func readSpecs(d *reader) []IndexSpec {
	return decodeSlice(d, d.lenPrefix(), func() IndexSpec {
		return IndexSpec{Table: d.str(), Columns: d.strs()}
	})
}
