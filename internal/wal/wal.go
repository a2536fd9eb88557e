// Package wal is the mutation write-ahead log behind the durable index: a
// directory of append-only segment files holding length-prefixed,
// CRC32C-checksummed, epoch-stamped Insert/Delete records. A mutation is
// appended — and, under the "always" fsync policy, synced — before its
// epoch is published, so every acknowledged write survives a crash; on
// restart Replay streams the sound prefix of the log back and truncates it
// at the first torn or corrupt record (a typed *CorruptError in the replay
// summary, never a fatal error: the service keeps serving what is sound).
//
// Segments are named by the first epoch they can contain
// ("wal-%020d.seg"), which makes both replay order and garbage collection
// pure name arithmetic: after a checkpoint at version V the log rotates to
// a fresh segment starting at V+1 and every closed segment whose successor
// starts at or below V+1 is fully covered by the checkpoint and removed.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"rrq/internal/faultinject"
	"rrq/internal/obs"
)

// Op identifies a logged mutation.
type Op byte

const (
	// OpInsert logs an index insertion; the record carries the point.
	OpInsert Op = 1
	// OpDelete logs an index deletion; the record carries the slot index.
	OpDelete Op = 2
)

// Record is one logged mutation. Epoch is the index version the mutation
// published (strictly increasing across the log), Point the inserted point
// (OpInsert) and Index the deleted slot (OpDelete).
type Record struct {
	Epoch uint64
	Op    Op
	Point []float64
	Index int
}

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged mutation is on
	// disk before the client sees its new version. The safest and slowest
	// policy.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background timer (Options.Interval): a crash
	// loses at most one interval's worth of acknowledged mutations.
	SyncInterval
	// SyncNever leaves syncing to the OS page cache: fastest, and a crash
	// may lose any acknowledged-but-unflushed suffix. Replay still recovers
	// a sound prefix — durability weakens, consistency does not.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy maps a flag value to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf(`wal: unknown fsync policy %q (want "always", "interval" or "never")`, s)
	}
}

// Options configures a WAL handle.
type Options struct {
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// Interval is the background flush period under SyncInterval
	// (default 100ms).
	Interval time.Duration
	// Metrics, when set, receives wal.appends / wal.replayed /
	// wal.truncated counters and the cumulative wal.sync_ns counter.
	Metrics *obs.Registry
	// Inject arms the WALAppend / WALSync fault points — a test hook; the
	// mutation path has no context to carry an injector through.
	Inject *faultinject.Injector
}

// CorruptError describes the first torn or corrupt record found by Replay:
// the segment file, the byte offset the log was truncated at, and why.
type CorruptError struct {
	Segment string // segment file name
	Offset  int64  // byte offset of the first unsound record
	Reason  string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt log: %s at offset %d in %s (truncated)", e.Reason, e.Offset, e.Segment)
}

// crcTable is the Castagnoli polynomial table (CRC32C), the variant with
// hardware support on current CPUs.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxPayload bounds a record payload; a length prefix beyond it is treated
// as corruption rather than an allocation request.
const maxPayload = 1 << 20

// recHeader is the fixed record prefix: uint32 payload length + uint32
// CRC32C of the payload, little-endian.
const recHeader = 8

// Encode renders r in the on-disk record format:
//
//	uint32  payload length (little-endian)
//	uint32  CRC32C(payload)
//	payload: op byte · uint64 epoch ·
//	         OpInsert: uint32 dim · dim × float64 bits
//	         OpDelete: uint64 slot index
//
// It is exported so tests and the recovery sweep can compute record
// boundaries without a WAL handle.
func Encode(r Record) []byte {
	var n int
	switch r.Op {
	case OpInsert:
		n = 1 + 8 + 4 + 8*len(r.Point)
	case OpDelete:
		n = 1 + 8 + 8
	default:
		panic(fmt.Sprintf("wal: encode of unknown op %d", r.Op))
	}
	buf := make([]byte, recHeader+n)
	p := buf[recHeader:]
	p[0] = byte(r.Op)
	binary.LittleEndian.PutUint64(p[1:], r.Epoch)
	switch r.Op {
	case OpInsert:
		binary.LittleEndian.PutUint32(p[9:], uint32(len(r.Point)))
		for i, x := range r.Point {
			binary.LittleEndian.PutUint64(p[13+8*i:], math.Float64bits(x))
		}
	case OpDelete:
		binary.LittleEndian.PutUint64(p[9:], uint64(r.Index))
	}
	binary.LittleEndian.PutUint32(buf[0:], uint32(n))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(p, crcTable))
	return buf
}

// decodePayload parses a checksum-verified payload. A malformed payload
// after a valid CRC is still reported as corruption (reason non-empty).
func decodePayload(p []byte) (Record, string) {
	if len(p) < 9 {
		return Record{}, "payload shorter than record header"
	}
	r := Record{Op: Op(p[0]), Epoch: binary.LittleEndian.Uint64(p[1:])}
	switch r.Op {
	case OpInsert:
		if len(p) < 13 {
			return Record{}, "insert payload missing dimension"
		}
		dim := int(binary.LittleEndian.Uint32(p[9:]))
		if dim < 0 || len(p) != 13+8*dim {
			return Record{}, fmt.Sprintf("insert payload length %d inconsistent with dim %d", len(p), dim)
		}
		r.Point = make([]float64, dim)
		for i := range r.Point {
			r.Point[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[13+8*i:]))
		}
	case OpDelete:
		if len(p) != 17 {
			return Record{}, fmt.Sprintf("delete payload length %d (want 17)", len(p))
		}
		r.Index = int(binary.LittleEndian.Uint64(p[9:]))
	default:
		return Record{}, fmt.Sprintf("unknown op %d", p[0])
	}
	return r, ""
}

// segPrefix / segSuffix frame segment file names; the middle is the first
// epoch the segment can contain, zero-padded so lexical order is epoch
// order.
const (
	segPrefix = "wal-"
	segSuffix = ".seg"
)

// segName renders the segment file name for a first epoch.
func segName(first uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, first, segSuffix)
}

// segFirst parses a segment file name back to its first epoch.
func segFirst(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	if len(mid) != 20 {
		return 0, false
	}
	var v uint64
	for _, c := range mid {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, true
}

// listSegments returns the segment file names in dir in epoch order.
func listSegments(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []string
	for _, e := range ents {
		if _, ok := segFirst(e.Name()); ok && !e.IsDir() {
			segs = append(segs, e.Name())
		}
	}
	sort.Strings(segs)
	return segs, nil
}

// WAL is an open, appendable log. Create with Open; safe for concurrent
// use, though the index serializes mutations (and therefore appends)
// anyway.
type WAL struct {
	dir string
	o   Options

	mu      sync.Mutex
	f       *os.File
	name    string // active segment file name
	first   uint64 // first epoch of the active segment
	records int    // records appended to the active segment
	off     int64  // bytes of fully appended records in the active segment
	dirty   bool   // unsynced appends (interval policy)
	failed  error  // sticky: the segment holds garbage that could not be rolled back

	stopc chan struct{}
	wg    sync.WaitGroup
}

// Open creates a fresh active segment in dir for records starting at
// nextEpoch and returns the appendable log. Pre-existing segments are left
// untouched (replay and checkpoint GC own them); a same-named leftover
// segment is truncated, which is safe because a segment named nextEpoch
// with sound records would have moved nextEpoch past itself during replay.
func Open(dir string, nextEpoch uint64, o Options) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	w := &WAL{dir: dir, o: o}
	if err := w.openSegment(nextEpoch); err != nil {
		return nil, err
	}
	if o.Sync == SyncInterval {
		w.stopc = make(chan struct{})
		w.wg.Add(1)
		go w.syncLoop()
	}
	return w, nil
}

// openSegment creates and activates the segment for first. Caller holds
// w.mu (or the WAL is not yet shared).
func (w *WAL) openSegment(first uint64) error {
	name := segName(first)
	f, err := os.OpenFile(filepath.Join(w.dir, name), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	w.f, w.name, w.first, w.records, w.dirty = f, name, first, 0, false
	w.off = 0
	return nil
}

// counter bumps a named WAL counter (a no-op without metrics).
func (w *WAL) counter(name string, n int64) { w.o.Metrics.Counter(name).Add(n) }

// Append encodes and writes r, honoring the fsync policy. On error the
// caller must treat the mutation as failed (it was never published); the
// rejected record's bytes are rolled back out of the active segment so a
// later successful append never lands after garbage — and when the segment
// cannot be restored (rollback failure, or an injected crash-simulating
// torn write) the log fails permanently: every later Append is rejected,
// which preserves the rule that an acknowledged record is always preceded
// only by sound bytes.
func (w *WAL) Append(r Record) error {
	buf := Encode(r)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("wal: append on closed log")
	}
	if w.failed != nil {
		return w.failed
	}
	if in := w.o.Inject; in != nil {
		if f := in.Plan(faultinject.WALAppend, r.Point); f != nil {
			if f.ShortWrite > 0 && f.ShortWrite < len(buf) {
				// Crash simulation: the torn tail stays on disk for recovery
				// to repair, so this handle must never append after it — a
				// real crash mid-write would not have either.
				_, _ = w.f.Write(buf[:f.ShortWrite])
				_ = w.f.Sync()
				w.failed = fmt.Errorf("wal: log failed: torn tail at offset %d in %s", w.off, w.name)
				if f.Err != nil {
					return fmt.Errorf("wal: append: %w", f.Err)
				}
				return fmt.Errorf("wal: append: short write (%d of %d bytes)", f.ShortWrite, len(buf))
			}
			if f.Err != nil {
				return fmt.Errorf("wal: append: %w", f.Err)
			}
		}
	}
	if _, err := w.f.Write(buf); err != nil {
		return w.rollback(fmt.Errorf("wal: append: %w", err))
	}
	if w.o.Sync == SyncAlways {
		if err := w.syncLocked(); err != nil {
			return w.rollback(err)
		}
	} else if w.o.Sync == SyncInterval {
		w.dirty = true
	}
	w.off += int64(len(buf))
	w.records++
	w.counter("wal.appends", 1)
	return nil
}

// rollback restores the active segment to the end of the last sound record
// after a failed append: the rejected record's torn or complete bytes must
// not remain, or the next successful append would land after them and
// replay would truncate every acknowledged record behind the tear (or
// resurrect the rejected one). When the restore itself fails the log is
// failed permanently so later mutations are rejected rather than logged
// after garbage. Returns err for the caller to surface. Caller holds w.mu.
func (w *WAL) rollback(err error) error {
	if terr := w.f.Truncate(w.off); terr != nil {
		w.failed = fmt.Errorf("wal: log failed: rejected append not rolled back (%v) after: %v", terr, err)
		return err
	}
	if _, serr := w.f.Seek(w.off, io.SeekStart); serr != nil {
		w.failed = fmt.Errorf("wal: log failed: seek after rollback (%v) after: %v", serr, err)
		return err
	}
	return err
}

// Sync flushes the active segment to stable storage regardless of policy.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

func (w *WAL) syncLocked() error {
	if w.f == nil {
		return nil
	}
	if in := w.o.Inject; in != nil {
		if err := in.Fire(faultinject.WALSync, nil); err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	w.counter("wal.sync_ns", time.Since(start).Nanoseconds())
	w.dirty = false
	return nil
}

// syncLoop is the SyncInterval background flusher.
func (w *WAL) syncLoop() {
	defer w.wg.Done()
	t := time.NewTicker(w.o.Interval)
	defer t.Stop()
	for {
		select {
		case <-w.stopc:
			return
		case <-t.C:
			w.mu.Lock()
			if w.dirty {
				_ = w.syncLocked()
			}
			w.mu.Unlock()
		}
	}
}

// ActiveRecords returns the number of records appended to the active
// segment since the last rotation.
func (w *WAL) ActiveRecords() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

// Rotate syncs and closes the active segment and starts a fresh one for
// records from nextEpoch on — the step after a checkpoint at nextEpoch−1.
// Rotating onto the same first epoch (no records since the last rotation)
// is a no-op.
func (w *WAL) Rotate(nextEpoch uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("wal: rotate on closed log")
	}
	if w.failed != nil {
		// Rotating would strand the unrepaired tail in a closed segment:
		// replay stops there and drops every later segment, so records
		// appended after the rotation would be acknowledged yet unsound.
		return w.failed
	}
	if nextEpoch == w.first && w.records == 0 {
		return nil
	}
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	return w.openSegment(nextEpoch)
}

// GCThrough removes every closed segment fully covered by a checkpoint at
// version epoch. Coverage is name arithmetic: segments are ordered by
// their first epoch, so a closed segment is complete through its
// successor's first epoch − 1; it is removed when that bound is ≤ epoch.
// Returns the number of segments removed.
func (w *WAL) GCThrough(epoch uint64) (int, error) {
	w.mu.Lock()
	active := w.name
	w.mu.Unlock()
	segs, err := listSegments(w.dir)
	if err != nil {
		return 0, fmt.Errorf("wal: gc: %w", err)
	}
	removed := 0
	for i, s := range segs {
		if s == active {
			continue
		}
		var succ uint64
		if i+1 < len(segs) {
			succ, _ = segFirst(segs[i+1])
		} else {
			continue // no successor: cannot bound its contents, keep it
		}
		if succ == 0 || succ-1 > epoch {
			continue
		}
		if err := os.Remove(filepath.Join(w.dir, s)); err != nil {
			return removed, fmt.Errorf("wal: gc: %w", err)
		}
		removed++
	}
	return removed, nil
}

// PurgeOthers removes every segment except the active one — the recovery
// epilogue: once the recovered state is checkpointed, every pre-existing
// segment (sound or orphaned beyond a truncation) is obsolete. Returns the
// number of segments removed.
func (w *WAL) PurgeOthers() (int, error) {
	w.mu.Lock()
	active := w.name
	w.mu.Unlock()
	segs, err := listSegments(w.dir)
	if err != nil {
		return 0, fmt.Errorf("wal: purge: %w", err)
	}
	removed := 0
	for _, s := range segs {
		if s == active {
			continue
		}
		if err := os.Remove(filepath.Join(w.dir, s)); err != nil {
			return removed, fmt.Errorf("wal: purge: %w", err)
		}
		removed++
	}
	return removed, nil
}

// Close stops the background flusher, syncs and closes the active segment.
func (w *WAL) Close() error {
	if w.stopc != nil {
		close(w.stopc)
		w.wg.Wait()
		w.stopc = nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.syncLocked()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// ReplayInfo summarizes a Replay: how many sound records were streamed,
// the last epoch seen, how many segment files were visited, and — when the
// log ended in a torn or corrupt record — the truncation that repaired it
// plus any later segments that were dropped as causally unsound.
type ReplayInfo struct {
	Records     int
	LastEpoch   uint64
	Segments    int
	Truncated   *CorruptError
	DroppedSegs int
}

// Replay streams every sound record in dir, in epoch order, to fn. The
// first torn or corrupt record ends the replay: the segment is physically
// truncated at the record's start offset, segments after it are removed
// (their records are causally after the corruption and cannot be soundly
// applied), and the repair is reported in ReplayInfo.Truncated — not as an
// error. An error from fn, or an I/O failure, aborts the replay and is
// returned as the error. Metrics (when configured) receive wal.replayed
// per sound record and wal.truncated per truncation event.
func Replay(dir string, o Options, fn func(Record) error) (ReplayInfo, error) {
	var info ReplayInfo
	segs, err := listSegments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return info, nil
		}
		return info, fmt.Errorf("wal: replay: %w", err)
	}
	counter := func(name string, n int64) { o.Metrics.Counter(name).Add(n) }
	for si, seg := range segs {
		info.Segments++
		corrupt, err := replaySegment(dir, seg, &info, fn, counter)
		if err != nil {
			return info, err
		}
		if corrupt != nil {
			info.Truncated = corrupt
			counter("wal.truncated", 1)
			for _, later := range segs[si+1:] {
				if err := os.Remove(filepath.Join(dir, later)); err != nil {
					return info, fmt.Errorf("wal: replay: dropping unsound segment: %w", err)
				}
				info.DroppedSegs++
			}
			return info, nil
		}
	}
	return info, nil
}

// replaySegment streams one segment's sound records. A torn or corrupt
// record truncates the file at its start and is returned as the
// *CorruptError (nil error); fn and I/O failures return a real error.
func replaySegment(dir, seg string, info *ReplayInfo, fn func(Record) error, counter func(string, int64)) (*CorruptError, error) {
	path := filepath.Join(dir, seg)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wal: replay: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("wal: replay: %w", err)
	}
	size := fi.Size()

	truncate := func(off int64, reason string) (*CorruptError, error) {
		if err := os.Truncate(path, off); err != nil {
			return nil, fmt.Errorf("wal: replay: truncating corrupt tail: %w", err)
		}
		return &CorruptError{Segment: seg, Offset: off, Reason: reason}, nil
	}

	var off int64
	hdr := make([]byte, recHeader)
	for {
		n, err := io.ReadFull(f, hdr)
		if err == io.EOF {
			return nil, nil // clean segment end
		}
		if err == io.ErrUnexpectedEOF {
			return truncate(off, fmt.Sprintf("torn record header (%d of %d bytes)", n, recHeader))
		}
		if err != nil {
			return nil, fmt.Errorf("wal: replay: %w", err)
		}
		plen := binary.LittleEndian.Uint32(hdr[0:])
		want := binary.LittleEndian.Uint32(hdr[4:])
		if plen == 0 || plen > maxPayload {
			return truncate(off, fmt.Sprintf("implausible payload length %d", plen))
		}
		// A length the segment cannot hold is a torn record: reject it
		// before allocating for it.
		if avail := size - off - recHeader; int64(plen) > avail {
			return truncate(off, fmt.Sprintf("torn record payload (%d of %d bytes)", avail, plen))
		}
		payload := make([]byte, plen)
		if n, err := io.ReadFull(f, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return truncate(off, fmt.Sprintf("torn record payload (%d of %d bytes)", n, plen))
			}
			return nil, fmt.Errorf("wal: replay: %w", err)
		}
		if got := crc32.Checksum(payload, crcTable); got != want {
			return truncate(off, fmt.Sprintf("checksum mismatch (stored %08x, computed %08x)", want, got))
		}
		rec, reason := decodePayload(payload)
		if reason != "" {
			return truncate(off, reason)
		}
		if rec.Epoch <= info.LastEpoch {
			return truncate(off, fmt.Sprintf("epoch %d not after %d", rec.Epoch, info.LastEpoch))
		}
		if err := fn(rec); err != nil {
			return nil, err
		}
		info.Records++
		info.LastEpoch = rec.Epoch
		counter("wal.replayed", 1)
		off += int64(recHeader) + int64(plen)
	}
}
