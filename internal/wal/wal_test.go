package wal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"rrq/internal/faultinject"
	"rrq/internal/obs"
)

func mustAppend(t *testing.T, w *WAL, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatalf("Append(%+v): %v", r, err)
		}
	}
}

func collect(t *testing.T, dir string, o Options) ([]Record, ReplayInfo) {
	t.Helper()
	var got []Record
	info, err := Replay(dir, o, func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got, info
}

func testRecords() []Record {
	return []Record{
		{Epoch: 2, Op: OpInsert, Point: []float64{0.25, 0.5, 0.25}},
		{Epoch: 3, Op: OpDelete, Index: 1},
		{Epoch: 4, Op: OpInsert, Point: []float64{0.9, 0.05, 0.05}},
		{Epoch: 5, Op: OpInsert, Point: []float64{1. / 3, 1. / 3, 1. / 3}},
		{Epoch: 6, Op: OpDelete, Index: 0},
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	w, err := Open(dir, 2, Options{Sync: SyncAlways, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	mustAppend(t, w, recs...)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, info := collect(t, dir, Options{Metrics: reg})
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("replayed records differ:\n got %+v\nwant %+v", got, recs)
	}
	if info.Truncated != nil || info.Records != len(recs) || info.LastEpoch != 6 {
		t.Fatalf("unexpected replay info %+v", info)
	}
	if n := reg.Counter("wal.appends").Value(); n != int64(len(recs)) {
		t.Fatalf("wal.appends = %d, want %d", n, len(recs))
	}
	if n := reg.Counter("wal.replayed").Value(); n != int64(len(recs)) {
		t.Fatalf("wal.replayed = %d, want %d", n, len(recs))
	}
	if reg.Counter("wal.sync_ns").Value() <= 0 {
		t.Fatal("wal.sync_ns not accumulated under SyncAlways")
	}
}

func TestReplayEmptyAndMissingDir(t *testing.T) {
	if _, info := collect(t, t.TempDir(), Options{}); info.Records != 0 || info.Truncated != nil {
		t.Fatalf("empty dir replay info %+v", info)
	}
	info, err := Replay(filepath.Join(t.TempDir(), "nope"), Options{}, func(Record) error { return nil })
	if err != nil || info.Records != 0 {
		t.Fatalf("missing dir: info %+v err %v", info, err)
	}
}

// TestTornTailTruncation cuts the log mid-record at every possible byte
// offset of the final record and checks replay recovers exactly the sound
// prefix, truncates the file, and counts the repair.
func TestTornTailTruncation(t *testing.T) {
	recs := testRecords()
	full := t.TempDir()
	w, err := Open(full, 2, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, recs...)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := segName(2)
	raw, err := os.ReadFile(filepath.Join(full, seg))
	if err != nil {
		t.Fatal(err)
	}
	var bound int64
	for _, r := range recs[:len(recs)-1] {
		bound += int64(len(Encode(r)))
	}
	for cut := bound + 1; cut < int64(len(raw)); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, seg), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		got, info := collect(t, dir, Options{Metrics: reg})
		if len(got) != len(recs)-1 {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(got), len(recs)-1)
		}
		if info.Truncated == nil || info.Truncated.Offset != bound || info.Truncated.Segment != seg {
			t.Fatalf("cut %d: truncation %+v, want offset %d in %s", cut, info.Truncated, bound, seg)
		}
		if fi, err := os.Stat(filepath.Join(dir, seg)); err != nil || fi.Size() != bound {
			t.Fatalf("cut %d: file size %v err %v, want %d", cut, fi.Size(), err, bound)
		}
		if n := reg.Counter("wal.truncated").Value(); n != 1 {
			t.Fatalf("cut %d: wal.truncated = %d, want 1", cut, n)
		}
		// The repaired log must replay cleanly.
		again, info2 := collect(t, dir, Options{})
		if len(again) != len(recs)-1 || info2.Truncated != nil {
			t.Fatalf("cut %d: repaired log replay %d records, truncated %+v", cut, len(again), info2.Truncated)
		}
	}
}

// TestBitFlipCorruption flips one byte in a mid-log record: replay keeps
// the sound prefix, truncates at the corrupt record and drops everything
// after it (including later segments).
func TestBitFlipCorruption(t *testing.T) {
	recs := testRecords()
	dir := t.TempDir()
	w, err := Open(dir, 2, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, recs[:3]...)
	if err := w.Rotate(5); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, recs[3:]...)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte of record 2 (epoch 3) in the first segment.
	path := filepath.Join(dir, segName(2))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(len(Encode(recs[0])))
	raw[off+recHeader+3] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	got, info := collect(t, dir, Options{})
	if len(got) != 1 || got[0].Epoch != 2 {
		t.Fatalf("replayed %+v, want only epoch 2", got)
	}
	if info.Truncated == nil || info.Truncated.Offset != off {
		t.Fatalf("truncation %+v, want offset %d", info.Truncated, off)
	}
	if info.DroppedSegs != 1 {
		t.Fatalf("dropped %d segments, want 1", info.DroppedSegs)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(5))); !os.IsNotExist(err) {
		t.Fatalf("later segment survived corruption: %v", err)
	}
}

func TestRotateAndGC(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, 2, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	mustAppend(t, w, recs[:2]...) // epochs 2,3 in segment 2
	if err := w.Rotate(4); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, recs[2:4]...) // epochs 4,5 in segment 4
	if err := w.Rotate(6); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, recs[4:]...) // epoch 6 in segment 6

	// A checkpoint at version 3 covers only segment 2.
	if n, err := w.GCThrough(3); err != nil || n != 1 {
		t.Fatalf("GCThrough(3) = %d, %v; want 1 removed", n, err)
	}
	// A checkpoint at version 5 covers segment 4 too; the active segment
	// is never collected.
	if n, err := w.GCThrough(5); err != nil || n != 1 {
		t.Fatalf("GCThrough(5) = %d, %v; want 1 removed", n, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 || segs[0] != segName(6) {
		t.Fatalf("segments after GC: %v (err %v), want only %s", segs, err, segName(6))
	}
	got, _ := collect(t, dir, Options{})
	if len(got) != 1 || got[0].Epoch != 6 {
		t.Fatalf("post-GC replay %+v, want only epoch 6", got)
	}
}

func TestRotateSameEpochNoRecordsIsNoop(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, 7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Rotate(7); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) != 1 {
		t.Fatalf("segments %v, want exactly one", segs)
	}
}

// TestShortWriteFault arms the WALAppend short-write fault: the append
// fails, the segment holds a torn tail, and replay repairs it.
func TestShortWriteFault(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("disk full")
	in := faultinject.New(&faultinject.Fault{
		Point: faultinject.WALAppend, ShortWrite: 5, Err: boom, Times: 1,
	})
	w, err := Open(dir, 2, Options{Sync: SyncAlways, Inject: in})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	if err := w.Append(recs[0]); !errors.Is(err, boom) {
		t.Fatalf("faulted append error = %v, want %v", err, boom)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	got, info := collect(t, dir, Options{Metrics: reg})
	if len(got) != 0 || info.Truncated == nil || info.Truncated.Offset != 0 {
		t.Fatalf("replay of torn-only log: %d records, truncation %+v", len(got), info.Truncated)
	}

	// After repair the log accepts appends again from a fresh handle.
	w2, err := Open(dir, 2, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w2, recs[0])
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := collect(t, dir, Options{}); len(got) != 1 {
		t.Fatalf("replay after repair: %d records, want 1", len(got))
	}
}

// TestSyncFault arms WALSync: under SyncAlways the append surfaces the
// sync failure.
func TestSyncFault(t *testing.T) {
	boom := errors.New("sync exploded")
	in := faultinject.New(&faultinject.Fault{Point: faultinject.WALSync, Err: boom, Times: 1})
	w, err := Open(t.TempDir(), 2, Options{Sync: SyncAlways, Inject: in})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testRecords()[0]); !errors.Is(err, boom) {
		t.Fatalf("append under sync fault = %v, want %v", err, boom)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncFaultRollsBack: a record whose bytes reached the file but whose
// fsync failed is rolled back out of the segment, so acknowledged appends
// after the rejection replay cleanly — no resurrection of the rejected
// record, no truncation of the acknowledged tail behind it.
func TestSyncFaultRollsBack(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("sync exploded")
	in := faultinject.New(&faultinject.Fault{Point: faultinject.WALSync, Err: boom, Times: 1})
	w, err := Open(dir, 2, Options{Sync: SyncAlways, Inject: in})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	if err := w.Append(recs[0]); !errors.Is(err, boom) {
		t.Fatalf("append under sync fault = %v, want %v", err, boom)
	}
	// Retry the same epoch (the mutation was rejected, so its successor
	// reuses it) and keep appending: every record below is acknowledged.
	mustAppend(t, w, recs...)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, info := collect(t, dir, Options{})
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("replayed records differ:\n got %+v\nwant %+v", got, recs)
	}
	if info.Truncated != nil {
		t.Fatalf("log of only acknowledged records was truncated: %+v", info.Truncated)
	}
}

// TestTornTailFailsLogPermanently: after an injected crash-simulating torn
// write the torn bytes stay on disk for recovery to repair, so the handle
// must reject every later append and rotation — otherwise acknowledged
// records would land behind a tear that replay truncates.
func TestTornTailFailsLogPermanently(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("power cut")
	in := faultinject.New(&faultinject.Fault{
		Point: faultinject.WALAppend, ShortWrite: 5, Err: boom, Times: 1,
	})
	w, err := Open(dir, 2, Options{Sync: SyncAlways, Inject: in})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	if err := w.Append(recs[0]); !errors.Is(err, boom) {
		t.Fatalf("faulted append error = %v, want %v", err, boom)
	}
	if err := w.Append(recs[1]); err == nil || !strings.Contains(err.Error(), "log failed") {
		t.Fatalf("append after torn tail = %v, want permanent log failure", err)
	}
	if err := w.Rotate(10); err == nil || !strings.Contains(err.Error(), "log failed") {
		t.Fatalf("rotate after torn tail = %v, want permanent log failure", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got, info := collect(t, dir, Options{}); len(got) != 0 || info.Truncated == nil {
		t.Fatalf("replay: %d records, truncation %+v — want empty log repaired at the tear", len(got), info.Truncated)
	}
}

func TestIntervalSyncFlushes(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, 2, Options{Sync: SyncInterval, Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, testRecords()[0])
	deadline := time.Now().Add(2 * time.Second)
	for {
		w.mu.Lock()
		dirty := w.dirty
		w.mu.Unlock()
		if !dirty {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("interval syncer never flushed")
		}
		time.Sleep(time.Millisecond)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{"always": SyncAlways, "interval": SyncInterval, "never": SyncNever} {
		got, err := ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("String() = %q, want %q", got.String(), s)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseSyncPolicy accepted junk")
	}
}

func TestSegNameRoundTrip(t *testing.T) {
	for _, e := range []uint64{1, 42, 1 << 40} {
		got, ok := segFirst(segName(e))
		if !ok || got != e {
			t.Fatalf("segFirst(segName(%d)) = %d, %v", e, got, ok)
		}
	}
	for _, junk := range []string{"wal-12.seg", "checkpoint-1.ckpt", "wal-0000000000000000000x.seg"} {
		if _, ok := segFirst(junk); ok {
			t.Fatalf("segFirst accepted %q", junk)
		}
	}
}

func TestNonMonotoneEpochIsCorruption(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w,
		Record{Epoch: 2, Op: OpDelete, Index: 0},
		Record{Epoch: 2, Op: OpDelete, Index: 1}, // repeated epoch: unsound
	)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, info := collect(t, dir, Options{})
	if len(got) != 1 || info.Truncated == nil {
		t.Fatalf("replay = %d records, truncated %+v; want 1 record + truncation", len(got), info.Truncated)
	}
}

// FuzzReplay: arbitrary bytes written as a segment replay to a sound
// record prefix plus, at worst, a typed *CorruptError truncation — never a
// panic or an error — and a length prefix never buys an allocation the
// segment cannot back.
func FuzzReplay(f *testing.F) {
	var log []byte
	for _, r := range testRecords() {
		log = append(log, Encode(r)...)
	}
	f.Add(log)
	for _, cut := range []int{1, recHeader - 1, recHeader, recHeader + 5, len(log) / 2, len(log) - 1} {
		f.Add(log[:cut])
	}
	flipped := append([]byte(nil), log...)
	flipped[recHeader+3] ^= 0x40
	f.Add(flipped)
	huge := make([]byte, recHeader)
	binary.LittleEndian.PutUint32(huge, maxPayload) // claims 1 MiB, carries none
	f.Add(huge)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		seg := segName(1)
		if err := os.WriteFile(filepath.Join(dir, seg), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var got []Record
		info, err := Replay(dir, Options{}, func(r Record) error {
			got = append(got, r)
			return nil
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("Replay error %v, want records or a truncation", err)
		}
		if info.Records != len(got) {
			t.Fatalf("info.Records = %d, streamed %d", info.Records, len(got))
		}
		if info.Truncated != nil {
			if info.Truncated.Segment != seg || info.Truncated.Offset < 0 || info.Truncated.Offset > int64(len(data)) {
				t.Fatalf("truncation %+v outside the %d-byte segment", info.Truncated, len(data))
			}
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > maxPayload {
			t.Fatalf("Replay of a %d-byte segment allocated %d bytes, more than maxPayload", len(data), d)
		}
	})
}
