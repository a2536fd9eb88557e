package index

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rrq/internal/faultinject"
	"rrq/internal/obs"
	"rrq/internal/vec"
	"rrq/internal/wal"
)

func seedBuilder(t *testing.T) func() (*Index, error) {
	t.Helper()
	return func() (*Index, error) {
		return Build([]vec.Vec{
			{0.9, 0.2, 0.3}, {0.4, 0.8, 0.1}, {0.2, 0.3, 0.9}, {0.7, 0.7, 0.2}, {0.5, 0.5, 0.5},
		}, 3)
	}
}

func openDurable(t *testing.T, dir string, o DurableOptions) (*Index, *Durable, *Recovery) {
	t.Helper()
	o.Dir = dir
	ix, d, rec, err := OpenDurable(o, seedBuilder(t))
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	return ix, d, rec
}

func points(ix *Index) []vec.Vec { return ix.Snapshot().Points() }

// samePoints compares two datasets exactly (durability must be bit-exact).
func samePoints(a, b []vec.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestDurableCrashRecovery mutates a durable index, drops the handle
// without any clean shutdown (the WAL under SyncAlways is the only
// persistence), reopens, and requires the exact version and points.
func TestDurableCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	ix, _, rec := openDurable(t, dir, DurableOptions{Sync: wal.SyncAlways})
	if !rec.Fresh || rec.Version != 1 {
		t.Fatalf("fresh open recovery %+v", rec)
	}
	if _, err := ix.Insert(vec.Vec{0.25, 0.25, 0.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Delete(1); err != nil {
		t.Fatal(err)
	}
	if v, err := ix.Insert(vec.Vec{0.1, 0.1, 0.8}); err != nil || v != 4 {
		t.Fatalf("insert: v=%d err=%v", v, err)
	}
	want := points(ix)
	// No Close, no Checkpoint: simulate a crash by abandoning the handle.

	ix2, _, rec2 := openDurable(t, dir, DurableOptions{Sync: wal.SyncAlways})
	if rec2.Fresh {
		t.Fatal("recovery claims fresh despite checkpoint + WAL on disk")
	}
	if rec2.CheckpointVersion != 1 || rec2.Replayed != 3 || rec2.Version != 4 {
		t.Fatalf("recovery %+v, want checkpoint 1 + 3 replayed to version 4", rec2)
	}
	if ix2.Version() != 4 || !samePoints(points(ix2), want) {
		t.Fatalf("recovered index: version %d, points differ: %v vs %v", ix2.Version(), points(ix2), want)
	}
}

// TestDurableCleanShutdownNeedsNoReplay: Checkpoint + Close, then reopen —
// everything comes from the checkpoint, the WAL tail is empty.
func TestDurableCleanShutdownNeedsNoReplay(t *testing.T) {
	dir := t.TempDir()
	ix, d, _ := openDurable(t, dir, DurableOptions{Sync: wal.SyncAlways})
	if _, err := ix.Insert(vec.Vec{0.25, 0.25, 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if v := d.LastCheckpointVersion(); v != 2 {
		t.Fatalf("LastCheckpointVersion = %d, want 2", v)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, rec := openDurable(t, dir, DurableOptions{Sync: wal.SyncAlways})
	if rec.Replayed != 0 || rec.CheckpointVersion != 2 || rec.Version != 2 {
		t.Fatalf("post-clean-shutdown recovery %+v, want zero replay from checkpoint 2", rec)
	}
}

// TestDurableAutoCheckpoint: every N records a checkpoint lands, the WAL
// rotates and covered segments are collected.
func TestDurableAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	ix, d, _ := openDurable(t, dir, DurableOptions{Sync: wal.SyncAlways, CheckpointEvery: 3, Metrics: reg})
	for i := 0; i < 7; i++ {
		if _, err := ix.Insert(vec.Vec{0.2, 0.3, 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	// Mutations 3 and 6 crossed the cadence: checkpoints at versions 4 and
	// 7, plus the recovery checkpoint at open = 3 writes.
	if n := reg.Counter("checkpoint.writes").Value(); n != 3 {
		t.Fatalf("checkpoint.writes = %d, want 3", n)
	}
	if v := d.LastCheckpointVersion(); v != 7 {
		t.Fatalf("LastCheckpointVersion = %d, want 7", v)
	}
	names, err := listCheckpoints(dir)
	if err != nil || len(names) != 2 {
		t.Fatalf("checkpoints on disk: %v (err %v), want newest 2", names, err)
	}
	if names[0] != ckptName(7) || names[1] != ckptName(4) {
		t.Fatalf("kept checkpoints %v, want versions 7 and 4", names)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Recovery replays only the records past the newest checkpoint.
	_, _, rec := openDurable(t, dir, DurableOptions{Sync: wal.SyncAlways, CheckpointEvery: 3})
	if rec.CheckpointVersion != 7 || rec.Replayed != 1 || rec.Version != 8 {
		t.Fatalf("recovery %+v, want checkpoint 7 + 1 replayed", rec)
	}
}

// TestDurableTornTailRecovery simulates a crash mid-append (short write):
// recovery truncates the tear, serves the acknowledged prefix, and counts
// the repair.
func TestDurableTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("power cut")
	in := faultinject.New(&faultinject.Fault{
		Point: faultinject.WALAppend, ShortWrite: 7, Err: boom, Times: 1,
		Match: func(key []float64) bool { return key != nil && key[0] == 0.1 },
	})
	ix, _, _ := openDurable(t, dir, DurableOptions{Sync: wal.SyncAlways, Inject: in})
	if _, err := ix.Insert(vec.Vec{0.25, 0.25, 0.5}); err != nil {
		t.Fatal(err)
	}
	want := points(ix)
	// The faulted append: mutation rejected, torn bytes on disk.
	if _, err := ix.Insert(vec.Vec{0.1, 0.2, 0.7}); !errors.Is(err, boom) {
		t.Fatalf("faulted insert error = %v, want %v", err, boom)
	}
	if ix.Version() != 2 {
		t.Fatalf("rejected mutation published version %d", ix.Version())
	}

	reg := obs.NewRegistry()
	ix2, _, rec := openDurable(t, dir, DurableOptions{Sync: wal.SyncAlways, Metrics: reg})
	if rec.Truncated == nil {
		t.Fatalf("recovery %+v, want torn-tail truncation", rec)
	}
	if rec.Version != 2 || !samePoints(points(ix2), want) {
		t.Fatalf("recovered version %d points %v, want version 2 %v", rec.Version, points(ix2), want)
	}
	if n := reg.Counter("wal.truncated").Value(); n != 1 {
		t.Fatalf("wal.truncated = %d, want 1", n)
	}
}

// TestDurableCorruptCheckpointFallsBack: the newest checkpoint is
// bit-flipped; recovery must reject it (typed), fall back to the previous
// checkpoint and replay the WAL records past it.
func TestDurableCorruptCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	ix, d, _ := openDurable(t, dir, DurableOptions{Sync: wal.SyncAlways, CheckpointEvery: 2})
	for i := 0; i < 5; i++ {
		if _, err := ix.Insert(vec.Vec{0.2, 0.3, 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	want := points(ix)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := listCheckpoints(dir)
	if len(names) != 2 {
		t.Fatalf("checkpoints %v, want 2", names)
	}
	// Corrupt the newest checkpoint's payload.
	path := filepath.Join(dir, names[0])
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[persistHeaderLen+5] ^= 0x08
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	ix2, _, rec := openDurable(t, dir, DurableOptions{Sync: wal.SyncAlways})
	if len(rec.BadCheckpoints) != 1 || !strings.Contains(rec.BadCheckpoints[0], "checksum-mismatch") {
		t.Fatalf("BadCheckpoints %v, want one checksum-mismatch", rec.BadCheckpoints)
	}
	if rec.Version != 6 || !samePoints(points(ix2), want) {
		t.Fatalf("recovered version %d, want 6 with identical points", rec.Version)
	}
}

// TestDurableBadNewerCheckpointsDoNotEvictRecovery: rejected checkpoint
// files whose names sort above the recovered version (bit-rotted newest
// file plus a lost WAL tail, or every checkpoint corrupt forcing a fresh
// seed) must not count toward the GC keep window. Before the fix they
// could evict the just-written recovery checkpoint while PurgeOthers
// deleted the WAL — leaving only corrupt files on disk for the next boot.
func TestDurableBadNewerCheckpointsDoNotEvictRecovery(t *testing.T) {
	dir := t.TempDir()
	for _, v := range []uint64{50, 51} {
		if err := os.WriteFile(filepath.Join(dir, ckptName(v)), []byte("not a checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, d, rec := openDurable(t, dir, DurableOptions{Sync: wal.SyncAlways})
	if !rec.Fresh || len(rec.BadCheckpoints) != 2 {
		t.Fatalf("recovery %+v, want fresh seed with 2 rejected checkpoints", rec)
	}
	names, err := listCheckpoints(dir)
	if err != nil || len(names) != 1 || names[0] != ckptName(rec.Version) {
		t.Fatalf("checkpoints after recovery: %v (err %v), want only %s", names, err, ckptName(rec.Version))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// The next boot must load the recovery checkpoint, not reject garbage
	// and re-seed.
	_, _, rec2 := openDurable(t, dir, DurableOptions{Sync: wal.SyncAlways})
	if rec2.Fresh || len(rec2.BadCheckpoints) != 0 || rec2.Version != rec.Version {
		t.Fatalf("second recovery %+v, want clean load of checkpoint version %d", rec2, rec.Version)
	}
}

// TestDurableCheckpointRenameFaultKeepsWAL: a checkpoint that dies in its
// atomicity window must not lose anything — the WAL still covers the full
// history and the next recovery serves it.
func TestDurableCheckpointRenameFaultKeepsWAL(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("rename blocked")
	in := faultinject.New(&faultinject.Fault{Point: faultinject.CheckpointRename, Err: boom, Times: 1})
	reg := obs.NewRegistry()
	ix, d, _ := openDurable(t, dir, DurableOptions{Sync: wal.SyncAlways, CheckpointEvery: 100, Metrics: reg})
	// Arm the injector only after the recovery checkpoint has been written.
	d.o.Inject = in
	for i := 0; i < 3; i++ {
		if _, err := ix.Insert(vec.Vec{0.2, 0.3, 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	want := points(ix)
	if err := d.Checkpoint(); !errors.Is(err, boom) {
		t.Fatalf("faulted checkpoint error = %v, want %v", err, boom)
	}
	if n := reg.Counter("checkpoint.errors").Value(); n != 1 {
		t.Fatalf("checkpoint.errors = %d, want 1", n)
	}
	ix2, _, rec := openDurable(t, dir, DurableOptions{Sync: wal.SyncAlways})
	if rec.CheckpointVersion != 1 || rec.Replayed != 3 || rec.Version != 4 {
		t.Fatalf("recovery %+v, want checkpoint 1 + 3 replayed", rec)
	}
	if !samePoints(points(ix2), want) {
		t.Fatal("recovered points differ after failed checkpoint")
	}
}

// TestDurableRejectedMutationLeavesNoTrace: a WAL append error rejects the
// mutation entirely — version unchanged, dataset unchanged, and recovery
// agrees.
func TestDurableRejectedMutationLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("append refused")
	in := faultinject.New(&faultinject.Fault{Point: faultinject.WALAppend, Err: boom, Times: 1})
	ix, d, _ := openDurable(t, dir, DurableOptions{Sync: wal.SyncAlways, Inject: in})
	if _, err := ix.Insert(vec.Vec{0.25, 0.25, 0.5}); !errors.Is(err, boom) {
		t.Fatalf("insert error = %v, want %v", err, boom)
	}
	if ix.Version() != 1 || ix.Len() != 5 {
		t.Fatalf("rejected insert mutated the index: version %d len %d", ix.Version(), ix.Len())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, rec := openDurable(t, dir, DurableOptions{Sync: wal.SyncAlways})
	if rec.Version != 1 || rec.Replayed != 0 {
		t.Fatalf("recovery %+v, want untouched version 1", rec)
	}
}

// TestDurableRecoveryString smoke-checks the operator-facing summary.
func TestDurableRecoveryString(t *testing.T) {
	dir := t.TempDir()
	ix, _, rec := openDurable(t, dir, DurableOptions{Sync: wal.SyncAlways})
	if s := rec.String(); !strings.Contains(s, "fresh build") {
		t.Fatalf("fresh summary %q", s)
	}
	if _, err := ix.Insert(vec.Vec{0.25, 0.25, 0.5}); err != nil {
		t.Fatal(err)
	}
	_, _, rec2 := openDurable(t, dir, DurableOptions{Sync: wal.SyncAlways})
	s := rec2.String()
	if !strings.Contains(s, "1 records replayed") || !strings.Contains(s, "version 2") {
		t.Fatalf("recovery summary %q", s)
	}
}
