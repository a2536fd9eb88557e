package index

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"rrq/internal/core"
	"rrq/internal/faultinject"
	"rrq/internal/vec"
)

func buildTestIndex(t testing.TB) *Index {
	t.Helper()
	pts := []vec.Vec{
		{0.9, 0.2, 0.3}, {0.4, 0.8, 0.1}, {0.2, 0.3, 0.9}, {0.7, 0.7, 0.2}, {0.5, 0.5, 0.5},
	}
	ix, err := Build(pts, 3)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func saved(t *testing.T, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func wantPersistError(t *testing.T, err error, reason PersistReason) {
	t.Helper()
	var pe *PersistError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v (%T), want *PersistError", err, err)
	}
	if pe.Reason != reason {
		t.Fatalf("PersistError reason %q, want %q (%v)", pe.Reason, reason, pe)
	}
}

// TestLoadRejectsBitFlip is the regression for the headerless format: a
// single flipped bit anywhere in the file must be caught by the header
// checks, never decoded as data.
func TestLoadRejectsBitFlip(t *testing.T) {
	raw := saved(t, buildTestIndex(t))
	for _, off := range []int{0, 5, 9, 13, 17, persistHeaderLen, persistHeaderLen + 7, len(raw) - 1} {
		flipped := append([]byte(nil), raw...)
		flipped[off] ^= 0x10
		if _, err := Load(bytes.NewReader(flipped)); err == nil {
			t.Fatalf("bit flip at offset %d accepted by Load", off)
		} else {
			var pe *PersistError
			if !errors.As(err, &pe) {
				t.Fatalf("bit flip at offset %d: error %T, want *PersistError", off, err)
			}
		}
	}
}

func TestLoadRejectsBadMagic(t *testing.T) {
	_, err := Load(bytes.NewReader([]byte("GOBBLEDYGOOK and then some")))
	wantPersistError(t, err, PersistBadMagic)
}

func TestLoadRejectsFutureFormat(t *testing.T) {
	raw := saved(t, buildTestIndex(t))
	raw[8] = 0xFF // format field low byte
	_, err := Load(bytes.NewReader(raw))
	wantPersistError(t, err, PersistFutureFormat)
}

func TestLoadRejectsChecksumMismatch(t *testing.T) {
	raw := saved(t, buildTestIndex(t))
	raw[persistHeaderLen+3] ^= 0x01 // payload byte
	_, err := Load(bytes.NewReader(raw))
	wantPersistError(t, err, PersistChecksum)
}

func TestLoadRejectsTruncation(t *testing.T) {
	raw := saved(t, buildTestIndex(t))
	for _, cut := range []int{3, persistHeaderLen - 1, persistHeaderLen + 10, len(raw) - 1} {
		_, err := Load(bytes.NewReader(raw[:cut]))
		wantPersistError(t, err, PersistTruncated)
	}
}

// TestLoadRejectsHeaderlessGob: the headerless gob stream written before
// checksummed checkpoints existed is not an index checkpoint.
func TestLoadRejectsHeaderlessGob(t *testing.T) {
	legacy := struct {
		Format  int
		Version uint64
		Dim     int
		Kmax    int
		Pts     [][]float64
	}{1, 7, 3, 8, [][]float64{{0.9, 0.2, 0.3}, {0.4, 0.8, 0.1}, {0.2, 0.3, 0.9}}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&legacy); err != nil {
		t.Fatal(err)
	}
	_, err := Load(bytes.NewReader(buf.Bytes()))
	wantPersistError(t, err, PersistBadMagic)
}

// withHeader frames a payload the way Save does: magic, format, CRC32C and
// length ahead of the bytes.
func withHeader(payload []byte) []byte {
	hdr := make([]byte, persistHeaderLen, persistHeaderLen+len(payload))
	copy(hdr, persistMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], persistFormat)
	binary.LittleEndian.PutUint32(hdr[12:], crc32.Checksum(payload, persistCRC))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(payload)))
	return append(hdr, payload...)
}

// TestLoadChecksPoints: a checkpoint is bytes from outside the process, so
// Load runs the data rule on every decoded point before it builds. Each
// payload below is well-formed gob under a valid CRC; each must fail with
// PersistDecode wrapping the *core.DataError that names the fault.
func TestLoadChecksPoints(t *testing.T) {
	cases := []struct {
		name        string
		dim         int
		pts         [][]float64
		point, attr int
	}{
		{"zero attribute", 2, [][]float64{{0.5, 0.5}, {0.3, 0}}, 1, 1},
		{"NaN", 2, [][]float64{{0.5, 0.5}, {math.NaN(), 0.2}}, 1, 0},
		{"ragged point", 2, [][]float64{{0.5, 0.5}, {0.3, 0.2, 0.1}}, 1, -1},
		{"dimension 1", 1, [][]float64{{0.5}}, -1, -1},
	}
	for _, tc := range cases {
		var payload bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(&indexFile{Format: persistFormat, Version: 3, Dim: tc.dim, Pts: tc.pts}); err != nil {
			t.Fatal(err)
		}
		_, err := Load(bytes.NewReader(withHeader(payload.Bytes())))
		wantPersistError(t, err, PersistDecode)
		var de *core.DataError
		if !errors.As(err, &de) {
			t.Fatalf("%s: err = %v, want a wrapped *core.DataError", tc.name, err)
		}
		if de.Point != tc.point || de.Attr != tc.attr {
			t.Errorf("%s: DataError{Point:%d Attr:%d}, want {%d, %d}", tc.name, de.Point, de.Attr, tc.point, tc.attr)
		}
	}
}

// TestLoadReadsCheckpointWithRankTreeFields: checkpoints written while the
// payload still carried the rank-tree shape (Kmax, Nodes) load unchanged
// under the same format number — gob skips the retired fields.
func TestLoadReadsCheckpointWithRankTreeFields(t *testing.T) {
	old := struct {
		Format  int
		Version uint64
		Dim     int
		Kmax    int
		Nodes   int
		Pts     [][]float64
	}{persistFormat, 9, 3, 8, 5000, [][]float64{{0.9, 0.2, 0.3}, {0.4, 0.8, 0.1}, {0.2, 0.3, 0.9}, {0.7, 0.7, 0.2}}}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&old); err != nil {
		t.Fatal(err)
	}
	ix, err := Load(bytes.NewReader(withHeader(payload.Bytes())))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if ix.Version() != 9 || ix.Len() != len(old.Pts) || ix.Dim() != 3 {
		t.Fatalf("loaded version %d len %d dim %d, want 9/%d/3", ix.Version(), ix.Len(), ix.Dim(), len(old.Pts))
	}
	for i, p := range ix.Snapshot().Points() {
		if !p.Equal(vec.Vec(old.Pts[i]), 0) {
			t.Fatalf("point %d = %v, want %v", i, p, old.Pts[i])
		}
	}
	// The same payload under the current struct re-saves to a checkpoint
	// the loader reads back at the same version.
	again, err := Load(bytes.NewReader(saved(t, ix)))
	if err != nil || again.Version() != 9 || again.Len() != len(old.Pts) {
		t.Fatalf("re-saved checkpoint: version %v len %v err %v", again.Version(), again.Len(), err)
	}
}

func TestSaveFileAtomicAndLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.ckpt")
	ix := buildTestIndex(t)
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != ix.Len() || loaded.Version() != ix.Version() {
		t.Fatalf("LoadFile: len %d version %d", loaded.Len(), loaded.Version())
	}
	// Overwrite must leave no temp residue.
	if _, err := ix.Insert(vec.Vec{0.3, 0.3, 0.4}); err != nil {
		t.Fatal(err)
	}
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("directory holds %d entries after overwrite, want 1", len(ents))
	}
	if re, err := LoadFile(path); err != nil || re.Version() != 2 {
		t.Fatalf("reload after overwrite: version %v err %v", re.Version(), err)
	}
}

// TestSaveFileRenameFault: a fault in the atomicity window must leave the
// previous checkpoint untouched and no temp files behind.
func TestSaveFileRenameFault(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.ckpt")
	ix := buildTestIndex(t)
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert(vec.Vec{0.3, 0.3, 0.4}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("rename blocked")
	in := faultinject.New(&faultinject.Fault{Point: faultinject.CheckpointRename, Err: boom, Times: 1})
	if err := ix.saveFile(path, in); !errors.Is(err, boom) {
		t.Fatalf("faulted save error = %v, want %v", err, boom)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("directory holds %d entries after faulted save, want 1", len(ents))
	}
	old, err := LoadFile(path)
	if err != nil || old.Version() != 1 {
		t.Fatalf("previous checkpoint damaged: version %v err %v", old.Version(), err)
	}
}

// claimedHeader is a checkpoint header that declares plen payload bytes
// and carries none of them.
func claimedHeader(plen uint64) []byte {
	hdr := make([]byte, persistHeaderLen)
	copy(hdr, persistMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], persistFormat)
	binary.LittleEndian.PutUint64(hdr[16:], plen)
	return hdr
}

// TestLoadDoesNotTrustLengthPrefix: a 24-byte header claiming a 1 GiB
// payload is a truncated file, and rejecting it must cost what the stream
// holds, not what the header claims.
func TestLoadDoesNotTrustLengthPrefix(t *testing.T) {
	raw := claimedHeader(1 << 30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	wantPersistError(t, err, PersistTruncated)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("Load allocated %d bytes for a %d-byte stream, want < 1 MiB", d, len(raw))
	}
}

// FuzzLoad: arbitrary bytes either load as a valid index or are rejected
// with a typed *PersistError — never a panic or an untyped error.
func FuzzLoad(f *testing.F) {
	ix := buildTestIndex(f)
	raw := func() []byte {
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}()
	f.Add(raw)
	for _, off := range []int{0, 9, 13, 17, persistHeaderLen + 3, len(raw) - 1} {
		flipped := append([]byte(nil), raw...)
		flipped[off] ^= 0x10
		f.Add(flipped)
	}
	for _, cut := range []int{3, persistHeaderLen - 1, persistHeaderLen + 10, len(raw) - 1} {
		f.Add(raw[:cut])
	}
	future := append([]byte(nil), raw...)
	future[8] = 0xFF
	f.Add(future)
	f.Add([]byte("GOBBLEDYGOOK and then some"))
	f.Add(claimedHeader(1 << 30))
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(&indexFile{Format: 1, Version: 7, Dim: 3,
		Pts: [][]float64{{0.9, 0.2, 0.3}}}); err != nil {
		f.Fatal(err)
	}
	f.Add(legacy.Bytes())
	f.Add(withHeader(legacy.Bytes()))
	f.Add(withHeader([]byte{0x01, 0x02, 0x03}))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Load(bytes.NewReader(data))
		if err != nil {
			var pe *PersistError
			if !errors.As(err, &pe) {
				t.Fatalf("Load error %v (%T), want *PersistError", err, err)
			}
			return
		}
		s := got.Snapshot()
		if got.Version() < 1 || got.Dim() < 2 || len(s.Points()) != len(s.DominatorCounts()) {
			t.Fatalf("loaded an inconsistent index: version %d dim %d points %d counts %d",
				got.Version(), got.Dim(), len(s.Points()), len(s.DominatorCounts()))
		}
		for i, p := range s.Points() {
			if p.Dim() != got.Dim() {
				t.Fatalf("loaded point %d has dimension %d, want %d", i, p.Dim(), got.Dim())
			}
		}
	})
}
