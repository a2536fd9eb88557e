package index

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"rrq/internal/core"
	"rrq/internal/faultinject"
	"rrq/internal/vec"
)

// persistFormat is bumped whenever the on-disk layout changes; Load rejects
// formats from the future instead of misreading them.
const persistFormat = 2

// persistMagic opens every checkpoint file. A stream that does not start
// with it is not an index checkpoint.
var persistMagic = [8]byte{'R', 'R', 'Q', 'I', 'N', 'D', 'E', 'X'}

// persistHeaderLen is the fixed header: 8-byte magic, uint32 format,
// uint32 CRC32C of the payload, uint64 payload length (little-endian).
const persistHeaderLen = 8 + 4 + 4 + 8

// persistCRC is the Castagnoli table shared with the WAL.
var persistCRC = crc32.MakeTable(crc32.Castagnoli)

// PersistReason classifies why a persisted index was rejected.
type PersistReason string

const (
	// PersistBadMagic: the stream does not start with the index magic.
	PersistBadMagic PersistReason = "bad-magic"
	// PersistFutureFormat: the header's format number is newer than this
	// build understands.
	PersistFutureFormat PersistReason = "future-format"
	// PersistChecksum: the payload does not match the header's CRC32C —
	// a torn write or bit rot.
	PersistChecksum PersistReason = "checksum-mismatch"
	// PersistTruncated: the stream ended before the header-declared
	// payload length.
	PersistTruncated PersistReason = "truncated"
	// PersistDecode: the checksummed payload failed to decode or failed
	// semantic validation (bad dimension, invalid version, bad points).
	PersistDecode PersistReason = "decode"
)

// PersistError is the typed rejection of a persisted index: a corrupt,
// torn, foreign or future-format file never loads as a silently wrong
// dataset.
type PersistError struct {
	Reason PersistReason
	Detail string
	Err    error // the underlying failure, when there is one (e.g. a *core.DataError)
}

func (e *PersistError) Error() string {
	return fmt.Sprintf("index: persist: %s: %s", e.Reason, e.Detail)
}

func (e *PersistError) Unwrap() error { return e.Err }

// indexFile is the gob-encoded payload of a persisted index. Only the
// durable inputs are stored — points and the epoch counter; dominator
// counts and all per-snapshot derived state (skyband views)
// are recomputed on load, which keeps the file format independent of cache
// internals. Files written before the rank tree was retired also carry
// Kmax and Nodes fields; gob skips fields the struct no longer declares, so
// they load unchanged under the same format number.
type indexFile struct {
	Format  int
	Version uint64
	Dim     int
	Pts     [][]float64
}

// Save writes the current snapshot to w: the persistMagic header with
// format number, CRC32C and length of the gob payload, then the payload.
// Concurrent mutations are safe: the snapshot is captured once and is
// immutable. Use SaveFile for the crash-atomic on-disk form.
func (ix *Index) Save(w io.Writer) error {
	s := ix.Snapshot()
	f := indexFile{
		Format:  persistFormat,
		Version: s.version,
		Dim:     s.dim,
		Pts:     make([][]float64, len(s.pts)),
	}
	for i, p := range s.pts {
		f.Pts[i] = p
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&f); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	var hdr [persistHeaderLen]byte
	copy(hdr[:8], persistMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], persistFormat)
	binary.LittleEndian.PutUint32(hdr[12:], crc32.Checksum(payload.Bytes(), persistCRC))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(payload.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	return nil
}

// SaveFile writes the current snapshot to path crash-atomically: the bytes
// go to a temporary file in the same directory, reach stable storage via
// fsync, and only then rename over path (itself fsynced at the directory).
// A crash at any point leaves either the old file or the new one — never a
// torn mix.
func (ix *Index) SaveFile(path string) error { return ix.saveFile(path, nil) }

// saveFile is SaveFile with an optional fault injector arming the
// CheckpointRename point (the atomicity window between temp write and
// rename).
func (ix *Index) saveFile(path string, in *faultinject.Injector) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	bw := bufio.NewWriter(tmp)
	if err := ix.Save(bw); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(fmt.Errorf("index: save: %w", err))
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("index: save: sync: %w", err))
	}
	if err := tmp.Close(); err != nil {
		return fail(fmt.Errorf("index: save: %w", err))
	}
	if in != nil {
		if err := in.Fire(faultinject.CheckpointRename, nil); err != nil {
			os.Remove(tmpName)
			return fmt.Errorf("index: save: %w", err)
		}
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("index: save: %w", err)
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a rename into it is durable; best-effort
// (some filesystems reject directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// Load reads an index previously written by Save, verifying magic, format
// and checksum before any decoding, then checks every decoded point with
// core.CheckPoints — a checkpoint is bytes from outside the process — and
// recomputes the dominator counts. Rejections are typed *PersistError
// values. The restored index resumes at the saved epoch number, so
// versions stay monotone across a save/load cycle.
func Load(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(persistMagic))
	if err != nil {
		return nil, &PersistError{Reason: PersistTruncated,
			Detail: fmt.Sprintf("reading magic: %v", err)}
	}
	if !bytes.Equal(head, persistMagic[:]) {
		return nil, &PersistError{Reason: PersistBadMagic,
			Detail: fmt.Sprintf("not an index checkpoint (got %q)", head)}
	}
	var hdr [persistHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, &PersistError{Reason: PersistTruncated,
			Detail: fmt.Sprintf("reading header: %v", err)}
	}
	format := binary.LittleEndian.Uint32(hdr[8:])
	wantCRC := binary.LittleEndian.Uint32(hdr[12:])
	plen := binary.LittleEndian.Uint64(hdr[16:])
	if format > persistFormat {
		return nil, &PersistError{Reason: PersistFutureFormat,
			Detail: fmt.Sprintf("format %d is newer than this build's %d", format, persistFormat)}
	}
	const maxCheckpoint = 1 << 32
	if plen > maxCheckpoint {
		return nil, &PersistError{Reason: PersistDecode,
			Detail: fmt.Sprintf("implausible payload length %d", plen)}
	}
	// The buffer grows only as bytes arrive: a header claiming gigabytes over
	// a short stream costs what the stream holds, not what it claims.
	var buf bytes.Buffer
	n, err := buf.ReadFrom(io.LimitReader(br, int64(plen)))
	if err != nil || uint64(n) < plen {
		return nil, &PersistError{Reason: PersistTruncated,
			Detail: fmt.Sprintf("payload ends at %d of %d bytes", n, plen)}
	}
	payload := buf.Bytes()
	if got := crc32.Checksum(payload, persistCRC); got != wantCRC {
		return nil, &PersistError{Reason: PersistChecksum,
			Detail: fmt.Sprintf("stored %08x, computed %08x", wantCRC, got)}
	}
	var f indexFile
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&f); err != nil {
		return nil, &PersistError{Reason: PersistDecode, Detail: err.Error()}
	}
	// Revalidate the payload and rebuild the index at its saved epoch.
	if f.Version < 1 {
		return nil, &PersistError{Reason: PersistDecode,
			Detail: fmt.Sprintf("invalid version %d", f.Version)}
	}
	pts := make([]vec.Vec, len(f.Pts))
	for i, p := range f.Pts {
		pts[i] = vec.Vec(p)
	}
	if err := core.CheckPoints(pts, f.Dim); err != nil {
		return nil, &PersistError{Reason: PersistDecode, Detail: err.Error(), Err: err}
	}
	ix, err := Build(pts, f.Dim)
	if err != nil {
		return nil, &PersistError{Reason: PersistDecode, Detail: err.Error(), Err: err}
	}
	s := ix.snap.Load()
	s.version = f.Version
	return ix, nil
}

// LoadFile opens and loads one checkpoint file.
func LoadFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
