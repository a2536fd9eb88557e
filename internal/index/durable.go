package index

// Durability layer: a WAL-backed index whose mutations survive crashes.
// Every Insert/Delete appends an epoch-stamped record to the write-ahead
// log *before* the new snapshot is published — under the "always" fsync
// policy an acknowledged version number implies the record is on disk —
// and every N records the current snapshot is folded into a crash-atomic
// checkpoint, the log rotates, and segments covered by the checkpoint are
// collected. OpenDurable is the recovery entry point: newest valid
// checkpoint, WAL tail replayed on top, torn/corrupt tails truncated, and
// the recovered state immediately re-checkpointed so a crash loop never
// replays the same tail twice.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"rrq/internal/faultinject"
	"rrq/internal/obs"
	"rrq/internal/vec"
	"rrq/internal/wal"
)

// DefaultCheckpointEvery is the auto-checkpoint cadence (WAL records
// between checkpoints) when DurableOptions leaves it zero.
const DefaultCheckpointEvery = 256

// DurableOptions configures OpenDurable.
type DurableOptions struct {
	// Dir holds the checkpoints and WAL segments. Created if missing.
	Dir string
	// Sync is the WAL fsync policy (default wal.SyncAlways); SyncInterval
	// the flush period under wal.SyncInterval.
	Sync         wal.SyncPolicy
	SyncInterval time.Duration
	// CheckpointEvery is the number of WAL records between automatic
	// checkpoints (default DefaultCheckpointEvery).
	CheckpointEvery int
	// KeepCheckpoints is how many checkpoint files survive collection
	// (default 2: current + previous).
	KeepCheckpoints int
	// Metrics receives the wal.* counters plus checkpoint.writes,
	// checkpoint.errors and the checkpoint.age gauge (seconds since the
	// last checkpoint, refreshed per mutation).
	Metrics *obs.Registry
	// Inject arms the WALAppend/WALSync/CheckpointRename fault points.
	Inject *faultinject.Injector
}

func (o DurableOptions) withDefaults() DurableOptions {
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = DefaultCheckpointEvery
	}
	if o.KeepCheckpoints <= 0 {
		o.KeepCheckpoints = 2
	}
	return o
}

// Recovery summarizes what OpenDurable found and repaired.
type Recovery struct {
	// Fresh is true when no usable checkpoint existed and the index was
	// built from the seed builder.
	Fresh bool
	// CheckpointPath/CheckpointVersion identify the checkpoint served as
	// the recovery base (empty/0 when Fresh).
	CheckpointPath    string
	CheckpointVersion uint64
	// BadCheckpoints lists checkpoint files rejected before a valid one
	// was found, with their typed rejection reasons.
	BadCheckpoints []string
	// Replayed is the number of WAL records applied on top of the base.
	Replayed int
	// Truncated describes the torn/corrupt tail repair, when one happened.
	Truncated *wal.CorruptError
	// DroppedSegments counts WAL segments discarded as causally unsound
	// (after a corruption) during replay.
	DroppedSegments int
	// Gap is non-empty when replay stopped early because a record did not
	// connect to the recovered version (missing segment or unappliable
	// record); the state up to the gap is served.
	Gap string
	// Version is the index version after recovery.
	Version uint64
}

// String renders the one-line recovery summary rrqd logs.
func (r *Recovery) String() string {
	var b strings.Builder
	if r.Fresh {
		b.WriteString("fresh build")
	} else {
		fmt.Fprintf(&b, "checkpoint %s (version %d)", filepath.Base(r.CheckpointPath), r.CheckpointVersion)
	}
	fmt.Fprintf(&b, ", %d records replayed, version %d", r.Replayed, r.Version)
	if len(r.BadCheckpoints) > 0 {
		fmt.Fprintf(&b, ", %d checkpoint(s) rejected", len(r.BadCheckpoints))
	}
	if r.Truncated != nil {
		fmt.Fprintf(&b, ", tail truncated (%s)", r.Truncated.Reason)
	}
	if r.DroppedSegments > 0 {
		fmt.Fprintf(&b, ", %d unsound segment(s) dropped", r.DroppedSegments)
	}
	if r.Gap != "" {
		fmt.Fprintf(&b, ", replay stopped: %s", r.Gap)
	}
	return b.String()
}

// Durable is the WAL + checkpoint manager attached to an index by
// OpenDurable. Mutations drive it implicitly; callers interact with it for
// explicit checkpoints (clean shutdown) and Close.
type Durable struct {
	o  DurableOptions
	ix *Index
	w  *wal.WAL

	// Mutated under ix.mu (the mutation lock): the auto-checkpoint
	// cadence state. ckptHist holds the versions of the checkpoints still
	// on disk (newest last); WAL segments are only collected up to the
	// oldest of them, so falling back to any kept checkpoint always finds
	// the tail it needs.
	sinceCkpt       int
	lastCkptVersion uint64
	lastCkptTime    time.Time
	ckptHist        []uint64
}

const (
	ckptPrefix = "checkpoint-"
	ckptSuffix = ".ckpt"
)

func ckptName(version uint64) string {
	return fmt.Sprintf("%s%020d%s", ckptPrefix, version, ckptSuffix)
}

// listCheckpoints returns checkpoint file names in dir, newest first.
func listCheckpoints(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if !e.IsDir() && strings.HasPrefix(n, ckptPrefix) && strings.HasSuffix(n, ckptSuffix) {
			names = append(names, n)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	return names, nil
}

// gcCheckpoints removes all but the newest keep checkpoint files, never
// touching protect (the checkpoint just written): a rejected-but-newer
// checkpoint name must not be able to push the live one out of the keep
// window.
func gcCheckpoints(dir string, keep int, protect string) {
	names, err := listCheckpoints(dir)
	if err != nil || len(names) <= keep {
		return
	}
	for _, n := range names[keep:] {
		if n == protect {
			continue
		}
		_ = os.Remove(filepath.Join(dir, n))
	}
}

// errStopReplay is the sentinel aborting replay at an epoch gap; the state
// accumulated so far is served.
var errStopReplay = errors.New("index: stop replay")

// OpenDurable recovers (or seeds) a durable index from dir and attaches
// its WAL + checkpoint manager:
//
//  1. load the newest checkpoint that passes magic/format/CRC validation
//     (rejects are reported, not fatal); with none, seed via build,
//  2. replay the WAL tail — records at or below the recovered version are
//     skipped, the first torn/corrupt record truncates the log, a record
//     that does not connect contiguously stops the replay,
//  3. fold the recovered state into a fresh checkpoint, purge every
//     pre-existing WAL segment it covers, and open a new segment for
//     appends.
//
// Every later Insert/Delete on the returned index appends to the WAL
// before its epoch is published; an append failure rejects the mutation.
func OpenDurable(o DurableOptions, build func() (*Index, error)) (*Index, *Durable, *Recovery, error) {
	o = o.withDefaults()
	if o.Dir == "" {
		return nil, nil, nil, errors.New("index: durable open: empty directory")
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, nil, nil, fmt.Errorf("index: durable open: %w", err)
	}
	rec := &Recovery{}

	var ix *Index
	names, err := listCheckpoints(o.Dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("index: durable open: %w", err)
	}
	var badNames []string
	for _, name := range names {
		path := filepath.Join(o.Dir, name)
		loaded, lerr := LoadFile(path)
		if lerr != nil {
			rec.BadCheckpoints = append(rec.BadCheckpoints, fmt.Sprintf("%s: %v", name, lerr))
			badNames = append(badNames, name)
			continue
		}
		ix = loaded
		rec.CheckpointPath = path
		rec.CheckpointVersion = loaded.Version()
		break
	}
	if ix == nil {
		if build == nil {
			return nil, nil, nil, fmt.Errorf("index: durable open: no valid checkpoint in %s and no seed builder", o.Dir)
		}
		built, berr := build()
		if berr != nil {
			return nil, nil, nil, berr
		}
		if built == nil {
			return nil, nil, nil, errors.New("index: durable open: seed builder returned nil")
		}
		ix = built
		rec.Fresh = true
	}

	info, err := wal.Replay(o.Dir, wal.Options{Metrics: o.Metrics}, func(r wal.Record) error {
		cur := ix.Version()
		if r.Epoch <= cur {
			return nil // covered by the checkpoint
		}
		if r.Epoch != cur+1 {
			rec.Gap = fmt.Sprintf("record epoch %d does not connect to version %d", r.Epoch, cur)
			return errStopReplay
		}
		var v uint64
		var aerr error
		switch r.Op {
		case wal.OpInsert:
			v, aerr = ix.Insert(vec.Vec(r.Point))
		case wal.OpDelete:
			v, aerr = ix.Delete(r.Index)
		default:
			aerr = fmt.Errorf("unknown op %d", r.Op)
		}
		if aerr != nil {
			rec.Gap = fmt.Sprintf("replaying epoch %d: %v", r.Epoch, aerr)
			return errStopReplay
		}
		if v != r.Epoch {
			rec.Gap = fmt.Sprintf("replaying epoch %d published version %d", r.Epoch, v)
			return errStopReplay
		}
		rec.Replayed++
		return nil
	})
	if err != nil && !errors.Is(err, errStopReplay) {
		return nil, nil, nil, fmt.Errorf("index: durable open: %w", err)
	}
	rec.Truncated = info.Truncated
	rec.DroppedSegments = info.DroppedSegs
	rec.Version = ix.Version()

	// Fold recovery into a checkpoint before accepting traffic: a crash
	// loop then re-replays nothing, and every pre-existing segment —
	// sound, truncated or beyond a gap — is obsolete and purged.
	d := &Durable{o: o, ix: ix, lastCkptVersion: rec.Version, lastCkptTime: time.Now(),
		ckptHist: []uint64{rec.Version}}
	if err := ix.saveFile(filepath.Join(o.Dir, ckptName(rec.Version)), o.Inject); err != nil {
		return nil, nil, nil, fmt.Errorf("index: durable open: recovery checkpoint: %w", err)
	}
	d.observeCheckpoint()
	// Rejected checkpoints are deleted outright rather than counted toward
	// the keep window: their names can sort above the recovery checkpoint
	// (bit-rotted newest file, or a fresh seed at a low version), and
	// keeping them would let gc evict the only valid state on disk.
	for _, n := range badNames {
		_ = os.Remove(filepath.Join(o.Dir, n))
	}
	gcCheckpoints(o.Dir, o.KeepCheckpoints, ckptName(rec.Version))
	w, err := wal.Open(o.Dir, rec.Version+1, wal.Options{
		Sync: o.Sync, Interval: o.SyncInterval, Metrics: o.Metrics, Inject: o.Inject,
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("index: durable open: %w", err)
	}
	if _, err := w.PurgeOthers(); err != nil {
		_ = w.Close()
		return nil, nil, nil, fmt.Errorf("index: durable open: %w", err)
	}
	d.w = w
	ix.dur = d
	return ix, d, rec, nil
}

// counter bumps a named counter (a no-op without metrics).
func (d *Durable) counter(name string) { d.o.Metrics.Counter(name).Inc() }

// observeCheckpoint records one successful checkpoint write.
func (d *Durable) observeCheckpoint() {
	d.counter("checkpoint.writes")
	d.o.Metrics.Gauge("checkpoint.age").Set(0)
}

// logAppend durably records one mutation; called by Insert/Delete under
// the mutation lock, before the new epoch is published.
func (d *Durable) logAppend(r wal.Record) error { return d.w.Append(r) }

// committed is called under the mutation lock after a new epoch published:
// it advances the auto-checkpoint cadence and refreshes checkpoint.age.
func (d *Durable) committed(version uint64) {
	d.sinceCkpt++
	d.o.Metrics.Gauge("checkpoint.age").Set(time.Since(d.lastCkptTime).Seconds())
	if d.sinceCkpt >= d.o.CheckpointEvery {
		_ = d.checkpointLocked(version) // WAL still covers everything on failure
	}
}

// checkpointLocked writes a checkpoint of the current snapshot, rotates
// the WAL past it and collects covered segments and old checkpoints.
// Caller holds the index mutation lock. A checkpoint failure leaves the
// WAL authoritative (counted in checkpoint.errors); the cadence resets
// either way so a persistent failure does not retry on every mutation.
func (d *Durable) checkpointLocked(version uint64) error {
	d.sinceCkpt = 0
	if version == d.lastCkptVersion {
		return nil
	}
	if err := d.ix.saveFile(filepath.Join(d.o.Dir, ckptName(version)), d.o.Inject); err != nil {
		d.counter("checkpoint.errors")
		return err
	}
	d.lastCkptVersion = version
	d.lastCkptTime = time.Now()
	d.ckptHist = append(d.ckptHist, version)
	if len(d.ckptHist) > d.o.KeepCheckpoints {
		d.ckptHist = d.ckptHist[len(d.ckptHist)-d.o.KeepCheckpoints:]
	}
	d.observeCheckpoint()
	var err error
	if rerr := d.w.Rotate(version + 1); rerr != nil {
		err = rerr
	} else if _, gerr := d.w.GCThrough(d.ckptHist[0]); gerr != nil {
		err = gerr
	}
	gcCheckpoints(d.o.Dir, d.o.KeepCheckpoints, ckptName(version))
	return err
}

// Checkpoint flushes the current snapshot to a checkpoint immediately —
// the clean-shutdown path: after it returns, a restart replays nothing.
// No-op when the last checkpoint already covers the current version.
func (d *Durable) Checkpoint() error {
	d.ix.mu.Lock()
	defer d.ix.mu.Unlock()
	return d.checkpointLocked(d.ix.Version())
}

// LastCheckpointVersion returns the version of the most recent checkpoint.
func (d *Durable) LastCheckpointVersion() uint64 {
	d.ix.mu.Lock()
	defer d.ix.mu.Unlock()
	return d.lastCkptVersion
}

// Sync forces the WAL to stable storage regardless of fsync policy.
func (d *Durable) Sync() error { return d.w.Sync() }

// Close stops the WAL's background flusher and closes the active segment.
// The index remains usable in-memory but further mutations fail.
func (d *Durable) Close() error { return d.w.Close() }
