package rrq

// Durable serving: the public face of the WAL + checkpoint layer. An index
// opened with OpenDurableIndex logs every Insert/Delete to a write-ahead
// log before publishing the new epoch and periodically folds its snapshot
// into a crash-atomic checkpoint; reopening the same directory recovers to
// exactly the acknowledged state (under the "always" fsync policy) with
// torn or corrupt log tails truncated rather than fatal. See
// docs/SERVING.md's Durability section for the format and the guarantees
// per fsync policy.

import (
	"errors"
	"time"

	"rrq/internal/index"
	"rrq/internal/wal"
)

// DurableConfig locates and tunes an index's durability directory.
type DurableConfig struct {
	// Dir holds the checkpoints and WAL segments; created if missing.
	Dir string
	// Fsync is the WAL sync policy: "always" (default — acknowledged
	// mutations are on disk), "interval" (group fsync every FsyncInterval;
	// a crash may lose the last interval's acknowledged mutations) or
	// "never" (the OS decides; fastest, weakest).
	Fsync string
	// FsyncInterval is the flush period under Fsync "interval"
	// (default 100ms).
	FsyncInterval time.Duration
	// CheckpointEvery is the number of logged mutations between automatic
	// checkpoints (0 = default 256).
	CheckpointEvery int
	// KeepCheckpoints is how many checkpoint files survive collection
	// (0 = default 2: current + previous).
	KeepCheckpoints int
}

// RecoveryInfo summarizes what OpenDurableIndex found and repaired: the
// checkpoint served as the base, rejected checkpoint files, the number of
// WAL records replayed, any torn-tail truncation, and the recovered
// version. Its String method renders the one-line summary rrqd logs.
type RecoveryInfo = index.Recovery

// OpenDurableIndex opens (or seeds) a durable index rooted at dc.Dir:
// the newest checkpoint passing validation is loaded, the WAL tail is
// replayed on top — truncating a torn or corrupt tail instead of failing —
// and the recovered state is immediately re-checkpointed so a crash loop
// never replays the same tail twice. When the directory holds no usable
// checkpoint, seed supplies the dataset for a fresh build (it is not
// called otherwise, so a restart needs no dataset source).
//
// Options configure the index exactly as in BuildIndex; mutation methods
// on the returned index append to the WAL before their epoch is
// published, and a mutation whose append fails is rejected whole. Close
// the index on shutdown; Checkpoint first for a replay-free restart.
func OpenDurableIndex(dc DurableConfig, seed func() (*Dataset, error), opts ...Option) (*Index, *RecoveryInfo, error) {
	cfg := newConfig(opts)
	pol := wal.SyncAlways
	if dc.Fsync != "" {
		p, err := wal.ParseSyncPolicy(dc.Fsync)
		if err != nil {
			return nil, nil, err
		}
		pol = p
	}
	build := func() (*index.Index, error) {
		if seed == nil {
			return nil, errors.New("rrq: durable open: no usable checkpoint and no seed dataset")
		}
		ds, err := seed()
		if err != nil {
			return nil, err
		}
		return index.Build(ds.points(), ds.Dim())
	}
	start := time.Now()
	inner, dur, rec, err := index.OpenDurable(index.DurableOptions{
		Dir:             dc.Dir,
		Sync:            pol,
		SyncInterval:    dc.FsyncInterval,
		CheckpointEvery: dc.CheckpointEvery,
		KeepCheckpoints: dc.KeepCheckpoints,
		Metrics:         cfg.metrics,
	}, build)
	cfg.metrics.Timer("phase.index.recover").Observe(time.Since(start))
	if err != nil {
		return nil, nil, err
	}
	ix, err := newIndex(inner, dur, cfg)
	if err != nil {
		dur.Close()
		return nil, nil, err
	}
	return ix, rec, nil
}

// Checkpoint folds the current snapshot into a checkpoint immediately —
// the clean-shutdown path: after it returns, reopening the directory
// replays no WAL records. No-op on a non-durable index or when the last
// checkpoint already covers the current version.
func (ix *Index) Checkpoint() error {
	if ix.dur == nil {
		return nil
	}
	return ix.dur.Checkpoint()
}

// LastCheckpointVersion returns the version covered by the most recent
// checkpoint (0 on a non-durable index).
func (ix *Index) LastCheckpointVersion() uint64 {
	if ix.dur == nil {
		return 0
	}
	return ix.dur.LastCheckpointVersion()
}

// SyncWAL forces the write-ahead log to stable storage regardless of the
// configured fsync policy. No-op on a non-durable index.
func (ix *Index) SyncWAL() error {
	if ix.dur == nil {
		return nil
	}
	return ix.dur.Sync()
}

// Close releases the durability layer: the background flusher stops and
// the active WAL segment closes. The index keeps answering queries
// in-memory, but further mutations fail. No-op on a non-durable index.
func (ix *Index) Close() error {
	if ix.dur == nil {
		return nil
	}
	return ix.dur.Close()
}
