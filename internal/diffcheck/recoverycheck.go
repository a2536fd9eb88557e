package diffcheck

// Recovery differential harness: crash-recovery must be invisible in the
// answers. For every corpus problem, a durable index absorbs a mutation
// stream, then the harness simulates a crash at every WAL record boundary
// — and inside every record (torn tails) — by truncating a copy of the
// durability directory, recovers it with OpenDurable, and requires the
// recovered index to serve regions byte-identical to an uninterrupted
// in-memory index holding the same mutation prefix. Torn tails must be
// physically truncated (counted in wal.truncated), never fatal and never
// visible beyond losing the unacknowledged suffix.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"rrq/internal/core"
	"rrq/internal/diffcheck/corpus"
	"rrq/internal/index"
	"rrq/internal/obs"
	"rrq/internal/vec"
	"rrq/internal/wal"
)

// RecoveryMutations is the length of the mutation stream — and therefore
// the number of WAL record boundaries — per corpus problem.
const RecoveryMutations = 5

// RecoveryProblems is the default problem count for RunRecovery. The sweep
// performs (RecoveryMutations+1) clean-crash and 2·RecoveryMutations
// torn-tail recoveries per problem, each a full checkpoint-load + replay +
// solve, so it runs a denser per-problem schedule over fewer problems than
// the other harnesses.
const RecoveryProblems = 24

// RecoveryReport is the outcome of a recovery differential run.
type RecoveryReport struct {
	// Problems is the number of corpus problems checked.
	Problems int
	// Mutations is the number of logged mutations across all problems.
	Mutations int
	// KillPoints counts crashes simulated at clean record boundaries,
	// TornTails crashes simulated inside a record.
	KillPoints int
	TornTails  int
	// Truncations counts recoveries that physically truncated a torn or
	// corrupt tail (the wal.truncated metric, summed).
	Truncations int
	// Replayed is the total number of WAL records replayed across all
	// recoveries.
	Replayed int
	// Mismatches holds every disagreement, including recovery errors.
	Mismatches []Mismatch
}

func (rep *RecoveryReport) fail(m Mismatch) {
	rep.Mismatches = append(rep.Mismatches, m)
}

// RunRecovery executes the recovery differential harness over the corpus
// enumeration shared with Run and RunIndex, using scratch (a disposable
// directory, e.g. t.TempDir()) for the durability directories. Like the
// other harnesses it never panics on a mismatch; callers decide how to
// fail.
func RunRecovery(cfg Config, scratch string) RecoveryReport {
	if cfg.Problems <= 0 {
		cfg.Problems = RecoveryProblems
	}
	cfg = cfg.withDefaults()
	var rep RecoveryReport
	for i := 0; i < cfg.Problems; i++ {
		ins, ok := instance(cfg, i)
		if !ok {
			continue
		}
		rep.Problems++
		checkRecoveryProblem(cfg, ins, int64(i), filepath.Join(scratch, fmt.Sprintf("p%03d", i)), &rep)
	}
	return rep
}

// checkRecoveryProblem runs the crash sweep for one instance: log the
// mutation stream (logRecoveryProblem), then crash-and-recover at every
// record boundary and torn-tail offset, comparing the recovered answer
// against the uninterrupted twin's prefix answer.
func checkRecoveryProblem(cfg Config, ins corpus.Instance, ordinal int64, dir string, rep *RecoveryReport) {
	want, bounds, ok := logRecoveryProblem(cfg, ins, ordinal, dir, rep)
	if !ok {
		return
	}
	q := core.Query{Q: ins.Q, K: ins.K, Eps: ins.Eps}
	prob := newProblem(ins)
	for _, c := range crashPoints(bounds) {
		crashRecover(prob, dir, recoverySegment, c.off, c.k, c.torn, want[c.k], q, rep)
		if c.torn {
			rep.TornTails++
		} else {
			rep.KillPoints++
		}
	}
}

// recoverySegment is the WAL segment every logged mutation lands in: the
// one opened at epoch 2, on top of the recovery checkpoint at version 1.
var recoverySegment = fmt.Sprintf("wal-%020d.seg", 2)

// crashPoint is one simulated crash: the segment cut at off bytes, which
// holds k whole records, inside record k+1 when torn.
type crashPoint struct {
	off  int64
	k    int
	torn bool
}

// crashPoints lists the crashes of one problem whose records end at
// bounds[1:]: a clean crash after every record, and two torn tails inside
// every record — a split length prefix, and a payload cut one byte short.
// A torn tail must recover to the records before it, with the tail
// truncated.
func crashPoints(bounds []int64) []crashPoint {
	var cps []crashPoint
	for k := range bounds {
		cps = append(cps, crashPoint{off: bounds[k], k: k})
		if k+1 < len(bounds) {
			full := bounds[k+1] - bounds[k]
			for _, delta := range []int64{1, full - 1} {
				cps = append(cps, crashPoint{off: bounds[k] + delta, k: k, torn: true})
			}
		}
	}
	return cps
}

// logRecoveryProblem builds the durable index in dir and an uninterrupted
// in-memory twin, and applies the same mutation stream to both. It returns
// the twin's region after every prefix (want[k] after k mutations) and the
// WAL byte offsets at which exactly k records survive; ok is false when the
// instance does not solve, or on a failure, which it records in rep.
func logRecoveryProblem(cfg Config, ins corpus.Instance, ordinal int64, dir string, rep *RecoveryReport) (want [][]byte, bounds []int64, ok bool) {
	d := ins.Q.Dim()
	q := core.Query{Q: ins.Q, K: ins.K, Eps: ins.Eps}
	prob := newProblem(ins)

	ref, err := index.Build(ins.Pts, d)
	if err != nil {
		rep.fail(Mismatch{Kind: "recovery-build-error", Problem: prob, Detail: err.Error()})
		return nil, nil, false
	}
	// CheckpointEvery is unreachable so every mutation stays in one WAL
	// segment: the sweep then controls exactly which records survive the
	// simulated crash by truncating that segment.
	ix, dur, _, err := index.OpenDurable(index.DurableOptions{
		Dir: dir, Sync: wal.SyncAlways, CheckpointEvery: 1 << 30,
	}, func() (*index.Index, error) {
		return index.Build(ins.Pts, d)
	})
	if err != nil {
		rep.fail(Mismatch{Kind: "recovery-open-error", Problem: prob, Detail: err.Error()})
		return nil, nil, false
	}

	want = make([][]byte, 0, RecoveryMutations+1)
	wb, werr := regionBytes(ref.Snapshot().Prepared(), q)
	if werr != nil {
		// The instance does not solve at all (e.g. over-constrained): the
		// recovery semantics are untestable on it, skip like the other
		// harnesses skip unsolvable comparisons.
		_ = dur.Close()
		return nil, nil, false
	}
	want = append(want, wb)
	bounds = []int64{0}
	n := len(ins.Pts)

	rng := rand.New(rand.NewSource(cfg.Seed ^ (ordinal*92821 + 5)))
	for op := 0; op < RecoveryMutations; op++ {
		epoch := uint64(2 + op)
		var rec wal.Record
		var step string
		if rng.Intn(3) == 0 && n > 3 {
			i := rng.Intn(n)
			step = fmt.Sprintf("op %d: delete %d", op, i)
			rec = wal.Record{Epoch: epoch, Op: wal.OpDelete, Index: i}
			if _, err := ix.Delete(i); err != nil {
				rep.fail(Mismatch{Kind: "recovery-maintain-error", Problem: prob, Detail: step + ": " + err.Error()})
				_ = dur.Close()
				return nil, nil, false
			}
			if _, err := ref.Delete(i); err != nil {
				rep.fail(Mismatch{Kind: "recovery-maintain-error", Problem: prob, Detail: step + " (reference): " + err.Error()})
				_ = dur.Close()
				return nil, nil, false
			}
			n--
		} else {
			p := vec.New(d)
			for j := range p {
				p[j] = 0.05 + 0.95*rng.Float64()
			}
			step = fmt.Sprintf("op %d: insert", op)
			rec = wal.Record{Epoch: epoch, Op: wal.OpInsert, Point: p}
			if _, err := ix.Insert(p); err != nil {
				rep.fail(Mismatch{Kind: "recovery-maintain-error", Problem: prob, Detail: step + ": " + err.Error()})
				_ = dur.Close()
				return nil, nil, false
			}
			if _, err := ref.Insert(p.Clone()); err != nil {
				rep.fail(Mismatch{Kind: "recovery-maintain-error", Problem: prob, Detail: step + " (reference): " + err.Error()})
				_ = dur.Close()
				return nil, nil, false
			}
			n++
		}
		rep.Mutations++
		bounds = append(bounds, bounds[len(bounds)-1]+int64(len(wal.Encode(rec))))
		wb, werr := regionBytes(ref.Snapshot().Prepared(), q)
		if werr != nil {
			rep.fail(Mismatch{Kind: "recovery-divergence", Problem: prob, Detail: step + ": reference solve failed: " + werr.Error()})
			_ = dur.Close()
			return nil, nil, false
		}
		want = append(want, wb)
	}
	if err := dur.Close(); err != nil {
		rep.fail(Mismatch{Kind: "recovery-open-error", Problem: prob, Detail: "close: " + err.Error()})
		return nil, nil, false
	}
	return want, bounds, true
}

// CrashImage is one crash state of the recovery sweep, as decoder input:
// the WAL segment the crash left behind, and the checkpoint that recovery
// from it writes.
type CrashImage struct {
	Name       string // problem, surviving records and crash kind, e.g. "p003-k2-torn"
	Segment    []byte
	Checkpoint []byte
}

// CrashImages recovers from every crash point of the given recovery-sweep
// problems (ordinals as in RunRecovery, which skips unsolvable ones too)
// and returns the images, using scratch as RunRecovery does. They seed the
// WAL and checkpoint decoders' fuzz targets.
func CrashImages(cfg Config, scratch string, problems ...int) ([]CrashImage, error) {
	cfg = cfg.withDefaults()
	var out []CrashImage
	for _, i := range problems {
		ins, ok := instance(cfg, i)
		if !ok {
			continue
		}
		dir := filepath.Join(scratch, fmt.Sprintf("p%03d", i))
		var rep RecoveryReport
		_, bounds, ok := logRecoveryProblem(cfg, ins, int64(i), dir, &rep)
		if len(rep.Mismatches) > 0 {
			return nil, fmt.Errorf("problem %d: %s", i, rep.Mismatches[0].Detail)
		}
		if !ok {
			continue
		}
		seg, err := os.ReadFile(filepath.Join(dir, recoverySegment))
		if err != nil {
			return nil, err
		}
		for _, c := range crashPoints(bounds) {
			ckpt, err := recoveredCheckpoint(dir, c.off)
			if err != nil {
				return nil, fmt.Errorf("problem %d, offset %d: %w", i, c.off, err)
			}
			kind := "clean"
			if c.torn {
				kind = fmt.Sprintf("torn%d", c.off-bounds[c.k])
			}
			out = append(out, CrashImage{
				Name:    fmt.Sprintf("p%03d-k%d-%s", i, c.k, kind),
				Segment: seg[:c.off], Checkpoint: ckpt,
			})
		}
	}
	return out, nil
}

// recoveredCheckpoint recovers a crash image of dir cut at off and returns
// the checkpoint the recovery wrote.
func recoveredCheckpoint(dir string, off int64) ([]byte, error) {
	crash, err := copyCrashImage(dir, recoverySegment, off)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(crash)
	rix, rd, _, err := index.OpenDurable(index.DurableOptions{Dir: crash, Sync: wal.SyncAlways}, nil)
	if err != nil {
		return nil, err
	}
	if err := rd.Close(); err != nil {
		return nil, err
	}
	return os.ReadFile(filepath.Join(crash, fmt.Sprintf("checkpoint-%020d.ckpt", rix.Version())))
}

// crashRecover copies the durability directory with its WAL segment
// truncated to off bytes — the crash image — recovers it, and checks the
// recovered index against the expected prefix state.
func crashRecover(prob Problem, dir, seg string, off int64, k int, torn bool, wantRegion []byte, q core.Query, rep *RecoveryReport) {
	where := fmt.Sprintf("kill after %d record(s) at offset %d (torn=%v)", k, off, torn)
	crash, err := copyCrashImage(dir, seg, off)
	if err != nil {
		rep.fail(Mismatch{Kind: "recovery-open-error", Problem: prob, Detail: where + ": " + err.Error()})
		return
	}
	defer os.RemoveAll(crash)
	reg := obs.NewRegistry()
	rix, rd, rec, err := index.OpenDurable(index.DurableOptions{Dir: crash, Sync: wal.SyncAlways, Metrics: reg}, nil)
	if err != nil {
		rep.fail(Mismatch{Kind: "recovery-open-error", Problem: prob, Detail: where + ": " + err.Error()})
		return
	}
	defer rd.Close()
	rep.Replayed += rec.Replayed
	rep.Truncations += int(reg.Counter("wal.truncated").Value())
	if rec.Replayed != k || rix.Version() != uint64(1+k) {
		rep.fail(Mismatch{Kind: "recovery-replay-count", Problem: prob,
			Detail: fmt.Sprintf("%s: replayed %d records to version %d, want %d to %d", where, rec.Replayed, rix.Version(), k, 1+k)})
		return
	}
	if torn && rec.Truncated == nil {
		rep.fail(Mismatch{Kind: "recovery-truncation-missing", Problem: prob,
			Detail: where + ": torn tail recovered without truncation"})
		return
	}
	got, gotErr := regionBytes(rix.Snapshot().Prepared(), q)
	if gotErr != nil {
		rep.fail(Mismatch{Kind: "recovery-divergence", Problem: prob, Detail: where + ": recovered solve failed: " + gotErr.Error()})
		return
	}
	if !bytes.Equal(got, wantRegion) {
		rep.fail(Mismatch{Kind: "recovery-divergence", Problem: prob,
			Detail: fmt.Sprintf("%s: recovered region differs from uninterrupted index\n got: %s\nwant: %s", where, got, wantRegion)})
	}
}

// copyCrashImage clones the durability directory into a sibling, with the
// named WAL segment truncated to off bytes — the byte-level state a crash
// at that offset would leave behind.
func copyCrashImage(dir, seg string, off int64) (string, error) {
	crash, err := os.MkdirTemp(filepath.Dir(dir), filepath.Base(dir)+"-crash-")
	if err != nil {
		return "", err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if err := copyFile(filepath.Join(dir, e.Name()), filepath.Join(crash, e.Name())); err != nil {
			return "", err
		}
	}
	if err := os.Truncate(filepath.Join(crash, seg), off); err != nil {
		return "", err
	}
	return crash, nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
