package rrq

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
)

// indexTestInstance builds a small synthetic dataset and a query over it.
func indexTestInstance(t *testing.T, d int, seed int64) (*Dataset, Query) {
	t.Helper()
	ds := SyntheticDataset(Independent, 40, d, seed)
	return ds, Query{Q: ds.RandomQuery(seed + 1), K: 3, Epsilon: 0.1}
}

// The public index must serve byte-identical regions to a from-scratch solve
// with the skyband prefilter, before and after mutations.
func TestIndexMatchesSolve(t *testing.T) {
	for _, d := range []int{2, 3} {
		ds, q := indexTestInstance(t, d, int64(100*d))
		ix, err := BuildIndex(ds)
		if err != nil {
			t.Fatal(err)
		}
		if ix.Version() != 1 || ix.Len() != ds.Len() || ix.Dim() != d {
			t.Fatalf("fresh index: version=%d len=%d dim=%d", ix.Version(), ix.Len(), ix.Dim())
		}

		check := func(cur *Dataset) *Region {
			t.Helper()
			got, err := regionOf(ix.SolveContext(context.Background(), q))
			if err != nil {
				t.Fatal(err)
			}
			res, err := SolveContext(context.Background(), cur, q, WithSkybandPrefilter(true))
			if err != nil {
				t.Fatal(err)
			}
			gb, _ := got.MarshalJSON()
			wb, _ := res.Region.MarshalJSON()
			if !bytes.Equal(gb, wb) {
				t.Fatalf("d=%d: index-served region differs from fresh solve\n got: %s\nwant: %s", d, gb, wb)
			}
			return got
		}
		prev := check(ds)

		rng := rand.New(rand.NewSource(int64(7 * d)))
		raw := make([][]float64, ds.Len())
		for i := range raw {
			raw[i] = ds.PointAt(i)
		}
		for op := 0; op < 10; op++ {
			inserted := false
			if rng.Intn(3) == 0 && len(raw) > 5 {
				i := rng.Intn(len(raw))
				if _, err := ix.Delete(i); err != nil {
					t.Fatal(err)
				}
				raw = append(raw[:i:i], raw[i+1:]...)
			} else {
				p := make(Point, d)
				for j := range p {
					p[j] = 0.05 + 0.9*rng.Float64()
				}
				if _, err := ix.Insert(p); err != nil {
					t.Fatal(err)
				}
				raw = append(raw, p)
				inserted = true
			}
			cur, err := NewDataset(raw)
			if err != nil {
				t.Fatal(err)
			}
			got := check(cur)
			// An insertion only adds a competitor: the region never grows.
			if inserted {
				if before, after := prev.Measure(20000), got.Measure(20000); after > before+1e-9 {
					t.Fatalf("d=%d: region grew after an insertion: %v -> %v", d, before, after)
				}
			}
			prev = got
		}
		if want := uint64(11); ix.Version() != want {
			t.Fatalf("version = %d after 10 mutations, want %d", ix.Version(), want)
		}
	}
}

// Save/LoadIndex must round-trip the epoch, the shape and the answers
// through the public API.
func TestIndexSaveLoadPublic(t *testing.T) {
	ds, q := indexTestInstance(t, 3, 321)
	ix, err := BuildIndex(ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert(ds.RandomQuery(99)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Version() != ix.Version() || back.Len() != ix.Len() || back.Dim() != ix.Dim() {
		t.Fatalf("round-trip mismatch: got v=%d len=%d dim=%d", back.Version(), back.Len(), back.Dim())
	}
	a, err := regionOf(ix.SolveContext(context.Background(), q))
	if err != nil {
		t.Fatal(err)
	}
	b, err := regionOf(back.SolveContext(context.Background(), q))
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := a.MarshalJSON()
	bj, _ := b.MarshalJSON()
	if !bytes.Equal(aj, bj) {
		t.Fatalf("loaded index answers differently")
	}
	if v, err := back.Insert(ds.RandomQuery(100)); err != nil || v != ix.Version()+1 {
		t.Fatalf("post-load insert: v=%d err=%v, want v=%d", v, err, ix.Version()+1)
	}
}

// SolveBatch over an index pins the whole batch to one snapshot and carries
// the index observability counters.
func TestIndexSolveBatchAndMetrics(t *testing.T) {
	ds, q := indexTestInstance(t, 3, 555)
	reg := NewRegistry()
	ix, err := BuildIndex(ds, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{q, q, {Q: ds.RandomQuery(7), K: 2, Epsilon: 0.05}}
	report, err := ix.SolveBatch(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if report.Solved != len(queries) || report.Failed != 0 {
		t.Fatalf("batch: solved=%d failed=%d", report.Solved, report.Failed)
	}
	if _, err := ix.Insert(ds.RandomQuery(8)); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Delete(0); err != nil {
		t.Fatal(err)
	}
	text := reg.Text()
	for _, want := range []string{"index.builds", "index.epoch", "index.inserts", "index.deletes", "index.planes.miss"} {
		if !bytes.Contains([]byte(text), []byte(want)) {
			t.Errorf("metric %q missing from registry exposition:\n%s", want, text)
		}
	}
}

// An out-of-range delete is a typed *DataError from the index itself, so a
// server maps it to a 400 however the index changed since it last looked.
func TestIndexDeleteOutOfRangeTypedError(t *testing.T) {
	ds, _ := indexTestInstance(t, 3, 11)
	ix, err := BuildIndex(ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{ix.Len(), -1} {
		v, err := ix.Delete(i)
		var de *DataError
		if !errors.As(err, &de) {
			t.Fatalf("Delete(%d): err = %v, want *DataError", i, err)
		}
		if de.Point != i || de.Attr != -1 {
			t.Fatalf("Delete(%d): DataError{Point:%d Attr:%d}, want {%d, -1}", i, de.Point, de.Attr, i)
		}
		if v != 1 || ix.Version() != 1 {
			t.Fatalf("Delete(%d): version %d (index at %d), want 1", i, v, ix.Version())
		}
	}
}

// SyncWAL is the explicit durability flush: under Fsync "never" a logged
// mutation is not synced, SyncWAL syncs it, and an in-memory index has
// nothing to flush.
func TestSyncWAL(t *testing.T) {
	ds, _ := indexTestInstance(t, 3, 41)
	reg := NewRegistry()
	ix, _, err := OpenDurableIndex(DurableConfig{Dir: t.TempDir(), Fsync: "never"},
		func() (*Dataset, error) { return ds, nil }, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	syncNS := reg.Counter("wal.sync_ns")
	before := syncNS.Value()
	if _, err := ix.Insert(Point{0.5, 0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	if got := syncNS.Value(); got != before {
		t.Fatalf("Insert under Fsync never synced the WAL: wal.sync_ns %d → %d", before, got)
	}
	if err := ix.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	if got := syncNS.Value(); got <= before {
		t.Fatalf("SyncWAL did not sync the WAL: wal.sync_ns %d → %d", before, got)
	}

	mem, err := BuildIndex(ds)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.SyncWAL(); err != nil {
		t.Fatalf("SyncWAL on an in-memory index: %v", err)
	}
}
