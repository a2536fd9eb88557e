package diffcheck

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rrq/internal/diffcheck/corpus"
)

// TestRecoveryDifferentialSweep is the durability acceptance gate: across
// the corpus, an index recovered from a crash at any WAL record boundary —
// or inside any record — must serve regions byte-identical to an
// uninterrupted index holding the same acknowledged prefix, and torn tails
// must be truncated, not fatal.
func TestRecoveryDifferentialSweep(t *testing.T) {
	rep := RunRecovery(Config{Seed: 20240808}, t.TempDir())

	if rep.Problems < 20 {
		t.Fatalf("ran %d problems, want ≥ 20", rep.Problems)
	}
	if rep.KillPoints == 0 || rep.TornTails == 0 {
		t.Fatalf("sweep exercised %d kill points, %d torn tails — want both > 0", rep.KillPoints, rep.TornTails)
	}
	// Every torn-tail crash image must have been repaired by truncation.
	if rep.Truncations < rep.TornTails {
		t.Errorf("%d truncations for %d torn tails: some torn tails recovered without repair", rep.Truncations, rep.TornTails)
	}
	if rep.Replayed == 0 {
		t.Errorf("no WAL records replayed across %d recoveries", rep.KillPoints+rep.TornTails)
	}
	for i, m := range rep.Mismatches {
		if i >= 5 {
			t.Errorf("... and %d more mismatches", len(rep.Mismatches)-5)
			break
		}
		t.Errorf("mismatch:\n%s", m.JSON())
	}
}

// TestRunRecoveryDeterminism: identical configs must produce identical
// reports (modulo the scratch directory).
func TestRunRecoveryDeterminism(t *testing.T) {
	cfg := Config{Seed: 7, Problems: 6}
	a := RunRecovery(cfg, t.TempDir())
	b := RunRecovery(cfg, t.TempDir())
	if a.Problems != b.Problems || a.Mutations != b.Mutations || a.KillPoints != b.KillPoints ||
		a.TornTails != b.TornTails || a.Replayed != b.Replayed || len(a.Mismatches) != len(b.Mismatches) {
		t.Fatalf("reports differ across identical runs: %+v vs %+v", a, b)
	}
}

var updateCrashSeeds = flag.Bool("update-crash-seeds", false,
	"rewrite the crash-image seed corpora of FuzzReplay and FuzzLoad")

// crashSeedProblems are the recovery-sweep problems whose crash images seed
// the decoder fuzz targets: dimensions 2 through 6.
var crashSeedProblems = []int{0, corpus.NumFamilies, 2 * corpus.NumFamilies, 3 * corpus.NumFamilies, 4*corpus.NumFamilies + 1}

// TestCrashImageSeeds keeps the checked-in seed corpora of the WAL and
// checkpoint decoders' fuzz targets equal to the crash images the recovery
// sweep recovers from: every record-boundary and torn-tail cut of the WAL
// segment seeds FuzzReplay, and the checkpoint each recovery writes seeds
// FuzzLoad. After a format change, refresh them with
//
//	go test ./internal/diffcheck -run TestCrashImageSeeds -update-crash-seeds
func TestCrashImageSeeds(t *testing.T) {
	imgs, err := CrashImages(Config{Seed: 20240808}, t.TempDir(), crashSeedProblems...)
	if err != nil {
		t.Fatal(err)
	}
	if len(imgs) < 4*len(crashSeedProblems) {
		t.Fatalf("%d crash images from %d problems", len(imgs), len(crashSeedProblems))
	}
	want := map[string][]byte{}
	seen := map[string]bool{}
	for _, img := range imgs {
		want[filepath.Join("..", "wal", "testdata", "fuzz", "FuzzReplay", "crash-"+img.Name)] = fuzzCorpusFile(img.Segment)
		// Torn tails recover to the same state as the boundary before them.
		if sum := string(img.Checkpoint); !seen[sum] {
			seen[sum] = true
			want[filepath.Join("..", "index", "testdata", "fuzz", "FuzzLoad", "crash-"+img.Name)] = fuzzCorpusFile(img.Checkpoint)
		}
	}
	if *updateCrashSeeds {
		for _, dir := range []string{"../wal/testdata/fuzz/FuzzReplay", "../index/testdata/fuzz/FuzzLoad"} {
			old, _ := filepath.Glob(filepath.Join(dir, "crash-*"))
			for _, f := range old {
				if err := os.Remove(f); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		for path, b := range want {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	for path, b := range want {
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, b) {
			t.Errorf("seed %s is missing or stale; regenerate with -update-crash-seeds", path)
		}
	}
	for _, glob := range []string{"../wal/testdata/fuzz/FuzzReplay/crash-*", "../index/testdata/fuzz/FuzzLoad/crash-*"} {
		files, _ := filepath.Glob(glob)
		for _, f := range files {
			if _, ok := want[f]; !ok {
				t.Errorf("seed %s is no crash image of the sweep; regenerate with -update-crash-seeds", f)
			}
		}
	}
}

// fuzzCorpusFile encodes one []byte fuzz input in the corpus file format
// of go test.
func fuzzCorpusFile(b []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b))
}
