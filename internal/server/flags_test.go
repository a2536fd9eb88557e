package server

import (
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"rrq"
)

func parseFlags(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return f
}

// The defaults are rrqd's: the always policy on GOMAXPROCS slots with a
// 64-deep queue, no tenant metering, no anytime rung.
func TestFlagsDefaults(t *testing.T) {
	cfg, err := parseFlags(t).Config(nil)
	if err != nil {
		t.Fatal(err)
	}
	adm := cfg.Admission
	if adm.Policy() != AdmitAlways || adm.Capacity() != runtime.GOMAXPROCS(0) || adm.maxQueue != 64 {
		t.Fatalf("admission %s/%d/%d, want always/GOMAXPROCS/64", adm.Policy(), adm.Capacity(), adm.maxQueue)
	}
	if cfg.Tenants != nil || cfg.AnytimeBudget != 0 {
		t.Fatalf("defaults enable metering (%v) or the anytime rung (%v)", cfg.Tenants, cfg.AnytimeBudget)
	}
}

func TestFlagsConfig(t *testing.T) {
	f := parseFlags(t, "-policy", "cap", "-capacity", "3", "-queue", "5",
		"-tenant-rate", "10", "-tenant-burst", "20", "-anytime", "7ms")
	cfg, err := f.Config(nil)
	if err != nil {
		t.Fatal(err)
	}
	if adm := cfg.Admission; adm.Policy() != AdmitCap || adm.Capacity() != 3 || adm.maxQueue != 5 {
		t.Fatalf("admission %s/%d/%d, want cap/3/5", adm.Policy(), adm.Capacity(), adm.maxQueue)
	}
	if !cfg.Tenants.enabled() || cfg.AnytimeBudget != 7*time.Millisecond {
		t.Fatalf("tenants %+v anytime %v", cfg.Tenants, cfg.AnytimeBudget)
	}
	if _, err := parseFlags(t, "-policy", "lifo").Config(nil); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := parseFlags(t, "-algo", "simplex").IndexOptions(nil); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestFlagsDataset(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "d.csv")
	if err := os.WriteFile(csv, []byte("a,b\n0.2,0.9\n0.7,0.5\n0.6,0.3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args      []string
		n, dim    int
		errSubstr string
	}{
		{args: []string{"-synthetic", "indep:50:3:1"}, n: 50, dim: 3},
		{args: []string{"-data", csv}, n: 3, dim: 2},
		{args: nil, errSubstr: "exactly one"},
		{args: []string{"-data", csv, "-synthetic", "indep:50:3:1"}, errSubstr: "exactly one"},
		{args: []string{"-synthetic", "indep:50:3"}, errSubstr: "type:n:d:seed"},
		{args: []string{"-synthetic", "gauss:50:3:1"}, errSubstr: "unknown distribution"},
		{args: []string{"-real", "NBA:x"}, errSubstr: "malformed -real"},
	} {
		ds, err := parseFlags(t, tc.args...).Dataset()
		if tc.errSubstr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.errSubstr) {
				t.Errorf("%v: err %v, want %q", tc.args, err, tc.errSubstr)
			}
			continue
		}
		if err != nil || ds.Len() != tc.n || ds.Dim() != tc.dim {
			t.Errorf("%v: dataset %v err %v, want %d×%d", tc.args, ds, err, tc.n, tc.dim)
		}
	}
}

// IndexOptions carries every index flag into the built index.
func TestFlagsIndexOptions(t *testing.T) {
	f := parseFlags(t, "-algo", "sweep", "-cache", "8")
	opts, err := f.IndexOptions(rrq.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	ix, err := rrq.BuildIndex(rrq.SyntheticDataset(rrq.Independent, 50, 2, 1), opts...)
	if err != nil {
		t.Fatal(err)
	}
	q := rrq.Query{Q: rrq.Point{0.5, 0.5}, K: 2, Epsilon: 0.1}
	for _, want := range []rrq.CacheStatus{rrq.CacheMiss, rrq.CacheHit} {
		res, err := ix.SolveContext(context.Background(), q)
		if err != nil || res.Cache != want {
			t.Fatalf("cache %v err %v, want %v", res.Cache, err, want)
		}
	}
}
