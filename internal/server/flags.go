package server

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rrq"
	"rrq/internal/dataset"
)

// Flags are rrqd's dataset, index and serving flags. RegisterFlags defines
// them once, so every command that builds a Server from its command line
// (rrqd, rrqsim) takes the same names, defaults and meanings.
type Flags struct {
	Data, Synthetic, Real   string
	Algo                    string
	Samples                 int
	Cache                   int
	QueryTimeout            time.Duration
	Budget                  int64
	Policy                  string
	Capacity, Queue         int
	TenantRate, TenantBurst float64
	Anytime                 time.Duration
}

// RegisterFlags defines the dataset, index and serving flags on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Data, "data", "", "CSV dataset path (header + numeric rows)")
	fs.StringVar(&f.Synthetic, "synthetic", "", "synthetic dataset spec type:n:d:seed, e.g. indep:5000:3:1")
	fs.StringVar(&f.Real, "real", "", "real dataset stand-in spec name:maxN, e.g. NBA:3000")
	fs.StringVar(&f.Algo, "algo", "auto", "auto|sweeping|ept|apc|lpcta|brute")
	fs.IntVar(&f.Samples, "samples", 0, "A-PC sample count (0 = paper default)")
	fs.IntVar(&f.Cache, "cache", 1024, "result cache capacity in entries (0 = no cache)")
	fs.DurationVar(&f.QueryTimeout, "query-timeout", 0, "per-query wall-clock limit (0 = none)")
	fs.Int64Var(&f.Budget, "budget", 0, "per-query work budget in solver units (0 = none)")
	fs.StringVar(&f.Policy, "policy", "always", `admission policy: "always" (queue) or "cap" (shed)`)
	fs.IntVar(&f.Capacity, "capacity", 0, "concurrent solve slots (0 = GOMAXPROCS)")
	fs.IntVar(&f.Queue, "queue", 64, "queued requests beyond the slots before the cap policy sheds")
	fs.Float64Var(&f.TenantRate, "tenant-rate", 0, "per-tenant refill rate in work units/second (0 = no metering)")
	fs.Float64Var(&f.TenantBurst, "tenant-burst", 0, "per-tenant budget burst in work units")
	fs.DurationVar(&f.Anytime, "anytime", 0, "answer on the anytime tier under this per-solve budget when the cap policy is saturated or an exact solve exceeds -query-timeout or -budget (0 = 429/504 as usual)")
	return f
}

// IndexOptions maps the index flags onto library options, metering into
// reg.
func (f *Flags) IndexOptions(reg *rrq.Registry) ([]rrq.Option, error) {
	algo, err := rrq.ParseAlgorithm(f.Algo)
	if err != nil {
		return nil, err
	}
	opts := []rrq.Option{
		rrq.WithAlgorithm(algo),
		rrq.WithMetrics(reg),
		rrq.WithResultCache(f.Cache),
	}
	if f.Samples > 0 {
		opts = append(opts, rrq.WithSamples(f.Samples))
	}
	if f.QueryTimeout > 0 {
		opts = append(opts, rrq.WithQueryTimeout(f.QueryTimeout))
	}
	if f.Budget > 0 {
		opts = append(opts, rrq.WithWorkBudget(f.Budget))
	}
	return opts, nil
}

// Config maps the serving flags onto a Config (admission, tenant metering,
// the anytime rung) reporting into reg. The caller supplies the index.
func (f *Flags) Config(reg *rrq.Registry) (Config, error) {
	policy, err := ParseAdmissionPolicy(f.Policy)
	if err != nil {
		return Config{}, err
	}
	capacity := f.Capacity
	if capacity <= 0 {
		capacity = runtime.GOMAXPROCS(0)
	}
	cfg := Config{
		Metrics:       reg,
		Admission:     NewAdmission(policy, capacity, f.Queue),
		AnytimeBudget: f.Anytime,
	}
	if f.TenantRate > 0 && f.TenantBurst > 0 {
		cfg.Tenants = NewTenantBudgets(f.TenantRate, f.TenantBurst)
	}
	return cfg, nil
}

// Dataset loads the one dataset source -data, -synthetic or -real names.
func (f *Flags) Dataset() (*rrq.Dataset, error) {
	set := 0
	for _, s := range []string{f.Data, f.Synthetic, f.Real} {
		if s != "" {
			set++
		}
	}
	if set != 1 {
		return nil, errors.New("exactly one of -data, -synthetic, -real is required")
	}
	switch {
	case f.Data != "":
		return readCSV(f.Data)
	case f.Synthetic != "":
		parts := strings.Split(f.Synthetic, ":")
		if len(parts) != 4 {
			return nil, fmt.Errorf("-synthetic wants type:n:d:seed, got %q", f.Synthetic)
		}
		t, ok := map[string]rrq.DistType{"indep": rrq.Independent, "corr": rrq.Correlated, "anti": rrq.Anticorrelated}[parts[0]]
		if !ok {
			return nil, fmt.Errorf("unknown distribution %q (want indep|corr|anti)", parts[0])
		}
		n, err1 := strconv.Atoi(parts[1])
		d, err2 := strconv.Atoi(parts[2])
		seed, err3 := strconv.ParseInt(parts[3], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("malformed -synthetic %q", f.Synthetic)
		}
		return rrq.SyntheticDataset(t, n, d, seed), nil
	default:
		name, maxS, ok := strings.Cut(f.Real, ":")
		maxN := 0
		if ok {
			var err error
			if maxN, err = strconv.Atoi(maxS); err != nil {
				return nil, fmt.Errorf("malformed -real %q", f.Real)
			}
		}
		return rrq.RealDataset(name, maxN)
	}
}

// readCSV loads a header + numeric-rows CSV dataset and rescales it into
// (0,1].
func readCSV(path string) (*rrq.Dataset, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	rows, err := dataset.ReadCSV(fh)
	if err != nil {
		return nil, err
	}
	return rrq.NewNormalizedDataset(rows)
}
