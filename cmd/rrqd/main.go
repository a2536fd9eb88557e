// Command rrqd is the long-running reverse-regret-query server: it builds a
// persistent snapshot index over a dataset and serves JSON solve, insert,
// delete and stats endpoints over HTTP, with queue-depth-aware admission
// control (load shedding with Retry-After under the cap policy), per-tenant
// work metering and a monotonicity-aware result cache.
//
// Usage:
//
//	rrqd -data cars.csv -addr :8080
//	rrqd -synthetic indep:5000:3:1 -cache 1024 -cache-bounds
//	rrqd -real NBA:3000 -policy cap -capacity 8 -queue 64
//	rrqd -synthetic indep:2000:2:7 -tenant-rate 50000 -tenant-burst 200000
//	rrqd -synthetic indep:2000:3:1 -wal-dir /var/lib/rrqd -fsync always
//	rrqd -synthetic indep:5000:4:1 -policy cap -query-timeout 50ms -anytime 20ms
//
// With -anytime the server has one rung below an exact answer: a request
// the cap policy would shed, or whose exact solve runs out of
// -query-timeout or -budget, is answered on the anytime tier (a sound inner
// region with an accuracy receipt) instead of 429 or 504.
//
// With -wal-dir the server is durable: mutations are written ahead to a
// checksummed log before they are acknowledged, snapshots fold into
// crash-atomic checkpoints every -checkpoint-every mutations, and a
// restart recovers the acknowledged state (replaying the WAL tail,
// truncating torn records) while the listener answers 503 "recovering".
// The dataset flags then only seed the very first start — a restart
// recovers from the directory alone.
//
// See docs/SERVING.md for the endpoint reference, cache semantics and the
// durability contract.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rrq"
	"rrq/internal/dataset"
	"rrq/internal/faultinject"
	"rrq/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		dataPath    = flag.String("data", "", "CSV dataset path (header + numeric rows)")
		synthetic   = flag.String("synthetic", "", "synthetic dataset spec type:n:d:seed, e.g. indep:5000:3:1")
		real        = flag.String("real", "", "real dataset stand-in spec name:maxN, e.g. NBA:3000")
		algoStr     = flag.String("algo", "auto", "auto|sweeping|ept|apc|lpcta|brute")
		samples     = flag.Int("samples", 0, "A-PC sample count (0 = paper default)")
		cacheN      = flag.Int("cache", 1024, "result cache capacity in entries (0 = no cache)")
		cacheBnd    = flag.Bool("cache-bounds", false, "serve sound inner/outer bounds from cached neighbors")
		qTimeout    = flag.Duration("query-timeout", 0, "per-query wall-clock limit (0 = none)")
		budget      = flag.Int64("budget", 0, "per-query work budget in solver units (0 = none)")
		policyStr   = flag.String("policy", "always", `admission policy: "always" (queue) or "cap" (shed)`)
		capacity    = flag.Int("capacity", 0, "concurrent solve slots (0 = GOMAXPROCS)")
		queueLen    = flag.Int("queue", 64, "queued requests beyond the slots before the cap policy sheds")
		tenantRate  = flag.Float64("tenant-rate", 0, "per-tenant refill rate in work units/second (0 = no metering)")
		tenantBurst = flag.Float64("tenant-burst", 0, "per-tenant budget burst in work units")

		walDir     = flag.String("wal-dir", "", "durability directory (WAL + checkpoints); empty = in-memory only")
		fsync      = flag.String("fsync", "always", `WAL fsync policy: "always", "interval" or "never"`)
		fsyncEvery = flag.Duration("fsync-interval", 100*time.Millisecond, `flush period under -fsync interval`)
		ckptEvery  = flag.Int("checkpoint-every", 0, "mutations between automatic checkpoints (0 = default 256)")
		drainT     = flag.Duration("drain-timeout", 10*time.Second, "graceful-drain limit before in-flight requests are force-closed")
		drainG     = flag.Duration("drain-grace", 0, "after SIGTERM, keep the listener open this long answering 503 so load balancers observe the drain before connections close")
		solveDelay = flag.Duration("debug-solve-delay", 0, "artificial per-solve delay (shutdown/drain testing only)")
		anytime    = flag.Duration("anytime", 0, "answer on the anytime tier under this per-solve budget when the cap policy is saturated or an exact solve exceeds -query-timeout or -budget (0 = 429/504 as usual)")
	)
	flag.Parse()

	algo, err := parseAlgo(*algoStr)
	fatal(err)

	reg := rrq.NewRegistry()
	opts := []rrq.Option{
		rrq.WithAlgorithm(algo),
		rrq.WithMetrics(reg),
		rrq.WithResultCache(*cacheN),
		rrq.WithCacheBounds(*cacheBnd),
	}
	if *samples > 0 {
		opts = append(opts, rrq.WithSamples(*samples))
	}
	if *qTimeout > 0 {
		opts = append(opts, rrq.WithQueryTimeout(*qTimeout))
	}
	if *budget > 0 {
		opts = append(opts, rrq.WithWorkBudget(*budget))
	}

	durable := *walDir != ""
	var ix *rrq.Index
	if !durable {
		// In-memory serving: build before listening, exactly as before.
		ds, err := loadDataset(*dataPath, *synthetic, *real)
		fatal(err)
		buildStart := time.Now()
		ix, err = rrq.BuildIndex(ds, opts...)
		fatal(err)
		fmt.Printf("rrqd: index built: %d points, dim %d, epoch %d (%v)\n",
			ix.Len(), ix.Dim(), ix.Version(), time.Since(buildStart).Round(time.Millisecond))
	}

	policy, err := server.ParseAdmissionPolicy(*policyStr)
	fatal(err)
	if *capacity <= 0 {
		*capacity = runtime.GOMAXPROCS(0)
	}
	cfg := server.Config{
		Index:         ix,
		Recovering:    durable,
		Metrics:       reg,
		Admission:     server.NewAdmission(policy, *capacity, *queueLen),
		AnytimeBudget: *anytime,
	}
	if *tenantRate > 0 && *tenantBurst > 0 {
		cfg.Tenants = server.NewTenantBudgets(*tenantRate, *tenantBurst)
	}
	if *solveDelay > 0 {
		in := faultinject.New(&faultinject.Fault{Point: faultinject.SolveStart, Delay: *solveDelay})
		cfg.BaseContext = func() context.Context {
			return faultinject.ContextWith(context.Background(), in)
		}
	}
	srv, err := server.New(cfg)
	fatal(err)

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		fmt.Printf("rrqd: serving on %s (policy=%s capacity=%d cache=%d)\n",
			*addr, policy, cfg.Admission.Capacity(), *cacheN)
		errc <- httpSrv.ListenAndServe()
	}()

	if durable {
		// Recover while the listener answers 503 "recovering": the dataset
		// flags seed only a first start — the closure is not invoked when a
		// checkpoint exists, so restarts need no dataset source.
		recoverStart := time.Now()
		seed := func() (*rrq.Dataset, error) {
			ds, err := loadDataset(*dataPath, *synthetic, *real)
			if err != nil {
				return nil, fmt.Errorf("rrqd: no checkpoint in %s, seeding needs a dataset: %w", *walDir, err)
			}
			return ds, nil
		}
		var rec *rrq.RecoveryInfo
		ix, rec, err = rrq.OpenDurableIndex(rrq.DurableConfig{
			Dir:             *walDir,
			Fsync:           *fsync,
			FsyncInterval:   *fsyncEvery,
			CheckpointEvery: *ckptEvery,
		}, seed, opts...)
		fatal(err)
		fmt.Printf("rrqd: recovered in %v: %s\n", time.Since(recoverStart).Round(time.Millisecond), rec)
		srv.Ready(ix)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("rrqd: %v — draining (timeout %v)\n", sig, *drainT)
		srv.StartDrain()
		if *drainG > 0 {
			// Announce before closing: new requests answer 503 with
			// Retry-After while the listener stays open, giving health
			// checkers time to deregister the instance.
			time.Sleep(*drainG)
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drainT)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			// Drain expired: count it, force-close the stragglers and keep
			// shutting down — durability does not depend on their answers.
			reg.Counter("server.drain_forced").Inc()
			fmt.Fprintf(os.Stderr, "rrqd: drain timeout after %v, forcing close: %v\n", *drainT, err)
			_ = httpSrv.Close()
		}
		if durable {
			// Final checkpoint: a clean restart then replays nothing.
			if err := ix.Checkpoint(); err != nil {
				fmt.Fprintf(os.Stderr, "rrqd: final checkpoint: %v (WAL remains authoritative)\n", err)
			} else {
				fmt.Printf("rrqd: final checkpoint at version %d\n", ix.LastCheckpointVersion())
			}
			if err := ix.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "rrqd: wal close: %v\n", err)
			}
		}
		fmt.Println("rrqd: clean shutdown")
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}
}

// loadDataset resolves exactly one of the three dataset sources.
func loadDataset(csvPath, synthetic, real string) (*rrq.Dataset, error) {
	set := 0
	for _, s := range []string{csvPath, synthetic, real} {
		if s != "" {
			set++
		}
	}
	if set != 1 {
		return nil, errors.New("rrqd: exactly one of -data, -synthetic, -real is required")
	}
	switch {
	case csvPath != "":
		f, err := os.Open(csvPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		pts, err := dataset.ReadCSV(f)
		if err != nil {
			return nil, err
		}
		if len(pts) == 0 {
			return nil, fmt.Errorf("rrqd: no data rows in %s", csvPath)
		}
		raw := make([][]float64, len(pts))
		for i, p := range pts {
			raw[i] = p
		}
		ds, err := rrq.NewDataset(raw)
		if err != nil {
			return nil, err
		}
		return ds.Normalize(), nil
	case synthetic != "":
		parts := strings.Split(synthetic, ":")
		if len(parts) != 4 {
			return nil, fmt.Errorf("rrqd: -synthetic wants type:n:d:seed, got %q", synthetic)
		}
		var t rrq.DistType
		switch parts[0] {
		case "indep":
			t = rrq.Independent
		case "corr":
			t = rrq.Correlated
		case "anti":
			t = rrq.Anticorrelated
		default:
			return nil, fmt.Errorf("rrqd: unknown distribution %q (want indep|corr|anti)", parts[0])
		}
		n, err1 := strconv.Atoi(parts[1])
		d, err2 := strconv.Atoi(parts[2])
		seed, err3 := strconv.ParseInt(parts[3], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("rrqd: malformed -synthetic %q", synthetic)
		}
		return rrq.SyntheticDataset(t, n, d, seed), nil
	default:
		name, maxS, ok := strings.Cut(real, ":")
		maxN := 0
		if ok {
			var err error
			if maxN, err = strconv.Atoi(maxS); err != nil {
				return nil, fmt.Errorf("rrqd: malformed -real %q", real)
			}
		}
		return rrq.RealDataset(name, maxN)
	}
}

func parseAlgo(s string) (rrq.Algorithm, error) {
	switch strings.ToLower(s) {
	case "auto":
		return rrq.Auto, nil
	case "sweeping", "sweep":
		return rrq.SweepingAlgo, nil
	case "ept":
		return rrq.EPTAlgo, nil
	case "apc":
		return rrq.APCAlgo, nil
	case "lpcta":
		return rrq.LPCTAAlgo, nil
	case "brute":
		return rrq.BruteForceAlgo, nil
	default:
		return 0, fmt.Errorf("rrqd: unknown algorithm %q", s)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
