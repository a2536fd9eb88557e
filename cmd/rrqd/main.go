// Command rrqd is the long-running reverse-regret-query server: it builds a
// persistent snapshot index over a dataset and serves JSON solve, insert,
// delete and stats endpoints over HTTP, with queue-depth-aware admission
// control (load shedding with Retry-After under the cap policy), per-tenant
// work metering and a monotonicity-aware result cache.
//
// Usage:
//
//	rrqd -data cars.csv -addr :8080
//	rrqd -synthetic indep:5000:3:1 -cache 1024
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
	"syscall"
	"time"

	"rrq"
	"rrq/internal/faultinject"
	"rrq/internal/server"
)

func main() {
	sf := server.RegisterFlags(flag.CommandLine)
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		walDir     = flag.String("wal-dir", "", "durability directory (WAL + checkpoints); empty = in-memory only")
		fsync      = flag.String("fsync", "always", `WAL fsync policy: "always", "interval" or "never"`)
		fsyncEvery = flag.Duration("fsync-interval", 100*time.Millisecond, `flush period under -fsync interval`)
		ckptEvery  = flag.Int("checkpoint-every", 0, "mutations between automatic checkpoints (0 = default 256)")
		drainT     = flag.Duration("drain-timeout", 10*time.Second, "graceful-drain limit before in-flight requests are force-closed")
		drainG     = flag.Duration("drain-grace", 0, "after SIGTERM, keep the listener open this long answering 503 so load balancers observe the drain before connections close")
		solveDelay = flag.Duration("debug-solve-delay", 0, "artificial per-solve delay (shutdown/drain testing only)")
	)
	flag.Parse()

	reg := rrq.NewRegistry()
	opts, err := sf.IndexOptions(reg)
	fatal(err)
	cfg, err := sf.Config(reg)
	fatal(err)

	durable := *walDir != ""
	var ix *rrq.Index
	if !durable {
		// In-memory serving: build before listening, exactly as before.
		ds, err := sf.Dataset()
		fatal(err)
		buildStart := time.Now()
		ix, err = rrq.BuildIndex(ds, opts...)
		fatal(err)
		fmt.Printf("rrqd: index built: %d points, dim %d, epoch %d (%v)\n",
			ix.Len(), ix.Dim(), ix.Version(), time.Since(buildStart).Round(time.Millisecond))
	}

	cfg.Index = ix
	cfg.Recovering = durable
	srv, err := server.New(cfg)
	fatal(err)
	handler := srv.Handler()
	if *solveDelay > 0 {
		in := faultinject.New(&faultinject.Fault{Point: faultinject.SolveStart, Delay: *solveDelay})
		next := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			next.ServeHTTP(w, r.WithContext(faultinject.ContextWith(r.Context(), in)))
		})
	}

	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() {
		fmt.Printf("rrqd: serving on %s (policy=%s capacity=%d cache=%d)\n",
			*addr, cfg.Admission.Policy(), cfg.Admission.Capacity(), sf.Cache)
		errc <- httpSrv.ListenAndServe()
	}()

	if durable {
		// Recover while the listener answers 503 "recovering": the dataset
		// flags seed only a first start — the closure is not invoked when a
		// checkpoint exists, so restarts need no dataset source.
		recoverStart := time.Now()
		seed := func() (*rrq.Dataset, error) {
			ds, err := sf.Dataset()
			if err != nil {
				return nil, fmt.Errorf("no checkpoint in %s, seeding needs a dataset: %w", *walDir, err)
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

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "rrqd:", err)
		os.Exit(1)
	}
}
