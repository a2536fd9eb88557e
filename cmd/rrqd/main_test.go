package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"rrq"
)

// buildRRQD compiles the rrqd binary into dir and returns its path.
func buildRRQD(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "rrqd")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// freePort reserves an ephemeral port and releases it for the server.
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}

// waitHealthz polls /healthz until it reports want or the deadline passes.
func waitHealthz(t *testing.T, client *http.Client, base, want string, deadline time.Duration) {
	t.Helper()
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if strings.TrimSpace(buf.String()) == want {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("healthz never reported %q within %v", want, deadline)
}

// A solver that cannot answer the dataset's dimension is a startup error:
// rrqd exits before listening instead of answering every /v1/solve with a
// 500.
func TestStartupRejectsSweepingBeyond2D(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildRRQD(t, t.TempDir())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin,
		"-synthetic", "indep:100:3:1",
		"-algo", "sweeping",
		"-addr", fmt.Sprintf("127.0.0.1:%d", freePort(t)),
	)
	out, err := cmd.CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("rrqd kept running with -algo sweeping on 3-d data:\n%s", out)
	}
	if err == nil || !strings.Contains(string(out), "d = 2") {
		t.Fatalf("rrqd exit = %v, output:\n%s\nwant a non-zero exit naming the d = 2 requirement", err, out)
	}
}

// TestGracefulShutdownE2E drives the real binary through the drain
// contract: SIGTERM mid-solve lets the in-flight request complete, answers
// new requests 503 "draining", writes a final checkpoint, and the
// checkpoint round-trips — reopening the durability directory replays no
// WAL records and resumes at the acknowledged version.
func TestGracefulShutdownE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	scratch := t.TempDir()
	bin := buildRRQD(t, scratch)
	walDir := filepath.Join(scratch, "wal")
	port := freePort(t)
	base := fmt.Sprintf("http://127.0.0.1:%d", port)

	cmd := exec.Command(bin,
		"-synthetic", "indep:200:3:1",
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-wal-dir", walDir,
		"-debug-solve-delay", "900ms",
		"-drain-timeout", "15s",
		"-drain-grace", "3s",
	)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// One shared keep-alive client: its pooled connection is what keeps
	// post-SIGTERM requests reaching the handler (Shutdown closes the
	// listener, not established connections).
	client := &http.Client{Timeout: 10 * time.Second}
	waitHealthz(t, client, base, "ok", 10*time.Second)

	if resp, err := client.Post(base+"/v1/insert", "application/json",
		strings.NewReader(`{"point":[0.3,0.4,0.5]}`)); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("insert status %d", resp.StatusCode)
		}
	}

	// Launch the in-flight solve (it holds the handler for the debug
	// delay), then SIGTERM while it runs.
	type solveDone struct {
		status  int
		elapsed time.Duration
		err     error
	}
	donec := make(chan solveDone, 1)
	go func() {
		start := time.Now()
		resp, err := client.Post(base+"/v1/solve", "application/json",
			strings.NewReader(`{"q":[0.4,0.3,0.3],"k":2,"epsilon":0.1}`))
		d := solveDone{elapsed: time.Since(start), err: err}
		if err == nil {
			d.status = resp.StatusCode
			resp.Body.Close()
		}
		donec <- d
	}()
	time.Sleep(250 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// New requests on the pooled connection shed with 503 while draining.
	waitHealthz(t, client, base, "draining", 5*time.Second)
	resp, err := client.Post(base+"/v1/solve", "application/json",
		strings.NewReader(`{"q":[0.5,0.3,0.2],"k":2,"epsilon":0.1}`))
	if err != nil {
		t.Fatalf("post-SIGTERM request: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-SIGTERM solve status %d, want 503", resp.StatusCode)
	}

	// The in-flight solve must complete successfully despite the drain.
	d := <-donec
	if d.err != nil || d.status != http.StatusOK {
		t.Fatalf("in-flight solve: status %d err %v", d.status, d.err)
	}
	if d.elapsed < 800*time.Millisecond {
		t.Fatalf("in-flight solve finished in %v — the debug delay did not hold it across the SIGTERM", d.elapsed)
	}

	if err := cmd.Wait(); err != nil {
		t.Fatalf("rrqd exited with %v\n%s", err, out.String())
	}
	for _, wantLine := range []string{"rrqd: final checkpoint at version 2", "rrqd: clean shutdown"} {
		if !strings.Contains(out.String(), wantLine) {
			t.Fatalf("rrqd output missing %q:\n%s", wantLine, out.String())
		}
	}

	// The exit checkpoint round-trips: reopening needs no seed dataset,
	// replays nothing, and resumes at the acknowledged version.
	ix, rec, err := rrq.OpenDurableIndex(rrq.DurableConfig{Dir: walDir}, nil)
	if err != nil {
		t.Fatalf("reopen after clean shutdown: %v", err)
	}
	defer ix.Close()
	if rec.Replayed != 0 || rec.Fresh {
		t.Fatalf("clean shutdown still required replay: %s", rec)
	}
	if ix.Version() != 2 || ix.Len() != 201 {
		t.Fatalf("recovered version %d len %d, want 2/201", ix.Version(), ix.Len())
	}
}
