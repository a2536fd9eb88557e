package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rrq"
	"rrq/internal/server"
)

// instance is one in-process rrqd: the index, its metrics registry and the
// HTTP server on a loopback port.
type instance struct {
	ix     *rrq.Index
	reg    *rrq.Registry
	dc     rrq.DurableConfig // zero unless durable
	hs     *http.Server
	url    string
	served chan error

	build time.Duration // the BuildIndex or OpenDurableIndex call
	setup time.Duration // dataset generation through the first /healthz 200
}

// options are the index options cmd/rrqd builds for the workload's flags.
func (w workload) options(reg *rrq.Registry) []rrq.Option {
	return []rrq.Option{
		rrq.WithAlgorithm(w.algo),
		rrq.WithMetrics(reg),
		rrq.WithResultCache(w.cache),
		rrq.WithCacheBounds(false),
	}
}

// start sets up one server the way cmd/rrqd does for the workload's flags:
// build the index before listening, or, when durable, listen while
// recovering and publish the index once OpenDurableIndex returns. wrap,
// when set, wraps the server's handler. walDir is used only when durable
// and must be empty.
func start(w workload, walDir string, wrap func(http.Handler) http.Handler) (*instance, error) {
	t0 := time.Now()
	reg := rrq.NewRegistry()
	opts := w.options(reg)
	inst := &instance{reg: reg, served: make(chan error, 1)}
	cfg := server.Config{
		Metrics:   reg,
		Admission: server.NewAdmission(server.AdmitAlways, runtime.GOMAXPROCS(0), 64),
	}
	if w.durable {
		cfg.Recovering = true
	} else {
		ds := w.dataset()
		b := time.Now()
		ix, err := rrq.BuildIndex(ds, opts...)
		inst.build = time.Since(b)
		if err != nil {
			return nil, fmt.Errorf("build index: %w", err)
		}
		inst.ix, cfg.Index = ix, ix
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	inst.hs = &http.Server{Handler: h}
	inst.url = "http://" + ln.Addr().String()
	go func() { inst.served <- inst.hs.Serve(ln) }()

	if w.durable {
		inst.dc = rrq.DurableConfig{Dir: walDir, Fsync: "always", FsyncInterval: 100 * time.Millisecond}
		b := time.Now()
		ix, _, err := rrq.OpenDurableIndex(inst.dc, func() (*rrq.Dataset, error) { return w.dataset(), nil }, opts...)
		inst.build = time.Since(b)
		if err != nil {
			_ = inst.stop() // the set-up already failed
			return nil, fmt.Errorf("open durable index: %w", err)
		}
		inst.ix = ix
		srv.Ready(ix)
	}
	if err := inst.waitHealthy(); err != nil {
		_ = inst.stop() // the set-up already failed
		return nil, err
	}
	inst.setup = time.Since(t0)
	return inst, nil
}

// waitHealthy polls /healthz until it answers 200.
func (inst *instance) waitHealthy() error {
	c := &http.Client{Transport: &http.Transport{}, Timeout: 5 * time.Second}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := c.Get(inst.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("healthz: not ready after 30s (last error %v)", err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop shuts the HTTP server down, waits for it, and closes the durability
// layer the way rrqd's shutdown does (without the final checkpoint, so a
// reopen replays the WAL tail).
func (inst *instance) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := inst.hs.Shutdown(ctx)
	if serr := <-inst.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if inst.ix != nil {
		if cerr := inst.ix.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// indexStats fetches /v1/stats.
func (inst *instance) indexStats(c *http.Client) (rrq.IndexStats, error) {
	var body struct {
		Index rrq.IndexStats `json:"index"`
	}
	resp, err := c.Get(inst.url + "/v1/stats")
	if err != nil {
		return body.Index, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return body.Index, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	return body.Index, err
}

// newClient returns a loopback client holding at most `clients`
// connections, with no proxy and no compression.
func newClient(clients int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// result is the client-side record of one request.
type result struct {
	start, end int64 // ns since the run epoch
	status     int
	bytes      int
	err        error
	head       replyHead // traced solves only
}

func (r result) ok() bool { return r.err == nil && r.status == http.StatusOK }

// replyHead is the part of a /v1/solve reply that precedes the region.
// A deduped reply carries the elapsed time and cache status of the
// concurrent identical request whose solve it shared.
type replyHead struct {
	ElapsedMS float64 `json:"elapsed_ms"`
	Cache     string  `json:"cache"`
	Tier      string  `json:"tier"`
	Deduped   bool    `json:"deduped"`
}

// readHead decodes the reply fields that precede "region" and stops there,
// so a traced run does not pay for scanning a large region.
func readHead(body []byte) (replyHead, error) {
	var h replyHead
	dec := json.NewDecoder(bytes.NewReader(body))
	if t, err := dec.Token(); err != nil || t != json.Delim('{') {
		return h, fmt.Errorf("reply: not a JSON object")
	}
	for dec.More() {
		t, err := dec.Token()
		if err != nil {
			return h, fmt.Errorf("reply: %w", err)
		}
		var dst any
		switch t {
		case "region":
			return h, nil
		case "elapsed_ms":
			dst = &h.ElapsedMS
		case "cache":
			dst = &h.Cache
		case "tier":
			dst = &h.Tier
		case "deduped":
			dst = &h.Deduped
		default:
			dst = new(json.RawMessage)
		}
		if err := dec.Decode(dst); err != nil {
			return h, fmt.Errorf("reply field %v: %w", t, err)
		}
	}
	return h, errors.New("reply: no region")
}

// drive sends reqs over `clients` closed-loop connections and records
// request i in out[i]: each client sends its next request only after the
// previous reply has been read in full, and requests are taken in stream
// order. traced tags each request with its stream index, first+i, and
// decodes the reply head.
func drive(c *http.Client, url string, reqs []request, out []result, first, clients int, traced bool, epoch time.Time) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				out[i] = send(c, url, first+i, reqs[i], traced, epoch, &buf)
			}
		}()
	}
	wg.Wait()
}

func send(c *http.Client, url string, i int, r request, traced bool, epoch time.Time, buf *bytes.Buffer) result {
	var res result
	req, err := http.NewRequest(http.MethodPost, url+r.op.path(), bytes.NewReader(r.body))
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req.Header.Set(reqHeader, strconv.Itoa(i))
	}
	res.start = int64(time.Since(epoch))
	resp, err := c.Do(req)
	if err != nil {
		res.end = int64(time.Since(epoch))
		res.err = err
		return res
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	res.end = int64(time.Since(epoch))
	res.status, res.bytes, res.err = resp.StatusCode, buf.Len(), err
	if res.ok() && traced && r.op == opSolve {
		res.head, res.err = readHead(buf.Bytes())
	}
	return res
}
