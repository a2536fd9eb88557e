package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one layer boundary crossed by one request: the client's round
// trip, the server handler, or the solve the response reports. Times are
// nanoseconds since the start of the run.
type span struct {
	Workload string `json:"workload"`
	Run      int    `json:"run"`
	Req      int    `json:"req"`
	Name     string `json:"span"`
	Parent   string `json:"parent,omitempty"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTime is the span's duration minus the part of it that its children
// cover; overlapping children count once and parts outside the span not at
// all.
func selfTime(s span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, end := int64(0), s.Start
	for _, v := range iv {
		lo := max(v[0], end)
		if v[1] > lo {
			covered += v[1] - lo
			end = v[1]
		}
	}
	return s.dur() - covered
}

// reqHeader carries a timed request's stream index to the handler wrapper.
const reqHeader = "X-Bench-Req"

// handlerSpans records the handler span of every timed request, one slot
// per stream index. It wraps server.Handler() from outside the program.
type handlerSpans struct {
	epoch time.Time
	spans []span
	done  []bool
	wg    sync.WaitGroup // in-flight handlers; wait before reading spans
}

func newHandlerSpans(n int, epoch time.Time) *handlerSpans {
	return &handlerSpans{epoch: epoch, spans: make([]span, n), done: make([]bool, n)}
}

func (h *handlerSpans) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.Header.Get(reqHeader))
		if err != nil || id < 0 || id >= len(h.spans) {
			next.ServeHTTP(w, r) // warm-up and verification requests
			return
		}
		h.wg.Add(1)
		defer h.wg.Done()
		start := time.Since(h.epoch)
		next.ServeHTTP(w, r)
		h.spans[id] = span{Req: id, Name: "handler", Parent: "client",
			Start: int64(start), End: int64(time.Since(h.epoch))}
		h.done[id] = true
	})
}

// wait returns once every handler that has started has recorded its span.
// Call it after the last response arrived: each handler starts before its
// client sees a response, so no handler can start after wait begins.
func (h *handlerSpans) wait() { h.wg.Wait() }

// writeSpans appends spans to the JSONL file at path.
func writeSpans(path string, spans []span) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}
