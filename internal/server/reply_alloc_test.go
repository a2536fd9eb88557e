//go:build !race

// The race detector's sync.Pool drops a share of the buffers put back at
// random, so reply allocations are only pinned without it.

package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rrq"
)

// discardWriter is a ResponseWriter that keeps nothing but its headers.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// A cache hit makes the same number of allocations whatever the size of
// its region: the region is appended into a pooled buffer with no copy of
// its constraint or vertex lists.
func TestSolveHitFixedAlloc(t *testing.T) {
	ix := replyIndex(t)
	s, err := New(Config{Index: ix})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	allocs := map[int]float64{}
	for _, q := range []rrq.Query{narrowQuery, wideQuery} {
		body := solveBodyFor(q)
		for i := 0; i < 2; i++ { // a miss fills the cache, then a hit
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body)
			}
			if i == 1 {
				var reply solveReply
				if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || reply.Cache != "hit" {
					t.Fatalf("%s: want a cache hit, got %s (%v)", body, rec.Body, err)
				}
				if _, seen := allocs[reply.Partitions]; seen {
					t.Fatalf("precondition: both queries answer with %d cells", reply.Partitions)
				}
				w := &discardWriter{h: http.Header{}}
				allocs[reply.Partitions] = testing.AllocsPerRun(100, func() {
					clear(w.h)
					h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body)))
				})
			}
		}
	}
	small, large := math.Inf(1), math.Inf(-1)
	minCells, maxCells := math.MaxInt, 0
	for cells, a := range allocs {
		small, large = math.Min(small, a), math.Max(large, a)
		minCells, maxCells = min(minCells, cells), max(maxCells, cells)
	}
	if minCells != 1 || maxCells < 30 {
		t.Fatalf("precondition: regions of %d and %d cells, want 1 and at least 30", minCells, maxCells)
	}
	t.Logf("allocations per cache hit, by region cells: %v", allocs)
	if large-small > 2 {
		t.Fatalf("a cache hit allocates %v by region cells; want the same count ±2", allocs)
	}
}
