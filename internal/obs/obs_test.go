package obs

import (
	"context"
	"expvar"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterGaugeBasics pins the counter/gauge contracts, including the
// expvar.Var renderings.
func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
	if c.String() != "42" {
		t.Fatalf("counter String() = %q, want 42", c.String())
	}
	var g Gauge
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", g.Value())
	}
	if g.String() != "2.5" {
		t.Fatalf("gauge String() = %q, want 2.5", g.String())
	}
}

// TestMetricsAreExpvarVars checks that every metric type satisfies the
// expvar.Var interface, the compatibility contract of the exposition.
func TestMetricsAreExpvarVars(t *testing.T) {
	var (
		_ expvar.Var = (*Counter)(nil)
		_ expvar.Var = (*Gauge)(nil)
		_ expvar.Var = (*Timer)(nil)
	)
}

// TestTimerHistogram checks count/total/min/max and bucket placement.
func TestTimerHistogram(t *testing.T) {
	var tm Timer
	tm.Observe(500 * time.Nanosecond) // bucket 0 (≤1µs)
	tm.Observe(5 * time.Microsecond)  // bucket 1 (≤10µs)
	tm.Observe(2 * time.Second)       // overflow bucket
	s := tm.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if s.Min != 500*time.Nanosecond || s.Max != 2*time.Second {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	want := s.Min + 5*time.Microsecond + 2*time.Second
	if s.Total != want {
		t.Fatalf("total = %v, want %v", s.Total, want)
	}
	if s.Buckets[0] != 1 || s.Buckets[1] != 1 || s.Buckets[len(s.Buckets)-1] != 1 {
		t.Fatalf("bucket placement wrong: %v", s.Buckets)
	}
	if s.Mean() != want/3 {
		t.Fatalf("mean = %v, want %v", s.Mean(), want/3)
	}
}

// TestRegistryHandlesAndText checks handle identity, the sorted text
// exposition, and snapshot maps.
func TestRegistryHandlesAndText(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("Counter handle not stable")
	}
	if r.Timer("t") != r.Timer("t") {
		t.Fatal("Timer handle not stable")
	}
	r.Counter("b.count").Add(7)
	r.Gauge("a.gauge").Set(1.5)
	r.Timer("c.timer").Observe(time.Millisecond)
	text := r.Text()
	lines := strings.Split(strings.TrimSpace(text), "\n")
	if len(lines) != 5 { // a, b.count, a.gauge, c.timer, t
		t.Fatalf("exposition has %d lines:\n%s", len(lines), text)
	}
	if !sortedLines(lines) {
		t.Fatalf("exposition not sorted:\n%s", text)
	}
	if !strings.Contains(text, "b.count: 7") {
		t.Fatalf("missing counter line:\n%s", text)
	}
	if !strings.Contains(text, `"count":1`) {
		t.Fatalf("missing timer histogram:\n%s", text)
	}
	if got := r.Counters()["b.count"]; got != 7 {
		t.Fatalf("Counters()[b.count] = %d, want 7", got)
	}
	if got := r.Timers()["c.timer"].Count; got != 1 {
		t.Fatalf("Timers()[c.timer].Count = %d, want 1", got)
	}
}

func sortedLines(lines []string) bool {
	for i := 1; i < len(lines); i++ {
		if lines[i-1] > lines[i] {
			return false
		}
	}
	return true
}

// TestRegistryMerge checks that Merge adds counters and folds timer
// histograms.
func TestRegistryMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("n").Add(1)
	b.Counter("n").Add(2)
	b.Counter("only_b").Add(5)
	a.Timer("p").Observe(time.Microsecond)
	b.Timer("p").Observe(time.Millisecond)
	b.Gauge("g").Set(3)
	a.Merge(b)
	if got := a.Counter("n").Value(); got != 3 {
		t.Fatalf("merged counter = %d, want 3", got)
	}
	if got := a.Counter("only_b").Value(); got != 5 {
		t.Fatalf("merged new counter = %d, want 5", got)
	}
	s := a.Timer("p").Snapshot()
	if s.Count != 2 || s.Min != time.Microsecond || s.Max != time.Millisecond {
		t.Fatalf("merged timer = %+v", s)
	}
	if a.Gauge("g").Value() != 3 {
		t.Fatalf("merged gauge = %v, want 3", a.Gauge("g").Value())
	}
	a.Merge(nil) // must not panic
}

// TestRegistryConcurrent exercises handle creation and updates from many
// goroutines (run under -race in CI).
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("shared").Inc()
				r.Timer("phase").Observe(time.Nanosecond)
				r.Gauge("g").Set(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 1600 {
		t.Fatalf("shared counter = %d, want 1600", got)
	}
	if got := r.Timer("phase").Snapshot().Count; got != 1600 {
		t.Fatalf("phase count = %d, want 1600", got)
	}
}

// TestContextPlumbing checks the registry context carrier.
func TestContextPlumbing(t *testing.T) {
	if RegistryFrom(context.Background()) != nil {
		t.Fatal("RegistryFrom on bare context should be nil")
	}
	reg := NewRegistry()
	ctx := ContextWithRegistry(context.Background(), reg)
	if RegistryFrom(ctx) != reg {
		t.Fatal("registry not carried")
	}
	// A nil attachment leaves the context untouched.
	if ContextWithRegistry(ctx, nil) != ctx {
		t.Fatal("nil attachment should be a no-op")
	}
}

// TestNilHandlesZeroAlloc pins the metrics-off contract: a nil Registry
// hands out nil handles, every handle method is a no-op on a nil receiver,
// and the whole disabled path allocates nothing.
func TestNilHandlesZeroAlloc(t *testing.T) {
	var reg *Registry
	if reg.Counter("c") != nil || reg.Gauge("g") != nil || reg.Timer("t") != nil {
		t.Fatal("nil registry should hand out nil handles")
	}
	allocs := testing.AllocsPerRun(100, func() {
		reg.Counter("c").Inc()
		reg.Counter("c").Add(3)
		reg.Gauge("g").Set(1.5)
		reg.Timer("t").Observe(time.Millisecond)
		reg.Timer("t").Time(func() {})
	})
	if allocs != 0 {
		t.Fatalf("nil handles allocate %.1f per run, want 0", allocs)
	}
	var (
		c  *Counter
		g  *Gauge
		tm *Timer
	)
	if c.Value() != 0 || c.String() != "0" || g.Value() != 0 || tm.Snapshot().Count != 0 {
		t.Fatal("nil handles should read as zero")
	}
}
