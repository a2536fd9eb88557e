package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter (what a nil Registry hands out) ignores
// updates and reads as zero. Counter implements expvar.Var.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// String renders the counter as its decimal value (expvar.Var contract).
func (c *Counter) String() string { return fmt.Sprintf("%d", c.Value()) }

// Gauge is an atomic instantaneous value. The zero value is ready to use;
// a nil *Gauge ignores updates and reads as zero. Gauge implements
// expvar.Var.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the gauge value.
func (g *Gauge) Set(x float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(x))
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// String renders the gauge as its numeric value (expvar.Var contract).
func (g *Gauge) String() string { return fmt.Sprintf("%g", g.Value()) }

// timerBuckets are the upper bounds of the histogram buckets, in
// nanoseconds: 1µs, 10µs, 100µs, 1ms, 10ms, 100ms, 1s, and +Inf.
var timerBuckets = [...]int64{
	1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000,
}

var timerBucketLabels = [...]string{
	"le_1us", "le_10us", "le_100us", "le_1ms", "le_10ms", "le_100ms", "le_1s", "inf",
}

// Timer is a histogram-style phase timer: it records how many times a
// phase ran, the total, min and max durations, and a log-scale latency
// histogram. All methods are safe for concurrent use; the zero value is
// ready, and a nil *Timer ignores observations and snapshots as empty.
// Timer implements expvar.Var.
type Timer struct {
	mu      sync.Mutex
	count   int64
	totalNs int64
	minNs   int64
	maxNs   int64
	buckets [len(timerBuckets) + 1]int64
}

// Observe records one phase duration.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	b := len(timerBuckets)
	for i, ub := range timerBuckets {
		if ns <= ub {
			b = i
			break
		}
	}
	t.mu.Lock()
	if t.count == 0 || ns < t.minNs {
		t.minNs = ns
	}
	if ns > t.maxNs {
		t.maxNs = ns
	}
	t.count++
	t.totalNs += ns
	t.buckets[b]++
	t.mu.Unlock()
}

// Time runs fn and records its duration.
func (t *Timer) Time(fn func()) {
	start := time.Now()
	fn()
	t.Observe(time.Since(start))
}

// Snapshot returns a consistent copy of the timer state.
func (t *Timer) Snapshot() TimerSnapshot {
	if t == nil {
		return TimerSnapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := TimerSnapshot{
		Count: t.count,
		Total: time.Duration(t.totalNs),
		Min:   time.Duration(t.minNs),
		Max:   time.Duration(t.maxNs),
	}
	copy(s.Buckets[:], t.buckets[:])
	return s
}

// merge folds another timer's snapshot into t.
func (t *Timer) merge(s TimerSnapshot) {
	if s.Count == 0 {
		return
	}
	t.mu.Lock()
	if t.count == 0 || s.Min.Nanoseconds() < t.minNs {
		t.minNs = s.Min.Nanoseconds()
	}
	if s.Max.Nanoseconds() > t.maxNs {
		t.maxNs = s.Max.Nanoseconds()
	}
	t.count += s.Count
	t.totalNs += s.Total.Nanoseconds()
	for i := range t.buckets {
		t.buckets[i] += s.Buckets[i]
	}
	t.mu.Unlock()
}

// String renders the timer as a JSON object (expvar.Var contract).
func (t *Timer) String() string { return t.Snapshot().json() }

// TimerSnapshot is a point-in-time copy of a Timer.
type TimerSnapshot struct {
	Count   int64
	Total   time.Duration
	Min     time.Duration
	Max     time.Duration
	Buckets [len(timerBuckets) + 1]int64
}

// Mean returns the average observed duration, or zero when nothing was
// recorded.
func (s TimerSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

func (s TimerSnapshot) json() string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"count":%d,"total_ns":%d,"min_ns":%d,"max_ns":%d,"buckets":{`,
		s.Count, s.Total.Nanoseconds(), s.Min.Nanoseconds(), s.Max.Nanoseconds())
	for i, label := range timerBucketLabels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `"%s":%d`, label, s.Buckets[i])
	}
	b.WriteString("}}")
	return b.String()
}

// Registry is a named collection of counters, gauges and timers. Metric
// handles are created on first use and live for the registry's lifetime;
// lookups are lock-free after creation only in the sense that the returned
// handle can be cached by the caller — Registry methods themselves take a
// short registry lock, so hot paths should hold on to the handle. The zero
// value is not usable; call NewRegistry. A nil *Registry stands for
// "metrics off": its Counter, Gauge and Timer return nil handles, whose
// methods do nothing.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		timers:   make(map[string]*Timer),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Timer returns the named phase timer, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	t, ok := r.timers[name]
	r.mu.RUnlock()
	if ok {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok = r.timers[name]; ok {
		return t
	}
	t = &Timer{}
	r.timers[name] = t
	return t
}

// Timers returns a snapshot of every registered phase timer by name (nil
// for a nil registry).
func (r *Registry) Timers() map[string]TimerSnapshot {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]TimerSnapshot, len(r.timers))
	for name, t := range r.timers {
		out[name] = t.Snapshot()
	}
	return out
}

// Counters returns the current value of every registered counter by name.
func (r *Registry) Counters() map[string]int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	return out
}

// Merge folds every metric of other into r: counters add, gauges take
// other's latest value, timers merge their histograms. Either side may be
// nil, which makes the call a no-op.
func (r *Registry) Merge(other *Registry) {
	if r == nil || other == nil {
		return
	}
	other.mu.RLock()
	counters := make(map[string]int64, len(other.counters))
	for name, c := range other.counters {
		counters[name] = c.Value()
	}
	gauges := make(map[string]float64, len(other.gauges))
	for name, g := range other.gauges {
		gauges[name] = g.Value()
	}
	timers := make(map[string]TimerSnapshot, len(other.timers))
	for name, t := range other.timers {
		timers[name] = t.Snapshot()
	}
	other.mu.RUnlock()
	for name, v := range counters {
		r.Counter(name).Add(v)
	}
	for name, v := range gauges {
		r.Gauge(name).Set(v)
	}
	for name, s := range timers {
		r.Timer(name).merge(s)
	}
}

// WriteText writes every metric as one "name: value" line in sorted name
// order, with values in their expvar (String) rendering — counters and
// gauges as numbers, timers as JSON histograms. A nil registry writes
// nothing.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	lines := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.timers))
	for name, c := range r.counters {
		lines = append(lines, fmt.Sprintf("%s: %s", name, c.String()))
	}
	for name, g := range r.gauges {
		lines = append(lines, fmt.Sprintf("%s: %s", name, g.String()))
	}
	for name, t := range r.timers {
		lines = append(lines, fmt.Sprintf("%s: %s", name, t.String()))
	}
	r.mu.RUnlock()
	sort.Strings(lines)
	for _, line := range lines {
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// Text renders the registry with WriteText into a string.
func (r *Registry) Text() string {
	var b strings.Builder
	_ = r.WriteText(&b)
	return b.String()
}
