package server

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// AdmissionPolicy selects how the controller reacts to saturation.
type AdmissionPolicy string

const (
	// AdmitAlways never sheds: every request queues until a solve slot
	// frees up (or its context is canceled). Latency grows without bound
	// under overload; the policy exists as the baseline the simulator
	// compares shedding against.
	AdmitAlways AdmissionPolicy = "always"
	// AdmitCap sheds once the queue behind the solve slots exceeds the
	// configured depth: the request fails fast with a *ShedError carrying
	// a Retry-After estimate instead of joining a hopeless queue.
	AdmitCap AdmissionPolicy = "cap"
)

// ParseAdmissionPolicy maps a flag value to a policy.
func ParseAdmissionPolicy(s string) (AdmissionPolicy, error) {
	switch AdmissionPolicy(s) {
	case AdmitAlways:
		return AdmitAlways, nil
	case AdmitCap:
		return AdmitCap, nil
	default:
		return "", fmt.Errorf(`server: unknown admission policy %q (want "always" or "cap")`, s)
	}
}

// ShedError is returned by Admission.Acquire when the cap policy rejects a
// request: the queue already holds MaxQueue waiters behind every solve
// slot. RetryAfter estimates when the queue will have drained enough to
// admit, from the controller's moving average of recent solve times.
type ShedError struct {
	Depth      int           // in-flight + queued requests at rejection
	RetryAfter time.Duration // drain estimate, always ≥ 1s
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("server: load shed at queue depth %d, retry after %s", e.Depth, e.RetryAfter)
}

// Admission is the queue-depth-aware admission controller: Capacity solve
// slots, requests beyond them queue, and — under the cap policy — requests
// beyond Capacity+MaxQueue are shed.
type Admission struct {
	policy   AdmissionPolicy
	capacity int
	maxQueue int

	slots chan struct{}
	depth atomic.Int64 // queued + running
	shed  atomic.Int64 // lifetime rejections

	// avgSolveNs is an EWMA of observed solve durations, feeding the
	// Retry-After estimate. Stored as nanoseconds for atomic updates.
	avgSolveNs atomic.Int64
}

// NewAdmission builds a controller with capacity concurrent solve slots
// and, under AdmitCap, at most maxQueue waiters behind them. capacity ≤ 0
// is treated as 1; maxQueue < 0 as 0 (shed as soon as every slot is busy).
func NewAdmission(policy AdmissionPolicy, capacity, maxQueue int) *Admission {
	if capacity <= 0 {
		capacity = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &Admission{
		policy:   policy,
		capacity: capacity,
		maxQueue: maxQueue,
		slots:    make(chan struct{}, capacity),
	}
}

// Acquire admits one request: it joins the queue, waits for a solve slot
// and returns the release closure the caller must invoke when the solve
// finishes (passing the observed duration, which feeds the Retry-After
// estimator). Under the cap policy a request arriving at a full queue is
// rejected immediately with a *ShedError; a canceled context returns
// ctx.Err() from the wait.
func (a *Admission) Acquire(ctx context.Context) (release func(elapsed time.Duration), err error) {
	depth := a.depth.Add(1)
	if a.policy == AdmitCap && depth > int64(a.capacity+a.maxQueue) {
		a.depth.Add(-1)
		a.shed.Add(1)
		// The drain estimate covers the requests actually ahead of a retry:
		// depth still counts this rejected request (its decrement has
		// already happened, but depth is the pre-decrement observation), so
		// passing it unadjusted would inflate every Retry-After by one
		// avg-solve.
		return nil, &ShedError{Depth: int(depth), RetryAfter: a.retryAfter(depth - 1)}
	}
	select {
	case a.slots <- struct{}{}:
	case <-ctx.Done():
		a.depth.Add(-1)
		return nil, ctx.Err()
	}
	return func(elapsed time.Duration) {
		a.observe(elapsed)
		<-a.slots
		a.depth.Add(-1)
	}, nil
}

// observe folds one solve duration into the EWMA (α = 1/8).
func (a *Admission) observe(elapsed time.Duration) {
	for {
		old := a.avgSolveNs.Load()
		var next int64
		if old == 0 {
			next = int64(elapsed)
		} else {
			next = old + (int64(elapsed)-old)/8
		}
		if a.avgSolveNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// Retry-After bounds: never advertise 0 (clients would hammer a cold
// server whose EWMA is still empty), never more than a minute (a huge
// estimate from one pathological solve should not push clients into
// effectively giving up — the queue drains faster than the worst sample
// suggests).
const (
	minRetryAfter = time.Second
	maxRetryAfter = 60 * time.Second
)

// retryAfter estimates how long until the queue drains below the cap: the
// excess depth divided by the service rate (capacity slots, each finishing
// every avgSolve), clamped to [minRetryAfter, maxRetryAfter]. With no
// history yet it answers the floor.
func (a *Admission) retryAfter(depth int64) time.Duration {
	avg := time.Duration(a.avgSolveNs.Load())
	if avg <= 0 {
		return minRetryAfter
	}
	d := time.Duration(depth-int64(a.capacity)) * avg / time.Duration(a.capacity)
	if d < minRetryAfter {
		return minRetryAfter
	}
	if d > maxRetryAfter {
		return maxRetryAfter
	}
	return d.Round(time.Second)
}

// Depth returns the current queued + running request count.
func (a *Admission) Depth() int { return int(a.depth.Load()) }

// Shed returns the lifetime count of rejected requests.
func (a *Admission) Shed() int64 { return a.shed.Load() }

// Policy returns the controller's admission policy.
func (a *Admission) Policy() AdmissionPolicy { return a.policy }

// Capacity returns the number of concurrent solve slots.
func (a *Admission) Capacity() int { return a.capacity }
