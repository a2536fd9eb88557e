package core

import (
	"context"
	"runtime/debug"
	"sync"
)

// Intra-query parallel E-PT.
//
// The insertion of one hyper-plane into the partition tree decomposes into
// independent per-subtree work: when the plane crosses an internal node,
// the two children are refined without ever reading or writing each other's
// state (sibling cells share only immutable data — constraint-chain tails —
// and every node is descended into by exactly one task). Each worker builds
// its nodes, cells and lazy lists into a slab of its own; a slab's
// bookkeeping is only ever touched by its worker, and what it handed out
// only by the task that owns the node. The pool exploits exactly that
// decomposition and nothing else: each task runs the unmodified serial
// insertion over its subtree, so every geometric decision is identical to
// the serial solver and the collected cells are byte-identical for any
// worker count.
//
// Planes are still inserted strictly one after another (pending.Wait is
// the inter-plane barrier); parallelism is within a plane, across the
// frontier of subtrees it crosses. That preserves the W(h)-descending
// insertion order the accelerations of §5.1.2 rely on.

// eptTask is one unit of pool work: insert plane h (an index into the
// tree's planes) into the subtree at n.
type eptTask struct {
	n *eptNode
	h int32
}

// eptPool is the per-solve worker pool. Workers own one eptCtx each
// (per-worker Stats, CtxChecker and slab — none is concurrency-safe), the
// Stats merged into the solve's totals by drain.
type eptPool struct {
	tree    *eptTree
	tasks   chan eptTask
	pending sync.WaitGroup // outstanding tasks of the current plane
	done    sync.WaitGroup // running workers
	ctxs    []*eptCtx
}

// newEPTPool starts one worker per slab.
func newEPTPool(ctx context.Context, t *eptTree, slabs []eptSlab, faultKey []float64) *eptPool {
	workers := len(slabs)
	p := &eptPool{
		tree:  t,
		tasks: make(chan eptTask, workers*64),
		ctxs:  make([]*eptCtx, workers),
	}
	for w := range p.ctxs {
		e := &eptCtx{t: t, stats: new(Stats), check: NewCtxChecker(ctx, 0xfff), slab: &slabs[w], pool: p}
		e.check.SetFaultKey(faultKey)
		p.ctxs[w] = e
		p.done.Add(1)
		go func(e *eptCtx) {
			defer p.done.Done()
			for task := range p.tasks {
				e.runTask(task)
			}
		}(e)
	}
	return p
}

// runTask executes one pool task with panic isolation: a panic anywhere in
// the subtree insertion (a geometry-kernel bug, an injected fault) is
// recovered into a typed *SolveError that poisons this worker's checker —
// the worker then drains its remaining tasks cheaply (insert returns at the
// first Stop) and run surfaces the error at the next plane barrier. The
// pending counter is decremented on every exit path, so the barrier never
// deadlocks on a panicked task.
func (e *eptCtx) runTask(task eptTask) {
	defer func() {
		if rec := recover(); rec != nil {
			e.check.fail(&SolveError{Solver: "E-PT", QueryIndex: -1, Panic: rec, Stack: debug.Stack()})
		}
		e.pool.pending.Done()
	}()
	e.insert(task.n, task.h)
}

// run inserts the planes in order. Within one plane the crossing subtrees
// are refined concurrently; pending.Wait is the barrier that makes every
// mutation of plane i visible before plane i+1 starts (WaitGroup Done
// happens-before Wait returning, and the subsequent channel send orders the
// next plane's reads).
func (p *eptPool) run(check *CtxChecker) error {
	for h := range p.tree.planes {
		p.pending.Add(1)
		p.tasks <- eptTask{p.tree.root, int32(h)}
		p.pending.Wait()
		if check.Stop() {
			return check.Err()
		}
		for _, e := range p.ctxs {
			if e.check.Failed() {
				return e.check.Err()
			}
		}
	}
	return nil
}

// spawn hands a subtree to the pool. The counter is raised before the send
// (the spawning worker still holds its own task, so pending never touches
// zero while work is outstanding). When the queue is full the task runs
// inline on the spawning worker instead — workers must never block on the
// queue, or a full queue of tasks that all want to spawn would deadlock.
func (p *eptPool) spawn(n *eptNode, h int32, from *eptCtx) {
	p.pending.Add(1)
	select {
	case p.tasks <- eptTask{n, h}:
	default:
		// Balance the counter even if the inline insertion panics (the
		// panic keeps unwinding into the worker's runTask recovery); a lost
		// Done would deadlock the plane barrier.
		defer p.pending.Done()
		from.insert(n, h)
	}
}

// drain shuts the workers down and sums their per-worker Stats into the
// solve's totals (order-independent, so every worker count reports the
// same counters).
func (p *eptPool) drain(st *Stats) {
	close(p.tasks)
	p.done.Wait()
	for _, e := range p.ctxs {
		st.Add(*e.stats)
	}
}
