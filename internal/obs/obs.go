// Package obs is the metrics substrate of the solver stack: a
// zero-dependency registry of atomic counters, gauges and histogram-style
// phase timers with an expvar-compatible text exposition. Per-solve work
// (planes, tree nodes, LP solves, samples and answer pieces, §6) is
// reported by the solvers' Stats, not here.
//
// The registry rides on the context: callers attach a *Registry with
// ContextWithRegistry, and the solvers pick it up once per solve when they
// build their CtxChecker. A nil *Registry hands out nil handles whose
// methods do nothing, so instrumented code needs no nil checks of its own.
package obs

import "context"

// registryKey is the private context key of the registry carrier.
type registryKey struct{}

// ContextWithRegistry returns a context carrying reg as the metrics
// registry. A nil reg returns ctx unchanged.
func ContextWithRegistry(ctx context.Context, reg *Registry) context.Context {
	if reg == nil {
		return ctx
	}
	return context.WithValue(ctx, registryKey{}, reg)
}

// RegistryFrom extracts the metrics registry from ctx, or nil.
func RegistryFrom(ctx context.Context) *Registry {
	if ctx == nil {
		return nil
	}
	reg, _ := ctx.Value(registryKey{}).(*Registry)
	return reg
}
