package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"micrograd/internal/evalcache"
	"micrograd/internal/metrics"
	"micrograd/internal/microprobe"
	"micrograd/internal/multicore"
	"micrograd/internal/platform"
	"micrograd/internal/tuner"
)

// The probes below wrap the program only where it already accepts an
// interface: a platform (a type embedding the concrete platform that
// overrides EvaluateRequest alone, so EvalIdentity, NumCores and
// EvaluateConfig are promoted unchanged and cache keys stay the same), a
// tuner.Tuner, and an evalcache.Cache. None of them hides an optional
// interface of the value it wraps.

// probe collects the spans and counts of one measured unit. With tracing
// off it only counts simulated instructions, reading no clock.
type probe struct {
	tracing bool
	instrs  atomic.Int64

	mu     sync.Mutex
	evalNS []int64
	// tunedNS is the platform time of configuration-driven calls, the ones
	// a tuner's evaluator makes inside tuner.Run (reference measurements
	// of explicit programs happen outside it).
	tunedNS int64
	getNS   []int64
	putNS   []int64
	putKeys map[string]bool
	tunerNS int64
	reqs    []recorded
}

// recorded is one platform call kept for the layer replay.
type recorded struct {
	req    platform.EvalRequest
	synth  microprobe.Options
	result metrics.Vector
}

func newProbe(tracing bool) *probe {
	return &probe{tracing: tracing, putKeys: make(map[string]bool)}
}

// evaluate serves one platform call through inner, counting the simulated
// instructions and, when tracing, timing and recording it.
func (pr *probe) evaluate(inner platform.RequestEvaluator, synth microprobe.Options, req platform.EvalRequest) (platform.EvalResponse, error) {
	var start time.Time
	if pr.tracing {
		start = time.Now()
	}
	resp, err := inner.EvaluateRequest(req)
	if err != nil {
		return resp, err
	}
	pr.instrs.Add(int64(req.Options.EffectiveInstructions() * inner.NumCores()))
	if !pr.tracing {
		return resp, nil
	}
	d := time.Since(start).Nanoseconds()
	kept := req
	// The session reuses its program slice between calls.
	kept.Programs = append(kept.Programs[:0:0], req.Programs...)
	pr.mu.Lock()
	pr.evalNS = append(pr.evalNS, d)
	if !req.Config.IsZero() {
		pr.tunedNS += d
	}
	pr.reqs = append(pr.reqs, recorded{req: kept, synth: synth, result: resp.Metrics.Clone()})
	pr.mu.Unlock()
	return resp, nil
}

// slot holds the probe of the unit being measured; wrappers that outlive
// one unit (platforms, a daemon's cache) read it on every call.
type slot struct{ atomic.Pointer[probe] }

// simProbe is a single-core platform whose evaluations go through a probe.
type simProbe struct {
	*platform.SimPlatform
	slot  *slot
	synth microprobe.Options
}

// EvaluateRequest implements platform.RequestEvaluator.
func (p *simProbe) EvaluateRequest(req platform.EvalRequest) (platform.EvalResponse, error) {
	return p.slot.Load().evaluate(p.SimPlatform, p.synth, req)
}

// chipProbe is a co-run platform whose evaluations go through a probe.
type chipProbe struct {
	*multicore.CoRunPlatform
	slot  *slot
	synth microprobe.Options
}

// EvaluateRequest implements platform.RequestEvaluator.
func (p *chipProbe) EvaluateRequest(req platform.EvalRequest) (platform.EvalResponse, error) {
	return p.slot.Load().evaluate(p.CoRunPlatform, p.synth, req)
}

// tunerProbe times a tuner's Run.
type tunerProbe struct {
	tuner.Tuner
	probe *probe
}

// Run implements tuner.Tuner.
func (t tunerProbe) Run(ctx context.Context, prob tuner.Problem) (tuner.Result, error) {
	start := time.Now()
	res, err := t.Tuner.Run(ctx, prob)
	d := time.Since(start)
	t.probe.mu.Lock()
	t.probe.tunerNS += d.Nanoseconds()
	t.probe.mu.Unlock()
	return res, err
}

// wrapTuner returns tn itself when not tracing.
func (pr *probe) wrapTuner(tn tuner.Tuner) tuner.Tuner {
	if !pr.tracing {
		return tn
	}
	return tunerProbe{Tuner: tn, probe: pr}
}

// cacheProbe times the accesses of the evaluation cache. evalcache.Group
// serializes every call, so the spans never overlap.
type cacheProbe struct {
	inner evalcache.Cache
	slot  *slot
}

// Get implements evalcache.Cache.
func (c cacheProbe) Get(key string) (metrics.Vector, bool) {
	pr := c.slot.Load()
	if !pr.tracing {
		return c.inner.Get(key)
	}
	start := time.Now()
	v, ok := c.inner.Get(key)
	d := time.Since(start)
	pr.mu.Lock()
	pr.getNS = append(pr.getNS, d.Nanoseconds())
	pr.mu.Unlock()
	return v, ok
}

// Put implements evalcache.Cache.
func (c cacheProbe) Put(key string, v metrics.Vector) {
	pr := c.slot.Load()
	if !pr.tracing {
		c.inner.Put(key, v)
		return
	}
	start := time.Now()
	c.inner.Put(key, v)
	d := time.Since(start)
	pr.mu.Lock()
	pr.putNS = append(pr.putNS, d.Nanoseconds())
	pr.putKeys[key] = true
	pr.mu.Unlock()
}

// Len implements evalcache.Cache.
func (c cacheProbe) Len() int { return c.inner.Len() }

// newCache returns the unbounded map cache every workload runs on; a run
// that traces gets it behind a cacheProbe.
func newCache(s *slot, traceRun bool) evalcache.Cache {
	if !traceRun {
		return evalcache.NewMap()
	}
	return cacheProbe{inner: evalcache.NewMap(), slot: s}
}

// tunerSelfNS is the tuner's self time: tuner.Run spans minus the
// platform calls and cache accesses inside them.
func (pr *probe) tunerSelfNS() int64 {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return pr.tunerNS - pr.tunedNS - sum(pr.getNS) - sum(pr.putNS)
}

// platformNS sums the platform-call spans.
func (pr *probe) platformNS() int64 {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return sum(pr.evalNS)
}
