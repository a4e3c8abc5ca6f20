// Package platform implements MicroGrad's evaluation platforms (§III-E of
// the paper): the boundary through which generated test cases are executed
// and their metrics collected. The paper interfaces with Gem5, McPAT and
// native hardware; this reproduction provides
//
//   - SimPlatform      — the Gem5+McPAT substitute built on internal/cpusim,
//     internal/memsim, internal/branchsim and internal/powersim;
//   - NativeStub       — an interface-compatible placeholder for native
//     hardware counters, which replays canned readings (real PMU access is
//     out of scope for this environment);
//
// plus the two core configurations of the paper's Table II (Small, Large).
package platform

import (
	"fmt"

	"micrograd/internal/branchsim"
	"micrograd/internal/cpusim"
	"micrograd/internal/isa"
	"micrograd/internal/memsim"
	"micrograd/internal/metrics"
	"micrograd/internal/powersim"
	"micrograd/internal/program"
)

// CoreKind names a core configuration.
type CoreKind string

// The two cores of the paper's Table II.
const (
	SmallCore CoreKind = "small"
	LargeCore CoreKind = "large"
)

// DefaultWindowCycles is the activity-window length the built-in cores
// record power traces at: 64 cycles (32 ns at 2 GHz) resolves oscillations
// down to well below the default supply network's ≈256-cycle resonant
// period.
const DefaultWindowCycles = 64

// CoreSpec bundles everything needed to instantiate an evaluation platform
// for one core: the out-of-order core parameters, the cache hierarchy, the
// branch predictor and the power template.
type CoreSpec struct {
	Kind    CoreKind
	CPU     cpusim.Config
	Memory  memsim.HierarchyConfig
	Branch  branchsim.Config
	Power   powersim.Coefficients
	Supply  powersim.SupplyModel
	Thermal powersim.ThermalModel
}

// Validate checks every component of the spec.
func (s CoreSpec) Validate() error {
	if s.Kind == "" {
		return fmt.Errorf("platform: core spec without kind")
	}
	if err := s.CPU.Validate(); err != nil {
		return err
	}
	if err := s.Memory.Validate(); err != nil {
		return err
	}
	if err := s.Branch.Validate(); err != nil {
		return err
	}
	if err := s.Power.Validate(); err != nil {
		return err
	}
	if err := s.Supply.Validate(); err != nil {
		return err
	}
	return s.Thermal.Validate()
}

// Small returns the paper's "Small" core (Table II): 3-wide front end,
// 40/16/32 ROB/LSQ/RSE, 3/2/2 ALU/SIMD/FP pipes, 16 KiB L1s, 256 KiB L2.
func Small() CoreSpec {
	return CoreSpec{
		Kind: SmallCore,
		CPU: cpusim.Config{
			Name: string(SmallCore), FrequencyGHz: 2, FrontEndWidth: 3,
			ROBSize: 40, LSQSize: 16, RSESize: 32,
			NumALU: 3, NumMul: 2, NumFP: 2, NumLSU: 1,
			MispredictPenalty: 10,
			WindowCycles:      DefaultWindowCycles,
		},
		Memory: memsim.HierarchyConfig{
			L1I:        memsim.CacheConfig{Name: "L1I", SizeBytes: 16 << 10, LineBytes: 64, Assoc: 4, HitLatency: 1},
			L1D:        memsim.CacheConfig{Name: "L1D", SizeBytes: 16 << 10, LineBytes: 64, Assoc: 4, HitLatency: 2},
			L2:         memsim.CacheConfig{Name: "L2", SizeBytes: 256 << 10, LineBytes: 64, Assoc: 8, HitLatency: 12},
			MemLatency: 140,
		},
		Branch:  branchsim.Config{Kind: branchsim.Bimodal, TableBits: 10},
		Power:   powersim.SmallCoreCoefficients(),
		Supply:  powersim.DefaultSupplyModel(),
		Thermal: powersim.DefaultThermalModel(),
	}
}

// Large returns the paper's "Large" core (Table II): 8-wide front end,
// 160/64/128 ROB/LSQ/RSE, 6/4/4 ALU/SIMD/FP pipes, 32 KiB L1s, 1 MiB L2 with
// a next-line prefetcher.
func Large() CoreSpec {
	return CoreSpec{
		Kind: LargeCore,
		CPU: cpusim.Config{
			Name: string(LargeCore), FrequencyGHz: 2, FrontEndWidth: 8,
			ROBSize: 160, LSQSize: 64, RSESize: 128,
			NumALU: 6, NumMul: 4, NumFP: 4, NumLSU: 2,
			MispredictPenalty: 14,
			WindowCycles:      DefaultWindowCycles,
		},
		Memory: memsim.HierarchyConfig{
			L1I:        memsim.CacheConfig{Name: "L1I", SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8, HitLatency: 1},
			L1D:        memsim.CacheConfig{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8, HitLatency: 2},
			L2:         memsim.CacheConfig{Name: "L2", SizeBytes: 1 << 20, LineBytes: 64, Assoc: 16, HitLatency: 14, NextLinePrefetch: true},
			MemLatency: 140,
		},
		Branch:  branchsim.Config{Kind: branchsim.GShare, TableBits: 14, HistoryBits: 12},
		Power:   powersim.LargeCoreCoefficients(),
		Supply:  powersim.DefaultSupplyModel(),
		Thermal: powersim.DefaultThermalModel(),
	}
}

// ByName returns the core spec with the given name.
func ByName(name string) (CoreSpec, error) {
	switch CoreKind(name) {
	case SmallCore:
		return Small(), nil
	case LargeCore:
		return Large(), nil
	default:
		return CoreSpec{}, fmt.Errorf("platform: unknown core %q (want %q or %q)", name, SmallCore, LargeCore)
	}
}

// Cores returns every built-in core spec.
func Cores() []CoreSpec { return []CoreSpec{Small(), Large()} }

// DefaultDynamicInstructions is the evaluation length used when the caller
// does not specify one. The paper runs clones for 10M dynamic instructions;
// this reproduction defaults to a shorter window so that a full tuning run
// (thousands of evaluations) stays laptop-scale. The steady-state loop
// behaviour is reached well before this point for 500-instruction kernels.
const DefaultDynamicInstructions = 40000

// EvalOptions controls one evaluation.
type EvalOptions struct {
	// DynamicInstructions is the number of dynamic instructions to simulate.
	// Zero means DefaultDynamicInstructions.
	DynamicInstructions int
	// Seed drives the stochastic parts of trace expansion.
	Seed int64
	// CollectPower adds the dynamic power metric to the result (requires a
	// platform with a power model).
	CollectPower bool
	// FrequencyGHz overrides the core clock for this evaluation (DVFS); zero
	// keeps the spec's clock. The cycle-level simulation is unaffected —
	// cache and memory latencies are fixed in core cycles — so the override
	// rescales the cycle results onto a different time base, which is what
	// changes power, droop and temperature.
	FrequencyGHz float64
	// Fidelity in (0,1) shortens the simulated window to that fraction of
	// DynamicInstructions (floored at MinFidelityInstructions so the window
	// still reaches loop steady state). It is an evaluation-time knob only —
	// the program and its synthesis cache key are unaffected — which is what
	// lets multi-fidelity tuners reuse synthesized kernels across rungs.
	// Zero or one means full fidelity.
	Fidelity float64
}

// MinFidelityInstructions is the shortest simulation window a reduced
// fidelity may select: enough to clear cache warmup and settle the loop
// behaviour of the ~500-instruction kernels.
const MinFidelityInstructions = 2000

// normalized fills in defaults and applies the fidelity scaling (exactly
// once: the scaled options report Fidelity == 0 so a second normalization is
// a no-op).
func (o EvalOptions) normalized() EvalOptions {
	if o.DynamicInstructions == 0 {
		o.DynamicInstructions = DefaultDynamicInstructions
	}
	if o.Fidelity > 0 && o.Fidelity < 1 {
		scaled := int(float64(o.DynamicInstructions) * o.Fidelity)
		if scaled < MinFidelityInstructions {
			scaled = MinFidelityInstructions
		}
		if scaled < o.DynamicInstructions {
			o.DynamicInstructions = scaled
		}
	}
	o.Fidelity = 0
	return o
}

// Platform is the evaluation boundary the tuning mechanism talks to.
// Implementations are not required to be safe for concurrent use; MicroGrad
// evaluates candidate configurations sequentially within one tuning run.
type Platform interface {
	// Name identifies the platform for reports.
	Name() string
	// Evaluate runs the program and returns its metric vector.
	Evaluate(p *program.Program, opts EvalOptions) (metrics.Vector, error)
}

// SimPlatform is the Gem5+McPAT substitute: a trace-driven performance
// simulation plus an activity-based power estimate.
type SimPlatform struct {
	spec  CoreSpec
	mem   *memsim.Hierarchy
	pred  *branchsim.Predictor
	cpu   *cpusim.CPU
	power *powersim.Model
	// evaluations counts Evaluate calls, for resource accounting.
	evaluations uint64
}

// NewSimPlatform instantiates the simulator for a core spec.
func NewSimPlatform(spec CoreSpec) (*SimPlatform, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	mem, err := memsim.NewHierarchy(spec.Memory)
	if err != nil {
		return nil, err
	}
	pred, err := branchsim.New(spec.Branch)
	if err != nil {
		return nil, err
	}
	cpu, err := cpusim.New(spec.CPU, mem, pred)
	if err != nil {
		return nil, err
	}
	power, err := powersim.New(spec.Power)
	if err != nil {
		return nil, err
	}
	return &SimPlatform{spec: spec, mem: mem, pred: pred, cpu: cpu, power: power}, nil
}

// Name implements Platform.
func (s *SimPlatform) Name() string {
	return fmt.Sprintf("sim-%s", s.spec.Kind)
}

// Spec returns the platform's core specification.
func (s *SimPlatform) Spec() CoreSpec { return s.spec }

// Evaluations returns the number of Evaluate calls served so far.
func (s *SimPlatform) Evaluations() uint64 { return s.evaluations }

// Evaluate implements Platform. The raw simulation result is not handed out,
// so the run records only the activity windows its metrics need.
//
// Deprecated: thin shim over EvaluateRequest; new code should build an
// EvalRequest (Detail: DetailMetrics) instead.
func (s *SimPlatform) Evaluate(p *program.Program, opts EvalOptions) (metrics.Vector, error) {
	resp, err := s.EvaluateRequest(EvalRequest{Programs: []*program.Program{p}, Options: opts})
	return resp.Metrics, err
}

// TraceWarmupWindows is the number of leading activity windows the transient
// analyses discard as cache warmup (capped at a quarter of the trace for
// very short runs).
const TraceWarmupWindows = 16

// addPowerMetrics extends the vector with the power model's base output,
// the average dynamic power, and returns the untrimmed power trace of the
// run (empty when the run recorded no activity windows).
func (s *SimPlatform) addPowerMetrics(v metrics.Vector, res cpusim.Result) powersim.PowerTrace {
	v[metrics.DynamicPowerW] = s.power.DynamicPower(res)
	return s.power.Trace(res)
}

// addTransientMetrics extends the vector with the transient-power metrics
// of a run's untrimmed power trace — worst-case supply droop, maximum dI/dt
// step, steady-state hotspot temperature — when the trace has windows.
func (s *SimPlatform) addTransientMetrics(v metrics.Vector, trace powersim.PowerTrace) {
	if trace.Empty() {
		return
	}
	steady := SteadyTrace(trace)
	v[metrics.WorstDroopMV] = s.spec.Supply.WorstDroopMV(steady)
	v[metrics.MaxDIDTWPerCycle] = steady.MaxStepWPerCycle()
	v[metrics.TempC] = s.spec.Thermal.SteadyTempC(steady)
}

// SteadyTrace drops a power trace's cache-warmup windows (TraceWarmupWindows,
// capped at a quarter of the trace): the part of the trace every transient
// analysis reads.
func SteadyTrace(trace powersim.PowerTrace) powersim.PowerTrace {
	return trace.TrimWarmupCapped(TraceWarmupWindows)
}

// PowerTrace derives the windowed power trace of a detailed evaluation
// result (used by reporting tools and cmd/mgbench's -trace dump).
func (s *SimPlatform) PowerTrace(res cpusim.Result) powersim.PowerTrace {
	return s.power.Trace(res)
}

// EvaluateDetailed runs the program and returns both the metric vector and
// the raw simulation result (used by reporting tools that need the full
// statistics, e.g. the power-virus instruction distribution of Table III).
//
// Deprecated: thin shim over EvaluateRequest; new code should build an
// EvalRequest (Detail: DetailResult) instead.
func (s *SimPlatform) EvaluateDetailed(p *program.Program, opts EvalOptions) (metrics.Vector, cpusim.Result, error) {
	v, res, _, err := s.evaluate(p, opts, DetailResult)
	return v, res, err
}

// evaluate is the one single-core evaluation path: evaluateBase plus, when
// it collects power, the transient metrics of the core's own trace.
func (s *SimPlatform) evaluate(p *program.Program, opts EvalOptions, detail EvalDetail) (metrics.Vector, cpusim.Result, powersim.PowerTrace, error) {
	v, res, trace, err := s.evaluateBase(p, opts, detail)
	if err == nil && opts.CollectPower {
		s.addTransientMetrics(v, trace)
	}
	return v, res, trace, err
}

// EvaluateCore serves one core of a chip evaluation. It always collects
// power and returns the core's base metrics (the performance counters and
// the average dynamic power) with its untrimmed power trace, but none of the
// transient metrics: the chip derives the droops of all its cores in one
// batch (powersim.SupplyModel.WorstDroopsMV over their SteadyTrace) and has
// no use for a core's own dI/dt or temperature. detail selects the run as in
// EvaluateRequest: only a DetailResult run returns a result that owns its
// activity windows; below it they are the simulator's scratch, overwritten
// by the next evaluation.
func (s *SimPlatform) EvaluateCore(p *program.Program, opts EvalOptions, detail EvalDetail) (metrics.Vector, cpusim.Result, powersim.PowerTrace, error) {
	opts.CollectPower = true
	return s.evaluateBase(p, opts, detail)
}

// evaluateBase runs the program and derives the base metrics; it returns the
// power trace when it collected power. The run records only what detail
// needs: a Result handed out (DetailResult) gets its own copy of the
// activity windows, a trace or power metrics read them from the simulator's
// scratch, and a metrics-only run without power records none.
func (s *SimPlatform) evaluateBase(p *program.Program, opts EvalOptions, detail EvalDetail) (metrics.Vector, cpusim.Result, powersim.PowerTrace, error) {
	opts = opts.normalized()
	var res cpusim.Result
	var err error
	switch {
	case detail >= DetailResult:
		res, err = s.cpu.Run(p, opts.DynamicInstructions, opts.Seed)
	case opts.CollectPower:
		res, err = s.cpu.RunShared(p, opts.DynamicInstructions, opts.Seed)
	default:
		res, err = s.cpu.RunTotals(p, opts.DynamicInstructions, opts.Seed)
	}
	if err != nil {
		return nil, cpusim.Result{}, powersim.PowerTrace{}, err
	}
	if opts.FrequencyGHz > 0 {
		// The cycle-level result is clock-agnostic; relabelling its time
		// base is all a DVFS override needs. Everything downstream (power
		// conversion, trace, droop, temperature) reads the result's clock.
		res.Config.FrequencyGHz = opts.FrequencyGHz
	}
	s.evaluations++
	v := ResultVector(res)
	var trace powersim.PowerTrace
	if opts.CollectPower {
		trace = s.addPowerMetrics(v, res)
	}
	return v, res, trace, nil
}

// ResultVector converts a raw simulation result into the standard metric
// vector.
func ResultVector(res cpusim.Result) metrics.Vector {
	v := metrics.Vector{
		metrics.IPC:                  res.IPC(),
		metrics.CPI:                  res.CPI(),
		metrics.Instructions:         float64(res.Instructions),
		metrics.Cycles:               float64(res.Cycles),
		metrics.FracInteger:          res.ClassFraction(isa.ClassInteger),
		metrics.FracFloat:            res.ClassFraction(isa.ClassFloat),
		metrics.FracLoad:             res.ClassFraction(isa.ClassLoad),
		metrics.FracStore:            res.ClassFraction(isa.ClassStore),
		metrics.FracBranch:           res.ClassFraction(isa.ClassBranch),
		metrics.FracNop:              res.ClassFraction(isa.ClassNop),
		metrics.BranchMispredictRate: res.Branch.MispredictRate(),
		metrics.L1IHitRate:           res.L1I.HitRate(),
		metrics.L1DHitRate:           res.L1D.HitRate(),
		metrics.L2HitRate:            res.L2.HitRate(),
	}
	if res.DTLB.Accesses > 0 {
		v[metrics.DTLBMissRate] = res.DTLB.MissRate()
	}
	return v
}

// NativeStub is an interface-compatible stand-in for the paper's
// native-hardware back-end. Real hardware-counter access is not available in
// this environment, so the stub replays a canned metric vector; it exists to
// demonstrate (and test) that the framework boundary supports non-simulated
// platforms.
type NativeStub struct {
	// Canned is the metric vector returned by every evaluation.
	Canned metrics.Vector
}

// Name implements Platform.
func (NativeStub) Name() string { return "native-stub" }

// Evaluate implements Platform.
func (n NativeStub) Evaluate(p *program.Program, opts EvalOptions) (metrics.Vector, error) {
	if p == nil || p.StaticCount() == 0 {
		return nil, fmt.Errorf("platform: native stub needs a non-empty program")
	}
	if len(n.Canned) == 0 {
		return nil, fmt.Errorf("platform: native stub has no canned metrics configured")
	}
	return n.Canned.Clone(), nil
}
