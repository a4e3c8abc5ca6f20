// Package multicore grows the evaluation platform from one core to N
// co-running cores sharing a power-delivery network and a die. Each core runs
// its own kernel on a private platform.SimPlatform (performance and energy
// are per-core concerns); the per-core power traces are then aligned onto a
// common window grid — honouring per-core start skews — and summed into a
// chip-level trace that drives one shared powersim.SupplyModel and
// powersim.ThermalModel. Worst-case droop and hotspot temperature are
// chip-level phenomena: co-running kernels that phase-align their activity
// bursts excite the shared PDN far harder than any single core can, which is
// exactly the degree of freedom the corun-noise-virus stress kind tunes.
//
// Cores need not share a clock domain: every chip — homogeneous or
// heterogeneous-frequency (big.LITTLE pairings, per-core DVFS overrides from
// the FREQ_GHZ knobs) — is aggregated on a nanosecond grid via
// powersim.SumTracesTime, the single aggregation path. One-clock chips
// reproduce the retired cycle-grid arithmetic to ≤1e-9 (pinned by the
// powersim oracle fuzz target and the chip-metric equivalence test).
package multicore

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"micrograd/internal/cpusim"
	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
	"micrograd/internal/microprobe"
	"micrograd/internal/platform"
	"micrograd/internal/powersim"
	"micrograd/internal/program"
	"micrograd/internal/sched"
)

// CoRunSpec describes a multi-core co-run platform: the per-core
// specifications plus the chip-level supply and thermal models every core's
// activity feeds into. The Supply model inside each CoreSpec still produces
// that core's own droop (core<i>_worst_droop_mv); the shared models here
// see the summed trace.
type CoRunSpec struct {
	// Cores are the co-running core configurations. Every core must record
	// activity windows (WindowCycles > 0); clock frequencies only need to be
	// positive and may differ per core.
	Cores []platform.CoreSpec
	// Supply is the shared power-delivery network.
	Supply powersim.SupplyModel
	// Thermal is the shared die hotspot model.
	Thermal powersim.ThermalModel
	// OffsetCycles optionally skews each core's start by this many cycles
	// when the traces are aligned (nil = all cores start together).
	OffsetCycles []uint64
	// GridSupply, GridThermal and Floorplan switch the chip's transient
	// analyses onto a 2D spatial grid: per-core traces are aggregated per
	// floorplan node and fed to the spatial solvers, which emit per-node
	// droop/temperature metrics plus the chip-worst values. All three must
	// be set together (or all nil for the lumped models above); a 1×1 grid
	// reproduces the lumped chip metrics exactly.
	GridSupply  *powersim.GridSupplyModel
	GridThermal *powersim.GridThermalModel
	Floorplan   *Floorplan
}

// Spatial reports whether the spec evaluates on a spatial grid rather than
// the lumped chip models.
func (s CoRunSpec) Spatial() bool { return s.GridSupply != nil }

// WithGrid returns a copy of the spec evaluated on a rows×cols spatial
// PDN/thermal grid: the per-node models inherit the spec's lumped
// parameters with the default lateral couplings, and fp maps cores onto
// nodes (nil = the round-robin DefaultFloorplan). Validation of the
// dimensions happens in Validate, i.e. at New.
func (s CoRunSpec) WithGrid(rows, cols int, fp *Floorplan) CoRunSpec {
	out := s
	gs := powersim.GridSupplyModel{Rows: rows, Cols: cols, Node: s.Supply, CouplingS: powersim.DefaultGridCouplingS}
	gt := powersim.GridThermalModel{Rows: rows, Cols: cols, Node: s.Thermal, LateralWPerC: powersim.DefaultGridLateralWPerC}
	out.GridSupply = &gs
	out.GridThermal = &gt
	plan := DefaultFloorplan(rows, cols, len(s.Cores))
	if fp != nil {
		plan = *fp
	}
	out.Floorplan = &plan
	return out
}

// Homogeneous returns a co-run spec of n copies of one core, sharing that
// core's supply and thermal models at chip level.
func Homogeneous(core platform.CoreSpec, n int) CoRunSpec {
	spec := CoRunSpec{Supply: core.Supply, Thermal: core.Thermal}
	for i := 0; i < n; i++ {
		spec.Cores = append(spec.Cores, core)
	}
	return spec
}

// WithFrequencies returns a copy of the spec with core i's clock set to
// freqsGHz[i] (zero keeps that core's spec clock) — the static way to build
// a heterogeneous-frequency (big.LITTLE-style) chip, next to the dynamic
// per-evaluation FREQ_GHZ knob overrides.
func (s CoRunSpec) WithFrequencies(freqsGHz []float64) (CoRunSpec, error) {
	if len(freqsGHz) != len(s.Cores) {
		return CoRunSpec{}, fmt.Errorf("multicore: %d clock overrides for %d cores", len(freqsGHz), len(s.Cores))
	}
	out := s
	out.Cores = append([]platform.CoreSpec(nil), s.Cores...)
	for i, f := range freqsGHz {
		if err := validFreqOverride(f, i); err != nil {
			return CoRunSpec{}, err
		}
		if f > 0 {
			out.Cores[i].CPU.FrequencyGHz = f
		}
	}
	return out, nil
}

// validFreqOverride rejects clock overrides that are not zero (keep the
// spec clock) or a positive finite frequency.
func validFreqOverride(f float64, core int) error {
	if f != 0 && (!(f > 0) || math.IsInf(f, 0)) { // !(f>0) also catches NaN
		return fmt.Errorf("multicore: bad clock override %g GHz for core %d (want 0 or positive and finite)", f, core)
	}
	return nil
}

// Validate checks the spec.
func (s CoRunSpec) Validate() error {
	if len(s.Cores) == 0 {
		return fmt.Errorf("multicore: co-run spec without cores")
	}
	for i, c := range s.Cores {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("multicore: core %d: %w", i, err)
		}
		if c.CPU.WindowCycles <= 0 {
			return fmt.Errorf("multicore: core %d records no activity windows (WindowCycles = %d)", i, c.CPU.WindowCycles)
		}
	}
	if s.OffsetCycles != nil && len(s.OffsetCycles) != len(s.Cores) {
		return fmt.Errorf("multicore: %d start offsets for %d cores", len(s.OffsetCycles), len(s.Cores))
	}
	if err := s.Supply.Validate(); err != nil {
		return err
	}
	if err := s.Thermal.Validate(); err != nil {
		return err
	}
	if s.GridSupply == nil && s.GridThermal == nil && s.Floorplan == nil {
		return nil
	}
	if s.GridSupply == nil || s.GridThermal == nil || s.Floorplan == nil {
		return fmt.Errorf("multicore: spatial chips need GridSupply, GridThermal and Floorplan set together")
	}
	if err := s.GridSupply.Validate(); err != nil {
		return err
	}
	if err := s.GridThermal.Validate(); err != nil {
		return err
	}
	if err := s.Floorplan.Validate(len(s.Cores)); err != nil {
		return err
	}
	if s.Floorplan.Rows != s.GridSupply.Rows || s.Floorplan.Cols != s.GridSupply.Cols ||
		s.Floorplan.Rows != s.GridThermal.Rows || s.Floorplan.Cols != s.GridThermal.Cols {
		return fmt.Errorf("multicore: floorplan grid %dx%d does not match supply grid %dx%d / thermal grid %dx%d",
			s.Floorplan.Rows, s.Floorplan.Cols, s.GridSupply.Rows, s.GridSupply.Cols, s.GridThermal.Rows, s.GridThermal.Cols)
	}
	return nil
}

// CoRunPlatform simulates N co-running cores. It implements
// platform.Platform (Evaluate runs the same kernel on every core) and
// stress.ConfigEvaluator (EvaluateConfig derives per-core kernels from one
// knob configuration via the PHASE_OFFSET knobs).
//
// Like the single-core platforms it is not safe for concurrent use; the
// per-core fan-out inside one evaluation is internal (each core owns its
// platform instance) and folds results in core order, so evaluations are
// bit-identical at any Parallel setting.
type CoRunPlatform struct {
	spec     CoRunSpec
	sims     []*platform.SimPlatform
	parallel int
	// evaluations counts chip-level Evaluate calls. It is atomic so
	// Evaluations() stays race-free when tuners fan candidates out over
	// per-worker co-run platforms while an observer polls the counters.
	evaluations atomic.Uint64
}

// New builds a co-run platform. parallel bounds how many cores simulate
// concurrently within one evaluation (<= 1 keeps the per-core loop serial;
// results are identical either way).
func New(spec CoRunSpec, parallel int) (*CoRunPlatform, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if parallel < 1 {
		parallel = 1
	}
	c := &CoRunPlatform{spec: spec, parallel: parallel}
	for _, core := range spec.Cores {
		sim, err := platform.NewSimPlatform(core)
		if err != nil {
			return nil, err
		}
		c.sims = append(c.sims, sim)
	}
	return c, nil
}

// Name implements platform.Platform. Spatial chips carry their grid
// dimensions as a suffix ("corun-4x-small+...@2x2").
func (c *CoRunPlatform) Name() string {
	kinds := make([]string, len(c.spec.Cores))
	for i, core := range c.spec.Cores {
		kinds[i] = string(core.Kind)
	}
	name := fmt.Sprintf("corun-%dx-%s", len(kinds), strings.Join(kinds, "+"))
	if c.spec.Spatial() {
		name += fmt.Sprintf("@%dx%d", c.spec.Floorplan.Rows, c.spec.Floorplan.Cols)
	}
	return name
}

// Spec returns the platform's co-run specification.
func (c *CoRunPlatform) Spec() CoRunSpec { return c.spec }

// EvalIdentity implements platform.Identifier: the full chip specification
// — every core spec, the shared supply/thermal models, start skews, and the
// spatial grid/floorplan when configured — canonically rendered so that two
// chips built from the same spec key their evaluations identically.
// Pointer-typed spec fields are dereferenced (a rendered address would make
// every chip unique).
func (c *CoRunPlatform) EvalIdentity() string {
	var b strings.Builder
	fmt.Fprintf(&b, "corun|supply=%+v|thermal=%+v|offsets=%v", c.spec.Supply, c.spec.Thermal, c.spec.OffsetCycles)
	for i, core := range c.spec.Cores {
		fmt.Fprintf(&b, "|core%d=%+v", i, core)
	}
	if c.spec.GridSupply != nil {
		fmt.Fprintf(&b, "|gridsupply=%+v", *c.spec.GridSupply)
	}
	if c.spec.GridThermal != nil {
		fmt.Fprintf(&b, "|gridthermal=%+v", *c.spec.GridThermal)
	}
	if c.spec.Floorplan != nil {
		fmt.Fprintf(&b, "|floorplan=%+v", *c.spec.Floorplan)
	}
	return b.String()
}

// NumCores returns the number of co-running cores.
func (c *CoRunPlatform) NumCores() int { return len(c.sims) }

// Evaluations returns the number of chip-level evaluations served so far.
func (c *CoRunPlatform) Evaluations() uint64 { return c.evaluations.Load() }

// EvaluateRequest implements platform.RequestEvaluator — the one evaluation
// path every legacy Evaluate* method shims onto. A single program fans out to
// every core; FreqOverrides apply per core; DetailTrace adds the summed chip
// trace and DetailResult the raw per-core simulation results. Options.Fidelity
// shortens every core's simulated window (each per-core simulator applies it),
// so reduced-fidelity chip evaluations — the successive-halving screening
// rungs — are proportionally cheaper while still producing the chip-level
// metrics a power cap constrains on.
func (c *CoRunPlatform) EvaluateRequest(req platform.EvalRequest) (platform.EvalResponse, error) {
	if len(req.Programs) == 0 {
		if !req.Config.IsZero() {
			return platform.EvalResponse{}, fmt.Errorf("multicore: %s cannot synthesize kernels from a configuration; use a platform.EvalSession", c.Name())
		}
		return platform.EvalResponse{}, fmt.Errorf("multicore: request without programs")
	}
	progs := req.Programs
	if len(progs) == 1 && len(c.sims) > 1 {
		progs = make([]*program.Program, len(c.sims))
		for i := range progs {
			progs[i] = req.Programs[0]
		}
	}
	return c.evaluateDetailed(progs, req.FreqOverrides, req.Options, req.Detail)
}

// Evaluate implements platform.Platform: every core co-runs the same kernel.
//
// Deprecated: thin shim over the EvaluateRequest path.
func (c *CoRunPlatform) Evaluate(p *program.Program, opts platform.EvalOptions) (metrics.Vector, error) {
	progs := make([]*program.Program, len(c.sims))
	for i := range progs {
		progs[i] = p
	}
	resp, err := c.evaluateDetailed(progs, nil, opts, platform.DetailMetrics)
	return resp.Metrics, err
}

// EvaluateCoRun simulates one kernel per core and returns the chip-level
// metric vector. Unlike EvaluateRequest it accepts no single-kernel
// shorthand: the kernel count must match the core count exactly.
//
// Deprecated: thin shim over the EvaluateRequest path.
func (c *CoRunPlatform) EvaluateCoRun(progs []*program.Program, opts platform.EvalOptions) (metrics.Vector, error) {
	resp, err := c.evaluateDetailed(progs, nil, opts, platform.DetailMetrics)
	return resp.Metrics, err
}

// EvaluateCoRunDetailed is EvaluateCoRun plus the summed chip-level power
// trace (untrimmed), for reporting tools and cmd/mgbench's -trace dump — one
// simulation pass yields both.
//
// Deprecated: thin shim over the EvaluateRequest path (Detail: DetailTrace).
func (c *CoRunPlatform) EvaluateCoRunDetailed(progs []*program.Program, opts platform.EvalOptions) (metrics.Vector, powersim.PowerTrace, error) {
	resp, err := c.evaluateDetailed(progs, nil, opts, platform.DetailTrace)
	return resp.Metrics, resp.Trace, err
}

// EvaluateCoRunDetailedAt is EvaluateCoRunDetailed with per-core clock
// overrides: core i runs at freqsGHz[i] GHz instead of its spec clock (zero
// keeps the spec clock, nil overrides nothing). Heterogeneous effective
// clocks switch the chip aggregation onto the nanosecond grid.
//
// Deprecated: thin shim over the EvaluateRequest path — the overrides now
// travel in EvalRequest.FreqOverrides.
func (c *CoRunPlatform) EvaluateCoRunDetailedAt(progs []*program.Program, freqsGHz []float64, opts platform.EvalOptions) (metrics.Vector, powersim.PowerTrace, error) {
	resp, err := c.evaluateDetailed(progs, freqsGHz, opts, platform.DetailTrace)
	return resp.Metrics, resp.Trace, err
}

// EvaluateConfig implements the stress package's ConfigEvaluator: the shared
// kernel knobs of cfg shape every core's kernel, core i's burst schedule is
// rotated by its PHASE_OFFSET_<i> knob, and its clock overridden by its
// FREQ_GHZ_<i> knob (when present). The synthesizer is pure per call, so
// this composes with candidate-level fan-out.
//
// Deprecated: thin shim over EvaluateRequest; a platform.EvalSession serves
// Config-driven requests with synthesis memoization.
func (c *CoRunPlatform) EvaluateConfig(name string, cfg knobs.Config, syn *microprobe.Synthesizer, opts platform.EvalOptions) (metrics.Vector, error) {
	progs, err := c.SynthesizeCoRun(name, cfg, syn)
	if err != nil {
		return nil, err
	}
	resp, err := c.EvaluateRequest(platform.EvalRequest{
		Programs: progs, FreqOverrides: FreqOverrides(cfg, len(c.sims)), Options: opts,
	})
	return resp.Metrics, err
}

// FreqOverrides extracts the per-core FREQ_GHZ knob values of a co-run
// configuration as clock overrides. It forwards to platform.FreqOverrides,
// which is where the request-path helpers live.
func FreqOverrides(cfg knobs.Config, cores int) []float64 {
	return platform.FreqOverrides(cfg, cores)
}

// SynthesizeCoRun generates the per-core kernels of a knob configuration:
// one shared kernel shape, rotated per core by the PHASE_OFFSET knobs.
func (c *CoRunPlatform) SynthesizeCoRun(name string, cfg knobs.Config, syn *microprobe.Synthesizer) ([]*program.Program, error) {
	set := cfg.Settings()
	progs := make([]*program.Program, len(c.sims))
	for i := range c.sims {
		coreSet := set
		if off, ok := cfg.ValueByName(knobs.PhaseOffsetName(i)); ok {
			coreSet.PhaseOffset = int(off)
		}
		p, err := syn.SynthesizeSettings(fmt.Sprintf("%s-core%d", name, i), coreSet)
		if err != nil {
			return nil, fmt.Errorf("multicore: synthesizing core %d kernel: %w", i, err)
		}
		progs[i] = p
	}
	return progs, nil
}

// coreRun is one core's contribution to a chip evaluation.
type coreRun struct {
	// vector holds the core's base metrics (platform.SimPlatform.EvaluateCore).
	vector metrics.Vector
	trace  powersim.PowerTrace
	// result is the raw simulation result, collected only for DetailResult.
	result cpusim.Result
	// freqGHz is the effective clock the core ran at (spec or override).
	freqGHz float64
}

// evaluateDetailed fans the per-core simulations out (bit-identical to the
// serial loop: each core owns its platform and results fold in core order),
// sums the aligned traces and derives the chip metrics. freqsGHz optionally
// overrides per-core clocks (zero entries keep the spec clock).
func (c *CoRunPlatform) evaluateDetailed(progs []*program.Program, freqsGHz []float64, opts platform.EvalOptions, detail platform.EvalDetail) (platform.EvalResponse, error) {
	if len(progs) != len(c.sims) {
		return platform.EvalResponse{}, fmt.Errorf("multicore: %d kernels for %d cores", len(progs), len(c.sims))
	}
	if freqsGHz != nil && len(freqsGHz) != len(c.sims) {
		return platform.EvalResponse{}, fmt.Errorf("multicore: %d clock overrides for %d cores", len(freqsGHz), len(c.sims))
	}
	for i, f := range freqsGHz {
		if err := validFreqOverride(f, i); err != nil {
			return platform.EvalResponse{}, err
		}
	}
	// Chip metrics need every core's power trace. Only DetailResult hands
	// the per-core results out; below it each core reads its activity
	// windows from its simulator's scratch.
	coreDetail := platform.DetailTrace
	if detail >= platform.DetailResult {
		coreDetail = platform.DetailResult
	}
	runs, err := sched.Map(context.Background(), c.parallel, c.sims,
		func(_ context.Context, i int, sim *platform.SimPlatform) (coreRun, error) {
			coreOpts := opts
			freq := c.spec.Cores[i].CPU.FrequencyGHz
			if freqsGHz != nil && freqsGHz[i] > 0 {
				freq = freqsGHz[i]
				coreOpts.FrequencyGHz = freq
			}
			vec, res, trace, err := sim.EvaluateCore(progs[i], coreOpts, coreDetail)
			if err != nil {
				return coreRun{}, fmt.Errorf("multicore: core %d: %w", i, err)
			}
			run := coreRun{vector: vec, trace: trace, freqGHz: freq}
			if detail >= platform.DetailResult {
				run.result = res
			}
			return run, nil
		})
	if err != nil {
		return platform.EvalResponse{}, err
	}
	// The per-core droops are solved once the fan-out has joined, in one
	// batch, so they cannot depend on the fan-out width.
	droops := c.coreDroops(runs)

	chip, err := c.sumTraces(runs)
	if err != nil {
		return platform.EvalResponse{}, fmt.Errorf("multicore: summing traces: %w", err)
	}

	v := metrics.Vector{}
	for i, r := range runs {
		v[coreMetric(i, metrics.IPC)] = r.vector[metrics.IPC]
		v[coreMetric(i, metrics.DynamicPowerW)] = r.vector[metrics.DynamicPowerW]
		v[coreMetric(i, metrics.WorstDroopMV)] = droops[i]
		v[coreMetric(i, metrics.FreqGHz)] = r.freqGHz
	}
	v[metrics.ChipPowerW] = chip.AvgPowerW()
	steady := platform.SteadyTrace(chip)
	v[metrics.ChipMaxDIDTWPerNS] = steady.MaxStepWPerNS()
	if c.spec.Spatial() {
		if err := c.spatialMetrics(runs, v); err != nil {
			return platform.EvalResponse{}, err
		}
	} else {
		v[metrics.ChipWorstDroopMV] = c.spec.Supply.WorstDroopMV(steady)
		v[metrics.ChipTempC] = c.spec.Thermal.SteadyTempC(steady)
	}

	resp := platform.EvalResponse{Metrics: v}
	if detail >= platform.DetailTrace {
		resp.Trace = chip
	}
	if detail >= platform.DetailResult {
		resp.Results = make([]cpusim.Result, len(runs))
		for i, r := range runs {
			resp.Results[i] = r.result
		}
	}
	// The counter moves only once the response is fully assembled:
	// Evaluations() counts *served* chip evaluations, and the aggregation
	// and spatial solves above can still fail after the per-core
	// simulations succeeded.
	c.evaluations.Add(1)
	return resp, nil
}

// coreDroops returns each core's worst supply droop over its steady trace,
// bit-identical to a per-core SupplyModel.WorstDroopMV. Cores that share one
// supply model (every chip built from one core spec) are solved in one
// WorstDroopsMV batch; a chip mixing supply models takes the scalar call per
// core.
func (c *CoRunPlatform) coreDroops(runs []coreRun) []float64 {
	steady := make([]powersim.PowerTrace, len(runs))
	for i, r := range runs {
		steady[i] = platform.SteadyTrace(r.trace)
	}
	supply := c.spec.Cores[0].Supply
	for _, core := range c.spec.Cores[1:] {
		if core.Supply != supply {
			droops := make([]float64, len(runs))
			for i, tr := range steady {
				droops[i] = c.spec.Cores[i].Supply.WorstDroopMV(tr)
			}
			return droops
		}
	}
	return supply.WorstDroopsMV(steady)
}

// spatialMetrics runs the spatial supply/thermal solvers over the per-node
// traces and folds the per-node and chip-worst transient metrics into v.
func (c *CoRunPlatform) spatialMetrics(runs []coreRun, v metrics.Vector) error {
	nodes, err := c.nodeTraces(runs)
	if err != nil {
		return fmt.Errorf("multicore: summing node traces: %w", err)
	}
	trimmed := trimNodesAligned(nodes, platform.TraceWarmupWindows)
	droops, err := c.spec.GridSupply.NodeDroopsMV(trimmed)
	if err != nil {
		return fmt.Errorf("multicore: spatial supply solve: %w", err)
	}
	temps, err := c.spec.GridThermal.NodeTempsC(trimmed)
	if err != nil {
		return fmt.Errorf("multicore: spatial thermal solve: %w", err)
	}
	worstDroop, worstTemp := droops[0], temps[0]
	cols := c.spec.Floorplan.Cols
	for k := range droops {
		v[metrics.NodeDroopMV(k/cols, k%cols)] = droops[k]
		v[metrics.NodeTempC(k/cols, k%cols)] = temps[k]
		if droops[k] > worstDroop {
			worstDroop = droops[k]
		}
		if temps[k] > worstTemp {
			worstTemp = temps[k]
		}
	}
	v[metrics.ChipWorstDroopMV] = worstDroop
	v[metrics.ChipTempC] = worstTemp
	return nil
}

// sumTraces aggregates the per-core traces into the chip waveform on the
// nanosecond grid — the single aggregation path, whatever the chip's clock
// mix. The grid window is sized to the longest per-core window duration so
// no core's trace is artificially sharpened, and the cycle-domain start
// skews convert through each core's own effective clock.
func (c *CoRunPlatform) sumTraces(runs []coreRun) (powersim.PowerTrace, error) {
	traces := make([]powersim.PowerTrace, len(runs))
	for i, r := range runs {
		traces[i] = r.trace
	}
	return powersim.SumTracesTime(c.chipWindowNS(runs), c.chipOffsetsNS(runs), traces...)
}

// chipWindowNS sizes the nanosecond aggregation grid: the longest per-core
// window duration, so no core's trace is artificially sharpened.
func (c *CoRunPlatform) chipWindowNS(runs []coreRun) float64 {
	windowNS := 0.0
	for i, r := range runs {
		if w := float64(c.spec.Cores[i].CPU.WindowCycles) / r.freqGHz; w > windowNS {
			windowNS = w
		}
	}
	return windowNS
}

// chipOffsetsNS converts the spec's cycle-domain start skews through each
// core's effective clock (nil when the spec has no skews).
func (c *CoRunPlatform) chipOffsetsNS(runs []coreRun) []float64 {
	if c.spec.OffsetCycles == nil {
		return nil
	}
	offsetsNS := make([]float64, len(runs))
	for i, r := range runs {
		offsetsNS[i] = float64(c.spec.OffsetCycles[i]) / r.freqGHz
	}
	return offsetsNS
}

// nodeTraces aggregates the per-core traces onto the floorplan's grid nodes:
// node k's trace is the SumTracesTime aggregate of the cores mapped onto it,
// on the same nanosecond grid and with the same start skews as the chip
// trace. Nodes with no cores get an empty time-domain trace (an idle
// region). With every core on one node the single node trace is the chip
// trace, computed by the identical aggregation call — the arithmetic the
// 1×1-grid oracle test pins.
func (c *CoRunPlatform) nodeTraces(runs []coreRun) ([]powersim.PowerTrace, error) {
	windowNS := c.chipWindowNS(runs)
	offsetsNS := c.chipOffsetsNS(runs)
	fp := c.spec.Floorplan
	out := make([]powersim.PowerTrace, fp.NodeCount())
	for k := range out {
		var traces []powersim.PowerTrace
		var offs []float64
		for i, r := range runs {
			if fp.Nodes[i] != k {
				continue
			}
			traces = append(traces, r.trace)
			if offsetsNS != nil {
				offs = append(offs, offsetsNS[i])
			}
		}
		if len(traces) == 0 {
			out[k] = powersim.PowerTrace{WindowNS: windowNS}
			continue
		}
		node, err := powersim.SumTracesTime(windowNS, offs, traces...)
		if err != nil {
			return nil, err
		}
		out[k] = node
	}
	return out, nil
}

// trimNodesAligned applies the shared warmup policy to the node traces
// without letting them fall out of time alignment: every non-empty node
// trace drops the same number of leading windows — up to n, capped at a
// quarter of the shortest non-empty node trace. With one populated node
// this is exactly PowerTrace.TrimWarmupCapped(n) of that node's trace.
func trimNodesAligned(nodes []powersim.PowerTrace, n int) []powersim.PowerTrace {
	shortest := -1
	for _, t := range nodes {
		if !t.Empty() && (shortest < 0 || len(t.Points) < shortest) {
			shortest = len(t.Points)
		}
	}
	if shortest < 0 {
		return nodes
	}
	if max := shortest / 4; n > max {
		n = max
	}
	out := make([]powersim.PowerTrace, len(nodes))
	for i, t := range nodes {
		if t.Empty() {
			out[i] = t
			continue
		}
		out[i] = t.TrimWarmup(n)
	}
	return out
}

// coreMetric names core i's copy of a per-core metric ("core0_ipc", ...).
func coreMetric(core int, name string) string {
	return fmt.Sprintf("core%d_%s", core, name)
}
