package main

import (
	"fmt"
	"math"
	"time"

	"micrograd/internal/branchsim"
	"micrograd/internal/cpusim"
	"micrograd/internal/knobs"
	"micrograd/internal/memsim"
	"micrograd/internal/metrics"
	"micrograd/internal/microprobe"
	"micrograd/internal/multicore"
	"micrograd/internal/platform"
	"micrograd/internal/powersim"
	"micrograd/internal/program"
)

// The layers below the platform are timed by replaying the recorded
// platform calls through their public functions — kernel synthesis,
// cpusim.CPU.Run, the lumped power/droop/thermal models, chip trace
// aggregation and the spatial grid solves — in the order the platform runs
// them. Every replayed metric vector must be bit-identical to the one the
// platform returned; a mismatch means the replay no longer measures what
// the program does, and fails the run.

// replayStats are the per-layer totals of one replay.
type replayStats struct {
	calls       int
	instrs      uint64
	cycles      uint64
	cpusimNS    int64
	lumpedNS    int64
	aggregateNS int64
	gridNS      int64
	synthNS     []int64
	mismatches  int
}

// replayer owns one simulator per core of the replayed platform.
type replayer struct {
	cores  []platform.CoreSpec
	chip   *multicore.CoRunSpec
	cpus   []*cpusim.CPU
	power  []*powersim.Model
	synths map[microprobe.Options]*microprobe.Synthesizer
}

// newReplayer builds the replay stack for a single core (chip nil) or for
// a spatial co-run chip.
func newReplayer(core platform.CoreSpec, chip *multicore.CoRunSpec) (*replayer, error) {
	cores := []platform.CoreSpec{core}
	if chip != nil {
		if !chip.Spatial() || chip.OffsetCycles != nil {
			return nil, fmt.Errorf("replay: only aligned spatial chips are replayed")
		}
		cores = chip.Cores
	}
	r := &replayer{cores: cores, chip: chip, synths: make(map[microprobe.Options]*microprobe.Synthesizer)}
	for _, spec := range cores {
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
		pm, err := powersim.New(spec.Power)
		if err != nil {
			return nil, err
		}
		r.cpus = append(r.cpus, cpu)
		r.power = append(r.power, pm)
	}
	return r, nil
}

// replay re-runs every recorded call and adds its layer costs to st.
func (r *replayer) replay(recs []recorded, st *replayStats) error {
	for _, rec := range recs {
		v, err := r.replayOne(rec, st)
		if err != nil {
			return err
		}
		st.calls++
		if !sameVector(v, rec.result) {
			st.mismatches++
		}
	}
	return nil
}

func (r *replayer) replayOne(rec recorded, st *replayStats) (metrics.Vector, error) {
	req := rec.req
	if req.FreqOverrides != nil || req.Options.FrequencyGHz != 0 {
		return nil, fmt.Errorf("replay: clock overrides are not replayed")
	}
	progs := req.Programs
	if !req.Config.IsZero() {
		var err error
		if progs, err = r.synthesize(rec, st); err != nil {
			return nil, err
		}
	}
	if len(progs) != len(r.cores) {
		return nil, fmt.Errorf("replay: %d kernels for %d cores", len(progs), len(r.cores))
	}
	n := req.Options.EffectiveInstructions()
	vecs := make([]metrics.Vector, len(r.cores))
	results := make([]cpusim.Result, len(r.cores))
	for i := range r.cores {
		start := time.Now()
		res, err := r.cpus[i].Run(progs[i], n, req.Options.Seed)
		st.cpusimNS += time.Since(start).Nanoseconds()
		if err != nil {
			return nil, err
		}
		st.instrs += res.Instructions
		st.cycles += res.Cycles
		vecs[i] = platform.ResultVector(res)
		results[i] = res
		if r.chip != nil || req.Options.CollectPower {
			start = time.Now()
			r.lumped(i, res, vecs[i])
			st.lumpedNS += time.Since(start).Nanoseconds()
		}
	}
	if r.chip == nil {
		return vecs[0], nil
	}
	return r.chipVector(vecs, results, st)
}

// synthesize regenerates the request's kernels the way platform.EvalSession
// does: one kernel on a single core, one PHASE_OFFSET-rotated kernel per
// core on a chip.
func (r *replayer) synthesize(rec recorded, st *replayStats) ([]*program.Program, error) {
	syn, ok := r.synths[rec.synth]
	if !ok {
		syn = microprobe.NewSynthesizer(rec.synth)
		r.synths[rec.synth] = syn
	}
	req := rec.req
	if r.chip == nil {
		start := time.Now()
		p, err := syn.Synthesize(req.Name, req.Config)
		st.synthNS = append(st.synthNS, time.Since(start).Nanoseconds())
		return []*program.Program{p}, err
	}
	set := req.Config.Settings()
	progs := make([]*program.Program, len(r.cores))
	for i := range progs {
		coreSet := set
		if off, ok := req.Config.ValueByName(knobs.PhaseOffsetName(i)); ok {
			coreSet.PhaseOffset = int(off)
		}
		start := time.Now()
		p, err := syn.SynthesizeSettings(fmt.Sprintf("%s-core%d", req.Name, i), coreSet)
		st.synthNS = append(st.synthNS, time.Since(start).Nanoseconds())
		if err != nil {
			return nil, err
		}
		progs[i] = p
	}
	return progs, nil
}

// lumped adds the single-core power, droop, dI/dt and temperature metrics.
func (r *replayer) lumped(i int, res cpusim.Result, v metrics.Vector) {
	spec := r.cores[i]
	v[metrics.DynamicPowerW] = r.power[i].DynamicPower(res)
	if len(res.Windows) == 0 {
		return
	}
	steady := r.power[i].Trace(res).TrimWarmupCapped(platform.TraceWarmupWindows)
	v[metrics.WorstDroopMV] = spec.Supply.WorstDroopMV(steady)
	v[metrics.MaxDIDTWPerCycle] = steady.MaxStepWPerCycle()
	v[metrics.TempC] = spec.Thermal.SteadyTempC(steady)
}

// chipVector aggregates the per-core traces onto the nanosecond grid and
// the floorplan's nodes, then runs the spatial supply and thermal solves.
func (r *replayer) chipVector(vecs []metrics.Vector, results []cpusim.Result, st *replayStats) (metrics.Vector, error) {
	start := time.Now()
	traces := make([]powersim.PowerTrace, len(results))
	windowNS := 0.0
	for i, res := range results {
		traces[i] = r.power[i].Trace(res)
		if w := float64(r.cores[i].CPU.WindowCycles) / r.cores[i].CPU.FrequencyGHz; w > windowNS {
			windowNS = w
		}
	}
	chip, err := powersim.SumTracesTime(windowNS, nil, traces...)
	if err != nil {
		return nil, err
	}
	v := metrics.Vector{}
	for i, cv := range vecs {
		v[coreMetric(i, metrics.IPC)] = cv[metrics.IPC]
		v[coreMetric(i, metrics.DynamicPowerW)] = cv[metrics.DynamicPowerW]
		v[coreMetric(i, metrics.WorstDroopMV)] = cv[metrics.WorstDroopMV]
		v[coreMetric(i, metrics.FreqGHz)] = r.cores[i].CPU.FrequencyGHz
	}
	v[metrics.ChipPowerW] = chip.AvgPowerW()
	v[metrics.ChipMaxDIDTWPerNS] = chip.TrimWarmupCapped(platform.TraceWarmupWindows).MaxStepWPerNS()
	fp := r.chip.Floorplan
	nodes := make([]powersim.PowerTrace, fp.NodeCount())
	for k := range nodes {
		var members []powersim.PowerTrace
		for i := range traces {
			if fp.Nodes[i] == k {
				members = append(members, traces[i])
			}
		}
		if len(members) == 0 {
			nodes[k] = powersim.PowerTrace{WindowNS: windowNS}
			continue
		}
		if nodes[k], err = powersim.SumTracesTime(windowNS, nil, members...); err != nil {
			return nil, err
		}
	}
	trimmed := trimAligned(nodes, platform.TraceWarmupWindows)
	st.aggregateNS += time.Since(start).Nanoseconds()

	start = time.Now()
	droops, err := r.chip.GridSupply.NodeDroopsMV(trimmed)
	if err != nil {
		return nil, err
	}
	temps, err := r.chip.GridThermal.NodeTempsC(trimmed)
	if err != nil {
		return nil, err
	}
	st.gridNS += time.Since(start).Nanoseconds()

	worstDroop, worstTemp := droops[0], temps[0]
	for k := range droops {
		v[metrics.NodeDroopMV(k/fp.Cols, k%fp.Cols)] = droops[k]
		v[metrics.NodeTempC(k/fp.Cols, k%fp.Cols)] = temps[k]
		worstDroop = math.Max(worstDroop, droops[k])
		worstTemp = math.Max(worstTemp, temps[k])
	}
	v[metrics.ChipWorstDroopMV] = worstDroop
	v[metrics.ChipTempC] = worstTemp
	return v, nil
}

// trimAligned drops the same number of warm-up windows from every
// non-empty node trace — up to n, capped at a quarter of the shortest — so
// the nodes stay aligned in time.
func trimAligned(nodes []powersim.PowerTrace, n int) []powersim.PowerTrace {
	shortest := -1
	for _, t := range nodes {
		if !t.Empty() && (shortest < 0 || len(t.Points) < shortest) {
			shortest = len(t.Points)
		}
	}
	if shortest < 0 {
		return nodes
	}
	n = min(n, shortest/4)
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

func coreMetric(core int, name string) string { return fmt.Sprintf("core%d_%s", core, name) }

// sameVector reports whether two metric vectors hold the same names with
// bit-identical values.
func sameVector(a, b metrics.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for name, x := range a {
		y, ok := b[name]
		if !ok || math.Float64bits(x) != math.Float64bits(y) {
			return false
		}
	}
	return true
}

// replayKeys recomputes the cache key of every configuration-driven
// recorded call with a keyer built the way the program builds it, timing
// each Key call. It returns how many keys were not among the keys the
// cache stored (nil skips that check).
func replayKeys(identity string, recs []recorded, stored map[string]bool) ([]int64, int) {
	var ns []int64
	missing := 0
	keyers := make(map[microprobe.Options]platform.EvalKeyer)
	for _, rec := range recs {
		if rec.req.Config.IsZero() {
			continue
		}
		base := rec.req.Options
		base.Fidelity = 0
		keyer, ok := keyers[rec.synth]
		if !ok {
			keyer = platform.NewEvalKeyer(identity, rec.synth, base)
			keyers[rec.synth] = keyer
		}
		start := time.Now()
		key := keyer.Key(rec.req.Config, rec.req.Options.Fidelity)
		ns = append(ns, time.Since(start).Nanoseconds())
		if stored != nil && !stored[key] {
			missing++
		}
	}
	return ns, missing
}
