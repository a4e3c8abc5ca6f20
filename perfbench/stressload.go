package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"micrograd/internal/evalcache"
	"micrograd/internal/knobs"
	"micrograd/internal/microprobe"
	"micrograd/internal/multicore"
	"micrograd/internal/platform"
	"micrograd/internal/stress"
	"micrograd/internal/tuner"
)

// stressBench runs one stress tuning job on a chip per unit through
// stress.Run, the entry point mgbench's -kind runs use. Each unit gets a
// fresh cache and synthesizer, so every unit does the same work; the
// platform is built once in set-up and reused, as a tuning worker reuses
// its platform.
type stressBench struct {
	o            options
	kind         stress.Kind
	space        *knobs.Space
	tuner        string
	instructions int
	epochs       int
	budget       int
	loopSize     int
	// corePar is the chip's core fan-out.
	corePar int
	chip    multicore.CoRunSpec

	slot *slot
	plat *chipProbe
}

func newSpatialHalving(o options) bench {
	spec := multicore.Homogeneous(platform.Large(), 4).WithGrid(2, 2, nil)
	// The chip simulates its cores one after another: fanning them over 2
	// sched workers made run-to-run spread about three times wider on a
	// 2-CPU host (7% against 2.6%, interleaved runs), too wide to bound.
	// The self-test runs the fan-out and pins it to the serial results.
	b := &stressBench{o: o, kind: stress.SpatialNoiseVirus, space: knobs.SpatialStressSpace(4),
		tuner: "halving-cmaes", instructions: 40000, epochs: 30, budget: 1600, loopSize: 500,
		corePar: 1, chip: spec}
	if o.parallel > 0 {
		b.corePar = min(o.parallel, 4)
	}
	if o.tiny {
		b.instructions, b.budget = 4000, 120
	}
	return b
}

func (b *stressBench) newSynth() *microprobe.CachingSynthesizer {
	return microprobe.NewCachingSynthesizer(microprobe.Options{LoopSize: b.loopSize, Seed: b.o.programSeed})
}

func (b *stressBench) evalOptions() platform.EvalOptions {
	return platform.EvalOptions{DynamicInstructions: b.instructions, Seed: b.o.programSeed}
}

// setup builds the platform and warms it with one full-window evaluation
// of the space's middle configuration.
func (b *stressBench) setup() error {
	b.slot = &slot{}
	b.slot.Store(newProbe(false))
	synth := b.newSynth()
	chip, err := multicore.New(b.chip, b.corePar)
	if err != nil {
		return err
	}
	b.plat = &chipProbe{CoRunPlatform: chip, slot: b.slot, synth: synth.Options()}
	session := platform.NewEvalSession(b.plat, synth)
	opts := b.evalOptions()
	opts.CollectPower = true
	_, err = session.Evaluate(platform.EvalRequest{Name: "warmup", Config: b.space.MidConfig(), Options: opts})
	return err
}

// run executes one tuning job.
func (b *stressBench) run(_ int, pr *probe) (unit, error) {
	b.slot.Store(pr)
	tn, err := tuner.ByName(b.tuner)
	if err != nil {
		return unit{}, err
	}
	group := evalcache.NewGroup(newCache(b.slot, pr.tracing))
	synth := b.newSynth()
	var u unit
	rows := 0
	start := time.Now()
	rep, err := stress.Run(context.Background(), b.kind, stress.Options{
		Space:          b.space,
		Tuner:          pr.wrapTuner(tn),
		Platform:       b.plat,
		EvalOptions:    b.evalOptions(),
		LoopSize:       b.loopSize,
		Seed:           b.o.programSeed,
		MaxEpochs:      b.epochs,
		MaxEvaluations: b.budget,
		Parallel:       1,
		Memo:           group,
		Synth:          synth,
		OnEpoch: func(stress.EpochPoint) {
			if rows == 0 {
				u.firstRow = time.Since(start).Seconds()
			}
			rows++
		},
	})
	u.wall = time.Since(start).Seconds()
	if err != nil {
		return unit{}, err
	}
	if rep.Epochs == 0 || len(rep.Progression) != rep.Epochs || rows == 0 {
		return unit{}, fmt.Errorf("%s: %d epochs, %d progression points, %d streamed", b.kind, rep.Epochs, len(rep.Progression), rows)
	}
	if last := rep.Progression[len(rep.Progression)-1].BestValue; math.Float64bits(last) != math.Float64bits(rep.BestValue) {
		u.problem = fmt.Sprintf("best value %v differs from the last progression point %v", rep.BestValue, last)
	}
	hits, misses := group.Stats()
	sh, sm := synth.Stats()
	u.counts = counts{
		Lookups: hits + misses, Hits: hits, Misses: misses, Entries: group.Len(),
		SynthHits: sh, SynthMisses: sm, Proposed: rep.TunerResult.TotalEvaluations, Epochs: rep.Epochs,
		SimInstrs: pr.instrs.Load(), Rows: rows,
	}
	if uint64(rep.Evaluations) != misses {
		u.problem = fmt.Sprintf("%d simulations but %d cache misses", rep.Evaluations, misses)
	}
	var d digest
	d.add(rep.Config.Key(), rep.BestValue)
	// The best configuration's full metric vector: IPC, power, droop and
	// temperature, so a simulator change shows even where the best value
	// stays put.
	for _, name := range rep.BestMetrics.Names() {
		d.add(name, rep.BestMetrics[name])
	}
	for _, p := range rep.Progression {
		d.add(p.Epoch, p.BestValue, p.Evaluations, p.CumulativeEvaluations)
	}
	u.counts.addTo(&d)
	u.digest = d.String()
	u.quality = map[string]float64{"best_value": rep.BestValue}
	if pr.tracing {
		u.covered = float64(pr.tunerNS) / 1e9
	}
	return u, nil
}

// layers times the platform calls of every traced unit and replays the
// first unit's calls below the platform.
func (b *stressBench) layers(traced []unit, m map[string]float64) error {
	spanLayers(traced, m)
	rp, err := newReplayer(platform.Large(), &b.chip)
	if err != nil {
		return err
	}
	return replayLayers(rp, platform.EvalIdentityOf(b.plat), traced[0].probe, m)
}

// spanLayers derives the platform, tuner and scheduling metrics from the
// units' own spans; every workload has one platform caller at a time.
func spanLayers(units []unit, m map[string]float64) {
	var evalNS []int64
	var self, busy []float64
	for _, u := range units {
		pr := u.probe
		evalNS = append(evalNS, pr.evalNS...)
		self = append(self, float64(pr.tunerSelfNS())/1e9)
		busy = append(busy, float64(pr.platformNS())/1e9/u.wall)
	}
	m["platform.eval_ns_p50"] = quantileNS(evalNS, 0.5)
	m["platform.eval_ns_p99"] = quantileNS(evalNS, 0.99)
	m["tuner.self_s"] = median(self)
	m["sched.busy_frac"] = median(busy)
	c := units[0].counts
	m["tuner.proposed"] = float64(c.Proposed)
	m["tuner.epochs"] = float64(c.Epochs)
	m["microprobe.synth_hits"] = float64(c.SynthHits)
	m["microprobe.synth_misses"] = float64(c.SynthMisses)
}

// replayLayers replays the calls recorded by calls below the platform, and
// the configurations it evaluated through the cache keyer; keys must all
// be among the keys its unit stored into the cache.
func replayLayers(rp *replayer, identity string, calls *probe, m map[string]float64) error {
	var st replayStats
	if err := rp.replay(calls.reqs, &st); err != nil {
		return err
	}
	keyNS, missing := replayKeys(identity, calls.reqs, calls.putKeys)
	calls64 := float64(max(st.calls, 1))
	m["cpusim.instructions"] = float64(st.instrs)
	m["cpusim.cycles"] = float64(st.cycles)
	m["cpusim.ns_per_instr"] = ratio(float64(st.cpusimNS), float64(st.instrs))
	m["powersim.lumped_ns_per_eval"] = float64(st.lumpedNS) / calls64
	m["powersim.grid_ns_per_eval"] = float64(st.gridNS) / calls64
	m["multicore.aggregate_ns_per_eval"] = float64(st.aggregateNS) / calls64
	m["microprobe.synth_ns_p50"] = quantileNS(st.synthNS, 0.5)
	m["platform.key_ns_p50"] = quantileNS(keyNS, 0.5)
	switch {
	case st.mismatches > 0:
		return fmt.Errorf("%d of %d replayed calls differ from the platform's results", st.mismatches, st.calls)
	case int64(st.instrs) != calls.instrs.Load():
		return fmt.Errorf("replay simulated %d instructions, the platform %d", st.instrs, calls.instrs.Load())
	case missing > 0:
		return fmt.Errorf("%d replayed cache keys were never stored", missing)
	}
	return nil
}
