package microprobe

import (
	"fmt"
	"math/rand"

	"micrograd/internal/isa"
	"micrograd/internal/knobs"
	"micrograd/internal/program"
)

// DefaultLoopSize is the number of static instructions in a generated test
// case. The paper's test cases are "roughly 500 static instructions in an
// endless loop".
const DefaultLoopSize = 500

// Options configures the Synthesizer.
type Options struct {
	// LoopSize is the static size of the generated loop (including the
	// loop-closing branch). Zero means DefaultLoopSize.
	LoopSize int
	// Seed drives the deterministic pseudo-random choices of generation.
	Seed int64
	// HotStreamBytes is the footprint of the small "hot" memory stream that
	// models the temporally-local portion of the access stream. Zero means
	// 4096 bytes.
	HotStreamBytes int
}

// normalized returns the options with defaults filled in.
func (o Options) normalized() Options {
	if o.LoopSize == 0 {
		o.LoopSize = DefaultLoopSize
	}
	if o.HotStreamBytes == 0 {
		o.HotStreamBytes = 4096
	}
	return o
}

// Synthesizer turns knob settings into synthetic test cases by running the
// standard MicroGrad pass pipeline (the paper's Listing 2). It is the
// "Microprobe scripting interface" of the Go reproduction: the tuning
// mechanism hands it a knob configuration and receives a runnable program.
type Synthesizer struct {
	opts Options
}

// NewSynthesizer returns a Synthesizer with the given options.
func NewSynthesizer(opts Options) *Synthesizer {
	return &Synthesizer{opts: opts.normalized()}
}

// LoopSize returns the static loop size the synthesizer generates.
func (s *Synthesizer) LoopSize() int { return s.opts.LoopSize }

// Options returns the (normalized) synthesis options.
func (s *Synthesizer) Options() Options { return s.opts }

// Synthesize generates the test case for a knob configuration.
func (s *Synthesizer) Synthesize(name string, cfg knobs.Config) (*program.Program, error) {
	return s.SynthesizeSettings(name, cfg.Settings())
}

// SynthesizeSettings generates the test case for explicit back-end settings.
// This entry point is used by the reference-workload models, which describe
// applications with more detail than the knob space exposes.
func (s *Synthesizer) SynthesizeSettings(name string, set knobs.Settings) (*program.Program, error) {
	return s.synthesizeWith(name, set, s.synthesizeBase)
}

// synthesizeWith is the pipeline: validation, the positional stage supplied
// by base (synthesizeBase, or CachingSynthesizer's memo of it), and the
// per-kernel tail.
func (s *Synthesizer) synthesizeWith(name string, set knobs.Settings, base func(knobs.Settings) (*program.Program, error)) (*program.Program, error) {
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("microprobe: invalid settings: %w", err)
	}
	b, err := base(set)
	if err != nil {
		return nil, err
	}
	return finishKernel(b, name, set.PhaseOffset)
}

// synthesizeBase runs the passes that place instructions by position —
// everything before the phase rotation — and records the generation
// metadata. Its result ignores set.PhaseOffset and the kernel name (the
// builder's RNG is seeded from Options.Seed alone), so the rotated per-core
// kernels of one chip configuration all finish from one base.
func (s *Synthesizer) synthesizeBase(set knobs.Settings) (*program.Program, error) {
	rng := rand.New(rand.NewSource(s.opts.Seed))
	b := NewBuilder("", rng)

	// Two memory streams, as in the paper's Listing 2: a small "hot" stream
	// capturing temporal re-use and a "cold" stream with the configured
	// footprint and stride. The hot fraction grows with the MEM_TEMP1 knob
	// (how many accesses repeat).
	hotRatio := temporalHotRatio(set.MemTemp1)
	coldFootprint := set.MemFootprintKB * 1024
	hotFootprint := minInt(s.opts.HotStreamBytes, coldFootprint)
	streams := []StreamSpec{
		{FootprintBytes: hotFootprint, Ratio: hotRatio, StrideBytes: 8, Temp1: 1, Temp2: 1},
		{FootprintBytes: coldFootprint, Ratio: 1 - hotRatio, StrideBytes: set.MemStrideB, Temp1: set.MemTemp1, Temp2: set.MemTemp2},
	}

	passes := []Pass{
		SimpleBuildingBlockPass{LoopSize: s.opts.LoopSize},
		ReserveRegistersPass{Regs: isa.DefaultReserved()},
		SetInstructionTypeByProfilePass{Profile: set.InstrWeights},
		InitializeRegistersPass{Policy: "random"},
		RandomizeByTypePass{Probability: set.BranchRandomRatio},
		GenericMemoryStreamsPass{Streams: streams},
		DefaultRegisterAllocationPass{DepDist: set.RegDist},
	}
	if set.DutyCycle > 0 && set.DutyCycle < 1 {
		// After register allocation: the throttle chain lives on a reserved
		// register the allocator never touches.
		passes = append(passes, DutyCyclePass{Duty: set.DutyCycle, BurstLen: set.BurstLen})
	}
	if err := b.Apply(passes...); err != nil {
		return nil, err
	}

	p := b.Program()
	p.Meta["generator"] = "micrograd/microprobe"
	p.Meta["loop_size"] = fmt.Sprintf("%d", s.opts.LoopSize)
	p.Meta["mem_footprint_kb"] = fmt.Sprintf("%d", set.MemFootprintKB)
	p.Meta["mem_stride_b"] = fmt.Sprintf("%d", set.MemStrideB)
	p.Meta["branch_random_ratio"] = fmt.Sprintf("%.3f", set.BranchRandomRatio)
	if set.DutyCycle > 0 && set.DutyCycle < 1 {
		p.Meta["duty_cycle"] = fmt.Sprintf("%.2f", set.DutyCycle)
		p.Meta["burst_len"] = fmt.Sprintf("%d", set.BurstLen)
	}
	return p, nil
}

// finishKernel is the per-kernel tail of the pipeline, the work of
// PhaseRotatePass and UpdateInstructionAddressesPass done while copying: a
// new program named name whose body is base's rotated by phaseOffset (last
// structural step: rotating the finished body shifts the burst schedule
// without disturbing any positional assignment), with static addresses
// assigned, the result validated and the offset recorded. base is not
// modified.
func finishKernel(base *program.Program, name string, phaseOffset int) (*program.Program, error) {
	p := &program.Program{
		Name:         name,
		Instructions: make([]program.Instruction, len(base.Instructions)),
		Streams:      append([]program.MemoryStream(nil), base.Streams...),
		Patterns:     append([]program.BranchPattern(nil), base.Patterns...),
		CodeBase:     base.CodeBase,
		DataBase:     base.DataBase,
		Meta:         make(map[string]string, len(base.Meta)+1),
	}
	for k, v := range base.Meta {
		p.Meta[k] = v
	}
	rotateBody(p.Instructions, base.Instructions, phaseOffset)
	if err := assignAddresses(p); err != nil {
		return nil, fmt.Errorf("microprobe: pass %s: %w", UpdateInstructionAddressesPass{}.Name(), err)
	}
	if phaseOffset > 0 {
		p.Meta["phase_offset"] = fmt.Sprintf("%d", phaseOffset)
	}
	return p, nil
}

// temporalHotRatio maps the MEM_TEMP1 knob (1..512, "how many accesses
// repeat") to the fraction of memory accesses routed to the small hot
// stream. The mapping is logarithmic because the knob's value list is.
func temporalHotRatio(temp1 int) float64 {
	if temp1 < 1 {
		temp1 = 1
	}
	if temp1 > 512 {
		temp1 = 512
	}
	log2 := 0
	for v := temp1; v > 1; v >>= 1 {
		log2++
	}
	return float64(log2) / 12.0 // 0 .. 0.75
}
