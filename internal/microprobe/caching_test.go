package microprobe

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"micrograd/internal/knobs"
	"micrograd/internal/program"
)

// TestCachingSynthesizerReusesPrograms checks that repeat syntheses return
// the identical program pointer (which is what lets the simulator skip
// re-validating and re-predecoding) and that the counters track hits/misses.
func TestCachingSynthesizerReusesPrograms(t *testing.T) {
	c := NewCachingSynthesizer(Options{LoopSize: 120, Seed: 3})
	cfg := knobs.StressSpace().MidConfig()

	p1, err := c.Synthesize("memo", cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Synthesize("memo", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("repeat synthesis should return the cached program pointer")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1 / 1", hits, misses)
	}

	// A different kernel name is a different cache entry even for the same
	// configuration.
	p3, err := c.Synthesize("other", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Error("different kernel names must not share cache entries")
	}

	// The cached program matches a plain synthesis bit for bit.
	plain, err := NewSynthesizer(Options{LoopSize: 120, Seed: 3}).Synthesize("memo", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Instructions) != len(p1.Instructions) {
		t.Fatalf("cached program length %d != plain %d", len(p1.Instructions), len(plain.Instructions))
	}
	for i := range plain.Instructions {
		if plain.Instructions[i] != p1.Instructions[i] {
			t.Fatalf("cached program diverges from plain synthesis at instruction %d", i)
		}
	}
}

// TestCachingSynthesizerDedupesEvalTimeKnobs checks the point of keying on
// canonical settings: configurations differing only in evaluation-time knobs
// (FREQ_GHZ) share one synthesized kernel.
func TestCachingSynthesizerDedupesEvalTimeKnobs(t *testing.T) {
	space := knobs.DVFSStressSpace(1)
	idx, ok := space.IndexOf(knobs.FreqGHzName(0))
	if !ok {
		t.Fatal("DVFS space should tune FREQ_GHZ_0")
	}
	cfgA := space.MidConfig()
	cfgB := cfgA.WithIndex(idx, 0)
	if cfgA.Key() == cfgB.Key() {
		t.Fatal("test configs should differ")
	}

	c := NewCachingSynthesizer(Options{LoopSize: 120, Seed: 3})
	pA, err := c.SynthesizeSettings("dvfs", cfgA.Settings())
	if err != nil {
		t.Fatal(err)
	}
	pB, err := c.SynthesizeSettings("dvfs", cfgB.Settings())
	if err != nil {
		t.Fatal(err)
	}
	if pA != pB {
		t.Error("configs differing only in FREQ_GHZ should share the synthesized kernel")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1 / 1", hits, misses)
	}
}

// referenceKernel finishes a positional-stage kernel by the letter of
// PhaseRotatePass and UpdateInstructionAddressesPass, independently of
// finishKernel: it rotates the body element by element, clearing labels,
// numbers each stream's memory instructions with a map, validates and
// records the phase offset.
func referenceKernel(t *testing.T, s *Synthesizer, name string, set knobs.Settings) *program.Program {
	t.Helper()
	p, err := s.synthesizeBase(set)
	if err != nil {
		t.Fatal(err)
	}
	p.Name = name
	if body := len(p.Instructions) - 1; set.PhaseOffset%body != 0 {
		off := set.PhaseOffset % body
		rotated := make([]program.Instruction, body)
		for i := range rotated {
			rotated[i] = p.Instructions[(i+off)%body]
			rotated[i].Label = ""
		}
		rotated[0].Label = "kernel_loop"
		copy(p.Instructions, rotated)
	}
	perStream := map[int]int{}
	for i := range p.Instructions {
		in := &p.Instructions[i]
		if in.Op.IsMemory() {
			st := p.Streams[in.Stream]
			in.Imm = int64((perStream[in.Stream] * st.StrideBytes) % st.FootprintBytes)
			perStream[in.Stream]++
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if set.PhaseOffset > 0 {
		p.Meta["phase_offset"] = fmt.Sprintf("%d", set.PhaseOffset)
	}
	return p
}

// spatialOffsets returns every phase offset of the spatial stress space.
func spatialOffsets(t *testing.T, space *knobs.Space) []int {
	t.Helper()
	idx, ok := space.IndexOf(knobs.PhaseOffsetName(0))
	if !ok {
		t.Fatal("spatial space has no PHASE_OFFSET_0")
	}
	var out []int
	for _, v := range space.Def(idx).Values {
		out = append(out, int(v))
	}
	return out
}

// TestSharedBaseMatchesPipeline pins the memoized positional stage: for a
// sample of spatial-virus settings and every phase offset of the spatial
// space, the kernel a CachingSynthesizer finishes from a shared base is
// deep-equal to Synthesizer.SynthesizeSettings and to the element-by-element
// reference. The offsets run in a shuffled order, and more settings than the
// base memo holds are interleaved, so kernels finish from reused, evicted
// and recomputed bases alike.
func TestSharedBaseMatchesPipeline(t *testing.T) {
	opts := Options{LoopSize: 500, Seed: 9}
	space := knobs.SpatialStressSpace(4)
	offsets := spatialOffsets(t, space)
	rng := rand.New(rand.NewSource(4))
	sets := make([]knobs.Settings, baseMemoSize+4)
	for i := range sets {
		sets[i] = space.RandomConfig(rng).Settings()
	}
	sets[0] = space.MidConfig().Settings()
	caching := NewCachingSynthesizer(opts)
	plain := NewSynthesizer(opts)
	for _, off := range rng.Perm(len(offsets)) {
		for i, set := range sets {
			set.PhaseOffset = offsets[off]
			name := fmt.Sprintf("pin%d-off%d", i, set.PhaseOffset)
			got, err := caching.SynthesizeSettings(name, set)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.SynthesizeSettings(name, set)
			if err != nil {
				t.Fatal(err)
			}
			ref := referenceKernel(t, plain, name, set)
			for _, w := range []*program.Program{want, ref} {
				// Every field: Name, Instructions, Streams, Patterns, Meta,
				// CodeBase and DataBase.
				if !reflect.DeepEqual(got, w) {
					t.Fatalf("settings %d, offset %d: shared-base kernel differs from the pipeline", i, set.PhaseOffset)
				}
			}
		}
	}
}

// TestSharedBaseConcurrent shares one CachingSynthesizer between workers
// that synthesize the per-core kernels of overlapping settings in different
// orders, so base lookups, fills and evictions race; every kernel must still
// equal the plain pipeline's.
func TestSharedBaseConcurrent(t *testing.T) {
	opts := Options{LoopSize: 200, Seed: 2}
	space := knobs.SpatialStressSpace(4)
	offsets := spatialOffsets(t, space)
	rng := rand.New(rand.NewSource(8))
	sets := make([]knobs.Settings, baseMemoSize+8)
	for i := range sets {
		sets[i] = space.RandomConfig(rng).Settings()
		sets[i].PhaseOffset = offsets[rng.Intn(len(offsets))]
	}
	want := make([]*program.Program, len(sets))
	for i, set := range sets {
		p, err := NewSynthesizer(opts).SynthesizeSettings(fmt.Sprintf("k%d", i), set)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}
	c := NewCachingSynthesizer(opts)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		order := rng.Perm(len(sets))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range order {
				got, err := c.SynthesizeSettings(fmt.Sprintf("k%d", i), sets[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("kernel %d differs from the plain pipeline", i)
				}
			}
		}()
	}
	wg.Wait()
}

// TestCachingStatsSpatialSequence pins the hit and miss counts over the
// request shape of a successive-halving spatial tuner: every candidate
// synthesizes one rotated kernel per core, and later rungs re-synthesize
// surviving candidates. The counts describe whole kernels, whatever the
// shared-base memo does underneath.
func TestCachingStatsSpatialSequence(t *testing.T) {
	const cores = 4
	space := knobs.SpatialStressSpace(cores)
	rng := rand.New(rand.NewSource(12))
	rung := make([]knobs.Config, 27)
	for i := range rung {
		rung[i] = space.RandomConfig(rng)
	}
	rungs := [][]knobs.Config{rung, rung[:9], rung[:3], rung[:1]}
	c := NewCachingSynthesizer(Options{LoopSize: 200, Seed: 1})
	seen := map[string]bool{}
	var wantHits, wantMisses uint64
	for r, cfgs := range rungs {
		for n, cfg := range cfgs {
			set := cfg.Settings()
			for core := 0; core < cores; core++ {
				coreSet := set
				if off, ok := cfg.ValueByName(knobs.PhaseOffsetName(core)); ok {
					coreSet.PhaseOffset = int(off)
				}
				name := fmt.Sprintf("cand%d-core%d", n, core)
				if key := name + "\x00" + coreSet.CanonicalKey(); seen[key] {
					wantHits++
				} else {
					seen[key] = true
					wantMisses++
				}
				if _, err := c.SynthesizeSettings(name, coreSet); err != nil {
					t.Fatalf("rung %d: %v", r, err)
				}
			}
		}
	}
	if hits, misses := c.Stats(); hits != wantHits || misses != wantMisses {
		t.Errorf("stats = %d hits / %d misses, want %d / %d", hits, misses, wantHits, wantMisses)
	}
	if wantMisses != 27*cores || wantHits != (9+3+1)*cores {
		t.Errorf("sequence drew repeated candidates: %d misses, %d hits", wantMisses, wantHits)
	}
}
