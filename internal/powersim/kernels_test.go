package powersim

import (
	"math"
	"math/rand"
	"testing"
)

// kernelLaneTrace draws one per-core trace for the lumped kernel oracle.
// Most traces share a 2 GHz clock and 64-cycle windows, so groups of them
// run in lockstep; the rest are the shapes that must fall back: other
// clocks, time-domain traces, flat loads that converge early, and traces
// the model cannot time (empty, no clock).
func kernelLaneTrace(rng *rand.Rand) PowerTrace {
	n := 12 + rng.Intn(4)
	switch rng.Intn(10) {
	case 0:
		return PowerTrace{WindowCycles: 64, FrequencyGHz: 2}
	case 1:
		tr := burstTrace(rng, n, 64, 2)
		tr.FrequencyGHz = 0 // no clock: zero droop
		return tr
	case 2:
		return burstTrace(rng, n, 64, 0.5+3*rng.Float64())
	case 3:
		tr := PowerTrace{WindowNS: 32}
		for i := 0; i < n; i++ {
			d := 32.0
			if i == n-1 {
				d = 32 * rng.Float64()
			}
			p := 10 * rng.Float64()
			tr.Points = append(tr.Points, TracePoint{DurationNS: d, EnergyPJ: p * d * 1000, PowerW: p})
		}
		return tr
	case 4:
		return flatTraceAt(n, 64, 2, 10*rng.Float64())
	default:
		return burstTrace(rng, n, 64, 2)
	}
}

// burstTrace is a cycle-domain trace of n windows with bursty power and a
// partial last window.
func burstTrace(rng *rand.Rand, n, windowCycles int, freqGHz float64) PowerTrace {
	tr := PowerTrace{WindowCycles: windowCycles, FrequencyGHz: freqGHz}
	phase := rng.Intn(8)
	for i := 0; i < n; i++ {
		cycles := uint64(windowCycles)
		if i == n-1 {
			cycles = uint64(1 + rng.Intn(windowCycles))
		}
		p := 2 + 2*rng.Float64()
		if (i+phase)/4%2 == 0 {
			p += 6
		}
		e := p / freqGHz * 1000 * float64(cycles)
		tr.Points = append(tr.Points, TracePoint{Cycles: cycles, EnergyPJ: e, PowerW: e / float64(cycles) * freqGHz / 1000})
	}
	return tr
}

// kernelNodeTraces draws the node traces of a rows×cols grid: time-domain
// traces of unequal lengths on a common window, some nodes idle.
func kernelNodeTraces(rng *rand.Rand, nodes int) []PowerTrace {
	const windowNS = 32.0
	out := make([]PowerTrace, nodes)
	for k := range out {
		out[k] = PowerTrace{WindowNS: windowNS}
		if rng.Intn(4) == 0 {
			continue // idle node
		}
		n := 10 + rng.Intn(6)
		phase := rng.Intn(8)
		for i := 0; i < n; i++ {
			d := windowNS
			if i == n-1 {
				d = windowNS * (0.1 + 0.9*rng.Float64())
			}
			p := 2 + 2*rng.Float64()
			if (i+phase)/4%2 == 0 {
				p += 6
			}
			out[k].Points = append(out[k].Points, TracePoint{DurationNS: d, EnergyPJ: p * d * 1000, PowerW: p})
		}
	}
	return out
}

// checkLumpedLanes requires WorstDroopsMV to equal WorstDroopMV of every
// trace bit for bit.
func checkLumpedLanes(t *testing.T, s SupplyModel, traces []PowerTrace) {
	t.Helper()
	got := s.WorstDroopsMV(traces)
	if len(got) != len(traces) {
		t.Fatalf("WorstDroopsMV returned %d droops for %d traces", len(got), len(traces))
	}
	for i, tr := range traces {
		if want := s.WorstDroopMV(tr); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Errorf("lane %d of %d: WorstDroopsMV %.17g mV, WorstDroopMV %.17g mV", i, len(traces), got[i], want)
		}
	}
}

// checkGridRegisterPath requires NodeDroopsMV to equal the generic loop bit
// for bit.
func checkGridRegisterPath(t *testing.T, g GridSupplyModel, nodes []PowerTrace) {
	t.Helper()
	got, err := g.NodeDroopsMV(nodes)
	if err != nil {
		t.Fatalf("NodeDroopsMV: %v", err)
	}
	want, err := g.nodeDroopsGeneric(nodes)
	if err != nil {
		t.Fatalf("generic loop: %v", err)
	}
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Errorf("%dx%d grid (G=%g S) node %d: NodeDroopsMV %.17g mV, generic loop %.17g mV",
				g.Rows, g.Cols, g.CouplingS, k, got[k], want[k])
		}
	}
}

// FuzzSupplyKernelOracle is the permanent bit-exact oracle of the
// register-resident supply kernels. For 1–9 random per-core traces
// (unequal lengths, mixed clocks, time-domain and empty traces) the
// four-lane WorstDroopsMV must equal the scalar WorstDroopMV of each trace,
// and for random 1×1, 1×2, 2×1 and 2×2 grids (idle nodes, unequal node
// lengths, random coupling) NodeDroopsMV must equal the generic loop, both
// compared by math.Float64bits. Only the coupled 2×2 grids take the register
// path; the other shapes pin that NodeDroopsMV routes them to the generic
// loop unchanged. Wired into `make fuzz` and the CI fuzz
// smoke step.
func FuzzSupplyKernelOracle(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(3))
	f.Add(int64(7), uint8(8), uint8(1))
	f.Add(int64(42), uint8(0), uint8(2))
	f.Add(int64(-9), uint8(255), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nLanes uint8, grid uint8) {
		rng := rand.New(rand.NewSource(seed))
		s := DefaultSupplyModel()
		traces := make([]PowerTrace, int(nLanes%9)+1)
		for i := range traces {
			traces[i] = kernelLaneTrace(rng)
		}
		checkLumpedLanes(t, s, traces)

		g := DefaultGridSupplyModel(int(grid%2)+1, int(grid/2%2)+1)
		if grid&4 != 0 {
			g.CouplingS = 20 * rng.Float64()
		}
		checkGridRegisterPath(t, g, kernelNodeTraces(rng, g.Nodes()))
	})
}

func TestSupplyKernelsMatchReferences(t *testing.T) {
	s := DefaultSupplyModel()
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		traces := make([]PowerTrace, 1+seed%9)
		for i := range traces {
			traces[i] = kernelLaneTrace(rng)
		}
		checkLumpedLanes(t, s, traces)
		for _, dims := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}} {
			g := DefaultGridSupplyModel(dims[0], dims[1])
			checkGridRegisterPath(t, g, kernelNodeTraces(rng, g.Nodes()))
		}
	}
	// The benchmark shapes: chip-length traces on the default models.
	checkLumpedLanes(t, s, spatialCoreTraces())
	checkLumpedLanes(t, s, mixedClockCoreTraces())
	checkGridRegisterPath(t, DefaultGridSupplyModel(2, 2), spatialNodeTraces(t))
	checkLumpedLanes(t, s, nil)
}

// spatialCoreTraces are four per-core traces shaped like one
// spatial-halving chip evaluation after the warmup trim: about 330 windows
// of 64 cycles at 2 GHz, a few windows of length apart, each ending in a
// partial window.
func spatialCoreTraces() []PowerTrace {
	rng := rand.New(rand.NewSource(11))
	out := make([]PowerTrace, 4)
	for i := range out {
		out[i] = burstTrace(rng, 328+rng.Intn(5), 64, 2)
	}
	return out
}

// spatialNodeTraces are the 2×2 node traces of the same evaluation: each
// core alone on its node, aggregated on the 32-ns chip grid.
func spatialNodeTraces(tb testing.TB) []PowerTrace {
	cores := spatialCoreTraces()
	nodes := make([]PowerTrace, len(cores))
	for k, tr := range cores {
		node, err := SumTracesTime(32, nil, tr)
		if err != nil {
			tb.Fatal(err)
		}
		nodes[k] = node
	}
	return nodes
}

// mixedClockCoreTraces are spatialCoreTraces' shapes with the four cores at
// different clocks, as on a DVFS co-run: the lanes share no step schedule.
func mixedClockCoreTraces() []PowerTrace {
	rng := rand.New(rand.NewSource(11))
	out := make([]PowerTrace, 4)
	for i, f := range []float64{2, 1.6, 1.2, 0.8} {
		out[i] = burstTrace(rng, 328+rng.Intn(5), 64, f)
	}
	return out
}

// BenchmarkSupplyLanes times the per-core droops of one spatial-halving chip
// evaluation, four scalar WorstDroopMV calls against one WorstDroopsMV call:
// on one clock (four lanes in lockstep) and on four clocks (the scalar
// fallback).
func BenchmarkSupplyLanes(b *testing.B) {
	s := DefaultSupplyModel()
	for _, set := range []struct {
		name   string
		traces []PowerTrace
	}{{"one-clock", spatialCoreTraces()}, {"mixed-clocks", mixedClockCoreTraces()}} {
		b.Run(set.name+"/scalar", func(b *testing.B) {
			for b.Loop() {
				for _, tr := range set.traces {
					s.WorstDroopMV(tr)
				}
			}
		})
		b.Run(set.name+"/lanes", func(b *testing.B) {
			for b.Loop() {
				s.WorstDroopsMV(set.traces)
			}
		})
	}
}

// BenchmarkGridSupply2x2 times the 2×2 node droops of one spatial-halving
// chip evaluation on the generic loop and on the register path.
func BenchmarkGridSupply2x2(b *testing.B) {
	g := DefaultGridSupplyModel(2, 2)
	nodes := spatialNodeTraces(b)
	b.Run("generic", func(b *testing.B) {
		for b.Loop() {
			if _, err := g.nodeDroopsGeneric(nodes); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("register", func(b *testing.B) {
		for b.Loop() {
			if _, err := g.NodeDroopsMV(nodes); err != nil {
				b.Fatal(err)
			}
		}
	})
}
