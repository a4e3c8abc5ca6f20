// Spatial generalizations of the lumped transient models: a 2D grid of
// supply nodes (per-node RLC with nearest-neighbour rail coupling) and a 2D
// grid of thermal nodes (per-node RC with lateral thermal conductance). Each
// grid node is parameterized by the *same* lumped model the single-node
// analyses use, and a 1×1 grid reproduces the lumped arithmetic exactly: the
// per-node load/average/step computations below are copies of the
// WorstDroopMV/SteadyTempC loops, and the coupling terms vanish when a node
// has no neighbours. That equivalence is the correctness anchor — it pins
// the spatial solvers to the golden values of the lumped models (see the
// grid oracle tests and FuzzGridLumpedOracle).
//
// Node traces are indexed row-major (node = row*Cols + col) and are the
// SumTracesTime aggregates of the cores a floorplan maps onto each node;
// nodes advance in lockstep on a common per-window step grid (the max
// window duration across nodes), so coupling is integrated consistently
// even when node traces end at different times.
//
// The supply grid has two solver loops over one prepared integration. The
// generic loop keeps the node state in slices and reads the neighbours from
// gridNeighbors; it solves every shape. A coupled 2×2 grid — the grid of
// every chip of three or four cores — takes a register path (kernels.go)
// instead: the loop unrolled over the four nodes, the state in locals, the
// lateral sums written out term by term in gridNeighbors order. It is 2.2 to
// 3 times faster, because the generic loop's state goes through memory on
// every step of a serial chain (a flattened array layout of the same loop
// measured no faster). The generic loop stays as the solver of every other
// shape and as the reference the register path must match bit for bit
// (FuzzSupplyKernelOracle). Two-node grids have no register kernel: no
// benchmark workload runs one, so its gain would be unmeasured.
package powersim

import (
	"fmt"
	"math"
)

// Default lateral coupling strengths of the built-in grid models. The
// supply coupling (rail-to-rail conductance between adjacent grid regions)
// is weak relative to each node's own 20 mΩ path — neighbouring regions
// cushion a hammered node without flattening the spatial contrast a
// phase-aligned co-run creates. The thermal conductance likewise spreads a
// hotspot into its neighbours over tens of milliseconds without turning the
// die isothermal.
const (
	// DefaultGridCouplingS is the node-to-node supply-rail conductance in
	// siemens (5 S ⇒ 0.2 Ω between adjacent nodes, 10× a node's series R).
	DefaultGridCouplingS = 5.0
	// DefaultGridLateralWPerC is the node-to-node thermal conductance in
	// W/°C (0.1 W/°C ⇒ 10 °C/W laterally, ~3× a node's 28 °C/W to ambient).
	DefaultGridLateralWPerC = 0.1
)

// GridSupplyModel is the spatial power-delivery network: a Rows×Cols grid
// of supply nodes, each a lumped second-order RLC (the Node model), with
// adjacent nodes' core-side rails tied by a CouplingS conductance. A node's
// droop is driven by its own local load plus the current exchanged with its
// neighbours — hammering one region droops it far deeper than spreading the
// same activity across the die, which is the behaviour the spatial noise
// virus exploits.
//
// NodeDroopsMV solves a coupled 2×2 grid on the register-resident path and
// every other grid on the generic loop; the two give the same bits (see the
// file comment).
type GridSupplyModel struct {
	// Rows and Cols are the grid dimensions; nodes are indexed row-major.
	Rows, Cols int
	// Node is the per-node lumped supply model. A 1×1 grid reproduces its
	// WorstDroopMV exactly.
	Node SupplyModel
	// CouplingS is the lateral conductance between adjacent nodes'
	// core-side rails, in siemens. Zero decouples the nodes entirely.
	CouplingS float64
}

// DefaultGridSupplyModel returns a rows×cols grid of the default lumped
// supply model with the default lateral coupling.
func DefaultGridSupplyModel(rows, cols int) GridSupplyModel {
	return GridSupplyModel{Rows: rows, Cols: cols, Node: DefaultSupplyModel(), CouplingS: DefaultGridCouplingS}
}

// Nodes returns the node count of the grid.
func (g GridSupplyModel) Nodes() int { return g.Rows * g.Cols }

// Validate checks the grid dimensions, the per-node model and the coupling.
func (g GridSupplyModel) Validate() error {
	if g.Rows < 1 || g.Cols < 1 {
		return fmt.Errorf("powersim: grid supply model needs at least a 1x1 grid (got %dx%d)", g.Rows, g.Cols)
	}
	if err := g.Node.Validate(); err != nil {
		return err
	}
	if !(g.CouplingS >= 0) || math.IsInf(g.CouplingS, 0) {
		return fmt.Errorf("powersim: grid supply coupling must be finite and non-negative (got %g S)", g.CouplingS)
	}
	return nil
}

// NodeDroopsMV simulates the grid driven by the per-node traces (row-major,
// one per node; empty traces are idle nodes) and returns each node's
// worst-case droop in millivolts. On a 1×1 grid the result matches the
// lumped SupplyModel.WorstDroopMV of the same trace exactly. A coupled 2×2
// grid is solved register-resident (registerDroops), every other grid on the
// generic loop; both give the same bits.
func (g GridSupplyModel) NodeDroopsMV(nodes []PowerTrace) ([]float64, error) {
	sv, err := g.prepare(nodes)
	if err != nil {
		return nil, err
	}
	if sv.windows() == 0 {
		return sv.droops, nil
	}
	if sv.coupled && g.Rows == 2 && g.Cols == 2 {
		return sv.registerDroops(), nil
	}
	return sv.genericDroops(), nil
}

// nodeDroopsGeneric is NodeDroopsMV solved on the generic loop whatever the
// grid shape: the reference the register path is tested against.
func (g GridSupplyModel) nodeDroopsGeneric(nodes []PowerTrace) ([]float64, error) {
	sv, err := g.prepare(nodes)
	if err != nil {
		return nil, err
	}
	if sv.windows() == 0 {
		return sv.droops, nil
	}
	return sv.genericDroops(), nil
}

// gridSupplySolve is one grid supply integration, prepared for either
// solver loop: the per-node load currents and warm-start state and the
// per-window step schedule of the common step grid.
type gridSupplySolve struct {
	g       GridSupplyModel
	coupled bool
	// load[n][w] is node n's load current in window w (zero past the end of
	// its trace).
	load [][]float64
	// iv and vv are the per-node warm-start current and voltage.
	iv, vv []float64
	// steps, hOverL, hOverC and hCoupl are the per-window step count and
	// folded step constants (h/L, h/C, h·G/C).
	steps                  []int32
	hOverL, hOverC, hCoupl []float64
	// droops is the result, all zero until a solver fills it.
	droops []float64
}

// windows returns the length of the common step grid.
func (sv *gridSupplySolve) windows() int { return len(sv.steps) }

// prepare validates the grid and the node traces and derives the
// integration's inputs. A grid without windows returns with zero droops.
func (g GridSupplyModel) prepare(nodes []PowerTrace) (*gridSupplySolve, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := g.Nodes()
	wf, err := buildGridWaveform(n, nodes)
	if err != nil {
		return nil, err
	}
	sv := &gridSupplySolve{g: g, droops: make([]float64, n)}
	if wf.windows == 0 {
		return sv, nil
	}

	s := g.Node
	// Per-node load current per window and warm-start average — the lumped
	// WorstDroopMV arithmetic, applied per node so a 1×1 grid is
	// bit-identical. Nodes whose trace carries no usable timing (empty, or
	// cycle-domain without a clock) draw nothing, matching the lumped
	// model's zero-droop answer for such traces.
	sv.load = make([][]float64, n)
	sv.iv = make([]float64, n)
	sv.vv = make([]float64, n)
	for nn, tr := range nodes {
		ld := make([]float64, wf.windows)
		avg := 0.0
		if !tr.Empty() && (tr.TimeDomain() || tr.FrequencyGHz > 0) {
			var weight float64
			if tr.TimeDomain() {
				for i, p := range tr.Points {
					ld[i] = p.PowerW / s.VddV
					d := tr.PointDurationNS(i) * 1e-9
					avg += ld[i] * d
					weight += d
				}
			} else {
				for i, p := range tr.Points {
					ld[i] = p.PowerW / s.VddV
					avg += ld[i] * float64(p.Cycles)
					weight += float64(p.Cycles)
				}
			}
			if weight == 0 {
				avg = 0
			} else {
				avg /= weight
			}
		}
		sv.load[nn] = ld
		sv.iv[nn] = avg
		sv.vv[nn] = s.VddV - avg*s.ResistanceOhm
	}

	// The common step grid, subdivided per the node model's cap and — on
	// coupled multi-node grids only, so the 1×1 step count stays exactly
	// the lumped model's — tightened to keep the explicit lateral-exchange
	// term stable (h < C / (4·G), the worst 4-neighbour case).
	maxStep := s.MaxStepS
	sv.coupled = n > 1 && g.CouplingS > 0
	if sv.coupled {
		if b := s.CapacitanceF / (4 * g.CouplingS); b < maxStep {
			maxStep = b
		}
	}
	sv.steps = make([]int32, wf.windows)
	sv.hOverL = make([]float64, wf.windows)
	sv.hOverC = make([]float64, wf.windows)
	sv.hCoupl = make([]float64, wf.windows)
	for w, dt := range wf.commonDtS {
		if dt == 0 {
			continue
		}
		k := int(dt/maxStep) + 1
		h := dt / float64(k)
		sv.steps[w] = int32(k)
		sv.hOverL[w] = h / s.InductanceH
		sv.hOverC[w] = h / s.CapacitanceF
		sv.hCoupl[w] = h / s.CapacitanceF * g.CouplingS
	}
	return sv, nil
}

// genericDroops solves the prepared grid on the generic loop: node state in
// slices, neighbours from gridNeighbors. It handles every grid shape and is
// the reference implementation of the register path.
func (sv *gridSupplySolve) genericDroops() []float64 {
	s := sv.g.Node
	n := len(sv.iv)
	iv, vv, load := sv.iv, sv.vv, sv.load
	vMin := append([]float64(nil), vv...)
	nbr := gridNeighbors(sv.g.Rows, sv.g.Cols)
	lat := make([]float64, n)
	iStart := make([]float64, n)
	vStart := make([]float64, n)

	for pass := 0; pass < s.Passes; pass++ {
		copy(iStart, iv)
		copy(vStart, vv)
		for w := 0; w < sv.windows(); w++ {
			hL, hC, hG := sv.hOverL[w], sv.hOverC[w], sv.hCoupl[w]
			for k := int32(0); k < sv.steps[w]; k++ {
				if sv.coupled {
					// Semi-implicit per node, Jacobi across nodes: all
					// currents advance from the old voltages, the lateral
					// exchange is evaluated on the old voltages, then every
					// voltage advances.
					for nn := range iv {
						iv[nn] += hL * (s.VddV - vv[nn] - s.ResistanceOhm*iv[nn])
					}
					for nn := range lat {
						sum := 0.0
						for _, m := range nbr[nn] {
							sum += vv[m] - vv[nn]
						}
						lat[nn] = sum
					}
					for nn := range vv {
						vv[nn] += hC*(iv[nn]-load[nn][w]) + hG*lat[nn]
						if vv[nn] < vMin[nn] {
							vMin[nn] = vv[nn]
						}
					}
				} else {
					// Decoupled nodes step exactly like the lumped model.
					for nn := range iv {
						iv[nn] += hL * (s.VddV - vv[nn] - s.ResistanceOhm*iv[nn])
						vv[nn] += hC * (iv[nn] - load[nn][w])
						if vv[nn] < vMin[nn] {
							vMin[nn] = vv[nn]
						}
					}
				}
			}
		}
		// Exact-state convergence: a pass ending where it started replays
		// identically, so stopping is bit-identical to running the rest.
		if gridStateEqual(iv, iStart) && gridStateEqual(vv, vStart) {
			break
		}
	}
	for nn := range sv.droops {
		sv.droops[nn] = (s.VddV - vMin[nn]) * 1000
	}
	return sv.droops
}

// WorstDroopMV returns the deepest per-node droop of the grid — the
// chip-worst supply excursion.
func (g GridSupplyModel) WorstDroopMV(nodes []PowerTrace) (float64, error) {
	droops, err := g.NodeDroopsMV(nodes)
	if err != nil {
		return 0, err
	}
	worst := droops[0]
	for _, d := range droops[1:] {
		if d > worst {
			worst = d
		}
	}
	return worst, nil
}

// GridThermalModel is the spatial die model: a Rows×Cols grid of thermal
// nodes, each a lumped RC to ambient (the Node model), with adjacent nodes
// exchanging heat through a LateralWPerC conductance. Concentrating
// sustained power on one node heats it well past the uniform-power die
// temperature — the hotspot the migration virus hunts.
type GridThermalModel struct {
	// Rows and Cols are the grid dimensions; nodes are indexed row-major.
	Rows, Cols int
	// Node is the per-node lumped thermal model. A 1×1 grid reproduces its
	// SteadyTempC exactly.
	Node ThermalModel
	// LateralWPerC is the thermal conductance between adjacent nodes in
	// W/°C. Zero decouples the nodes entirely.
	LateralWPerC float64
}

// DefaultGridThermalModel returns a rows×cols grid of the default lumped
// thermal model with the default lateral conductance.
func DefaultGridThermalModel(rows, cols int) GridThermalModel {
	return GridThermalModel{Rows: rows, Cols: cols, Node: DefaultThermalModel(), LateralWPerC: DefaultGridLateralWPerC}
}

// Nodes returns the node count of the grid.
func (g GridThermalModel) Nodes() int { return g.Rows * g.Cols }

// Validate checks the grid dimensions, the per-node model and the coupling.
func (g GridThermalModel) Validate() error {
	if g.Rows < 1 || g.Cols < 1 {
		return fmt.Errorf("powersim: grid thermal model needs at least a 1x1 grid (got %dx%d)", g.Rows, g.Cols)
	}
	if err := g.Node.Validate(); err != nil {
		return err
	}
	if !(g.LateralWPerC >= 0) || math.IsInf(g.LateralWPerC, 0) {
		return fmt.Errorf("powersim: grid thermal coupling must be finite and non-negative (got %g W/°C)", g.LateralWPerC)
	}
	return nil
}

// NodeTempsC integrates the grid driven by the per-node traces (row-major;
// empty traces are idle nodes that still conduct their neighbours' heat)
// and returns each node's peak steady-state temperature in °C. On a 1×1
// grid the result matches the lumped ThermalModel.SteadyTempC exactly.
func (g GridThermalModel) NodeTempsC(nodes []PowerTrace) ([]float64, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := g.Nodes()
	wf, err := buildGridWaveform(n, nodes)
	if err != nil {
		return nil, err
	}
	m := g.Node
	temps := make([]float64, n)
	for nn := range temps {
		temps[nn] = m.AmbientC
	}
	if wf.windows == 0 {
		return temps, nil
	}

	// Per-node window power and warm start at each node's own
	// average-power operating point — the lumped SteadyTempC arithmetic per
	// node, so a 1×1 grid is bit-identical.
	powerW := make([][]float64, n)
	tMax := make([]float64, n)
	for nn, tr := range nodes {
		pw := make([]float64, wf.windows)
		avg := 0.0
		if !tr.Empty() && (tr.TimeDomain() || tr.FrequencyGHz > 0) {
			for i, p := range tr.Points {
				pw[i] = p.PowerW
			}
			avg = tr.AvgPowerW()
		}
		powerW[nn] = pw
		temps[nn] = m.AmbientC + m.RthCPerW*avg
		tMax[nn] = temps[nn]
	}

	// Step cap, tightened on coupled multi-node grids only (forward Euler
	// needs h < Cth / (1/Rth + 4·K) against the fastest combined leak); the
	// 1×1 step count stays exactly the lumped model's.
	maxStep := m.MaxStepS
	coupled := n > 1 && g.LateralWPerC > 0
	if coupled {
		if b := m.CthJPerC / (1/m.RthCPerW + 4*g.LateralWPerC); b < maxStep {
			maxStep = b
		}
	}

	nbr := gridNeighbors(g.Rows, g.Cols)
	lat := make([]float64, n)
	gain := make([]float64, n)
	tStart := make([]float64, n)

	for pass := 0; pass < m.Passes; pass++ {
		copy(tStart, temps)
		for w := 0; w < wf.windows; w++ {
			dt := wf.commonDtS[w]
			if dt == 0 {
				continue
			}
			steps := int(dt/maxStep) + 1
			h := dt / float64(steps)
			// Distribute the step over the RC terms once per window so the
			// inner loop carries no divisions (the lumped model's folding).
			for nn := range gain {
				gain[nn] = h / m.CthJPerC * powerW[nn][w]
			}
			leak := h / (m.CthJPerC * m.RthCPerW)
			hK := h / m.CthJPerC * g.LateralWPerC
			for k := 0; k < steps; k++ {
				if coupled {
					for nn := range lat {
						sum := 0.0
						for _, mm := range nbr[nn] {
							sum += temps[mm] - temps[nn]
						}
						lat[nn] = sum
					}
					for nn := range temps {
						temps[nn] += gain[nn] - leak*(temps[nn]-m.AmbientC) + hK*lat[nn]
						if temps[nn] > tMax[nn] {
							tMax[nn] = temps[nn]
						}
					}
				} else {
					for nn := range temps {
						temps[nn] += gain[nn] - leak*(temps[nn]-m.AmbientC)
						if temps[nn] > tMax[nn] {
							tMax[nn] = temps[nn]
						}
					}
				}
			}
		}
		// Exact-state convergence, as in the lumped model.
		if gridStateEqual(temps, tStart) {
			break
		}
	}
	return tMax, nil
}

// MaxTempC returns the hottest per-node peak temperature of the grid — the
// chip hotspot temperature.
func (g GridThermalModel) MaxTempC(nodes []PowerTrace) (float64, error) {
	temps, err := g.NodeTempsC(nodes)
	if err != nil {
		return 0, err
	}
	hottest := temps[0]
	for _, t := range temps[1:] {
		if t > hottest {
			hottest = t
		}
	}
	return hottest, nil
}

// gridWaveform is the common timing grid the per-node integrations advance
// on: the window count (the longest node trace) and, per window, the common
// step duration — the max across nodes of each node's own window span, so
// no node's windows are artificially sharpened and all nodes stay in
// lockstep for the coupling terms. On a one-node grid this is exactly the
// node trace's own timing.
type gridWaveform struct {
	windows   int
	commonDtS []float64
}

// buildGridWaveform validates the node-trace count and derives the common
// step grid. Node traces may be empty (idle regions) and may mix domains;
// each contributes its own per-window span through the same domain
// arithmetic the lumped models use.
func buildGridWaveform(n int, nodes []PowerTrace) (gridWaveform, error) {
	if len(nodes) != n {
		return gridWaveform{}, fmt.Errorf("powersim: %d node traces for a %d-node grid", len(nodes), n)
	}
	windows := 0
	for _, tr := range nodes {
		if len(tr.Points) > windows {
			windows = len(tr.Points)
		}
	}
	wf := gridWaveform{windows: windows, commonDtS: make([]float64, windows)}
	for _, tr := range nodes {
		if tr.Empty() {
			continue
		}
		if tr.TimeDomain() {
			for i := range tr.Points {
				if d := tr.PointDurationNS(i) * 1e-9; d > wf.commonDtS[i] {
					wf.commonDtS[i] = d
				}
			}
		} else if tr.FrequencyGHz > 0 {
			cycleS := 1 / (tr.FrequencyGHz * 1e9)
			for i, p := range tr.Points {
				if d := float64(p.Cycles) * cycleS; d > wf.commonDtS[i] {
					wf.commonDtS[i] = d
				}
			}
		}
	}
	return wf, nil
}

// gridNeighbors returns, for each node of a rows×cols row-major grid, the
// indices of its 4-connected neighbours (up, down, left, right; in-bounds
// only).
func gridNeighbors(rows, cols int) [][]int {
	nbr := make([][]int, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			n := r*cols + c
			if r > 0 {
				nbr[n] = append(nbr[n], n-cols)
			}
			if r < rows-1 {
				nbr[n] = append(nbr[n], n+cols)
			}
			if c > 0 {
				nbr[n] = append(nbr[n], n-1)
			}
			if c < cols-1 {
				nbr[n] = append(nbr[n], n+1)
			}
		}
	}
	return nbr
}

// gridStateEqual reports exact (bitwise value) equality of two state
// vectors — the grid version of the lumped models' exact-convergence check.
func gridStateEqual(a, b []float64) bool {
	for i := range a {
		//lint:allow floateq deliberate bitwise convergence check; inexact tolerance would change results
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
