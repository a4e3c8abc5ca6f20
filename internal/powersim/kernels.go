package powersim

import "math"

// Register-resident supply kernels. One lumped or grid supply integration is
// a serial chain of dependent floating-point updates, so its cost is the
// latency of that chain, not the arithmetic. The kernels below keep the
// integration state in local variables, where the compiler can hold it in
// registers, and advance independent chains side by side so their latencies
// overlap. Every update is written with the terms, the operand order and the
// association of the reference loops (SupplyModel.WorstDroopMV and the
// generic GridSupplyModel loop), so the results are bit-identical; the
// oracle tests and FuzzSupplyKernelOracle compare them by math.Float64bits.

// supplyLane is one trace prepared for the lumped supply integration: the
// per-window load current, step count and folded step constants (h/L, h/C —
// no divisions left in the integration loop), and the warm-start current.
type supplyLane struct {
	load, hOverL, hOverC []float64
	steps                []int32
	avg                  float64
}

// lane prepares t for the lumped integration, carving its tables from the
// front of f (3·len(t.Points) values) and st (len(t.Points) values), which
// must be zeroed. Cycle-domain traces keep the historical cycle arithmetic
// bit for bit; time-domain traces (mixed-frequency chip aggregates) carry
// their timing per point. ok is false when the droop is zero without
// integrating: an empty trace, a cycle-domain trace without a clock, or a
// trace of zero total duration.
func (s SupplyModel) lane(t PowerTrace, f []float64, st []int32) (l supplyLane, ok bool) {
	if t.Empty() || (!t.TimeDomain() && t.FrequencyGHz <= 0) {
		return supplyLane{}, false
	}
	n := len(t.Points)
	l = supplyLane{load: f[:n:n], hOverL: f[n : 2*n : 2*n], hOverC: f[2*n : 3*n : 3*n], steps: st[:n:n]}
	timeDomain := t.TimeDomain()
	cycleS := 0.0
	if !timeDomain {
		cycleS = 1 / (t.FrequencyGHz * 1e9)
	}
	avg, weight := 0.0, 0.0
	for i, p := range t.Points {
		ld := p.PowerW / s.VddV
		l.load[i] = ld
		var dt float64
		if timeDomain {
			dt = t.PointDurationNS(i) * 1e-9
			avg += ld * dt
			weight += dt
		} else {
			dt = float64(p.Cycles) * cycleS
			avg += ld * float64(p.Cycles)
			weight += float64(p.Cycles)
		}
		if dt == 0 {
			continue
		}
		k := int(dt/s.MaxStepS) + 1
		h := dt / float64(k)
		l.steps[i] = int32(k)
		l.hOverL[i] = h / s.InductanceH
		l.hOverC[i] = h / s.CapacitanceF
	}
	if weight == 0 {
		return supplyLane{}, false
	}
	l.avg = avg / weight
	return l, true
}

// droop runs the lumped integration of one prepared lane: the scalar pass
// loop of WorstDroopMV, stopping once a pass ends in the state it started
// from.
func (s SupplyModel) droop(l *supplyLane) float64 {
	// Warm start at the average-current operating point.
	i := l.avg
	v := s.VddV - l.avg*s.ResistanceOhm
	vMin := v
	for pass := 0; pass < s.Passes; pass++ {
		iStart, vStart := i, v
		i, v, vMin = s.laneTail(l, 0, i, v, vMin)
		// Once a pass ends in exactly the state it started from, every
		// further pass replays the identical trajectory: stop early. The
		// comparison is exact, so the result is bit-identical to running
		// all remaining passes.
		//lint:allow floateq deliberate exact-state convergence check; stopping is bit-identical
		if i == iStart && v == vStart {
			break
		}
	}
	return (s.VddV - vMin) * 1000
}

// WorstDroopsMV returns WorstDroopMV of every trace, bit for bit, in trace
// order. The traces are integrated four at a time in lockstep (see droops4).
// A lone remaining trace, and a group whose lanes share a step schedule over
// less than half of their longest trace (cores at different clocks), take
// the scalar pass loop per trace instead: lockstep would gain nothing there.
func (s SupplyModel) WorstDroopsMV(traces []PowerTrace) []float64 {
	out := make([]float64, len(traces))
	total := 0
	for _, t := range traces {
		total += len(t.Points)
	}
	f := make([]float64, 3*total)
	st := make([]int32, total)
	lanes := make([]supplyLane, 0, len(traces))
	idx := make([]int, 0, len(traces))
	off := 0
	for i, t := range traces {
		if l, ok := s.lane(t, f[3*off:], st[off:]); ok {
			lanes = append(lanes, l)
			idx = append(idx, i)
		}
		off += len(t.Points)
	}
	for len(lanes) > 0 {
		m := min(4, len(lanes))
		var group [4]supplyLane
		copy(group[:], lanes[:m])
		for j := m; j < 4; j++ {
			group[j] = group[0] // padding: a replay of lane 0, discarded
		}
		longest := 0
		for j := 0; j < m; j++ {
			longest = max(longest, len(group[j].load))
		}
		common := 0
		if m > 1 {
			common = sharedWindows(&group)
		}
		if 2*common < longest {
			for j := 0; j < m; j++ {
				out[idx[j]] = s.droop(&group[j])
			}
		} else {
			d := s.droops4(&group, common)
			for j := 0; j < m; j++ {
				out[idx[j]] = d[j]
			}
		}
		lanes, idx = lanes[m:], idx[m:]
	}
	return out
}

// sharedWindows returns how many leading windows the four lanes integrate on
// one schedule: the same step count and bitwise the same step constants.
func sharedWindows(l *[4]supplyLane) int {
	common := min(len(l[0].load), len(l[1].load), len(l[2].load), len(l[3].load))
	a := &l[0]
	for n := 0; n < common; n++ {
		for j := 1; j < 4; j++ {
			b := &l[j]
			if b.steps[n] != a.steps[n] ||
				math.Float64bits(b.hOverL[n]) != math.Float64bits(a.hOverL[n]) ||
				math.Float64bits(b.hOverC[n]) != math.Float64bits(a.hOverC[n]) {
				return n
			}
		}
	}
	return common
}

// droops4 integrates four lumped lanes in lockstep and returns each lane's
// WorstDroopMV. Over the first common windows, on which the lanes share a
// schedule (the 64-cycle windows of a one-clock chip's cores), the four
// chains advance together with their i, v and vMin in locals; each lane then
// finishes its own remaining windows (the partial last window, the windows
// one core ran longer) alone.
//
// The scalar loop stops a lane once a pass ends in the state it started
// from. Here the passes run until every lane has converged or Passes is
// reached, so a converged lane may keep running. That is exact: its next
// pass starts where the last one did and replays it value for value, so no
// new minimum appears and vMin, the only output, is unchanged.
func (s SupplyModel) droops4(l *[4]supplyLane, common int) [4]float64 {
	steps := l[0].steps[:common]
	hLs := l[0].hOverL[:common]
	hCs := l[0].hOverC[:common]
	ld0 := l[0].load[:common]
	ld1 := l[1].load[:common]
	ld2 := l[2].load[:common]
	ld3 := l[3].load[:common]
	vdd, r := s.VddV, s.ResistanceOhm

	// Warm start at each lane's average-current operating point.
	i0, i1, i2, i3 := l[0].avg, l[1].avg, l[2].avg, l[3].avg
	v0 := vdd - i0*r
	v1 := vdd - i1*r
	v2 := vdd - i2*r
	v3 := vdd - i3*r
	m0, m1, m2, m3 := v0, v1, v2, v3

	for pass := 0; pass < s.Passes; pass++ {
		start := [8]float64{i0, i1, i2, i3, v0, v1, v2, v3}
		for n, k := range steps {
			hL, hC := hLs[n], hCs[n]
			a0, a1, a2, a3 := ld0[n], ld1[n], ld2[n], ld3[n]
			for ; k > 0; k-- {
				i0 += hL * (vdd - v0 - r*i0)
				i1 += hL * (vdd - v1 - r*i1)
				i2 += hL * (vdd - v2 - r*i2)
				i3 += hL * (vdd - v3 - r*i3)
				v0 += hC * (i0 - a0)
				v1 += hC * (i1 - a1)
				v2 += hC * (i2 - a2)
				v3 += hC * (i3 - a3)
				if v0 < m0 {
					m0 = v0
				}
				if v1 < m1 {
					m1 = v1
				}
				if v2 < m2 {
					m2 = v2
				}
				if v3 < m3 {
					m3 = v3
				}
			}
		}
		i0, v0, m0 = s.laneTail(&l[0], common, i0, v0, m0)
		i1, v1, m1 = s.laneTail(&l[1], common, i1, v1, m1)
		i2, v2, m2 = s.laneTail(&l[2], common, i2, v2, m2)
		i3, v3, m3 = s.laneTail(&l[3], common, i3, v3, m3)
		end := [8]float64{i0, i1, i2, i3, v0, v1, v2, v3}
		if gridStateEqual(start[:], end[:]) {
			break
		}
	}
	return [4]float64{(vdd - m0) * 1000, (vdd - m1) * 1000, (vdd - m2) * 1000, (vdd - m3) * 1000}
}

// laneTail integrates one lane's windows from window from to its end, with
// the scalar update: a whole pass of the scalar loop (from = 0), or the
// windows a lane of droops4 does not share with the others.
func (s SupplyModel) laneTail(l *supplyLane, from int, i, v, vMin float64) (float64, float64, float64) {
	for n := from; n < len(l.load); n++ {
		hL, hC, ld := l.hOverL[n], l.hOverC[n], l.load[n]
		for k := int32(0); k < l.steps[n]; k++ {
			i += hL * (s.VddV - v - s.ResistanceOhm*i)
			v += hC * (i - ld)
			if v < vMin {
				vMin = v
			}
		}
	}
	return i, v, vMin
}

// registerDroops solves a prepared coupled 2×2 grid — the grid of every
// chip of three or four cores — with the generic loop unrolled over the
// nodes and their state in locals. The lateral sums add each node's
// neighbours in gridNeighbors order (down or up first, then right or left)
// onto 0.0, exactly as the generic loop does.
func (sv *gridSupplySolve) registerDroops() []float64 {
	s := sv.g.Node
	vdd, r := s.VddV, s.ResistanceOhm
	w := sv.windows()
	steps, hLs, hCs, hGs := sv.steps[:w], sv.hOverL[:w], sv.hOverC[:w], sv.hCoupl[:w]
	ld0, ld1, ld2, ld3 := sv.load[0][:w], sv.load[1][:w], sv.load[2][:w], sv.load[3][:w]
	i0, i1, i2, i3 := sv.iv[0], sv.iv[1], sv.iv[2], sv.iv[3]
	v0, v1, v2, v3 := sv.vv[0], sv.vv[1], sv.vv[2], sv.vv[3]
	m0, m1, m2, m3 := v0, v1, v2, v3
	for pass := 0; pass < s.Passes; pass++ {
		start := [8]float64{i0, i1, i2, i3, v0, v1, v2, v3}
		for n, k := range steps {
			hL, hC, hG := hLs[n], hCs[n], hGs[n]
			a0, a1, a2, a3 := ld0[n], ld1[n], ld2[n], ld3[n]
			for ; k > 0; k-- {
				i0 += hL * (vdd - v0 - r*i0)
				i1 += hL * (vdd - v1 - r*i1)
				i2 += hL * (vdd - v2 - r*i2)
				i3 += hL * (vdd - v3 - r*i3)
				l0 := 0.0 + (v2 - v0) + (v1 - v0)
				l1 := 0.0 + (v3 - v1) + (v0 - v1)
				l2 := 0.0 + (v0 - v2) + (v3 - v2)
				l3 := 0.0 + (v1 - v3) + (v2 - v3)
				v0 += hC*(i0-a0) + hG*l0
				v1 += hC*(i1-a1) + hG*l1
				v2 += hC*(i2-a2) + hG*l2
				v3 += hC*(i3-a3) + hG*l3
				if v0 < m0 {
					m0 = v0
				}
				if v1 < m1 {
					m1 = v1
				}
				if v2 < m2 {
					m2 = v2
				}
				if v3 < m3 {
					m3 = v3
				}
			}
		}
		end := [8]float64{i0, i1, i2, i3, v0, v1, v2, v3}
		if gridStateEqual(start[:], end[:]) {
			break
		}
	}
	sv.droops[0] = (vdd - m0) * 1000
	sv.droops[1] = (vdd - m1) * 1000
	sv.droops[2] = (vdd - m2) * 1000
	sv.droops[3] = (vdd - m3) * 1000
	return sv.droops
}
