package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
)

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// midMean is the mean of the middle half of xs: it drops the lowest and
// the highest quarter (whole samples, rounded down), so a unit slowed by a
// burst of load on the host moves it little, and it averages more samples
// than the median does.
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 4
	total := 0.0
	for _, x := range s[k : len(s)-k] {
		total += x
	}
	return total / float64(len(s)-2*k)
}

// quantileNS is quantile over nanosecond samples.
func quantileNS(xs []int64, q float64) float64 {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return quantile(fs, q)
}

// tailQuantile is the highest of p90, p99 and p999 that leaves at least ten
// samples beyond it, or 0.5 when no tail percentile does.
func tailQuantile(n int) float64 {
	best := 0.5
	for _, q := range []float64{0.9, 0.99, 0.999} {
		if float64(n)*(1-q) >= 10 {
			best = q
		}
	}
	return best
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// digest accumulates a result digest: strings, integers and exact float
// bits, each length- or width-delimited.
type digest struct{ h [32]byte }

func (d *digest) add(parts ...any) {
	hs := sha256.New()
	hs.Write(d.h[:])
	var buf [8]byte
	for _, p := range parts {
		switch v := p.(type) {
		case string:
			binary.LittleEndian.PutUint64(buf[:], uint64(len(v)))
			hs.Write(buf[:])
			hs.Write([]byte(v))
		case int:
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			hs.Write(buf[:])
		case uint64:
			binary.LittleEndian.PutUint64(buf[:], v)
			hs.Write(buf[:])
		case int64:
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			hs.Write(buf[:])
		case float64:
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			hs.Write(buf[:])
		default:
			panic("digest: unsupported part type")
		}
	}
	copy(d.h[:], hs.Sum(nil))
}

func (d *digest) String() string { return hex.EncodeToString(d.h[:8]) }
