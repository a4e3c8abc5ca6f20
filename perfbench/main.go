// Command perfbench is the repository's benchmark: it runs one named
// workload through the program's public entry points for a fixed time,
// checks that every result matches the committed reference digest, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer metrics
// timed from outside the program) as the last line of standard output:
//
//	perfbench --workload spatial-halving --seed 1 --seconds 45 --trace 0
//
// See README.md for the workloads, the metrics and how to make a claim.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"
)

// benchDir is the benchmark's directory, relative to the repository root
// the benchmark runs from.
const benchDir = "perfbench"

// A run builds its stack at least minSetupReps times and until setupBudget
// has passed, at most maxSetupReps times; setup_s is the median, and the
// last stack built is the one measured. Short set-ups (tens of
// milliseconds) need many repetitions for a steady median.
const (
	minSetupReps = 3
	maxSetupReps = 200
	setupBudget  = time.Second
)

// hardLimit stops a run's measuring well inside the 180 s a run may take.
const hardLimit = 120 * time.Second

// options are one invocation's settings.
type options struct {
	workload string
	// seed generates the load: the order in which a unit submits its jobs.
	seed int64
	// programSeed is the tuning and kernel-generation seed of every job
	// (the program's own -seed).
	programSeed int64
	seconds     float64
	trace       bool
	// parallel overrides the chip's core fan-out (spatial-halving only);
	// the self-test sets it.
	parallel int
	// tiny shrinks every job to the self-test's budget.
	tiny bool
	// record measures without a committed reference, to re-record it.
	record bool
}

// unit is one measured unit of work: a tuning run, or one set of daemon
// jobs.
type unit struct {
	wall     float64
	firstRow float64
	// digest covers the unit's results and counts; every unit of a run
	// must reproduce the first unit's.
	digest string
	counts counts
	// covered is the part of the wall inside the outermost program span
	// timed from outside (in stress runs, traced units only).
	covered float64
	// problem, when set, is a wrong result the unit still measured.
	problem   string
	queueWait []float64
	// jobs holds each daemon job's submit-to-end latency.
	jobs    []float64
	quality map[string]float64
	probe   *probe
}

// counts are the deterministic per-unit counters; every unit repeats them
// exactly, and they are part of the digest.
type counts struct {
	Lookups     uint64 `json:"lookups"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Entries     int    `json:"entries"`
	SynthHits   uint64 `json:"synth_hits"`
	SynthMisses uint64 `json:"synth_misses"`
	// Proposed counts candidate evaluations, cache hits included.
	Proposed  int   `json:"proposed"`
	Epochs    int   `json:"epochs"`
	SimInstrs int64 `json:"sim_instructions"`
	Rows      int   `json:"rows"`
}

func (c counts) addTo(d *digest) {
	d.add(c.Lookups, c.Hits, c.Misses, c.Entries, c.SynthHits, c.SynthMisses,
		c.Proposed, c.Epochs, c.SimInstrs, c.Rows)
}

// bench is one workload.
type bench interface {
	// setup builds the stack the units run on.
	setup() error
	// run executes unit i of a measured phase under the given probe.
	run(i int, pr *probe) (unit, error)
	// layers adds the per-layer metrics of the traced units to out.
	layers(traced []unit, out map[string]float64) error
}

// workload describes one named workload.
type workload struct {
	name string
	make func(options) bench
}

// benches lists the workloads; README.md says why each exists.
var benches = []workload{
	{"spatial-halving", newSpatialHalving},
	{"serve-cold", newServeCold},
}

// metricUnits gives every reported metric its unit.
var metricUnits = map[string]string{
	"setup_s":          "s",
	"wall_s":           "s",
	"evals_per_s":      "1/s",
	"sim_minstr_per_s": "Minstr/s",
	"first_row_s":      "s",

	"cpusim.ns_per_instr":             "ns/instr",
	"cpusim.instructions":             "count",
	"cpusim.cycles":                   "count",
	"powersim.lumped_ns_per_eval":     "ns",
	"powersim.grid_ns_per_eval":       "ns",
	"multicore.aggregate_ns_per_eval": "ns",
	"microprobe.synth_hits":           "count",
	"microprobe.synth_misses":         "count",
	"microprobe.synth_ns_p50":         "ns",
	"tuner.self_s":                    "s",
	"tuner.proposed":                  "count",
	"tuner.epochs":                    "count",
	"evalcache.get_ns_p50":            "ns",
	"evalcache.put_ns_p50":            "ns",
	"evalcache.lookups":               "count",
	"evalcache.hits":                  "count",
	"evalcache.misses":                "count",
	"evalcache.entries":               "count",
	"evalcache.hit_ratio":             "ratio",
	"platform.key_ns_p50":             "ns",
	"platform.eval_ns_p50":            "ns",
	"platform.eval_ns_p99":            "ns",
	"sched.busy_frac":                 "ratio",
	"serve.queue_wait_s":              "s",
	"serve.rows_streamed":             "count",
	"trace.coverage":                  "ratio",
	"trace.uncovered_s":               "s",
	"trace.overhead_frac":             "ratio",
}

// endToEnd lists the metrics of an untraced run; every other metric in
// metricUnits is reported by a traced run.
var endToEnd = []string{"setup_s", "wall_s", "evals_per_s", "sim_minstr_per_s", "first_row_s"}

// outcome is what a run prints.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]float64
	detail    map[string]any
	// result is the run's deterministic result.
	result reference
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func main() {
	var o options
	var selftest, rec bool
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run (spatial-halving, serve-cold)")
	flag.Int64Var(&o.seed, "seed", 1, "load seed: orders each unit's job submissions")
	flag.Int64Var(&o.programSeed, "program-seed", 1, "tuning and kernel-generation seed of every job (change it for a held-out claim)")
	flag.Float64Var(&o.seconds, "seconds", 15, "seconds to measure")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.BoolVar(&selftest, "selftest", false, "run every workload at the tiny budget and check the benchmark itself")
	flag.BoolVar(&rec, "record", false, "re-record "+expectedPath+" from the current program")
	flag.Parse()
	o.trace = trace == 1
	if selftest || rec {
		do, name := runSelftest, "selftest"
		if rec {
			do, name = record, "record"
		}
		if err := do(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("perfbench %s: ok\n", name)
		return
	}
	if trace != 0 && trace != 1 || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace takes 0 or 1 and --seconds must be positive")
		os.Exit(2)
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root")
		os.Exit(2)
	}
	out, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, o, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func findWorkload(name string) (workload, error) {
	for _, w := range benches {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(benches))
	for i, w := range benches {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// run sets the workload up several times, measures it for the requested
// time and, when tracing, measures it again under the probes.
func run(o options) (*outcome, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	var ref *reference
	if !o.record {
		if ref, err = committed(o); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	var b bench
	var setups []float64
	spent := 0.0
	for len(setups) < minSetupReps || spent < setupBudget.Seconds() && len(setups) < maxSetupReps {
		b = w.make(o)
		runtime.GC()
		t0 := time.Now()
		if err := b.setup(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[len(setups)-1]
	}
	out := &outcome{metrics: make(map[string]float64), detail: make(map[string]any)}
	var plain, traced []unit
	for _, u := range measure(b, o.trace, o.seconds, start, ref, out) {
		if u.probe.tracing {
			traced = append(traced, u)
		} else {
			plain = append(plain, u)
		}
	}
	if len(plain) == 0 || o.trace && len(traced) == 0 {
		return nil, fmt.Errorf("%s: too few units completed: %v", w.name, out.problems)
	}
	e2e := map[string]float64{"setup_s": median(setups)}
	// Peak RSS moves with garbage-collection timing, so it is reported but
	// not bounded.
	out.detail["peak_rss_mb"] = peakRSSMB()
	var walls, firsts []float64
	var proposed, instrs float64
	for _, u := range plain {
		walls = append(walls, u.wall)
		firsts = append(firsts, u.firstRow)
		proposed += float64(u.counts.Proposed)
		instrs += float64(u.counts.SimInstrs)
	}
	total := 0.0
	for _, x := range walls {
		total += x
	}
	e2e["wall_s"] = midMean(walls)
	e2e["first_row_s"] = midMean(firsts)
	e2e["evals_per_s"] = proposed / total
	e2e["sim_minstr_per_s"] = instrs / total / 1e6
	out.detail["unit_wall_s"] = map[string]float64{
		"p25": quantile(walls, 0.25), "p50": median(walls), "p75": quantile(walls, 0.75),
	}
	out.detail["units"] = len(plain)
	out.detail["setups"] = len(setups)
	out.result = reference{Digest: plain[0].digest, Counts: plain[0].counts, Quality: plain[0].quality}
	out.detail["result"] = &out.result
	if ref == nil {
		out.detail["reference"] = "first unit (no committed result at this program seed)"
	} else {
		out.detail["reference"] = expectedPath
	}
	var jobs []float64
	for _, u := range plain {
		jobs = append(jobs, u.jobs...)
	}
	if len(jobs) > 0 {
		tq := tailQuantile(len(jobs))
		out.detail["job_latency"] = map[string]any{
			"samples": len(jobs), "p50_s": median(jobs),
			"tail_quantile": tq, "tail_s": quantile(jobs, tq),
		}
	}
	out.detail["end_to_end"] = e2e
	if !o.trace {
		out.metrics = e2e
		return out, nil
	}

	if err := commonLayers(plain, traced, out.metrics); err != nil {
		return nil, err
	}
	out.attempted++ // the replay and mirror checks count as one operation
	if err := b.layers(traced, out.metrics); err != nil {
		out.fail("%s layers: %v", w.name, err)
		return out, nil
	}
	out.result.Instructions = uint64(out.metrics["cpusim.instructions"])
	out.result.Cycles = uint64(out.metrics["cpusim.cycles"])
	if ref != nil {
		if err := checkSimulated(&out.result, ref); err != nil {
			out.fail("%s: %v", w.name, err)
		}
	}
	return out, nil
}

// measure runs an untraced warm-up unit, then units until the time is up
// (at least two of each kind), comparing each digest with the committed
// reference, or without one with the first unit's. It returns the timed
// units; the warm-up unit is checked but not timed. Each unit starts
// after a garbage collection, so none pays for its predecessor's garbage.
// When tracing, every other unit runs under a tracing probe, so traced and
// untraced units see the same conditions.
func measure(b bench, tracing bool, seconds float64, start time.Time, committed *reference, out *outcome) []unit {
	var units []unit
	ref := ""
	if committed != nil {
		ref = committed.Digest
	}
	minUnits := 2
	if tracing {
		minUnits = 4
	}
	var deadline time.Time
	errs := 0
	for i := 0; len(units) < minUnits || time.Now().Before(deadline); i++ {
		if time.Since(start) > hardLimit || errs > 2 {
			break
		}
		if i == 1 {
			deadline = time.Now().Add(time.Duration(seconds * float64(time.Second)))
		}
		pr := newProbe(tracing && i%2 == 0 && i > 0)
		out.attempted++
		runtime.GC()
		u, err := b.run(i, pr)
		if err != nil {
			errs++
			out.fail("unit %d: %v", i, err)
			continue
		}
		u.probe = pr
		switch {
		case u.problem != "":
			out.fail("unit %d: %s", i, u.problem)
		case ref == "":
			ref = u.digest
		case u.digest != ref && committed != nil:
			out.fail("unit %d: digest %s, committed %s (counts %+v, committed %+v; quality %v, committed %v)",
				i, u.digest, ref, u.counts, committed.Counts, u.quality, committed.Quality)
		case u.digest != ref:
			out.fail("unit %d: digest %s, reference %s", i, u.digest, ref)
		}
		if i > 0 {
			units = append(units, u)
		}
	}
	return units
}

// commonLayers fills the per-layer metrics every workload derives the same
// way from its units.
func commonLayers(plain, traced []unit, m map[string]float64) error {
	var pw, tw, cov, unc, waits []float64
	var getNS, putNS []int64
	for _, u := range plain {
		pw = append(pw, u.wall)
	}
	for _, u := range traced {
		tw = append(tw, u.wall)
		cov = append(cov, u.covered/u.wall)
		unc = append(unc, u.wall-u.covered)
		waits = append(waits, u.queueWait...)
		getNS = append(getNS, u.probe.getNS...)
		putNS = append(putNS, u.probe.putNS...)
	}
	c := traced[0].counts
	m["trace.overhead_frac"] = median(tw)/median(pw) - 1
	m["trace.coverage"] = median(cov)
	m["trace.uncovered_s"] = median(unc)
	m["evalcache.get_ns_p50"] = quantileNS(getNS, 0.5)
	m["evalcache.put_ns_p50"] = quantileNS(putNS, 0.5)
	m["evalcache.lookups"] = float64(c.Lookups)
	m["evalcache.hits"] = float64(c.Hits)
	m["evalcache.misses"] = float64(c.Misses)
	m["evalcache.entries"] = float64(c.Entries)
	m["evalcache.hit_ratio"] = ratio(float64(c.Hits), float64(c.Lookups))
	m["serve.queue_wait_s"] = median(waits)
	m["serve.rows_streamed"] = float64(c.Rows)
	if c.Lookups != c.Hits+c.Misses {
		return fmt.Errorf("cache lookups %d != hits %d + misses %d", c.Lookups, c.Hits, c.Misses)
	}
	return nil
}

// printResult prints the host fingerprint and the run's detail, then the result
// line the benchmark contract specifies.
func printResult(f *os.File, o options, out *outcome) error {
	names := endToEnd
	if o.trace {
		names = perLayer()
	}
	metrics := make(map[string]any, len(names))
	for _, name := range names {
		v, ok := out.metrics[name]
		if !ok && out.failed == 0 {
			return fmt.Errorf("metric %s was not measured", name)
		}
		// A failed check can leave later layers unmeasured; the result
		// line then says correct: false and the layer reads 0.
		metrics[name] = map[string]any{"value": v, "unit": metricUnits[name]}
	}
	out.detail["host"] = fingerprint(".")
	out.detail["workload"] = o.workload
	out.detail["seed"] = o.seed
	out.detail["program_seed"] = o.programSeed
	if len(out.problems) > 0 {
		out.detail["problems"] = out.problems
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"detail": out.detail}); err != nil {
		return err
	}
	return enc.Encode(map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// order returns the seed's submission order for unit i: 0 runs the first
// job first, 1 the second.
func order(seed int64, i int) int {
	return rand.New(rand.NewSource(seed*7919 + int64(i))).Intn(2)
}
