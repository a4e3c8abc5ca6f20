package platform_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
	"micrograd/internal/microprobe"
	"micrograd/internal/multicore"
	"micrograd/internal/platform"
	"micrograd/internal/program"
)

const (
	reqLoopSize = 200
	reqInstr    = 2000
	reqSeed     = int64(7)
)

func reqKernel(t *testing.T, name string, cfg knobs.Config) *program.Program {
	t.Helper()
	syn := microprobe.NewSynthesizer(microprobe.Options{LoopSize: reqLoopSize, Seed: reqSeed})
	p, err := syn.Synthesize(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func reqSinglePlatform(t *testing.T) *platform.SimPlatform {
	t.Helper()
	plat, err := platform.NewSimPlatform(platform.Small())
	if err != nil {
		t.Fatal(err)
	}
	return plat
}

func reqCoRunPlatform(t *testing.T) *multicore.CoRunPlatform {
	t.Helper()
	c, err := multicore.New(multicore.Homogeneous(platform.Small(), 2), 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEvalRequestMatrix checks every detail level on both platform shapes,
// with and without clock overrides, against the legacy methods: the request
// path must be bit-identical to what the deprecated entry points produce.
func TestEvalRequestMatrix(t *testing.T) {
	cfg := knobs.StressSpace().MidConfig()
	opts := platform.EvalOptions{DynamicInstructions: reqInstr, Seed: reqSeed}
	powerOpts := opts
	powerOpts.CollectPower = true

	t.Run("single", func(t *testing.T) {
		p := reqKernel(t, "req-single", cfg)
		for _, freq := range []float64{0, 1.5} {
			for _, detail := range []platform.EvalDetail{platform.DetailMetrics, platform.DetailTrace, platform.DetailResult} {
				name := fmt.Sprintf("%s-freq%g", detail, freq)
				t.Run(name, func(t *testing.T) {
					req := platform.EvalRequest{Programs: []*program.Program{p}, Options: powerOpts, Detail: detail}
					legacyOpts := powerOpts
					if freq > 0 {
						req.FreqOverrides = []float64{freq}
						legacyOpts.FrequencyGHz = freq
					}
					resp, err := reqSinglePlatform(t).EvaluateRequest(req)
					if err != nil {
						t.Fatal(err)
					}

					legacy := reqSinglePlatform(t)
					wantV, wantRes, err := legacy.EvaluateDetailed(p, legacyOpts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(resp.Metrics, wantV) {
						t.Errorf("metrics diverge from EvaluateDetailed:\n got %v\nwant %v", resp.Metrics, wantV)
					}
					if detail >= platform.DetailTrace {
						if !reflect.DeepEqual(resp.Trace, legacy.PowerTrace(wantRes)) {
							t.Error("trace diverges from EvaluateDetailed+PowerTrace")
						}
					} else if len(resp.Trace.Points) != 0 {
						t.Error("metrics-only response carries a trace")
					}
					if detail >= platform.DetailResult {
						if len(resp.Results) != 1 {
							t.Fatalf("want 1 result, got %d", len(resp.Results))
						}
						if resp.Results[0].Cycles != wantRes.Cycles || resp.Results[0].Instructions != wantRes.Instructions {
							t.Error("raw result diverges from EvaluateDetailed")
						}
					} else if resp.Results != nil {
						t.Error("low-detail response carries raw results")
					}
				})
			}
		}
	})

	t.Run("corun", func(t *testing.T) {
		progs := []*program.Program{
			reqKernel(t, "req-core0", cfg),
			reqKernel(t, "req-core1", cfg),
		}
		for _, freqs := range [][]float64{nil, {1.2, 1.8}} {
			for _, detail := range []platform.EvalDetail{platform.DetailMetrics, platform.DetailTrace, platform.DetailResult} {
				name := fmt.Sprintf("%s-freqs%v", detail, freqs != nil)
				t.Run(name, func(t *testing.T) {
					resp, err := reqCoRunPlatform(t).EvaluateRequest(platform.EvalRequest{
						Programs: progs, FreqOverrides: freqs, Options: powerOpts, Detail: detail,
					})
					if err != nil {
						t.Fatal(err)
					}

					wantV, wantTrace, err := reqCoRunPlatform(t).EvaluateCoRunDetailedAt(progs, freqs, powerOpts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(resp.Metrics, wantV) {
						t.Errorf("chip metrics diverge from EvaluateCoRunDetailedAt:\n got %v\nwant %v", resp.Metrics, wantV)
					}
					if detail >= platform.DetailTrace {
						if !reflect.DeepEqual(resp.Trace, wantTrace) {
							t.Error("chip trace diverges from EvaluateCoRunDetailedAt")
						}
					}
					if detail >= platform.DetailResult {
						if len(resp.Results) != 2 {
							t.Fatalf("want 2 per-core results, got %d", len(resp.Results))
						}
						for i, res := range resp.Results {
							if res.Instructions == 0 {
								t.Errorf("core %d raw result is empty", i)
							}
						}
					} else if resp.Results != nil {
						t.Error("low-detail response carries raw results")
					}
				})
			}
		}
	})
}

// TestEvalRequestSingleKernelFansOut checks the request-path convenience: one
// kernel on a 2-core platform co-runs on every core, exactly like passing the
// same kernel twice.
func TestEvalRequestSingleKernelFansOut(t *testing.T) {
	cfg := knobs.StressSpace().MidConfig()
	p := reqKernel(t, "req-fan", cfg)
	opts := platform.EvalOptions{DynamicInstructions: reqInstr, Seed: reqSeed}

	one, err := reqCoRunPlatform(t).EvaluateRequest(platform.EvalRequest{
		Programs: []*program.Program{p}, Options: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	two, err := reqCoRunPlatform(t).EvaluateRequest(platform.EvalRequest{
		Programs: []*program.Program{p, p}, Options: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one.Metrics, two.Metrics) {
		t.Errorf("fan-out diverges from explicit duplication:\n got %v\nwant %v", one.Metrics, two.Metrics)
	}
}

// TestEvalSessionDeterminism re-serves the same config-driven request three
// times through one session and checks every response is bit-identical — the
// memoized kernels and reused scratch must not leak state between calls.
func TestEvalSessionDeterminism(t *testing.T) {
	cfg := knobs.StressSpace().MidConfig()
	opts := platform.EvalOptions{DynamicInstructions: reqInstr, Seed: reqSeed, CollectPower: true}
	syn := microprobe.NewCachingSynthesizer(microprobe.Options{LoopSize: reqLoopSize, Seed: reqSeed})
	session := platform.NewEvalSession(reqSinglePlatform(t), syn)

	req := platform.EvalRequest{Name: "req-determinism", Config: cfg, Options: opts, Detail: platform.DetailTrace}
	first, err := session.Evaluate(req)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		resp, err := session.Evaluate(req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp.Metrics, first.Metrics) {
			t.Errorf("repeat %d metrics diverge:\n got %v\nwant %v", i, resp.Metrics, first.Metrics)
		}
		if !reflect.DeepEqual(resp.Trace, first.Trace) {
			t.Errorf("repeat %d trace diverges", i)
		}
	}
	if got := session.Evaluations(); got != 3 {
		t.Errorf("session served %d evaluations, want 3", got)
	}
	hits, misses := session.SynthStats()
	if misses != 1 || hits != 2 {
		t.Errorf("synthesis memo: %d hits / %d misses, want 2 / 1", hits, misses)
	}

	// A cold evaluation — fresh platform, fresh plain synthesizer — must
	// produce the same metrics as the warm session.
	cold, err := reqSinglePlatform(t).EvaluateRequest(platform.EvalRequest{
		Programs: []*program.Program{reqKernel(t, "req-determinism", cfg)},
		Options:  opts,
		Detail:   platform.DetailTrace,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold.Metrics, first.Metrics) {
		t.Errorf("cold evaluation diverges from warm session:\n got %v\nwant %v", cold.Metrics, first.Metrics)
	}
}

// TestEvalSessionCoRunMatchesLegacyEvaluateConfig pins the config-driven
// co-run session path to the deprecated EvaluateConfig: same per-core
// kernels, same clock overrides, same chip metrics.
func TestEvalSessionCoRunMatchesLegacyEvaluateConfig(t *testing.T) {
	space := knobs.DVFSStressSpace(2)
	cfg := space.MidConfig()
	opts := platform.EvalOptions{DynamicInstructions: reqInstr, Seed: reqSeed, CollectPower: true}

	csyn := microprobe.NewCachingSynthesizer(microprobe.Options{LoopSize: reqLoopSize, Seed: reqSeed})
	session := platform.NewEvalSession(reqCoRunPlatform(t), csyn)
	resp, err := session.Evaluate(platform.EvalRequest{Name: "req-dvfs", Config: cfg, Options: opts})
	if err != nil {
		t.Fatal(err)
	}

	syn := microprobe.NewSynthesizer(microprobe.Options{LoopSize: reqLoopSize, Seed: reqSeed})
	want, err := reqCoRunPlatform(t).EvaluateConfig("req-dvfs", cfg, syn, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Metrics, want) {
		t.Errorf("session co-run diverges from EvaluateConfig:\n got %v\nwant %v", resp.Metrics, want)
	}
}

// TestEvalSessionSteadyStateAllocs pins the warm hot path: after the first
// evaluation synthesizes and caches the kernel, repeat evaluations must stay
// within a small constant allocation budget (the metric vector itself).
func TestEvalSessionSteadyStateAllocs(t *testing.T) {
	cfg := knobs.StressSpace().MidConfig()
	opts := platform.EvalOptions{DynamicInstructions: reqInstr, Seed: reqSeed}
	syn := microprobe.NewCachingSynthesizer(microprobe.Options{LoopSize: reqLoopSize, Seed: reqSeed})
	session := platform.NewEvalSession(reqSinglePlatform(t), syn)
	req := platform.EvalRequest{Name: "req-allocs", Config: cfg, Options: opts}
	if _, err := session.Evaluate(req); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := session.Evaluate(req); err != nil {
			t.Fatal(err)
		}
	})
	// The response's metric vector is freshly built each call (callers keep
	// it); everything else — programs, simulator scratch, windows — is
	// reused.
	const maxAllocs = 16
	if avg > maxAllocs {
		t.Errorf("steady-state session evaluation allocates %.1f objects/op, want <= %d", avg, maxAllocs)
	}
}

// TestNativeStubRequestPath checks the stub's request support: canned
// metrics at DetailMetrics, errors above.
func TestNativeStubRequestPath(t *testing.T) {
	stub := platform.NativeStub{Canned: map[string]float64{"ipc": 2}}
	if stub.NumCores() != 1 {
		t.Error("native stub should report one core")
	}
	cfg := knobs.StressSpace().MidConfig()
	p := reqKernel(t, "req-stub", cfg)
	resp, err := stub.EvaluateRequest(platform.EvalRequest{Programs: []*program.Program{p}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Metrics["ipc"] != 2 {
		t.Errorf("stub metrics = %v", resp.Metrics)
	}
	if _, err := stub.EvaluateRequest(platform.EvalRequest{
		Programs: []*program.Program{p}, Detail: platform.DetailTrace,
	}); err == nil {
		t.Error("native stub should reject trace detail")
	}
	if _, err := stub.EvaluateRequest(platform.EvalRequest{}); err == nil {
		t.Error("native stub should reject empty requests")
	}
}

// TestEvalSessionAccessors covers the session's introspection surface.
func TestEvalSessionAccessors(t *testing.T) {
	plat := reqSinglePlatform(t)
	syn := microprobe.NewCachingSynthesizer(microprobe.Options{LoopSize: reqLoopSize, Seed: reqSeed})
	if syn.LoopSize() != reqLoopSize {
		t.Errorf("synthesizer loop size = %d, want %d", syn.LoopSize(), reqLoopSize)
	}
	session := platform.NewEvalSession(plat, syn)
	if session.Platform() != platform.RequestEvaluator(plat) {
		t.Error("session should expose its platform")
	}
	if h, m := session.SynthStats(); h != 0 || m != 0 {
		t.Errorf("fresh session stats = %d/%d, want 0/0", h, m)
	}
	if h, m := platform.NewEvalSession(plat, nil).SynthStats(); h != 0 || m != 0 {
		t.Errorf("synthesizer-less session stats = %d/%d, want 0/0", h, m)
	}
	for _, d := range []platform.EvalDetail{platform.DetailMetrics, platform.DetailTrace, platform.DetailResult, platform.EvalDetail(9)} {
		if d.String() == "" {
			t.Errorf("detail %d has no name", uint8(d))
		}
	}
}

// TestCoRunRequestErrors covers the co-run request validation paths.
func TestCoRunRequestErrors(t *testing.T) {
	c := reqCoRunPlatform(t)
	if _, err := c.EvaluateRequest(platform.EvalRequest{}); err == nil {
		t.Error("empty co-run request should be rejected")
	}
	cfg := knobs.StressSpace().MidConfig()
	if _, err := c.EvaluateRequest(platform.EvalRequest{Config: cfg}); err == nil {
		t.Error("config-only co-run request should point at EvalSession")
	}
	p := reqKernel(t, "req-corun-err", cfg)
	if _, err := c.EvaluateRequest(platform.EvalRequest{
		Programs: []*program.Program{p, p, p},
	}); err == nil {
		t.Error("three kernels on a two-core chip should be rejected")
	}
	if _, err := c.EvaluateRequest(platform.EvalRequest{
		Programs:      []*program.Program{p, p},
		FreqOverrides: []float64{1.0},
	}); err == nil {
		t.Error("override/core count mismatch should be rejected")
	}
}

// TestEvalRequestErrors covers the request validation paths.
func TestEvalRequestErrors(t *testing.T) {
	plat := reqSinglePlatform(t)
	if _, err := plat.EvaluateRequest(platform.EvalRequest{}); err == nil {
		t.Error("empty request should be rejected")
	}
	cfg := knobs.StressSpace().MidConfig()
	if _, err := plat.EvaluateRequest(platform.EvalRequest{Config: cfg}); err == nil {
		t.Error("config-only request on a bare platform should point at EvalSession")
	}
	p := reqKernel(t, "req-err", cfg)
	if _, err := plat.EvaluateRequest(platform.EvalRequest{
		Programs: []*program.Program{p, p},
	}); err == nil {
		t.Error("two kernels on a single-core platform should be rejected")
	}
	if _, err := plat.EvaluateRequest(platform.EvalRequest{
		Programs:      []*program.Program{p},
		FreqOverrides: []float64{-1},
	}); err == nil {
		t.Error("negative clock override should be rejected")
	}

	sessionless := platform.NewEvalSession(plat, nil)
	if _, err := sessionless.Evaluate(platform.EvalRequest{Config: cfg}); err == nil {
		t.Error("config request on a synthesizer-less session should be rejected")
	}
	if _, err := sessionless.Evaluate(platform.EvalRequest{}); err == nil {
		t.Error("empty session request should be rejected")
	}
}

// TestEvaluateCoreIsRequestWithoutTransients pins the chip entry point to the
// single-core path: EvaluateCore returns EvaluateRequest's trace and every
// metric of its vector except the three transient ones it leaves to the
// chip, at every detail level and with a clock override.
func TestEvaluateCoreIsRequestWithoutTransients(t *testing.T) {
	p := reqKernel(t, "req-core", knobs.StressSpace().MidConfig())
	transient := map[string]bool{metrics.WorstDroopMV: true, metrics.MaxDIDTWPerCycle: true, metrics.TempC: true}
	for _, freq := range []float64{0, 1.5} {
		for _, detail := range []platform.EvalDetail{platform.DetailMetrics, platform.DetailTrace, platform.DetailResult} {
			opts := platform.EvalOptions{DynamicInstructions: reqInstr, Seed: reqSeed, CollectPower: true, FrequencyGHz: freq}
			resp, err := reqSinglePlatform(t).EvaluateRequest(platform.EvalRequest{Programs: []*program.Program{p}, Options: opts, Detail: platform.DetailResult})
			if err != nil {
				t.Fatal(err)
			}
			v, res, trace, err := reqSinglePlatform(t).EvaluateCore(p, opts, detail)
			if err != nil {
				t.Fatal(err)
			}
			for name, want := range resp.Metrics {
				got, ok := v[name]
				switch {
				case transient[name] && ok:
					t.Errorf("freq %g, %s: EvaluateCore reports transient metric %s", freq, detail, name)
				case !transient[name] && (!ok || math.Float64bits(got) != math.Float64bits(want)):
					t.Errorf("freq %g, %s: %s = %v (present %v), request path %v", freq, detail, name, got, ok, want)
				}
			}
			if len(v)+len(transient) != len(resp.Metrics) {
				t.Errorf("freq %g, %s: EvaluateCore vector has %d metrics, request path %d plus %d transient", freq, detail, len(v), len(resp.Metrics)-len(transient), len(transient))
			}
			if !reflect.DeepEqual(trace, resp.Trace) {
				t.Errorf("freq %g, %s: EvaluateCore trace differs from the request path's", freq, detail)
			}
			if detail == platform.DetailResult && !reflect.DeepEqual(res, resp.Results[0]) {
				t.Errorf("freq %g: EvaluateCore result differs from the request path's", freq)
			}
		}
	}
}
