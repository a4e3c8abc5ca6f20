package main

import (
	"fmt"
	"sort"
)

// runSelftest checks the benchmark itself at the tiny budget: every
// workload runs untraced twice and traced once, each run reports every
// metric it owes and reproduces the committed results, and spatial-halving
// agrees with itself at fan-out 1 and 2.
func runSelftest() error {
	for _, w := range benches {
		o := options{workload: w.name, seed: 1, programSeed: 1, seconds: 0.01, tiny: true}
		a, err := selftestRun(o, endToEnd)
		if err != nil {
			return err
		}
		b, err := selftestRun(o, endToEnd)
		if err != nil {
			return err
		}
		if a.result.Digest != b.result.Digest {
			return fmt.Errorf("%s: two invocations disagree: digest %v vs %v", w.name, a.result.Digest, b.result.Digest)
		}
		o.trace = true
		t, err := selftestRun(o, perLayer())
		if err != nil {
			return err
		}
		if t.result.Digest != a.result.Digest {
			return fmt.Errorf("%s: traced digest %v differs from untraced %v", w.name, t.result.Digest, a.result.Digest)
		}
		if w.name == "spatial-halving" {
			for _, par := range []int{1, 2} {
				o := options{workload: w.name, seed: 1, programSeed: 1, seconds: 0.01, tiny: true, parallel: par}
				p, err := selftestRun(o, endToEnd)
				if err != nil {
					return err
				}
				if p.result.Digest != a.result.Digest {
					return fmt.Errorf("%s: fan-out %d digest %v differs from %v", w.name, par, p.result.Digest, a.result.Digest)
				}
			}
		}
		fmt.Printf("%-16s ok  digest %v\n", w.name, a.result.Digest)
	}
	return nil
}

// selftestRun runs one invocation and checks that it passed and measured
// every named metric, with a unit.
func selftestRun(o options, want []string) (*outcome, error) {
	out, err := run(o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	if out.failed > 0 {
		return nil, fmt.Errorf("%s: %d of %d operations failed: %v", o.workload, out.failed, out.attempted, out.problems)
	}
	for _, name := range want {
		if _, ok := out.metrics[name]; !ok {
			return nil, fmt.Errorf("%s: metric %s missing", o.workload, name)
		}
		if metricUnits[name] == "" {
			return nil, fmt.Errorf("%s: metric %s has no unit", o.workload, name)
		}
	}
	return out, nil
}

// perLayer lists the metrics a traced run reports.
func perLayer() []string {
	var names []string
	for name := range metricUnits {
		if !contains(endToEnd, name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}
