package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// expectedPath holds the committed results of every workload at the
// default program seed, at the full budget and at the self-test's tiny
// budget. Every unit of a run at that seed must reproduce them exactly, so
// a change that alters what the program computes fails the benchmark
// until the file is re-recorded (--record) and the change named.
var expectedPath = filepath.Join(benchDir, "expected.json")

// reference is a workload's deterministic result: the digest every unit
// must reproduce, and the counts and quality it covers, in readable form.
type reference struct {
	Digest  string             `json:"digest"`
	Counts  counts             `json:"counts"`
	Quality map[string]float64 `json:"quality"`
	// Instructions and Cycles are the simulator's own totals over the
	// calls a traced run replays; untraced runs leave them 0.
	Instructions uint64 `json:"cpusim_instructions,omitempty"`
	Cycles       uint64 `json:"cpusim_cycles,omitempty"`
}

// expectedFile is the layout of expected.json.
type expectedFile struct {
	ProgramSeed int64 `json:"program_seed"`
	// Results maps a workload to its budget ("full" or "tiny") to the
	// committed reference.
	Results map[string]map[string]reference `json:"results"`
}

func budgetName(tiny bool) string {
	if tiny {
		return "tiny"
	}
	return "full"
}

// committed returns the committed reference of o's workload and budget,
// or nil when o's program seed has none (a held-out seed): the run's first
// unit then sets the reference.
func committed(o options) (*reference, error) {
	data, err := os.ReadFile(expectedPath)
	if err != nil {
		return nil, err
	}
	var f expectedFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedPath, err)
	}
	if o.programSeed != f.ProgramSeed {
		return nil, nil
	}
	ref, ok := f.Results[o.workload][budgetName(o.tiny)]
	if !ok {
		return nil, fmt.Errorf("%s has no %s result for %s", expectedPath, budgetName(o.tiny), o.workload)
	}
	return &ref, nil
}

// record runs every workload traced at both budgets and the default
// program seed, and writes their results to expected.json.
func record() error {
	f := expectedFile{ProgramSeed: 1, Results: make(map[string]map[string]reference)}
	for _, w := range benches {
		f.Results[w.name] = make(map[string]reference)
		for _, tiny := range []bool{false, true} {
			o := options{workload: w.name, seed: 1, programSeed: f.ProgramSeed, seconds: 0.01,
				trace: true, tiny: tiny, record: true}
			out, err := run(o)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if out.failed > 0 {
				return fmt.Errorf("%s: %d of %d operations failed: %v", w.name, out.failed, out.attempted, out.problems)
			}
			f.Results[w.name][budgetName(tiny)] = out.result
			fmt.Printf("%-16s %-4s digest %s\n", w.name, budgetName(tiny), out.result.Digest)
		}
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedPath, append(data, '\n'), 0o644)
}

// checkSimulated compares a traced run's replayed simulator totals with
// the committed ones.
func checkSimulated(got, want *reference) error {
	if got.Instructions != want.Instructions || got.Cycles != want.Cycles {
		return fmt.Errorf("simulated %d instructions in %d cycles, committed %d in %d",
			got.Instructions, got.Cycles, want.Instructions, want.Cycles)
	}
	return nil
}
