package branchsim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func gshareCfg() Config  { return Config{Kind: GShare, TableBits: 12, HistoryBits: 10} }
func bimodalCfg() Config { return Config{Kind: Bimodal, TableBits: 10} }

func TestConfigValidate(t *testing.T) {
	if err := gshareCfg().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := bimodalCfg().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Kind: Bimodal, TableBits: 2},
		{Kind: Bimodal, TableBits: 30},
		{Kind: GShare, TableBits: 12, HistoryBits: 0},
		{Kind: GShare, TableBits: 12, HistoryBits: 20},
		{Kind: Kind(9), TableBits: 12},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
		if _, err := New(c); err == nil {
			t.Errorf("case %d: New should fail", i)
		}
	}
}

func TestAlwaysTakenBranchLearned(t *testing.T) {
	for _, cfg := range []Config{gshareCfg(), bimodalCfg()} {
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			p.Predict(0x1000, true)
		}
		if rate := p.Stats().MispredictRate(); rate > 0.01 {
			t.Errorf("%v: always-taken branch mispredict rate %v", cfg.Kind, rate)
		}
	}
}

func TestAlternatingPatternGShareBeatsBimodal(t *testing.T) {
	// A short repeating pattern is predictable with history, hard without.
	pattern := []bool{true, true, false, true, false, false, true, false}
	run := func(cfg Config) float64 {
		p, _ := New(cfg)
		for i := 0; i < 20000; i++ {
			p.Predict(0x2000, pattern[i%len(pattern)])
		}
		return p.Stats().MispredictRate()
	}
	g := run(gshareCfg())
	b := run(bimodalCfg())
	if g > 0.05 {
		t.Errorf("gshare mispredict rate %v on periodic pattern, want near 0", g)
	}
	if b <= g {
		t.Errorf("bimodal (%v) should do worse than gshare (%v) on this pattern", b, g)
	}
}

func TestRandomBranchesMispredictHeavily(t *testing.T) {
	p, _ := New(gshareCfg())
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		p.Predict(0x3000, rng.Intn(2) == 0)
	}
	rate := p.Stats().MispredictRate()
	if rate < 0.4 || rate > 0.6 {
		t.Errorf("random branches mispredict rate %v, want ~0.5", rate)
	}
}

func TestMispredictRateMonotonicInRandomness(t *testing.T) {
	// As the fraction of random directions grows, the misprediction rate
	// should grow too — this is the mechanism behind the B_PATTERN knob.
	rates := make([]float64, 0, 3)
	for _, ratio := range []float64{0.1, 0.5, 0.9} {
		p, _ := New(gshareCfg())
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 30000; i++ {
			var taken bool
			if rng.Float64() < ratio {
				taken = rng.Intn(2) == 0
			} else {
				taken = i%2 == 0
			}
			p.Predict(0x4000, taken)
		}
		rates = append(rates, p.Stats().MispredictRate())
	}
	if !(rates[0] < rates[1] && rates[1] < rates[2]) {
		t.Errorf("mispredict rate not monotonic in randomness: %v", rates)
	}
}

func TestResetAndStats(t *testing.T) {
	p, _ := New(bimodalCfg())
	p.Predict(0x100, false)
	p.Reset()
	st := p.Stats()
	if st.Branches != 0 || st.Mispredicts != 0 {
		t.Errorf("stats not reset: %+v", st)
	}
	if st.MispredictRate() != 0 {
		t.Error("empty stats should report 0 mispredict rate")
	}
	if st.Accuracy() != 1 {
		t.Error("empty stats should report accuracy 1")
	}
	if p.Config().Kind != Bimodal {
		t.Error("Config accessor broken")
	}
}

func TestKindString(t *testing.T) {
	if Bimodal.String() != "bimodal" || GShare.String() != "gshare" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind should still render")
	}
}

// Property: mispredicts never exceed branches, and the rate is in [0,1].
func TestPropertyStatsBounded(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		p, err := New(gshareCfg())
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(n)%5000; i++ {
			p.Predict(uint64(rng.Intn(1<<14))<<2, rng.Intn(2) == 0)
		}
		st := p.Stats()
		return st.Mispredicts <= st.Branches && st.MispredictRate() >= 0 && st.MispredictRate() <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: prediction is deterministic — identical outcome sequences yield
// identical statistics.
func TestPropertyDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		mk := func() Stats {
			p, _ := New(gshareCfg())
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				p.Predict(uint64(rng.Intn(64))<<2, rng.Intn(3) != 0)
			}
			return p.Stats()
		}
		return mk() == mk()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestResetMatchesFresh pins Reset to a freshly built predictor: after any
// training, a reset predictor makes the same predictions, keeps the same
// table and reports the same statistics as a new one, and training a reset
// predictor never leaks into the next reset.
func TestResetMatchesFresh(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		train int
	}{
		{"bimodal-untrained", bimodalCfg(), 0},
		{"bimodal-trained", bimodalCfg(), 5000},
		{"gshare-trained", gshareCfg(), 5000},
		{"gshare-large-table", Config{Kind: GShare, TableBits: 14, HistoryBits: 12}, 20000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reused, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			for round := 0; round < 3; round++ {
				for i := 0; i < tc.train; i++ {
					reused.Predict(uint64(rng.Intn(1<<16))<<2, rng.Intn(3) == 0)
				}
				reused.Reset()
				fresh, _ := New(tc.cfg)
				if string(reused.table) != string(fresh.table) || reused.history != fresh.history {
					t.Fatalf("round %d: reset state differs from a fresh predictor", round)
				}
				for i := 0; i < 2000; i++ {
					pc, taken := uint64(rng.Intn(256))<<2, rng.Intn(2) == 0
					if a, b := reused.Predict(pc, taken), fresh.Predict(pc, taken); a != b {
						t.Fatalf("round %d, branch %d: reset predictor mispredicted=%v, fresh %v", round, i, a, b)
					}
				}
				if reused.Stats() != fresh.Stats() {
					t.Fatalf("round %d: stats %+v, fresh %+v", round, reused.Stats(), fresh.Stats())
				}
			}
		})
	}
}
