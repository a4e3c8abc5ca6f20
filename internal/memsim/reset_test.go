package memsim

import "testing"

// resetAtWrap is the test hook for the generation wrap-around: it resets c
// as the 2^32-th Reset would, when the generation counter returns to zero.
// Sets stamped zero long ago then carry the current stamp, so only the
// wrap-around's real clear keeps their stale lines from hitting.
func resetAtWrap(c *Cache) {
	c.gen = ^uint32(0)
	c.Reset()
}

// oracleConfigs are the geometries the reset oracle runs: power-of-two and
// division-indexed set counts, and a fully associative cache.
var oracleConfigs = []CacheConfig{
	{Name: "pow2", SizeBytes: 512, LineBytes: 64, Assoc: 2, HitLatency: 1},
	{Name: "div3", SizeBytes: 384, LineBytes: 64, Assoc: 2, HitLatency: 1},
	{Name: "assoc", SizeBytes: 256, LineBytes: 64, Assoc: 4, HitLatency: 1},
}

// FuzzCacheResetOracle runs random sequences of demand accesses, prefetches,
// lookups and resets (including resets at the generation wrap-around) on one
// reused cache and checks every outcome against a cache built fresh after
// each reset: hits, prefetch presence, lookups and the full statistics —
// hits, misses, prefetches and writebacks — must agree at every step.
//
// The input's first byte picks the geometry; each following pair of bytes is
// one operation: the low three bits of the first byte choose it, the second
// byte the line (32 lines over the cache's few sets, so sets conflict).
func FuzzCacheResetOracle(f *testing.F) {
	f.Add([]byte{0, 0, 1, 3, 2, 6, 0, 0, 1, 5, 1})
	// Fill several sets at generation 0, wrap around, and probe them.
	f.Add([]byte{0, 0, 0, 3, 1, 3, 2, 3, 3, 7, 0, 5, 0, 5, 1, 0, 2, 5, 3})
	f.Add([]byte{1, 3, 0, 3, 8, 3, 16, 6, 0, 7, 0, 5, 8, 0, 16, 4, 24})
	f.Add([]byte{2, 3, 0, 3, 1, 3, 2, 3, 3, 3, 4, 6, 0, 3, 0, 7, 0, 5, 4, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := oracleConfigs[int(data[0])%len(oracleConfigs)]
		reused, err := NewCache(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh, _ := NewCache(cfg)
		ops := data[1:]
		for i := 0; i+1 < len(ops); i += 2 {
			addr := uint64(ops[i+1]%32)*uint64(cfg.LineBytes) + uint64(ops[i]>>3)
			switch ops[i] & 7 {
			case 0, 1, 2:
				if a, b := reused.Access(addr, false), fresh.Access(addr, false); a != b {
					t.Fatalf("op %d: read of %#x hit=%v, fresh cache %v", i/2, addr, a, b)
				}
			case 3:
				if a, b := reused.Access(addr, true), fresh.Access(addr, true); a != b {
					t.Fatalf("op %d: write of %#x hit=%v, fresh cache %v", i/2, addr, a, b)
				}
			case 4:
				if a, b := reused.Prefetch(addr), fresh.Prefetch(addr); a != b {
					t.Fatalf("op %d: prefetch of %#x present=%v, fresh cache %v", i/2, addr, a, b)
				}
			case 5:
				if a, b := reused.Lookup(addr), fresh.Lookup(addr); a != b {
					t.Fatalf("op %d: lookup of %#x = %v, fresh cache %v", i/2, addr, a, b)
				}
			case 6, 7:
				checkResident(t, i/2, reused, fresh)
				if ops[i]&7 == 6 {
					reused.Reset()
				} else {
					resetAtWrap(reused)
				}
				fresh, _ = NewCache(cfg)
			}
			if a, b := reused.Stats(), fresh.Stats(); a != b {
				t.Fatalf("op %d: stats %+v, fresh cache %+v", i/2, a, b)
			}
		}
		checkResident(t, len(ops)/2, reused, fresh)
	})
}

// checkResident compares which of the oracle's 32 lines the two caches hold.
func checkResident(t *testing.T, op int, reused, fresh *Cache) {
	t.Helper()
	for l := uint64(0); l < 32; l++ {
		addr := l * uint64(reused.cfg.LineBytes)
		if a, b := reused.Lookup(addr), fresh.Lookup(addr); a != b {
			t.Fatalf("before op %d: line %d resident=%v, fresh cache %v", op, l, a, b)
		}
	}
}
