package cache

import (
	"math/rand/v2"
	"testing"
)

// BenchmarkCacheLookupHit measures the L1-I hot path.
func BenchmarkCacheLookupHit(b *testing.B) {
	c := New(128, 4) // L1-I geometry
	keys := make([]uint64, 512)
	rng := rand.New(rand.NewPCG(1, 1))
	for i := range keys {
		keys[i] = rng.Uint64() >> 16
		c.Insert(keys[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(keys[i&511])
	}
}

// BenchmarkCacheInsertEvict measures steady-state replacement.
func BenchmarkCacheInsertEvict(b *testing.B) {
	c := New(128, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(uint64(i))
	}
}

// BenchmarkAssocLookup measures the BTB hot path.
func BenchmarkAssocLookup(b *testing.B) {
	a := NewAssoc[uint64](256, 4)
	for i := uint64(0); i < 1024; i++ {
		a.Insert(i, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Lookup(uint64(i) & 1023)
	}
}

// BenchmarkCacheLookupInsert measures the combined demand-access pattern of
// the L1-I: a lookup followed, on miss, by a fill — the single-pass
// presence+victim scan this PR introduced.
func BenchmarkCacheLookupInsert(b *testing.B) {
	c := New(128, 4) // L1-I geometry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := uint64(i) % 2048 // 4x the capacity: a steady mix of hits and fills
		if !c.Lookup(key) {
			c.Insert(key)
		}
	}
}

// BenchmarkInFlight_AddReadyRemove measures the in-flight fill table's
// per-prefetch lifecycle: register a fill, probe it (the demand-access
// check), and retire it.
func BenchmarkInFlight_AddReadyRemove(b *testing.B) {
	f := NewInFlight()
	// Keep a realistic standing population (a SHIFT lookahead's worth).
	for i := uint64(0); i < 20; i++ {
		f.Add(i, float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := uint64(i) + 100
		f.Add(key, float64(i))
		if _, ok := f.Ready(key); !ok {
			b.Fatal("lost in-flight fill")
		}
		f.Remove(key)
	}
}

// BenchmarkVictimPutTake measures the 64-entry BTB victim buffer under its
// steady state: every operation misses-and-evicts or hits-and-removes.
func BenchmarkVictimPutTake(b *testing.B) {
	v := NewVictim[uint64](64)
	keys := make([]uint64, 1024)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range keys {
		keys[i] = rng.Uint64N(256) << 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&1023]
		if i&1 == 0 {
			v.Put(k, k)
		} else {
			v.Take(k)
		}
	}
}
