package cache

import (
	"math/rand/v2"
	"slices"
	"testing"
)

func TestVictimPutTake(t *testing.T) {
	v := NewVictim[string](2)
	v.Put(1, "a")
	v.Put(2, "b")
	got, ok := v.Take(1)
	if !ok || got != "a" {
		t.Fatalf("Take(1) = %v, %v", got, ok)
	}
	if _, ok := v.Take(1); ok {
		t.Error("Take must remove the entry")
	}
	if v.Len() != 1 {
		t.Errorf("Len = %d", v.Len())
	}
}

func TestVictimLRUEviction(t *testing.T) {
	v := NewVictim[string](2)
	v.Put(1, "a")
	v.Put(2, "b")
	v.Put(3, "c") // evicts 1 (LRU)
	if _, ok := v.Peek(1); ok {
		t.Error("LRU entry survived")
	}
	if _, ok := v.Peek(2); !ok {
		t.Error("entry 2 lost")
	}
}

func TestVictimPeekRefreshes(t *testing.T) {
	v := NewVictim[string](2)
	v.Put(1, "a")
	v.Put(2, "b")
	v.Peek(1) // 1 becomes MRU
	v.Put(3, "c")
	if _, ok := v.Peek(1); !ok {
		t.Error("peeked entry evicted despite MRU refresh")
	}
	if _, ok := v.Peek(2); ok {
		t.Error("entry 2 should have been evicted")
	}
}

func TestVictimPutOverwrites(t *testing.T) {
	v := NewVictim[string](2)
	v.Put(1, "a")
	v.Put(1, "b")
	if v.Len() != 1 {
		t.Errorf("duplicate Put grew buffer: %d", v.Len())
	}
	if got, _ := v.Peek(1); got != "b" {
		t.Errorf("overwrite failed: %v", got)
	}
}

func TestVictimRemove(t *testing.T) {
	v := NewVictim[string](4)
	v.Put(1, "a")
	if !v.Remove(1) || v.Remove(1) {
		t.Error("Remove semantics wrong")
	}
}

func TestVictimCapacityOne(t *testing.T) {
	v := NewVictim[string](1)
	v.Put(1, "a")
	v.Put(2, "b")
	if v.Len() != 1 {
		t.Errorf("Len = %d", v.Len())
	}
	if _, ok := v.Peek(2); !ok {
		t.Error("newest entry missing")
	}
}

func TestInFlight(t *testing.T) {
	f := NewInFlight()
	f.Add(1, 100)
	f.Add(2, 50)
	f.Add(1, 200) // later time must not override earlier
	if r, ok := f.Ready(1); !ok || r != 100 {
		t.Errorf("Ready(1) = %v, %v", r, ok)
	}
	f.Add(2, 25) // earlier time wins
	if r, _ := f.Ready(2); r != 25 {
		t.Errorf("Ready(2) = %v, want 25", r)
	}
	f.Remove(1)
	if _, ok := f.Ready(1); ok {
		t.Error("removed key still in flight")
	}
	if f.Len() != 1 {
		t.Errorf("Len = %d", f.Len())
	}
}

func TestInFlightExpire(t *testing.T) {
	f := NewInFlight()
	f.Add(1, 10)
	f.Add(2, 20)
	f.Add(3, 30)
	var expired []uint64
	f.Expire(20, func(k uint64) { expired = append(expired, k) })
	if len(expired) != 2 {
		t.Errorf("expired %v, want keys 1 and 2", expired)
	}
	if _, ok := f.Ready(3); !ok {
		t.Error("unexpired key removed")
	}
}

// scanVictim is the linear-scan buffer Victim replaced, kept as the
// reference model: the same slot layout and stamp LRU, found by scanning.
type scanVictim struct {
	cap   int
	keys  []uint64
	vals  []int
	stamp []uint64
	clock uint64
}

func (v *scanVictim) tick() uint64 {
	v.clock++
	return v.clock
}

func (v *scanVictim) removeAt(i int) {
	last := len(v.keys) - 1
	v.keys[i], v.vals[i], v.stamp[i] = v.keys[last], v.vals[last], v.stamp[last]
	v.keys, v.vals, v.stamp = v.keys[:last], v.vals[:last], v.stamp[:last]
}

func (v *scanVictim) Take(key uint64) (int, bool) {
	for i, k := range v.keys {
		if k == key {
			val := v.vals[i]
			v.removeAt(i)
			return val, true
		}
	}
	return 0, false
}

func (v *scanVictim) Peek(key uint64) (int, bool) {
	for i, k := range v.keys {
		if k == key {
			v.stamp[i] = v.tick()
			return v.vals[i], true
		}
	}
	return 0, false
}

func (v *scanVictim) Put(key uint64, val int) {
	victim := -1
	var oldest uint64 = ^uint64(0)
	for i, k := range v.keys {
		if k == key {
			v.vals[i] = val
			v.stamp[i] = v.tick()
			return
		}
		if v.stamp[i] < oldest {
			oldest, victim = v.stamp[i], i
		}
	}
	if len(v.keys) < v.cap {
		v.keys = append(v.keys, key)
		v.vals = append(v.vals, val)
		v.stamp = append(v.stamp, v.tick())
		return
	}
	v.keys[victim], v.vals[victim], v.stamp[victim] = key, val, v.tick()
}

func (v *scanVictim) Remove(key uint64) bool {
	for i, k := range v.keys {
		if k == key {
			v.removeAt(i)
			return true
		}
	}
	return false
}

// TestVictimMatchesScanReference drives the indexed buffer and the scan
// reference with the same random operations, over key ranges from tight
// (constant hits) to wide (constant eviction), and requires identical
// results and identical exported state (slot layout, stamps, clock) after
// every operation — including across a mid-run snapshot restore.
func TestVictimMatchesScanReference(t *testing.T) {
	for _, tc := range []struct{ cap, keys int }{{1, 3}, {4, 6}, {64, 48}, {64, 96}, {64, 1000}} {
		rng := rand.New(rand.NewPCG(uint64(tc.cap), uint64(tc.keys)))
		v := NewVictim[int](tc.cap)
		ref := &scanVictim{cap: tc.cap}
		for op := 0; op < 20000; op++ {
			key := rng.Uint64N(uint64(tc.keys))
			switch r := rng.IntN(10); {
			case r < 4:
				v.Put(key, op)
				ref.Put(key, op)
			case r < 6:
				a, aok := v.Take(key)
				b, bok := ref.Take(key)
				if a != b || aok != bok {
					t.Fatalf("cap %d op %d: Take(%d) = %v,%v, reference %v,%v", tc.cap, op, key, a, aok, b, bok)
				}
			case r < 9:
				a, aok := v.Peek(key)
				b, bok := ref.Peek(key)
				if a != b || aok != bok {
					t.Fatalf("cap %d op %d: Peek(%d) = %v,%v, reference %v,%v", tc.cap, op, key, a, aok, b, bok)
				}
			default:
				if a, b := v.Remove(key), ref.Remove(key); a != b {
					t.Fatalf("cap %d op %d: Remove(%d) = %v, reference %v", tc.cap, op, key, a, b)
				}
			}
			st, vals := v.ExportState()
			if !slices.Equal(st.Keys, ref.keys) || !slices.Equal(st.Stamp, ref.stamp) ||
				!slices.Equal(vals, ref.vals) || st.Clock != ref.clock || st.Cap != ref.cap {
				t.Fatalf("cap %d op %d: state %+v %v, reference keys %v stamps %v clock %d vals %v",
					tc.cap, op, st, vals, ref.keys, ref.stamp, ref.clock, ref.vals)
			}
			if op == 10000 {
				fresh := NewVictim[int](tc.cap)
				if err := fresh.RestoreState(st, vals); err != nil {
					t.Fatal(err)
				}
				v = fresh
			}
		}
	}
}
