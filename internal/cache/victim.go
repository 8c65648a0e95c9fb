package cache

import "confluence/internal/flatmap"

// Victim is a small fully-associative LRU buffer, used as the 64-entry
// victim buffer backing the baseline conventional BTB and as PhantomBTB's
// prefetch buffer. It is generic over the stored value so entries live
// inline — putting a value never boxes it into an interface, which kept an
// allocation on the BTB-eviction path when values were `any`.
//
// Entries sit in unordered slots: recency is a strictly increasing
// use-stamp and the eviction victim is the minimum stamp, the true-LRU
// policy without shifting the buffer on every insert. The slot layout
// (which VictimState exports) follows from the operation sequence alone:
// Put appends or overwrites the victim's slot, removal moves the last slot
// into the hole. A flatmap key index and a slot list in stamp order make
// every operation O(1).
type Victim[V any] struct {
	cap   int
	keys  []uint64
	vals  []V
	stamp []uint64
	clock uint64

	// idx maps a key to its slot. prev/next chain the slots in stamp
	// order, from head (the LRU entry) to tail (the MRU); -1 ends the chain.
	idx        *flatmap.Map[int32]
	prev, next []int32
	head, tail int32
}

// NewVictim creates a victim buffer holding up to capacity entries.
func NewVictim[V any](capacity int) *Victim[V] {
	if capacity <= 0 {
		panic("cache: victim capacity must be positive")
	}
	return &Victim[V]{
		cap:   capacity,
		keys:  make([]uint64, 0, capacity),
		vals:  make([]V, 0, capacity),
		stamp: make([]uint64, 0, capacity),
		// Half-loaded, so probe chains and Delete's backward shifts stay short.
		idx:  flatmap.New[int32](2 * capacity),
		prev: make([]int32, capacity),
		next: make([]int32, capacity),
		head: -1,
		tail: -1,
	}
}

// Capacity returns the configured capacity; Len the current occupancy.
func (v *Victim[V]) Capacity() int { return v.cap }
func (v *Victim[V]) Len() int      { return len(v.keys) }

func (v *Victim[V]) unlink(i int32) {
	p, n := v.prev[i], v.next[i]
	if p >= 0 {
		v.next[p] = n
	} else {
		v.head = n
	}
	if n >= 0 {
		v.prev[n] = p
	} else {
		v.tail = p
	}
}

func (v *Victim[V]) pushTail(i int32) {
	v.prev[i], v.next[i] = v.tail, -1
	if v.tail >= 0 {
		v.next[v.tail] = i
	} else {
		v.head = i
	}
	v.tail = i
}

// touch makes slot i the most recently used.
func (v *Victim[V]) touch(i int32) {
	v.clock++
	v.stamp[i] = v.clock
	if i != v.tail {
		v.unlink(i)
		v.pushTail(i)
	}
}

// removeAt drops the entry at slot i, moving the last slot into the hole.
func (v *Victim[V]) removeAt(i int32) {
	v.unlink(i)
	v.idx.Delete(v.keys[i])
	last := int32(len(v.keys) - 1)
	if i != last {
		v.keys[i], v.vals[i], v.stamp[i] = v.keys[last], v.vals[last], v.stamp[last]
		v.idx.Put(v.keys[i], i)
		p, n := v.prev[last], v.next[last]
		v.prev[i], v.next[i] = p, n
		if p >= 0 {
			v.next[p] = i
		} else {
			v.head = i
		}
		if n >= 0 {
			v.prev[n] = i
		} else {
			v.tail = i
		}
	}
	var zero V
	v.vals[last] = zero
	v.keys = v.keys[:last]
	v.vals = v.vals[:last]
	v.stamp = v.stamp[:last]
}

// Take returns the value for key and removes it (entries migrate back to
// the main structure on hit, the usual victim-buffer contract).
func (v *Victim[V]) Take(key uint64) (V, bool) {
	i, ok := v.idx.Get(key)
	if !ok {
		var zero V
		return zero, false
	}
	val := v.vals[i]
	v.removeAt(i)
	return val, true
}

// Peek returns the value for key without removing it, refreshing recency.
func (v *Victim[V]) Peek(key uint64) (V, bool) {
	i, ok := v.idx.Get(key)
	if !ok {
		var zero V
		return zero, false
	}
	v.touch(i)
	return v.vals[i], true
}

// Put inserts (key, val) at MRU, evicting the LRU entry when full. A present
// key is refreshed/overwritten.
func (v *Victim[V]) Put(key uint64, val V) {
	slot, found := v.idx.Upsert(key)
	if found {
		i := *slot
		v.vals[i] = val
		v.touch(i)
		return
	}
	if len(v.keys) < v.cap {
		i := int32(len(v.keys))
		*slot = i
		v.clock++
		v.keys = append(v.keys, key)
		v.vals = append(v.vals, val)
		v.stamp = append(v.stamp, v.clock)
		v.pushTail(i)
		return
	}
	// Full: the new key takes the LRU entry's slot. Its index entry is
	// written before the evicted key's is deleted, which may move it.
	i := v.head
	*slot = i
	v.idx.Delete(v.keys[i])
	v.keys[i], v.vals[i] = key, val
	v.touch(i)
}

// Remove drops key if present.
func (v *Victim[V]) Remove(key uint64) bool {
	i, ok := v.idx.Get(key)
	if ok {
		v.removeAt(i)
	}
	return ok
}
