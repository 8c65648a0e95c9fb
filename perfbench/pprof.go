package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profile runtime/pprof writes (a gzipped
// profile.proto) far enough to attribute self time: each sample's leaf
// function and its CPU nanoseconds. Only the standard library is used, so
// the decoder reads the protobuf wire format directly.

// selfTimes returns CPU nanoseconds of self time per function name.
func selfTimes(profile []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs     []string
		funcName = map[uint64]int64{}  // function id -> name string index
		locFunc  = map[uint64]uint64{} // location id -> leaf function id
		samples  []profSample
		types    [][2]int64 // sample_type (type, unit) string indexes
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			fields(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = int64(v)
				}
				return nil
			})
			types = append(types, t)
		case 2: // sample
			var locs, vals []uint64
			fields(b, func(n, w int, v uint64, p []byte) error {
				switch n {
				case 1:
					locs = appendVarints(locs, w, v, p)
				case 2:
					vals = appendVarints(vals, w, v, p)
				}
				return nil
			})
			if len(locs) > 0 {
				samples = append(samples, profSample{locs[0], vals})
			}
		case 4: // location
			var id, fn uint64
			fields(b, func(n, _ int, v uint64, p []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line: the first one is the innermost (inlined leaf)
					if fn == 0 {
						fields(p, func(n, _ int, v uint64, _ []byte) error {
							if n == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFunc[id] = fn
		case 5: // function
			var id uint64
			var name int64
			fields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The CPU profile's sample types are (samples, count) and
	// (cpu, nanoseconds); take the nanoseconds column.
	col := -1
	for i, t := range types {
		if int(t[1]) < len(strs) && strs[t[1]] == "nanoseconds" {
			col = i
		}
	}
	if col < 0 {
		return nil, fmt.Errorf("profile: no nanoseconds sample type")
	}
	out := make(map[string]int64)
	for _, s := range samples {
		if col >= len(s.vals) {
			continue
		}
		name := "?"
		if idx, ok := funcName[locFunc[s.leaf]]; ok && int(idx) < len(strs) {
			name = strs[idx]
		}
		out[name] += int64(s.vals[col])
	}
	return out, nil
}

// profSample is one profile sample: its leaf location and its values.
type profSample struct {
	leaf uint64
	vals []uint64
}

// fields walks the protobuf message b, calling fn per field with its
// number, wire type, and varint value or length-delimited payload.
func fields(b []byte, fn func(num, wire int, v uint64, p []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			if err := fn(num, wire, binary.LittleEndian.Uint64(b), nil); err != nil {
				return err
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			p := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, wire, 0, p); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			if err := fn(num, wire, uint64(binary.LittleEndian.Uint32(b)), nil); err != nil {
				return err
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, p []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(p) > 0 {
		x, n := binary.Uvarint(p)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		p = p[n:]
	}
	return dst
}

// gcFuncs are name fragments of the runtime's garbage-collector and
// allocator functions, which the runtime.gc module collects.
var gcFuncs = []string{"gc", "GC", "mark", "Mark", "scan", "sweep", "Sweep", "greyobject",
	"findObject", "wbBuf", "heapBits", "mallocgc", "memclrNoHeapPointers", "bulkBarrier"}

// moduleOf maps a profiled function name onto one of profiledModules, or
// "other".
func moduleOf(fn string) string {
	const internal = "confluence/internal/"
	if strings.HasPrefix(fn, internal) {
		pkg := fn[len(internal):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, m := range profiledModules {
			if m == pkg {
				return m
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") {
		for _, g := range gcFuncs {
			if strings.Contains(fn, g) {
				return "runtime.gc"
			}
		}
	}
	return "other"
}

// groupByModule sums self time per module.
func groupByModule(self map[string]int64) map[string]int64 {
	out := make(map[string]int64)
	for fn, ns := range self {
		out[moduleOf(fn)] += ns
	}
	return out
}

// moduleMetrics sets <module>.cpu_pct (share of all profiled CPU) and
// <module>.ns_per_instr (self CPU per nominal simulated instruction) from
// a CPU profile.
func moduleMetrics(profile []byte, instr float64, m map[string]float64) error {
	self, err := selfTimes(profile)
	if err != nil {
		return err
	}
	by := groupByModule(self)
	var total int64
	for _, ns := range by {
		total += ns
	}
	for _, mod := range profiledModules {
		ns := float64(by[mod])
		m[mod+".cpu_pct"], m[mod+".ns_per_instr"] = 0, 0
		if total > 0 {
			m[mod+".cpu_pct"] = ns / float64(total) * 100
		}
		if instr > 0 {
			m[mod+".ns_per_instr"] = ns / instr
		}
	}
	return nil
}
