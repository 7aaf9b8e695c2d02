package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// layers are the repository modules host time is attributed to, in
// report order. Samples in any other package land in go_runtime (the Go
// runtime and scheduler) or other (the standard library, the benchmark
// itself, and the repository's remaining modules).
var layers = []string{
	"cpu", "core", "mbus", "machine", "qbus", "topaz", "net",
	"rpc", "cluster", "traffic", "stats", "trace", "sim",
}

const modulePrefix = "firefly/internal/"

// flatProfile is a CPU profile reduced to flat sample counts per leaf
// function: the function that was executing when the sample was taken,
// after inlining is undone.
type flatProfile struct {
	total  int64
	byFunc map[string]int64
}

// share returns the fraction of samples whose leaf function satisfies keep.
func (p flatProfile) share(keep func(fn string) bool) float64 {
	if p.total == 0 {
		return 0
	}
	var n int64
	for fn, c := range p.byFunc {
		if keep(fn) {
			n += c
		}
	}
	return float64(n) / float64(p.total)
}

// layerShares buckets the flat samples by import path: one entry per
// name in layers plus go_runtime and other. The entries sum to 1 when
// the profile holds any sample.
func (p flatProfile) layerShares() map[string]float64 {
	out := make(map[string]float64, len(layers)+2)
	for _, l := range append(layers, "go_runtime", "other") {
		out[l] = 0
	}
	if p.total == 0 {
		return out
	}
	for fn, c := range p.byFunc {
		out[bucketOf(fn)] += float64(c) / float64(p.total)
	}
	return out
}

// funcShare is one row of the top-N table.
type funcShare struct {
	name  string
	share float64
}

// top returns the n functions with the most flat samples.
func (p flatProfile) top(n int) []funcShare {
	var rows []funcShare
	for fn, c := range p.byFunc {
		rows = append(rows, funcShare{fn, float64(c) / float64(p.total)})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].share != rows[j].share {
			return rows[i].share > rows[j].share
		}
		return rows[i].name < rows[j].name
	})
	if len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// importPath returns the package path of a symbol name such as
// "firefly/internal/mbus.(*Bus).Step" or "runtime.mallocgc".
func importPath(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// bucketOf maps a symbol to its layer, go_runtime or other.
func bucketOf(fn string) string {
	path := importPath(fn)
	if mod, ok := strings.CutPrefix(path, modulePrefix); ok {
		for _, l := range layers {
			if mod == l {
				return l
			}
		}
		return "other"
	}
	if path == "runtime" || strings.HasPrefix(path, "runtime/") ||
		strings.HasPrefix(path, "internal/runtime/") {
		return "go_runtime"
	}
	return "other"
}

// parseCPUProfile decodes the gzipped profile.proto that
// runtime/pprof writes and returns its flat samples. Only the fields
// flat attribution needs are read: samples, locations, functions, and
// the string table.
func parseCPUProfile(data []byte) (flatProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return flatProfile{}, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return flatProfile{}, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		count int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id -> innermost function id
		funcName = map[uint64]int64{}  // function id -> string index
		strs     []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var locs, vals []uint64
			if err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					locs = appendVarints(locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{leaf: locs[0], count: int64(vals[0])})
			}
		case 4: // Location
			var id, fn uint64
			first := true
			if err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line; the first entry is the innermost inlined call.
					if first {
						first = false
						return eachField(b, func(f int, v uint64, _ []byte) error {
							if f == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			if err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return flatProfile{}, err
	}
	p := flatProfile{byFunc: map[string]int64{}}
	for _, s := range samples {
		name := "unknown"
		if idx, ok := funcName[locFunc[s.leaf]]; ok && idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		p.byFunc[name] += s.count
		p.total += s.count
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling visit with the field
// number and either the varint value (wire type 0) or the payload
// (wire type 2). Fixed-width fields are skipped.
func eachField(b []byte, visit func(field int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := visit(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := visit(field, 0, payload); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, given either one
// unpacked value (payload nil) or a packed payload.
func appendVarints(dst []uint64, v uint64, payload []byte) []uint64 {
	if payload == nil {
		return append(dst, v)
	}
	for len(payload) > 0 {
		x, n := uvarint(payload)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		payload = payload[n:]
	}
	return dst
}

// uvarint decodes a base-128 varint, returning the byte count (0 when
// the input ends early).
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
