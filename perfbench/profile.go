package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the benchmark's per-layer names: the root package
// ("campaign"), each internal package of the module, and "runtime" for
// samples with no powerfail frame at all (GC workers, the scheduler).
var layers = []string{
	"campaign", "core", "sim", "blockdev", "ssd", "ftl", "dram", "flash",
	"hdd", "array", "txn", "trace", "fleet", "workload", "content",
	"blktrace", "obs", "runstore", "power", "addr", "runtime",
}

// profile is the part of a pprof profile.proto that layer attribution
// needs. runtime/pprof writes the format; the module has no dependency
// that reads it, so this decodes the protobuf wire format directly.
type profile struct {
	sampleTypes []string // value names, e.g. "cpu", "alloc_space"
	samples     []sample
	locFuncs    map[uint64][]uint64 // location id → function ids, innermost first
	funcNames   map[uint64]string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// parseProfile decodes a gzipped (or plain) profile.proto.
func parseProfile(data []byte) (*profile, error) {
	if len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	var strs []string
	var typeIdx []int64
	funcNameIdx := map[uint64]int64{}
	err := walkFields(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type: ValueType{type=1, unit=2}
			var t int64
			err := walkFields(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					t = int64(v)
				}
				return nil
			})
			typeIdx = append(typeIdx, t)
			return err
		case 2: // sample: {location_id=1, value=2}
			var s sample
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location: {id=1, line=4 {function_id=1}}
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walkFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function: {id=1, name=2}
			var id uint64
			var name int64
			err := walkFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNameIdx[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}
	for _, i := range typeIdx {
		s, err := str(i)
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, s)
	}
	for id, i := range funcNameIdx {
		s, err := str(i)
		if err != nil {
			return nil, err
		}
		p.funcNames[id] = s
	}
	return p, nil
}

// walkFields calls fn for each field of a protobuf message: the varint
// (or fixed) value, or the bytes of a length-delimited field.
func walkFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length-delimited field")
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked (one
// value, b nil) or packed (b holds the varints).
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// layerOf maps a function name to its powerfail layer, or "" for a
// function outside the module (runtime, standard library, the benchmark's
// own code).
func layerOf(fn string) string {
	const internal = "powerfail/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		rest := fn[len(internal):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case strings.HasPrefix(fn, "powerfail."):
		return "campaign"
	}
	return ""
}

// attribute sums the named sample value per layer. A sample is charged to
// its innermost powerfail frame, so runtime work (allocation, map access,
// write barriers) counts toward the layer that called it; a sample with no
// powerfail frame is charged to "runtime".
func (p *profile) attribute(valueType string) (map[string]int64, error) {
	vi := -1
	for i, t := range p.sampleTypes {
		if t == valueType {
			vi = i
		}
	}
	if vi < 0 {
		return nil, fmt.Errorf("profile: no %q sample type (have %v)", valueType, p.sampleTypes)
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return nil, errors.New("profile: sample with too few values")
		}
		out[p.sampleLayer(s)] += s.values[vi]
	}
	return out, nil
}

func (p *profile) sampleLayer(s sample) string {
	for _, loc := range s.locs {
		for _, fid := range p.locFuncs[loc] {
			if l := layerOf(p.funcNames[fid]); l != "" {
				return l
			}
		}
	}
	return "runtime"
}
