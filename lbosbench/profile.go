package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// A profile is the part of a runtime/pprof protobuf profile the
// benchmark attributes: each sample's call stack as function names,
// innermost first, and its values in sampleTypes order.
type profile struct {
	sampleTypes []string // "type/unit", e.g. "cpu/nanoseconds"
	samples     []sample
}

type sample struct {
	stack  []string
	values []int64
	labels map[string]string // string-valued pprof labels, nil when none
}

// valueIndex returns the index of the sample type named typ (e.g.
// "cpu" or "alloc_objects"), or -1.
func (p *profile) valueIndex(typ string) int {
	for i, st := range p.sampleTypes {
		if len(st) > len(typ) && st[:len(typ)] == typ && st[len(typ)] == '/' {
			return i
		}
	}
	return -1
}

// parseProfile decodes a gzipped profile.proto document as written by
// runtime/pprof. It is a minimal protobuf reader: it follows only the
// fields named below and skips every other field by wire type.
//
//	Profile:  1 sample_type (ValueType)  2 sample (Sample)
//	          4 location (Location)      5 function (Function)
//	          6 string_table
//	ValueType: 1 type, 2 unit (string indexes)
//	Sample:   1 location_id (packed)     2 value (packed)   3 label
//	Label:    1 key, 2 str (string indexes)
//	Location: 1 id  4 line (Line: 1 function_id)
//	Function: 1 id  2 name (string index)
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs, values []uint64
		labels       [][2]uint64
	}
	var (
		strs      []string
		typeIdx   [][2]uint64
		raws      []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> name string index
	)
	err = eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1:
			t, err := pair(b)
			typeIdx = append(typeIdx, t)
			return err
		case 2:
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locs, w, v, b)
				case 2:
					return appendPacked(&s.values, w, v, b)
				case 3:
					l, err := pair(b)
					s.labels = append(s.labels, l)
					return err
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			f, err := pair(b)
			funcNames[f[0]] = f[1]
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &profile{}
	for _, t := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(t[0])+"/"+str(t[1]))
	}
	for _, r := range raws {
		s := sample{values: make([]int64, len(r.values))}
		for i, v := range r.values {
			s.values[i] = int64(v)
		}
		for _, l := range r.labels {
			if s.labels == nil {
				s.labels = map[string]string{}
			}
			s.labels[str(l[0])] = str(l[1])
		}
		for _, loc := range r.locs {
			for _, fn := range locFuncs[loc] {
				s.stack = append(s.stack, str(funcNames[fn]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// pair reads varint fields 1 and 2 of a message: a ValueType's or a
// Label's string indexes, a Function's id and name.
func pair(msg []byte) (p [2]uint64, err error) {
	err = eachField(msg, func(n, _ int, v uint64, _ []byte) error {
		if n == 1 || n == 2 {
			p[n-1] = v
		}
		return nil
	})
	return p, err
}

// eachField walks the top-level fields of one protobuf message. For
// varint fields fn receives the value in v; for length-delimited fields
// it receives the payload in b. Fixed-width fields are passed in v.
func eachField(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that may be encoded
// packed (one length-delimited run) or as individual varints.
func appendPacked(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
