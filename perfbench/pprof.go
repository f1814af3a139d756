package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profiles runtime/pprof writes (gzipped
// profile.proto) far enough to attribute each sample to the package of
// its leaf frame. Only the standard library is available, so the few
// protobuf fields needed are decoded by hand.

// layerProfile is a CPU profile's samples grouped by layer.
type layerProfile struct {
	samples  map[string]int64 // per layer
	total    int64
	periodNs int64 // CPU time one sample stands for
}

// share returns the fraction of samples whose leaf frame is in layer.
func (p layerProfile) share(layer string) float64 {
	return float64(p.samples[layer]) / float64(p.total)
}

// selfNs returns the CPU time, in ns, the profile attributes to layer.
func (p layerProfile) selfNs(layer string) float64 {
	return float64(p.samples[layer] * p.periodNs)
}

// layerSamples attributes a profile's samples to layers: the package of
// the innermost (leaf) frame, mapped by layerOf.
func layerSamples(gz []byte) (layerProfile, error) {
	leaves, period, err := leafSamples(gz)
	if err != nil {
		return layerProfile{}, err
	}
	p := layerProfile{samples: map[string]int64{}, periodNs: period}
	for fn, n := range leaves {
		p.samples[layerOf(packageOf(fn))] += n
		p.total += n
	}
	return p, nil
}

// packageOf returns the import path of a function symbol as pprof
// names it, e.g. "impress/internal/memctrl" for
// "impress/internal/memctrl.(*Controller).schedule".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain paths and dots
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf maps an import path to a reported layer: the repository's
// internal packages by their own name, the Go runtime (with its
// internal/runtime/... helpers such as the map implementation) as
// "runtime", two standard-library packages the result store leans on,
// and everything else as "other".
func layerOf(pkg string) string {
	switch {
	case strings.HasPrefix(pkg, "impress/internal/"):
		name := strings.TrimPrefix(pkg, "impress/internal/")
		for _, l := range profiledLayers {
			if l == name {
				return l
			}
		}
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "encoding/json", pkg == "compress/flate":
		return strings.ReplaceAll(pkg, "/", "_")
	}
	return "other"
}

// Field numbers of profile.proto.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profStrings  = 6
	profPeriod   = 12

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

// leafSamples returns, per leaf function name, the sum of each sample's
// first value (the sample count in a CPU profile), and the profile's
// sampling period.
func leafSamples(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	var period int64
	type sample struct{ leaf, count uint64 }
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id -> leaf function id
		funcName = map[uint64]int64{}  // function id -> string index
		strs     []string
	)
	err = fields(raw, func(num, wire int, v uint64, b []byte) error {
		switch {
		case num == profSample && wire == 2:
			var s sample
			var seenLoc, seenVal bool
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case sampleLocation:
					ids, err := uints(wire, v, b)
					if err == nil && !seenLoc && len(ids) > 0 {
						s.leaf, seenLoc = ids[0], true
					}
					return err
				case sampleValue:
					vals, err := uints(wire, v, b)
					if err == nil && !seenVal && len(vals) > 0 {
						s.count, seenVal = vals[0], true
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case num == profLocation && wire == 2:
			var id, fn uint64
			seenLine := false
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch {
				case num == locationID && wire == 0:
					id = v
				case num == locationLine && wire == 2 && !seenLine:
					// The first line is the innermost inlined frame.
					seenLine = true
					return fields(b, func(num, wire int, v uint64, _ []byte) error {
						if num == lineFunction && wire == 0 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case num == profFunction && wire == 2:
			var id uint64
			var name int64
			err := fields(b, func(num, wire int, v uint64, _ []byte) error {
				switch {
				case num == functionID && wire == 0:
					id = v
				case num == functionName && wire == 0:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case num == profStrings && wire == 2:
			strs = append(strs, string(b))
		case num == profPeriod && wire == 0:
			period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	out := map[string]int64{}
	for _, s := range samples {
		name := ""
		if fid, ok := locFunc[s.leaf]; ok {
			if si, ok := funcName[fid]; ok && si >= 0 && si < int64(len(strs)) {
				name = strs[si]
			}
		}
		out[name] += int64(s.count)
	}
	return out, period, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks a protobuf message, calling fn with each field's number
// and wire type, and its value (varint) or payload (length-delimited).
func fields(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			if v, n = varint(b); n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errTruncated
			}
			b = b[size:]
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// uints decodes a repeated integer field in either encoding: one
// varint, or a packed run of them.
func uints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := varint(b)
		if n == 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}

// varint decodes one base-128 varint, returning 0 bytes read on
// truncated or overlong input.
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
