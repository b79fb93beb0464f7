package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profiler samples the process's CPU profile over one phase and
// attributes each sample's self time to the package of its leaf frame.
// The profile is decoded here with the standard library alone.
type profiler struct {
	buf bytes.Buffer
}

// startProfile begins sampling.
func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return p, nil
}

// stop ends sampling and returns each layer's share of the samples and
// the sample count.
func (p *profiler) stop() (map[string]float64, int64, error) {
	pprof.StopCPUProfile()
	self, total, err := selfByLayer(p.buf.Bytes())
	if err != nil {
		return nil, 0, err
	}
	shares := make(map[string]float64, len(self))
	for layer, n := range self {
		if total > 0 {
			shares[layer] = float64(n) / float64(total)
		}
	}
	return shares, total, nil
}

// layerOf maps a profiled function name to the layer it is counted in:
// the package name for this module's internal packages, "runtime" for
// the runtime and its internal packages, "bench" for this command, and
// the import path with '/' replaced by '_' otherwise ("nethttp" is the
// one abbreviation).
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation arguments hold dots and slashes
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "dqalloc/internal/"):
		rest := strings.TrimPrefix(pkg, "dqalloc/internal/")
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "math" || strings.HasPrefix(pkg, "math/"):
		return "math"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "nethttp"
	case pkg == "main":
		return "bench"
	}
	return strings.ReplaceAll(pkg, "/", "_")
}

// selfByLayer decodes a gzipped pprof CPU profile and sums each layer's
// self samples: a sample counts for the function of its leaf frame
// (the innermost inlined call at the first location).
func selfByLayer(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		count int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id → leaf function id
		funcName = map[uint64]int64{}  // function id → string index
		strs     []string
	)
	err = eachField(raw, func(field int, wire int, v uint64, msg []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			first, nvalues := true, 0
			err := eachField(msg, func(f, w int, v uint64, m []byte) error {
				switch f {
				case 1: // location_id, packed or not
					return eachVarint(w, v, m, func(id uint64) {
						if first {
							s.leaf, first = id, false
						}
					})
				case 2: // value: [samples, cpu ns]; keep the first
					return eachVarint(w, v, m, func(x uint64) {
						if nvalues == 0 {
							s.count = int64(x)
						}
						nvalues++
					})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			seenLine := false
			err := eachField(msg, func(f, w int, v uint64, m []byte) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && !seenLine: // first Line is the innermost frame
					seenLine = true
					return eachField(m, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(msg, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	self := map[string]int64{}
	var total int64
	for _, s := range samples {
		total += s.count
		idx := funcName[locFunc[s.leaf]]
		name := "unknown"
		if idx > 0 && idx < int64(len(strs)) {
			name = strs[idx]
		}
		self[layerOf(name)] += s.count
	}
	return self, total, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated integer field's values, whether the
// field was encoded packed (length-delimited) or as a single varint.
func eachVarint(wire int, v uint64, packed []byte, yield func(uint64)) error {
	if wire == 0 {
		yield(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errTruncated
		}
		yield(x)
		packed = packed[n:]
	}
	return nil
}
