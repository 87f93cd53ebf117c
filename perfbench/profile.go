package main

// A minimal reader for the gzipped protobuf CPU profiles runtime/pprof
// writes (the profile.proto format). The module vendors no pprof
// parser, so this decodes only the fields the layer attribution needs:
// each sample's stack and sample count, and the function names behind
// the stack's locations.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Field numbers of profile.proto.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

// stackSample is one profile sample: its stack, innermost frame first
// (inlined frames expanded), and how many CPU samples it stands for.
type stackSample struct {
	frames []string
	count  int64
}

// parseProfile decodes a gzipped CPU profile.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []rawSample
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case profSample:
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case sampleLocationID:
					s.locs = appendVarints(s.locs, v, b)
				case sampleValue:
					s.values = appendVarints(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == lineFunctionID {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case profStringTable:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errors.New("profile: sample without values")
		}
		ss := stackSample{count: int64(s.values[0])}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i >= 0 && i < int64(len(strs)) {
					ss.frames = append(ss.frames, strs[i])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// eachField walks a protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields, which the reader needs none of, are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
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
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, which the encoder
// writes either packed (data set) or one value per field (v set).
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
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

// packageLayer maps a distws/internal package to the layer its CPU
// samples count under. Helper packages with no layer of their own
// (rng) return "", so the sample goes to the next frame out.
func packageLayer(pkg string) string {
	name := strings.TrimPrefix(pkg, "distws/internal/")
	switch {
	case name == "sim/par":
		return "par"
	case name == "sample":
		return "victim"
	case name == "trace", name == "obs", strings.HasPrefix(name, "obs/"):
		return "obs"
	}
	switch name {
	case "sim", "uts", "victim", "comm", "topology", "term", "workstack", "core", "serve":
		return name
	}
	return ""
}

// funcPackage returns the import path of a symbol name such as
// "distws/internal/sim.(*Kernel).siftDown".
func funcPackage(sym string) string {
	slash := strings.LastIndexByte(sym, '/')
	if dot := strings.IndexByte(sym[slash+1:], '.'); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}

// attribute assigns a sample to the layer of its innermost
// distws/internal frame, so SHA-1 lands under uts, sort under par and
// allocation under its caller. A sample whose innermost distws frame is
// this benchmark's own code is probe overhead. Samples with no distws
// frame are background garbage collection or other runtime work.
func attribute(frames []string) string {
	for _, f := range frames {
		pkg := funcPackage(f)
		if pkg == "main" {
			return "probe"
		}
		if strings.HasPrefix(pkg, "distws/internal/") {
			if l := packageLayer(pkg); l != "" {
				return l
			}
		}
	}
	for _, f := range frames {
		switch f {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			return "gc"
		}
	}
	return "other"
}
