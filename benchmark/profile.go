package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the gzipped profile.proto that runtime/pprof writes,
// keeping only what attribution needs: each sample's CPU nanoseconds and
// its stack as function names, innermost first (inlined frames expanded).

// cpuSample is one profile sample: CPU time and the stack, leaf first.
type cpuSample struct {
	nanos int64
	stack []string
}

// layerOf maps a function name to the repository module that owns it:
// "subgraphmr/internal/cq.(*Evaluator).extend" → "cq", "subgraphmr.Run" →
// "subgraphmr". Frames outside the repository map to "".
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "subgraphmr/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "subgraphmr.") {
		return "subgraphmr"
	}
	return ""
}

// Layers a profile sample is charged to when no repository frame is on
// its stack: the benchmark's own client code, or the Go runtime (GC,
// scheduler, network poller).
const (
	layerBench   = "bench"
	layerRuntime = "runtime"
)

// attribute charges each sample to the innermost repository frame on its
// stack, so slices.Sort under graph.buildCSR counts as "graph". A sample
// without one goes to layerBench if the benchmark's main package is on the
// stack, else to layerRuntime. It returns CPU seconds per layer.
func attribute(samples []cpuSample) map[string]float64 {
	busy := map[string]float64{}
	for _, s := range samples {
		layer := ""
		for _, fn := range s.stack {
			if layer = layerOf(fn); layer != "" {
				break
			}
		}
		if layer == "" {
			layer = layerRuntime
			for _, fn := range s.stack {
				if strings.HasPrefix(fn, "main.") {
					layer = layerBench
					break
				}
			}
		}
		busy[layer] += float64(s.nanos) / 1e9
	}
	return busy
}

// parseCPUProfile decodes a gzipped CPU profile.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct{ locs, values []uint64 }
	var (
		strs       []string
		sampleType []int64 // string index of each value's type
		samples    []rawSample
		locLines   = map[uint64][]uint64{} // location id → function ids, innermost first
		funcName   = map[uint64]int64{}    // function id → string index
	)
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					sampleType = append(sampleType, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendPacked(&s.locs, w, v, b)
				case 2:
					return appendPacked(&s.values, w, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
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
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	cpu := -1
	for i, t := range sampleType {
		if t >= 0 && t < int64(len(strs)) && strs[t] == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		cs := cpuSample{nanos: int64(s.values[cpu])}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				cs.stack = append(cs.stack, str(funcName[fn]))
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// walkFields calls fn for every field of one protobuf message: v holds a
// varint or fixed-width value, b a length-delimited payload.
func walkFields(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var (
			v uint64
			b []byte
		)
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field in either encoding.
func appendPacked(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst, b = append(*dst, x), b[n:]
	}
	return nil
}
