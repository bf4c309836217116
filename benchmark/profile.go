package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profiles runtime/pprof writes (gzip-compressed
// profile.proto) with the standard library alone, and charges every sample to
// one layer of the program.

// stackSample is one profile sample: its frames' function names from leaf to
// root and its CPU time. A sample whose locations or functions could not be
// resolved has resolved == false.
type stackSample struct {
	frames   []string
	ns       int64
	resolved bool
}

// protoField is one decoded field of a protobuf message: a varint or the
// bytes of a length-delimited field.
type protoField struct {
	num    int
	varint uint64
	bytes  []byte // nil unless wire type 2
}

var errTruncated = errors.New("profile: truncated message")

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// eachField calls fn for every field of message b.
func eachField(b []byte, fn func(protoField) error) error {
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return err
		}
		b = rest
		f := protoField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			if f.varint, b, err = readVarint(b); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			n, rest, err := readVarint(b)
			if err != nil {
				return err
			}
			if uint64(len(rest)) < n {
				return errTruncated
			}
			f.bytes, b = rest[:n:n], rest[n:]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// appendInts appends a repeated integer field's values, packed or not.
func appendInts(dst []uint64, f protoField) ([]uint64, error) {
	if f.bytes == nil {
		return append(dst, f.varint), nil
	}
	for b := f.bytes; len(b) > 0; {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// decodeProfile parses a (possibly gzip-compressed) profile.proto and
// returns its samples with the last sample value (CPU nanoseconds in a CPU
// profile) as weight.
func decodeProfile(data []byte) ([]stackSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}

	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		raw       []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id → string index
		strs      []string
	)
	err := eachField(data, func(f protoField) error {
		switch f.num {
		case 2: // Sample
			var s rawSample
			err := eachField(f.bytes, func(f protoField) (err error) {
				switch f.num {
				case 1:
					s.locs, err = appendInts(s.locs, f)
				case 2:
					s.values, err = appendInts(s.values, f)
				}
				return err
			})
			raw = append(raw, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(f.bytes, func(f protoField) error {
				switch f.num {
				case 1:
					id = f.varint
				case 4: // Line
					return eachField(f.bytes, func(f protoField) error {
						if f.num == 1 {
							fns = append(fns, f.varint)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(f.bytes, func(f protoField) error {
				switch f.num {
				case 1:
					id = f.varint
				case 2:
					name = f.varint
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6:
			strs = append(strs, string(f.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]stackSample, 0, len(raw))
	for _, r := range raw {
		if len(r.values) == 0 {
			continue
		}
		s := stackSample{ns: int64(r.values[len(r.values)-1]), resolved: len(r.locs) > 0}
		for _, loc := range r.locs {
			fns, ok := locFuncs[loc]
			if !ok || len(fns) == 0 {
				s.resolved = false
				break
			}
			for _, fn := range fns {
				idx, ok := funcNames[fn]
				if !ok || idx >= uint64(len(strs)) {
					s.resolved = false
					break
				}
				s.frames = append(s.frames, strs[idx])
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// layers are the program's packages that the ledger reports, then the two
// buckets for stacks without a frame in any of them.
var layers = []string{
	"sim", "phy", "propagation", "mac", "linkquality", "metric", "odmrp", "mcst",
	"multicast", "node", "stats", "telemetry", "trace", "mobility", "testbed",
	"experiments", "topology",
	layerRuntimeBg, layerOther,
}

const (
	layerRuntimeBg = "runtime.bg" // GC and scheduler stacks with no program frame
	layerOther     = "other"      // the benchmark's own frames
	internalPrefix = "meshcast/internal/"
)

var layerSet = func() map[string]bool {
	m := make(map[string]bool, len(layers))
	for _, l := range layers {
		m[l] = true
	}
	return m
}()

// frameLayer returns the layer a function belongs to, or "" for a function
// outside the reported packages (standard library, runtime, helper packages
// such as packet and geom, the benchmark itself).
func frameLayer(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	if !layerSet[rest] {
		return ""
	}
	return rest
}

func isRuntimeFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/internal/") ||
		strings.HasPrefix(fn, "internal/runtime/")
}

// selfTime is the CPU time of one traced run split by layer.
type selfTime struct {
	totalNs int64
	byLayer map[string]int64
	// simQueueNs and simAllocNs split the sim layer: event-queue work, then
	// allocation outside the queue; the rest of sim is neither.
	simQueueNs int64
	simAllocNs int64
	// unresolvedNs is the weight of samples whose stack could not be decoded.
	unresolvedNs int64
}

// chargeSamples charges each sample to the first frame, walking from leaf to
// root, that belongs to a layer, so that container/heap, math and allocator
// frames count for the layer that called them. A stack with no such frame is
// runtime.bg when it is all runtime, else other.
func chargeSamples(samples []stackSample) selfTime {
	st := selfTime{byLayer: make(map[string]int64)}
	for _, s := range samples {
		st.totalNs += s.ns
		if !s.resolved {
			st.unresolvedNs += s.ns
			continue
		}
		layer := ""
		allRuntime := true
		for _, fn := range s.frames {
			if layer = frameLayer(fn); layer != "" {
				break
			}
			allRuntime = allRuntime && isRuntimeFrame(fn)
		}
		switch {
		case layer == "" && allRuntime:
			layer = layerRuntimeBg
		case layer == "":
			layer = layerOther
		}
		st.byLayer[layer] += s.ns
		if layer != "sim" {
			continue
		}
		queue, alloc := false, false
		for _, fn := range s.frames {
			queue = queue || strings.HasPrefix(fn, "container/heap.") || strings.Contains(fn, "eventQueue")
			alloc = alloc || fn == "runtime.mallocgc"
		}
		switch {
		case queue:
			st.simQueueNs += s.ns
		case alloc:
			st.simAllocNs += s.ns
		}
	}
	return st
}

func (st selfTime) share(ns int64) float64 {
	if st.totalNs == 0 {
		return 0
	}
	return float64(ns) / float64(st.totalNs)
}
