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

// The traced run records a CPU profile and credits each sample to the
// innermost frame of a program module (jmake/internal/<module>). The
// resulting in-situ shares are printed beside the replayed span times:
// if a replay misprices a layer, the two disagree visibly. Samples with
// no module frame go to "runtime" when runtime code (GC, scheduler) is
// on the stack and to "other" otherwise (HTTP plumbing, the benchmark's
// own load generator).

const modulePrefix = "jmake/internal/"

// moduleOf names the program module a fully qualified function belongs
// to, or "" for code outside jmake/internal.
func moduleOf(fn string) string {
	if !strings.HasPrefix(fn, modulePrefix) {
		return ""
	}
	rest := fn[len(modulePrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// profileShares decodes a gzipped pprof CPU profile and returns each
// module's share of the sampled CPU time.
func profileShares(data []byte) (map[string]float64, int, error) {
	stacks, err := decodeProfile(data)
	if err != nil {
		return nil, 0, err
	}
	weight := make(map[string]int64)
	var total int64
	for _, st := range stacks {
		total += st.value
		weight[attribute(st.frames)] += st.value
	}
	shares := make(map[string]float64, len(weight))
	for m, w := range weight {
		shares[m] = ratio(float64(w), float64(total))
	}
	return shares, len(stacks), nil
}

// attribute credits one stack (innermost frame first).
func attribute(frames []string) string {
	runtime := false
	for _, f := range frames {
		if m := moduleOf(f); m != "" {
			return m
		}
		if strings.HasPrefix(f, "runtime.") {
			runtime = true
		}
	}
	if runtime {
		return "runtime"
	}
	return "other"
}

// stack is one decoded sample: function names innermost first, and its
// CPU time in nanoseconds.
type stack struct {
	frames []string
	value  int64
}

// decodeProfile reads the parts of the pprof protobuf format (see
// github.com/google/pprof/proto/profile.proto) needed to name each
// sample's frames: samples, locations with their (possibly inlined)
// lines, functions and the string table.
func decodeProfile(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		strs    []string
		locFns  = make(map[uint64][]uint64) // location → function IDs, innermost first
		fnName  = make(map[uint64]int64)    // function → string index
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendUints(s.locs, wire, v, b)
				case 2:
					for _, u := range appendUints(nil, wire, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		var st stack
		if len(s.values) > 1 {
			st.value = s.values[1] // cpu nanoseconds
		} else if len(s.values) == 1 {
			st.value = s.values[0]
		}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// fields walks one protobuf message, calling fn with each field's number
// and wire type, and its varint value or length-delimited bytes.
func fields(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
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
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unknown wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field, packed or not.
func appendUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
