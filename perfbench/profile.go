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

// modules are the layers CPU time is attributed to, named after the
// repository's packages; "other" takes the standard library and the
// benchmark itself.
var modules = []string{"core", "detect", "memory", "vmem", "diff", "proto", "transport", "sched", "apps", "runtime", "other"}

// moduleOf buckets a function name from a CPU profile.  The public midway
// package and the protocol's support packages (stats, clock, cost, obs,
// race, health, member) count as core.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "midway/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		switch pkg {
		case "detect", "untargetted":
			return "detect"
		case "memory", "vmem", "diff", "proto", "transport", "sched", "apps":
			return pkg
		}
		return "core"
	}
	if strings.HasPrefix(fn, "midway.") {
		return "core"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// leafSamples decodes a gzipped pprof profile and returns, per leaf
// function name, the sum of the first sample value (the sample count in
// a CPU profile).  The leaf is the innermost inlined function of a
// sample's first location.  Only the fields this needs are decoded.
func leafSamples(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		loc   uint64
		value int64
	}
	var (
		samples []sample
		locFunc = map[uint64]uint64{} // location id → leaf function id
		funName = map[uint64]int64{}  // function id → string index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			// Both repeated fields may be packed or not; only the first
			// element of each is needed.
			var s sample
			haveLoc, haveValue := false, false
			err := eachField(b, func(num int, v uint64, b []byte) error {
				if b != nil {
					v, _ = binary.Uvarint(b)
				}
				switch {
				case num == 1 && !haveLoc: // location_id, leaf first
					s.loc, haveLoc = v, true
				case num == 2 && !haveValue: // value
					s.value, haveValue = int64(v), true
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			gotLine := false
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined call
					if !gotLine {
						gotLine = true
						return eachField(b, func(num int, v uint64, _ []byte) error {
							if num == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range samples {
		name := "?"
		if i, ok := funName[locFunc[s.loc]]; ok && i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		out[name] += s.value
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value (b nil) or its length-delimited
// bytes.  Fixed-width fields are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errBadProfile
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errBadProfile
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errBadProfile
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errBadProfile
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errBadProfile
			}
			msg = msg[4:]
		default:
			return errBadProfile
		}
	}
	return nil
}

var errBadProfile = errors.New("profile: malformed protobuf")

// moduleShares buckets leaf samples by module and returns each module's
// share of all samples.
func moduleShares(leaves map[string]int64) map[string]float64 {
	var total int64
	by := map[string]int64{}
	for fn, n := range leaves {
		by[moduleOf(fn)] += n
		total += n
	}
	out := map[string]float64{}
	for _, m := range modules {
		if total > 0 {
			out[m] = float64(by[m]) / float64(total)
		}
	}
	return out
}
