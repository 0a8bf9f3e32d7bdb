package main

import (
	"bytes"
	"compress/gzip"
	_ "embed"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// Folding a CPU profile into layers, after the Terabit-Ethernet stack
// study's symbol_mapping.tsv: a committed table from function-name prefix
// to layer, applied to every sample. It shares nothing with the spans —
// different clock, different attribution — which is what makes it a
// check on them.

//go:embed symbol_map.tsv
var symbolMapTSV string

// profileLayers are the layers a sample can land in, in report order.
var profileLayers = []string{"dpdk", "netstack", "fastpath", "libvig", "nf", "engine", "runtime", "syscall", "harness"}

type symbolRule struct{ prefix, layer string }

func symbolRules() []symbolRule {
	var rules []symbolRule
	for _, line := range strings.Split(symbolMapTSV, "\n") {
		if f := strings.Split(line, "\t"); len(f) == 2 && !strings.HasPrefix(line, "#") {
			rules = append(rules, symbolRule{f[0], f[1]})
		}
	}
	return rules
}

func layerOf(rules []symbolRule, fn string) string {
	for _, r := range rules {
		if strings.HasPrefix(fn, r.prefix) {
			return r.layer
		}
	}
	return ""
}

// foldProfile returns each layer's share of the samples taken under the
// function whose name ends in within, and the share of them that fell in functions
// the table does not know. Stacks with no function of the harness on
// them — the runtime's background work — count too.
func foldProfile(gz []byte, within string) (shares map[string]float64, unmapped float64, err error) {
	all, err := decodeProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	rules := symbolRules()
	var stacks []stack
	for _, s := range all {
		ours, inside := false, false
		for _, fn := range s.funcs {
			ours = ours || layerOf(rules, fn) == "harness"
			inside = inside || strings.HasSuffix(fn, within)
		}
		if !ours || inside {
			stacks = append(stacks, s)
		}
	}
	shares = map[string]float64{}
	var total, unknown float64
	for _, s := range stacks {
		total += s.weight
		layer := "runtime"           // nothing but transparent frames
		for i, fn := range s.funcs { // innermost first
			l := layerOf(rules, fn)
			if l == "" {
				if i == len(s.funcs)-1 {
					layer = ""
				}
				continue
			}
			if l != "transparent" {
				layer = l
				break
			}
		}
		if layer == "" {
			unknown += s.weight
			continue
		}
		shares[layer] += s.weight
	}
	if total == 0 {
		return shares, 0, nil
	}
	for l := range shares {
		shares[l] /= total
	}
	return shares, unknown / total, nil
}

// stack is one profile sample: its weight and the functions on it,
// innermost first, inlined frames expanded.
type stack struct {
	weight float64
	funcs  []string
}

// decodeProfile reads the gzipped protobuf runtime/pprof writes
// (github.com/google/pprof/proto/profile.proto), keeping only what the
// fold needs. The standard library has no public reader for it.
func decodeProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []uint64
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]uint64{}   // function id -> string index
	var strs []string
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.vals = appendVarints(s.vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	stacks := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		st := stack{weight: float64(s.vals[len(s.vals)-1])} // the last value is CPU time
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[i])
				}
			}
		}
		stacks = append(stacks, st)
	}
	return stacks, nil
}

// eachField walks one protobuf message, handing each field to f: v for
// varint fields, b for length-delimited ones.
func eachField(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return fmt.Errorf("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("wire type %d", key&7)
		}
		if err := f(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints adds a repeated varint field's occurrence to dst: one
// value, or a packed run of them.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}
