package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// A CPU profile as runtime/pprof writes it: a gzipped profile.proto message.
// Only the fields the CPU-share attribution needs are decoded here, so the
// benchmark needs nothing beyond the standard library.

// pbField is one decoded protobuf field: a varint, or a length-delimited
// byte slice.
type pbField struct {
	num   int
	wire  int
	v     uint64
	bytes []byte
}

func pbFields(b []byte, f func(pbField) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		fl := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch fl.wire {
		case 0:
			fl.v, n = pbVarint(b)
			if n == 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			fl.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return errors.New("profile: unknown wire type")
		}
		if err := f(fl); err != nil {
			return err
		}
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// pbUints appends a repeated uint64 field, packed or not.
func pbUints(dst []uint64, fl pbField) []uint64 {
	if fl.wire == 0 {
		return append(dst, fl.v)
	}
	for b := fl.bytes; len(b) > 0; {
		v, n := pbVarint(b)
		if n == 0 {
			break
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst
}

type pbSample struct {
	locs   []uint64
	values []uint64
	labels [][2]uint64 // (key, str) string-table indices
}

// cpuShares attributes each CPU sample to a layer: runtime_gc when any frame
// is garbage-collector work, else the innermost frame in one of the engine's
// packages, else "bench" for the benchmark's own code and "other" for the
// rest. It returns the share of samples per layer and, per pprof "call"
// label value, the share of samples taken under that label.
func cpuShares(gz []byte) (layers, labels map[string]float64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, err
	}
	var (
		samples []pbSample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = pbFields(raw, func(fl pbField) error {
		switch fl.num {
		case 2: // sample
			var s pbSample
			err := pbFields(fl.bytes, func(f pbField) error {
				switch f.num {
				case 1:
					s.locs = pbUints(s.locs, f)
				case 2:
					s.values = pbUints(s.values, f)
				case 3:
					var kv [2]uint64
					_ = pbFields(f.bytes, func(g pbField) error {
						if g.num == 1 || g.num == 2 {
							kv[g.num-1] = g.v
						}
						return nil
					})
					s.labels = append(s.labels, kv)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(fl.bytes, func(f pbField) error {
				switch f.num {
				case 1:
					id = f.v
				case 4: // line
					return pbFields(f.bytes, func(g pbField) error {
						if g.num == 1 {
							fns = append(fns, g.v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(fl.bytes, func(f pbField) error {
				switch f.num {
				case 1:
					id = f.v
				case 2:
					name = f.v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(fl.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	layers, labels = map[string]float64{}, map[string]float64{}
	var total float64
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		n := float64(s.values[0])
		total += n
		var names []string
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				names = append(names, str(funcs[fn]))
			}
		}
		layers[layerOf(names)] += n
		for _, kv := range s.labels {
			if str(kv[0]) == "call" {
				labels[str(kv[1])] += n
			}
		}
	}
	if total == 0 {
		return nil, nil, errors.New("profile: no CPU samples")
	}
	for k := range layers {
		layers[k] /= total
	}
	for k := range labels {
		labels[k] /= total
	}
	return layers, labels, nil
}

// gcFrames are runtime functions that only garbage-collector work runs.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject",
}

// layerOf names the layer a stack (innermost frame first) is charged to.
func layerOf(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return "runtime_gc"
			}
		}
	}
	const prefix = "smdb/internal/"
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, prefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
	}
	return "other"
}
