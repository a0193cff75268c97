package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// modules are the layers CPU samples are charged to: every package under
// internal/, plus "http" for samples with no repo frame (the net/http
// server and client, the netpoller, the scheduler), "runtime.gc" for the
// background collector, "loadgen" for the benchmark's own frames, and
// "other" for repo packages added after this list.
var modules = []string{
	"http", "gateway", "shard", "core", "wire", "proto", "node", "workload",
	"kvstore", "sqlstore", "objstore", "mq", "telemetry", "trace", "tracing",
	"tsdb", "forecast", "powermgr", "power", "gpio", "chunklog", "bootos",
	"sim", "netsim", "model", "cluster", "experiments", "replay", "tco",
	"version", "runtime.gc", "loadgen", "other",
}

const repoPrefix = "microfaas/internal/"

// profSample is one CPU sample: its stack as function names, innermost
// frame first (inlined frames expanded), and the CPU time it stands for.
type profSample struct {
	frames []string
	cpuNs  int64
}

// moduleOf maps a function name to its module, or reports false for a
// frame outside the repository and the benchmark.
func moduleOf(fn string) (string, bool) {
	if strings.HasPrefix(fn, "main.") {
		return "loadgen", true
	}
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		if strings.HasPrefix(fn, "microfaas.") || strings.HasPrefix(fn, "microfaas/") {
			return "other", true
		}
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, m := range modules {
		if m == rest {
			return m, true
		}
	}
	return "other", true
}

// isGC reports whether a runtime frame belongs to the garbage collector.
func isGC(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" ||
		fn == "runtime.bgscavenge" || fn == "runtime.markroot" || fn == "runtime.GC"
}

// attribute charges each sample to the innermost repo or benchmark frame,
// so standard-library work counts against the layer that called it.
// Samples with no such frame go to "runtime.gc" when the collector is on
// the stack and to "http" otherwise. It returns CPU nanoseconds per module.
func attribute(samples []profSample) map[string]int64 {
	out := make(map[string]int64, len(modules))
	for _, s := range samples {
		mod := ""
		for _, f := range s.frames {
			if m, ok := moduleOf(f); ok {
				mod = m
				break
			}
		}
		if mod == "" {
			mod = "http"
			for _, f := range s.frames {
				if isGC(f) {
					mod = "runtime.gc"
					break
				}
			}
		}
		out[mod] += s.cpuNs
	}
	return out
}

// parseProfile decodes the samples of a gzipped pprof CPU profile. It
// reads only what attribution needs: the sample types (to find the "cpu"
// value), samples, locations, functions and the string table.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var (
		strs      []string
		typeNames []int64
		samples   []rawSample
		funcName  = map[uint64]int64{}    // function id -> name string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type, unit}
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typeNames = append(typeNames, int64(v))
				}
				return nil
			})
		case 2: // sample: Sample{location_id, value}
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, pb []byte) error {
				switch n {
				case 1:
					return eachVarint(w, v, pb, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(w, v, pb, func(x uint64) { s.vals = append(s.vals, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location: Location{id, line{function_id}}
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(lb, func(ln, _ int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function: Function{id, name}
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
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
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpu := len(typeNames) - 1
	for i, t := range typeNames {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if cpu < 0 || cpu >= len(s.vals) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		ps := profSample{cpuNs: s.vals[cpu]}
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				ps.frames = append(ps.frames, str(funcName[f]))
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. For varint fields v
// holds the value; for length-delimited fields b holds the payload.
func eachField(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("profile: short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("profile: bad length")
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("profile: short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field, packed or not.
func eachVarint(wire int, v uint64, packed []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(x)
		packed = packed[n:]
	}
	return nil
}

// cpuSplit is a CPU profile's time charged to modules.
type cpuSplit struct {
	ByModule map[string]int64 `json:"by_module"` // CPU ns per module
	TotalNs  int64            `json:"total_ns"`  // CPU ns of all samples
	Samples  int              `json:"samples"`
}

// charge attributes a profile's samples to modules.
func charge(samples []profSample) cpuSplit {
	c := cpuSplit{ByModule: attribute(samples), Samples: len(samples)}
	for _, s := range samples {
		c.TotalNs += s.cpuNs
	}
	return c
}

// add merges another profile's split into c.
func (c *cpuSplit) add(o cpuSplit) {
	if c.ByModule == nil {
		c.ByModule = map[string]int64{}
	}
	for m, ns := range o.ByModule {
		c.ByModule[m] += ns
	}
	c.TotalNs += o.TotalNs
	c.Samples += o.Samples
}

// cpuPerInv reports each module's CPU time per completed invocation and
// checks that attribution accounts for every sample.
func cpuPerInv(rep *report, c cpuSplit, completed int) {
	byMod, total := c.ByModule, c.TotalNs
	var attributed int64
	for _, m := range modules {
		attributed += byMod[m]
		rep.value(m+".cpu_us_per_inv", "us", per(float64(byMod[m])/1e3, completed), c.Samples)
	}
	byShare := append([]string(nil), modules...)
	sort.SliceStable(byShare, func(i, j int) bool { return byMod[byShare[i]] > byMod[byShare[j]] })
	var line strings.Builder
	for _, m := range byShare {
		if byMod[m] > 0 {
			fmt.Fprintf(&line, " %s %.1f%%", m, 100*float64(byMod[m])/float64(total))
		}
	}
	rep.notef("cpu by module (%d samples, %.2f s):%s", c.Samples, float64(total)/1e9, line.String())
	rep.check(total > 0 && attributed == total, fmt.Sprintf("cpu attribution covers %d of %d ns (must be 100%%)", attributed, total))
}
