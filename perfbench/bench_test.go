package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
	"time"
)

func TestPercentileSupport(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		q         float64
		value     float64
		supported bool
	}{
		{19, 0.5, 10, false}, // 9 samples beyond the median
		{20, 0.5, 10, true},  // 10 beyond
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
		{3, 0.99, 3, false},
		{1, 0.5, 1, false},
	} {
		p := percentile(seq(tc.n), tc.q)
		if p.Value != tc.value || p.Supported != tc.supported || p.N != tc.n {
			t.Errorf("n=%d q=%v: got %+v, want value %v supported %v", tc.n, tc.q, p, tc.value, tc.supported)
		}
	}
	if p := percentile(nil, 0.5); p.N != 0 || p.Supported {
		t.Errorf("empty set: got %+v", p)
	}
}

func TestSplitSelfTimes(t *testing.T) {
	base := time.Now()
	at := func(us int) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	// The runtime clock starts 100 us before base.
	abs := func(d time.Duration) time.Time { return base.Add(d - 100*time.Microsecond) }
	rt := func(us int) time.Duration { return time.Duration(us+100) * time.Microsecond }

	client := span{at(0), at(300)}
	handler := span{at(40), at(260)}
	job := jobSpan{submitted: rt(60), start: rt(80), end: rt(230), exec: 100 * time.Microsecond}
	lt, ok := split(client, handler, job, abs)
	if !ok {
		t.Fatal("nested spans reported as not nesting")
	}
	want := layerTimes{
		Client: 300 * time.Microsecond, Handler: 220 * time.Microsecond,
		Queue: 20 * time.Microsecond, RTT: 150 * time.Microsecond, Exec: 100 * time.Microsecond,
		HTTP: 80 * time.Microsecond, Gateway: 50 * time.Microsecond, Transport: 50 * time.Microsecond,
	}
	if lt != want {
		t.Fatalf("split = %+v, want %+v", lt, want)
	}
	if sum := lt.HTTP + lt.Gateway + lt.Queue + lt.Transport + lt.Exec; sum != lt.Client {
		t.Errorf("self times sum to %v, client span is %v", sum, lt.Client)
	}

	// A job finishing after its handler returned cannot be its child.
	late := job
	late.end = rt(270)
	if _, ok := split(client, handler, late, abs); ok {
		t.Error("job span outside the handler span passed the nesting check")
	}
	// A handler span outside the client span cannot be its child.
	if _, ok := split(client, span{at(40), at(320)}, job, abs); ok {
		t.Error("handler span outside the client span passed the nesting check")
	}
}

// pb is a minimal protobuf writer for building synthetic profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(field int, v uint64) {
	b.Write(binary.AppendUvarint(nil, uint64(field)<<3))
	b.Write(binary.AppendUvarint(nil, v))
}

func (b *pb) bytesField(field int, p []byte) {
	b.Write(binary.AppendUvarint(nil, uint64(field)<<3|2))
	b.Write(binary.AppendUvarint(nil, uint64(len(p))))
	b.Write(p)
}

func (b *pb) packed(field int, vs ...uint64) {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	b.bytesField(field, inner)
}

// syntheticProfile encodes a CPU profile whose samples have the given
// stacks (each a list of locations, each a list of function names,
// innermost first) and CPU times.
func syntheticProfile(t *testing.T, stacks [][][]string, cpuNs []int64) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	strIdx := map[string]uint64{}
	for i, s := range strs {
		strIdx[s] = uint64(i)
	}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	var prof pb
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m pb
		m.varint(1, strIdx[vt[0]])
		m.varint(2, strIdx[vt[1]])
		prof.bytesField(1, m.Bytes())
	}
	funcID := map[string]uint64{}
	var locID uint64
	for i, stack := range stacks {
		var locs []uint64
		for _, loc := range stack {
			locID++
			var l pb
			l.varint(1, locID)
			for _, fn := range loc {
				id, ok := funcID[fn]
				if !ok {
					id = uint64(len(funcID) + 1)
					funcID[fn] = id
					var f pb
					f.varint(1, id)
					f.varint(2, intern(fn))
					prof.bytesField(5, f.Bytes())
				}
				var line pb
				line.varint(1, id)
				l.bytesField(4, line.Bytes())
			}
			prof.bytesField(4, l.Bytes())
			locs = append(locs, locID)
		}
		var s pb
		s.packed(1, locs...)
		s.packed(2, 1, uint64(cpuNs[i]))
		prof.bytesField(2, s.Bytes())
	}
	for _, s := range strs {
		prof.bytesField(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes()) //nolint:errcheck // bytes.Buffer never fails
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestAttributeInnermostFrame(t *testing.T) {
	stacks := [][][]string{
		// stdlib JSON decoding called from the wire codec, called from
		// proto: charged to wire, the innermost repo frame.
		{{"encoding/json.(*decodeState).object"}, {"microfaas/internal/wire.ReadJSONInto"}, {"microfaas/internal/proto.(*Conn).Call"}, {"main.main"}},
		// An inlined sim frame inside a core frame, one location: the
		// first line is the innermost.
		{{"microfaas/internal/sim.(*Engine).Step", "microfaas/internal/core.(*Orchestrator).completed"}},
		// No repo frame, the collector on the stack.
		{{"runtime.scanobject"}, {"runtime.gcDrain"}, {"runtime.gcBgMarkWorker"}},
		// No repo frame, no collector: the HTTP edge.
		{{"syscall.write"}, {"net/http.(*conn).serve"}},
		// The benchmark's own client.
		{{"net/http.(*Client).Do"}, {"main.(*client).do"}},
		// powermgr must not be mistaken for power.
		{{"microfaas/internal/powermgr.(*Manager).tick"}},
		// A package added after the module list.
		{{"microfaas/internal/newpkg.F"}},
	}
	cpu := []int64{100, 20, 30, 40, 50, 60, 70}
	samples, err := parseProfile(syntheticProfile(t, stacks, cpu))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Fatalf("parsed %d samples, want %d", len(samples), len(stacks))
	}
	got := attribute(samples)
	want := map[string]int64{"wire": 100, "sim": 20, "runtime.gc": 30, "http": 40, "loadgen": 50, "powermgr": 60, "other": 70}
	for m, ns := range want {
		if got[m] != ns {
			t.Errorf("%s: got %d ns, want %d", m, got[m], ns)
		}
	}
	var total int64
	for _, m := range modules {
		total += got[m]
	}
	if total != 370 {
		t.Errorf("modules account for %d ns of 370", total)
	}

	// Splits from several profiles (one per sim child) merge by module.
	var merged cpuSplit
	merged.add(charge(samples))
	merged.add(charge(samples))
	if merged.TotalNs != 740 || merged.Samples != 14 || merged.ByModule["wire"] != 200 {
		t.Errorf("merged split = %+v, want 740 ns over 14 samples, wire 200 ns", merged)
	}
}
