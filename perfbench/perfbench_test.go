package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
	"time"

	"mealib/internal/telemetry"
)

// TestFlippedBitIsCaught flips single bits of real outputs and expects the
// output check to name the element.
func TestFlippedBitIsCaught(t *testing.T) {
	w, err := newOOC(7)
	if err != nil {
		t.Fatal(err)
	}
	ooc := w.(*oocWL)
	defer ooc.close()
	if _, err := ooc.unit(nil, 0); err != nil {
		t.Fatalf("clean pass: %v", err)
	}
	got, err := ooc.y.LoadFloat32s(0, oocElems)
	if err != nil {
		t.Fatal(err)
	}
	for _, bit := range []uint{0, 22, 23, 31} { // mantissa LSB and MSB, exponent LSB, sign
		for _, i := range []int{0, oocElems / 3, oocElems - 1} {
			flipped := append([]float32(nil), got...)
			flipped[i] = math.Float32frombits(math.Float32bits(flipped[i]) ^ 1<<bit)
			if d := diffFloat32(flipped, ooc.ref[0]); d != i {
				t.Errorf("bit %d of element %d flipped: check reports %d", bit, i, d)
			}
			c := []complex64{complex(got[0], got[i]), complex(got[i], got[0])}
			re := []complex64{c[0], complex(flipped[i], got[0])}
			im := []complex64{complex(got[0], flipped[i]), c[1]}
			if diffComplex64(c, c) != -1 || diffComplex64(re, c) != 1 || diffComplex64(im, c) != 0 {
				t.Errorf("complex check misses bit %d of element %d", bit, i)
			}
		}
	}
	// The same flip in the reference makes the workload's own unit fail.
	ooc.ref[1][12345] = math.Float32frombits(math.Float32bits(ooc.ref[1][12345]) ^ 1)
	if _, err := ooc.unit(nil, 1); !errors.Is(err, errMismatch) {
		t.Fatalf("unit with one flipped reference bit: err %v, want a mismatch", err)
	}
}

// TestSelfTimeArithmetic checks self times on a hand-built span tree: a
// span's self time is its duration minus what its children cover, and the
// self times of a unit add up to the unit's duration.
func TestSelfTimeArithmetic(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{name: "unit", layer: "bench", unit: 1, parent: -1, start: ms(0), end: ms(100)},
		{name: "a", layer: "apps", unit: 1, parent: 0, start: ms(10), end: ms(30)},
		{name: "b", layer: "mealibrt", unit: 1, parent: 0, start: ms(40), end: ms(90)},
		{name: "c", layer: "bench", unit: 1, parent: 2, start: ms(50), end: ms(60)},
		{name: "unit", layer: "bench", unit: 2, parent: -1, start: ms(100), end: ms(130)},
		{name: "a", layer: "apps", unit: 2, parent: 4, start: ms(100), end: ms(130)},
	}
	want := []time.Duration{ms(30), ms(20), ms(40), ms(10), 0, ms(30)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time %v, want %v", i, got[i], want[i])
		}
	}
	tr := &tracer{tracks: []*track{{name: "t", spans: spans}}}
	ls, err := tr.split()
	if err != nil {
		t.Fatal(err)
	}
	if ls.units != 2 || ls.wall != ms(130) {
		t.Fatalf("units %d wall %v, want 2 and 130ms", ls.units, ls.wall)
	}
	wantLayer := map[string]time.Duration{"bench": ms(40), "apps": ms(50), "mealibrt": ms(40)}
	var sum time.Duration
	for l, d := range wantLayer {
		if ls.self[l] != d {
			t.Errorf("layer %s self %v, want %v", l, ls.self[l], d)
		}
		sum += ls.self[l]
	}
	if sum != ls.wall {
		t.Errorf("layer self times sum to %v, units took %v", sum, ls.wall)
	}

	// A child that leaks past its parent is clipped, never counted twice.
	clip := selfTimes([]span{
		{parent: -1, start: ms(0), end: ms(10)},
		{parent: 0, start: ms(5), end: ms(15)},
	})
	if clip[0] != ms(5) {
		t.Errorf("clipped parent self %v, want 5ms", clip[0])
	}
	// A span that names another unit than its root is refused.
	bad := &tracer{tracks: []*track{{name: "t", spans: []span{
		{name: "unit", unit: 1, parent: -1, start: 0, end: ms(2)},
		{name: "x", unit: 2, parent: 0, start: 0, end: ms(1)},
	}}}}
	if _, err := bad.split(); err == nil {
		t.Error("split accepted a span carrying another unit's id")
	}
}

// TestServeSpansShareRequestID traces a short closed loop against a real
// server: every span of a request carries the request's id, the per-layer
// self times of each request add up to its wall time, and the Chrome trace
// validates.
func TestServeSpansShareRequestID(t *testing.T) {
	w, err := newServe(3)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	p := w.closedLoop(200*time.Millisecond, tr, 0)
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	if len(p.errs) > 0 || p.units == 0 {
		t.Fatalf("%d requests, errors %v", p.units, p.errs)
	}
	seen := map[int64]bool{}
	for _, tk := range tr.tracks {
		var root span
		for _, s := range tk.spans {
			if s.parent < 0 {
				root = s
				if seen[s.unit] {
					t.Fatalf("request id %d used twice", s.unit)
				}
				seen[s.unit] = true
				continue
			}
			if s.unit != root.unit {
				t.Fatalf("span %s has id %d inside request %d", s.name, s.unit, root.unit)
			}
		}
	}
	if len(seen) != p.units {
		t.Fatalf("%d request roots for %d requests", len(seen), p.units)
	}
	if _, err := tr.split(); err != nil {
		t.Fatal(err)
	}
	data, err := tr.chromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	tc, err := telemetry.ValidateChromeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if tc.Spans["bench"] != 2*p.units || tc.Spans["mealibd"] != 4*p.units {
		t.Fatalf("trace holds %v spans for %d requests", tc.Spans, p.units)
	}
}

// TestConserveCatchesMissingPart: parts that add up pass, a dropped part
// fails even against large running totals.
func TestConserveCatchesMissingPart(t *testing.T) {
	ov, acc := 4.5e-4, 1.43e-3
	if err := conserve("time", ov+acc, 1e3, ov, acc); err != nil {
		t.Fatal(err)
	}
	if err := conserve("time", ov+acc, 1e3*(ov+acc), acc); err == nil {
		t.Fatal("a missing part passed")
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the metric
// catalogue in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string }         `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the command %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not in the command", w.Name)
		}
	}
	same := func(kind string, defs []metricDef, names, units []string) {
		if len(names) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalogue %d", kind, len(names), len(defs))
			return
		}
		for i, d := range defs {
			if names[i] != d.name || units[i] != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], catalogue %s [%s]", kind, i, names[i], units[i], d.name, d.unit)
			}
		}
	}
	var n, u []string
	for _, m := range b.EndToEnd {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	same("end_to_end", endToEnd, n, u)
	n, u = nil, nil
	for _, m := range b.PerLayer {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	same("per_layer", perLayer, n, u)
}
