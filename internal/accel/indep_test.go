package accel

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"mealib/internal/descriptor"
	"mealib/internal/phys"
	"mealib/internal/telemetry"
)

// loopIndependent is loopIndependence as a yes/no answer.
func loopIndependent(counts descriptor.LoopCounts, passes [][]passInstr, iters int64) bool {
	return loopIndependence(counts, passes, iters) == indepParallel
}

// loopIndependentFullSweep is the unfiltered check: it materialises every
// span of every iteration and sweeps them all. It is the oracle the
// hull-filtered loopIndependence must agree with below the event cap.
func loopIndependentFullSweep(counts descriptor.LoopCounts, passes [][]passInstr, iters int64) bool {
	spansPerIter := 0
	for _, p := range passes {
		for range p {
			spansPerIter += 5 // upper bound per comp (SPMV)
		}
	}
	if spansPerIter == 0 || iters*int64(spansPerIter) > indepMaxEvents {
		return false
	}
	events := make([]iterEvent, 0, iters*int64(spansPerIter))
	for idx := int64(0); idx < iters; idx++ {
		it := iterVecAt(counts, idx)
		for _, pass := range passes {
			for _, pi := range pass {
				spans, err := ioSpansOf(pi.op, pi.params, it)
				if err != nil || spans == nil {
					return false
				}
				for _, sp := range spans {
					if sp.bytes <= 0 {
						continue
					}
					start := uint64(sp.addr)
					end := start + uint64(sp.bytes)
					if end < start { // address wrap: unresolvable
						return false
					}
					events = append(events, iterEvent{start: start, end: end, iter: idx, write: sp.write})
				}
			}
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].start < events[j].start })
	reads, writes := newTop2(), newTop2()
	for _, e := range events {
		if writes.reaches(e.start, e.iter) {
			return false
		}
		if e.write {
			if reads.reaches(e.start, e.iter) {
				return false
			}
			writes.add(e.end, e.iter)
		} else {
			reads.add(e.end, e.iter)
		}
	}
	return true
}

// randNest draws a random 1-4 level loop nest over 1-3 AXPY/DOT/RESMP/FFT
// comps in one or two passes. Buffers come from a small pool of bases so
// operands are disjoint, shared, partially overlapping or identical by
// chance; the pool includes addresses near both ends of the address space,
// and strides include negative and overflowing ones, so some nests wrap.
func randNest(rng *rand.Rand) (descriptor.LoopCounts, [][]passInstr) {
	var counts descriptor.LoopCounts
	levels := 1 + rng.Intn(descriptor.MaxLoopLevels)
	for l := descriptor.MaxLoopLevels - levels; l < descriptor.MaxLoopLevels; l++ {
		counts[l] = uint32(1 + rng.Intn(6))
	}
	bases := []phys.Addr{0x1000, 0x1000, 0x1010, 0x1040, 0x2000, 0x8000, 0x40,
		phys.Addr(math.MaxUint64 - 0x30), phys.Addr(math.MaxUint64 - 0x400)}
	addr := func() phys.Addr { return bases[rng.Intn(len(bases))] }
	strideChoices := []int64{0, 0, 4, 8, 16, 32, 64, 256, -8, -64, 1 << 62, -(1 << 62), math.MinInt64}
	strides := func() Strides {
		var s Strides
		for l := descriptor.MaxLoopLevels - levels; l < descriptor.MaxLoopLevels; l++ {
			s[l] = strideChoices[rng.Intn(len(strideChoices))]
		}
		return s
	}
	comp := func() passInstr {
		n := int64(1 + rng.Intn(8))
		switch rng.Intn(4) {
		case 0:
			return passInstr{op: descriptor.OpAXPY, params: AxpyArgs{
				N: n, X: addr(), Y: addr(), IncX: 1, IncY: int64(1 + rng.Intn(2)),
				LoopStrideX: strides(), LoopStrideY: strides(),
			}.Params()}
		case 1:
			return passInstr{op: descriptor.OpDOT, params: DotArgs{
				N: n, Complex: rng.Intn(2) == 0, X: addr(), Y: addr(), Out: addr(), IncX: 1, IncY: 1,
				LoopStrideX: strides(), LoopStrideY: strides(), LoopStrideOut: strides(),
			}.Params()}
		case 2:
			return passInstr{op: descriptor.OpRESMP, params: ResmpArgs{
				NIn: 2 + n, NOut: n, Kind: int64(rng.Intn(4)), Src: addr(), Dst: addr(),
				LoopStrideSrc: strides(), LoopStrideDst: strides(),
			}.Params()}
		default:
			src := addr()
			dst := src
			if rng.Intn(2) == 0 {
				dst = addr()
			}
			return passInstr{op: descriptor.OpFFT, params: FFTArgs{
				N: n, HowMany: int64(1 + rng.Intn(2)), Src: src, Dst: dst,
				LoopStrideSrc: strides(), LoopStrideDst: strides(),
			}.Params()}
		}
	}
	passes := [][]passInstr{{comp()}}
	for k := rng.Intn(3); k > 0; k-- {
		if rng.Intn(2) == 0 {
			passes = append(passes, nil)
		}
		last := len(passes) - 1
		passes[last] = append(passes[last], comp())
	}
	return counts, passes
}

// TestLoopIndependenceMatchesFullSweep requires the hull-filtered check to
// answer exactly what the full sweep answers on random nests.
func TestLoopIndependenceMatchesFullSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	var verdicts [indepVerdicts]int
	for i := 0; i < 4000; i++ {
		counts, passes := randNest(rng)
		iters := counts.Total()
		v := loopIndependence(counts, passes, iters)
		verdicts[v]++
		if want := loopIndependentFullSweep(counts, passes, iters); (v == indepParallel) != want {
			t.Fatalf("case %d: counts %v, passes %+v: hull-filtered verdict %v, full sweep independent=%v",
				i, counts, passes, v, want)
		}
	}
	// The generator must exercise every answer the oracle can give.
	for _, v := range []indepVerdict{indepParallel, indepConflict, indepUnresolvable} {
		if verdicts[v] < 100 {
			t.Errorf("only %d of 4000 random nests were %v: generator too narrow (%v)", verdicts[v], v, verdicts)
		}
	}
}

func TestHullOfCorners(t *testing.T) {
	counts := descriptor.LoopCounts{0, 3, 1, 5}
	lo, hi, ok := hullOf(0x1000, Strides{7, -64, 1 << 40, 16}, 8, counts)
	// Level 0 and 2 have one iteration; level 1 spans -128, level 3 +64.
	if !ok || lo != 0x1000-128 || hi != 0x1000+64+8 {
		t.Errorf("hull = [%#x, %#x) ok=%v; want [%#x, %#x) true", lo, hi, ok, 0x1000-128, 0x1000+64+8)
	}
	if _, _, ok := hullOf(0x40, Lin(-64), 8, descriptor.LoopCounts{0, 0, 0, 3}); ok {
		t.Error("a hull reaching below address 0 must be unbounded")
	}
	if _, _, ok := hullOf(math.MaxUint64-15, Lin(8), 8, descriptor.LoopCounts{0, 0, 0, 2}); ok {
		t.Error("a hull whose end wraps past 2^64 must be unbounded")
	}
	if _, _, ok := hullOf(0, Lin(math.MaxInt64), 8, descriptor.LoopCounts{0, 0, 0, 3}); ok {
		t.Error("an overflowing offset must be unbounded")
	}
}

// verdictLayer is a layer with telemetry on and a multi-worker pool, so the
// streamed executor runs its independence analysis.
func verdictLayer(t *testing.T) (*testRig, *telemetry.Metrics) {
	t.Helper()
	r := newRigWorkers(t, 4)
	cfg := MEALibConfig()
	cfg.Workers = 4
	cfg.Tracer = telemetry.New()
	l, err := NewLayer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.layer = l
	return r, cfg.Tracer.Metrics()
}

// requireVerdicts checks every accel.loop.* counter against want.
func requireVerdicts(t *testing.T, m *telemetry.Metrics, want indepVerdict) {
	t.Helper()
	for v := indepVerdict(0); v < indepVerdicts; v++ {
		n := int64(0)
		if v == want {
			n = 1
		}
		if got := m.Counter("accel.loop." + v.String()).Value(); got != n {
			t.Errorf("accel.loop.%v = %d, want %d", v, got, n)
		}
	}
}

func TestLoopVerdictParallel(t *testing.T) {
	r, m := verdictLayer(t)
	r.run(t, buildSTAPDotNest(t, r))
	requireVerdicts(t, m, indepParallel)
}

func TestLoopVerdictSerialConflict(t *testing.T) {
	r, m := verdictLayer(t)
	r.run(t, buildOverlappingAxpy(t, r))
	requireVerdicts(t, m, indepConflict)
}

// TestLoopVerdictSerialCap uses the stap.Medium() inner-product nest:
// 1536x12x64 iterations, so even its one swept stream (the written
// products) exceeds indepMaxEvents.
func TestLoopVerdictSerialCap(t *testing.T) {
	r, m := verdictLayer(t)
	const pairs, steer, cells, n, elem = 1536, 12, 64, 24, 8
	counts := descriptor.LoopCounts{0, pairs, steer, cells}
	passes := [][]passInstr{{{op: descriptor.OpDOT, params: DotArgs{
		N: n, Complex: true, X: 0x100000, Y: 0x10000000, Out: 0x40000000, IncX: 1, IncY: cells,
		LoopStrideX:   Strides{0, elem * steer * n, elem * n, 0},
		LoopStrideY:   Strides{0, elem * n * cells, 0, elem},
		LoopStrideOut: Strides{0, elem * steer * cells, elem * cells, elem},
	}.Params()}}}
	if r.layer.loopParallel(counts, passes, counts.Total()) {
		t.Fatal("a loop over the event cap must not fan out")
	}
	requireVerdicts(t, m, indepCap)
}

func TestLoopVerdictSerialUnresolvable(t *testing.T) {
	r, m := verdictLayer(t)
	counts := descriptor.LoopCounts{0, 0, 0, 8}
	// A DOT parameter block two fields short cannot be decoded.
	params := DotArgs{N: 4, X: 0x1000, Y: 0x2000, Out: 0x3000, IncX: 1, IncY: 1}.Params()
	passes := [][]passInstr{{{op: descriptor.OpDOT, params: params[:len(params)-2]}}}
	if r.layer.loopParallel(counts, passes, counts.Total()) {
		t.Fatal("an unresolvable loop must not fan out")
	}
	requireVerdicts(t, m, indepUnresolvable)
}

// TestLoopIndependenceSweepsOnlyMeetingStreams pins the filter itself: in
// a STAP-like DOT only the written products meet a write hull, so a loop
// whose full sweep would exceed the event cap still proves independent.
func TestLoopIndependenceSweepsOnlyMeetingStreams(t *testing.T) {
	const iters = indepMaxEvents / 2
	counts := descriptor.LoopCounts{0, 0, 0, iters}
	passes := [][]passInstr{{{op: descriptor.OpDOT, params: DotArgs{
		N: 4, X: 0x1000, Y: 0x2000, Out: 0x10000000, IncX: 1, IncY: 1,
		LoopStrideX: Lin(16), LoopStrideOut: Lin(4), // y shared read-only
	}.Params()}}}
	if loopIndependentFullSweep(counts, passes, iters) {
		t.Fatal("precondition: the full sweep gives up at the event cap")
	}
	if v := loopIndependence(counts, passes, iters); v != indepParallel {
		t.Errorf("verdict %v, want %v", v, indepParallel)
	}
}
