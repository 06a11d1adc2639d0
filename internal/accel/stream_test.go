package accel

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"mealib/internal/descriptor"
)

// Streamed-executor differentials: LOOPs whose expansion exceeds
// planMaxNodes skip the plan IR and run on the streamed loop executor, so
// its serial == parallel contract needs cases of its own. Every case stays
// inside diffArena with a small per-iteration N.

// streamedLoop asserts that d really takes the streamed path.
func streamedLoop(t *testing.T, d *descriptor.Descriptor) *descriptor.Descriptor {
	t.Helper()
	if n := planNodeCount(d, planExpand); n <= planMaxNodes {
		t.Fatalf("descriptor expands to %d nodes; want > planMaxNodes (%d) so it streams", n, planMaxNodes)
	}
	return d
}

// buildSTAPDotNest is the STAP inner-product shape (stap.Pipeline
// .InnerProducts) scaled down: a 3-level (pair, steering, cell) nest of
// complex DOTs, 64*8*130 = 66560 iterations of N = 4.
func buildSTAPDotNest(t *testing.T, r *testRig) *descriptor.Descriptor {
	const pairs, steer, cells, n = 64, 8, 130, 4
	const elem = 8
	wa := r.alloc(elem * pairs * steer * n)
	da := r.alloc(elem * pairs * n * cells)
	oa := r.alloc(elem * pairs * steer * cells)
	storeRandC64(t, r, wa, pairs*steer*n, 121)
	storeRandC64(t, r, da, pairs*n*cells, 122)
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(pairs, steer, cells); err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(descriptor.OpDOT, DotArgs{
		N: n, Complex: true, X: wa, Y: da, Out: oa, IncX: 1, IncY: cells,
		LoopStrideX:   Strides{0, elem * steer * n, elem * n, 0},
		LoopStrideY:   Strides{0, elem * n * cells, 0, elem},
		LoopStrideOut: Strides{0, elem * steer * cells, elem * cells, elem},
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	d.AddEndLoop()
	return streamedLoop(t, d)
}

// buildChainedMultiPass is a two-pass body over a 520x128 nest (66560
// iterations): pass 1 chains a complex RESMP into a forward FFT of the
// same row, pass 2 transforms the row back. The resampling source is
// indexed by the inner level only, so it is read by every outer iteration.
func buildChainedMultiPass(t *testing.T, r *testRig) *descriptor.Descriptor {
	const outer, inner, n = 520, 128, 4
	const row = 8 * n
	src := r.alloc(row * inner)
	img := r.alloc(row * outer * inner)
	storeRandC64(t, r, src, n*inner, 131)
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(outer, inner); err != nil {
		t.Fatal(err)
	}
	imgStride := Strides{0, 0, row * inner, row}
	if err := d.AddComp(descriptor.OpRESMP, ResmpArgs{
		NIn: n, NOut: n, Kind: ResmpComplex + 1, Src: src, Dst: img,
		LoopStrideSrc: Strides{0, 0, 0, row}, LoopStrideDst: imgStride,
	}.Params()); err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(descriptor.OpFFT, FFTArgs{
		N: n, HowMany: 1, Src: img, Dst: img,
		LoopStrideSrc: imgStride, LoopStrideDst: imgStride,
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	if err := d.AddComp(descriptor.OpFFT, FFTArgs{
		N: n, Inverse: true, HowMany: 1, Src: img, Dst: img,
		LoopStrideSrc: imgStride, LoopStrideDst: imgStride,
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	d.AddEndLoop()
	return streamedLoop(t, d)
}

// buildOverlappingAxpy accumulates 66560 strided x rows into one shared y:
// every iteration writes y, so the loop must run serially.
func buildOverlappingAxpy(t *testing.T, r *testRig) *descriptor.Descriptor {
	const n, iters = 4, 66560
	xa, ya := r.alloc(4*n*iters), r.alloc(4*n)
	storeRandF32(t, r, xa, n*iters, 141)
	storeRandF32(t, r, ya, n, 142)
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(iters); err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(descriptor.OpAXPY, AxpyArgs{
		N: n, Alpha: 0.75, X: xa, Y: ya, IncX: 1, IncY: 1,
		LoopStrideX: Lin(4 * n),
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	d.AddEndLoop()
	return streamedLoop(t, d)
}

// reportBits renders every Report field, floats as their IEEE-754 bit
// patterns, so a pinned rendering detects any change to the float
// accumulation sequence.
func reportBits(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "time=%x energy=%x fetch=%x comps=%d noc=%d spill=%d remote=%d elided=%d ooc=%d staged=%d",
		math.Float64bits(float64(r.Time)), math.Float64bits(float64(r.Energy)),
		math.Float64bits(float64(r.FetchDecodeTime)), r.Comps, r.NoCBytes, r.LMSpillBytes,
		r.RemoteBytes, r.ElidedBytes, r.OOCChunks, r.StagedBytes)
	ops := make([]descriptor.OpCode, 0, len(r.PerOp))
	for op := range r.PerOp {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	for _, op := range ops {
		st := r.PerOp[op]
		fmt.Fprintf(&b, " %v{inv=%d time=%x energy=%x flops=%x bytes=%d}", op, st.Invocations,
			math.Float64bits(float64(st.Time)), math.Float64bits(float64(st.Energy)),
			math.Float64bits(float64(st.Flops)), st.Bytes)
	}
	return b.String()
}

// The pinned renderings were recorded with the per-iteration sub-report
// executor this one replaced; the streamed executor must reproduce them
// bit for bit, serially and in parallel.
const (
	stapDotNestBits = "time=3f43c7d92df901d5 energy=3f850596b53e2a10 fetch=3e6680941cffaba2 comps=66560 noc=0 spill=0 remote=0 elided=0 ooc=0 staged=0 " +
		"DOT{inv=66560 time=3f3c85b5d9331839 energy=3f850596b53e2a10 flops=4140400000000000 bytes=210862080}"
	chainedMultiPassBits = "time=3f352f616fdb7eb8 energy=3f32d730336041b7 fetch=3e73eab7372d0692 comps=199680 noc=2129920 spill=0 remote=0 elided=4259840 ooc=0 staged=0 " +
		"RESMP{inv=66560 time=3ed2704c2f521b19 energy=3f0318754c86ca71 flops=4140400000000000 bytes=4259840} " +
		"FFT{inv=133120 time=3eeba87246fb4571 energy=3f3068b232d500ee flops=4154500000000000 bytes=8519680}"
)

func requireBits(t *testing.T, rep *Report, want string) {
	t.Helper()
	if got := reportBits(rep); got != want {
		t.Errorf("report drifted from the pinned bits:\n got  %s\n want %s", got, want)
	}
}

func TestDifferentialStreamedSTAPDotNest(t *testing.T) {
	requireBits(t, runDifferential(t, func(r *testRig) *descriptor.Descriptor {
		return buildSTAPDotNest(t, r)
	}), stapDotNestBits)
}

func TestDifferentialStreamedChainedMultiPass(t *testing.T) {
	requireBits(t, runDifferential(t, func(r *testRig) *descriptor.Descriptor {
		return buildChainedMultiPass(t, r)
	}), chainedMultiPassBits)
}

func TestDifferentialStreamedOverlappingWritesFallsBack(t *testing.T) {
	runDifferential(t, func(r *testRig) *descriptor.Descriptor {
		return buildOverlappingAxpy(t, r)
	})
}

func TestIterVecAdvanceMatchesIterVecAt(t *testing.T) {
	for _, counts := range []descriptor.LoopCounts{{0, 0, 0, 5}, {2, 0, 3, 4}, {3, 1, 2, 2}, {0, 0, 0, 1}} {
		it := iterVecAt(counts, 0)
		for idx := int64(1); idx <= counts.Total()+2; idx++ {
			it.advance(counts)
			if want := iterVecAt(counts, idx); it != want {
				t.Fatalf("counts %v idx %d: advance gives %v, iterVecAt %v", counts, idx, it, want)
			}
		}
	}
}
