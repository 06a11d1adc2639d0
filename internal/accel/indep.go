package accel

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"mealib/internal/descriptor"
	"mealib/internal/phys"
	"mealib/internal/units"
)

// Iteration-independence analysis for hardware LOOP nests.
//
// The decode unit dispatches LOOP iterations round-robin over the tiles
// (paper §2.2); the hardware can do that because the compiler only emits a
// LOOP when the OpenMP source proved the iterations independent. The
// functional interpreter re-derives that guarantee before fanning out. It
// follows every operand span of every comp across the nest as a stream —
// the affine base + Σ stride·index arithmetic the decode unit performs —
// and computes each stream's exact address hull from the nest's corners
// (an affine function of the index box reaches its extremes there). Only
// write streams and streams whose hull meets some write stream's hull can
// take part in a conflict, so only those are materialised, one span per
// iteration, and swept for a cross-iteration conflict: a write from one
// iteration overlapping any span of another. Overlap, an undecodable comp,
// an address wrap, or more events than indepMaxEvents all fall back to
// serial execution, so parallelism is never a correctness gamble.
//
// Exactness: a conflict pairs a write span w with an overlapping span x of
// another iteration. w's stream is a write stream, so it is swept; x lies
// inside its stream's hull and w inside its own, so the two hulls meet
// and x's stream is swept as well. The sweep itself is exact (see top2),
// so it finds the conflict; conversely any conflict among the swept spans
// is a conflict of the loop. A stream whose hull cannot be represented
// (offset overflow, or a range leaving [0, 2^64)) is always swept, which
// is also where any address wrap shows up. The filtered check therefore
// answers exactly what sweeping every span would, below the event cap.

// indepMaxEvents caps the spans the checker is willing to materialise;
// beyond it the loop runs serially rather than spend unbounded memory on
// the analysis (1M events ≈ 48 MB, checked in well under the time the
// loop body itself will take at that scale).
const indepMaxEvents = 1 << 20

// ioSpan is one byte range an invocation reads or writes.
type ioSpan struct {
	addr  phys.Addr
	bytes units.Bytes
	write bool
}

// ioSpansOf lists the directional spans of one invocation at iteration it.
// Unlike spansOf (locality classification), reads and writes are separated
// and read-modify-write operands appear in both directions, read first.
func ioSpansOf(op descriptor.OpCode, p descriptor.Params, it IterVec) ([]ioSpan, error) {
	e := SpecOf(op)
	if e == nil {
		return nil, nil
	}
	sz, err := e.sizes(p)
	if err != nil {
		return nil, err
	}
	out := make([]ioSpan, 0, e.ioSpans)
	for i, o := range e.ops {
		addr := e.addrAt(p, i, it)
		if o.acc&AccRead != 0 {
			out = append(out, ioSpan{addr, sz[i].Bytes(), false})
		}
		if o.acc&AccWrite != 0 {
			out = append(out, ioSpan{addr, sz[i].Bytes(), true})
		}
	}
	return out, nil
}

// iterEvent is one span tagged with the iteration that owns it.
type iterEvent struct {
	start, end uint64 // [start, end) physical bytes
	iter       int64
	write      bool
}

// top2 tracks, over the events seen so far, the maximum span end (end1,
// owned by iter1) and the maximum end among events owned by any OTHER
// iteration (end2). That is enough to answer "does any already-seen event
// from a different iteration reach past this start?" in O(1): if the
// global max is another iteration's, compare against it; if the global max
// is our own, compare against end2. Both stay exact: when a new iteration
// takes the lead, every event seen so far ends at or before the old
// leader's end1, which belongs to an iteration other than the new leader's
// and so is exactly the new end2.
type top2 struct {
	end1  uint64
	iter1 int64
	end2  uint64
}

func newTop2() top2 { return top2{iter1: -1} }

func (t *top2) add(end uint64, iter int64) {
	switch {
	case iter == t.iter1:
		if end > t.end1 {
			t.end1 = end
		}
	case end >= t.end1:
		if t.iter1 >= 0 && t.end1 > t.end2 {
			t.end2 = t.end1
		}
		t.end1, t.iter1 = end, iter
	default:
		if end > t.end2 {
			t.end2 = end
		}
	}
}

// reaches reports whether a seen event from an iteration other than iter
// extends past start.
func (t *top2) reaches(start uint64, iter int64) bool {
	if t.iter1 < 0 {
		return false
	}
	if t.iter1 != iter {
		return t.end1 > start
	}
	return t.end2 > start
}

// indepVerdict is the outcome of the independence analysis of one loop.
type indepVerdict int

const (
	// indepParallel: every pair of distinct iterations touches disjoint
	// memory (or only shares reads).
	indepParallel indepVerdict = iota
	// indepConflict: a write of one iteration overlaps a span of another.
	indepConflict
	// indepCap: proving it would take more than indepMaxEvents spans.
	indepCap
	// indepUnresolvable: a comp's spans cannot be resolved (undecodable
	// parameters, no span model, address wrap) or the body is empty.
	indepUnresolvable
	indepVerdicts // number of verdicts
)

// String names the verdict as its telemetry counter suffix.
func (v indepVerdict) String() string {
	switch v {
	case indepParallel:
		return "parallel"
	case indepConflict:
		return "serial_conflict"
	case indepCap:
		return "serial_cap"
	case indepUnresolvable:
		return "serial_unresolvable"
	}
	return fmt.Sprintf("indepVerdict(%d)", int(v))
}

// ioStream is one operand span of one comp followed across the loop nest:
// at iteration vector it the span is [base + stride·it, +bytes), computed
// modulo 2^64 exactly as shifting the comp's arguments does.
type ioStream struct {
	base   uint64
	stride Strides
	bytes  units.Bytes
	write  bool
	// bounded reports that every iteration's span lies inside [lo, hi)
	// without wrapping; an unbounded stream is taken to meet every other.
	bounded bool
	lo, hi  uint64
}

// at returns the stream's span at iteration vector it.
func (s *ioStream) at(it IterVec) (start, end uint64) {
	start = s.base + uint64(s.stride.Offset(it))
	return start, start + uint64(s.bytes)
}

// streamsOf lists the directional streams of one comp, in ioSpansOf's
// order, each following its operand's loop strides. ok is false when the
// comp's spans cannot be resolved.
func streamsOf(op descriptor.OpCode, p descriptor.Params, counts descriptor.LoopCounts) (streams []ioStream, ok bool) {
	e := SpecOf(op)
	if e == nil {
		return nil, false
	}
	sz, err := e.sizes(p)
	if err != nil {
		return nil, false
	}
	for i, o := range e.ops {
		bytes := sz[i].Bytes()
		if bytes <= 0 {
			continue
		}
		addr, stride := e.at(p, i)
		st := ioStream{base: uint64(addr), stride: stride, bytes: bytes}
		st.lo, st.hi, st.bounded = hullOf(st.base, st.stride, st.bytes, counts)
		for _, dir := range [...]Access{AccRead, AccWrite} {
			if o.acc&dir != 0 {
				st.write = dir == AccWrite
				streams = append(streams, st)
			}
		}
	}
	return streams, true
}

// hullOf returns the byte range [lo, hi) every span base + stride·it
// (+bytes) of the nest lies in, computed over the integers. Each level
// contributes stride·(count-1) at one corner and 0 at the other, so the
// minimum and maximum offsets are the sums of the negative and of the
// positive contributions. ok is false when an offset overflows int64 or
// the range leaves [0, 2^64), where modular span arithmetic stops being
// monotone and the hull would not be exact.
func hullOf(base uint64, stride Strides, bytes units.Bytes, counts descriptor.LoopCounts) (lo, hi uint64, ok bool) {
	var minOff, maxOff int64
	for level, s := range stride {
		n := int64(counts[level])
		if n <= 1 || s == 0 {
			continue
		}
		ext := s * (n - 1)
		if ext/(n-1) != s {
			return 0, 0, false
		}
		var sum int64
		if ext < 0 {
			sum = minOff + ext
			if sum > minOff {
				return 0, 0, false
			}
			minOff = sum
		} else {
			sum = maxOff + ext
			if sum < maxOff {
				return 0, 0, false
			}
			maxOff = sum
		}
	}
	below := uint64(-minOff) // |minOff|, exact even for math.MinInt64
	if base < below {
		return 0, 0, false
	}
	hi, carry := bits.Add64(base, uint64(maxOff), 0)
	if carry != 0 {
		return 0, 0, false
	}
	if hi, carry = bits.Add64(hi, uint64(bytes), 0); carry != 0 {
		return 0, 0, false
	}
	return base - below, hi, true
}

// meets reports whether the hulls of a and b intersect; an unbounded
// stream meets everything.
func (a *ioStream) meets(b *ioStream) bool {
	if !a.bounded || !b.bounded {
		return true
	}
	return a.lo < b.hi && b.lo < a.hi
}

// loopIndependence decides whether the iterations of the loop nest may run
// concurrently: whether every pair of distinct iterations touches disjoint
// memory (same-iteration overlap is fine — one iteration's comps run in
// order on one tile). iters iterations are checked, idx mapped to its
// vector by iterVecAt.
func loopIndependence(counts descriptor.LoopCounts, passes [][]passInstr, iters int64) indepVerdict {
	var streams []ioStream
	comps := 0
	for _, pass := range passes {
		for _, pi := range pass {
			comps++
			ss, ok := streamsOf(pi.op, pi.params, counts)
			if !ok {
				return indepUnresolvable
			}
			streams = append(streams, ss...)
		}
	}
	if comps == 0 {
		return indepUnresolvable
	}
	// Sweep the write streams and every stream whose hull meets one.
	var swept []ioStream
	for i := range streams {
		s := &streams[i]
		if s.write || slices.ContainsFunc(streams, func(w ioStream) bool { return w.write && s.meets(&w) }) {
			swept = append(swept, *s)
		}
	}
	if iters*int64(len(swept)) > indepMaxEvents {
		return indepCap
	}
	events := make([]iterEvent, 0, iters*int64(len(swept)))
	for idx := int64(0); idx < iters; idx++ {
		it := iterVecAt(counts, idx)
		for i := range swept {
			start, end := swept[i].at(it)
			if end < start { // address wrap: unresolvable
				return indepUnresolvable
			}
			events = append(events, iterEvent{start: start, end: end, iter: idx, write: swept[i].write})
		}
	}
	slices.SortFunc(events, func(a, b iterEvent) int { return cmp.Compare(a.start, b.start) })
	reads, writes := newTop2(), newTop2()
	for _, e := range events {
		// A write conflicts with any prior span of another iteration still
		// covering e.start; a read only conflicts with such a write.
		if writes.reaches(e.start, e.iter) {
			return indepConflict
		}
		if e.write {
			if reads.reaches(e.start, e.iter) {
				return indepConflict
			}
			writes.add(e.end, e.iter)
		} else {
			reads.add(e.end, e.iter)
		}
	}
	return indepParallel
}
