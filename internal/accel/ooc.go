package accel

import (
	"errors"
	"fmt"
	"sort"

	"mealib/internal/descriptor"
	"mealib/internal/phys"
	"mealib/internal/units"
)

// Out-of-core plan lowering (ROADMAP "Out-of-core execution"): a descriptor
// whose operands live in the host-backed window — addresses no accelerator
// can reach — is split into a schedule of chunked launches whose window
// spans are relocated into a double-buffered staging region carved from
// stack memory. The split reuses the same span machinery the scheduler and
// fusion passes rely on for legality: every relocation is justified by the
// comp's own ioSpansOf extents, and a chunk's rebased descriptor is an
// ordinary descriptor the layer runs unmodified (fusion, wave scheduling
// and capacity checks included). The runtime (internal/mealibrt/ooc.go)
// drives the schedule: stage in, execute, write back, with the next chunk's
// stage-in prefetched under the current chunk's execution when legal.

// ErrUnchunkable marks a descriptor the chunker cannot split: a single
// invocation's window footprint exceeds the staging half and the op has no
// exact split (reductions like DOT, global-access ops like SPMV/RESHP, and
// boundary-coupled RESMP cannot be divided without changing results
// bit-for-bit). Growing the staging region is the only cure.
var ErrUnchunkable = errors.New("accel: descriptor cannot be chunked into the staging region")

// oocAlign is the staging-layout alignment of each relocated extent.
const oocAlign = 64

// oocMaxUnits bounds how many schedulable units (loop iterations × passes)
// the chunker will materialise; descriptors past it should use a bigger
// staging region rather than a million-entry schedule.
const oocMaxUnits = 1 << 20

// OOCExtent is one contiguous host-window byte range a chunk relocates into
// the staging region. Every extent is staged in before execution — even
// write-only ones, so stride gaps inside the extent carry the original host
// bytes back out unchanged — and extents the chunk writes are copied back
// after execution.
type OOCExtent struct {
	Host   phys.Addr
	Staged phys.Addr
	Bytes  units.Bytes
	// Out marks extents the chunk writes (copied back after execution).
	Out bool
}

// OOCChunk is one staged launch of the schedule.
type OOCChunk struct {
	// Desc is the rebased descriptor: the original comps of this chunk's
	// units with window addresses relocated into the staging half.
	Desc *descriptor.Descriptor
	// Extents are the relocations, sorted by host address.
	Extents []OOCExtent
	// Half selects which staging half the chunk occupies (ping-pong).
	Half int
	// Prefetchable reports that this chunk's stage-in touches no host range
	// the previous chunk writes back — so the stage-in may overlap the
	// previous chunk's execution and write-back.
	Prefetchable bool
	// StageInBytes and WriteBackBytes are the chunk's link traffic.
	StageInBytes, WriteBackBytes units.Bytes
}

// OOCSchedule is the chunked lowering of one out-of-core descriptor.
type OOCSchedule struct {
	Chunks []*OOCChunk
	// MaxDescBytes sizes the command-space slot the chunk descriptors are
	// encoded into (one slot, reused serially).
	MaxDescBytes units.Bytes
	// StageInBytes and WriteBackBytes total the link traffic.
	StageInBytes, WriteBackBytes units.Bytes
}

// StagingCost is the model time and energy of moving n bytes between host
// DRAM and the staging region over the host↔stack link (the same SerDes
// link remote-stack traffic crosses).
func (c *Config) StagingCost(n units.Bytes) (units.Seconds, units.Joules) {
	if n <= 0 || c.RemoteLinkBW <= 0 {
		return 0, 0
	}
	return c.RemoteLinkBW.Time(n), units.Joules(float64(n) * 8 * float64(c.ELinkBit))
}

// oocBox is one host-window byte range a unit touches, with write direction.
type oocBox struct {
	lo, hi uint64
	out    bool
}

// oocUnit is the smallest schedulable piece of the descriptor: one loop
// iteration's passes (params fully shifted to that iteration), or one
// top-level pass, or one split piece of an oversized comp.
type oocUnit struct {
	passes [][]passInstr
	boxes  []oocBox
}

// mergeBoxes normalises a box list: sorted by lo, overlapping or adjacent
// boxes merged (out flags OR — a merged extent is written if any part is).
func mergeBoxes(boxes []oocBox) []oocBox {
	if len(boxes) < 2 {
		return boxes
	}
	sort.Slice(boxes, func(i, j int) bool { return boxes[i].lo < boxes[j].lo })
	out := boxes[:1]
	for _, b := range boxes[1:] {
		cur := &out[len(out)-1]
		if b.lo <= cur.hi {
			if b.hi > cur.hi {
				cur.hi = b.hi
			}
			cur.out = cur.out || b.out
			continue
		}
		out = append(out, b)
	}
	return out
}

// layoutBytes is the staging footprint of a box list (each extent aligned).
func layoutBytes(boxes []oocBox) units.Bytes {
	var n units.Bytes
	for _, b := range boxes {
		n += (units.Bytes(b.hi-b.lo) + oocAlign - 1) / oocAlign * oocAlign
	}
	return n
}

// boxesOverlap reports whether any out-box of a overlaps any box of b.
func boxesOverlap(a, b []oocBox) bool {
	for _, x := range a {
		if !x.out {
			continue
		}
		for _, y := range b {
			if x.lo < y.hi && y.lo < x.hi {
				return true
			}
		}
	}
	return false
}

// shiftedParams folds the iteration vector into the comp's base addresses
// and zeroes the loop strides, producing the params of a standalone
// (top-level) pass equivalent to this iteration's invocation.
func shiftedParams(op descriptor.OpCode, p descriptor.Params, it IterVec) (descriptor.Params, error) {
	e := SpecOf(op)
	if e == nil {
		return nil, fmt.Errorf("accel: ooc: unknown op %v", op)
	}
	if !e.strided {
		return p, nil // every iteration names the same addresses
	}
	q, err := e.canon(p)
	if err != nil {
		return nil, err
	}
	for _, o := range e.ops {
		if k := o.stride; k >= 0 {
			q[o.field] += uint64(stridesOf(q[k:]).Offset(it))
			clear(q[k : k+descriptor.MaxLoopLevels])
		}
	}
	return q, nil
}

// rebaseComp relocates a comp's window addresses via mapAddr. Each operand
// is mapped with its full footprint so the relocation is rejected unless
// the whole access lands inside one staged extent.
func rebaseComp(op descriptor.OpCode, p descriptor.Params, mapAddr func(phys.Addr, units.Bytes) (phys.Addr, error)) (descriptor.Params, error) {
	e := SpecOf(op)
	if e == nil {
		return nil, fmt.Errorf("accel: ooc: unknown op %v", op)
	}
	sz, err := e.sizes(p)
	if err != nil {
		return nil, err
	}
	q, _ := e.canon(p) // cannot fail: sizes decoded p
	for i, o := range e.ops {
		a, err := mapAddr(descriptor.AddrOf(p[o.field]), sz[i].Bytes())
		if err != nil {
			return nil, err
		}
		q[o.field] = descriptor.AddrField(a)
	}
	return q, nil
}

// unitBoxes resolves the unit's window extents from its comps' directional
// spans at iteration zero (params are already shifted).
func unitBoxes(passes [][]passInstr, inWindow func(phys.Addr) bool) ([]oocBox, error) {
	var boxes []oocBox
	for _, pass := range passes {
		for _, pi := range pass {
			spans, err := ioSpansOf(pi.op, pi.params, IterVec{})
			if err != nil {
				return nil, err
			}
			if spans == nil {
				return nil, fmt.Errorf("accel: ooc: unresolvable spans for %v", pi.op)
			}
			for _, sp := range spans {
				if sp.bytes <= 0 || !inWindow(sp.addr) {
					continue
				}
				lo := uint64(sp.addr)
				hi := lo + uint64(sp.bytes)
				if hi < lo {
					return nil, fmt.Errorf("accel: ooc: address wrap at %v", sp.addr)
				}
				boxes = append(boxes, oocBox{lo: lo, hi: hi, out: sp.write})
			}
		}
	}
	return mergeBoxes(boxes), nil
}

// splitOversized divides a single-comp unit whose window footprint exceeds
// the budget into exact pieces. Only ops with elementwise-independent
// outputs split losslessly (the table's split entries: AXPY by vector
// range, GEMV by row block, FFT by batch); reductions and global-access
// ops return ErrUnchunkable.
func splitOversized(pi passInstr, unitBytes, budget units.Bytes) ([]descriptor.Params, error) {
	pieces := max(int64((unitBytes+budget-1)/budget), 2)
	e := SpecOf(pi.op)
	if e == nil || e.split == nil {
		return nil, fmt.Errorf("%w: %v invocation footprint exceeds the staging half and the op has no exact split", ErrUnchunkable, pi.op)
	}
	return e.split(pi.params, pieces, budget)
}

// splitAxpy divides an AXPY into pieces vector ranges.
func splitAxpy(a AxpyArgs, pieces int64, _ units.Bytes) ([]descriptor.Params, error) {
	if a.IncX <= 0 || a.IncY <= 0 || a.N < pieces {
		return nil, fmt.Errorf("%w: AXPY with n=%d incx=%d incy=%d", ErrUnchunkable, a.N, a.IncX, a.IncY)
	}
	per := (a.N + pieces - 1) / pieces
	var out []descriptor.Params
	for start := int64(0); start < a.N; start += per {
		q := a
		q.N = min(per, a.N-start)
		q.X += phys.Addr(4 * a.IncX * start)
		q.Y += phys.Addr(4 * a.IncY * start)
		out = append(out, q.Params())
	}
	return out, nil
}

// splitGemv divides a GEMV into row blocks that fit the budget.
func splitGemv(a GemvArgs, _ int64, budget units.Bytes) ([]descriptor.Params, error) {
	if a.M < 2 || a.Lda < a.N {
		return nil, fmt.Errorf("%w: GEMV with m=%d lda=%d n=%d", ErrUnchunkable, a.M, a.Lda, a.N)
	}
	// Every piece re-reads the full x vector; rows amortise the rest.
	fixed := units.Bytes(4 * a.N)
	perRow := units.Bytes(4*a.Lda + 4)
	if fixed+perRow > budget {
		return nil, fmt.Errorf("%w: one GEMV row (%v) exceeds the staging budget %v", ErrUnchunkable, fixed+perRow, budget)
	}
	rows := max(int64((budget-fixed)/perRow), 1)
	var out []descriptor.Params
	for start := int64(0); start < a.M; start += rows {
		q := a
		q.M = min(rows, a.M-start)
		q.A += phys.Addr(4 * a.Lda * start)
		q.Y += phys.Addr(4 * start)
		out = append(out, q.Params())
	}
	return out, nil
}

// splitFFT divides a batched FFT into batch ranges that fit the budget.
func splitFFT(a FFTArgs, _ int64, budget units.Bytes) ([]descriptor.Params, error) {
	if a.HowMany < 2 {
		return nil, fmt.Errorf("%w: single %d-point FFT exceeds the staging budget", ErrUnchunkable, a.N)
	}
	perBatch := units.Bytes(16 * a.N) // src + dst
	if a.Dst == a.Src {
		perBatch = units.Bytes(8 * a.N)
	}
	if perBatch > budget {
		return nil, fmt.Errorf("%w: one %d-point FFT batch (%v) exceeds the staging budget %v", ErrUnchunkable, a.N, perBatch, budget)
	}
	batches := max(int64(budget/perBatch), 1)
	var out []descriptor.Params
	for start := int64(0); start < a.HowMany; start += batches {
		q := a
		q.HowMany = min(batches, a.HowMany-start)
		q.Src += phys.Addr(8 * a.N * start)
		q.Dst += phys.Addr(8 * a.N * start)
		out = append(out, q.Params())
	}
	return out, nil
}

// oocUnitsOf decomposes the descriptor into schedulable units: every loop
// iteration becomes a standalone unit with fully shifted params, every
// top-level pass a unit of its own, and oversized single-comp units are
// split into exact pieces that fit the budget.
func oocUnitsOf(d *descriptor.Descriptor, inWindow func(phys.Addr) bool, budget units.Bytes) ([]oocUnit, error) {
	segs, err := segmentsOf(d)
	if err != nil {
		return nil, err
	}
	var raw []oocUnit
	for _, seg := range segs {
		if !seg.loop {
			for _, pass := range seg.passes {
				raw = append(raw, oocUnit{passes: [][]passInstr{pass}})
			}
			continue
		}
		iters := seg.counts.Total()
		if int64(len(raw))+iters > oocMaxUnits {
			return nil, fmt.Errorf("%w: %d loop iterations exceed the chunker's %d-unit bound (grow the staging region)", ErrUnchunkable, iters, oocMaxUnits)
		}
		for idx := int64(0); idx < iters; idx++ {
			it := iterVecAt(seg.counts, idx)
			passes := make([][]passInstr, 0, len(seg.passes))
			for _, pass := range seg.passes {
				shifted := make([]passInstr, len(pass))
				for i, pi := range pass {
					p, err := shiftedParams(pi.op, pi.params, it)
					if err != nil {
						return nil, err
					}
					shifted[i] = passInstr{op: pi.op, params: p}
				}
				passes = append(passes, shifted)
			}
			raw = append(raw, oocUnit{passes: passes})
		}
	}
	// Resolve window extents, splitting units the staging half cannot hold.
	var out []oocUnit
	for _, u := range raw {
		boxes, err := unitBoxes(u.passes, inWindow)
		if err != nil {
			return nil, err
		}
		if layoutBytes(boxes) <= budget {
			u.boxes = boxes
			out = append(out, u)
			continue
		}
		if len(u.passes) != 1 || len(u.passes[0]) != 1 {
			return nil, fmt.Errorf("%w: a chained pass's footprint (%v) exceeds the staging half (%v)", ErrUnchunkable, layoutBytes(boxes), budget)
		}
		pieces, err := splitOversized(u.passes[0][0], layoutBytes(boxes), budget/2)
		if err != nil {
			return nil, err
		}
		for _, p := range pieces {
			pu := oocUnit{passes: [][]passInstr{{{op: u.passes[0][0].op, params: p}}}}
			if pu.boxes, err = unitBoxes(pu.passes, inWindow); err != nil {
				return nil, err
			}
			if layoutBytes(pu.boxes) > budget {
				return nil, fmt.Errorf("%w: split piece still exceeds the staging half", ErrUnchunkable)
			}
			out = append(out, pu)
		}
	}
	return out, nil
}

// descBytesOf estimates the encoded size of a chunk's passes (CR + IR + PR,
// matching descriptor.Size's accounting).
func descBytesOf(passes [][]passInstr) units.Bytes {
	n := units.Bytes(32) // control region
	for _, pass := range passes {
		n += 32 // ENDPASS instruction
		for _, pi := range pass {
			n += 32 + units.Bytes(4+8*len(pi.params))
		}
	}
	return n
}

// PlanOOC lowers an out-of-core descriptor into a chunked schedule over the
// double-buffered staging region: halves[0] and halves[1] are the two
// staging bases, halfBytes the capacity of each. inWindow classifies
// physical addresses as host-backed. The chunk descriptors are complete,
// verified-shape descriptors over staging (and untouched resident)
// addresses only.
func (l *Layer) PlanOOC(d *descriptor.Descriptor, inWindow func(phys.Addr) bool, halves [2]phys.Addr, halfBytes units.Bytes) (*OOCSchedule, error) {
	if halfBytes <= 0 {
		return nil, fmt.Errorf("accel: ooc: no staging region configured")
	}
	units_, err := oocUnitsOf(d, inWindow, halfBytes)
	if err != nil {
		return nil, err
	}
	// Greedy grouping: pack units into a chunk while the merged extent
	// layout fits the staging half and the flat descriptor fits the
	// instruction memory.
	imem := l.cfg.CU.IMEMBytes
	var groups [][]oocUnit
	var cur []oocUnit
	var curBoxes []oocBox
	var curDesc units.Bytes = 32
	flush := func() {
		if len(cur) > 0 {
			groups = append(groups, cur)
			cur, curBoxes, curDesc = nil, nil, 32
		}
	}
	for _, u := range units_ {
		tentative := mergeBoxes(append(append([]oocBox(nil), curBoxes...), u.boxes...))
		uDesc := descBytesOf(u.passes)
		if len(cur) > 0 && (layoutBytes(tentative) > halfBytes || curDesc+uDesc > imem) {
			flush()
			tentative = mergeBoxes(append([]oocBox(nil), u.boxes...))
		}
		cur = append(cur, u)
		curBoxes = tentative
		curDesc += uDesc
	}
	flush()

	sched := &OOCSchedule{}
	var prevBoxes []oocBox
	for gi, group := range groups {
		var boxes []oocBox
		for _, u := range group {
			boxes = append(boxes, u.boxes...)
		}
		boxes = mergeBoxes(boxes)
		ch := &OOCChunk{Half: gi % 2}
		// Lay the extents out in the chunk's staging half.
		staged := halves[ch.Half]
		for _, b := range boxes {
			n := units.Bytes(b.hi - b.lo)
			ch.Extents = append(ch.Extents, OOCExtent{Host: phys.Addr(b.lo), Staged: staged, Bytes: n, Out: b.out})
			staged += phys.Addr((n + oocAlign - 1) / oocAlign * oocAlign)
			ch.StageInBytes += n
			if b.out {
				ch.WriteBackBytes += n
			}
		}
		mapAddr := func(a phys.Addr, n units.Bytes) (phys.Addr, error) {
			if !inWindow(a) {
				return a, nil
			}
			i := sort.Search(len(ch.Extents), func(i int) bool {
				return ch.Extents[i].Host+phys.Addr(ch.Extents[i].Bytes) > a
			})
			if i < len(ch.Extents) && a >= ch.Extents[i].Host && a+phys.Addr(n) <= ch.Extents[i].Host+phys.Addr(ch.Extents[i].Bytes) {
				return ch.Extents[i].Staged + (a - ch.Extents[i].Host), nil
			}
			if n == 0 {
				return a, nil // zero-length operand: never accessed
			}
			return 0, fmt.Errorf("accel: ooc: window access %v+%v lands outside every staged extent", a, n)
		}
		cd := &descriptor.Descriptor{}
		for _, u := range group {
			for _, pass := range u.passes {
				for _, pi := range pass {
					p, err := rebaseComp(pi.op, pi.params, mapAddr)
					if err != nil {
						return nil, err
					}
					if err := cd.AddComp(pi.op, p); err != nil {
						return nil, err
					}
				}
				cd.AddEndPass()
			}
		}
		if err := cd.Validate(); err != nil {
			return nil, fmt.Errorf("accel: ooc: chunk %d: %w", gi, err)
		}
		if err := l.cfg.CU.CheckCapacity(cd); err != nil {
			return nil, fmt.Errorf("accel: ooc: chunk %d: %w", gi, err)
		}
		ch.Desc = cd
		// The stage-in may run under the previous chunk's execution and
		// write-back only when it reads nothing the previous chunk writes.
		ch.Prefetchable = gi > 0 && !boxesOverlap(prevBoxes, boxes)
		if cd.Size() > sched.MaxDescBytes {
			sched.MaxDescBytes = cd.Size()
		}
		sched.StageInBytes += ch.StageInBytes
		sched.WriteBackBytes += ch.WriteBackBytes
		sched.Chunks = append(sched.Chunks, ch)
		prevBoxes = boxes
	}
	return sched, nil
}
