// Package tdlcheck statically verifies TDL programs and accelerator
// descriptors before they reach the simulated stack. The compiler and the
// runtime trust descriptor contents; without this pass a malformed task
// graph (dangling parameter reference, zero-trip loop, overlapping operand
// spans, inconsistent operand sizes, non-power-of-two FFT, read of an
// uninitialized intermediate) only surfaces — or silently corrupts results —
// deep inside the accelerator layer. Production library stacks reject such
// inputs up front (cf. MKL input validation); tdlcheck is that layer.
//
// Three entry points, by how much is known at the call site:
//
//   - VerifyProgram checks a parsed tdl.Program structurally (loop trip
//     counts, nesting, opcode validity) without parameter bindings — what
//     tdlc and the source-to-source compiler can check.
//   - Verify additionally resolves every parameter reference and checks the
//     per-kernel operand semantics and the dataflow of the task graph —
//     what mealib_acc_plan checks.
//   - VerifyDescriptor performs the operand and dataflow checks on an
//     already-lowered descriptor — what the runtime checks on the
//     AccPlanDescriptor path and again (with the host-initialized span set)
//     at execute time.
//
// Errors carry positions: the TDL source line when the program was parsed,
// otherwise the accelerator-invocation index.
package tdlcheck

import (
	"fmt"
	"math"
	"math/big"
	"slices"
	"strings"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/phys"
	"mealib/internal/tdl"
	"mealib/internal/units"
)

// Error is one verification failure with its position.
type Error struct {
	// Line is the 1-based TDL source line (0 when the program was built
	// programmatically or verified at the descriptor level).
	Line int
	// Comp is the index of the accelerator invocation the failure belongs
	// to, in program order (-1 when not invocation-specific).
	Comp int
	// Msg describes the failure.
	Msg string
}

// Error renders the failure with its position.
func (e *Error) Error() string {
	switch {
	case e.Line > 0:
		return fmt.Sprintf("tdlcheck: line %d: %s", e.Line, e.Msg)
	case e.Comp >= 0:
		return fmt.Sprintf("tdlcheck: comp %d: %s", e.Comp, e.Msg)
	default:
		return "tdlcheck: " + e.Msg
	}
}

// ErrorList collects every failure found in one verification pass.
type ErrorList []*Error

// Error renders the whole list, one failure per line.
func (l ErrorList) Error() string {
	if len(l) == 0 {
		return "tdlcheck: no errors"
	}
	msgs := make([]string, len(l))
	for i, e := range l {
		msgs[i] = e.Error()
	}
	return strings.Join(msgs, "\n")
}

// errs is a builder for ErrorList.
type errs struct{ list ErrorList }

func (e *errs) addf(line, comp int, format string, args ...interface{}) {
	e.list = append(e.list, &Error{Line: line, Comp: comp, Msg: fmt.Sprintf(format, args...)})
}

func (e *errs) err() error {
	if len(e.list) == 0 {
		return nil
	}
	return e.list
}

// Span is a half-open byte range [Addr, Addr+Bytes) in the physical space.
type Span struct {
	Addr  phys.Addr
	Bytes units.Bytes
}

func (s Span) end() phys.Addr { return s.Addr + phys.Addr(s.Bytes) }

// Overlaps reports whether the two spans share at least one byte.
func (s Span) Overlaps(o Span) bool {
	if s.Bytes <= 0 || o.Bytes <= 0 {
		return false
	}
	return s.Addr < o.end() && o.Addr < s.end()
}

// String renders the span.
func (s Span) String() string {
	return fmt.Sprintf("[%v,+%v)", s.Addr, s.Bytes)
}

// operand is one buffer an invocation touches.
type operand struct {
	name string
	// base is the span at loop iteration zero; ext extends it over the
	// hardware loop nest strides (what the whole LOOP touches).
	base, ext Span
	align     int64 // required address alignment (element size)
	acc       accel.Access
	// strides is the per-level byte advance the hardware applies to the
	// operand's base address each loop trip (zero outside a LOOP). Kept on
	// the operand so the interval analysis can re-derive the extension in
	// exact arithmetic rather than trusting ext's machine-width math.
	strides accel.Strides
}

// comp is one accelerator invocation in verification form.
type comp struct {
	line int // 0 when unknown
	idx  int // invocation index in program order
	pass int // pass ordinal
	op   descriptor.OpCode
	// counts is the enclosing hardware loop nest (all-ones outside a LOOP).
	counts descriptor.LoopCounts
	ops    []operand
}

// extend widens base over the loop nest: each level contributes
// (iterations-1) strides in its direction.
func extend(base Span, st accel.Strides, counts descriptor.LoopCounts) Span {
	out := base
	for l := 0; l < descriptor.MaxLoopLevels; l++ {
		n := int64(counts[l])
		if n < 1 {
			n = 1
		}
		delta := st[l] * (n - 1)
		if delta < 0 {
			out.Addr += phys.Addr(delta)
			out.Bytes += units.Bytes(-delta)
		} else {
			out.Bytes += units.Bytes(delta)
		}
	}
	return out
}

// operandsOf decodes the parameter block of one invocation, performs the
// per-kernel semantic checks, and returns the operand list. counts is the
// enclosing hardware loop nest (all-ones outside a LOOP).
func operandsOf(op descriptor.OpCode, p descriptor.Params, counts descriptor.LoopCounts, fail func(format string, args ...interface{})) []operand {
	spec := accel.SpecOf(op)
	if spec == nil {
		fail("unknown accelerator opcode %v", op)
		return nil
	}
	ops, inPlace, err := spec.Verify(p)
	if err != nil {
		fail("%v", err)
		return nil
	}
	// Every operand size must fit the verifier's size domain, computed
	// exactly; operands sharing a size are checked once.
	out := make([]operand, len(ops))
	ok := true
	var n, v big.Int
	for i, o := range ops {
		base := Span{Addr: o.Addr}
		sameSize := func(p accel.Operand) bool { return p.SizeName == o.SizeName }
		if j := slices.IndexFunc(ops[:i], sameSize); j >= 0 {
			base.Bytes = out[j].base.Bytes
		} else {
			var fits bool
			base.Bytes, fits = fitBytes(o.Size, &n, &v, op, o.SizeName, fail)
			ok = ok && fits
		}
		out[i] = operand{name: o.Name, base: base, ext: extend(base, o.Strides, counts),
			align: o.Size.Elem, acc: o.VerifyAccess, strides: o.Strides}
	}
	if !ok {
		return nil
	}
	if inPlace != nil {
		fail("%v", inPlace)
		return nil
	}
	return out
}

// checkComp runs the per-invocation checks common to every kernel:
// symbolic loop-interval bounds, alignment and intra-invocation operand
// overlap.
func checkComp(c *comp, e *errs) {
	checkIntervals(c, e)
	for _, o := range c.ops {
		if o.align > 1 && int64(o.base.Addr)%o.align != 0 {
			e.addf(c.line, c.idx, "%v: operand %s at %v is not %d-byte aligned", c.op, o.name, o.base.Addr, o.align)
		}
	}
	// A written operand must not partially overlap any other operand:
	// streaming engines read and write concurrently, so only exact aliasing
	// (in-place operation on the identical span) is well-defined.
	for i := 0; i < len(c.ops); i++ {
		for j := i + 1; j < len(c.ops); j++ {
			a, b := c.ops[i], c.ops[j]
			if a.acc&accel.AccWrite == 0 && b.acc&accel.AccWrite == 0 {
				continue
			}
			if a.base.Overlaps(b.base) && a.base != b.base {
				e.addf(c.line, c.idx, "%v: operands %s %v and %s %v partially overlap", c.op, a.name, a.base, b.name, b.base)
			}
		}
	}
}

// loopCountsOf right-aligns a TDL loop nest into the descriptor's fixed
// LoopCounts form, the way descriptor.AddLoop does.
func loopCountsOf(counts []int) descriptor.LoopCounts {
	var lc descriptor.LoopCounts
	for i := range lc {
		lc[i] = 1
	}
	off := descriptor.MaxLoopLevels - len(counts)
	for i, c := range counts {
		if off+i >= 0 && c > 0 && c <= math.MaxUint32 {
			lc[off+i] = uint32(c)
		}
	}
	return lc
}

// options collects Verify adjustments.
type options struct {
	initialized []Span
	checkInit   bool
}

// Option adjusts verification.
type Option func(*options)

// WithInitialized declares the buffer spans the host (or earlier descriptor
// executions) initialized before launch, enabling the read-before-write
// check: every operand read by the task graph must be covered by an
// initialized span or by an earlier write of the same program.
func WithInitialized(spans ...Span) Option {
	return func(o *options) {
		o.initialized = append(o.initialized, spans...)
		o.checkInit = true
	}
}

// VerifyProgram checks a parsed TDL program structurally, without parameter
// bindings: non-empty, valid opcodes, loop trip counts positive and within
// the descriptor's uint32 count fields, nest depth within the hardware
// limit. This is the check available before parameters bind (tdlc,
// mealibcc).
func VerifyProgram(prog *tdl.Program) error {
	var e errs
	verifyStructure(prog, &e)
	return e.err()
}

func verifyStructure(prog *tdl.Program, e *errs) {
	if prog == nil || len(prog.Blocks) == 0 {
		e.addf(0, -1, "empty program")
		return
	}
	idx := 0
	checkPass := func(p tdl.Pass) {
		if len(p.Comps) == 0 {
			e.addf(p.Line, -1, "PASS without COMP blocks")
		}
		for _, c := range p.Comps {
			if !c.Op.Valid() {
				e.addf(c.Line, idx, "invalid accelerator opcode %v", c.Op)
			}
			if c.ParamRef == "" {
				e.addf(c.Line, idx, "%v: empty parameter reference", c.Op)
			}
			idx++
		}
	}
	for _, blk := range prog.Blocks {
		switch v := blk.(type) {
		case tdl.Pass:
			checkPass(v)
		case tdl.Loop:
			if len(v.Counts) == 0 {
				e.addf(v.Line, -1, "LOOP without iteration counts")
			}
			if len(v.Counts) > descriptor.MaxLoopLevels {
				e.addf(v.Line, -1, "loop nest deeper than %d levels", descriptor.MaxLoopLevels)
			}
			for lvl, c := range v.Counts {
				if c <= 0 {
					e.addf(v.Line, -1, "zero-trip loop: level %d has count %d", lvl, c)
				} else if c > math.MaxUint32 {
					e.addf(v.Line, -1, "loop count %d at level %d exceeds the descriptor's 32-bit count field", c, lvl)
				}
			}
			if len(v.Passes) == 0 {
				e.addf(v.Line, -1, "LOOP without PASS blocks")
			}
			for _, p := range v.Passes {
				checkPass(p)
			}
		default:
			e.addf(0, -1, "unknown block type %T", blk)
		}
	}
}

// Verify checks a TDL program with its parameter bindings: everything
// VerifyProgram checks, plus parameter-reference resolution, per-kernel
// operand semantics (sizes, alignment, overlap, power-of-two FFT lengths,
// square in-place transposes), and the dataflow of the task graph (no
// write-after-read cycle inside a chained pass; with WithInitialized, no
// read of an uninitialized buffer).
func Verify(prog *tdl.Program, resolve tdl.ParamResolver, opts ...Option) error {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	var e errs
	verifyStructure(prog, &e)
	if len(e.list) > 0 {
		return e.err() // structure is broken; operand checks would mislead
	}
	if resolve == nil {
		e.addf(0, -1, "nil parameter resolver")
		return e.err()
	}
	var comps []*comp
	idx, passNo := 0, 0
	addPass := func(p tdl.Pass, counts descriptor.LoopCounts) {
		for _, c := range p.Comps {
			cm := &comp{line: c.Line, idx: idx, pass: passNo, op: c.Op, counts: counts}
			params, err := resolve(c.ParamRef)
			if err != nil {
				e.addf(c.Line, idx, "dangling parameter reference %q: %v", c.ParamRef, err)
			} else {
				cm.ops = operandsOf(c.Op, params, counts, func(format string, args ...interface{}) {
					e.addf(c.Line, idx, format, args...)
				})
			}
			comps = append(comps, cm)
			idx++
		}
		passNo++
	}
	ones := loopCountsOf(nil)
	for _, blk := range prog.Blocks {
		switch v := blk.(type) {
		case tdl.Pass:
			addPass(v, ones)
		case tdl.Loop:
			lc := loopCountsOf(v.Counts)
			for _, p := range v.Passes {
				addPass(p, lc)
			}
		}
	}
	checkComps(comps, &o, &e)
	return e.err()
}

// VerifyDescriptor performs the operand and dataflow checks on a lowered
// descriptor. Positions are invocation indices (the TDL line information is
// gone after lowering).
func VerifyDescriptor(d *descriptor.Descriptor, opts ...Option) error {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	var e errs
	if d == nil {
		e.addf(0, -1, "nil descriptor")
		return e.err()
	}
	if err := d.Validate(); err != nil {
		e.addf(0, -1, "%v", err)
		return e.err()
	}
	comps, err := descriptorComps(d)
	if err != nil {
		e.addf(0, -1, "%v", err)
		return e.err()
	}
	for _, c := range comps {
		params, perr := d.ParamsOf(c.idx)
		if perr != nil {
			e.addf(0, c.idx, "%v", perr)
			continue
		}
		c.ops = operandsOf(c.op, params, c.counts, func(format string, args ...interface{}) {
			e.addf(0, c.idx, format, args...)
		})
	}
	checkComps(comps, &o, &e)
	return e.err()
}

// descriptorComps reconstructs the pass/loop structure of a validated
// descriptor's instruction stream.
func descriptorComps(d *descriptor.Descriptor) ([]*comp, error) {
	var comps []*comp
	ones := loopCountsOf(nil)
	counts := ones
	passNo, idx := 0, 0
	for _, in := range d.Instrs {
		switch in.Kind {
		case descriptor.KindComp:
			comps = append(comps, &comp{idx: idx, pass: passNo, op: in.Op, counts: counts})
			idx++
		case descriptor.KindEndPass:
			passNo++
		case descriptor.KindLoop:
			counts = in.Counts
			for l := range counts {
				if counts[l] == 0 {
					counts[l] = 1
				}
			}
		case descriptor.KindEndLoop:
			counts = ones
		}
	}
	return comps, nil
}

// checkComps runs the per-invocation and cross-invocation (task graph)
// checks over the program's invocations in execution order.
func checkComps(comps []*comp, o *options, e *errs) {
	for _, c := range comps {
		checkComp(c, e)
	}
	// Write-after-read inside a chained pass: the comps of a pass stream
	// concurrently (producer feeds consumer through tile-local memory), so a
	// later comp writing a span an earlier comp reads is a cycle in the
	// task graph — the datapath cannot be scheduled.
	for i := 0; i < len(comps); i++ {
		for j := i + 1; j < len(comps); j++ {
			a, b := comps[i], comps[j]
			if a.pass != b.pass {
				continue
			}
			for _, ra := range a.ops {
				if ra.acc&accel.AccRead == 0 {
					continue
				}
				for _, wb := range b.ops {
					if wb.acc&accel.AccWrite == 0 {
						continue
					}
					if ra.base.Overlaps(wb.base) {
						e.addf(b.line, b.idx, "chained pass: %v writes %s %v which %v (comp %d) reads — cycle in the task graph", b.op, wb.name, wb.base, a.op, a.idx)
					}
				}
			}
		}
	}
	// Read-before-write: with the initialized span set known, every read
	// must be covered by host-initialized data or by an earlier write of
	// this program. Extended (whole-loop) spans are used for writes and
	// any-overlap semantics for reads, so the check under-approximates and
	// never rejects a program whose reads might be satisfied.
	if !o.checkInit {
		return
	}
	init := append([]Span(nil), o.initialized...)
	for _, c := range comps {
		for _, op := range c.ops {
			if op.acc&accel.AccRead == 0 {
				continue
			}
			covered := false
			for _, s := range init {
				if s.Overlaps(op.ext) {
					covered = true
					break
				}
			}
			if !covered {
				e.addf(c.line, c.idx, "%v reads %s %v before any write reaches it (uninitialized buffer)", c.op, op.name, op.base)
			}
		}
		for _, op := range c.ops {
			if op.acc&accel.AccWrite != 0 {
				init = append(init, op.ext)
			}
		}
	}
}

// Writes returns the buffer spans a descriptor's task graph writes,
// extended over its hardware loops — what becomes initialized once the
// descriptor executes. The descriptor must be valid.
func Writes(d *descriptor.Descriptor) ([]Span, error) {
	if d == nil {
		return nil, fmt.Errorf("tdlcheck: nil descriptor")
	}
	comps, err := descriptorComps(d)
	if err != nil {
		return nil, err
	}
	var out []Span
	for _, c := range comps {
		params, perr := d.ParamsOf(c.idx)
		if perr != nil {
			return nil, perr
		}
		ops := operandsOf(c.op, params, c.counts, func(string, ...interface{}) {})
		for _, op := range ops {
			if op.acc&accel.AccWrite != 0 {
				out = append(out, op.ext)
			}
		}
	}
	return out, nil
}

// Reads returns the buffer spans a descriptor's task graph reads, extended
// over its hardware loops — what concurrent in-flight executions must not
// overwrite while the descriptor runs. The descriptor must be valid.
func Reads(d *descriptor.Descriptor) ([]Span, error) {
	if d == nil {
		return nil, fmt.Errorf("tdlcheck: nil descriptor")
	}
	comps, err := descriptorComps(d)
	if err != nil {
		return nil, err
	}
	var out []Span
	for _, c := range comps {
		params, perr := d.ParamsOf(c.idx)
		if perr != nil {
			return nil, perr
		}
		ops := operandsOf(c.op, params, c.counts, func(string, ...interface{}) {})
		for _, op := range ops {
			if op.acc&accel.AccRead != 0 {
				out = append(out, op.ext)
			}
		}
	}
	return out, nil
}
