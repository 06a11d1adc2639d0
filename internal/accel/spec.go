package accel

import (
	"fmt"
	"math/bits"

	"mealib/internal/descriptor"
	"mealib/internal/kernels"
	"mealib/internal/phys"
	"mealib/internal/units"
)

// The per-op spec table. Each accelerator reads a fixed parameter block out
// of the Parameter Region (paper §2.2-2.3); this file is the one place that
// block's meaning is written down. Every consumer — the functional cores,
// the work model, locality billing, the dependence analyses, out-of-core
// lowering, the static verifier (internal/analysis/tdlcheck) and the
// compiler's binder (internal/ccompiler) — reads its entry instead of
// decoding the block itself. Adding an accelerator means one entry here,
// one typed decoder (args.go) and one core (cores.go).

// FieldKind is the type of one parameter-block field.
type FieldKind uint8

// Field kinds.
const (
	FieldInt  FieldKind = iota // signed integer
	FieldFlag                  // boolean, encoded as 0 or 1
	FieldF32                   // float32 bits
	FieldAddr                  // physical address
)

// Field is one slot of an accelerator's fixed parameter block.
type Field struct {
	Name string
	Kind FieldKind
	// Strided marks an address field the hardware loop nest advances. The
	// fixed fields are followed by MaxLoopLevels byte strides per strided
	// field, in field order.
	Strided bool
}

func fInt(name string) Field  { return Field{Name: name} }
func fFlag(name string) Field { return Field{Name: name, Kind: FieldFlag} }
func fF32(name string) Field  { return Field{Name: name, Kind: FieldF32} }
func fAddr(name string) Field { return Field{Name: name, Kind: FieldAddr} }
func fLoop(name string) Field { return Field{Name: name, Kind: FieldAddr, Strided: true} }

// Access is the direction an operand is streamed.
type Access uint8

// Access directions.
const (
	AccRead Access = 1 << iota
	AccWrite
)

// Extent is an operand footprint kept in factored form: Elem·(Rows·Pitch +
// Tail) bytes. Bytes evaluates it in wrapping int64 arithmetic, as the
// machine-side consumers always have; the verifier evaluates the same
// factors exactly. Elem is also the operand's element size and alignment.
type Extent struct{ Elem, Rows, Pitch, Tail int64 }

// Bytes is the footprint in machine arithmetic.
func (e Extent) Bytes() units.Bytes { return units.Bytes(e.Elem * (e.Rows*e.Pitch + e.Tail)) }

// count is the extent of n consecutive elements.
func count(elem, n int64) Extent { return Extent{Elem: elem, Tail: n} }

// rowsOf is the extent of rows rows of n elements, pitch elements apart
// (empty when rows ≤ 0).
func rowsOf(elem, rows, pitch, n int64) Extent {
	if rows <= 0 {
		return Extent{Elem: elem}
	}
	return Extent{elem, rows - 1, pitch, n}
}

// vec is the extent of a strided vector of n elements.
func vec(elem, n, inc int64) Extent {
	if inc < 0 {
		inc = -inc
	}
	return rowsOf(elem, n, inc, 1)
}

// span returns the number of elements a strided vector touches.
func span(n, inc int64) int { return int(vec(1, n, inc).Bytes()) }

// Operand is one buffer an invocation touches, evaluated for one parameter
// block.
type Operand struct {
	Name string
	Addr phys.Addr
	Size Extent
	// Access is the direction the dependence analyses (scheduler, fusion,
	// loop independence, out-of-core staging) see. VerifyAccess is the
	// verifier's view, narrower where it knows more: GEMV reads y only
	// when beta != 0.
	Access, VerifyAccess Access
	// Strides advance Addr per loop-nest level (zero for a fixed field).
	Strides Strides
	// Traffic is the operand's locality-billed bytes: the footprint, twice
	// for a read-modify-write operand, or an indirectly indexed operand's
	// gather traffic (SPMV bills x as 4·NNZ, its footprint is 4·Cols).
	Traffic units.Bytes
	// SizeName names the size the verifier checks; operands sharing a
	// SizeName share one check.
	SizeName string
}

// maxOperands is the most operands any accelerator has (SPMV).
const maxOperands = 5

// extents are an invocation's operand footprints, in operand order.
type extents [maxOperands]Extent

// operandSet holds an invocation's operands without a heap allocation.
type operandSet struct {
	n   int
	ops [maxOperands]Operand
}

// aliasRule is how consumers view an invocation whose first two operands
// (source and destination) share an address.
type aliasRule uint8

const (
	// aliasSeparate: always two operands.
	aliasSeparate aliasRule = iota
	// aliasVerified: the verifier sees one read-write "data" operand.
	aliasVerified
	// aliasMerged: locality billing also sees one span (in-place FFT);
	// aliasVerified ops (RESHP) bill source and destination separately.
	aliasMerged
)

// OpSpec is the table entry of one accelerator.
type OpSpec struct {
	Op     descriptor.OpCode
	Fields []Field
	// NumParams is the parameter block's length: the fixed fields, then
	// one stride block per strided field.
	NumParams int

	alias   aliasRule
	strided bool // some field has loop strides
	ops     []operandInfo
	ioSpans int // directional spans per invocation

	// Typed behaviour, bound by define to the op's argument struct so the
	// per-iteration path never boxes arguments.
	sizes    func(descriptor.Params) (extents, error)
	operands func(p descriptor.Params, verify bool) (set operandSet, inPlace, err error)
	work     func(descriptor.Params) (Work, error)
	exec     func(*phys.Space, descriptor.Params, IterVec) (Work, error)
	canon    func(descriptor.Params) (descriptor.Params, error)
	split    func(p descriptor.Params, pieces int64, budget units.Bytes) ([]descriptor.Params, error)
}

// operandInfo is what an operand's description says independently of the
// parameter values.
type operandInfo struct {
	name, sizeName string
	field, stride  int // address field and stride block (-1: none)
	acc            Access
}

// at returns operand i's address and loop strides in p.
func (s *OpSpec) at(p descriptor.Params, i int) (phys.Addr, Strides) {
	var st Strides
	if k := s.ops[i].stride; k >= 0 {
		st = stridesOf(p[k:])
	}
	return descriptor.AddrOf(p[s.ops[i].field]), st
}

// addrAt returns operand i's address in p at loop iteration it.
func (s *OpSpec) addrAt(p descriptor.Params, i int, it IterVec) phys.Addr {
	a := descriptor.AddrOf(p[s.ops[i].field])
	if k := s.ops[i].stride; k >= 0 {
		for l, f := range p[k : k+descriptor.MaxLoopLevels] {
			a += phys.Addr(i64Of(f) * it[l])
		}
	}
	return a
}

// SpecOf returns op's table entry, or nil when op names no accelerator.
func SpecOf(op descriptor.OpCode) *OpSpec {
	if int(op) < len(specs) {
		return specs[op]
	}
	return nil
}

// WorkOf computes the workload profile of an invocation without executing
// it — the same formulas the functional cores report, evaluated from the
// parameters alone. The experiment harness uses this for paper-scale
// problem sizes where functionally transforming gigabytes per sweep point
// would be pointless; tests pin WorkOf against the functional cores.
func WorkOf(op descriptor.OpCode, p descriptor.Params) (Work, error) {
	e := SpecOf(op)
	if e == nil {
		return Work{}, fmt.Errorf("accel: no work model for opcode %v", op)
	}
	return e.work(p)
}

// Verify decodes p for the static verifier: err reports an undecodable
// block or a violated semantic constraint. Otherwise ops lists the operands
// as the verifier sees them, and inPlace is a violated constraint of an
// aliased invocation, which the verifier reports only once the operand
// sizes are known to be representable.
func (s *OpSpec) Verify(p descriptor.Params) (ops []Operand, inPlace, err error) {
	set, inPlace, err := s.operands(p, true)
	if err != nil {
		return nil, nil, err
	}
	return append([]Operand(nil), set.ops[:set.n]...), inPlace, nil
}

// argBlock is what every typed argument struct provides: its encoding,
// its operand footprints in operand order, and its work profile.
type argBlock interface {
	Params() descriptor.Params
	sizes() extents
	work() Work
}

// opDef is the typed description of one accelerator.
type opDef[A argBlock] struct {
	fields []Field
	decode func(descriptor.Params) (A, error)
	// operands describe the address fields, in field order.
	operands []operandDef[A]
	// core runs the invocation at loop iteration it.
	core func(*phys.Space, A, IterVec) error
	// check is the verifier's semantic constraints; checkInPlace those an
	// aliased invocation adds.
	check        func(A) error
	alias        aliasRule
	checkInPlace func(A) error
	// split divides an oversized invocation exactly for out-of-core
	// staging; nil means the op has no exact split.
	split func(a A, pieces int64, budget units.Bytes) ([]descriptor.Params, error)
}

// operandDef describes the operand at one address field.
type operandDef[A any] struct {
	acc      Access
	sizeName string         // default: the field name
	verify   func(A) Access // the verifier's access, when narrower
	gather   func(A) Extent // gather traffic, billed as random access
}

// define builds the table entry of an accelerator from its typed
// description.
func define[A argBlock](op descriptor.OpCode, d opDef[A]) *OpSpec {
	s := &OpSpec{Op: op, Fields: d.fields, NumParams: len(d.fields), alias: d.alias}
	for f, fd := range d.fields {
		stride := -1
		if fd.Strided {
			stride, s.strided = s.NumParams, true
			s.NumParams += descriptor.MaxLoopLevels
		}
		if fd.Kind == FieldAddr && len(s.ops) < len(d.operands) {
			od := d.operands[len(s.ops)]
			o := operandInfo{name: fd.Name, sizeName: od.sizeName, field: f, stride: stride, acc: od.acc}
			if o.sizeName == "" {
				o.sizeName = o.name
			}
			s.ops = append(s.ops, o)
			s.ioSpans += bits.OnesCount8(uint8(od.acc))
		}
	}
	if len(s.ops) != len(d.operands) {
		panic(fmt.Sprintf("accel: %v describes %d operands for %d address fields", op, len(d.operands), len(s.ops)))
	}
	s.sizes = func(p descriptor.Params) (extents, error) {
		a, err := d.decode(p)
		if err != nil {
			return extents{}, err
		}
		return a.sizes(), nil
	}
	s.operands = func(p descriptor.Params, verify bool) (set operandSet, inPlace, err error) {
		a, err := d.decode(p)
		if err != nil {
			return set, nil, err
		}
		if verify && d.check != nil {
			if err := d.check(a); err != nil {
				return set, nil, err
			}
		}
		sz := a.sizes()
		for i, od := range d.operands {
			info := &s.ops[i]
			o := Operand{Name: info.name, Size: sz[i], Access: od.acc, VerifyAccess: od.acc, SizeName: info.sizeName}
			o.Addr, o.Strides = s.at(p, i)
			if od.verify != nil {
				o.VerifyAccess = od.verify(a)
			}
			o.Traffic = o.Size.Bytes()
			switch {
			case od.gather != nil:
				o.Traffic = od.gather(a).Bytes()
			case od.acc == AccRead|AccWrite:
				o.Traffic *= 2
			}
			set.ops[i] = o
		}
		set.n = len(d.operands)
		if verify && d.alias != aliasSeparate && set.ops[0].Addr == set.ops[1].Addr {
			if d.checkInPlace != nil {
				inPlace = d.checkInPlace(a)
			}
			data := set.ops[0]
			data.Name, data.Access, data.VerifyAccess = "data", AccRead|AccWrite, AccRead|AccWrite
			set.ops[0], set.n = data, 1
		}
		return set, inPlace, nil
	}
	s.work = func(p descriptor.Params) (Work, error) {
		a, err := d.decode(p)
		if err != nil {
			return Work{}, err
		}
		return a.work(), nil
	}
	s.exec = func(sp *phys.Space, p descriptor.Params, it IterVec) (Work, error) {
		a, err := d.decode(p)
		if err != nil {
			return Work{}, err
		}
		if err := d.core(sp, a, it); err != nil {
			return Work{}, err
		}
		return a.work(), nil
	}
	s.canon = func(p descriptor.Params) (descriptor.Params, error) {
		a, err := d.decode(p)
		if err != nil {
			return nil, err
		}
		return a.Params(), nil
	}
	if d.split != nil {
		s.split = func(p descriptor.Params, pieces int64, budget units.Bytes) ([]descriptor.Params, error) {
			a, err := d.decode(p)
			if err != nil {
				return nil, err
			}
			return d.split(a, pieces, budget)
		}
	}
	return s
}

// checkVector is the verifier's constraint on a strided vector operation.
func checkVector(op string, n, incX, incY int64) error {
	if n <= 0 {
		return fmt.Errorf("%s: non-positive vector length N=%d", op, n)
	}
	if incX == 0 || incY == 0 {
		return fmt.Errorf("%s: zero vector increment (incX=%d incY=%d)", op, incX, incY)
	}
	return nil
}

func (a DotArgs) elem() int64 {
	if a.Complex {
		return 8
	}
	return 4
}

func (a ResmpArgs) elem() int64 {
	if a.Kind >= ResmpComplex {
		return 8
	}
	return 4
}

func (a ReshpArgs) elem() int64 {
	if a.Elem == ElemC64 {
		return 8
	}
	return 4
}

// The operand footprints (sizes, in operand order) and the work profiles:
// flops, and the streamed and randomly accessed DRAM bytes of an unchained
// invocation. work runs once per LOOP iteration and evaluates the
// footprints it needs itself: going through sizes copies the argument
// struct and the footprint array, 13% of the streamed STAP inner
// products' CPU profile on one core.

func (a AxpyArgs) sizes() extents { return extents{vec(4, a.N, a.IncX), vec(4, a.N, a.IncY)} }

func (a AxpyArgs) work() Work {
	y := vec(4, a.N, a.IncY).Bytes()
	return Work{Flops: kernels.SaxpyFlops(int(a.N)), InStream: vec(4, a.N, a.IncX).Bytes() + y, OutStream: y}
}

func (a DotArgs) sizes() extents {
	e := a.elem()
	return extents{vec(e, a.N, a.IncX), vec(e, a.N, a.IncY), count(e, 1)}
}

func (a DotArgs) work() Work {
	e := a.elem()
	w := Work{Flops: kernels.SdotFlops(int(a.N)),
		InStream: vec(e, a.N, a.IncX).Bytes() + vec(e, a.N, a.IncY).Bytes(), OutStream: count(e, 1).Bytes()}
	if a.Complex {
		w.Flops = kernels.CdotcFlops(int(a.N))
	}
	return w
}

func (a GemvArgs) sizes() extents {
	return extents{rowsOf(4, a.M, a.Lda, a.N), count(4, a.N), count(4, a.M)}
}

func (a GemvArgs) work() Work {
	y := count(4, a.M).Bytes()
	return Work{Flops: kernels.SgemvFlops(int(a.M), int(a.N)),
		InStream: rowsOf(4, a.M, a.Lda, a.N).Bytes() + count(4, a.N).Bytes() + y, OutStream: y}
}

func (a SpmvArgs) sizes() extents {
	return extents{{4, a.M, 1, 1}, count(4, a.NNZ), count(4, a.NNZ), count(4, a.Cols), count(4, a.M)}
}

// gather is the traffic of x, read once per non-zero.
func (a SpmvArgs) gather() Extent { return count(4, a.NNZ) }

func (a SpmvArgs) work() Work {
	nz := count(4, a.NNZ).Bytes()
	return Work{Flops: kernels.SpmvFlops(int(a.NNZ)),
		InStream: Extent{4, a.M, 1, 1}.Bytes() + nz + nz, OutStream: count(4, a.M).Bytes(), Random: a.gather().Bytes()}
}

func (a ResmpArgs) sizes() extents { return extents{count(a.elem(), a.NIn), count(a.elem(), a.NOut)} }

func (a ResmpArgs) work() Work {
	w := Work{Flops: kernels.ResampleFlops(int(a.NOut)),
		InStream: count(a.elem(), a.NIn).Bytes(), OutStream: count(a.elem(), a.NOut).Bytes()}
	if a.Kind >= ResmpComplex {
		w.Flops *= 2 // real and imaginary parts
	}
	return w
}

func (a FFTArgs) sizes() extents {
	data := Extent{8, a.N, a.HowMany, 0}
	return extents{data, data}
}

func (a FFTArgs) work() Work {
	data := Extent{8, a.N, a.HowMany, 0}.Bytes()
	return Work{Flops: units.Flops(float64(a.HowMany)) * kernels.FFTFlops(int(a.N)), InStream: data, OutStream: data}
}

func (a ReshpArgs) sizes() extents {
	data := Extent{a.elem(), a.Rows, a.Cols, 0}
	return extents{data, data}
}

func (a ReshpArgs) work() Work {
	data := Extent{a.elem(), a.Rows, a.Cols, 0}.Bytes()
	return Work{InStream: data, OutStream: data}
}

// specs is the table, indexed by opcode.
var specs = [...]*OpSpec{
	descriptor.OpAXPY: define(descriptor.OpAXPY, opDef[AxpyArgs]{
		fields:   []Field{fInt("n"), fF32("alpha"), fLoop("x"), fLoop("y"), fInt("incX"), fInt("incY")},
		decode:   DecodeAxpyArgs,
		operands: []operandDef[AxpyArgs]{{acc: AccRead}, {acc: AccRead | AccWrite}},
		core:     axpyCore,
		check:    func(a AxpyArgs) error { return checkVector("AXPY", a.N, a.IncX, a.IncY) },
		split:    splitAxpy,
	}),
	descriptor.OpDOT: define(descriptor.OpDOT, opDef[DotArgs]{
		fields:   []Field{fInt("n"), fFlag("complex"), fLoop("x"), fLoop("y"), fLoop("out"), fInt("incX"), fInt("incY")},
		decode:   DecodeDotArgs,
		operands: []operandDef[DotArgs]{{acc: AccRead}, {acc: AccRead}, {acc: AccWrite}},
		core:     dotCore,
		check:    func(a DotArgs) error { return checkVector("DOT", a.N, a.IncX, a.IncY) },
	}),
	descriptor.OpGEMV: define(descriptor.OpGEMV, opDef[GemvArgs]{
		fields: []Field{fInt("m"), fInt("n"), fF32("alpha"), fF32("beta"), fLoop("A"), fInt("lda"), fLoop("x"), fLoop("y")},
		decode: DecodeGemvArgs,
		operands: []operandDef[GemvArgs]{{acc: AccRead}, {acc: AccRead},
			// Billing and the dependence analyses count y as read whatever
			// beta is; the verifier knows y is accumulated only when
			// beta != 0.
			{acc: AccRead | AccWrite, verify: func(a GemvArgs) Access {
				if a.Beta != 0 {
					return AccRead | AccWrite
				}
				return AccWrite
			}},
		},
		core: gemvCore,
		check: func(a GemvArgs) error {
			if a.M <= 0 || a.N <= 0 {
				return fmt.Errorf("GEMV: non-positive matrix dimensions %dx%d", a.M, a.N)
			}
			if a.Lda < a.N {
				return fmt.Errorf("GEMV: leading dimension %d smaller than row length %d (operand size mismatch)", a.Lda, a.N)
			}
			return nil
		},
		split: splitGemv,
	}),
	descriptor.OpSPMV: define(descriptor.OpSPMV, opDef[SpmvArgs]{
		// No loop strides: inside a LOOP every iteration touches the same
		// spans, so the independence check always (correctly) reports a
		// conflict.
		fields: []Field{fInt("m"), fInt("cols"), fInt("nnz"),
			fAddr("rowPtr"), fAddr("colIdx"), fAddr("values"), fAddr("x"), fAddr("y"),
			fInt("semiring"), fF32("bias")},
		decode: DecodeSpmvArgs,
		operands: []operandDef[SpmvArgs]{{acc: AccRead}, {acc: AccRead}, {acc: AccRead, sizeName: "colIdx"},
			// x is gathered once per non-zero: billed 4·NNZ, 4·Cols big.
			{acc: AccRead, gather: SpmvArgs.gather},
			{acc: AccWrite}},
		core: spmvCore,
		check: func(a SpmvArgs) error {
			if a.M <= 0 || a.Cols <= 0 {
				return fmt.Errorf("SPMV: non-positive matrix dimensions %dx%d", a.M, a.Cols)
			}
			if a.NNZ < 0 {
				return fmt.Errorf("SPMV: negative non-zero count %d", a.NNZ)
			}
			if a.Semiring != SpmvPlusTimes && a.Semiring != SpmvMinPlus {
				return fmt.Errorf("SPMV: unknown semiring %d", a.Semiring)
			}
			return nil
		},
	}),
	descriptor.OpRESMP: define(descriptor.OpRESMP, opDef[ResmpArgs]{
		fields:   []Field{fInt("nIn"), fInt("nOut"), fInt("kind"), fLoop("src"), fLoop("dst")},
		decode:   DecodeResmpArgs,
		operands: []operandDef[ResmpArgs]{{acc: AccRead}, {acc: AccWrite}},
		core:     resmpCore,
		check: func(a ResmpArgs) error {
			if a.Kind < 0 || a.Kind >= 2*ResmpComplex {
				return fmt.Errorf("RESMP: invalid interpolation kind %d", a.Kind)
			}
			if a.NIn < 2 {
				return fmt.Errorf("RESMP: interpolation needs at least 2 input samples, got %d", a.NIn)
			}
			if a.NOut <= 0 {
				return fmt.Errorf("RESMP: non-positive output length %d", a.NOut)
			}
			return nil
		},
	}),
	descriptor.OpFFT: define(descriptor.OpFFT, opDef[FFTArgs]{
		fields:   []Field{fInt("n"), fFlag("inverse"), fInt("howMany"), fLoop("src"), fLoop("dst")},
		decode:   DecodeFFTArgs,
		operands: []operandDef[FFTArgs]{{acc: AccRead, sizeName: "data"}, {acc: AccWrite, sizeName: "data"}},
		core:     fftCore,
		check: func(a FFTArgs) error {
			if a.N <= 0 || a.N&(a.N-1) != 0 {
				return fmt.Errorf("FFT: transform length %d is not a power of two", a.N)
			}
			if a.HowMany <= 0 {
				return fmt.Errorf("FFT: non-positive batch count %d", a.HowMany)
			}
			return nil
		},
		alias: aliasMerged,
		split: splitFFT,
	}),
	descriptor.OpRESHP: define(descriptor.OpRESHP, opDef[ReshpArgs]{
		fields:   []Field{fInt("rows"), fInt("cols"), fInt("elem"), fAddr("src"), fAddr("dst")},
		decode:   DecodeReshpArgs,
		operands: []operandDef[ReshpArgs]{{acc: AccRead, sizeName: "data"}, {acc: AccWrite, sizeName: "data"}},
		core:     reshpCore,
		check: func(a ReshpArgs) error {
			if a.Rows <= 0 || a.Cols <= 0 {
				return fmt.Errorf("RESHP: non-positive matrix dimensions %dx%d", a.Rows, a.Cols)
			}
			if a.Elem != ElemF32 && a.Elem != ElemC64 {
				return fmt.Errorf("RESHP: invalid element kind %d", a.Elem)
			}
			return nil
		},
		alias: aliasVerified,
		checkInPlace: func(a ReshpArgs) error {
			if a.Rows != a.Cols {
				return fmt.Errorf("RESHP: in-place transpose requires a square matrix, got %dx%d", a.Rows, a.Cols)
			}
			return nil
		},
	}),
}
