// Package mealibd is the multi-tenant accelerator service built on the
// runtime's Session abstraction: a daemon (cmd/mealibd) serves a
// length-prefixed binary protocol over TCP or unix sockets, so concurrent
// clients — each a tenant with its own buffer namespace, memory quota and
// backpressure bounds — share one simulated memory stack. The matching
// client lives in internal/mealibd/client.
//
// Wire format. Every message is one frame: a little-endian uint32 payload
// length followed by the payload, whose first byte is the message type.
// Requests flow client→server, one at a time per connection (the client
// serialises); every request is answered by exactly one reply frame whose
// first byte is ReplyOK or ReplyErr. ReplyErr carries a uint16 error code —
// quota, queue-full and session-closed map onto the runtime's typed sentinel
// errors on the client side, so a remote tenant can errors.Is() its way
// through backpressure exactly like an in-process one.
package mealibd

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"mealib/internal/descriptor"
	"mealib/internal/units"
)

// Request message types.
const (
	MsgHello       uint8 = iota + 1 // open the tenant session
	MsgAlloc                        // quota-accounted buffer allocation
	MsgFree                         // buffer release
	MsgStore                        // host→buffer element store
	MsgLoad                         // buffer→host element load
	MsgPlan                         // install a descriptor as a session plan
	MsgDestroyPlan                  // release an installed plan
	MsgSubmit                       // launch (or batch) a plan, returning a ticket
	MsgWait                         // block until a ticket's flight completes
	MsgStats                        // tenant + runtime accounting snapshot (JSON)
)

// Reply status bytes.
const (
	ReplyOK uint8 = iota
	ReplyErr
)

// Wire error codes (ReplyErr payload).
const (
	CodeGeneric uint16 = iota + 1
	CodeQuotaExceeded
	CodeQueueFull
	CodeSessionClosed
	CodeOverCapacity
)

// Element kinds for store/load payloads.
const (
	ElemF32 uint8 = iota
	ElemC64
	ElemI32
)

// maxFrame bounds one frame's payload; larger frames indicate a corrupt or
// hostile peer and are refused before allocation.
const maxFrame = 1 << 28

// WriteFrame emits one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("mealibd: frame of %d bytes exceeds the %d limit", len(payload), maxFrame)
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("mealibd: frame of %d bytes exceeds the %d limit", n, maxFrame)
	}
	// Grow the buffer as bytes arrive rather than trusting the header: a
	// peer announcing a large frame and then stalling or hanging up costs
	// what it actually sent, not what it claimed. The MinRead slack lets
	// a frame within the first chunk land without regrowing the buffer.
	var buf bytes.Buffer
	buf.Grow(min(int(n), frameChunk) + bytes.MinRead)
	if k, err := io.CopyN(&buf, r, int64(n)); err != nil {
		if err == io.EOF && k > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf.Bytes(), nil
}

// frameChunk is the most ReadFrame allocates for a frame before its bytes
// arrive; larger frames grow geometrically as they do.
const frameChunk = 64 << 10

// Enc builds a payload.
type Enc struct{ b []byte }

// Payload returns the bytes built so far.
func (e *Enc) Payload() []byte { return e.b }

func (e *Enc) U8(v uint8)    { e.b = append(e.b, v) }
func (e *Enc) U16(v uint16)  { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *Enc) U32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *Enc) U64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.b = append(e.b, s...)
}
func (e *Enc) Bytes(p []byte) {
	e.U32(uint32(len(p)))
	e.b = append(e.b, p...)
}

// Dec consumes a payload; the first decoding error sticks (check Err at the
// end of a message).
type Dec struct {
	b   []byte
	err error
}

// NewDec wraps a received payload.
func NewDec(payload []byte) *Dec { return &Dec{b: payload} }

// Err returns the sticky decoding error, if any.
func (d *Dec) Err() error { return d.err }

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b) < n {
		d.err = fmt.Errorf("mealibd: truncated payload (%d bytes short)", n-len(d.b))
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}
func (d *Dec) U8() uint8 {
	p := d.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}
func (d *Dec) U16() uint16 {
	p := d.take(2)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(p)
}
func (d *Dec) U32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}
func (d *Dec) U64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }
func (d *Dec) Str() string  { return string(d.take(int(d.U32()))) }
func (d *Dec) Bytes() []byte {
	n := int(d.U32())
	p := d.take(n)
	if p == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, p)
	return out
}

// MarshalDescriptor serialises a descriptor's instruction stream and
// parameter blocks for MsgPlan. The wire carries the builder-side IR, not
// the encoded command-space image: the server re-verifies and re-encodes it
// inside the tenant's namespace.
func MarshalDescriptor(e *Enc, d *descriptor.Descriptor) error {
	e.U32(uint32(len(d.Instrs)))
	comp := 0
	for _, in := range d.Instrs {
		e.U8(uint8(in.Kind))
		switch in.Kind {
		case descriptor.KindComp:
			e.U8(uint8(in.Op))
			p, err := d.ParamsOf(comp)
			if err != nil {
				return err
			}
			comp++
			e.U32(uint32(len(p)))
			for _, f := range p {
				e.U64(f)
			}
		case descriptor.KindLoop:
			for _, c := range in.Counts {
				e.U32(c)
			}
		case descriptor.KindEndPass, descriptor.KindEndLoop:
		default:
			return fmt.Errorf("mealibd: unmarshalable instruction kind %d", in.Kind)
		}
	}
	return nil
}

// UnmarshalDescriptor rebuilds a descriptor from the wire through the
// builder API, so every structural invariant AddComp/AddLoop enforce holds
// for wire-received descriptors too.
func UnmarshalDescriptor(d *Dec) (*descriptor.Descriptor, error) {
	// Every count is bounded by the bytes left before anything is sized
	// from it: an instruction takes at least one byte, a field eight.
	n := int(d.U32())
	if n > len(d.b) {
		return nil, fmt.Errorf("mealibd: descriptor instruction count %d exceeds the %d payload bytes left", n, len(d.b))
	}
	out := &descriptor.Descriptor{}
	for i := 0; i < n && d.err == nil; i++ {
		switch kind := descriptor.InstrKind(d.U8()); kind {
		case descriptor.KindComp:
			op := descriptor.OpCode(d.U8())
			nf := int(d.U32())
			if nf > len(d.b)/8 {
				return nil, fmt.Errorf("mealibd: parameter block of %d fields exceeds the %d payload bytes left", nf, len(d.b))
			}
			p := make(descriptor.Params, nf)
			for j := range p {
				p[j] = d.U64()
			}
			if d.err != nil {
				return nil, d.err
			}
			if err := out.AddComp(op, p); err != nil {
				return nil, err
			}
		case descriptor.KindEndPass:
			out.AddEndPass()
		case descriptor.KindLoop:
			var counts [descriptor.MaxLoopLevels]uint32
			for l := range counts {
				counts[l] = d.U32()
			}
			if d.err != nil {
				return nil, d.err
			}
			if err := out.AddLoop(counts[:]...); err != nil {
				return nil, err
			}
		case descriptor.KindEndLoop:
			out.AddEndLoop()
		default:
			return nil, fmt.Errorf("mealibd: unknown instruction kind %d", kind)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return out, nil
}

// Report is the wire form of one completed flight's accounting, the MsgWait
// reply body.
type Report struct {
	// Comps counts accelerator activations; Batched is the number of
	// descriptors the server coalesced into the launch that carried this
	// ticket (1 = launched alone).
	Comps   int64
	Batched int64
	// Time/Energy are the accelerator layer's; Overhead* the invocation
	// overhead (flush + descriptor copy); HostIdleEnergy the blocked host.
	Time           units.Seconds
	Energy         units.Joules
	OverheadTime   units.Seconds
	OverheadEnergy units.Joules
	HostIdleEnergy units.Joules
	// BytesMoved/BytesElided are the launch's DRAM traffic and the traffic
	// chaining elided.
	BytesMoved  units.Bytes
	BytesElided units.Bytes
}

// MarshalReport appends the report to the payload.
func MarshalReport(e *Enc, r *Report) {
	e.U64(uint64(r.Comps))
	e.U64(uint64(r.Batched))
	e.F64(float64(r.Time))
	e.F64(float64(r.Energy))
	e.F64(float64(r.OverheadTime))
	e.F64(float64(r.OverheadEnergy))
	e.F64(float64(r.HostIdleEnergy))
	e.U64(uint64(r.BytesMoved))
	e.U64(uint64(r.BytesElided))
}

// UnmarshalReport decodes a report from the payload.
func UnmarshalReport(d *Dec) Report {
	return Report{
		Comps:          int64(d.U64()),
		Batched:        int64(d.U64()),
		Time:           units.Seconds(d.F64()),
		Energy:         units.Joules(d.F64()),
		OverheadTime:   units.Seconds(d.F64()),
		OverheadEnergy: units.Joules(d.F64()),
		HostIdleEnergy: units.Joules(d.F64()),
		BytesMoved:     units.Bytes(d.U64()),
		BytesElided:    units.Bytes(d.U64()),
	}
}

// Element conversions (little-endian wire layout).

// BytesToF32 decodes a wire f32 array.
func BytesToF32(p []byte) []float32 {
	out := make([]float32, len(p)/4)
	for i := range out {
		out[i] = math.Float32frombits(leU32(p[4*i:]))
	}
	return out
}

// F32ToBytes encodes a wire f32 array.
func F32ToBytes(vs []float32) []byte {
	out := make([]byte, 4*len(vs))
	for i, v := range vs {
		putU32(out[4*i:], math.Float32bits(v))
	}
	return out
}

// BytesToC64 decodes a wire c64 array (real, imag pairs).
func BytesToC64(p []byte) []complex64 {
	out := make([]complex64, len(p)/8)
	for i := range out {
		re := math.Float32frombits(leU32(p[8*i:]))
		im := math.Float32frombits(leU32(p[8*i+4:]))
		out[i] = complex(re, im)
	}
	return out
}

// C64ToBytes encodes a wire c64 array.
func C64ToBytes(vs []complex64) []byte {
	out := make([]byte, 8*len(vs))
	for i, v := range vs {
		putU32(out[8*i:], math.Float32bits(real(v)))
		putU32(out[8*i+4:], math.Float32bits(imag(v)))
	}
	return out
}

// BytesToI32 decodes a wire i32 array.
func BytesToI32(p []byte) []int32 {
	out := make([]int32, len(p)/4)
	for i := range out {
		out[i] = int32(leU32(p[4*i:]))
	}
	return out
}

// I32ToBytes encodes a wire i32 array.
func I32ToBytes(vs []int32) []byte {
	out := make([]byte, 4*len(vs))
	for i, v := range vs {
		putU32(out[4*i:], uint32(v))
	}
	return out
}

func leU32(p []byte) uint32 {
	return uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
}

func putU32(p []byte, v uint32) {
	p[0] = byte(v)
	p[1] = byte(v >> 8)
	p[2] = byte(v >> 16)
	p[3] = byte(v >> 24)
}
