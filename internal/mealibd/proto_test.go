package mealibd_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/mealibd"
)

// totalAlloc returns the bytes the process has allocated so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// allocBound is what decoding n untrusted bytes may allocate: a constant
// factor of the input (an instruction record is a few dozen bytes for one
// wire byte, and slices grow by doubling) plus a fixed allowance.
func allocBound(n int) uint64 { return 128*uint64(n) + 1<<20 }

// TestUnmarshalDescriptorBoundsFieldCount: a field count the payload cannot
// back is refused before anything is sized from it.
func TestUnmarshalDescriptorBoundsFieldCount(t *testing.T) {
	var e mealibd.Enc
	e.U32(1) // one instruction
	e.U8(uint8(descriptor.KindComp))
	e.U8(uint8(descriptor.OpAXPY))
	e.U32(1 << 25) // 2^25 fields = 256 MiB, backed by no bytes at all
	payload := e.Payload()
	if len(payload) != 10 {
		t.Fatalf("payload is %d bytes, want 10", len(payload))
	}
	before := totalAlloc()
	_, err := mealibd.UnmarshalDescriptor(mealibd.NewDec(payload))
	grew := totalAlloc() - before
	if err == nil || !strings.Contains(err.Error(), "parameter block of 33554432 fields exceeds the 0 payload bytes left") {
		t.Errorf("err = %v, want the field count refused", err)
	}
	if grew >= 1<<20 {
		t.Errorf("decoding a 10-byte payload allocated %d bytes", grew)
	}
}

// TestUnmarshalDescriptorBoundsInstrCount: likewise for the instruction
// count.
func TestUnmarshalDescriptorBoundsInstrCount(t *testing.T) {
	var e mealibd.Enc
	e.U32(1 << 30)
	e.U8(uint8(descriptor.KindEndPass))
	_, err := mealibd.UnmarshalDescriptor(mealibd.NewDec(e.Payload()))
	if err == nil || !strings.Contains(err.Error(), "instruction count 1073741824 exceeds the 1 payload bytes left") {
		t.Errorf("err = %v, want the instruction count refused", err)
	}
}

// TestReadFrameAllocatesAsBytesArrive: a header claiming the maximum frame
// over a short body allocates what arrived, and the body's truncation is
// reported as such.
func TestReadFrameAllocatesAsBytesArrive(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 1<<28)
	in := append(hdr[:], make([]byte, 100)...)
	before := totalAlloc()
	_, err := mealibd.ReadFrame(bytes.NewReader(in))
	if grew := totalAlloc() - before; grew >= 1<<20 {
		t.Errorf("reading a 104-byte stream allocated %d bytes", grew)
	}
	if err == nil || err.Error() != "unexpected EOF" {
		t.Errorf("err = %v, want unexpected EOF", err)
	}
	// A frame larger than the first chunk still arrives whole.
	body := bytes.Repeat([]byte{7, 1, 3}, 100_000)
	var buf bytes.Buffer
	if err := mealibd.WriteFrame(&buf, body); err != nil {
		t.Fatal(err)
	}
	got, err := mealibd.ReadFrame(&buf)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("round trip of a %d-byte frame: err=%v equal=%v", len(body), err, bytes.Equal(got, body))
	}
}

// wireSeeds are the marshalled descriptors the service tests send.
func wireSeeds(f *testing.F) [][]byte {
	chain, err := chainDesc(0x10000, 0x80000)
	if err != nil {
		f.Fatal(err)
	}
	axpy := &descriptor.Descriptor{}
	if err := axpy.AddComp(descriptor.OpAXPY, accel.AxpyArgs{N: 64, Alpha: 2, X: 0x1000, Y: 0x2000, IncX: 1, IncY: 1}.Params()); err != nil {
		f.Fatal(err)
	}
	axpy.AddEndPass()
	var out [][]byte
	for _, d := range []*descriptor.Descriptor{chain, axpy} {
		var e mealibd.Enc
		if err := mealibd.MarshalDescriptor(&e, d); err != nil {
			f.Fatal(err)
		}
		out = append(out, e.Payload())
	}
	return out
}

// FuzzUnmarshalDescriptor: arbitrary payloads never panic, never allocate
// out of proportion to their size, and whatever decodes marshals back to
// the bytes it was decoded from.
func FuzzUnmarshalDescriptor(f *testing.F) {
	for _, s := range wireSeeds(f) {
		f.Add(s)
	}
	f.Add([]byte{1, 0, 0, 0, 1, 1, 0, 0, 0, 2})
	f.Fuzz(func(t *testing.T, in []byte) {
		before := totalAlloc()
		d, err := mealibd.UnmarshalDescriptor(mealibd.NewDec(in))
		if grew := totalAlloc() - before; grew > allocBound(len(in)) {
			t.Fatalf("decoding %d bytes allocated %d", len(in), grew)
		}
		if err != nil {
			return
		}
		var e mealibd.Enc
		if err := mealibd.MarshalDescriptor(&e, d); err != nil {
			t.Fatalf("decoded descriptor does not marshal: %v", err)
		}
		if !bytes.HasPrefix(in, e.Payload()) {
			t.Fatalf("round trip changed the wire form:\n in: %x\nout: %x", in, e.Payload())
		}
	})
}

// FuzzReadFrame: arbitrary streams never panic, never allocate out of
// proportion to their size, and a frame that reads back is exactly the
// announced prefix of the stream.
func FuzzReadFrame(f *testing.F) {
	for _, s := range wireSeeds(f) {
		var buf bytes.Buffer
		if err := mealibd.WriteFrame(&buf, s); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{0, 0, 0, 16, 1, 2, 3})
	f.Fuzz(func(t *testing.T, in []byte) {
		before := totalAlloc()
		payload, err := mealibd.ReadFrame(bytes.NewReader(in))
		if grew := totalAlloc() - before; grew > allocBound(len(in)) {
			t.Fatalf("reading %d bytes allocated %d", len(in), grew)
		}
		if err != nil {
			return
		}
		n := int(binary.LittleEndian.Uint32(in))
		if len(payload) != n || !bytes.Equal(payload, in[4:4+n]) {
			t.Fatalf("frame of %d bytes read back as %d bytes", n, len(payload))
		}
	})
}
