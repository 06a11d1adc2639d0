package phys

import (
	"testing"
	"testing/quick"

	"mealib/internal/units"
)

func TestMapUnmap(t *testing.T) {
	s := NewSpace(1 * units.MiB)
	r, err := s.Map(0x1000, 4096)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if r.Addr() != 0x1000 || r.Size() != 4096 {
		t.Fatalf("region = %v+%v", r.Addr(), r.Size())
	}
	if got := s.Mapped(); got != 4096 {
		t.Errorf("Mapped = %v, want 4096", got)
	}
	if err := s.Unmap(0x1000); err != nil {
		t.Fatalf("Unmap: %v", err)
	}
	if got := s.Mapped(); got != 0 {
		t.Errorf("Mapped after unmap = %v", got)
	}
}

func TestMapErrors(t *testing.T) {
	s := NewSpace(64 * units.KiB)
	if _, err := s.Map(0, 0); err == nil {
		t.Error("zero-size map must fail")
	}
	if _, err := s.Map(60*1024, 8*1024); err == nil {
		t.Error("map past end of space must fail")
	}
	if _, err := s.Map(0x1000, 4096); err != nil {
		t.Fatal(err)
	}
	overlaps := []struct {
		a Addr
		n units.Bytes
	}{
		{0x1000, 4096}, // exact
		{0x0, 0x1001},  // tail overlap
		{0x1fff, 16},   // head overlap
		{0x1800, 16},   // inner
	}
	for _, o := range overlaps {
		if _, err := s.Map(o.a, o.n); err == nil {
			t.Errorf("overlapping map at %v+%v must fail", o.a, o.n)
		}
	}
	// Adjacent maps are fine.
	if _, err := s.Map(0x2000, 4096); err != nil {
		t.Errorf("adjacent map failed: %v", err)
	}
	if _, err := s.Map(0x0, 0x1000); err != nil {
		t.Errorf("adjacent-below map failed: %v", err)
	}
}

func TestUnmapErrors(t *testing.T) {
	s := NewSpace(64 * units.KiB)
	if _, err := s.Map(0x1000, 4096); err != nil {
		t.Fatal(err)
	}
	if err := s.Unmap(0x1004); err == nil {
		t.Error("unmap of non-base address must fail")
	}
	if err := s.Unmap(0x9000); err == nil {
		t.Error("unmap of unmapped address must fail")
	}
}

func TestRegionLookup(t *testing.T) {
	s := NewSpace(1 * units.MiB)
	if _, err := s.Map(0x4000, 4096); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Region(0x4fff); !ok {
		t.Error("last byte of region must be found")
	}
	if _, ok := s.Region(0x5000); ok {
		t.Error("first byte past region must not be found")
	}
	if _, ok := s.Region(0x3fff); ok {
		t.Error("byte before region must not be found")
	}
}

func TestScalarAccess(t *testing.T) {
	s := NewSpace(64 * units.KiB)
	if _, err := s.Map(0, 1024); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteFloat32(16, 3.25); err != nil {
		t.Fatal(err)
	}
	v, err := s.ReadFloat32(16)
	if err != nil || v != 3.25 {
		t.Errorf("float32 round trip: %v %v", v, err)
	}
	if err := s.WriteUint64(32, 0xdeadbeefcafef00d); err != nil {
		t.Fatal(err)
	}
	u, err := s.ReadUint64(32)
	if err != nil || u != 0xdeadbeefcafef00d {
		t.Errorf("uint64 round trip: %x %v", u, err)
	}
	if _, err := s.ReadUint32(2048); err == nil {
		t.Error("read outside region must fail")
	}
	if _, err := s.ReadUint32(1022); err == nil {
		t.Error("read crossing region end must fail")
	}
}

func TestBulkFloat32(t *testing.T) {
	s := NewSpace(64 * units.KiB)
	if _, err := s.Map(0x100, 4096); err != nil {
		t.Fatal(err)
	}
	in := []float32{1, -2, 3.5, 0, 1e20}
	if err := s.StoreFloat32s(0x100, in); err != nil {
		t.Fatal(err)
	}
	out, err := s.LoadFloat32s(0x100, len(in))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("element %d: got %v want %v", i, out[i], in[i])
		}
	}
}

func TestBulkComplex64(t *testing.T) {
	s := NewSpace(64 * units.KiB)
	if _, err := s.Map(0, 4096); err != nil {
		t.Fatal(err)
	}
	in := []complex64{1 + 2i, -3 - 4i, 0, complex(1e10, -1e-10)}
	if err := s.StoreComplex64s(64, in); err != nil {
		t.Fatal(err)
	}
	out, err := s.LoadComplex64s(64, len(in))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("element %d: got %v want %v", i, out[i], in[i])
		}
	}
}

// TestWriteComplex64MatchesStore requires the single-value write to lay
// out exactly the bytes StoreComplex64s does.
func TestWriteComplex64MatchesStore(t *testing.T) {
	s := NewSpace(64 * units.KiB)
	if _, err := s.Map(0, 4096); err != nil {
		t.Fatal(err)
	}
	v := complex64(complex(1e10, -1e-10))
	if err := s.StoreComplex64s(64, []complex64{v}); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteComplex64(128, v); err != nil {
		t.Fatal(err)
	}
	want, _ := s.ViewBytes(64, 8)
	got, _ := s.ViewBytes(128, 8)
	if string(got) != string(want) {
		t.Errorf("WriteComplex64 bytes %x, StoreComplex64s bytes %x", got, want)
	}
	if err := s.WriteComplex64(4092, v); err == nil {
		t.Error("a write past the region end must fail")
	}
}

func TestInt32s(t *testing.T) {
	s := NewSpace(64 * units.KiB)
	if _, err := s.Map(0, 4096); err != nil {
		t.Fatal(err)
	}
	in := []int32{0, -1, 1 << 30, -(1 << 30)}
	if err := s.StoreInt32s(128, in); err != nil {
		t.Fatal(err)
	}
	out, err := s.LoadInt32s(128, len(in))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("element %d: got %v want %v", i, out[i], in[i])
		}
	}
}

func TestViewAliasing(t *testing.T) {
	s := NewSpace(64 * units.KiB)
	if _, err := s.Map(0, 4096); err != nil {
		t.Fatal(err)
	}
	view, err := s.ViewBytes(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteUint32(0, 0x01020304); err != nil {
		t.Fatal(err)
	}
	if view[0] != 0x04 || view[3] != 0x01 {
		t.Error("view must alias the space (little endian)")
	}
}

// Property: float32 round trips through the space are exact for all finite
// inputs, and independent mapped regions never interfere.
func TestPropertyFloat32RoundTrip(t *testing.T) {
	s := NewSpace(1 * units.MiB)
	if _, err := s.Map(0, 512*units.KiB); err != nil { // covers Addr(off)*4 for any uint16 off
		t.Fatal(err)
	}
	f := func(v float32, off uint16) bool {
		a := Addr(off) * 4
		if err := s.WriteFloat32(a, v); err != nil {
			return false
		}
		got, err := s.ReadFloat32(a)
		if err != nil {
			return false
		}
		return got == v || (got != got && v != v) // NaN-safe equality
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
