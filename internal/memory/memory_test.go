package memory

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRangeOps(t *testing.T) {
	r := Range{Addr: 100, Size: 50}
	if r.End() != 150 {
		t.Errorf("End = %d", r.End())
	}
	if !r.Contains(100) || !r.Contains(149) || r.Contains(150) || r.Contains(99) {
		t.Error("Contains boundaries wrong")
	}
	if !r.Overlaps(Range{Addr: 149, Size: 1}) || r.Overlaps(Range{Addr: 150, Size: 10}) {
		t.Error("Overlaps boundaries wrong")
	}
	inter, ok := r.Intersect(Range{Addr: 120, Size: 100})
	if !ok || inter.Addr != 120 || inter.Size != 30 {
		t.Errorf("Intersect = %+v, %v", inter, ok)
	}
	if _, ok := r.Intersect(Range{Addr: 200, Size: 10}); ok {
		t.Error("disjoint ranges intersected")
	}
}

func TestIntersectProperties(t *testing.T) {
	f := func(a1, s1, a2, s2 uint16) bool {
		r1 := Range{Addr: Addr(a1), Size: uint32(s1)%100 + 1}
		r2 := Range{Addr: Addr(a2), Size: uint32(s2)%100 + 1}
		i1, ok1 := r1.Intersect(r2)
		i2, ok2 := r2.Intersect(r1)
		if ok1 != ok2 {
			return false
		}
		if ok1 && i1 != i2 {
			return false // intersection must be symmetric
		}
		if ok1 {
			// The intersection lies within both.
			if !r1.Contains(i1.Addr) || !r2.Contains(i1.Addr) {
				return false
			}
			if i1.End() > r1.End() || i1.End() > r2.End() {
				return false
			}
		}
		return ok1 == r1.Overlaps(r2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAllocPacking(t *testing.T) {
	l := NewLayout(16) // 64 KB regions
	a1, err := l.Alloc("a", 100, Shared, 3)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := l.Alloc("b", 100, Shared, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Same line size packs into the same region.
	if l.RegionFor(a1) != l.RegionFor(a2) {
		t.Error("same-attribute allocations did not pack")
	}
	// Alignment to at least 8 bytes.
	if uint32(a2)%8 != 0 {
		t.Errorf("allocation at %#x not 8-byte aligned", uint32(a2))
	}
	// Different line size opens a new region.
	a3, err := l.Alloc("c", 100, Shared, 6)
	if err != nil {
		t.Fatal(err)
	}
	if l.RegionFor(a3) == l.RegionFor(a1) {
		t.Error("different line size packed into the same region")
	}
	// Private data goes elsewhere too.
	a4, err := l.Alloc("d", 100, Private, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l.RegionFor(a4).Class != Private {
		t.Error("private allocation in shared region")
	}
}

func TestAllocMultiRegionSpan(t *testing.T) {
	l := NewLayout(12) // 4 KB regions
	a, err := l.Alloc("big", 10*4096, Shared, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := l.RegionFor(a)
	if r == nil {
		t.Fatal("no region for span start")
	}
	// The whole span must be mapped with identical attributes.
	segs, err := l.Segments(Range{Addr: a, Size: 10 * 4096})
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 10 {
		t.Fatalf("span has %d segments, want 10", len(segs))
	}
	for _, s := range segs {
		if s.Region.Class != Shared || s.Region.LineShift != 3 {
			t.Error("span region attributes differ")
		}
		if s.Region.SpanHead != r.Index {
			t.Error("span head not recorded")
		}
	}
}

func TestAllocErrors(t *testing.T) {
	l := NewLayout(16)
	if _, err := l.Alloc("zero", 0, Shared, 3); err == nil {
		t.Error("zero-size allocation succeeded")
	}
	if _, err := l.Alloc("badline", 8, Shared, 1); err == nil {
		t.Error("line shift below minimum accepted")
	}
	if _, err := l.Alloc("hugeline", 8, Shared, 17); err == nil {
		t.Error("line shift above maximum accepted")
	}
	if _, err := l.Alloc("linegtregion", 8, Shared, 16); err == nil {
		t.Error("line size equal to region size accepted")
	}
}

func TestFreezePanicsOnAlloc(t *testing.T) {
	l := NewLayout(16)
	l.Freeze()
	defer func() {
		if recover() == nil {
			t.Error("allocation after freeze did not panic")
		}
	}()
	l.Alloc("late", 8, Shared, 3) //nolint:errcheck // panics first
}

func TestRegionForGuard(t *testing.T) {
	l := NewLayout(16)
	if l.RegionFor(0) != nil {
		t.Error("address 0 mapped")
	}
	if l.RegionFor(100) != nil {
		t.Error("guard region address mapped")
	}
	a, _ := l.Alloc("x", 8, Shared, 3)
	if l.RegionFor(a) == nil {
		t.Error("allocated address unmapped")
	}
	// Frozen fast path agrees with the locked path.
	l.Freeze()
	if l.RegionFor(a) == nil || l.RegionFor(0) != nil {
		t.Error("frozen RegionFor disagrees")
	}
}

func TestLineAddressBijection(t *testing.T) {
	l := NewLayout(16)
	a, _ := l.Alloc("arr", 4096, Shared, 4) // 16-byte lines
	r := l.RegionFor(a)
	f := func(off uint16) bool {
		addr := a + Addr(uint32(off)%4096)
		idx := r.LineIndex(addr)
		lr := r.LineRange(idx)
		// The line range contains the address and maps back to the same
		// index at every byte.
		if !lr.Contains(addr) {
			return false
		}
		return r.LineIndex(lr.Addr) == idx && r.LineIndex(lr.End()-1) == idx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSegmentsUnmapped(t *testing.T) {
	l := NewLayout(16)
	if _, err := l.Segments(Range{Addr: 10, Size: 4}); err == nil {
		t.Error("segments over guard region succeeded")
	}
	a, _ := l.Alloc("x", 16, Shared, 3)
	// A range running past all mappings errors.
	if _, err := l.Segments(Range{Addr: a, Size: 1 << 20}); err == nil {
		t.Error("segments past end of mappings succeeded")
	}
	// Empty range is fine.
	segs, err := l.Segments(Range{Addr: a, Size: 0})
	if err != nil || segs != nil {
		t.Errorf("empty range: %v, %v", segs, err)
	}
}

func TestCheckScalar(t *testing.T) {
	l := NewLayout(12)
	a, _ := l.Alloc("x", 4096, Shared, 3)
	if _, err := l.CheckScalar(a, 8); err != nil {
		t.Errorf("aligned scalar rejected: %v", err)
	}
	// Crossing the region end must be rejected.
	if _, err := l.CheckScalar(a+4092, 8); err == nil {
		t.Error("region-crossing scalar accepted")
	}
}

func TestInstanceReadWrite(t *testing.T) {
	l := NewLayout(16)
	a, _ := l.Alloc("x", 256, Shared, 3)
	in := NewInstance(l)

	in.WriteU32(a, 0xDEADBEEF)
	if got := in.ReadU32(a); got != 0xDEADBEEF {
		t.Errorf("ReadU32 = %#x", got)
	}
	in.WriteU64(a+8, 0x0123456789ABCDEF)
	if got := in.ReadU64(a + 8); got != 0x0123456789ABCDEF {
		t.Errorf("ReadU64 = %#x", got)
	}
	in.WriteF64(a+16, 3.25)
	if got := in.ReadF64(a + 16); got != 3.25 {
		t.Errorf("ReadF64 = %g", got)
	}
}

func TestInstanceBytesAcrossRegions(t *testing.T) {
	l := NewLayout(12) // 4 KB regions force a multi-region object
	a, _ := l.Alloc("big", 3*4096, Shared, 3)
	in := NewInstance(l)

	src := make([]byte, 2*4096)
	rand.New(rand.NewSource(1)).Read(src)
	rg := Range{Addr: a + 2048, Size: uint32(len(src))} // straddles two boundaries
	in.WriteBytes(rg, src)
	dst := make([]byte, len(src))
	in.ReadBytes(rg, dst)
	if !bytes.Equal(src, dst) {
		t.Error("cross-region bytes round trip failed")
	}
}

func TestDirtybits(t *testing.T) {
	l := NewLayout(16)
	a, _ := l.Alloc("x", 256, Shared, 3)
	in := NewInstance(l)
	r := l.RegionFor(a)
	bits := in.Dirtybits(r)
	if want := int(r.Extent() >> r.LineShift); len(bits) != want {
		t.Errorf("dirtybits length %d, want %d", len(bits), want)
	}
	for _, b := range bits {
		if b != Clean {
			t.Error("dirtybits not clean initially")
		}
	}
	// Same slice on repeated access.
	bits[3] = 42
	if in.Dirtybits(r)[3] != 42 {
		t.Error("dirtybits not stable across accesses")
	}
}

func TestDirtybitsPrivatePanics(t *testing.T) {
	l := NewLayout(16)
	a, _ := l.Alloc("p", 64, Private, 0)
	in := NewInstance(l)
	defer func() {
		if recover() == nil {
			t.Error("dirtybits for private region did not panic")
		}
	}()
	in.Dirtybits(l.RegionFor(a))
}

// TestInstanceRoundTripProperty: any write through an instance reads back
// identically and instances are independent.
func TestInstanceRoundTripProperty(t *testing.T) {
	l := NewLayout(16)
	a, _ := l.Alloc("arr", 4096, Shared, 3)
	l.Freeze()
	in1 := NewInstance(l)
	in2 := NewInstance(l)
	f := func(off uint16, v uint64) bool {
		addr := a + Addr(uint32(off)%4088)
		addr &^= 7
		in1.WriteU64(addr, v)
		return in1.ReadU64(addr) == v && in2.ReadU64(addr) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
