package memory

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func TestExtent(t *testing.T) {
	l := NewLayout(16) // 64 KB regions
	a, _ := l.Alloc("a", 100, Shared, 3)
	r := l.RegionFor(a)
	if got := r.Extent(); got != PageSize {
		t.Errorf("100-byte allocation extent = %d, want one page", got)
	}
	// Packing raises the extent to cover the cursor.
	l.Alloc("b", PageSize, Shared, 3) //nolint:errcheck
	if got := r.Extent(); got != 2*PageSize {
		t.Errorf("packed extent = %d, want %d", got, 2*PageSize)
	}
	// Lines larger than a page round the extent to the line size.
	c, _ := l.Alloc("c", 100, Shared, 14)
	if got := l.RegionFor(c).Extent(); got != 1<<14 {
		t.Errorf("16 KB-line extent = %d, want %d", got, 1<<14)
	}
	// A multi-region span fills every region but the last, which gets
	// the remainder.
	d, _ := l.Alloc("d", 2<<16+10, Shared, 3)
	segs, err := l.Segments(Range{Addr: d, Size: 2<<16 + 10})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{1 << 16, 1 << 16, PageSize}
	for i, s := range segs {
		if got := s.Region.Extent(); got != want[i] {
			t.Errorf("span region %d extent = %d, want %d", i, got, want[i])
		}
	}
	l.Freeze()
	in := NewInstance(l)
	if got := len(in.Data(r)); got != 2*PageSize {
		t.Errorf("materialized %d bytes, want the extent %d", got, 2*PageSize)
	}
}

// expectUnmapped runs fn and requires it to panic with the layout's
// "unmapped" error.
func expectUnmapped(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Errorf("%s past the extent did not panic", what)
			return
		}
		if !strings.Contains(fmt.Sprint(r), "unmapped") {
			t.Errorf("%s past the extent panicked with %v, want an unmapped error", what, r)
		}
	}()
	fn()
}

// TestPastExtentUnmapped: the bytes of a region past its extent behave as
// unmapped memory — every accessor reports the unmapped error, never a
// slice-bounds panic.
func TestPastExtentUnmapped(t *testing.T) {
	l := NewLayout(16)
	a, _ := l.Alloc("x", 100, Shared, 3)
	r := l.RegionFor(a)
	past := r.Base + Addr(r.Extent())
	l.Freeze()
	in := NewInstance(l)

	if _, err := l.CheckScalar(past, 4); err == nil || !strings.Contains(err.Error(), "unmapped") {
		t.Errorf("CheckScalar past the extent: %v", err)
	}
	if _, err := l.CheckScalar(past-4, 8); err == nil || !strings.Contains(err.Error(), "unmapped") {
		t.Errorf("CheckScalar straddling the extent: %v", err)
	}
	if _, err := l.Segments(Range{Addr: past - 8, Size: 16}); err == nil || !strings.Contains(err.Error(), "unmapped") {
		t.Errorf("Segments straddling the extent: %v", err)
	}
	expectUnmapped(t, "ReadU64", func() { in.ReadU64(past) })
	expectUnmapped(t, "WriteU32", func() { in.WriteU32(past, 1) })
	expectUnmapped(t, "WriteBytes", func() { in.WriteBytes(Range{Addr: past - 8, Size: 16}, make([]byte, 16)) })
	expectUnmapped(t, "ReadBytes", func() { in.ReadBytes(Range{Addr: past, Size: 8}, make([]byte, 8)) })

	// The last backed byte is still accessible.
	in.WriteU64(past-8, 7)
	if in.ReadU64(past-8) != 7 {
		t.Error("last word of the extent did not round trip")
	}
}

// TestGrowBeforeFreeze: an allocation packed into an already-materialized
// region grows the region's storage, preserving contents, dirtybits and
// the region summary.
func TestGrowBeforeFreeze(t *testing.T) {
	l := NewLayout(16)
	a, _ := l.Alloc("a", 3000, Shared, 3)
	r := l.RegionFor(a)
	in := NewInstance(l)
	srcA := bytes.Repeat([]byte{0xA5}, 3000)
	in.WriteBytes(Range{Addr: a, Size: 3000}, srcA)
	in.Dirtybits(r)[5] = 42
	sum := in.Summary(r)
	sum.NoteTime(42)

	b, _ := l.Alloc("b", 6000, Shared, 3)
	if l.RegionFor(b) != r {
		t.Fatal("second allocation did not pack into the first's region")
	}
	if uint32(b-r.Base)+6000 <= PageSize {
		t.Fatal("second allocation fits the first extent; the test needs growth")
	}
	srcB := bytes.Repeat([]byte{0x3C}, 6000)
	in.WriteBytes(Range{Addr: b, Size: 6000}, srcB)

	if got := len(in.Data(r)); got != int(r.Extent()) {
		t.Errorf("grown data is %d bytes, want the extent %d", got, r.Extent())
	}
	gotA := make([]byte, 3000)
	in.ReadBytes(Range{Addr: a, Size: 3000}, gotA)
	gotB := make([]byte, 6000)
	in.ReadBytes(Range{Addr: b, Size: 6000}, gotB)
	if !bytes.Equal(gotA, srcA) || !bytes.Equal(gotB, srcB) {
		t.Error("growth lost region contents")
	}
	bits := in.Dirtybits(r)
	if len(bits) != int(r.Extent()>>r.LineShift) || bits[5] != 42 {
		t.Errorf("growth lost dirtybits: len %d, bits[5] = %d", len(bits), bits[5])
	}
	if in.Summary(r) != sum || sum.MaxTS.Load() != 42 {
		t.Error("growth replaced the region summary")
	}

	l.Freeze()
	defer func() {
		if recover() == nil {
			t.Error("allocation after freeze did not panic")
		}
	}()
	l.Alloc("late", 8, Shared, 3) //nolint:errcheck // panics first
}

// TestGrowOnFirstAccessAfterFreeze: a region materialized at a smaller
// extent and never touched again before Freeze is grown by its first
// access afterwards.
func TestGrowOnFirstAccessAfterFreeze(t *testing.T) {
	l := NewLayout(16)
	a, _ := l.Alloc("a", 8, Shared, 3)
	in := NewInstance(l)
	in.WriteU64(a, 1)
	b, _ := l.Alloc("b", 2*PageSize, Shared, 3)
	l.Freeze()
	in.WriteU64(b+2*PageSize-8, 2)
	if in.ReadU64(a) != 1 || in.ReadU64(b+2*PageSize-8) != 2 {
		t.Error("contents lost growing after freeze")
	}
}

// The quicksort application's layout: a 24000-element coarse u32 array
// and a small fine-grained task queue, both with 4-byte lines.
const (
	qsortElems = 24000
	qsortQueue = 3 + 4*64
)

// presetNodes builds the quicksort-shaped layout and presets it into
// nodes instances, as System.Preset does before a run.
func presetNodes(nodes int) (*Layout, []*Instance) {
	l := NewLayout(DefaultRegionShift)
	data, _ := l.AllocTagged("qsort.data", qsortElems*4, Shared, 2, GranCoarse)
	queue, _ := l.AllocTagged("qsort.queue", qsortQueue*4, Shared, 2, GranFine)
	src := make([]byte, qsortElems*4)
	for i := range src {
		src[i] = byte(i * 31)
	}
	hdr := []byte{1, 0, 0, 0, 0, 0, 0, 0, 63, 0, 0, 0}
	ins := make([]*Instance, nodes)
	for i := range ins {
		in := NewInstance(l)
		in.WriteBytes(Range{Addr: data, Size: uint32(len(src))}, src)
		in.WriteBytes(Range{Addr: queue, Size: uint32(len(hdr))}, hdr)
		ins[i] = in
	}
	l.Freeze()
	return l, ins
}

// presetBound is the footprint a node's instance should stay within:
// each touched region's extent of data plus one int64 dirtybit per line.
func presetBound(l *Layout) uint64 {
	var n uint64
	for _, r := range l.Regions()[1:] {
		n += uint64(r.Extent()) + uint64(r.Extent()>>r.LineShift)*8
	}
	return n
}

const presetNodeCount = 256

// BenchmarkPresetNodes reports the bytes allocated presetting a
// quicksort-shaped layout into 256 node instances.
func BenchmarkPresetNodes(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		presetNodes(presetNodeCount)
	}
}

// TestPresetNodesFootprint pins BenchmarkPresetNodes' bytes: node storage
// must be sized to the allocated extent, within 10% of the data plus
// dirtybits it backs, not to the full 1 MiB region.
func TestPresetNodesFootprint(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	l, ins := presetNodes(presetNodeCount)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ins)
	got := after.TotalAlloc - before.TotalAlloc
	bound := presetBound(l) * presetNodeCount * 11 / 10
	if got > bound {
		t.Errorf("presetting %d nodes allocated %d bytes, want <= %d", presetNodeCount, got, bound)
	}
}
