// Package memory implements the region-structured shared address space used
// by Midway's runtime write detection.
//
// Following the paper's Section 3.1, the application's virtual address space
// is partitioned into large, fixed-size regions.  Data within a single
// region is either shared between all processors or private to each
// processor.  The data within a shared region is divided into software
// cache lines; all cache lines in a region are the same size, although
// different regions may have different cache line sizes.  Each cache line
// has, per processor, one dirtybit — which in Midway is really a Lamport
// timestamp recording the most recent modification to the line.
//
// A Layout describes the global partitioning of the address space: it is
// identical on every node, exactly as Midway arranges the same region
// structure in every process's virtual memory.  An Instance holds one
// node's local copy of the data and its private dirtybit arrays.
//
// A region is a reservation in the address map, not a commitment of
// storage: just as a real VM system backs only the pages a program
// touches, an Instance backs each region only up to its extent — the
// allocation high-water mark rounded up to a page and to the line size.
// Bytes of a region past its extent are unmapped.
package memory

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Addr is an address in the simulated shared virtual address space.
// Address zero is never allocated, so it can serve as a sentinel.
type Addr uint32

// Range is a contiguous span of the shared address space, used to bind data
// to synchronization objects and to describe updates.
type Range struct {
	Addr Addr
	Size uint32
}

// End returns the first address past the range.
func (r Range) End() Addr { return r.Addr + Addr(r.Size) }

// Contains reports whether a lies within the range.
func (r Range) Contains(a Addr) bool { return a >= r.Addr && a < r.End() }

// Overlaps reports whether the two ranges share any address.
func (r Range) Overlaps(o Range) bool {
	return r.Addr < o.End() && o.Addr < r.End()
}

// Intersect returns the overlap of the two ranges and whether it is
// non-empty.
func (r Range) Intersect(o Range) (Range, bool) {
	lo := max(r.Addr, o.Addr)
	hi := min(r.End(), o.End())
	if lo >= hi {
		return Range{}, false
	}
	return Range{Addr: lo, Size: uint32(hi - lo)}, true
}

// Class distinguishes shared regions, whose writes must be detected, from
// private regions, whose template entry points simply return.
type Class uint8

const (
	// Shared data is replicated across processors and kept consistent by
	// the DSM protocol; every write to it must be trapped.
	Shared Class = iota
	// Private data belongs to a single processor.  Writes reaching a
	// private region's template pay only the misclassification penalty.
	Private
)

// String returns "shared" or "private".
func (c Class) String() string {
	if c == Private {
		return "private"
	}
	return "shared"
}

// Gran classifies a region's expected write granularity, guiding detectors
// that choose a write-detection mechanism per region (the Hybrid scheme).
// Regions tagged GranFine are best served by dirtybit timestamps; regions
// tagged GranCoarse by page twins and diffs.  GranAuto leaves the choice to
// the detector's measured-write-density heuristic.
type Gran uint8

const (
	// GranAuto lets the detector classify the region from observed writes.
	GranAuto Gran = iota
	// GranFine marks data written in small scattered pieces (routes to
	// RT-style dirtybit detection under the Hybrid scheme).
	GranFine
	// GranCoarse marks data written densely in bulk, or rebound between
	// synchronization objects (routes to VM-style twin-diff detection).
	GranCoarse
)

// String returns "auto", "fine" or "coarse".
func (g Gran) String() string {
	switch g {
	case GranFine:
		return "fine"
	case GranCoarse:
		return "coarse"
	default:
		return "auto"
	}
}

// Dirtybit timestamp sentinels.  A dirtybit is an int64 Lamport timestamp;
// the paper's footnote 1 describes the lazy scheme in which a store writes a
// cheap marker and the real timestamp is assigned when the guarding
// synchronization object is transferred.
const (
	// Clean marks a line that has never been modified (or whose
	// modifications were made at logical time zero, before any transfer).
	Clean int64 = 0
	// DirtyPending marks a line modified locally since the last transfer
	// of its guarding object, whose timestamp has not yet been assigned.
	DirtyPending int64 = math.MinInt64
)

// PageShift is log2 of the virtual memory page size, the granularity at
// which region storage is backed (and at which VM-DSM protects and twins).
const PageShift = 12

// PageSize is the virtual memory page size in bytes.
const PageSize = 1 << PageShift

// Region describes one fixed-size region of the shared address space.  The
// first page of a Midway region holds the dirtybit-update code template;
// here the Region value itself plays that role, carrying the line size and
// dirtybit location as "constants".
type Region struct {
	// Index is the region's position in the address space:
	// Index == Base >> regionShift.
	Index int
	// Base is the region's starting address.
	Base Addr
	// Size is the region size in bytes (the layout's fixed region size).
	Size uint32
	// Class records whether the region holds shared or private data.
	Class Class
	// LineShift is log2 of the cache line size.  Meaningful only for
	// shared regions.
	LineShift uint
	// Gran is the allocation's declared write-granularity class, consumed
	// by per-region detector dispatch.  Meaningful only for shared regions.
	Gran Gran
	// Name labels the allocation that created the region, for diagnostics.
	Name string
	// SpanHead is the index of the first region of the allocation span
	// this region belongs to (multi-region objects occupy consecutive
	// regions with identical attributes).
	SpanHead int
	// extent is the number of bytes from Base backed by storage: the
	// allocation high-water mark rounded up to a page and to the line
	// size.  It grows under the layout lock as allocations pack into the
	// region and is immutable after Layout.Freeze.
	extent atomic.Uint32
}

// LineSize returns the cache line size in bytes.
func (r *Region) LineSize() uint32 { return 1 << r.LineShift }

// Extent returns the number of bytes of the region, from Base, that are
// backed by storage; the rest of the region is unmapped.  A multiple of
// both PageSize and the line size.
func (r *Region) Extent() uint32 { return r.extent.Load() }

// setUsed raises the extent to cover the first used bytes of the region.
// Caller holds the layout lock.
func (r *Region) setUsed(used uint32) {
	align := max(uint32(PageSize), r.LineSize())
	e := min((used+align-1)&^(align-1), r.Size)
	if e > r.extent.Load() {
		r.extent.Store(e)
	}
}

// LineIndex returns the index of the cache line containing a, which must
// lie within the region.
func (r *Region) LineIndex(a Addr) int {
	return int(a-r.Base) >> r.LineShift
}

// LineRange returns the address range of the line with the given index.
func (r *Region) LineRange(idx int) Range {
	return Range{Addr: r.Base + Addr(uint32(idx)<<r.LineShift), Size: r.LineSize()}
}

// Contains reports whether a lies within the region.
func (r *Region) Contains(a Addr) bool {
	return a >= r.Base && a < r.Base+Addr(r.Size)
}

// Layout is the global description of the shared address space: the region
// table plus the bump allocators that pack objects into regions.  The same
// Layout (or an identically-constructed one, in multi-process deployments)
// is used by every node.
//
// Allocation is expected to happen during program setup; Layout methods are
// nevertheless safe for concurrent use.
type Layout struct {
	mu          sync.RWMutex
	regionShift uint
	regions     []*Region
	// cursors tracks the current fill point of the most recent region
	// opened for each (class, lineShift) combination, so small objects
	// pack together as a real allocator would.
	cursors map[cursorKey]cursor
	frozen  bool
	// frozenRegions caches the region table once the layout is frozen, so
	// the per-access RegionFor lookup is lock-free on the hot path.
	frozenRegions atomic.Pointer[[]*Region]
}

type cursorKey struct {
	class     Class
	lineShift uint
	gran      Gran
}

type cursor struct {
	region int // region index
	off    uint32
}

// DefaultRegionShift yields 1 MiB regions, "large" relative to both the
// 4 KB page size and typical cache line sizes, as the paper requires.
const DefaultRegionShift = 20

// MinLineShift and MaxLineShift bound supported cache line sizes
// (4 bytes .. 64 KiB).
const (
	MinLineShift = 2
	MaxLineShift = 16
)

// NewLayout returns an empty layout with the given region size
// (1 << regionShift bytes).  regionShift must be at least 12 (one VM page).
func NewLayout(regionShift uint) *Layout {
	if regionShift < 12 || regionShift > 26 {
		panic(fmt.Sprintf("memory: region shift %d out of range [12,26]", regionShift))
	}
	return &Layout{
		regionShift: regionShift,
		cursors:     make(map[cursorKey]cursor),
		// Region index 0 is a permanently-unmapped guard so that Addr 0
		// and small addresses fault loudly.
		regions: []*Region{nil},
	}
}

// RegionShift returns log2 of the region size.
func (l *Layout) RegionShift() uint { return l.regionShift }

// RegionSize returns the fixed region size in bytes.
func (l *Layout) RegionSize() uint32 { return 1 << l.regionShift }

// Regions returns the current region table.  Entry 0 is nil (the guard
// region).  The returned slice must not be modified.
func (l *Layout) Regions() []*Region {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.regions[:len(l.regions):len(l.regions)]
}

// NumRegions returns the number of region slots, including the guard.
func (l *Layout) NumRegions() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.regions)
}

// Freeze marks the layout complete.  Subsequent allocations panic: in the
// SPMD deployment every process must construct the identical layout before
// the parallel phase begins, so late allocation is a programming error.
// Every region's extent is final from here on.
func (l *Layout) Freeze() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.frozen = true
	regions := l.regions[:len(l.regions):len(l.regions)]
	l.frozenRegions.Store(&regions)
}

// Alloc reserves size bytes of the given class.  Shared allocations carry a
// cache line size of 1<<lineShift bytes; private allocations ignore
// lineShift.  Small objects are packed into the current region for their
// (class, line size); objects larger than one region receive a dedicated
// span of consecutive regions.  The returned address is aligned to the line
// size (minimum 8 bytes).
func (l *Layout) Alloc(name string, size uint32, class Class, lineShift uint) (Addr, error) {
	return l.AllocTagged(name, size, class, lineShift, GranAuto)
}

// AllocTagged is Alloc with an explicit write-granularity class.  Tagged
// allocations never share a region with differently-tagged data, so a
// per-region detector choice applies to exactly the data it was declared
// for.
func (l *Layout) AllocTagged(name string, size uint32, class Class, lineShift uint, gran Gran) (Addr, error) {
	if size == 0 {
		return 0, fmt.Errorf("memory: zero-size allocation %q", name)
	}
	if class == Shared && (lineShift < MinLineShift || lineShift > MaxLineShift) {
		return 0, fmt.Errorf("memory: allocation %q line shift %d out of range [%d,%d]",
			name, lineShift, MinLineShift, MaxLineShift)
	}
	if class == Private {
		lineShift = 3
	}
	if lineShift >= l.regionShift {
		return 0, fmt.Errorf("memory: allocation %q line size 2^%d not smaller than region size 2^%d",
			name, lineShift, l.regionShift)
	}

	align := uint32(1) << lineShift
	if align < 8 {
		align = 8
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.frozen {
		panic(fmt.Sprintf("memory: allocation %q after layout freeze", name))
	}

	regionSize := uint32(1) << l.regionShift
	if size > regionSize {
		// Dedicated span of consecutive regions.
		n := int((uint64(size) + uint64(regionSize) - 1) / uint64(regionSize))
		head := len(l.regions)
		for i := 0; i < n; i++ {
			l.appendRegion(name, class, lineShift, gran, head)
		}
		// Every region of the span is full except the last, which holds
		// the remainder.
		for i := 0; i < n-1; i++ {
			l.regions[head+i].setUsed(regionSize)
		}
		l.regions[head+n-1].setUsed(size - uint32(n-1)*regionSize)
		return l.regions[head].Base, nil
	}

	key := cursorKey{class: class, lineShift: lineShift, gran: gran}
	cur, ok := l.cursors[key]
	if ok {
		off := (cur.off + align - 1) &^ (align - 1)
		if off+size <= regionSize {
			l.cursors[key] = cursor{region: cur.region, off: off + size}
			l.regions[cur.region].setUsed(off + size)
			return l.regions[cur.region].Base + Addr(off), nil
		}
	}
	idx := len(l.regions)
	l.appendRegion(name, class, lineShift, gran, idx)
	l.cursors[key] = cursor{region: idx, off: size}
	l.regions[idx].setUsed(size)
	return l.regions[idx].Base, nil
}

// appendRegion adds one region to the table.  Caller holds l.mu.
func (l *Layout) appendRegion(name string, class Class, lineShift uint, gran Gran, spanHead int) {
	idx := len(l.regions)
	base := Addr(uint32(idx) << l.regionShift)
	if uint64(uint32(idx))<<l.regionShift > uint64(^uint32(0)) {
		panic("memory: address space exhausted")
	}
	l.regions = append(l.regions, &Region{
		Index:     idx,
		Base:      base,
		Size:      1 << l.regionShift,
		Class:     class,
		LineShift: lineShift,
		Gran:      gran,
		Name:      name,
		SpanHead:  spanHead,
	})
}

// RegionFor returns the region containing a, or nil if a is unmapped.  This
// is the software analogue of masking the low-order address bits to find
// the region's code template.
func (l *Layout) RegionFor(a Addr) *Region {
	idx := int(uint32(a) >> l.regionShift)
	if p := l.frozenRegions.Load(); p != nil {
		regions := *p
		if idx <= 0 || idx >= len(regions) {
			return nil
		}
		return regions[idx]
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	if idx <= 0 || idx >= len(l.regions) {
		return nil
	}
	return l.regions[idx]
}

// Segment is the portion of a Range that falls within a single region.
type Segment struct {
	Region *Region
	// Off is the byte offset of the segment within the region.
	Off uint32
	// Len is the segment length in bytes.
	Len uint32
}

// Addr returns the segment's starting address.
func (s Segment) Addr() Addr { return s.Region.Base + Addr(s.Off) }

// Segments splits rg into per-region segments.  It returns an error if any
// part of the range is unmapped, including bytes past a region's extent.
func (l *Layout) Segments(rg Range) ([]Segment, error) {
	if rg.Size == 0 {
		return nil, nil
	}
	var segs []Segment
	a := rg.Addr
	remaining := rg.Size
	for remaining > 0 {
		r := l.RegionFor(a)
		if r == nil {
			return nil, fmt.Errorf("memory: address %#x unmapped", uint32(a))
		}
		off := uint32(a - r.Base)
		ext := r.Extent()
		if off >= ext {
			return nil, fmt.Errorf("memory: address %#x unmapped", uint32(a))
		}
		n := ext - off
		if n > remaining {
			n = remaining
		}
		segs = append(segs, Segment{Region: r, Off: off, Len: n})
		a += Addr(n)
		remaining -= n
	}
	return segs, nil
}

// CheckScalar verifies that a scalar access of the given size at a is fully
// mapped and does not cross a region boundary, returning the region.
func (l *Layout) CheckScalar(a Addr, size uint32) (*Region, error) {
	r := l.RegionFor(a)
	if r == nil {
		return nil, fmt.Errorf("memory: address %#x unmapped", uint32(a))
	}
	off, ext := uint32(a-r.Base), r.Extent()
	if off+size > ext {
		if ext == r.Size {
			return nil, fmt.Errorf("memory: %d-byte access at %#x crosses region boundary", size, uint32(a))
		}
		return nil, fmt.Errorf("memory: address %#x unmapped", uint32(max(a, r.Base+Addr(ext))))
	}
	return r, nil
}

// Instance is one node's local view of the address space: a copy of each
// touched region's data up to the region's extent, plus the node's
// dirtybit arrays (one per line of the extent) for shared regions.
// Storage is materialized on first touch; Instance methods are safe for
// concurrent use by the application and the protocol handler (the usual
// entry-consistency caveat applies: concurrent access to the same line
// without synchronization is a program error).
type Instance struct {
	layout *Layout
	// mu serializes materialization; lookups never take it.  The store is
	// copy-on-write: every materialization publishes a fresh snapshot
	// through the atomic pointer, so the per-access fast path (every
	// instrumented load and store resolves its region's slice here) is a
	// single atomic load with no contention.
	mu    sync.Mutex
	store atomic.Pointer[instStore]
}

// instStore is one immutable snapshot of the instance's materialized
// storage, indexed by region index; nil until touched.  The slice headers
// are never mutated after publication — materializing a region copies the
// snapshot — but the backing arrays they point to are shared across
// snapshots and mutated freely (they are the simulated memory itself).
// A region materialized before Layout.Freeze is regrown (contents and
// dirtybits copied) once an allocation packed into it raises its extent;
// after Freeze every extent is final and a backing array, once published
// at it, never moves.
type instStore struct {
	data  [][]byte
	dirty [][]int64 // shared regions only
	// sum holds one dirtybit summary per shared region, allocated with the
	// region's dirtybit array.
	sum []*RegionSummary
}

// RegionSummary aggregates a shared region's dirtybit state so a
// collection scan can prove "no line in this region can ship" without
// walking the lines.  Pending counts lines currently holding the
// DirtyPending sentinel; MaxTS is a monotone upper bound on every
// timestamp ever stored in the region's dirtybits (stamps installed by
// scans and by incoming updates).  Both are maintained by the writers of
// the dirtybit array and read concurrently by scans, hence atomics.
//
// The fields are conservative summaries, not exact mirrors: a stale
// MaxTS can only be too high, and both errors merely forfeit the fast
// path, never correctness.
type RegionSummary struct {
	Pending atomic.Int64
	MaxTS   atomic.Int64
}

// NoteTime raises MaxTS to at least ts.
func (s *RegionSummary) NoteTime(ts int64) {
	for {
		cur := s.MaxTS.Load()
		if ts <= cur || s.MaxTS.CompareAndSwap(cur, ts) {
			return
		}
	}
}

// NewInstance returns an instance over the layout with no storage
// materialized yet.
func NewInstance(l *Layout) *Instance {
	in := &Instance{layout: l}
	in.store.Store(&instStore{})
	return in
}

// Layout returns the layout this instance views.
func (in *Instance) Layout() *Layout { return in.layout }

// ensure materializes (or grows) storage for the region to its current
// extent and returns the data and dirtybit slices (dirty is nil for
// private regions).  Materialization publishes a fresh snapshot; the
// atomic store's release ordering makes the backing arrays visible to
// every subsequent lock-free lookup.
func (in *Instance) ensure(r *Region) ([]byte, []int64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	cur := in.store.Load()
	ext := r.Extent()
	if r.Index < len(cur.data) && len(cur.data[r.Index]) == int(ext) {
		return cur.data[r.Index], cur.dirty[r.Index]
	}
	n := len(cur.data)
	if r.Index >= n {
		n = r.Index + 16
	}
	next := &instStore{
		data:  make([][]byte, n),
		dirty: make([][]int64, n),
		sum:   make([]*RegionSummary, n),
	}
	copy(next.data, cur.data)
	copy(next.dirty, cur.dirty)
	copy(next.sum, cur.sum)
	// A growing region keeps its contents and dirtybits; its summary
	// stays valid since the added lines are clean.
	d := make([]byte, ext)
	copy(d, next.data[r.Index])
	next.data[r.Index] = d
	if r.Class == Shared {
		b := make([]int64, ext>>r.LineShift)
		copy(b, next.dirty[r.Index])
		next.dirty[r.Index] = b
		if next.sum[r.Index] == nil {
			next.sum[r.Index] = &RegionSummary{}
		}
	}
	in.store.Store(next)
	return next.data[r.Index], next.dirty[r.Index]
}

// Summary returns the dirtybit summary for a shared region, materializing
// the region if necessary.
func (in *Instance) Summary(r *Region) *RegionSummary {
	if r.Class != Shared {
		panic("memory: dirtybit summary requested for private region " + r.Name)
	}
	if s := in.store.Load(); r.Index < len(s.sum) && s.sum[r.Index] != nil {
		return s.sum[r.Index]
	}
	in.ensure(r)
	return in.store.Load().sum[r.Index]
}

// Data returns the node-local backing store for the region, Extent bytes
// long, materializing it if necessary.
func (in *Instance) Data(r *Region) []byte {
	// Fast path: already materialized at the current extent (one atomic
	// load, no locking — every instrumented load and store resolves here).
	if s := in.store.Load(); r.Index < len(s.data) && len(s.data[r.Index]) == int(r.Extent()) {
		return s.data[r.Index]
	}
	d, _ := in.ensure(r)
	return d
}

// Dirtybits returns the node's dirtybit (timestamp) array for a shared
// region, one entry per cache line of the extent.
func (in *Instance) Dirtybits(r *Region) []int64 {
	if r.Class != Shared {
		panic("memory: dirtybits requested for private region " + r.Name)
	}
	if s := in.store.Load(); r.Index < len(s.data) && len(s.data[r.Index]) == int(r.Extent()) {
		return s.dirty[r.Index]
	}
	_, b := in.ensure(r)
	return b
}

// bytesAt returns the backing bytes for a scalar access, validating
// alignment with the region map.
func (in *Instance) bytesAt(a Addr, size uint32) ([]byte, *Region) {
	r, err := in.layout.CheckScalar(a, size)
	if err != nil {
		panic(err)
	}
	d := in.Data(r)
	off := uint32(a - r.Base)
	return d[off : off+size], r
}

// Read and write accessors.  These perform the raw memory operation only;
// write trapping (dirtybit updates, fault checks) is layered above by the
// DSM strategies.

// ReadU32 loads a little-endian 32-bit word.
func (in *Instance) ReadU32(a Addr) uint32 {
	b, _ := in.bytesAt(a, 4)
	return binary.LittleEndian.Uint32(b)
}

// WriteU32 stores a little-endian 32-bit word and returns the region.
func (in *Instance) WriteU32(a Addr, v uint32) *Region {
	b, r := in.bytesAt(a, 4)
	binary.LittleEndian.PutUint32(b, v)
	return r
}

// ReadU64 loads a little-endian 64-bit doubleword.
func (in *Instance) ReadU64(a Addr) uint64 {
	b, _ := in.bytesAt(a, 8)
	return binary.LittleEndian.Uint64(b)
}

// WriteU64 stores a little-endian 64-bit doubleword and returns the region.
func (in *Instance) WriteU64(a Addr, v uint64) *Region {
	b, r := in.bytesAt(a, 8)
	binary.LittleEndian.PutUint64(b, v)
	return r
}

// ReadF64 loads a float64.
func (in *Instance) ReadF64(a Addr) float64 {
	return math.Float64frombits(in.ReadU64(a))
}

// WriteF64 stores a float64 and returns the region.
func (in *Instance) WriteF64(a Addr, v float64) *Region {
	return in.WriteU64(a, math.Float64bits(v))
}

// WriteU32s stores len(vs) consecutive little-endian 32-bit words starting
// at a and returns the region.  The span must not cross a region boundary.
func (in *Instance) WriteU32s(a Addr, vs []uint32) *Region {
	b, r := in.bytesAt(a, uint32(len(vs))*4)
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[4*i:], v)
	}
	return r
}

// WriteU64s stores len(vs) consecutive little-endian doublewords starting
// at a and returns the region.  The span must not cross a region boundary.
func (in *Instance) WriteU64s(a Addr, vs []uint64) *Region {
	b, r := in.bytesAt(a, uint32(len(vs))*8)
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
	return r
}

// WriteF64s stores len(vs) consecutive float64s starting at a and returns
// the region.  The span must not cross a region boundary.
func (in *Instance) WriteF64s(a Addr, vs []float64) *Region {
	b, r := in.bytesAt(a, uint32(len(vs))*8)
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return r
}

// inRegion returns the backing bytes when the whole range falls within a
// single region's extent — the common case for block copies, which skips
// the Segments allocation — or nil when it straddles regions (or is
// unmapped; the segment walk reports that).
func (in *Instance) inRegion(rg Range) []byte {
	r := in.layout.RegionFor(rg.Addr)
	if r == nil {
		return nil
	}
	off := uint32(rg.Addr - r.Base)
	if off+rg.Size > r.Extent() || off+rg.Size < off {
		return nil
	}
	d := in.Data(r)
	return d[off : off+rg.Size]
}

// ReadBytes copies the range into dst, which must be rg.Size long.
func (in *Instance) ReadBytes(rg Range, dst []byte) {
	if b := in.inRegion(rg); b != nil {
		copy(dst[:rg.Size], b)
		return
	}
	segs, err := in.layout.Segments(rg)
	if err != nil {
		panic(err)
	}
	off := uint32(0)
	for _, s := range segs {
		d := in.Data(s.Region)
		copy(dst[off:off+s.Len], d[s.Off:s.Off+s.Len])
		off += s.Len
	}
}

// WriteBytes copies src into the range.  The caller is responsible for
// write trapping.
func (in *Instance) WriteBytes(rg Range, src []byte) {
	if b := in.inRegion(rg); b != nil {
		copy(b, src[:rg.Size])
		return
	}
	segs, err := in.layout.Segments(rg)
	if err != nil {
		panic(err)
	}
	off := uint32(0)
	for _, s := range segs {
		d := in.Data(s.Region)
		copy(d[s.Off:s.Off+s.Len], src[off:off+s.Len])
		off += s.Len
	}
}
