// Package vmem simulates the virtual-memory interface a VM-DSM relies on:
// a per-node page table with protection bits, write faults on stores to
// read-only pages, and twin management.
//
// Midway's VM-DSM uses Mach's external pager to receive write-fault
// notifications.  Initially all shared pages are mapped read-only and
// marked clean; the first store to a page faults, the runtime saves a copy
// of the page (its twin), marks it dirty and grants write access.
// Subsequent writes proceed at full speed.  This package reproduces that
// state machine in software: the DSM write path asks the table whether the
// target pages are writable, and the table reports "faults" that the
// strategy layer turns into cost and statistics charges.
package vmem

import (
	"fmt"
	"sync"

	"midway/internal/memory"
)

// PageShift is log2 of the page size.  The paper's DECstations use 4 KB
// pages.  It is the memory package's page: region storage is backed in
// whole pages, so a page this package twins or diffs is always backed.
const PageShift = memory.PageShift

// PageSize is the virtual memory page size in bytes.
const PageSize = 1 << PageShift

// WordsPerPage is the number of diff-granularity words in a page.
const WordsPerPage = PageSize / 4

// Prot is a page protection value.
type Prot uint8

const (
	// ReadOnly pages trap the next store.
	ReadOnly Prot = iota
	// ReadWrite pages absorb stores silently.
	ReadWrite
)

// String returns "ro" or "rw".
func (p Prot) String() string {
	if p == ReadWrite {
		return "rw"
	}
	return "ro"
}

// PageIndex returns the global page index for an address.
func PageIndex(a memory.Addr) int { return int(uint32(a) >> PageShift) }

// PageBase returns the first address of the page with the given index.
func PageBase(idx int) memory.Addr { return memory.Addr(uint32(idx) << PageShift) }

// PageRange returns the address range covered by the page.
func PageRange(idx int) memory.Range {
	return memory.Range{Addr: PageBase(idx), Size: PageSize}
}

// PagesIn returns the inclusive page index bounds covering the range.
func PagesIn(rg memory.Range) (first, last int) {
	first = PageIndex(rg.Addr)
	last = PageIndex(rg.End() - 1)
	return first, last
}

// page holds the VM state of one shared page.
type page struct {
	prot  Prot
	dirty bool
	twin  []byte
}

// Table is one node's simulated page table over the shared portions of the
// address space.  Private regions are not managed: their pages never fault,
// matching Midway's arrangement in which only the shared segment is mapped
// through the external pager.
//
// Table methods are safe for concurrent use by the application write path
// and the protocol handler's collection path.
type Table struct {
	inst *memory.Instance

	mu    sync.Mutex
	pages map[int]*page
}

// NewTable returns a page table over the node's memory instance.  All
// shared pages start read-only and clean.
func NewTable(inst *memory.Instance) *Table {
	return &Table{inst: inst, pages: make(map[int]*page)}
}

// pageState returns (creating if needed) the state record for a page.
// Caller holds t.mu.
func (t *Table) pageState(idx int) *page {
	p := t.pages[idx]
	if p == nil {
		p = &page{prot: ReadOnly}
		t.pages[idx] = p
	}
	return p
}

// regionForPage returns the shared region containing the page, or nil if
// the page belongs to a private or unmapped region.
func (t *Table) regionForPage(idx int) *memory.Region {
	r := t.inst.Layout().RegionFor(PageBase(idx))
	if r == nil || r.Class != memory.Shared {
		return nil
	}
	return r
}

// LockStores locks the table for a page-trapped store: the application's
// write path holds it from the store's protection check
// (EnsureWritableLocked) through the store itself, as a real store
// instruction is atomic with respect to the kernel's write-protect.
// Without it a store that found its page writable could land after a
// concurrent Collect had snapshotted and write-protected the page, and
// would never be diffed.
func (t *Table) LockStores() { t.mu.Lock() }

// UnlockStores releases the lock taken by LockStores.  Kept out of line
// so the write path's unlock-if-page-trapping check inlines.
//
//go:noinline
func (t *Table) UnlockStores() { t.mu.Unlock() }

// EnsureWritable prepares every shared page overlapping the scalar or area
// store [a, a+size) to accept the write, fielding a write fault (twin
// creation, dirty marking, protection upgrade) for each page that was
// read-only.  It returns the number of faults taken.  Stores to private
// pages never fault.
func (t *Table) EnsureWritable(a memory.Addr, size uint32) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.EnsureWritableLocked(a, size)
}

// EnsureWritableLocked is EnsureWritable for a caller holding LockStores.
func (t *Table) EnsureWritableLocked(a memory.Addr, size uint32) int {
	if size == 0 {
		return 0
	}
	first, last := PagesIn(memory.Range{Addr: a, Size: size})
	faults := 0
	for idx := first; idx <= last; idx++ {
		r := t.regionForPage(idx)
		if r == nil {
			continue
		}
		p := t.pageState(idx)
		if p.prot == ReadWrite {
			continue
		}
		// Write fault: twin the page, mark dirty, grant write access.
		p.twin = t.copyPage(idx, r)
		p.dirty = true
		p.prot = ReadWrite
		faults++
	}
	return faults
}

// copyPage returns a copy of the page's current contents.  Caller holds
// t.mu.
func (t *Table) copyPage(idx int, r *memory.Region) []byte {
	d := t.inst.Data(r)
	off := uint32(PageBase(idx) - r.Base)
	tw := make([]byte, PageSize)
	copy(tw, d[off:off+PageSize])
	return tw
}

// DirtyPagesIn returns the indices of dirty pages overlapping the range,
// in ascending order.
func (t *Table) DirtyPagesIn(rg memory.Range) []int {
	if rg.Size == 0 {
		return nil
	}
	first, last := PagesIn(rg)
	var out []int
	t.mu.Lock()
	defer t.mu.Unlock()
	for idx := first; idx <= last; idx++ {
		if p := t.pages[idx]; p != nil && p.dirty {
			out = append(out, idx)
		}
	}
	return out
}

// Snapshot returns copies of the page's current contents and its twin.  It
// panics if the page is not dirty (no twin exists).
func (t *Table) Snapshot(idx int) (cur, twin []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, r := t.dirtyPage(idx)
	return t.copyPage(idx, r), p.twin
}

// dirtyPage returns the state and region of a dirty page, panicking if the
// page is clean or unmanaged.  Caller holds t.mu.
func (t *Table) dirtyPage(idx int) (*page, *memory.Region) {
	p := t.pages[idx]
	if p == nil || !p.dirty {
		panic(fmt.Sprintf("vmem: snapshot of clean page %d", idx))
	}
	r := t.regionForPage(idx)
	if r == nil {
		panic(fmt.Sprintf("vmem: snapshot of unmanaged page %d", idx))
	}
	return p, r
}

// Collect write-protects a dirty page and returns copies of its contents
// and its twin, releasing the twin: the real VM system's order, protect
// then diff.  It waits out a store in flight (see LockStores), so every
// store lands either in the returned contents or, after a fresh write
// fault, in the page's next twin.  It panics if the page is not dirty.
func (t *Table) Collect(idx int) (cur, twin []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, r := t.dirtyPage(idx)
	cur, twin = t.copyPage(idx, r), p.twin
	p.twin = nil
	p.dirty = false
	p.prot = ReadOnly
	return cur, twin
}

// Clean marks the page clean after its modifications have been shipped:
// the twin is deallocated and the page write-protected so the next store
// faults again.  It is a no-op if the page is already clean.  It reports
// whether a protection call was made.
func (t *Table) Clean(idx int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.pages[idx]
	if p == nil || !p.dirty {
		return false
	}
	p.twin = nil
	p.dirty = false
	p.prot = ReadOnly
	return true
}

// IsDirty reports whether the page currently has unshipped modifications.
func (t *Table) IsDirty(idx int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.pages[idx]
	return p != nil && p.dirty
}

// Prot returns the page's current protection.
func (t *Table) Prot(idx int) Prot {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.pages[idx]
	if p == nil {
		return ReadOnly
	}
	return p.prot
}

// ApplyToTwin copies incoming update data into the page's twin, if the page
// is currently dirty.  Applying a remote update to the twin as well as the
// page ensures the update is not later mistaken for a local modification
// when the page is diffed.  It returns the number of twin bytes written.
func (t *Table) ApplyToTwin(a memory.Addr, data []byte) int {
	if len(data) == 0 {
		return 0
	}
	written := 0
	t.mu.Lock()
	defer t.mu.Unlock()
	first, last := PagesIn(memory.Range{Addr: a, Size: uint32(len(data))})
	for idx := first; idx <= last; idx++ {
		p := t.pages[idx]
		if p == nil || !p.dirty {
			continue
		}
		pr := PageRange(idx)
		lo := max(a, pr.Addr)
		hi := min(a+memory.Addr(len(data)), pr.End())
		n := copy(p.twin[lo-pr.Addr:hi-pr.Addr], data[lo-a:hi-a])
		written += n
	}
	return written
}

// DirtyPageCount returns the number of currently dirty pages (twins held),
// used by tests and memory accounting.
func (t *Table) DirtyPageCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, p := range t.pages {
		if p.dirty {
			n++
		}
	}
	return n
}
