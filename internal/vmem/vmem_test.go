package vmem

import (
	"testing"

	"midway/internal/memory"
)

// setup maps one shared and one private allocation and returns the table.
func setup(t *testing.T) (*memory.Layout, *memory.Instance, *Table, memory.Addr, memory.Addr) {
	t.Helper()
	l := memory.NewLayout(16)
	shared, err := l.Alloc("s", 4*PageSize, memory.Shared, 3)
	if err != nil {
		t.Fatal(err)
	}
	private, err := l.Alloc("p", PageSize, memory.Private, 0)
	if err != nil {
		t.Fatal(err)
	}
	inst := memory.NewInstance(l)
	return l, inst, NewTable(inst), shared, private
}

func TestPageIndexing(t *testing.T) {
	if PageIndex(0) != 0 || PageIndex(PageSize) != 1 || PageIndex(PageSize-1) != 0 {
		t.Error("PageIndex boundaries wrong")
	}
	if PageBase(3) != 3*PageSize {
		t.Error("PageBase wrong")
	}
	first, last := PagesIn(memory.Range{Addr: PageSize - 4, Size: 8})
	if first != 0 || last != 1 {
		t.Errorf("PagesIn straddle = %d,%d", first, last)
	}
}

func TestFaultStateMachine(t *testing.T) {
	_, inst, tbl, shared, _ := setup(t)
	pg := PageIndex(shared)

	if tbl.Prot(pg) != ReadOnly {
		t.Fatal("page not initially read-only")
	}
	// First store faults once.
	if got := tbl.EnsureWritable(shared, 8); got != 1 {
		t.Fatalf("first store took %d faults, want 1", got)
	}
	if tbl.Prot(pg) != ReadWrite || !tbl.IsDirty(pg) {
		t.Error("page not writable+dirty after fault")
	}
	// Subsequent stores are free.
	if got := tbl.EnsureWritable(shared+16, 8); got != 0 {
		t.Errorf("second store took %d faults, want 0", got)
	}
	// The twin holds pre-store contents.
	inst.WriteU64(shared, 0xFFFF)
	cur, twin := tbl.Snapshot(pg)
	if cur[0] == twin[0] {
		t.Error("twin tracked the store; it must hold pre-store contents")
	}
}

func TestFaultStraddlesPages(t *testing.T) {
	_, _, tbl, shared, _ := setup(t)
	// An area store spanning two clean pages takes two faults.
	if got := tbl.EnsureWritable(shared+memory.Addr(PageSize-8), 16); got != 2 {
		t.Errorf("straddling store took %d faults, want 2", got)
	}
}

func TestPrivateNeverFaults(t *testing.T) {
	_, _, tbl, _, private := setup(t)
	if got := tbl.EnsureWritable(private, 8); got != 0 {
		t.Errorf("private store took %d faults", got)
	}
}

func TestDirtyPagesIn(t *testing.T) {
	_, _, tbl, shared, _ := setup(t)
	tbl.EnsureWritable(shared, 8)
	tbl.EnsureWritable(shared+memory.Addr(2*PageSize), 8)

	dirty := tbl.DirtyPagesIn(memory.Range{Addr: shared, Size: 4 * PageSize})
	if len(dirty) != 2 {
		t.Fatalf("dirty pages = %v, want 2 entries", dirty)
	}
	if dirty[0] != PageIndex(shared) || dirty[1] != PageIndex(shared)+2 {
		t.Errorf("dirty pages = %v", dirty)
	}
	// A range over only the clean middle page sees nothing.
	if got := tbl.DirtyPagesIn(memory.Range{Addr: shared + memory.Addr(PageSize), Size: PageSize}); len(got) != 0 {
		t.Errorf("clean page reported dirty: %v", got)
	}
}

func TestCleanResetsProtection(t *testing.T) {
	_, _, tbl, shared, _ := setup(t)
	pg := PageIndex(shared)
	tbl.EnsureWritable(shared, 8)
	if !tbl.Clean(pg) {
		t.Fatal("Clean on dirty page reported no protection call")
	}
	if tbl.Prot(pg) != ReadOnly || tbl.IsDirty(pg) {
		t.Error("page not clean+protected after Clean")
	}
	if tbl.DirtyPageCount() != 0 {
		t.Error("twin not released")
	}
	// Cleaning again is a no-op.
	if tbl.Clean(pg) {
		t.Error("Clean on clean page reported a protection call")
	}
	// The next store faults again (and re-twins).
	if got := tbl.EnsureWritable(shared, 8); got != 1 {
		t.Errorf("store after clean took %d faults, want 1", got)
	}
}

func TestSnapshotCleanPanics(t *testing.T) {
	_, _, tbl, shared, _ := setup(t)
	defer func() {
		if recover() == nil {
			t.Error("Snapshot of clean page did not panic")
		}
	}()
	tbl.Snapshot(PageIndex(shared))
}

func TestApplyToTwin(t *testing.T) {
	_, inst, tbl, shared, _ := setup(t)
	pg := PageIndex(shared)
	tbl.EnsureWritable(shared, 8)
	inst.WriteU64(shared, 1) // local modification

	// A remote update to a different address on the dirty page must land
	// in the twin so it is not mistaken for a local modification.
	update := []byte{9, 9, 9, 9, 9, 9, 9, 9}
	if got := tbl.ApplyToTwin(shared+16, update); got != 8 {
		t.Fatalf("ApplyToTwin wrote %d bytes, want 8", got)
	}
	inst.WriteBytes(memory.Range{Addr: shared + 16, Size: 8}, update)

	cur, twin := tbl.Snapshot(pg)
	// Offset 16 now matches between page and twin (remote data), while
	// offset 0 differs (local modification).
	for i := 16; i < 24; i++ {
		if cur[i] != twin[i] {
			t.Error("remote update not reflected in twin")
			break
		}
	}
	if cur[0] == twin[0] {
		t.Error("local modification leaked into twin")
	}

	// Updates to clean pages do not touch any twin.
	if got := tbl.ApplyToTwin(shared+memory.Addr(PageSize), update); got != 0 {
		t.Errorf("ApplyToTwin on clean page wrote %d bytes", got)
	}
}

func TestApplyToTwinSpanningPages(t *testing.T) {
	_, _, tbl, shared, _ := setup(t)
	tbl.EnsureWritable(shared, 8)                       // page 0 dirty
	tbl.EnsureWritable(shared+memory.Addr(PageSize), 8) // page 1 dirty
	data := make([]byte, 64)
	for i := range data {
		data[i] = 7
	}
	got := tbl.ApplyToTwin(shared+memory.Addr(PageSize-32), data)
	if got != 64 {
		t.Errorf("spanning ApplyToTwin wrote %d bytes, want 64", got)
	}
}

// TestPartialLastPageTwin: an allocation that ends mid-page is backed to
// the page boundary, so faulting, twinning and snapshotting its last page
// stay in bounds and the twin holds the page's pre-store contents.
func TestPartialLastPageTwin(t *testing.T) {
	l := memory.NewLayout(16)
	a, err := l.Alloc("tail", PageSize+200, memory.Shared, 3)
	if err != nil {
		t.Fatal(err)
	}
	l.Freeze()
	inst := memory.NewInstance(l)
	tbl := NewTable(inst)
	last := a + PageSize + 192
	inst.WriteU64(last, 0x1111)

	if got := tbl.EnsureWritable(last, 8); got != 1 {
		t.Fatalf("store to the partial page took %d faults, want 1", got)
	}
	inst.WriteU64(last, 0x2222)
	cur, twin := tbl.Snapshot(PageIndex(last))
	if len(cur) != PageSize || len(twin) != PageSize {
		t.Fatalf("snapshot %d/%d bytes, want whole pages", len(cur), len(twin))
	}
	if cur[192] != 0x22 || twin[192] != 0x11 {
		t.Errorf("partial page: current %#x, twin %#x; want 0x22, 0x11", cur[192], twin[192])
	}
	for i := 200; i < PageSize; i++ {
		if cur[i] != 0 || twin[i] != 0 {
			t.Fatalf("byte %d past the allocation is nonzero", i)
		}
	}
}

// TestCollectOrdersInFlightStore: a store bracketed by LockStores —
// protection check, then the store itself — lands wholly before a
// concurrent Collect's snapshot, so it is diffed rather than lost behind
// the write-protect, and the page comes back clean and read-only.
func TestCollectOrdersInFlightStore(t *testing.T) {
	_, inst, tbl, shared, _ := setup(t)
	pg := PageIndex(shared)
	tbl.EnsureWritable(shared, 8)

	tbl.LockStores()
	if got := tbl.EnsureWritableLocked(shared+8, 8); got != 0 {
		t.Fatalf("store to a writable page took %d faults, want 0", got)
	}
	started := make(chan struct{})
	done := make(chan []byte)
	go func() {
		close(started)
		cur, _ := tbl.Collect(pg)
		done <- cur
	}()
	<-started
	inst.WriteU64(shared+8, 0x2A)
	tbl.UnlockStores()

	cur := <-done
	if cur[8] != 0x2A {
		t.Errorf("in-flight store missing from the collected page: byte 8 = %#x, want 0x2a", cur[8])
	}
	if tbl.Prot(pg) != ReadOnly || tbl.IsDirty(pg) || tbl.DirtyPageCount() != 0 {
		t.Error("page not clean+protected after Collect")
	}
	if got := tbl.EnsureWritable(shared, 8); got != 1 {
		t.Errorf("store after Collect took %d faults, want 1", got)
	}
}
