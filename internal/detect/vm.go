package detect

import (
	"fmt"

	"midway/internal/cost"
	"midway/internal/diff"
	"midway/internal/memory"
	"midway/internal/obs"
	"midway/internal/proto"
	"midway/internal/vmem"
)

// incState is the incarnation-number and update-history bookkeeping shared
// by the vm, twindiff and hybrid schemes (Section 3.4).
type incState struct {
	// lastInc is this node's last-seen incarnation for the object.
	lastInc uint64
	// inc is the object's current incarnation (meaningful at the owner).
	inc uint64
	// baseInc is the incarnation preceding the oldest retained history
	// entry; requesters whose lastInc is below it receive full data.
	baseInc uint64
	// history holds prior incarnations' updates, newest last, trimmed by
	// the full-data rule.
	history []proto.HistoryEntry
}

// trim enforces the full-data rule's memory bound: once the retained
// history exceeds the bound data's size, the oldest entries are dropped —
// any requester that would have needed them receives full data instead.
func (s *incState) trim(boundBytes uint32) {
	total := 0
	for _, h := range s.history {
		total += proto.UpdateBytes(h.Updates)
	}
	for len(s.history) > 0 && uint32(total) > boundBytes {
		total -= proto.UpdateBytes(s.history[0].Updates)
		s.baseInc = s.history[0].Incarnation
		s.history = s.history[1:]
	}
}

// entriesAfter returns the retained entries newer than lastInc and their
// total update bytes.
func (s *incState) entriesAfter(lastInc uint64) ([]proto.HistoryEntry, int) {
	var entries []proto.HistoryEntry
	total := 0
	for _, h := range s.history {
		if h.Incarnation > lastInc {
			entries = append(entries, h)
			total += proto.UpdateBytes(h.Updates)
		}
	}
	return entries, total
}

// historyBytes returns the total bytes of retained history.
func (s *incState) historyBytes() int {
	total := 0
	for _, h := range s.history {
		total += proto.UpdateBytes(h.Updates)
	}
	return total
}

// vmObjState is the vm scheme's per-object slot: incarnation history for
// locks plus the pending-update accumulator page diffs feed (locks and
// barriers alike).
type vmObjState struct {
	incState
	// accum holds updates discovered by page diffs that belong to this
	// object but have not yet been folded into an incarnation or shipped.
	accum []proto.Update
}

func vmStateOf(o ObjectView) *vmObjState {
	if s, ok := o.State().(*vmObjState); ok {
		return s
	}
	s := &vmObjState{}
	o.SetState(s)
	return s
}

// RetainedHistoryBytes reports the total bytes of incarnation history a
// detector retains for the object: an introspection hook for tests and
// diagnostics that keeps the state representation itself opaque.
func RetainedHistoryBytes(o ObjectView) int {
	switch s := o.State().(type) {
	case *vmObjState:
		return s.historyBytes()
	case *twinLockState:
		return s.historyBytes()
	case *hybridObjState:
		return s.historyBytes()
	}
	return 0
}

// vmDetector implements the conventional page-protection write detection
// (Sections 3.3–3.4).
//
// Write trapping: shared pages start read-only; the first store to a page
// write-faults, the handler saves a twin, marks the page dirty and grants
// write access.  Subsequent stores are free.
//
// Write collection: at a transfer, pages containing bound data are diffed
// against their twins.  A page's diff is distributed to the pending-update
// accumulator of every synchronization object whose binding overlaps it
// (the paper's diff reuse), after which the page is cleaned and
// write-protected again.  Each transfer increments the lock's incarnation
// number and folds the lock's accumulated updates into a per-incarnation
// history entry; a requester receives every entry newer than its last-seen
// incarnation.  If the concatenated entries would exceed the size of the
// bound data, or the requester predates the retained history, full data is
// sent instead.  A rebinding invalidates the history and forces a full
// send without diffing, exactly the quicksort fast path the paper
// describes.
type vmDetector struct {
	e   Engine
	opt Options
}

func init() {
	Register("vm", func(e Engine, opt Options) Detector {
		return &vmDetector{e: e, opt: opt}
	})
}

// vmTrap upgrades the stored-to pages to writable, twinning them on first
// touch.  Shared by the vm and hybrid schemes; the caller holds the page
// table's LockStores (see PageTrapper).
func vmTrap(e Engine, a memory.Addr, size uint32, r *memory.Region) {
	if r.Class == memory.Private {
		return // private pages are not managed by the external pager
	}
	faults := e.VM().EnsureWritableLocked(a, size)
	if faults > 0 {
		e.Stats().WriteFaults.Add(uint64(faults))
		e.Charge(uint64(faults) * e.Cost().PageWriteFault)
		emitFault(e, r, faults, size)
	}
}

// emitFault traces a write fault (or batch of them) on the application's
// trap path.
func emitFault(e Engine, r *memory.Region, faults int, span uint32) {
	if tr := e.Trace(); tr != nil {
		tr.Emit(obs.Event{
			Kind: obs.EvFault, Cycles: e.CycleNow(), Node: int32(e.NodeID()),
			Obj: -1, Peer: -1, Name: r.Name,
			A: int64(faults), Bytes: uint64(span),
		})
	}
}

func (d *vmDetector) TrapWrite(a memory.Addr, size uint32, r *memory.Region) {
	vmTrap(d.e, a, size, r)
}

func (d *vmDetector) Pages() *vmem.Table { return d.e.VM() }

// vmTrapBatch is count consecutive vmTrap calls for elem-sized stores.
// A page faults at most once per batch either way, so one EnsureWritable
// over the whole span produces exactly the per-element fault count and
// charge.
func vmTrapBatch(e Engine, a memory.Addr, elem uint32, count int, r *memory.Region) {
	if r.Class == memory.Private || count == 0 {
		return
	}
	faults := e.VM().EnsureWritableLocked(a, uint32(count)*elem)
	if faults > 0 {
		e.Stats().WriteFaults.Add(uint64(faults))
		e.Charge(uint64(faults) * e.Cost().PageWriteFault)
		emitFault(e, r, faults, uint32(count)*elem)
	}
}

func (d *vmDetector) TrapWriteBatch(a memory.Addr, elem uint32, count int, r *memory.Region) {
	vmTrapBatch(d.e, a, elem, count, r)
}

// diffAndDistribute write-protects and diffs every dirty page holding data
// of the given binding, and distributes the discovered modifications to
// the accumulator of every object whose binding overlaps them.  accumOf
// maps an object's view to the scheme's accumulator slot.  Caller holds
// the node's mutex (collection entry points do).
func diffAndDistribute(e Engine, binding []memory.Range, accumOf func(ObjectView) *[]proto.Update) cost.Cycles {
	st := e.Stats()
	m := e.Cost()
	vm := e.VM()
	var cycles cost.Cycles
	seen := make(map[int]bool)
	for _, rg := range binding {
		for _, pg := range vm.DirtyPagesIn(rg) {
			if seen[pg] {
				continue
			}
			seen[pg] = true
			cur, twin := vm.Collect(pg)
			st.PagesWriteProtected.Add(1)
			cycles += m.PageProtectRO
			df := diff.Compute(cur, twin)
			st.PagesDiffed.Add(1)
			st.DiffRuns.Add(uint64(len(df.Runs)))
			cycles += m.DiffCost(len(df.Runs), vmem.WordsPerPage)
			if tr := e.Trace(); tr != nil {
				changed := 0
				for _, run := range df.Runs {
					changed += len(run.Data)
				}
				name := ""
				if r := e.Layout().RegionFor(vmem.PageBase(pg)); r != nil {
					name = r.Name
				}
				tr.Emit(obs.Event{
					Kind: obs.EvDiff, Cycles: e.TraceAt(), Node: int32(e.NodeID()),
					Obj: -1, Peer: -1, Name: name,
					A: int64(pg), B: int64(len(df.Runs)), Bytes: uint64(changed),
				})
			}
			if !df.Empty() {
				distribute(e, pg, df, accumOf)
			}
		}
	}
	return cycles
}

// distribute appends the page diff's runs to the pending-update
// accumulator of every synchronization object whose binding they
// intersect.  Caller holds the node's mutex.
func distribute(e Engine, pg int, df diff.Diff, accumOf func(ObjectView) *[]proto.Update) {
	base := vmem.PageBase(pg)
	for _, run := range df.Runs {
		runRg := memory.Range{Addr: base + memory.Addr(run.Off), Size: uint32(len(run.Data))}
		e.ForEachObject(func(o ObjectView) {
			appendTo := accumOf(o)
			for _, brg := range o.Binding() {
				inter, ok := runRg.Intersect(brg)
				if !ok {
					continue
				}
				lo := inter.Addr - runRg.Addr
				*appendTo = append(*appendTo, proto.Update{
					Addr: inter.Addr,
					Data: run.Data[lo : uint32(lo)+inter.Size],
				})
			}
		})
	}
}

func vmAccumOf(o ObjectView) *[]proto.Update { return &vmStateOf(o).accum }

func (d *vmDetector) FillAcquire(lk LockView, req *proto.LockAcquire) {
	req.LastIncarnation = vmStateOf(lk).lastInc
}

func (d *vmDetector) CollectLock(lk LockView, req *proto.LockAcquire, exclusive bool) (*proto.LockGrant, cost.Cycles) {
	e := d.e
	t := e.Tick()
	binding := lk.Binding()
	s := vmStateOf(lk)
	boundBytes := RangesBytes(binding)

	if lk.Rebound() {
		// Rebinding: the incarnation history describes the old binding;
		// increment the incarnation and ship all (new) bound data without
		// performing a diff.  Pages stay dirty for the benefit of other
		// objects sharing them.
		newInc := s.inc + 1
		s.inc = newInc
		s.history = nil
		s.baseInc = newInc
		s.accum = filterUpdates(s.accum, binding)
		s.lastInc = newInc
		lk.ClearRebound()
		ups := readBoundUpdates(e, binding, int64(newInc))
		cycles := cost.CopyCost(e.Cost().CopyWarmPerKB, int(boundBytes))
		return &proto.LockGrant{
			Time:        t,
			Incarnation: newInc,
			Base:        newInc,
			Updates:     ups,
			Full:        true,
		}, cycles
	}

	// Shared and exclusive grants share the diff/incarnation machinery;
	// only ownership (handled by the caller) differs.  Every exclusive
	// transfer increments the incarnation number, as in the paper; a
	// shared grant advances it only when it folds in fresh modifications,
	// so a train of readers does not inflate the history.
	cycles := diffAndDistribute(e, binding, vmAccumOf)
	newInc := s.inc
	if exclusive {
		newInc++
	}
	if len(s.accum) > 0 {
		if !exclusive {
			newInc++
		}
		ups := s.accum
		s.accum = nil
		for i := range ups {
			ups[i].TS = int64(newInc)
		}
		s.history = append(s.history, proto.HistoryEntry{Incarnation: newInc, Updates: ups})
	}
	s.inc = newInc
	s.lastInc = newInc

	// Assemble the reply: history entries newer than the requester's
	// last-seen incarnation, or full data if the history does not reach
	// back far enough or would exceed the bound data's size.
	full := req.LastIncarnation < s.baseInc
	var entries []proto.HistoryEntry
	if !full {
		var total int
		entries, total = s.entriesAfter(req.LastIncarnation)
		if d.opt.CombineIncarnations && len(entries) > 1 {
			// §3.4 alternative: merge the entries so each address
			// reflects its most recent incarnation.  The combined set
			// never exceeds the bound data, so the full-data rule cannot
			// trigger.
			combined, c := combineEntries(entries, e.Cost())
			cycles += c
			g := &proto.LockGrant{
				Time:        t,
				Incarnation: newInc,
				Base:        s.baseInc,
				Updates:     combined,
			}
			s.trim(boundBytes)
			return g, cycles
		}
		if uint32(total) > boundBytes {
			full = true
		}
	}
	if full {
		ups := readBoundUpdates(e, binding, int64(newInc))
		cycles += cost.CopyCost(e.Cost().CopyWarmPerKB, int(boundBytes))
		s.history = nil
		s.baseInc = newInc
		return &proto.LockGrant{
			Time:        t,
			Incarnation: newInc,
			Base:        newInc,
			Updates:     ups,
			Full:        true,
		}, cycles
	}
	g := &proto.LockGrant{
		Time:        t,
		Incarnation: newInc,
		Base:        s.baseInc,
		History:     entries,
	}
	s.trim(boundBytes)
	return g, cycles
}

// vmApplyUpdates installs incoming updates into the local pages and, where
// pages are dirty, into their twins, so remote data is never mistaken for
// a local modification.  Shared by the vm and hybrid schemes.
func vmApplyUpdates(e Engine, us []proto.Update) cost.Cycles {
	if tr := e.Trace(); tr != nil && len(us) > 0 {
		tr.Emit(obs.Event{
			Kind: obs.EvApply, Cycles: e.TraceAt(), Node: int32(e.NodeID()),
			Obj: -1, Peer: -1, Bytes: uint64(proto.UpdateBytes(us)),
		})
	}
	var cycles cost.Cycles
	for _, u := range us {
		e.Inst().WriteBytes(u.Range(), u.Data)
		tb := e.VM().ApplyToTwin(u.Addr, u.Data)
		if tb > 0 {
			e.Stats().TwinBytesUpdated.Add(uint64(tb))
			cycles += cost.CopyCost(e.Cost().CopyWarmPerKB, tb)
		}
	}
	return cycles
}

func (d *vmDetector) ApplyLock(lk LockView, g *proto.LockGrant) cost.Cycles {
	s := vmStateOf(lk)
	var cycles cost.Cycles
	switch {
	case g.Full:
		cycles = vmApplyUpdates(d.e, g.Updates)
		// Full data subsumes any retained history; future requesters
		// older than Base get a fresh full read.
		s.history = nil
		s.baseInc = g.Base
	default:
		// A combined incremental grant carries its merged updates in
		// Updates; retained as a single history entry they remain a
		// valid (superset) answer for future requesters.
		if len(g.Updates) > 0 {
			cycles += vmApplyUpdates(d.e, g.Updates)
			s.history = append(s.history,
				proto.HistoryEntry{Incarnation: g.Incarnation, Updates: g.Updates})
		}
		for i, h := range g.History {
			if i > 0 && h.Incarnation <= g.History[i-1].Incarnation {
				panic(fmt.Sprintf("detect: node %d: history out of order for lock %d", d.e.NodeID(), g.Lock))
			}
			cycles += vmApplyUpdates(d.e, h.Updates)
		}
		// Retain the new entries so we can serve future requesters; our
		// own older entries remain valid and contiguous below them.
		s.history = append(s.history, g.History...)
		s.trim(RangesBytes(g.Binding))
	}
	s.inc = g.Incarnation
	s.lastInc = g.Incarnation
	return cycles
}

func (d *vmDetector) CollectBarrier(b BarrierView) ([]proto.Update, cost.Cycles) {
	if len(b.Binding()) == 0 {
		return nil, 0
	}
	cycles := diffAndDistribute(d.e, b.Binding(), vmAccumOf)
	s := vmStateOf(b)
	ups := s.accum
	s.accum = nil
	for i := range ups {
		ups[i].TS = int64(b.Epoch() + 1)
	}
	return ups, cycles
}

func (d *vmDetector) ApplyBarrier(b BarrierView, rel *proto.BarrierRelease) cost.Cycles {
	return vmApplyUpdates(d.e, rel.Updates)
}

func (d *vmDetector) NotifyRebind(LockView) {}
