package detect

import (
	"sync"

	"midway/internal/cost"
	"midway/internal/memory"
	"midway/internal/proto"
	"midway/internal/vmem"
)

// hybridDetector dispatches write detection per region: fine-grained
// regions use the rt mechanism (dirtybit timestamps), coarse-grained or
// rebind-heavy regions use the vm mechanism (page twins, diffs and
// incarnation histories).  The paper's central result is that neither
// scheme dominates — RT-DSM wins for medium/fine sharing, VM-DSM when
// coarse granularity or lock rebinding amortizes faults — so choosing per
// region captures the better of the two on mixed workloads.
//
// Regions declare their class at allocation (memory.Gran); GranAuto
// regions are classified at the first collection with enough evidence,
// from the measured write density: bulk-dominated stores route to vm,
// scalar-dominated stores to rt, and a region bound to a rebound lock
// routes to vm (the quicksort fast path).  Until classified, an auto
// region is handled by the rt mechanism, which is always correct; the
// transition to vm is handled by a one-time full send (locks) or a final
// dirtybit sweep (barriers).
//
// A lock whose binding spans both classes merges the two collections into
// one grant: the rt-routed ranges are scanned since the requester's last
// timestamp, the vm-routed ranges ship incarnation history since the
// requester's last incarnation, and both halves share the transfer's
// Lamport time — vm incarnation numbers are drawn from the Lamport clock,
// so the grant's update stamps form one coherent timestamp domain even
// when two nodes classify an auto region differently.
type hybridDetector struct {
	e   Engine
	opt Options

	// mu guards the auto-region classification shared between the
	// application's trap path and the handler's collection path.
	mu    sync.Mutex
	modes map[int]regionMode    // frozen decisions for auto regions
	meas  map[int]*writeMeasure // per-region write-density evidence
}

type regionMode uint8

const (
	// modeUndecided: an auto region without enough evidence; handled by
	// the rt mechanism until classified.
	modeUndecided regionMode = iota
	// modeRT routes the region to dirtybit-timestamp detection.
	modeRT
	// modeVM routes the region to twin-diff detection.
	modeVM
)

// writeMeasure accumulates trap-path evidence for one auto region.
type writeMeasure struct {
	stores uint64
	bytes  uint64
}

const (
	// hybridDecideStores is the minimum number of observed stores before
	// an auto region's classification freezes.
	hybridDecideStores = 64
	// hybridBulkBytes is the mean store size at or above which a region's
	// writes count as bulk (dense area writes amortize page faults, so the
	// region routes to vm).
	hybridBulkBytes = 32
)

func init() {
	Register("hybrid", func(e Engine, opt Options) Detector {
		return &hybridDetector{
			e:     e,
			opt:   opt,
			modes: make(map[int]regionMode),
			meas:  make(map[int]*writeMeasure),
		}
	})
}

// hybridObjState is the hybrid scheme's per-object slot: the rt timestamp
// and the vm incarnation bookkeeping side by side, plus the vm-routed
// portion of the binding as of the last collection (a change forces the
// one-time transition send).
type hybridObjState struct {
	lastTime int64
	incState
	accum []proto.Update
	// vmParts is the vm-routed split of the binding at the last
	// collection or application.
	vmParts []memory.Range
	// seenBindGen tracks rebindings observed through grants, so rebound
	// locks' auto regions can be routed to vm on every node.
	seenBindGen uint64
}

func hybridStateOf(o ObjectView) *hybridObjState {
	if s, ok := o.State().(*hybridObjState); ok {
		return s
	}
	s := &hybridObjState{}
	o.SetState(s)
	return s
}

func hybridAccumOf(o ObjectView) *[]proto.Update { return &hybridStateOf(o).accum }

// modeOfTagged returns the mode fixed by an explicit allocation tag, or
// modeUndecided for auto regions.
func modeOfTagged(r *memory.Region) regionMode {
	switch r.Gran {
	case memory.GranFine:
		return modeRT
	case memory.GranCoarse:
		return modeVM
	}
	return modeUndecided
}

// trapMode returns the region's current mode on the store path, recording
// write-density evidence while the region is unclassified.
func (d *hybridDetector) trapMode(r *memory.Region, size uint32) regionMode {
	if m := modeOfTagged(r); m != modeUndecided {
		return m
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if m, ok := d.modes[r.Index]; ok {
		return m
	}
	ms := d.meas[r.Index]
	if ms == nil {
		ms = &writeMeasure{}
		d.meas[r.Index] = ms
	}
	ms.stores++
	ms.bytes += uint64(size)
	return modeUndecided
}

// trapModeBatch is trapMode for a batch of count elem-sized stores: the
// same per-store evidence totals are recorded with one lock acquisition.
// If the batch straddles the decision threshold the freeze happens at the
// batch boundary instead of mid-batch, which can only occur under
// concurrent unsynchronized writers — an ordering the simulation already
// treats as nondeterministic.
func (d *hybridDetector) trapModeBatch(r *memory.Region, elem uint32, count int) regionMode {
	if m := modeOfTagged(r); m != modeUndecided {
		return m
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if m, ok := d.modes[r.Index]; ok {
		return m
	}
	ms := d.meas[r.Index]
	if ms == nil {
		ms = &writeMeasure{}
		d.meas[r.Index] = ms
	}
	ms.stores += uint64(count)
	ms.bytes += uint64(count) * uint64(elem)
	return modeUndecided
}

// currentMode returns the region's mode without recording evidence or
// freezing a decision (the application side of updates).
func (d *hybridDetector) currentMode(r *memory.Region) regionMode {
	if r.Class == memory.Private {
		return modeRT
	}
	if m := modeOfTagged(r); m != modeUndecided {
		return m
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.modes[r.Index]
}

// classify returns the region's mode for a collection, freezing an auto
// region's decision once enough write-density evidence has accumulated.
func (d *hybridDetector) classify(r *memory.Region) regionMode {
	if r.Class == memory.Private {
		return modeRT
	}
	if m := modeOfTagged(r); m != modeUndecided {
		return m
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if m, ok := d.modes[r.Index]; ok {
		return m
	}
	ms := d.meas[r.Index]
	if ms == nil || ms.stores < hybridDecideStores {
		return modeUndecided
	}
	m := modeRT
	if ms.bytes/ms.stores >= hybridBulkBytes {
		m = modeVM
	}
	d.modes[r.Index] = m
	return m
}

// markReboundVM routes the binding's auto regions to vm: rebinding is the
// access pattern the vm scheme's full-send fast path exists for.
func (d *hybridDetector) markReboundVM(binding []memory.Range) {
	for _, rg := range binding {
		segs, err := d.e.Layout().Segments(rg)
		if err != nil {
			panic(err)
		}
		for _, seg := range segs {
			r := seg.Region
			if r.Class != memory.Shared || modeOfTagged(r) != modeUndecided {
				continue
			}
			d.mu.Lock()
			if _, decided := d.modes[r.Index]; !decided {
				d.modes[r.Index] = modeVM
			}
			d.mu.Unlock()
		}
	}
}

// splitBinding partitions the binding at region boundaries into rt-routed
// and vm-routed pieces, classifying auto regions as a side effect.
// Undecided regions stay on the rt side, which is always correct.
func (d *hybridDetector) splitBinding(binding []memory.Range) (rtParts, vmParts []memory.Range) {
	for _, rg := range binding {
		if rg.Size == 0 {
			continue
		}
		segs, err := d.e.Layout().Segments(rg)
		if err != nil {
			panic(err)
		}
		for _, seg := range segs {
			piece := memory.Range{Addr: seg.Addr(), Size: seg.Len}
			if d.classify(seg.Region) == modeVM {
				vmParts = append(vmParts, piece)
			} else {
				rtParts = append(rtParts, piece)
			}
		}
	}
	return rtParts, vmParts
}

func (d *hybridDetector) TrapWrite(a memory.Addr, size uint32, r *memory.Region) {
	if r.Class == memory.Private {
		// The misclassification path is the rt template's (the hybrid
		// instrumentation is rt-style dirtybit code).
		rtTrap(d.e, d.opt.EagerTimestamps, a, size, r)
		return
	}
	if d.trapMode(r, size) == modeVM {
		vmTrap(d.e, a, size, r)
		return
	}
	rtTrap(d.e, d.opt.EagerTimestamps, a, size, r)
}

func (d *hybridDetector) Pages() *vmem.Table { return d.e.VM() }

func (d *hybridDetector) TrapWriteBatch(a memory.Addr, elem uint32, count int, r *memory.Region) {
	if r.Class == memory.Private {
		rtTrapBatch(d.e, d.opt.EagerTimestamps, a, elem, count, r)
		return
	}
	if d.trapModeBatch(r, elem, count) == modeVM {
		vmTrapBatch(d.e, a, elem, count, r)
		return
	}
	rtTrapBatch(d.e, d.opt.EagerTimestamps, a, elem, count, r)
}

func (d *hybridDetector) FillAcquire(lk LockView, req *proto.LockAcquire) {
	s := hybridStateOf(lk)
	req.LastTime = s.lastTime
	req.LastIncarnation = s.lastInc
}

func (d *hybridDetector) CollectLock(lk LockView, req *proto.LockAcquire, exclusive bool) (*proto.LockGrant, cost.Cycles) {
	e := d.e
	t := e.Tick()
	s := hybridStateOf(lk)
	binding := lk.Binding()
	if lk.Rebound() {
		d.markReboundVM(binding)
	}
	s.seenBindGen = lk.BindGen()
	rtParts, vmParts := d.splitBinding(binding)
	vmBytes := RangesBytes(vmParts)

	// RT half: scan the rt-routed ranges since the requester's last
	// consistency time.
	since := req.LastTime
	if req.BindGen != lk.BindGen() {
		since = 0
	}
	var cycles cost.Cycles
	g := &proto.LockGrant{Time: t}
	if len(rtParts) > 0 {
		sc := scanBinding(e, rtParts, since, t)
		g.Updates = sc.updates
		cycles += sc.cycles
	}
	s.lastTime = t

	// VM half: incarnation numbers are drawn from the Lamport clock, so
	// both halves of the grant share one strictly-increasing timestamp
	// domain (ticks only move forward along the ownership chain).
	newInc := uint64(t)
	g.Incarnation = newInc

	if len(vmParts) == 0 {
		// Pure-rt binding: the incarnation machinery carries no data.
		lk.ClearRebound()
		s.vmParts = nil
		s.history = nil
		s.inc, s.lastInc, s.baseInc = newInc, newInc, newInc
		g.Base = newInc
		return g, cycles
	}

	fullSend := lk.Rebound() || !rangesEqual(vmParts, s.vmParts) ||
		req.LastIncarnation < s.baseInc
	if fullSend {
		// Rebinding, a region's transition to vm, or a requester that
		// predates the retained history: ship the vm-routed data in full,
		// without diffing.  Any pending dirtybit state from the region's
		// rt phase is subsumed by the full contents.
		s.inc, s.lastInc, s.baseInc = newInc, newInc, newInc
		s.history = nil
		s.accum = filterUpdates(s.accum, vmParts)
		s.vmParts = vmParts
		lk.ClearRebound()
		g.Updates = append(g.Updates, readBoundUpdates(e, vmParts, int64(newInc))...)
		cycles += cost.CopyCost(e.Cost().CopyWarmPerKB, int(vmBytes))
		g.Base = newInc
		g.Full = true
		return g, cycles
	}

	// Incremental: diff the vm-routed pages, fold the accumulator into a
	// history entry stamped with this transfer's time, and reply with the
	// entries the requester has not seen — or full data when the history
	// would exceed the vm-routed portion's size.
	cycles += diffAndDistribute(e, vmParts, hybridAccumOf)
	if len(s.accum) > 0 {
		ups := s.accum
		s.accum = nil
		for i := range ups {
			ups[i].TS = int64(newInc)
		}
		s.history = append(s.history, proto.HistoryEntry{Incarnation: newInc, Updates: ups})
	}
	s.inc, s.lastInc = newInc, newInc
	entries, total := s.entriesAfter(req.LastIncarnation)
	if uint32(total) > vmBytes {
		s.history = nil
		s.baseInc = newInc
		g.Updates = append(g.Updates, readBoundUpdates(e, vmParts, int64(newInc))...)
		cycles += cost.CopyCost(e.Cost().CopyWarmPerKB, int(vmBytes))
		g.Base = newInc
		g.Full = true
		return g, cycles
	}
	g.Base = s.baseInc
	g.History = entries
	s.trim(vmBytes)
	return g, cycles
}

// applyUpdates installs a batch of incoming updates, dispatching each
// piece by the local region mode: guarded timestamp application for
// rt-routed (and still-undecided) regions, blind write plus twin
// maintenance for vm-routed regions.  The two batches touch disjoint
// addresses (modes partition the address space), so per-batch order is
// preserved where it matters.
func (d *hybridDetector) applyUpdates(us []proto.Update) cost.Cycles {
	var rtUs, vmUs []proto.Update
	for _, u := range us {
		segs, err := d.e.Layout().Segments(u.Range())
		if err != nil {
			panic(err)
		}
		off := uint32(0)
		for _, seg := range segs {
			sub := proto.Update{
				Addr: seg.Addr(),
				TS:   u.TS,
				Data: u.Data[off : off+seg.Len],
			}
			if d.currentMode(seg.Region) == modeVM {
				vmUs = append(vmUs, sub)
			} else {
				rtUs = append(rtUs, sub)
			}
			off += seg.Len
		}
	}
	var cycles cost.Cycles
	if len(rtUs) > 0 {
		cycles += rtApplyUpdates(d.e, rtUs)
	}
	if len(vmUs) > 0 {
		cycles += vmApplyUpdates(d.e, vmUs)
	}
	return cycles
}

func (d *hybridDetector) ApplyLock(lk LockView, g *proto.LockGrant) cost.Cycles {
	s := hybridStateOf(lk)
	if g.BindGen != s.seenBindGen {
		// The lock was rebound elsewhere: adopt the vm routing for its
		// auto regions, as the collecting side did.
		d.markReboundVM(g.Binding)
		s.seenBindGen = g.BindGen
	}
	cycles := d.applyUpdates(g.Updates)
	_, vmParts := d.splitBinding(g.Binding)
	if g.Full {
		s.history = nil
		s.baseInc = g.Base
	} else {
		for i, h := range g.History {
			if i > 0 && h.Incarnation <= g.History[i-1].Incarnation {
				panic("detect: hybrid history out of order")
			}
			cycles += d.applyUpdates(h.Updates)
		}
		s.history = append(s.history, g.History...)
		s.trim(RangesBytes(vmParts))
	}
	s.vmParts = vmParts
	s.inc = g.Incarnation
	s.lastInc = g.Incarnation
	s.lastTime = g.Time
	return cycles
}

func (d *hybridDetector) CollectBarrier(b BarrierView) ([]proto.Update, cost.Cycles) {
	binding := b.Binding()
	if len(binding) == 0 {
		return nil, 0
	}
	e := d.e
	t := e.Tick()
	s := hybridStateOf(b)
	rtParts, vmParts := d.splitBinding(binding)

	// Ranges that transitioned to vm since the last episode still carry
	// this node's modifications in their dirtybits (the region's rt
	// phase); sweep them rt-style one last time.  New writes have been
	// faulting since the transition, so the vm machinery owns them from
	// here on.
	scanParts := rtParts
	for _, rg := range vmParts {
		if !rangesContain(s.vmParts, rg) {
			scanParts = append(scanParts, rg)
		}
	}
	s.vmParts = vmParts

	var ups []proto.Update
	var cycles cost.Cycles
	if len(scanParts) > 0 {
		since := t - 1
		if d.opt.EagerTimestamps {
			since = s.lastTime
		}
		sc := scanBinding(e, scanParts, since, t)
		ups = sc.updates
		cycles += sc.cycles
	}
	if len(vmParts) > 0 {
		cycles += diffAndDistribute(e, vmParts, hybridAccumOf)
		acc := s.accum
		s.accum = nil
		for i := range acc {
			// Stamp with the episode's Lamport time so rt-classifying
			// receivers apply these exactly once.
			acc[i].TS = t
		}
		ups = append(ups, acc...)
	}
	return ups, cycles
}

func (d *hybridDetector) ApplyBarrier(b BarrierView, rel *proto.BarrierRelease) cost.Cycles {
	cycles := d.applyUpdates(rel.Updates)
	hybridStateOf(b).lastTime = rel.Time
	return cycles
}

func (d *hybridDetector) NotifyRebind(lk LockView) {
	// The vm half's transition machinery handles rebinding at the next
	// collection (full send); nothing to invalidate eagerly.
}

// rangesContain reports whether rg appears in the list.  Binding splits
// are deterministic piece-by-piece, so a transitioned piece is detected by
// exact comparison.
func rangesContain(list []memory.Range, rg memory.Range) bool {
	for _, o := range list {
		if o == rg {
			return true
		}
	}
	return false
}
