package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"midway/internal/detect"
	"midway/internal/member"
	"midway/internal/memory"
	"midway/internal/obs"
	"midway/internal/proto"
)

// Proc is the per-processor handle passed to the application function by
// System.Run.  All shared-memory access and synchronization goes through
// it: the Write methods are the software analogue of compiler-instrumented
// stores, and the synchronization methods are the entry-consistency API.
//
// A Proc is owned by one application goroutine and must not be shared.
type Proc struct {
	node *Node

	// One-entry region cache for the instrumented access fast path: most
	// accesses hit the same array's region as the previous one, and once
	// the layout is frozen (before any Proc exists) a region's base,
	// extent and backing slice are immutable, so the cache needs no
	// invalidation.  Proc is owned by a single goroutine, so no locking
	// either.
	rcRegion *memory.Region
	rcBase   memory.Addr
	rcSize   uint32 // len(rcData): the region's extent
	rcData   []byte
}

// dataFor returns the backing bytes and region for a scalar (or dense
// batched) access, validating that it is mapped and does not cross a
// region boundary — the same checks as layout.CheckScalar, resolved
// through the cache on the fast path.
func (p *Proc) dataFor(a memory.Addr, size uint32) ([]byte, *memory.Region) {
	if p.rcRegion != nil && a >= p.rcBase {
		if off := uint32(a - p.rcBase); off+size <= p.rcSize && off+size >= off {
			return p.rcData[off : off+size], p.rcRegion
		}
	}
	n := p.node
	r, err := n.sys.layout.CheckScalar(a, size)
	if err != nil {
		panic(err)
	}
	d := n.inst.Data(r)
	p.rcRegion, p.rcBase, p.rcSize, p.rcData = r, r.Base, uint32(len(d)), d
	off := uint32(a - r.Base)
	return d[off : off+size], r
}

// ID returns the processor number, in [0, Nodes).
func (p *Proc) ID() int { return p.node.id }

// Nodes returns the number of processors in the system.
func (p *Proc) Nodes() int { return p.node.sys.cfg.Nodes }

// Cycles returns the processor's current simulated time in cycles.
func (p *Proc) Cycles() uint64 { return p.node.cycles.Now() }

// Compute charges n cycles of local computation to the simulated clock.
// Applications use it to model the work between shared-memory operations.
func (p *Proc) Compute(n uint64) { p.node.cycles.Charge(n) }

// ReadU32 loads a 32-bit word from shared (or private) memory.
func (p *Proc) ReadU32(a memory.Addr) uint32 {
	p.node.cycles.Charge(p.node.cost.Load)
	b, _ := p.dataFor(a, 4)
	return binary.LittleEndian.Uint32(b)
}

// ReadU64 loads a 64-bit doubleword.
func (p *Proc) ReadU64(a memory.Addr) uint64 {
	p.node.cycles.Charge(p.node.cost.Load)
	b, _ := p.dataFor(a, 8)
	return binary.LittleEndian.Uint64(b)
}

// ReadF64 loads a float64.
func (p *Proc) ReadF64(a memory.Addr) float64 {
	p.node.cycles.Charge(p.node.cost.Load)
	b, _ := p.dataFor(a, 8)
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// The scalar Write methods trap before storing: under VM-DSM the write
// fault twins the page's pre-store contents (under RT-DSM the template
// runs after the store, but the order is not observable).

// beginStore and endStore bracket a store's trap and the store itself.
// Under a page-trapping scheme they hold the page table's LockStores, so
// a collection on the handler goroutine cannot write-protect and
// snapshot the page between the two; other schemes pay a nil check.
func (n *Node) beginStore() {
	if n.pages != nil {
		n.pages.LockStores()
	}
}

func (n *Node) endStore() {
	if n.pages != nil {
		n.pages.UnlockStores()
	}
}

// WriteU32 stores a 32-bit word, trapping the write per the configured
// strategy.
func (p *Proc) WriteU32(a memory.Addr, v uint32) {
	n := p.node
	b, r := p.dataFor(a, 4)
	if n.race != nil || n.left {
		n.checkStore(a, 4, r)
	}
	n.beginStore()
	n.det.TrapWrite(a, 4, r)
	n.cycles.Charge(n.cost.Store)
	binary.LittleEndian.PutUint32(b, v)
	n.endStore()
}

// WriteU64 stores a 64-bit doubleword, trapping the write.
func (p *Proc) WriteU64(a memory.Addr, v uint64) {
	n := p.node
	b, r := p.dataFor(a, 8)
	if n.race != nil || n.left {
		n.checkStore(a, 8, r)
	}
	n.beginStore()
	n.det.TrapWrite(a, 8, r)
	n.cycles.Charge(n.cost.Store)
	binary.LittleEndian.PutUint64(b, v)
	n.endStore()
}

// checkStore is the write path's slow-path guard, reached only with the
// race detector on or after a Leave: it flags write-after-leave misuse
// and hands the store to the detector BEFORE the detector trap marks the
// line, so the line's last synchronized timestamp is still readable.  It
// charges no simulated cycles.
func (n *Node) checkStore(a memory.Addr, size uint32, r *memory.Region) {
	if n.left {
		n.protocolViolation("write", r.Name, "store to shared memory after Leave")
	}
	if n.race != nil {
		n.race.CheckStore(a, size, r, n.cycles.Now(), n.lamport.Now())
	}
}

// WriteF64 stores a float64, trapping the write.
func (p *Proc) WriteF64(a memory.Addr, v float64) {
	p.WriteU64(a, math.Float64bits(v))
}

// writeBatch runs write trapping for count consecutive elem-sized scalar
// stores starting at a and returns the span's backing bytes: one bounds
// check over the whole span (scalar allocations never cross region
// boundaries, so the per-element checks it replaces could only ever
// resolve to the same region), one batched detector dispatch, one cost
// charge.  All three are exactly the sums the per-element path would
// produce.  It returns inside beginStore; the caller stores the span and
// then calls endStore.
func (p *Proc) writeBatch(a memory.Addr, elem uint32, count int) []byte {
	n := p.node
	b, r := p.dataFor(a, elem*uint32(count))
	if n.race != nil || n.left {
		n.checkStore(a, elem*uint32(count), r)
	}
	n.beginStore()
	detect.TrapWrites(n.det, a, elem, count, r)
	n.cycles.Charge(n.cost.Store * uint64(count))
	return b
}

// WriteU32s stores len(vs) consecutive 32-bit words starting at a —
// the instrumented form of a dense typed-array store loop.  Semantics and
// simulated costs are identical to len(vs) WriteU32 calls; only the
// dispatch overhead is fused.
func (p *Proc) WriteU32s(a memory.Addr, vs []uint32) {
	if len(vs) == 0 {
		return
	}
	b := p.writeBatch(a, 4, len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[4*i:], v)
	}
	p.node.endStore()
}

// WriteU64s stores len(vs) consecutive doublewords starting at a.
func (p *Proc) WriteU64s(a memory.Addr, vs []uint64) {
	if len(vs) == 0 {
		return
	}
	b := p.writeBatch(a, 8, len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
	p.node.endStore()
}

// WriteF64s stores len(vs) consecutive float64s starting at a.
func (p *Proc) WriteF64s(a memory.Addr, vs []float64) {
	if len(vs) == 0 {
		return
	}
	b := p.writeBatch(a, 8, len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	p.node.endStore()
}

// ReadBytes copies rg.Size bytes of shared memory into dst.
func (p *Proc) ReadBytes(rg memory.Range, dst []byte) {
	p.node.cycles.Charge(p.node.cost.Load * uint64((rg.Size+7)/8))
	p.node.inst.ReadBytes(rg, dst)
}

// WriteBytes performs an "area" store (the analogue of a structure
// assignment or bcopy into shared memory), trapping it through the area
// entry point of each touched region's template.
func (p *Proc) WriteBytes(rg memory.Range, src []byte) {
	n := p.node
	if uint32(len(src)) != rg.Size {
		panic(fmt.Sprintf("core: WriteBytes size mismatch: %d bytes into %d-byte range", len(src), rg.Size))
	}
	segs, err := n.sys.layout.Segments(rg)
	if err != nil {
		panic(err)
	}
	for _, s := range segs {
		if n.race != nil || n.left {
			n.checkStore(s.Addr(), s.Len, s.Region)
		}
	}
	n.beginStore()
	for _, s := range segs {
		n.det.TrapWrite(s.Addr(), s.Len, s.Region)
	}
	n.cycles.Charge(n.cost.Store * uint64((rg.Size+7)/8))
	n.inst.WriteBytes(rg, src)
	n.endStore()
}

// Acquire obtains the lock in exclusive (write) mode, making the data
// bound to it consistent at this processor.
func (p *Proc) Acquire(l LockID) { p.node.acquire(uint32(l), proto.Exclusive) }

// AcquireShared obtains the lock in non-exclusive (read) mode.  The caller
// receives a consistent snapshot of the bound data; exclusion between
// readers and the writer is established by the program's synchronization
// structure, as in the paper's applications.
func (p *Proc) AcquireShared(l LockID) { p.node.acquire(uint32(l), proto.Shared) }

// Release releases the lock.  Under Midway's lazy protocol no message is
// sent: ownership remains here until another processor asks for it.
func (p *Proc) Release(l LockID) { p.node.release(uint32(l)) }

// Rebind replaces the lock's data binding.  The caller must hold the lock
// in exclusive mode.  The new binding travels with the lock; under VM-DSM
// a rebinding invalidates the incarnation history, so the next transfer
// ships all bound data without diffing (the behaviour the paper's
// quicksort exploits).
func (p *Proc) Rebind(l LockID, ranges ...memory.Range) {
	n := p.node
	n.mu.Lock()
	defer n.mu.Unlock()
	lk := n.lockState(uint32(l))
	if !lk.held || lk.mode != proto.Exclusive {
		n.protocolViolation("rebind", lk.obj.name, "requires holding the lock exclusively")
	}
	lk.binding = append([]memory.Range(nil), ranges...)
	lk.rebound = true
	lk.bindGen++
	if rc := n.race; rc != nil {
		rc.NoteRebind(lk.id, lk.obj.name, lk.binding)
	}
	if tr := n.sys.obs; tr != nil {
		n.obsAt = n.cycles.Now()
		tr.Emit(obs.Event{
			Kind: obs.EvRebind, Cycles: n.obsAt, Node: int32(n.id),
			Obj: int32(lk.id), Peer: -1, Name: lk.obj.name,
			A: int64(lk.bindGen), B: int64(len(ranges)),
		})
	}
	n.det.NotifyRebind(lk) // binding-shaped bookkeeping (twins) is now stale
}

// Binding returns the lock's current data binding as known at this node.
func (p *Proc) Binding(l LockID) []memory.Range {
	n := p.node
	n.mu.Lock()
	defer n.mu.Unlock()
	lk := n.lockState(uint32(l))
	return append([]memory.Range(nil), lk.binding...)
}

// Barrier enters the barrier and blocks until all parties arrive.  Data
// bound to the barrier is made consistent across all parties.
func (p *Proc) Barrier(b BarrierID) { p.node.barrier(uint32(b)) }

// Crash simulates this node's process dying at the current program point,
// as if SIGKILLed between two instructions: no messages are lost, the
// proc's goroutine stops here, and the rest of the system reacts per
// Config.OnCrash (abort the run, or recover and degrade).  Chaos tests use
// it to crash a node at a chosen protocol point — holding a lock, between
// barrier episodes, or idle.  Crash does not return.
func (p *Proc) Crash() {
	p.node.sys.killNodeFrom(p.node.id, false, p.node.id)
	panic(errCrashed)
}

// Join sponsors the runtime admission of node id into an elastic
// membership (Config.MaxNodes): the joiner receives the synchronization
// directory and the barrier-bound data, a full-data fence guarantees its
// first acquire of every lock resynchronizes it, and its proc — the same
// SPMD function every node runs — is launched.  The caller is the
// sponsor: it must be at a release boundary (no locks held) and blocks
// until the joiner is running.  Returns an error if the id cannot join
// (already a member, crashed and fenced, out of capacity, or the
// handshake raced a crash).
func (p *Proc) Join(id int) error {
	n := p.node
	n.mu.Lock()
	for _, lk := range n.locks {
		if lk.held {
			name := lk.obj.name
			n.mu.Unlock()
			n.protocolViolation("join", name, "sponsor holds the lock (must be at a release boundary)")
		}
	}
	n.mu.Unlock()
	return n.sys.joinFrom(id, n.id)
}

// Leave departs the membership gracefully at the current release
// boundary: owned lock tokens (with this node's released copies, which
// are authoritative) move to successors, barrier management moves on, the
// departure is announced, and this proc terminates.  The caller must hold
// no locks.  Leave does not return; the node's id may rejoin later.
func (p *Proc) Leave() {
	n := p.node
	if n.sys.members == nil {
		panic("core: Leave requires elastic membership (Config.MaxNodes)")
	}
	n.mu.Lock()
	for _, lk := range n.locks {
		if lk.held {
			name := lk.obj.name
			n.mu.Unlock()
			n.protocolViolation("leave", name, "departing node holds the lock (must be at a release boundary)")
		}
	}
	n.mu.Unlock()
	n.sys.members.BeginDrain(n.id) // a direct Leave implies the drain request
	n.left = true                  // a store after this point is a protocol misuse
	n.sys.leaveNodeFrom(n.id, n.id)
	panic(errLeft)
}

// Draining reports whether a graceful departure has been requested for
// this node (System.DrainNode): the application should finish its current
// unit of work and call Leave at its next release boundary.
func (p *Proc) Draining() bool {
	mt := p.node.sys.members
	return mt != nil && mt.Status(p.node.id) == member.Draining
}

// Members returns the node ids currently in the membership (this node
// included).  Fixed-membership systems report every hosted node.
func (p *Proc) Members() []int { return p.node.sys.Members() }

// waitReply blocks for the protocol handler's grant or barrier release,
// aborting (with the sentinel Run recognizes) if the run fails while the
// application is parked — the message it is waiting for may never arrive.
func (n *Node) waitReply() reply {
	n.abortIfCrashed() // prefer the crash over a reply that raced in
	if e := n.sys.eng; e != nil {
		// Lockstep: park through the engine so the delivery phase can
		// start once every node has.  A wake can be stale — an application
		// scheduler's broadcast racing the node's transitions leaves a
		// pending token behind — so park again until the select below
		// genuinely cannot block.
		for {
			select {
			case r := <-n.replyCh:
				return r
			case <-n.sys.failCh:
				panic(errAborted)
			case <-n.crashCh:
				panic(errCrashed)
			default:
			}
			if !e.Block(n.id) {
				break // aborted: the blocking select sees failCh
			}
		}
	}
	select {
	case r := <-n.replyCh:
		return r
	case <-n.sys.failCh:
		panic(errAborted)
	case <-n.crashCh:
		panic(errCrashed)
	}
}

// acquire implements lock acquisition for both modes.
func (n *Node) acquire(id uint32, mode proto.Mode) {
	n.sys.abortIfFailed()
	n.abortIfCrashed()
	n.mu.Lock()
	lk := n.lockState(id)
	if lk.held {
		n.mu.Unlock()
		n.protocolViolation("acquire", lk.obj.name, "recursive acquire (already held)")
	}
	if lk.owner {
		// Fast path: we are the data authority; the local copy is fresh.
		lk.held = true
		lk.mode = mode
		if c := n.sys.census; c != nil && mode == proto.Exclusive {
			c.set(lk.id, n.id, true)
		}
		if rc := n.race; rc != nil {
			rc.NoteAcquire(lk.id, lk.obj.name, lk.binding)
		}
		if n.sys.cfg.Migrate {
			// The zero-message acquire is exactly what migration optimizes
			// for; it still feeds the census so dominance is measured over
			// all acquires, not only the brokered ones.
			n.countAcquire(lk, n.id)
		}
		n.mu.Unlock()
		if tr := n.sys.obs; tr != nil {
			tr.Emit(obs.Event{
				Kind: obs.EvAcquire, Cycles: n.cycles.Now(), Node: int32(n.id),
				Obj: int32(lk.id), Peer: -1, Name: lk.obj.name, Mode: obsMode(mode),
			})
		}
		return
	}
	req := &proto.LockAcquire{
		Lock:      id,
		Mode:      mode,
		Requester: uint32(n.id),
		BindGen:   lk.bindGen,
	}
	// The detector records the requester's consistency point (timestamp,
	// incarnation) in whichever fields its scheme uses.
	n.det.FillAcquire(lk, req)
	lk.inflight = req
	// The broker is the migrated home when this node has witnessed one,
	// else the static hashed manager (homeForLocked is exactly managerFor
	// until the first migration commit reaches this node).
	manager := n.homeForLocked(lk.obj)
	n.mu.Unlock()

	if tr := n.sys.obs; tr != nil {
		tr.Emit(obs.Event{
			Kind: obs.EvAcquire, Cycles: n.cycles.Now(), Node: int32(n.id),
			Obj: int32(id), Peer: int32(manager), Name: n.sys.objName(id),
			Mode: obsMode(mode), A: req.LastTime, B: int64(req.LastIncarnation),
		})
	}
	n.send(manager, proto.KindLockAcquire, req)
	r := n.waitReply()
	if r.grant == nil || r.grant.Lock != id {
		panic(fmt.Sprintf("core: node %d: unexpected reply while acquiring %d", n.id, id))
	}
	// State updates were performed by the protocol handler in applyGrant
	// before the reply was delivered, so forwards chasing the new owner
	// cannot observe a stale state.
}

// applyGrant runs on the protocol handler when a grant arrives, applying
// the updates and installing ownership before the waiting application is
// released.  The application was blocked for this message, so its clock
// joins the arrival time before the application costs are charged.
// It returns false, without applying anything, when the grant is a stale
// duplicate: either no request is outstanding (a crash-recovery re-drive
// was answered already) or the grant predates a recovery reclaim whose
// binding generation superseded it.  Fault-free runs never take either
// branch.
func (n *Node) applyGrant(g *proto.LockGrant, arrival uint64, from int) bool {
	n.mu.Lock()
	lk := n.lockState(g.Lock)
	if lk.inflight == nil || (lk.redriveGen != 0 && g.BindGen < lk.redriveGen) {
		n.mu.Unlock()
		return false
	}
	lk.inflight = nil
	lk.redriveGen = 0
	n.cycles.Join(arrival)
	// The grant's transfer time is a synchronization point: witness it
	// here, uniformly for every scheme.
	n.lamport.Witness(g.Time)
	if n.sys.obs != nil {
		n.obsAt = arrival // detector events during apply carry the arrival time
	}
	if rc := n.race; rc != nil {
		// Cross-check the incoming updates against locally pending lines
		// before ApplyLock consumes them and restamps the dirtybits.
		rc.CheckIncoming(lk.id, lk.obj.name, from, g.Updates, arrival, n.lamport.Now())
	}
	cycles := n.det.ApplyLock(lk, g)
	lk.bindGen = g.BindGen
	lk.binding = append([]memory.Range(nil), g.Binding...)
	lk.held = true
	lk.mode = g.Mode
	if rc := n.race; rc != nil {
		rc.NoteAcquire(lk.id, lk.obj.name, lk.binding)
	}
	if g.Mode == proto.Exclusive {
		lk.owner = true
		if c := n.sys.census; c != nil {
			c.set(lk.id, n.id, true)
		}
	}
	lk.rebound = false
	if t := g.Tail; t != nil && g.Mode == proto.Exclusive {
		n.applyTailLocked(lk, t, arrival)
	}
	if lk.pendingFence != 0 {
		// A join admission ran while this grant was in flight and parked
		// its full-data fence here; install it now, before any transfer
		// from this node can be served, so the joiner's first acquire
		// still ships full data.
		if lk.pendingFence > lk.bindGen {
			lk.bindGen = lk.pendingFence
			lk.rebound = true
			n.det.NotifyRebind(lk)
		}
		lk.pendingFence = 0
	}
	n.mu.Unlock()
	n.cycles.Charge(cycles)
	if tr := n.sys.obs; tr != nil {
		tr.Emit(obs.Event{
			Kind: obs.EvGrant, Cycles: arrival, Node: int32(n.id),
			Obj: int32(lk.id), Peer: -1, Name: lk.obj.name, Mode: obsMode(g.Mode),
			Full: g.Full, Bytes: uint64(proto.UpdateBytes(g.Updates)),
			A: int64(g.Incarnation), B: int64(len(g.History)),
		})
	}
	return true
}

// release implements lock release: local under the lazy protocol, plus
// servicing of any transfer requests that queued while the lock was held.
func (n *Node) release(id uint32) {
	n.mu.Lock()
	defer n.mu.Unlock()
	lk := n.lockState(id)
	if !lk.held {
		// The deferred unlock runs as the violation panic unwinds.
		// Distinguish the double release from the never-acquired case in
		// the diagnostic; both unwind with the same typed error.
		reason := "released without a matching acquire"
		if lk.released {
			reason = "double release (already released)"
		}
		n.protocolViolation("release", lk.obj.name, reason)
	}
	lk.held = false
	lk.released = true
	if c := n.sys.census; c != nil {
		c.set(lk.id, n.id, false)
	}
	if rc := n.race; rc != nil {
		rc.NoteRelease(lk.id)
	}
	lk.releaseCycles = n.cycles.Now()
	if tr := n.sys.obs; tr != nil {
		tr.Emit(obs.Event{
			Kind: obs.EvRelease, Cycles: lk.releaseCycles, Node: int32(n.id),
			Obj: int32(lk.id), Peer: -1, Name: lk.obj.name,
		})
	}
	for lk.owner && len(lk.waiting) > 0 {
		p := lk.waiting[0]
		lk.waiting = lk.waiting[1:]
		exclusive := p.req.Mode == proto.Exclusive
		n.transferLocked(lk, p.req, max(p.arrival, lk.releaseCycles))
		if exclusive {
			// Ownership moved; transferLocked re-forwarded the rest.
			break
		}
	}
	if n.sys.cfg.Migrate && lk.owner && !lk.held {
		// Release-boundary self-migration: the token stayed here and our
		// own share of the recent acquires crossed the threshold, so make
		// this node the lock's home — the steady-state acquire becomes a
		// purely local operation with zero protocol messages.
		if dom := n.dominantAcquirer(lk); dom == n.id {
			if home := n.homeForLocked(lk.obj); home != n.id {
				st := n.mgr[id]
				if st == nil {
					st = &mgrLock{}
					n.mgr[id] = st
				}
				st.owner = n.id
				n.commitHome(lk.obj, home, n.id, lk.acqCount[n.id], lk.acqTotal, lk.releaseCycles)
			}
		}
	}
}

// applyTailLocked processes an exclusive grant's migration tail: the
// travelling acquire census is installed, inherited waiters are queued
// ahead of any that raced here directly (they were waiting first), and a
// piggybacked home-migration proposal naming this node is committed.
// Caller holds n.mu.
func (n *Node) applyTailLocked(lk *lockState, t *proto.GrantTail, arrival uint64) {
	n.installCensus(lk, t.Counts)
	if len(t.Queue) > 0 {
		inherited := make([]*pendingReq, 0, len(t.Queue))
		for _, q := range t.Queue {
			if int(q.Requester) == n.id || n.sys.gone(int(q.Requester)) {
				continue
			}
			dup := false
			for _, p := range lk.waiting {
				if p.req.Requester == q.Requester {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			inherited = append(inherited, &pendingReq{
				req: &proto.LockAcquire{
					Lock:            lk.id,
					Mode:            q.Mode,
					Requester:       q.Requester,
					LastTime:        q.LastTime,
					LastIncarnation: q.LastIncarnation,
					BindGen:         q.BindGen,
				},
				arrival: q.Arrival,
			})
		}
		lk.waiting = append(inherited, lk.waiting...)
	}
	if t.NewHome == int32(n.id) {
		if home := n.homeForLocked(lk.obj); home != n.id {
			// Seed our manager state before publishing the new table, so
			// an acquire routed by it always finds a broker here.
			st := n.mgr[lk.id]
			if st == nil {
				st = &mgrLock{}
				n.mgr[lk.id] = st
			}
			st.owner = n.id
			n.commitHome(lk.obj, home, n.id, lk.acqCount[n.id], lk.acqTotal, arrival)
		}
	}
}

// barrier implements barrier crossing: collect local modifications, enter,
// wait for release, apply everyone else's updates.
func (n *Node) barrier(id uint32) {
	n.sys.abortIfFailed()
	n.abortIfCrashed()
	n.mu.Lock()
	b := n.barrierState(id)
	if n.sys.obs != nil {
		n.obsAt = n.cycles.Now() // detector events during collection
	}
	updates, cycles := n.det.CollectBarrier(b)
	epoch := b.epoch
	manager := n.sys.managerFor(b.obj)
	n.mu.Unlock()
	n.cycles.Charge(cycles)
	updateBytes := uint64(proto.UpdateBytes(updates))
	n.st.BytesTransferred.Add(updateBytes)
	if tr := n.sys.obs; tr != nil {
		tr.Emit(obs.Event{
			Kind: obs.EvBarrierEnter, Cycles: n.cycles.Now(), Node: int32(n.id),
			Obj: int32(id), Peer: -1, Name: b.obj.name,
			A: int64(epoch), Bytes: updateBytes,
		})
	}

	e := &proto.BarrierEnter{
		Barrier: id,
		Epoch:   epoch,
		Node:    uint32(n.id),
		Time:    n.lamport.Now(),
		Updates: updates,
	}
	// Retain the enter so crash recovery can synthesize a lost release on
	// our behalf (or re-drive this enter if it was lost in transit).
	n.mu.Lock()
	b.prevEnter = b.lastEnter
	b.lastEnter = e
	b.pending = true
	n.mu.Unlock()
	n.send(manager, proto.KindBarrierEnter, e)

	r := n.waitReply()
	rel := r.release
	if rel == nil || rel.Barrier != id || rel.Epoch != epoch {
		panic(fmt.Sprintf("core: node %d: unexpected reply at barrier %d", n.id, id))
	}
	n.cycles.Join(r.arrival)
	n.lamport.Witness(rel.Time)
	n.mu.Lock()
	if n.sys.obs != nil {
		n.obsAt = r.arrival // detector events during apply
	}
	cycles = n.det.ApplyBarrier(b, rel)
	b.epoch++
	n.mu.Unlock()
	n.cycles.Charge(cycles)
	n.st.BarrierCrossings.Add(1)
	if tr := n.sys.obs; tr != nil {
		tr.Emit(obs.Event{
			Kind: obs.EvBarrierResume, Cycles: r.arrival, Node: int32(n.id),
			Obj: int32(id), Peer: -1, Name: b.obj.name,
			A: int64(epoch), Bytes: uint64(proto.UpdateBytes(rel.Updates)),
		})
	}
	// ApplyBarrier copied the release's updates into memory and no
	// detector retains them; a pooled payload (lockstep deferred recycle)
	// goes back to the encoder pool now.
	proto.RecycleBytes(r.buf)
}
