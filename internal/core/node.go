package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"midway/internal/clock"
	"midway/internal/cost"
	"midway/internal/detect"
	"midway/internal/memory"
	"midway/internal/obs"
	"midway/internal/proto"
	"midway/internal/race"
	"midway/internal/stats"
	"midway/internal/transport"
	"midway/internal/vmem"
)

// lockState is one node's view of a lock.  It implements detect.LockView;
// detector-specific bookkeeping (timestamps, incarnation histories, twins)
// lives behind the opaque det slot.
type lockState struct {
	id  uint32
	obj *object
	// owner marks this node as the lock's data authority (the most recent
	// exclusive holder, or the initial owner).
	owner bool
	// held marks the lock as currently acquired by this node's
	// application.
	held bool
	mode proto.Mode
	// binding is the lock's current data binding (travels with the lock).
	binding []memory.Range
	// rebound marks the binding as changed since the last transfer; the
	// next transfer of a history-keeping scheme ships full data without
	// diffing.
	rebound bool
	// bindGen counts rebindings over the lock's lifetime; it travels with
	// grants so a releaser can tell that a requester's consistency record
	// describes an older binding and must be ignored.
	bindGen uint64
	// det is the write-detection scheme's per-lock state slot.
	det any

	// forwardedTo records where ownership went when this node granted the
	// lock away, so late-arriving forwards can chase the new owner.
	forwardedTo int
	// forwardedAt is the Lamport timestamp of the grant recorded in
	// forwardedTo.  The receiver witnesses each grant's timestamp before it
	// can re-grant, so these are strictly increasing along the true grant
	// chain; crash recovery uses the global max to locate the token.
	forwardedAt int64
	// inflight is this node's own outstanding acquire request, set when the
	// request is sent and cleared when its grant is applied.  A grant
	// arriving with no request in flight is a duplicate (possible only
	// after crash-recovery re-drives) and is dropped.
	inflight *proto.LockAcquire
	// redriveGen, when nonzero, is the binding generation of a
	// crash-recovery reclaim that superseded a possibly-lost grant to this
	// node: grants carrying an older generation are stale and dropped.
	redriveGen uint64
	// pendingFence, when nonzero, is a join-time full-data fence that
	// could not be applied immediately because this node's grant was still
	// in flight: applyGrant installs it (bindGen bump + rebind) right
	// after the grant lands, so the joiner's first transfer still ships
	// full data.  Fixed-membership runs never set it.
	pendingFence uint64
	// waiting queues transfer requests that arrived while the lock was
	// held.
	waiting []*pendingReq
	// acqCount/acqTotal are the migration policy's travelling acquire
	// census (Config.Migrate only): per-node counts of recent acquires,
	// halved whenever acqTotal reaches the migrate window so the
	// dominance signal tracks the current phase.  The census moves with
	// the token — an exclusive grant ships it in the tail and clears it
	// here.  Nil/zero when migration is off.
	acqCount []uint32
	acqTotal uint32
	// releaseCycles records the simulated time of the last local release,
	// so a grant performed later by the protocol handler is stamped with
	// the time the lock actually became free.
	releaseCycles uint64
	// released marks that this node's application has released the lock at
	// least once; it distinguishes a double release from a release without
	// any acquire in the misuse diagnostic (releaseCycles cannot — a
	// release at simulated time zero is legal).
	released bool
}

// detect.LockView implementation.

func (lk *lockState) Name() string            { return lk.obj.name }
func (lk *lockState) Binding() []memory.Range { return lk.binding }
func (lk *lockState) State() any              { return lk.det }
func (lk *lockState) SetState(s any)          { lk.det = s }
func (lk *lockState) Rebound() bool           { return lk.rebound }
func (lk *lockState) ClearRebound()           { lk.rebound = false }
func (lk *lockState) BindGen() uint64         { return lk.bindGen }

// pendingReq is a queued transfer request plus its simulated arrival time.
type pendingReq struct {
	req     *proto.LockAcquire
	arrival uint64
}

// mgrLock is the manager-side state of a lock: which node currently holds
// ownership (optimistically updated as transfers are brokered).
type mgrLock struct {
	owner int
}

// barrierState is one node's view of a barrier.  It implements
// detect.BarrierView; detector-specific bookkeeping lives behind det.
type barrierState struct {
	id      uint32
	obj     *object
	epoch   uint64
	binding []memory.Range
	// det is the write-detection scheme's per-barrier state slot.
	det any

	// lastEnter and prevEnter retain this node's two most recent enter
	// messages, and pending marks an enter whose release has not yet been
	// delivered.  Crash recovery uses them to synthesize the release a dead
	// manager failed to send (stragglers are at most one epoch behind, so
	// two retained enters suffice).
	lastEnter *proto.BarrierEnter
	prevEnter *proto.BarrierEnter
	pending   bool
	// nextRelease is the next epoch whose release should be handed to the
	// application; releases below it were superseded by a synthesized
	// recovery release and are dropped.
	nextRelease uint64
}

// detect.BarrierView implementation.

func (b *barrierState) Name() string            { return b.obj.name }
func (b *barrierState) Binding() []memory.Range { return b.binding }
func (b *barrierState) State() any              { return b.det }
func (b *barrierState) SetState(s any)          { b.det = s }
func (b *barrierState) Epoch() uint64           { return b.epoch }

// Parts returns the declared per-node write partition, and whether one was
// declared at all.
func (b *barrierState) Parts(node int) ([]memory.Range, bool) {
	if b.obj.parts == nil {
		return nil, false
	}
	if node >= len(b.obj.parts) {
		return nil, true
	}
	return b.obj.parts[node], true
}

// bmgrBarrier is the barrier manager's per-barrier state.
type bmgrBarrier struct {
	epoch   uint64
	entered []*proto.BarrierEnter
	// arrivals records the simulated arrival time of each enter message.
	arrivals []uint64
	// bufs holds pooled payload buffers backing the decoded enters
	// (lockstep deferred recycle); they return to the encoder pool when
	// the epoch completes.  Crash recovery drops them instead (the GC
	// reclaims them) because re-homed enters outlive this manager.
	bufs [][]byte
}

// reply carries a grant or barrier release from the protocol handler to
// the waiting application goroutine, together with the message's
// simulated arrival time.
type reply struct {
	grant   *proto.LockGrant
	release *proto.BarrierRelease
	arrival uint64
	// buf, when non-nil, is the pooled payload buffer backing release's
	// zero-copy views; the application recycles it after ApplyBarrier
	// (lockstep deferred recycle).
	buf []byte
}

// Node is one processor of the DSM system.
type Node struct {
	id   int
	sys  *System
	inst *memory.Instance
	conn transport.Conn
	// copier is conn's PayloadCopier view, nil when the transport retains
	// payload slices (in which case sends always use owned buffers).
	copier transport.PayloadCopier
	// compat forces owned-buffer encoding and copying decoders
	// (Config.CompatCodec).
	compat bool
	cost   cost.Model
	netp   cost.NetworkParams

	// vm is the page table for fault-based detection, created lazily on
	// the first detector request so page-oblivious schemes never pay for
	// one.
	vm     *vmem.Table
	vmOnce sync.Once
	// pages is the page table locked around every instrumented store
	// (beginStore), set when the scheme traps writes through page
	// protection; nil otherwise.
	pages *vmem.Table

	cycles  clock.Cycle
	lamport clock.Lamport
	st      stats.Node
	det     detect.Detector

	// race is this node's race-detector checker, nil when
	// Config.RaceDetect is off — the store and synchronization hot
	// paths pay exactly one nil check for it.
	race *race.Checker

	// left is set by Leave before the proc's goroutine unwinds, so a
	// store attempted afterwards (an application recovering the Leave
	// unwind and continuing) is flagged as a protocol misuse.  Written
	// by the node's own application goroutine (and by completeJoin,
	// which clears it before relaunching the proc for a rejoined
	// incarnation — ordered before the new goroutine's first read by
	// the launch itself), read only by the application goroutine.
	left bool

	// obsAt is the simulated timestamp detector-side trace events carry:
	// the protocol sets it (under mu) to the deterministic time of the
	// collection or apply in progress before calling into the detector.
	// Only maintained when tracing is enabled.
	obsAt uint64

	mu       sync.Mutex
	locks    map[uint32]*lockState
	mgr      map[uint32]*mgrLock
	barriers map[uint32]*barrierState
	bmgr     map[uint32]*bmgrBarrier

	// homes is this node's view of the dynamic lock-home directory
	// (Config.Migrate): entry [id] overrides the object's hashed home,
	// -1 meaning no override.  Each node's view changes only at its own
	// deterministic events — committing a migration or receiving the
	// HomeChange broadcast — so routing decisions replay exactly under
	// the lockstep engine.  homesStamp carries each entry's commit
	// cycles, so reordered broadcasts cannot roll a newer move back.
	// Both nil until this node first learns of a migration; under mu.
	homes      []int32
	homesStamp []uint64

	replyCh chan reply
	done    chan struct{}

	// ghost is set when this node is declared crashed in a degraded run:
	// the handler stops acting on messages (it only routes strays after
	// recovery completes, gated on unghosted) and the proc aborts at its
	// next synchronization point via crashCh.
	ghost     atomic.Bool
	crashCh   chan struct{}
	unghosted chan struct{}

	// joinedCh, when non-nil, is the channel a sponsor parked in
	// System.joinFrom is waiting on for this node's join handshake to
	// resolve; joinSponsor is that sponsor's id (for the lockstep wake)
	// and joinDoneAt the simulated completion time the sponsor's clock
	// joins on resume.  joinOK records whether the handshake committed,
	// captured at signal time: the sponsor may be scheduled so late that
	// the joiner has already drained or crashed again, so re-reading the
	// member table on wake would misreport a committed join as failed.
	// All under mu.
	joinedCh    chan struct{}
	joinSponsor int
	joinDoneAt  uint64
	joinOK      bool
}

func newNode(s *System, id int) *Node {
	inst := memory.NewInstance(s.layout)
	n := &Node{
		id:        id,
		sys:       s,
		inst:      inst,
		conn:      s.net.Conn(id),
		cost:      s.cfg.Cost,
		netp:      s.cfg.Network,
		locks:     make(map[uint32]*lockState),
		mgr:       make(map[uint32]*mgrLock),
		barriers:  make(map[uint32]*barrierState),
		bmgr:      make(map[uint32]*bmgrBarrier),
		replyCh:   make(chan reply, 1),
		done:      make(chan struct{}),
		crashCh:   make(chan struct{}),
		unghosted: make(chan struct{}),
	}
	n.compat = s.cfg.CompatCodec
	if !n.compat {
		n.copier, _ = n.conn.(transport.PayloadCopier)
	}
	det, err := detect.New(s.cfg.Scheme, engine{n: n}, detect.Options{
		EagerTimestamps:     s.cfg.EagerTimestamps,
		CombineIncarnations: s.cfg.CombineIncarnations,
	})
	if err != nil {
		// NewSystem validated the scheme name against the registry.
		panic(fmt.Sprintf("core: %v", err))
	}
	n.det = det
	if pt, ok := det.(detect.PageTrapper); ok {
		n.pages = pt.Pages()
	}
	return n
}

// vmTable returns the node's page table, creating it on first use.
func (n *Node) vmTable() *vmem.Table {
	n.vmOnce.Do(func() { n.vm = vmem.NewTable(n.inst) })
	return n.vm
}

// engine adapts a Node to the detect.Engine facade.
type engine struct{ n *Node }

func (e engine) NodeID() int            { return e.n.id }
func (e engine) Inst() *memory.Instance { return e.n.inst }
func (e engine) Layout() *memory.Layout { return e.n.sys.layout }
func (e engine) VM() *vmem.Table        { return e.n.vmTable() }
func (e engine) Stats() *stats.Node     { return &e.n.st }
func (e engine) Cost() cost.Model       { return e.n.cost }
func (e engine) Charge(c cost.Cycles)   { e.n.cycles.Charge(c) }
func (e engine) Tick() int64            { return e.n.lamport.Tick() }
func (e engine) Now() int64             { return e.n.lamport.Now() }

// Trace returns the system tracer (nil when tracing is disabled);
// TraceAt the deterministic timestamp for events emitted from inside a
// collection or apply; CycleNow the node's live cycle clock (for events
// on the application's trap path).
func (e engine) Trace() *obs.Tracer { return e.n.sys.obs }
func (e engine) TraceAt() uint64    { return e.n.obsAt }
func (e engine) CycleNow() uint64   { return e.n.cycles.Now() }

func (e engine) PristineBound(binding []memory.Range) []byte {
	return e.n.sys.pristineBound(binding)
}

// ForEachObject visits every synchronization object's view at this node.
// Caller holds n.mu (true inside collection entry points).
func (e engine) ForEachObject(fn func(detect.ObjectView)) {
	for _, obj := range e.n.sys.objectsSnapshot() {
		switch obj.kind {
		case ObjLock:
			fn(e.n.lockState(obj.id))
		case ObjBarrier:
			fn(e.n.barrierState(obj.id))
		}
	}
}

// ID returns the node's processor number.
func (n *Node) ID() int { return n.id }

// Cycles returns the node's current simulated time.
func (n *Node) Cycles() uint64 { return n.cycles.Now() }

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() stats.Snapshot { return n.st.Snapshot() }

// start launches the protocol handler.
func (n *Node) start() {
	go n.handlerLoop()
}

// stop shuts the protocol handler down.
func (n *Node) stop() {
	// A self-addressed shutdown unblocks the handler even on transports
	// that do not support Close-driven unblocking.
	_ = n.conn.Send(transport.Message{From: n.id, To: n.id, Kind: proto.KindShutdown})
	<-n.done
	n.conn.Close()
}

// send transmits a protocol message, stamping it with the node's simulated
// clock and charging the statistics counters.  A transport failure fails
// the run with a diagnostic instead of panicking.
func (n *Node) send(to int, kind proto.Kind, w proto.Wire) {
	n.sendAt(to, kind, w, n.cycles.Now())
}

// sendAt is send with an explicit simulated timestamp, used when the
// logical send time differs from the node's current clock (e.g. a grant
// performed by the protocol handler for a lock that was released earlier).
// When the transport copies payloads out before Send returns, the message
// is encoded into a pooled buffer that is recycled immediately;
// otherwise (channel delivery, self-sends, CompatCodec) it gets an owned
// exactly-sized buffer.  The wire bytes are identical either way.
func (n *Node) sendAt(to int, kind proto.Kind, w proto.Wire, at uint64) {
	if ps := n.sys.part; ps != nil {
		// The deterministic partition's fence/heal transitions are
		// triggered by the first send whose timestamp crosses them.
		ps.noteSend(n.sys, at)
	}
	m := transport.Message{From: n.id, To: to, Kind: kind, Time: at}
	if mt := n.sys.members; mt != nil {
		// Membership epoch fence: every envelope carries the sender's view
		// of the current epoch (zero for fixed-membership runs, keeping
		// their wire bytes identical).
		m.Epoch = uint16(mt.Epoch())
	}
	var enc *proto.Encoder
	switch {
	case n.copier != nil && n.copier.CopiesPayload(to):
		enc = proto.GetEncoder()
		w.EncodeInto(enc)
		m.Payload = enc.Bytes()
	case n.sys.eng != nil && !n.compat &&
		(kind == proto.KindBarrierEnter || kind == proto.KindBarrierRelease):
		// Lockstep deferred recycle: the stepped queue retains the
		// payload, so it cannot be released here, but barrier payloads
		// have a single well-defined consumption point (the manager's
		// completion for enters, ApplyBarrier for releases) after which
		// the receiver returns the buffer to the pool via RecycleBytes.
		// Grants are excluded: VM-family receivers retain decoded
		// history views indefinitely.
		p := proto.GetEncoder()
		w.EncodeInto(p)
		m.Payload = p.Bytes()
	default:
		m.Payload = proto.Encode(w)
	}
	if to != n.id {
		n.st.Messages.Add(1)
		n.st.MessageBytes.Add(uint64(m.Size()))
	}
	err := n.conn.Send(m)
	if enc != nil {
		enc.Release()
	}
	if err != nil && !n.sys.isCrashed(n.id) && !n.sys.isCrashed(to) {
		n.sys.fail(fmt.Errorf("core: node %d: send %v to peer %d: %w", n.id, kind, to, err))
	}
}

// arrivalTime computes the simulated arrival time of a message.  It does
// NOT advance the node's cycle clock: protocol work performed by the
// runtime thread on behalf of other processors must not inflate the local
// application's time.  The clock joins an arrival only when the
// application itself blocks for the message (grants and barrier
// releases).
func (n *Node) arrivalTime(m transport.Message) uint64 {
	t := m.Time
	if m.From != m.To {
		transit := n.netp.MessageCycles(m.Size())
		if ps := n.sys.part; ps != nil {
			// A cross-cut message under the fence policy is held at the
			// cut and arrives one transit after the heal; in simulated
			// time the minority stalls until then.
			if at, ok := ps.delayedArrival(m.From, m.To, m.Time, transit); ok {
				return at
			}
		}
		t += transit
	}
	return t
}

// deliverReply hands a grant or barrier release to the waiting application
// goroutine, bailing out if the run has failed (the application side may
// already have aborted and will never drain replyCh).  Under the lockstep
// engine the waiter is parked in Engine.Block and must additionally be
// marked runnable.
func (n *Node) deliverReply(r reply) {
	select {
	case n.replyCh <- r:
		if e := n.sys.eng; e != nil {
			e.Wake(n.id)
		}
	case <-n.sys.failCh:
	}
}

// handlerLoop is the node's protocol-handler goroutine: the analogue of
// the Midway runtime thread that services paging and lock requests while
// the application computes.  Undecodable or unexpected messages and
// transport breaks fail the run with a diagnostic naming the node, the
// message kind and the peer, instead of panicking.
func (n *Node) handlerLoop() {
	defer close(n.done)
	for {
		m, err := n.conn.Recv()
		if err != nil {
			if !errors.Is(err, transport.ErrClosed) {
				n.sys.fail(fmt.Errorf("core: node %d: receive: %w", n.id, err))
			}
			return
		}
		arrival := n.arrivalTime(m)
		if n.ghost.Load() {
			// This node crashed (or gracefully departed) in a degraded run.
			// Wait for recovery to finish fixing the survivors' routing
			// state, then bounce routing messages toward their new
			// destinations and drop everything else.  Shutdown still
			// terminates the handler.  Re-check the flag after the gate: a
			// departed node that rejoined was un-ghosted (the channel stays
			// closed) and resumes normal dispatch.
			if m.Kind == proto.KindShutdown {
				return
			}
			<-n.unghosted
			if n.ghost.Load() {
				n.ghostRoute(m, arrival)
				continue
			}
		}
		if !n.dispatch(m, arrival) {
			return
		}
	}
}

// dispatch runs the protocol handler for one delivered message.  It is
// the body shared by the goroutine engine (handlerLoop calls it from the
// per-node handler goroutine) and the lockstep engine (the delivery phase
// calls it synchronously on the engine goroutine).  The return value is
// false when the handler must stop: a shutdown message or a protocol
// failure that already failed the run.
func (n *Node) dispatch(m transport.Message, arrival uint64) bool {
	if mt := n.sys.members; mt != nil && m.From != n.id &&
		uint64(m.Epoch) < mt.Epoch() && mt.Gone(m.From) {
		// Stale-epoch rejection: a request stamped before its sender's
		// departure committed.  The sender's tokens and barrier slots were
		// already handed off or reclaimed, so serving the request would
		// resurrect a former member.  Only requests are fenced — a grant or
		// release sent moments before a graceful leave still carries valid
		// released data and must be delivered.  Lock forwards and barrier
		// enters can be RELAYED by a node that departs while the message
		// is in flight: the fence keys on the semantic originator inside
		// the payload, not the relaying hop, so a live requester's chase
		// is never dropped with its forwarder.
		switch m.Kind {
		case proto.KindLockAcquire, proto.KindLockForward:
			if req, err := proto.DecodeLockAcquire(m.Payload); err != nil || mt.Gone(int(req.Requester)) {
				return true
			}
		case proto.KindBarrierEnter:
			if e, err := n.decodeEnter(m.Payload); err != nil || mt.Gone(int(e.Node)) {
				if buf := n.recyclable(m.Payload); buf != nil {
					proto.RecycleBytes(buf)
				}
				return true
			}
		}
	}
	switch m.Kind {
	case proto.KindShutdown:
		return false
	case proto.KindLockAcquire:
		req, err := proto.DecodeLockAcquire(m.Payload)
		if err != nil {
			n.failDecode(m, err)
			return false
		}
		n.managerAcquire(req, arrival)
	case proto.KindLockForward:
		req, err := proto.DecodeLockAcquire(m.Payload)
		if err != nil {
			n.failDecode(m, err)
			return false
		}
		n.ownerForward(req, arrival)
	case proto.KindLockGrant:
		g, err := n.decodeGrant(m.Payload)
		if err != nil {
			n.failDecode(m, err)
			return false
		}
		// Apply before releasing the waiting application, so a
		// forward chasing the new owner never observes stale state.
		// A false return means the grant was a stale duplicate
		// (possible only after crash-recovery re-drives) and was
		// dropped without waking the application.
		if n.applyGrant(g, arrival, m.From) {
			n.deliverReply(reply{grant: g, arrival: arrival})
		}
	case proto.KindBarrierEnter:
		e, err := n.decodeEnter(m.Payload)
		if err != nil {
			n.failDecode(m, err)
			return false
		}
		n.managerBarrierEnter(e, arrival, n.recyclable(m.Payload))
	case proto.KindBarrierRelease:
		r, err := n.decodeRelease(m.Payload)
		if err != nil {
			n.failDecode(m, err)
			return false
		}
		n.mu.Lock()
		b := n.barrierState(r.Barrier)
		if r.Epoch < b.nextRelease {
			// Superseded by a release crash recovery synthesized for
			// this epoch; delivering it again would desynchronize the
			// application's epoch counter.
			n.mu.Unlock()
			return true
		}
		b.nextRelease = r.Epoch + 1
		b.pending = false
		n.mu.Unlock()
		n.deliverReply(reply{release: r, arrival: arrival, buf: n.recyclable(m.Payload)})
	case proto.KindJoinRequest:
		req, err := proto.DecodeJoinRequest(m.Payload)
		if err != nil {
			n.failDecode(m, err)
			return false
		}
		n.sponsorAdmit(req, arrival)
	case proto.KindJoinAccept:
		acc, err := proto.DecodeJoinAccept(m.Payload)
		if err != nil {
			n.failDecode(m, err)
			return false
		}
		n.completeJoin(acc, arrival)
	case proto.KindMembershipChange:
		mc, err := proto.DecodeMembershipChange(m.Payload)
		if err != nil {
			n.failDecode(m, err)
			return false
		}
		n.noteMembership(mc, arrival)
	case proto.KindHomeChange:
		hc, err := proto.DecodeHomeChange(m.Payload)
		if err != nil {
			n.failDecode(m, err)
			return false
		}
		n.noteHomeChange(hc, arrival)
	default:
		n.sys.fail(fmt.Errorf("core: node %d: unexpected message kind %v from peer %d",
			n.id, m.Kind, m.From))
		return false
	}
	return true
}

// recyclable returns the payload buffer when it came from the encoder
// pool and may be recycled after the decoded views die — true only under
// the lockstep engine's deferred-recycle contract (sendAt pools barrier
// payloads there) with the zero-copy codec.  Nil means the buffer is
// owned by the GC.
func (n *Node) recyclable(payload []byte) []byte {
	if n.sys.eng != nil && !n.compat {
		return payload
	}
	return nil
}

// decodeGrant, decodeEnter and decodeRelease pick between the zero-copy
// view decoders (safe because every transport delivers each frame in a
// fresh GC-owned buffer that is never written again) and the copying ones
// (Config.CompatCodec).
func (n *Node) decodeGrant(buf []byte) (*proto.LockGrant, error) {
	if n.compat {
		return proto.DecodeLockGrantCopy(buf)
	}
	return proto.DecodeLockGrant(buf)
}

func (n *Node) decodeEnter(buf []byte) (*proto.BarrierEnter, error) {
	if n.compat {
		return proto.DecodeBarrierEnterCopy(buf)
	}
	return proto.DecodeBarrierEnter(buf)
}

func (n *Node) decodeRelease(buf []byte) (*proto.BarrierRelease, error) {
	if n.compat {
		return proto.DecodeBarrierReleaseCopy(buf)
	}
	return proto.DecodeBarrierRelease(buf)
}

// failDecode fails the run over an undecodable protocol message.
func (n *Node) failDecode(m transport.Message, err error) {
	n.sys.fail(fmt.Errorf("core: node %d: decode %v from peer %d: %w", n.id, m.Kind, m.From, err))
}

// lockState returns (creating on first touch) the node's state for a lock.
// Caller holds n.mu.
func (n *Node) lockState(id uint32) *lockState {
	lk := n.locks[id]
	if lk == nil {
		obj := n.sys.objectByID(id)
		if obj.kind != ObjLock {
			panic(fmt.Sprintf("core: object %d (%s) is not a lock", id, obj.name))
		}
		lk = &lockState{
			id:          id,
			obj:         obj,
			owner:       n.id == obj.manager,
			binding:     append([]memory.Range(nil), obj.binding...),
			forwardedTo: -1,
		}
		n.locks[id] = lk
	}
	return lk
}

// barrierState returns (creating on first touch) the node's state for a
// barrier.  Caller holds n.mu.
func (n *Node) barrierState(id uint32) *barrierState {
	b := n.barriers[id]
	if b == nil {
		obj := n.sys.objectByID(id)
		if obj.kind != ObjBarrier {
			panic(fmt.Sprintf("core: object %d (%s) is not a barrier", id, obj.name))
		}
		b = &barrierState{
			id:      id,
			obj:     obj,
			binding: append([]memory.Range(nil), obj.binding...),
		}
		n.barriers[id] = b
	}
	return b
}

// managerAcquire runs on the lock's manager: it brokers the transfer by
// forwarding the request to the current owner.
func (n *Node) managerAcquire(req *proto.LockAcquire, arrival uint64) {
	if n.sys.gone(int(req.Requester)) {
		return // a corpse (or departed member) must never be granted the token
	}
	obj := n.sys.objectByID(req.Lock)
	n.mu.Lock()
	st := n.mgr[req.Lock]
	if st == nil {
		st = &mgrLock{owner: obj.manager}
		n.mgr[req.Lock] = st
	}
	owner := st.owner
	if req.Mode == proto.Exclusive {
		// Optimistic ownership transfer: the grant is guaranteed to
		// reach the requester, so future requests route to it.
		st.owner = int(req.Requester)
	}
	n.mu.Unlock()

	if owner == n.id {
		// The manager itself owns the lock: handle the forward locally.
		n.ownerForward(req, arrival)
		return
	}
	n.sendAt(owner, proto.KindLockForward, req, arrival)
}

// ownerForward runs on the lock's owner: transfer now if the lock is free,
// or queue the request until release.
func (n *Node) ownerForward(req *proto.LockAcquire, arrival uint64) {
	if n.sys.gone(int(req.Requester)) {
		return // a corpse (or departed member) must never be granted the token
	}
	n.mu.Lock()
	lk := n.lockState(req.Lock)
	if n.sys.anyCrashed() {
		// Crash-recovery re-drives can duplicate a request that survived
		// in transit.  A node's own request arriving back at itself while
		// it holds the lock, or owns it with no acquire outstanding, or a
		// requester already queued here, is such a duplicate: drop it.
		// An owner with its own request still in flight is different:
		// reclamation made a parked waiter the owner, and the re-drive is
		// the only thing that will wake it — fall through and self-grant.
		if int(req.Requester) == n.id && (lk.held || (lk.owner && lk.inflight == nil)) {
			n.mu.Unlock()
			return
		}
		for _, p := range lk.waiting {
			if p.req.Requester == req.Requester {
				n.mu.Unlock()
				return
			}
		}
	}
	if !lk.owner {
		if lk.forwardedTo >= 0 {
			// Ownership moved on before this forward arrived: re-forward
			// to wherever we sent it.  The manager's optimistic update
			// makes this a rare, bounded chase.
			next := lk.forwardedTo
			n.mu.Unlock()
			n.sendAt(next, proto.KindLockForward, req, arrival)
			return
		}
		// Our own grant is still in flight (the manager routed this
		// request to us optimistically): queue until we hold the lock.
		lk.waiting = append(lk.waiting, &pendingReq{req: req, arrival: arrival})
		n.mu.Unlock()
		n.emitContend(lk, req, arrival)
		return
	}
	if lk.held && !(lk.mode == proto.Shared && req.Mode == proto.Shared) {
		lk.waiting = append(lk.waiting, &pendingReq{req: req, arrival: arrival})
		n.mu.Unlock()
		n.emitContend(lk, req, arrival)
		return
	}
	// The lock is free (or shared-compatible): the logical grant time is
	// when the request arrived or the lock was released, whichever is
	// later.
	at := max(arrival, lk.releaseCycles)
	n.transferLocked(lk, req, at)
	n.mu.Unlock()
}

// emitContend traces a transfer request queueing at a busy holder.
func (n *Node) emitContend(lk *lockState, req *proto.LockAcquire, arrival uint64) {
	if tr := n.sys.obs; tr != nil {
		tr.Emit(obs.Event{
			Kind: obs.EvContend, Cycles: arrival, Node: int32(n.id),
			Obj: int32(lk.id), Peer: int32(req.Requester), Name: lk.obj.name,
			Mode: obsMode(req.Mode),
		})
	}
}

// transferLocked collects updates and sends a grant to the requester.
// Caller holds n.mu.  at is the simulated time the transfer begins.
func (n *Node) transferLocked(lk *lockState, req *proto.LockAcquire, at uint64) {
	exclusive := req.Mode == proto.Exclusive
	if n.sys.obs != nil {
		n.obsAt = at // detector events during collection
	}
	grant, cycles := n.det.CollectLock(lk, req, exclusive)
	grant.Lock = lk.id
	grant.Mode = req.Mode
	grant.BindGen = lk.bindGen
	grant.Binding = append([]memory.Range(nil), lk.binding...)
	n.cycles.Charge(cycles) // the runtime thread steals this time locally
	n.st.LockTransfers.Add(1)

	if n.sys.cfg.Migrate {
		n.countAcquire(lk, int(req.Requester))
	}
	if exclusive {
		lk.owner = false
		lk.forwardedTo = int(req.Requester)
		lk.forwardedAt = grant.Time
		if n.sys.cfg.Migrate {
			// The acquire census travels with the token, a migration
			// proposal rides along when the requester's share crossed the
			// threshold, and the remaining waiter queue is forwarded with
			// the grant instead of re-driven as per-waiter chases: the new
			// owner serves the queue directly, turning each contended
			// handoff from a manager bounce into a single message.
			tail := &proto.GrantTail{Version: proto.GrantTailVersion, NewHome: -1}
			if dom := n.dominantAcquirer(lk); dom == int(req.Requester) &&
				dom != n.homeForLocked(lk.obj) && n.sys.homeLive(dom) {
				tail.NewHome = int32(dom)
			}
			tail.Counts = censusTail(lk)
			lk.acqCount, lk.acqTotal = nil, 0
			if len(lk.waiting) > 0 {
				pending := lk.waiting
				lk.waiting = nil
				for _, p := range pending {
					tail.Queue = append(tail.Queue, proto.QueuedWaiter{
						Requester:       p.req.Requester,
						Mode:            p.req.Mode,
						LastTime:        p.req.LastTime,
						LastIncarnation: p.req.LastIncarnation,
						BindGen:         p.req.BindGen,
						Arrival:         p.arrival,
					})
				}
				if tr := n.sys.obs; tr != nil {
					tr.Emit(obs.Event{
						Kind: obs.EvTokenForward, Cycles: at, Node: int32(n.id),
						Obj: int32(lk.id), Peer: int32(req.Requester), Name: lk.obj.name,
						A: int64(len(tail.Queue)),
					})
				}
			}
			grant.Tail = tail
		} else if len(lk.waiting) > 0 {
			// Remaining queued requests chase the new owner.
			pending := lk.waiting
			lk.waiting = nil
			for _, p := range pending {
				n.sendAt(int(req.Requester), proto.KindLockForward, p.req, max(at, p.arrival))
			}
		}
	}
	sent := uint64(proto.UpdateBytes(grant.Updates))
	for _, h := range grant.History {
		sent += uint64(proto.UpdateBytes(h.Updates))
	}
	n.st.BytesTransferred.Add(sent)
	if tr := n.sys.obs; tr != nil {
		tr.Emit(obs.Event{
			Kind: obs.EvTransfer, Cycles: at + cycles, Node: int32(n.id),
			Obj: int32(lk.id), Peer: int32(req.Requester), Name: lk.obj.name,
			Mode: obsMode(req.Mode), Full: grant.Full, Bytes: sent,
			A: int64(grant.Incarnation),
		})
	}
	n.sendAt(int(req.Requester), proto.KindLockGrant, grant, at+cycles)
}

// managerBarrierEnter runs on the barrier's manager.  buf, when non-nil,
// is the pooled payload buffer backing e's decoded views, recycled at
// epoch completion (lockstep deferred recycle); recovery re-drives pass
// nil because their enters are sender-owned.
func (n *Node) managerBarrierEnter(e *proto.BarrierEnter, arrival uint64, buf []byte) {
	if n.sys.gone(int(e.Node)) {
		return // release-boundary rollback discards a corpse's enter
	}
	obj := n.sys.objectByID(e.Barrier)
	n.mu.Lock()
	st := n.bmgr[e.Barrier]
	if st == nil {
		if mt := n.sys.members; mt != nil {
			if mgr := n.sys.managerFor(obj); mgr != n.id {
				// A membership change moved the manager role (and its
				// epoch state, which travels with it) after this enter was
				// addressed: chase the new manager.  Only a node holding
				// no bmgr state can be stale — role and state move
				// together under the all-mutex freeze.
				n.mu.Unlock()
				n.sendAt(mgr, proto.KindBarrierEnter, e, arrival)
				if buf != nil {
					proto.RecycleBytes(buf)
				}
				return
			}
		}
		st = &bmgrBarrier{}
		n.bmgr[e.Barrier] = st
	}
	if e.Epoch != st.epoch {
		if n.sys.anyCrashed() && e.Epoch < st.epoch {
			// A straggler from before a crash: recovery already completed
			// this epoch on the sender's behalf.
			n.mu.Unlock()
			return
		}
		n.mu.Unlock()
		n.sys.fail(fmt.Errorf("core: node %d: barrier %d epoch mismatch from peer %d: got %d want %d",
			n.id, e.Barrier, e.Node, e.Epoch, st.epoch))
		return
	}
	if n.sys.anyCrashed() {
		for _, prev := range st.entered {
			if prev.Node == e.Node {
				n.mu.Unlock()
				return // recovery re-drove an enter that had arrived after all
			}
		}
	}
	st.entered = append(st.entered, e)
	st.arrivals = append(st.arrivals, arrival)
	if buf != nil {
		st.bufs = append(st.bufs, buf)
	}
	if len(st.entered) < n.barrierNeeded(obj, st.entered) {
		n.mu.Unlock()
		return
	}
	n.completeBarrierLocked(obj, st)
}

// barrierNeeded returns how many enters complete the barrier's current
// epoch.  Fault-free this is the static party count; after a crash, an
// all-nodes barrier no longer waits for dead nodes (unless a pre-crash
// enter from one is already recorded, in which case its data is merged for
// the survivors and only its release is skipped).  Under elastic
// membership an all-nodes barrier rendezvouses the *current* membership:
// joiners are counted from their commit epoch onward, and departed or
// dead nodes leave the count (again keeping a recorded enter's data).
func (n *Node) barrierNeeded(obj *object, entered []*proto.BarrierEnter) int {
	need := obj.parties
	if obj.parties != n.sys.cfg.Nodes {
		return need
	}
	if mt := n.sys.members; mt != nil {
		need = mt.Count()
		for _, e := range entered {
			if mt.Gone(int(e.Node)) {
				need++ // a corpse's pre-crash enter still occupies a slot
			}
		}
		return need
	}
	snap := n.sys.crashSnap.Load()
	if snap == nil {
		return need
	}
	for dead, isDead := range *snap {
		if !isDead {
			continue
		}
		present := false
		for _, e := range entered {
			if int(e.Node) == dead {
				present = true
				break
			}
		}
		if !present {
			need--
		}
	}
	return need
}

// maybeCompleteBarrier re-checks a barrier for completion after crash
// recovery shrank its membership.
func (n *Node) maybeCompleteBarrier(obj *object) {
	n.mu.Lock()
	st := n.bmgr[obj.id]
	if st == nil || len(st.entered) == 0 || len(st.entered) < n.barrierNeeded(obj, st.entered) {
		n.mu.Unlock()
		return
	}
	n.completeBarrierLocked(obj, st)
}

// completeBarrierLocked merges the epoch's enters and sends the releases.
// Caller holds n.mu, which is released before the sends.
func (n *Node) completeBarrierLocked(obj *object, st *bmgrBarrier) {
	entered := st.entered
	arrivals := st.arrivals
	bufs := st.bufs
	epoch := st.epoch
	st.entered = nil
	st.arrivals = nil
	st.bufs = nil
	st.epoch++
	n.mu.Unlock()

	releaseAt := uint64(0)
	var newTime int64
	for i, ent := range entered {
		if arrivals[i] > releaseAt {
			releaseAt = arrivals[i]
		}
		newTime = n.lamport.Witness(ent.Time)
	}
	if rc := n.race; rc != nil {
		// Two parties shipping overlapping byte ranges into the same
		// epoch's merge wrote the same data with no order between them.
		rc.CheckMerge(obj.id, obj.name, entered, releaseAt)
	}
	for _, ent := range entered {
		if n.sys.gone(int(ent.Node)) {
			continue // its data was merged above; the corpse gets no release
		}
		var merged []proto.Update
		for _, other := range entered {
			if other.Node == ent.Node {
				continue
			}
			merged = append(merged, other.Updates...)
		}
		rel := &proto.BarrierRelease{
			Barrier: obj.id,
			Epoch:   epoch,
			Time:    newTime,
			Updates: merged,
		}
		if int(ent.Node) != n.id {
			n.st.BytesTransferred.Add(uint64(proto.UpdateBytes(merged)))
		}
		n.sendAt(int(ent.Node), proto.KindBarrierRelease, rel, releaseAt)
	}
	// Every release is encoded (copying the merged views out), so the
	// enters' pooled payload buffers are dead now.
	for _, b := range bufs {
		proto.RecycleBytes(b)
	}
}

// abortIfCrashed terminates the calling proc if its node has been declared
// dead (by System.KillNode or the failure detector).
func (n *Node) abortIfCrashed() {
	select {
	case <-n.crashCh:
		panic(errCrashed)
	default:
	}
}
