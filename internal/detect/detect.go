// Package detect defines Midway's pluggable write-detection layer.
//
// A Detector is one write-detection scheme: it traps instrumented stores on
// the application path and collects/applies updates at synchronization
// points.  The consistency protocol itself (ownership transfer, forwarding,
// barrier management) lives in internal/core; a detector sees only the
// narrow Engine facade plus per-object views whose detector-specific
// bookkeeping is an opaque state slot.
//
// Schemes register themselves by name; core resolves the configured scheme
// through New.  The built-in schemes are:
//
//	rt        dirtybit Lamport timestamps (the paper's contribution)
//	vm        page twins, diffs and incarnation histories (Sections 3.3-3.4)
//	blast     no detection: ship all bound data (Section 3.5)
//	twindiff  no detection: twin and diff all bound data (Section 3.5)
//	none      no detection or collection (standalone baseline)
//	hybrid    per-region dispatch between the rt and vm mechanisms
package detect

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"midway/internal/cost"
	"midway/internal/memory"
	"midway/internal/obs"
	"midway/internal/proto"
	"midway/internal/stats"
	"midway/internal/vmem"
)

// Options carries the detector-relevant configuration switches.
type Options struct {
	// EagerTimestamps selects the eager dirtybit scheme: every store
	// records the current Lamport time instead of the cheap pending marker.
	EagerTimestamps bool
	// CombineIncarnations enables the §3.4 alternative: a releaser merges
	// several incarnations' updates before replying.
	CombineIncarnations bool
}

// ObjectView is a detector's view of one synchronization object at one
// node: its identity, current binding, and an opaque slot for the
// detector's own per-object state.
type ObjectView interface {
	// Name returns the object's diagnostic name.
	Name() string
	// Binding returns the object's current data binding.  The slice must
	// not be modified.
	Binding() []memory.Range
	// State returns the detector state stored with SetState, or nil.
	State() any
	// SetState stores detector-private per-object state.
	SetState(s any)
}

// LockView is a detector's view of a lock.
type LockView interface {
	ObjectView
	// Rebound reports whether the binding changed since the last transfer.
	Rebound() bool
	// ClearRebound acknowledges a rebinding once the detector has handled
	// it (typically by shipping full data).
	ClearRebound()
	// BindGen returns the lock's rebinding generation counter.
	BindGen() uint64
}

// BarrierView is a detector's view of a barrier.
type BarrierView interface {
	ObjectView
	// Epoch returns the barrier's current episode number.
	Epoch() uint64
	// Parts returns the declared write partition for the given node and
	// whether any partition was declared at all (only the blast scheme
	// requires one).
	Parts(node int) ([]memory.Range, bool)
}

// Engine is the narrow facade through which a detector reaches its node's
// runtime: instrumented memory, statistics counters, cost model, clocks.
// Collection and application entry points run under the node's mutex; the
// same discipline extends to ForEachObject's callbacks.
type Engine interface {
	// NodeID returns the hosting node's processor number.
	NodeID() int
	// Inst returns the node's local memory instance (data and dirtybits).
	Inst() *memory.Instance
	// Layout returns the shared address-space layout.
	Layout() *memory.Layout
	// VM returns the node's page table for fault-based detection, creating
	// it on first use.
	VM() *vmem.Table
	// Stats returns the node's statistics counters.
	Stats() *stats.Node
	// Cost returns the primitive-operation cost model.
	Cost() cost.Model
	// Charge adds cycles to the node's simulated clock (the trap path
	// charges time directly; collection returns cycles to the caller).
	Charge(c cost.Cycles)
	// Tick advances the node's Lamport clock and returns the new time.
	Tick() int64
	// Now returns the Lamport clock without advancing it.
	Now() int64
	// PristineBound reconstructs the pre-run contents of the bound ranges
	// (zeros overlaid with presets) as a contiguous buffer.
	PristineBound(binding []memory.Range) []byte
	// Trace returns the system tracer, or nil when tracing is disabled.
	// Emission sites must nil-check before building an event (the
	// zero-cost-when-disabled contract).
	Trace() *obs.Tracer
	// TraceAt returns the deterministic simulated timestamp for events
	// emitted from inside a collection or apply entry point (the protocol
	// sets it before calling in).  Meaningless when Trace() is nil.
	TraceAt() uint64
	// CycleNow returns the node's live cycle clock, for events emitted on
	// the application's trap path.
	CycleNow() uint64
	// ForEachObject visits every synchronization object's view at this
	// node, creating per-object state on first touch.  Caller must already
	// hold the node's mutex (true inside collection entry points).
	ForEachObject(fn func(ObjectView))
}

// Detector is one write-detection scheme, instantiated per node.
// Implementations charge primitive-operation costs and update the node's
// counters; returned cycle figures time-stamp the resulting protocol
// messages.
type Detector interface {
	// TrapWrite runs after every instrumented store of size bytes at a
	// within region r.  It is called from the application goroutine
	// without the node's mutex.
	TrapWrite(a memory.Addr, size uint32, r *memory.Region)

	// FillAcquire records the requester's consistency point (timestamp,
	// incarnation) in an outgoing acquire request.
	FillAcquire(lk LockView, req *proto.LockAcquire)

	// CollectLock gathers the updates a requester needs, given the
	// requester's last consistency point, and advances the lock's local
	// bookkeeping.  exclusive reports whether ownership transfers.
	CollectLock(lk LockView, req *proto.LockAcquire, exclusive bool) (*proto.LockGrant, cost.Cycles)

	// ApplyLock incorporates a received grant at the requesting node.
	ApplyLock(lk LockView, g *proto.LockGrant) cost.Cycles

	// CollectBarrier gathers this node's modifications to the barrier's
	// bound data since the last episode.
	CollectBarrier(b BarrierView) ([]proto.Update, cost.Cycles)

	// ApplyBarrier incorporates the merged updates from other nodes.
	ApplyBarrier(b BarrierView, rel *proto.BarrierRelease) cost.Cycles

	// NotifyRebind runs when the application rebinds a lock it holds, so
	// schemes with binding-shaped bookkeeping (twins) can invalidate it.
	NotifyRebind(lk LockView)
}

// BatchTrapper is an optional Detector extension for dense typed-array
// stores: one call is exactly equivalent to count consecutive
// TrapWrite(a + i*elem, elem, r) calls for i in [0, count).  Schemes
// implement it to fuse the per-store dispatch, table lookups and
// statistics updates; the charges and counters produced must be exactly
// the sum the per-element calls would produce, so simulated results are
// identical whichever entry point runs.
type BatchTrapper interface {
	TrapWriteBatch(a memory.Addr, elem uint32, count int, r *memory.Region)
}

// PageTrapper is an optional Detector extension implemented by schemes
// that trap writes through the node's page table (vm, hybrid).  Their
// collector write-protects whole pages, which other objects' data
// shares, while the application may be storing to them, so the write
// path must hold the table's vmem.Table.LockStores across each
// TrapWrite (or TrapWriteBatch) and the store it traps.
type PageTrapper interface {
	// Pages returns the page table the scheme traps writes through.
	Pages() *vmem.Table
}

// TrapWrites dispatches count consecutive elem-sized stores starting at a
// through d, using the fused batch entry point when the scheme provides
// one and falling back to per-element traps otherwise.
func TrapWrites(d Detector, a memory.Addr, elem uint32, count int, r *memory.Region) {
	if bt, ok := d.(BatchTrapper); ok {
		bt.TrapWriteBatch(a, elem, count, r)
		return
	}
	for i := 0; i < count; i++ {
		d.TrapWrite(a+memory.Addr(uint32(i)*elem), elem, r)
	}
}

// Factory constructs a scheme's detector for one node.
type Factory func(e Engine, opt Options) Detector

var (
	registryMu sync.RWMutex
	registry   = make(map[string]Factory)
)

// Register makes a detector scheme available under the given name.  It
// panics if the name is empty or already taken: scheme names are a global
// namespace and a silent overwrite would swap detection mechanisms behind
// the configuration's back.
func Register(name string, f Factory) {
	if name == "" {
		panic("detect: Register with empty scheme name")
	}
	if f == nil {
		panic(fmt.Sprintf("detect: Register(%q) with nil factory", name))
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("detect: duplicate Register of scheme %q", name))
	}
	registry[name] = f
}

// New instantiates the named scheme's detector for one node.
func New(name string, e Engine, opt Options) (Detector, error) {
	registryMu.RLock()
	f := registry[name]
	registryMu.RUnlock()
	if f == nil {
		return nil, fmt.Errorf("detect: unknown scheme %q (registered: %v)", name, Names())
	}
	return f(e, opt), nil
}

// Registered reports whether a scheme name is known.
func Registered(name string) bool {
	registryMu.RLock()
	defer registryMu.RUnlock()
	_, ok := registry[name]
	return ok
}

// Names returns the registered scheme names, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// RangesBytes returns the total size of a binding in bytes.  It panics if
// the total overflows the 32-bit address space: such a binding cannot
// describe real data and would otherwise corrupt buffer arithmetic
// silently.
func RangesBytes(rs []memory.Range) uint32 {
	var n uint64
	for _, r := range rs {
		n += uint64(r.Size)
		if n > math.MaxUint32 {
			panic(fmt.Sprintf("detect: binding size overflows uint32 (%d ranges, >= %d bytes)", len(rs), n))
		}
	}
	return uint32(n)
}

// readBoundUpdates reads the current contents of every bound range into
// one update per range, stamped with ts.
func readBoundUpdates(e Engine, binding []memory.Range, ts int64) []proto.Update {
	ups := make([]proto.Update, 0, len(binding))
	for _, rg := range binding {
		if rg.Size == 0 {
			continue
		}
		buf := make([]byte, rg.Size)
		e.Inst().ReadBytes(rg, buf)
		ups = append(ups, proto.Update{Addr: rg.Addr, TS: ts, Data: buf})
	}
	return ups
}

// filterUpdates keeps only the portions of the updates that intersect the
// binding.  Output is emitted in binding order (outer loop over the bound
// ranges), so the result is deterministic in the binding's terms regardless
// of the updates' arrival order; zero-size ranges and intersections are
// skipped.
func filterUpdates(us []proto.Update, binding []memory.Range) []proto.Update {
	var out []proto.Update
	for _, brg := range binding {
		if brg.Size == 0 {
			continue
		}
		for _, u := range us {
			urg := u.Range()
			inter, ok := urg.Intersect(brg)
			if !ok || inter.Size == 0 {
				continue
			}
			lo := inter.Addr - urg.Addr
			out = append(out, proto.Update{
				Addr: inter.Addr,
				TS:   u.TS,
				Data: u.Data[lo : uint32(lo)+inter.Size],
			})
		}
	}
	return out
}

// concatBound copies the current contents of the bound ranges into one
// contiguous buffer (the twin-diff schemes' twin layout).
func concatBound(e Engine, binding []memory.Range) []byte {
	buf := make([]byte, RangesBytes(binding))
	off := uint32(0)
	for _, rg := range binding {
		e.Inst().ReadBytes(rg, buf[off:off+rg.Size])
		off += rg.Size
	}
	return buf
}

// rangesEqual reports whether two range lists are identical.
func rangesEqual(a, b []memory.Range) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// noneDetector disables detection and collection entirely; it backs the
// standalone (uninstrumented, single-node) baseline configuration.
type noneDetector struct{}

func init() {
	Register("none", func(Engine, Options) Detector { return noneDetector{} })
}

func (noneDetector) TrapWrite(memory.Addr, uint32, *memory.Region) {}

func (noneDetector) FillAcquire(LockView, *proto.LockAcquire) {}

func (noneDetector) CollectLock(LockView, *proto.LockAcquire, bool) (*proto.LockGrant, cost.Cycles) {
	return &proto.LockGrant{}, 0
}

func (noneDetector) ApplyLock(LockView, *proto.LockGrant) cost.Cycles { return 0 }

func (noneDetector) CollectBarrier(BarrierView) ([]proto.Update, cost.Cycles) {
	return nil, 0
}

func (noneDetector) ApplyBarrier(BarrierView, *proto.BarrierRelease) cost.Cycles { return 0 }

func (noneDetector) NotifyRebind(LockView) {}
