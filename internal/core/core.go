// Package core implements Midway, an entry-consistency distributed shared
// memory system, with pluggable write-detection strategies.
//
// The paper's two contributions are implemented as interchangeable
// strategies over the same consistency protocol:
//
//   - RT: compiler/runtime write detection.  Every store to shared memory
//     sets a per-cache-line dirtybit, which is really a Lamport timestamp;
//     write collection scans the dirtybits bound to a synchronization
//     object and ships exactly the lines the requester has not seen.
//
//   - VM: virtual-memory write detection.  The first store to a clean page
//     write-faults; the fault handler twins the page; write collection
//     diffs dirty pages against their twins and manages per-lock
//     incarnation-numbered update histories.
//
// Two further strategies from the paper's Section 3.5 round out the design
// space: Blast (no detection; all bound data is shipped at every transfer)
// and TwinDiff (no detection; all bound data is twinned and diffed at every
// transfer).  A Hybrid strategy dispatches between the RT and VM mechanisms
// per region, following the paper's observation that neither scheme
// dominates across sharing granularities.
//
// The detection mechanisms themselves live in internal/detect and are
// resolved by registry name; core implements the consistency protocol
// (ownership transfer, forwarding, barrier management) against the
// detect.Detector interface.
//
// Under entry consistency, processes synchronize through locks and
// barriers, each of which the programmer binds to the data it protects.
// Data is made consistent at a processor only when that processor acquires
// the guarding object, which is when write collection runs.
package core

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"midway/internal/cost"
	"midway/internal/detect"
	"midway/internal/member"
	"midway/internal/memory"
	"midway/internal/obs"
	"midway/internal/race"
	"midway/internal/sched"
	"midway/internal/stats"
	"midway/internal/transport"
)

// Strategy selects a write-detection mechanism.
type Strategy int

const (
	// RT is compiler/runtime write detection with dirtybit timestamps.
	RT Strategy = iota
	// VM is virtual-memory write detection with twins, diffs and
	// incarnation numbers.
	VM
	// Blast performs no write detection: every transfer ships all data
	// bound to the synchronization object (Section 3.5).
	Blast
	// TwinDiff performs no write detection: all bound data is twinned on
	// arrival and diffed at every transfer (Section 3.5).
	TwinDiff
	// None disables both detection and collection.  It exists for the
	// standalone (uninstrumented, single-node) baseline of Figure 2.
	None
	// Hybrid dispatches between the RT and VM mechanisms per region,
	// selected by the allocation's granularity class (or measured write
	// density for untagged regions).
	Hybrid
)

// String returns the strategy's name as used in reports.
func (s Strategy) String() string {
	switch s {
	case RT:
		return "RT-DSM"
	case VM:
		return "VM-DSM"
	case Blast:
		return "Blast"
	case TwinDiff:
		return "TwinDiff"
	case None:
		return "standalone"
	case Hybrid:
		return "Hybrid"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Scheme returns the detect registry name the strategy resolves to.
func (s Strategy) Scheme() string {
	switch s {
	case RT:
		return "rt"
	case VM:
		return "vm"
	case Blast:
		return "blast"
	case TwinDiff:
		return "twindiff"
	case None:
		return "none"
	case Hybrid:
		return "hybrid"
	default:
		return ""
	}
}

// ParseStrategy converts a name ("rt", "vm", "blast", "twin", "none",
// "hybrid") to a Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "rt", "RT", "rt-dsm":
		return RT, nil
	case "vm", "VM", "vm-dsm":
		return VM, nil
	case "blast":
		return Blast, nil
	case "twin", "twindiff":
		return TwinDiff, nil
	case "none", "standalone":
		return None, nil
	case "hybrid", "Hybrid":
		return Hybrid, nil
	}
	return 0, fmt.Errorf("core: unknown strategy %q", s)
}

// Config describes a DSM system instance.
type Config struct {
	// Nodes is the number of processors.
	Nodes int
	// Strategy selects the write-detection mechanism.
	Strategy Strategy
	// Scheme optionally selects the write-detection scheme by its detect
	// registry name, overriding Strategy.  Empty means Strategy.Scheme().
	// This is the hook for externally registered detectors.
	Scheme string
	// Cost is the primitive-operation cost model; zero value means
	// cost.Default().
	Cost cost.Model
	// Network is the interconnect cost model; zero value means
	// cost.DefaultNetwork().
	Network cost.NetworkParams
	// RegionShift is log2 of the region size; zero means
	// memory.DefaultRegionShift.
	RegionShift uint
	// Transport supplies the message network.  Nil means an in-process
	// channel network.
	Transport transport.Network
	// LocalNode restricts this System to hosting a single node of a
	// multi-process deployment (used with a TCP transport).  -1 (or zero
	// value via NewSystem) hosts all nodes.
	LocalNode int
	// EagerTimestamps selects the eager dirtybit scheme, in which every
	// store records the current Lamport time instead of the cheap pending
	// marker (the paper's footnote 1 describes the lazy default).
	EagerTimestamps bool
	// CombineIncarnations enables the §3.4 alternative Midway chose not
	// to implement: when a VM-DSM (or TwinDiff) releaser replies with
	// several incarnations' updates, it first combines them so each
	// address reflects only the most recent incarnation that wrote it,
	// eliminating the redundant resends of uncombined histories at the
	// cost of a merge pass.
	CombineIncarnations bool
	// Trace, when non-nil, receives one line per protocol event
	// (acquisitions, transfers, barrier crossings) stamped with the
	// node's simulated time.  It is a convenience for the text sink; Obs
	// supersedes it when set.
	Trace io.Writer
	// Obs, when non-nil, receives structured events from the protocol,
	// the write-detection mechanisms and the transport.  Run closes it
	// (flushing buffered sinks) before returning.  When nil and Trace is
	// set, a text-sink tracer is built from Trace.
	Obs *obs.Tracer
	// CompatCodec disables the codec fast paths (pooled encoders,
	// zero-copy decoders): every message is encoded into a fresh owned
	// buffer and decoded by copying.  Wire bytes and simulated results
	// are identical either way.
	CompatCodec bool
	// OnCrash selects how the run reacts when a node is declared dead
	// (System.KillNode, Proc.Crash, or the transport-level failure
	// detector): CrashAbort (default) fails the run with a *CrashError;
	// CrashDegrade runs the recovery protocol and finishes with the
	// survivors, itemizing the losses in System.CrashReport.
	OnCrash CrashPolicy
	// CrashDetectCycles is the simulated detection latency charged between
	// a crash and the survivors' recovery actions.  Zero means
	// DefaultCrashDetectCycles.
	CrashDetectCycles uint64
	// PreStop, when non-nil, runs after the application goroutines finish
	// and before the protocol handlers are stopped.  The transport wiring
	// uses it to quiesce the heartbeat monitor so teardown silence is not
	// mistaken for node death.
	PreStop func()
	// Lockstep selects the conservative lockstep engine (internal/sched):
	// nodes run message-free stretches in parallel and messages deliver
	// at quiescence points in a deterministic simulated-time order, so
	// the whole run is byte-reproducible regardless of GOMAXPROCS.  It
	// requires the built-in stepped transport (Transport must be nil) and
	// composes with neither wall-clock-driven layers (fault injection,
	// reliability, heartbeats) nor multi-process deployments; the system
	// layer validates those combinations.
	Lockstep bool
	// SchedThreads caps how many node goroutines the lockstep engine
	// executes concurrently, so several engines sharing a process (the
	// benchmark worker pool) split GOMAXPROCS instead of multiplying it.
	// Zero means no cap beyond GOMAXPROCS.
	SchedThreads int
	// MaxNodes enables elastic membership: the system provisions MaxNodes
	// node ids, of which [0, Nodes) are founding members and the rest start
	// absent, joining at runtime through Proc.Join and departing through
	// Proc.Leave.  Zero (or Nodes) means fixed membership: no member table
	// is constructed and every run is byte-identical to before the
	// membership layer existed.  Requires the built-in transport (all
	// nodes hosted in this process).
	MaxNodes int
	// OnMembership, when non-nil, is called after every committed
	// membership transition with the subject node, the action and the new
	// epoch.  The system layer uses it to keep the heartbeat monitor's
	// active set and the reliable layer's per-peer state in sync.  It is
	// called outside all protocol mutexes.
	OnMembership func(node int, action member.Action, epoch uint64)
	// Migrate enables dynamic lock ownership: lock and barrier homes are
	// sharded by a splitmix hash of the object id instead of round-robin,
	// a lock's home migrates to its dominant acquirer when that node's
	// share of a sliding acquire window crosses MigrateThreshold, and
	// contended handoffs forward the waiter queue with the token instead
	// of re-chasing each waiter through the home.  Off (the default),
	// every run is byte-identical to the pre-migration protocol.
	Migrate bool
	// MigrateThreshold is the acquire share in (0, 1] one node must reach
	// over the sliding window before the lock's home migrates to it.
	// Zero means DefaultMigrateThreshold.
	MigrateThreshold float64
	// MigrateWindow is the sliding acquire window: the travelling census
	// halves when its total reaches this many acquires.  Zero means
	// DefaultMigrateWindow.
	MigrateWindow int
	// Partition, when non-empty, injects a deterministic network
	// partition in ParsePartitionSpec format, e.g.
	// "minority=2+3,at=40000,healat=90000": at simulated time at, the
	// minority side is cut from the rest of the membership in both
	// directions; under the fence policy the cut heals at healat and the
	// delayed traffic flows.  The schedule is expressed purely in
	// simulated time, so it composes with the lockstep engine and
	// replays byte-identically; it also arms the split-brain oracle
	// (MaxExclusiveHolders).  Empty (the default), no partition state is
	// built and runs are byte-identical to pre-partition builds.
	Partition string
	// OnPartition selects the reaction when the partition is declared:
	// PartitionFence (default) parks the minority until heal,
	// PartitionAbort fails the run with a *PartitionError, and
	// PartitionDegrade declares the minority dead (requires
	// OnCrash == CrashDegrade).
	OnPartition PartitionPolicy
	// RaceDetect enables the entry-consistency race detector
	// (internal/race): stores to lock-bound shared data are checked
	// against the writer's held locks, and transfer/merge-time update
	// sets are cross-checked for unordered conflicts.  Findings are
	// recorded (System.RaceFindings) and, when tracing is on, emitted as
	// EvUnguardedWrite / EvUnorderedConflict events.  The detector
	// charges no simulated cycles; off (the default), the hot paths pay
	// one nil check and runs are byte-identical to pre-detector builds.
	RaceDetect bool
}

// Migration policy defaults.
const (
	// DefaultMigrateThreshold is the acquire share that triggers a
	// lock-home migration.
	DefaultMigrateThreshold = 0.6
	// DefaultMigrateWindow is the sliding acquire window size.
	DefaultMigrateWindow = 32
	// migrateMinSamples is the minimum windowed acquire total before the
	// dominance test may fire, so a lock does not migrate on its first
	// couple of acquires.
	migrateMinSamples = 8
)

// ObjKind distinguishes locks from barriers in the object table.
type ObjKind uint8

const (
	// ObjLock is a mutual-exclusion synchronization object.
	ObjLock ObjKind = iota
	// ObjBarrier is an all-processor synchronization object.
	ObjBarrier
)

// object is the static description of a synchronization object, identical
// on every node (SPMD setup).
type object struct {
	id      uint32
	kind    ObjKind
	name    string
	manager int
	parties int            // barriers only
	binding []memory.Range // initial binding
	// parts optionally records, per node, the sub-ranges that node writes
	// between barrier episodes.  Only the Blast strategy needs it (it has
	// no way to detect what changed); detection-based strategies ignore
	// it.
	parts [][]memory.Range
}

// LockID names a lock created by NewLock.
type LockID uint32

// BarrierID names a barrier created by NewBarrier.
type BarrierID uint32

// System is one DSM instance: the shared layout, the synchronization
// object table, and the hosted nodes.
type System struct {
	cfg    Config
	layout *memory.Layout
	net    transport.Network
	ownNet bool // we created the network and must close it
	// obs is the structured-event tracer; nil means tracing is disabled
	// and every emission site short-circuits before evaluating arguments.
	obs *obs.Tracer
	// raceRec collects race-detector findings across every node's
	// checker; nil when Config.RaceDetect is off.
	raceRec *race.Recorder

	// failErr records the first transport/protocol failure; failCh is
	// closed alongside it so every blocked application goroutine aborts
	// instead of waiting for a message that will never arrive.
	failOnce sync.Once
	failErr  error
	failCh   chan struct{}

	mu      sync.Mutex
	objects []*object
	// objSnap is the lock-free view of the object table.  The table is
	// append-only: every mutation (under mu) publishes a fresh slice
	// header here, so readers — including the trace path, which runs with
	// a node mutex held — never touch the System mutex.
	objSnap  atomic.Pointer[[]*object]
	frozen   bool
	finished bool // Run has returned; Abort becomes a no-op
	// presets records initial-content installations so strategies that
	// twin data lazily (TwinDiff) can reconstruct the pristine image any
	// node started from.
	presets []preset

	// crashedSet (under mu) records nodes declared dead; crashSnap is its
	// lock-free snapshot, nil until the first crash so fault-free hot
	// paths pay one atomic nil check.  report accumulates what recovery
	// had to discard or rebuild.
	crashedSet map[int]bool
	crashSnap  atomic.Pointer[[]bool]
	report     CrashReport

	nodes []*Node // nil entries for nodes hosted elsewhere

	// members is the elastic-membership table (Config.MaxNodes), nil for
	// fixed-membership systems — every membership code path nil-checks it
	// first, so fixed runs stay byte-identical.
	members *member.Table
	// runFn and runWG are the SPMD application function and the goroutine
	// engine's completion group, retained during Run so a joiner's proc
	// can be launched mid-run.
	runFn func(i int, n *Node)
	runWG sync.WaitGroup

	// eng and stepped are the lockstep engine and its message queue, nil
	// under the goroutine engine.
	eng     *sched.Engine
	stepped *transport.SteppedNetwork

	// part is the deterministic partition schedule (Config.Partition) and
	// census the split-brain oracle armed alongside it; both nil when no
	// partition is configured, so fault-free hot paths pay one nil check.
	part   *partitionState
	census *ownerCensus
}

// NewSystem creates a DSM system.  Shared memory allocation and
// synchronization object creation must happen before Run.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("core: invalid node count %d", cfg.Nodes)
	}
	zero := cost.Model{}
	if cfg.Cost == zero {
		cfg.Cost = cost.Default()
	}
	if cfg.Network == (cost.NetworkParams{}) {
		cfg.Network = cost.DefaultNetwork()
	}
	if cfg.RegionShift == 0 {
		cfg.RegionShift = memory.DefaultRegionShift
	}
	if cfg.Scheme == "" {
		cfg.Scheme = cfg.Strategy.Scheme()
	}
	if !detect.Registered(cfg.Scheme) {
		return nil, fmt.Errorf("core: unknown detection scheme %q (registered: %v)",
			cfg.Scheme, detect.Names())
	}
	if cfg.Obs == nil && cfg.Trace != nil {
		cfg.Obs = obs.New(obs.Config{Text: cfg.Trace})
	}
	if cfg.Migrate {
		if cfg.MigrateThreshold == 0 {
			cfg.MigrateThreshold = DefaultMigrateThreshold
		}
		if cfg.MigrateThreshold <= 0 || cfg.MigrateThreshold > 1 {
			return nil, fmt.Errorf("core: MigrateThreshold %g outside (0, 1]", cfg.MigrateThreshold)
		}
		if cfg.MigrateWindow == 0 {
			cfg.MigrateWindow = DefaultMigrateWindow
		}
		if cfg.MigrateWindow < migrateMinSamples {
			return nil, fmt.Errorf("core: MigrateWindow %d below the minimum sample count %d", cfg.MigrateWindow, migrateMinSamples)
		}
	}
	total := cfg.Nodes
	if cfg.MaxNodes > 0 {
		if cfg.MaxNodes < cfg.Nodes {
			return nil, fmt.Errorf("core: MaxNodes %d below founding node count %d", cfg.MaxNodes, cfg.Nodes)
		}
		if cfg.Transport != nil && cfg.LocalNode >= 0 {
			// A caller-supplied transport is fine as long as it hosts every
			// node in this process and is sized for MaxNodes endpoints (the
			// root package's fault-injection and reliability stacks are);
			// per-process hosting is not: admission splices protocol state
			// under a global freeze.
			return nil, fmt.Errorf("core: elastic membership requires the all-hosted configuration (every node in one process)")
		}
		total = cfg.MaxNodes
	}
	s := &System{
		cfg:    cfg,
		layout: memory.NewLayout(cfg.RegionShift),
		obs:    cfg.Obs,
		failCh: make(chan struct{}),
	}
	if cfg.MaxNodes > 0 {
		s.members = member.New(cfg.Nodes, total)
	}
	switch {
	case cfg.Transport != nil:
		if cfg.Lockstep {
			return nil, fmt.Errorf("core: the lockstep engine requires the built-in stepped transport (Transport must be nil)")
		}
		// An elastic system needs an endpoint per provisioned slot, not
		// per founding node.
		if cfg.Transport.Nodes() != total {
			return nil, fmt.Errorf("core: transport has %d nodes, config has %d",
				cfg.Transport.Nodes(), total)
		}
		s.net = cfg.Transport
	case cfg.Lockstep:
		s.stepped = transport.NewSteppedNetwork(total)
		s.net = s.stepped
		s.ownNet = true
	default:
		s.net = transport.NewChannelNetwork(total)
		s.ownNet = true
	}
	if cfg.Partition != "" {
		spec, err := ParsePartitionSpec(cfg.Partition)
		if err != nil {
			return nil, err
		}
		if cfg.OnPartition == PartitionDegrade && cfg.OnCrash != CrashDegrade {
			return nil, fmt.Errorf("core: the degrade partition policy declares the minority dead and needs OnCrash=CrashDegrade to recover")
		}
		if cfg.Transport != nil && cfg.LocalNode >= 0 {
			return nil, fmt.Errorf("core: the deterministic partition schedule requires the all-hosted configuration (every node in one process)")
		}
		s.part, err = newPartitionState(spec, cfg.OnPartition, total)
		if err != nil {
			return nil, err
		}
		s.census = newOwnerCensus()
	}
	s.nodes = make([]*Node, total)
	local := cfg.LocalNode
	for i := 0; i < total; i++ {
		if cfg.Transport != nil && local >= 0 && i != local {
			continue // hosted by another process
		}
		s.nodes[i] = newNode(s, i)
	}
	if cfg.Lockstep {
		// Arrival uses the same formula as Node.arrivalTime: transit cost
		// for cross-node messages, instantaneous self-sends.
		netp := cfg.Network
		s.stepped.SetArrival(func(m transport.Message) uint64 {
			if m.From == m.To {
				return m.Time
			}
			transit := netp.MessageCycles(m.Size())
			if ps := s.part; ps != nil {
				// A cross-cut message under the fence policy is held at
				// the cut and delivered one transit after the heal.
				if at, ok := ps.delayedArrival(m.From, m.To, m.Time, transit); ok {
					return at
				}
			}
			return m.Time + transit
		})
		s.eng = sched.New(total, cfg.SchedThreads, sched.Hooks{
			NextMessage: s.stepped.PopMin,
			Dispatch:    s.dispatchStepped,
			OnDeadlock: func(blocked []int) {
				s.fail(fmt.Errorf("core: lockstep deadlock: nodes %v are blocked with no message in flight", blocked))
			},
		})
	}
	return s, nil
}

// dispatchStepped is the lockstep engine's delivery callback: it runs one
// message's handler synchronously on the engine goroutine, mirroring
// handlerLoop's ghost routing.
func (s *System) dispatchStepped(m transport.Message, arrival uint64) {
	n := s.nodes[m.To]
	if n.ghost.Load() {
		// Ghosting happens only inside a quiescence section (killNodeFrom
		// and leaveNodeFrom defer to RunAtQuiescence), which also closes
		// unghosted before any later delivery, so this wait never blocks;
		// it is kept for symmetry with handlerLoop.  Re-check the flag
		// afterwards: a gracefully-departed node that rejoined has been
		// un-ghosted (the channel stays closed) and dispatches normally.
		<-n.unghosted
		if n.ghost.Load() {
			n.ghostRoute(m, arrival)
			return
		}
	}
	n.dispatch(m, arrival)
}

// Engine returns the lockstep engine, or nil under the goroutine engine.
// The root package uses it to construct engine-aware host schedulers
// (sched.Turns).
func (s *System) Engine() *sched.Engine { return s.eng }

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// Layout returns the shared memory layout.
func (s *System) Layout() *memory.Layout { return s.layout }

// Alloc reserves shared memory with the given cache line size
// (1<<lineShift bytes).
func (s *System) Alloc(name string, size uint32, lineShift uint) (memory.Addr, error) {
	return s.layout.Alloc(name, size, memory.Shared, lineShift)
}

// AllocTagged is Alloc with an explicit granularity class, which the
// hybrid scheme uses to route the allocation's regions to the rt or vm
// mechanism.  Other schemes ignore the tag.
func (s *System) AllocTagged(name string, size uint32, lineShift uint, gran memory.Gran) (memory.Addr, error) {
	return s.layout.AllocTagged(name, size, memory.Shared, lineShift, gran)
}

// MustAlloc is Alloc, panicking on error (setup-time convenience).
func (s *System) MustAlloc(name string, size uint32, lineShift uint) memory.Addr {
	a, err := s.Alloc(name, size, lineShift)
	if err != nil {
		panic(err)
	}
	return a
}

// MustAllocTagged is AllocTagged, panicking on error.
func (s *System) MustAllocTagged(name string, size uint32, lineShift uint, gran memory.Gran) memory.Addr {
	a, err := s.AllocTagged(name, size, lineShift, gran)
	if err != nil {
		panic(err)
	}
	return a
}

// AllocPrivate reserves private memory.  Instrumented stores reaching it
// pay only the misclassification penalty.
func (s *System) AllocPrivate(name string, size uint32) (memory.Addr, error) {
	return s.layout.Alloc(name, size, memory.Private, 0)
}

// objectHome assigns an object's static directory home.  Migration-off
// systems keep the historical round-robin assignment so their runs stay
// byte-identical to the pre-migration protocol; migration-on systems
// shard by a splitmix hash of the id, so consecutively created objects
// (typically the hottest) do not concentrate on the low-numbered nodes.
func (s *System) objectHome(id uint32) int {
	if !s.cfg.Migrate {
		return int(id) % s.cfg.Nodes
	}
	z := uint64(id)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int(z % uint64(s.cfg.Nodes))
}

// NewLock creates a lock.  The manager node is chosen by hashing the
// object id across nodes, as in a static distributed directory.
func (s *System) NewLock(name string, binding ...memory.Range) LockID {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen {
		panic("core: NewLock after Run")
	}
	id := uint32(len(s.objects))
	s.objects = append(s.objects, &object{
		id:      id,
		kind:    ObjLock,
		name:    name,
		manager: s.objectHome(id),
		binding: append([]memory.Range(nil), binding...),
	})
	s.publishObjects()
	return LockID(id)
}

// publishObjects refreshes the lock-free object-table snapshot.  Caller
// holds s.mu.  Elements below the published length are never rewritten,
// so readers of an older snapshot stay consistent.
func (s *System) publishObjects() {
	snap := s.objects
	s.objSnap.Store(&snap)
}

// NewBarrier creates a barrier for parties processors (0 means all nodes)
// over the optionally bound data.
func (s *System) NewBarrier(name string, parties int, binding ...memory.Range) BarrierID {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen {
		panic("core: NewBarrier after Run")
	}
	if parties <= 0 {
		parties = s.cfg.Nodes
	}
	id := uint32(len(s.objects))
	s.objects = append(s.objects, &object{
		id:      id,
		kind:    ObjBarrier,
		name:    name,
		manager: s.objectHome(id),
		parties: parties,
		binding: append([]memory.Range(nil), binding...),
	})
	s.publishObjects()
	return BarrierID(id)
}

// SetBarrierParts records, per node, the sub-ranges of the barrier's bound
// data that the node writes between episodes.  Only the Blast strategy
// uses this information; the detecting strategies discover it at runtime.
func (s *System) SetBarrierParts(b BarrierID, parts [][]memory.Range) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obj := s.objects[uint32(b)]
	if obj.kind != ObjBarrier {
		panic("core: SetBarrierParts on a lock")
	}
	obj.parts = parts
}

// objectsSnapshot returns the immutable object-table snapshot without
// taking the System mutex (safe for the trace path and detector-side
// iteration while a node mutex is held).  The returned slice must not be
// mutated.
func (s *System) objectsSnapshot() []*object {
	if p := s.objSnap.Load(); p != nil {
		return *p
	}
	return nil
}

// objectByID returns the object table entry, lock-free.
func (s *System) objectByID(id uint32) *object {
	objects := s.objectsSnapshot()
	if int(id) >= len(objects) {
		panic(fmt.Sprintf("core: unknown object %d", id))
	}
	return objects[id]
}

// Preset installs initial contents into every hosted node's copy of the
// given range before the run starts, without trapping or counting the
// writes.  It models program input that each process loads identically at
// startup (as the paper's applications read their input files); in a
// multi-process deployment every process must perform the same presets.
// Preset panics if called after Run.
func (s *System) Preset(a memory.Addr, data []byte) {
	s.mu.Lock()
	frozen := s.frozen
	s.mu.Unlock()
	if frozen {
		panic("core: Preset after Run")
	}
	rg := memory.Range{Addr: a, Size: uint32(len(data))}
	for _, n := range s.nodes {
		if n != nil {
			n.inst.WriteBytes(rg, data)
		}
	}
	s.mu.Lock()
	// Applications preset arrays element by element; coalescing contiguous
	// installations keeps the recorded list (and every pristine-image
	// reconstruction walking it) proportional to the number of arrays, not
	// elements.
	if n := len(s.presets); n > 0 {
		last := &s.presets[n-1]
		if last.rg.Addr+memory.Addr(last.rg.Size) == rg.Addr {
			last.data = append(last.data, data...)
			last.rg.Size += rg.Size
			s.mu.Unlock()
			return
		}
	}
	s.presets = append(s.presets, preset{rg: rg, data: append([]byte(nil), data...)})
	s.mu.Unlock()
}

// preset is one recorded initial-content installation.
type preset struct {
	rg   memory.Range
	data []byte
}

// pristineBound reconstructs the pre-run contents of the bound ranges as a
// contiguous buffer: zeros overlaid with any presets.
func (s *System) pristineBound(binding []memory.Range) []byte {
	buf := make([]byte, detect.RangesBytes(binding))
	s.mu.Lock()
	presets := s.presets
	s.mu.Unlock()
	off := uint32(0)
	for _, rg := range binding {
		for _, p := range presets {
			inter, ok := rg.Intersect(p.rg)
			if !ok {
				continue
			}
			copy(buf[off+uint32(inter.Addr-rg.Addr):], p.data[inter.Addr-p.rg.Addr:][:inter.Size])
		}
		off += rg.Size
	}
	return buf
}

// errAborted is the sentinel an application goroutine panics with when
// the run has already failed and it must unwind; Run's recovery treats it
// as "see System.Err()", not as an application panic.
var errAborted = errors.New("core: run aborted by transport failure")

// fail records the first transport/protocol failure and releases every
// blocked application goroutine.  Safe for concurrent use.
func (s *System) fail(err error) {
	s.failOnce.Do(func() {
		s.failErr = err
		close(s.failCh)
		if s.eng != nil {
			// Release every node parked in the lockstep engine so the
			// run unwinds instead of waiting for deliveries that will
			// never happen.
			s.eng.Abort()
		}
	})
}

// Abort fails an in-progress run from outside: every blocked application
// goroutine unwinds and Run returns err.  The operator-shutdown path
// (closing the system while Run is live, e.g. on SIGINT) uses it before
// tearing down the transport, so application goroutines parked on a
// reply that will never arrive are released instead of stranded.  Before
// Run starts or after it returns, Abort is a no-op.
func (s *System) Abort(err error) {
	s.mu.Lock()
	running := s.frozen && !s.finished
	s.mu.Unlock()
	if running {
		s.fail(err)
	}
}

// Err returns the first transport/protocol failure recorded during the
// run, or nil.  Run returns the same error; Err remains available for
// inspection afterwards.
func (s *System) Err() error {
	select {
	case <-s.failCh:
		return s.failErr
	default:
		return nil
	}
}

// abortIfFailed panics with the abort sentinel if the run has failed.
func (s *System) abortIfFailed() {
	select {
	case <-s.failCh:
		panic(errAborted)
	default:
	}
}

// Run executes fn once per hosted node, concurrently, each invocation
// receiving that node's Proc handle.  It returns after every instance
// finishes; a panic in any instance is recovered and returned as an error.
// A transport failure (broken socket, undecodable message, unreachable
// peer) aborts every instance and is returned with a diagnostic naming
// the node, peer and message kind; it is also available from Err.
// Run may be called once per System.
func (s *System) Run(fn func(p *Proc)) error {
	s.mu.Lock()
	if s.frozen {
		s.mu.Unlock()
		return fmt.Errorf("core: Run called twice")
	}
	s.frozen = true
	s.mu.Unlock()
	s.layout.Freeze()
	if s.cfg.RaceDetect {
		s.setupRaceDetect()
	}

	errs := make([]error, len(s.nodes))
	runNode := func(i int, n *Node) {
		defer func() {
			if r := recover(); r != nil && r != errAborted && r != errCrashed && r != errLeft {
				if pe, ok := r.(*ProtocolError); ok {
					// An API misuse surfaces typed, not as a wrapped
					// panic, so callers can errors.As for it.
					errs[i] = pe
				} else {
					errs[i] = fmt.Errorf("core: node %d panicked: %v", i, r)
				}
				// A dead proc is still a live member: every other node
				// would wait forever at the next barrier for its entry.
				// Abort the run so the panic surfaces instead of a hang.
				s.fail(errs[i])
			}
		}()
		fn(&Proc{node: n})
	}
	s.runFn = runNode
	// absent reports a provisioned-but-not-yet-joined node: its protocol
	// handler runs (so a later join can reach it) but no proc is launched
	// until the join commits.
	absent := func(i int) bool {
		return s.members != nil && s.members.Status(i) == member.Absent
	}
	if s.eng != nil {
		// Lockstep: no handler goroutines — the engine delivers messages
		// synchronously at quiescence points on this goroutine.
		for i := range s.nodes {
			if absent(i) {
				s.eng.SetDormant(i)
			}
		}
		s.eng.Run(func(i int) { runNode(i, s.nodes[i]) })
	} else {
		for _, n := range s.nodes {
			if n != nil {
				n.start()
			}
		}
		// Decide every launch before the first proc starts: a launched
		// proc may commit a join, and a node that stops being absent
		// mid-loop is launched by completeJoin, so it must not also be
		// launched here.
		launch := make([]bool, len(s.nodes))
		for i, n := range s.nodes {
			launch[i] = n != nil && !absent(i)
		}
		for i, n := range s.nodes {
			if !launch[i] {
				continue
			}
			s.runWG.Add(1)
			go func(i int, n *Node) {
				defer s.runWG.Done()
				runNode(i, n)
			}(i, n)
		}
		s.runWG.Wait()
	}

	if s.cfg.PreStop != nil {
		s.cfg.PreStop()
	}
	for _, n := range s.nodes {
		if n == nil {
			continue
		}
		if s.eng != nil {
			n.conn.Close() // no handler to shut down
		} else {
			n.stop()
		}
	}
	if s.ownNet {
		s.net.Close()
	}
	// Flush the buffering trace sinks now that every node (and the
	// transport's retransmit loops, which Close above stopped) is done.
	if err := s.obs.Close(); err != nil {
		s.fail(fmt.Errorf("core: trace flush: %w", err))
	}
	s.mu.Lock()
	s.finished = true
	s.mu.Unlock()
	if err := s.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Node returns the hosted node with the given id, or nil.
func (s *System) Node(i int) *Node { return s.nodes[i] }

// ReadFinal copies node 0's copy of the range into dst after a run has
// completed.  It is the standard way to extract results: end the program
// with a barrier (or lock acquisition) that makes the result consistent at
// node 0, then read it here.
func (s *System) ReadFinal(rg memory.Range, dst []byte) {
	n := s.nodes[0]
	if n == nil {
		panic("core: ReadFinal requires node 0 to be hosted locally")
	}
	n.inst.ReadBytes(rg, dst)
}

// ReadFinalAt is ReadFinal against an arbitrary hosted node's copy.
func (s *System) ReadFinalAt(node int, rg memory.Range, dst []byte) {
	n := s.nodes[node]
	if n == nil {
		panic(fmt.Sprintf("core: node %d is not hosted locally", node))
	}
	n.inst.ReadBytes(rg, dst)
}

// Stats returns a snapshot of each hosted node's counters.  Provisioned
// ids that never joined an elastic run are excluded.
func (s *System) Stats() []stats.Snapshot {
	out := make([]stats.Snapshot, 0, len(s.nodes))
	for i, n := range s.nodes {
		if n == nil {
			continue
		}
		if s.members != nil && s.members.Status(i) == member.Absent {
			continue
		}
		out = append(out, n.st.Snapshot())
	}
	return out
}

// TotalStats returns the sum of all hosted nodes' counters.
func (s *System) TotalStats() stats.Snapshot {
	var t stats.Snapshot
	for _, sn := range s.Stats() {
		t.Add(sn)
	}
	return t
}

// MeanStats returns the per-processor average of all hosted nodes'
// counters, the form the paper's Table 2 reports.
func (s *System) MeanStats() stats.Snapshot {
	t := s.TotalStats()
	n := uint64(len(s.Stats()))
	t.Scale(n)
	return t
}

// ExecutionCycles returns the simulated execution time: the maximum final
// cycle clock across hosted nodes.
func (s *System) ExecutionCycles() uint64 {
	var maxC uint64
	for _, n := range s.nodes {
		if n != nil && n.cycles.Now() > maxC {
			maxC = n.cycles.Now()
		}
	}
	return maxC
}

// ExecutionSeconds returns the simulated execution time in seconds on the
// reference 25 MHz processor.
func (s *System) ExecutionSeconds() float64 {
	return cost.Seconds(s.ExecutionCycles())
}
