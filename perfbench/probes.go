package main

import (
	"fmt"
	"sync"
	"time"

	"midway/internal/clock"
	"midway/internal/cost"
	"midway/internal/detect"
	"midway/internal/diff"
	"midway/internal/memory"
	"midway/internal/obs"
	"midway/internal/proto"
	"midway/internal/sched"
	"midway/internal/stats"
	"midway/internal/transport"
	"midway/internal/vmem"
)

// The probes time single layer primitives, Table 1 style, by calling each
// layer's public functions on inputs the benchmark builds.  Each returns
// probeSamples samples of the per-operation cost; every sample times a
// batch, so the clock's own cost is spread over many calls.

const probeSamples = 21

// probe is one primitive's samples in its unit.
type probe struct {
	name, unit, note string
	samples          []float64
}

// timeBatch runs fn, which performs ops operations, probeSamples times
// and returns the per-operation cost of each run in the given unit
// (nanoseconds per unit).  prep, when set, runs untimed before each run.
func timeBatch(ops int, perUnit float64, prep, fn func()) []float64 {
	out := make([]float64, probeSamples)
	for i := range out {
		if prep != nil {
			prep()
		}
		t := time.Now()
		fn()
		out[i] = float64(time.Since(t).Nanoseconds()) / float64(ops) / perUnit
	}
	return out
}

// runProbes measures every primitive.
func runProbes() ([]probe, error) {
	var out []probe
	for _, f := range []func() (probe, error){
		probeTrap, probeScan, probeFault, probeDiff, probeApply,
		probeBlockCopy, probeEncode, probeDecode, probeChanRTT, probePhase,
	} {
		p, err := f()
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// benchEngine is a minimal detect.Engine over one node's standalone
// layout and memory instance: no protocol, no network.
type benchEngine struct {
	layout  *memory.Layout
	inst    *memory.Instance
	vm      *vmem.Table
	st      stats.Node
	m       cost.Model
	lamport clock.Lamport
	cycles  clock.Cycle
}

func newBenchEngine(size uint32, lineShift uint) (*benchEngine, memory.Addr, error) {
	e := &benchEngine{layout: memory.NewLayout(memory.DefaultRegionShift), m: cost.Default()}
	a, err := e.layout.Alloc("probe", size, memory.Shared, lineShift)
	if err != nil {
		return nil, 0, err
	}
	e.layout.Freeze()
	e.inst = memory.NewInstance(e.layout)
	return e, a, nil
}

func (e *benchEngine) NodeID() int                           { return 0 }
func (e *benchEngine) Inst() *memory.Instance                { return e.inst }
func (e *benchEngine) Layout() *memory.Layout                { return e.layout }
func (e *benchEngine) Stats() *stats.Node                    { return &e.st }
func (e *benchEngine) Cost() cost.Model                      { return e.m }
func (e *benchEngine) Charge(c cost.Cycles)                  { e.cycles.Charge(c) }
func (e *benchEngine) Tick() int64                           { return e.lamport.Tick() }
func (e *benchEngine) Now() int64                            { return e.lamport.Now() }
func (e *benchEngine) Trace() *obs.Tracer                    { return nil }
func (e *benchEngine) TraceAt() uint64                       { return 0 }
func (e *benchEngine) CycleNow() uint64                      { return e.cycles.Now() }
func (e *benchEngine) ForEachObject(func(detect.ObjectView)) {}
func (e *benchEngine) PristineBound(b []memory.Range) []byte {
	return make([]byte, detect.RangesBytes(b))
}
func (e *benchEngine) VM() *vmem.Table {
	if e.vm == nil {
		e.vm = vmem.NewTable(e.inst)
	}
	return e.vm
}

// benchLock is a lock view with a fixed binding.
type benchLock struct {
	binding []memory.Range
	state   any
}

func (l *benchLock) Name() string            { return "probe" }
func (l *benchLock) Binding() []memory.Range { return l.binding }
func (l *benchLock) State() any              { return l.state }
func (l *benchLock) SetState(s any)          { l.state = s }
func (l *benchLock) Rebound() bool           { return false }
func (l *benchLock) ClearRebound()           {}
func (l *benchLock) BindGen() uint64         { return 0 }

// probeTrap times the RT store trap: one dirtybit set for an 8-byte
// store, the paper's Table 1 row.
func probeTrap() (probe, error) {
	const words = 4096
	e, a, err := newBenchEngine(words*8, 3)
	if err != nil {
		return probe{}, err
	}
	d, err := detect.New("rt", e, detect.Options{})
	if err != nil {
		return probe{}, err
	}
	r := e.layout.RegionFor(a)
	s := timeBatch(words, 1, nil, func() {
		for i := 0; i < words; i++ {
			d.TrapWrite(a+memory.Addr(i*8), 8, r)
		}
	})
	return probe{"detect.trap_ns", "ns", "one dirtybit set (8-byte store)", s}, nil
}

// probeScan times an RT lock collection over a 64 KB binding of 8-byte
// lines with one line in 64 dirty, per line scanned.
func probeScan() (probe, error) {
	const size, lines = 64 * 1024, 64 * 1024 / 8
	e, a, err := newBenchEngine(size, 3)
	if err != nil {
		return probe{}, err
	}
	d, err := detect.New("rt", e, detect.Options{})
	if err != nil {
		return probe{}, err
	}
	r := e.layout.RegionFor(a)
	lk := &benchLock{binding: []memory.Range{{Addr: a, Size: size}}}
	var last int64
	s := timeBatch(lines, 1, func() {
		for off := 0; off < size; off += 64 * 8 {
			d.TrapWrite(a+memory.Addr(off), 8, r)
		}
	}, func() {
		g, _ := d.CollectLock(lk, &proto.LockAcquire{LastTime: last}, true)
		last = g.Time
	})
	return probe{"detect.scan_ns_per_line", "ns", "64 KB binding, 1 line in 64 dirty", s}, nil
}

// probeFault times a VM write fault: protection change plus twin copy.
func probeFault() (probe, error) {
	const pages = 64
	e, a, err := newBenchEngine(pages*vmem.PageSize, 3)
	if err != nil {
		return probe{}, err
	}
	tbl := e.VM()
	s := timeBatch(pages, 1e3, func() {
		for p := 0; p < pages; p++ {
			tbl.Clean(vmem.PageIndex(a) + p)
		}
	}, func() {
		for p := 0; p < pages; p++ {
			tbl.EnsureWritable(a+memory.Addr(p*vmem.PageSize), 8)
		}
	})
	return probe{"vmem.fault_twin_us", "us", "one write fault with twin", s}, nil
}

// diffDirtyEvery makes one 8-byte word in diffDirtyEvery differ between
// a page and its twin: a 12.5% dirty fraction.
const diffDirtyEvery = 8

func dirtyPage() (cur, twin []byte) {
	cur, twin = make([]byte, vmem.PageSize), make([]byte, vmem.PageSize)
	for off := 0; off < vmem.PageSize; off += 8 * diffDirtyEvery {
		cur[off] = 1
	}
	return cur, twin
}

// probeDiff times diffing one 4 KB page against its twin.
func probeDiff() (probe, error) {
	const pages = 64
	cur, twin := dirtyPage()
	var sink diff.Diff
	s := timeBatch(pages, 1e3, nil, func() {
		for i := 0; i < pages; i++ {
			sink = diff.Compute(cur, twin)
		}
	})
	if sink.Empty() {
		return probe{}, fmt.Errorf("probe: diff of a dirty page is empty")
	}
	return probe{"diff.page_us", "us", "4 KB page, 1 word in 8 dirty", s}, nil
}

// probeApply times applying one page's diff.
func probeApply() (probe, error) {
	const pages = 64
	cur, twin := dirtyPage()
	d := diff.Compute(cur, twin)
	buf := make([]byte, vmem.PageSize)
	s := timeBatch(pages, 1e3, nil, func() {
		for i := 0; i < pages; i++ {
			d.Apply(buf)
		}
	})
	return probe{"diff.apply_us", "us", "4 KB page, 1 word in 8 dirty", s}, nil
}

// probeBlockCopy times writing 1 KB blocks into a memory instance.
func probeBlockCopy() (probe, error) {
	const blocks = 256
	e, a, err := newBenchEngine(blocks*1024, 3)
	if err != nil {
		return probe{}, err
	}
	src := make([]byte, 1024)
	s := timeBatch(blocks, 1, nil, func() {
		for i := 0; i < blocks; i++ {
			e.inst.WriteBytes(memory.Range{Addr: a + memory.Addr(i*1024), Size: 1024}, src)
		}
	})
	return probe{"memory.block_copy_ns_per_kb", "ns", "Instance.WriteBytes of 1 KB", s}, nil
}

// grantProbe is a lock grant carrying one lock-bank record.
func grantProbe() *proto.LockGrant {
	return &proto.LockGrant{
		Lock: 7, Mode: proto.Exclusive, Time: 12345,
		Binding: []memory.Range{{Addr: 4096, Size: recordBytes}},
		Updates: []proto.Update{{Addr: 4096, TS: 12345, Data: make([]byte, recordBytes)}},
	}
}

func probeEncode() (probe, error) {
	const n = 2000
	g := grantProbe()
	var sink []byte
	s := timeBatch(n, 1, nil, func() {
		for i := 0; i < n; i++ {
			sink = g.Encode()
		}
	})
	return probe{"proto.encode_ns", "ns", fmt.Sprintf("lock grant, one %d-byte update (%d bytes)", recordBytes, len(sink)), s}, nil
}

func probeDecode() (probe, error) {
	const n = 2000
	buf := grantProbe().Encode()
	var err error
	s := timeBatch(n, 1, nil, func() {
		for i := 0; i < n; i++ {
			if _, e := proto.DecodeLockGrant(buf); e != nil {
				err = e
			}
		}
	})
	if err != nil {
		return probe{}, fmt.Errorf("probe: decode: %w", err)
	}
	return probe{"proto.decode_ns", "ns", fmt.Sprintf("lock grant, one %d-byte update", recordBytes), s}, nil
}

// probeChanRTT times a round trip between two goroutines over the
// in-process channel network.
func probeChanRTT() (probe, error) {
	const n = 1000
	net := transport.NewChannelNetwork(2)
	defer net.Close()
	a, b := net.Conn(0), net.Conn(1)
	var wg sync.WaitGroup
	wg.Add(1)
	var echoErr error
	go func() {
		defer wg.Done()
		for i := 0; i < n*probeSamples; i++ {
			m, err := b.Recv()
			if err == nil {
				err = b.Send(transport.Message{From: 1, To: 0, Payload: m.Payload})
			}
			if err != nil {
				echoErr = err
				return
			}
		}
	}()
	var err error
	payload := make([]byte, 64)
	s := timeBatch(n, 1e3, nil, func() {
		for i := 0; i < n && err == nil; i++ {
			if err = a.Send(transport.Message{From: 0, To: 1, Payload: payload}); err == nil {
				_, err = a.Recv()
			}
		}
	})
	if err != nil {
		net.Close()
	}
	wg.Wait()
	if err == nil {
		err = echoErr
	}
	if err != nil {
		return probe{}, fmt.Errorf("probe: channel round trip: %w", err)
	}
	return probe{"transport.chan_rtt_us", "us", "64-byte payload", s}, nil
}

// probePhase times one empty lockstep phase at 64 nodes: every node sends
// itself a message and blocks, and the engine delivers and wakes.
func probePhase() (probe, error) {
	const nodes, rounds = 64, 50
	out := make([]float64, probeSamples)
	var err error
	var mu sync.Mutex
	for i := range out {
		net := transport.NewSteppedNetwork(nodes)
		net.SetArrival(func(m transport.Message) uint64 { return m.Time })
		var eng *sched.Engine
		eng = sched.New(nodes, 0, sched.Hooks{
			NextMessage: net.PopMin,
			Dispatch:    func(m transport.Message, _ uint64) { eng.Wake(m.To) },
			OnDeadlock:  func([]int) { eng.Abort() },
		})
		t := time.Now()
		eng.Run(func(n int) {
			conn := net.Conn(n)
			for r := 0; r < rounds; r++ {
				if e := conn.Send(transport.Message{From: n, To: n, Time: uint64(r)}); e != nil {
					mu.Lock()
					err = e
					mu.Unlock()
					return
				}
				if !eng.Block(n) {
					return
				}
			}
		})
		out[i] = float64(time.Since(t).Nanoseconds()) / rounds / 1e3
	}
	if err != nil {
		return probe{}, fmt.Errorf("probe: phase: %w", err)
	}
	return probe{"sched.phase_us", "us", "empty phase, 64 nodes", out}, nil
}
