package main

import (
	"fmt"
	"time"

	"midway"
	"midway/internal/stats"
)

// callKind names a midway.Proc entry point the lock bank times when
// tracing.
type callKind int

const (
	callStore callKind = iota
	callLoad
	callAcquire
	callAcquireShared
	callRelease
	callBarrier
	numCalls
)

// callSpans holds one node's span durations per Proc entry point, in
// nanoseconds.  Each node goroutine owns its own; they are merged after
// the run.
type callSpans [numCalls][]float64

// lockResult is one lock-bank cell's outcome.
type lockResult struct {
	scheme string
	ops    int
	failed int
	// why describes the first failures, for the report.
	why []string
	// csMicros is every critical section's host latency: from the call
	// to Acquire or AcquireShared until Release returns.
	csMicros []float64
	// host is the wall time of System.Run; setup covers NewSystem, Alloc,
	// Preset and NewLock.
	host, setup time.Duration
	sim         float64
	total       stats.Snapshot
	spans       callSpans
}

// runLockCell runs one lock-bank cell on the cell's engine, with threads
// lockstep threads when that is the lockstep engine.  Each node
// runs a closed loop: fixed simulated compute, then one critical section,
// then the next.  An exclusive operation reads the record's counter and
// stores counter+1 to the counter and to the first word of the invariant
// pair, and its complement to the second word, which lies on another
// cache line.  A shared operation reads all three and checks the
// invariant.  After a final barrier node 0 pulls every record, and the
// benchmark checks each counter against the plan.  When traced, every Proc
// call is timed.
func runLockCell(c *lockCell, threads int, traced bool) (out lockResult) {
	out.scheme = c.Scheme
	out.ops = c.ops()
	fail := func(n int, format string, args ...any) {
		out.failed += n
		if len(out.why) < 5 {
			out.why = append(out.why, fmt.Sprintf(c.Scheme+": "+format, args...))
		}
	}
	defer func() {
		if r := recover(); r != nil {
			out.failed = out.ops
			out.why = append(out.why, fmt.Sprintf("%s: panic: %v", c.Scheme, r))
		}
	}()

	t0 := time.Now()
	bk, err := newBank(c, threads)
	if err != nil {
		out.failed = out.ops
		out.why = append(out.why, fmt.Sprintf("%s: %v", c.Scheme, err))
		return out
	}
	defer bk.sys.Close()
	out.setup = time.Since(t0)
	sys, locks, rec := bk.sys, bk.locks, bk.rec

	lat := make([][]float64, lockNodes)
	torn := make([]int, lockNodes)
	spans := make([]callSpans, lockNodes)
	t1 := time.Now()
	err = sys.Run(func(p *midway.Proc) {
		id := p.ID()
		sp := &spans[id]
		// mark and note bracket one Proc call when traced; untraced they
		// cost a branch.
		mark := func() (t time.Time) {
			if traced {
				t = time.Now()
			}
			return t
		}
		note := func(k callKind, t time.Time) {
			if traced {
				sp[k] = append(sp[k], float64(time.Since(t).Nanoseconds()))
			}
		}
		load := func(a midway.Addr) uint64 {
			t := mark()
			v := p.ReadU64(a)
			note(callLoad, t)
			return v
		}
		store := func(a midway.Addr, v uint64) {
			t := mark()
			p.WriteU64(a, v)
			note(callStore, t)
		}
		ms := make([]float64, 0, len(c.Streams[id]))
		t := mark()
		p.Barrier(bk.start)
		note(callBarrier, t)
		for _, op := range c.Streams[id] {
			p.Compute(computeCycle)
			l, a := locks[op.Record], rec(int(op.Record))
			cs := time.Now()
			if op.Exclusive {
				t := mark()
				p.Acquire(l)
				note(callAcquire, t)
				v := load(a+8) + 1
				store(a, v)
				store(a+8, v)
				store(a+pairOffset, ^v)
			} else {
				t := mark()
				p.AcquireShared(l)
				note(callAcquireShared, t)
				x, n, y := load(a), load(a+8), load(a+pairOffset)
				if x != n || y != ^x {
					torn[id]++
				}
			}
			t := mark()
			p.Release(l)
			note(callRelease, t)
			ms = append(ms, float64(time.Since(cs).Nanoseconds())/1e3)
		}
		lat[id] = ms
		t = mark()
		p.Barrier(bk.done)
		note(callBarrier, t)
		if id == 0 {
			for _, l := range locks {
				p.AcquireShared(l)
				p.Release(l)
			}
		}
	})
	out.host = time.Since(t1)
	if err != nil {
		out.failed = out.ops
		out.why = append(out.why, fmt.Sprintf("%s: run: %v", c.Scheme, err))
		return out
	}
	for id := range lat {
		out.csMicros = append(out.csMicros, lat[id]...)
		for k := range spans[id] {
			out.spans[k] = append(out.spans[k], spans[id][k]...)
		}
		if torn[id] > 0 {
			fail(torn[id], "node %d read %d torn records", id, torn[id])
		}
	}
	for r, want := range c.want {
		x, n, y := sys.ReadFinalU64(rec(r)), sys.ReadFinalU64(rec(r)+8), sys.ReadFinalU64(rec(r)+pairOffset)
		if n != want {
			// Each missing (or surplus) increment is one failed
			// exclusive operation.
			fail(max(int(want-n), int(n-want)), "record %d counter %d, want %d", r, n, want)
		}
		if x != n || y != ^x {
			fail(1, "record %d ends torn: pair (%d, %#x), counter %d", r, x, y, n)
		}
	}
	if out.failed > out.ops {
		out.failed = out.ops
	}
	out.sim = sys.ExecutionSeconds()
	out.total = sys.TotalStats()
	return out
}

// bank is one lock-bank system: the records, one lock bound to each, and
// the start and end barriers.
type bank struct {
	sys         *midway.System
	base        midway.Addr
	locks       []midway.LockID
	start, done midway.BarrierID
}

func (b *bank) rec(r int) midway.Addr { return b.base + midway.Addr(r*recordBytes) }

// newBank builds a lock-bank system for the cell's scheme and engine:
// NewSystem, Alloc, Preset and NewLock.
func newBank(c *lockCell, threads int) (*bank, error) {
	cfg := midway.Config{Nodes: lockNodes, Strategy: strategy(c.Scheme), Sched: c.Sched}
	if c.Sched == "lockstep" {
		cfg.SchedThreads = threads
	}
	sys, err := midway.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	base, err := sys.Alloc("bank", lockRecords*recordBytes, lineBytes)
	if err != nil {
		sys.Close()
		return nil, err
	}
	b := &bank{sys: sys, base: base, locks: make([]midway.LockID, lockRecords)}
	for r := range b.locks {
		sys.PresetU64(b.rec(r)+pairOffset, ^uint64(0))
		b.locks[r] = sys.NewLock(fmt.Sprintf("rec%d", r), midway.RangeAt(b.rec(r), recordBytes))
	}
	b.start, b.done = sys.NewBarrier("start"), sys.NewBarrier("done")
	return b, nil
}
