package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"midway"
	"midway/internal/apps"
	"midway/internal/cost"
	"midway/internal/stats"
)

// cellKey is the part of a lockstep cell's result that must repeat
// exactly: across passes and across engine thread counts.
type cellKey struct {
	sim      float64
	kb       uint64
	messages uint64
	checksum float64
}

func keyOf(r apps.Result) cellKey {
	return cellKey{r.Seconds, r.Total.BytesTransferred, r.Total.Messages, r.Checksum}
}

// checksumTolerance is the relative tolerance between a cell's checksum
// and the one computed from the sequential oracle: the applications' own
// per-element tolerance, which absorbs parallel reassociation.
const checksumTolerance = 1e-6

// runner holds a workload's generated inputs and the expected outputs,
// and runs passes over its cells.
type runner struct {
	plan  *plan
	progs []program
	// want is each application cell's oracle checksum; oracleTime what
	// computing it took.
	want       []float64
	oracleTime []time.Duration
	// ref is each application cell's result from the reference pass; a
	// later pass must reproduce it exactly.
	ref   []*cellKey
	tally tally
}

// newRunner is one set-up: it generates the plan from the seed and
// prepares it.
func newRunner(workload string, seed int64) (*runner, error) {
	p, err := makePlan(workload, seed)
	if err != nil {
		return nil, err
	}
	return prepare(p)
}

// prepare computes every application cell's expected checksum by calling
// the application's sequential oracle, and every lock-bank record's
// expected counter.
func prepare(p *plan) (*runner, error) {
	r := &runner{plan: p}
	for _, c := range p.Apps {
		prog, err := programFor(c)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		want := prog.oracle()
		r.oracleTime = append(r.oracleTime, time.Since(t))
		r.progs = append(r.progs, prog)
		r.want = append(r.want, want)
		r.ref = append(r.ref, nil)
	}
	for i := range p.Locks {
		p.Locks[i].want = p.Locks[i].expectedCounts()
	}
	if len(p.Locks) > 0 {
		// One lock-bank system built and torn down: the program's own
		// set-up work for a cell.
		bk, err := newBank(&p.Locks[0], 1)
		if err != nil {
			return nil, err
		}
		bk.sys.Close()
	}
	return r, nil
}

// passResult is one pass over a workload's cells.
type passResult struct {
	host     time.Duration
	sim      float64
	kb       float64
	total    stats.Snapshot
	appHost  map[string]time.Duration
	locks    []lockResult
	rt       runtimeDelta
	simNodeC float64 // nodes × simulated cycles over lockstep cells
	// chanMsgs counts the messages of lock-bank cells on the goroutine
	// engine, the ones that travel over channels.
	chanMsgs float64
	stepHost time.Duration
	// rssPeakMB is the largest resident set seen during the pass.
	rssPeakMB float64
	// cpu is the process's user plus system CPU time during the pass.
	cpu time.Duration
}

// runtimeDelta is what the Go runtime did during a pass.
type runtimeDelta struct {
	allocBytes, mallocs uint64
	gcCycles            uint32
	gcPause             time.Duration
	gcCPU, totalCPU     float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

type runtimeMark struct {
	ms        runtime.MemStats
	gc, total float64
}

func markRuntime() runtimeMark {
	var m runtimeMark
	runtime.ReadMemStats(&m.ms)
	metrics.Read(cpuSamples)
	m.gc, m.total = cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
	return m
}

func (a runtimeMark) to(b runtimeMark) runtimeDelta {
	return runtimeDelta{
		allocBytes: b.ms.TotalAlloc - a.ms.TotalAlloc,
		mallocs:    b.ms.Mallocs - a.ms.Mallocs,
		gcCycles:   b.ms.NumGC - a.ms.NumGC,
		gcPause:    time.Duration(b.ms.PauseTotalNs - a.ms.PauseTotalNs),
		gcCPU:      b.gc - a.gc,
		totalCPU:   b.total - a.total,
	}
}

// pass runs every cell once, one at a time, checking each output.
// threads is the lockstep engine's thread count; traced turns on the lock
// bank's per-call spans.  Every failure is counted in the runner's tally:
// a run error, a panic, an oracle or checksum mismatch, a difference from
// the reference pass, a torn read or a lost increment.
func (r *runner) pass(threads int, traced bool) passResult {
	runtime.GC()
	out := passResult{appHost: map[string]time.Duration{}}
	rss := watchRSS()
	m0 := markRuntime()
	c0 := cpuTime()
	t0 := time.Now()
	for i, c := range r.plan.Apps {
		res, host, err := runCell(r.progs[i], c, threads)
		out.appHost[c.App] += host
		name := fmt.Sprintf("%s/%s/%dn", c.App, c.Scheme, c.Nodes)
		if err != nil {
			r.tally.add(1, 1, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		out.sim += res.Seconds
		out.kb += float64(res.Total.BytesTransferred) / 1024
		out.total.Add(res.Total)
		out.simNodeC += float64(c.Nodes) * res.Seconds * cost.CyclesPerMicrosecond * 1e6
		out.stepHost += host
		k := keyOf(res)
		switch {
		case !apps.CloseEnough(res.Checksum, r.want[i], checksumTolerance):
			r.tally.add(1, 1, fmt.Sprintf("%s: checksum %v, oracle %v", name, res.Checksum, r.want[i]))
		case r.ref[i] == nil:
			r.ref[i] = &k
			r.tally.add(1, 0)
		case *r.ref[i] != k:
			r.tally.add(1, 1, fmt.Sprintf("%s at %d threads: not deterministic: %+v, reference %+v", name, threads, k, *r.ref[i]))
		default:
			r.tally.add(1, 0)
		}
	}
	for i := range r.plan.Locks {
		c := &r.plan.Locks[i]
		lr := runLockCell(c, threads, traced)
		r.tally.add(lr.ops, lr.failed, lr.why...)
		if c.Sched == "goroutine" {
			out.chanMsgs += float64(lr.total.Messages)
		}
		out.sim += lr.sim
		out.kb += float64(lr.total.BytesTransferred) / 1024
		out.total.Add(lr.total)
		out.locks = append(out.locks, lr)
	}
	out.host = time.Since(t0)
	out.cpu = cpuTime() - c0
	out.rt = m0.to(markRuntime())
	out.rssPeakMB = rss.stop()
	return out
}

// runCell runs one application cell under the lockstep engine, turning a
// panic into an error.
func runCell(prog program, c appCell, threads int) (res apps.Result, host time.Duration, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	mcfg := midway.Config{Nodes: c.Nodes, Strategy: strategy(c.Scheme), Sched: "lockstep", SchedThreads: threads}
	t := time.Now()
	res, err = prog.run(mcfg)
	return res, time.Since(t), err
}

// rssWatch samples the process's resident set every few milliseconds
// and keeps the largest value.
type rssWatch struct {
	quit chan struct{}
	peak chan float64
}

func watchRSS() *rssWatch {
	w := &rssWatch{quit: make(chan struct{}), peak: make(chan float64, 1)}
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		w.peak <- 0
		return w
	}
	go func() {
		defer f.Close()
		buf := make([]byte, 128)
		page := float64(os.Getpagesize())
		read := func() float64 {
			n, _ := f.ReadAt(buf, 0) // io.EOF at the end of the short file
			fields := strings.Fields(string(buf[:n]))
			if len(fields) < 2 {
				return 0
			}
			pages, _ := strconv.ParseFloat(fields[1], 64)
			return pages * page / 1e6
		}
		peak := read()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.quit:
				w.peak <- max(peak, read())
				return
			case <-tick.C:
				peak = max(peak, read())
			}
		}
	}()
	return w
}

// stop ends the sampling and returns the peak in MB (0 where the
// resident set cannot be read).
func (w *rssWatch) stop() float64 {
	close(w.quit)
	return <-w.peak
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
