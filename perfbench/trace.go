package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"time"

	"midway/internal/stats"
)

// perLayer is the traced run.  It alternates three kinds of pass until d
// has elapsed: untraced on every lockstep thread, traced (CPU profile and
// lock-bank spans), and, on lockstep workloads, untraced on one thread.
// It then times the layer primitives and forms the per-layer metrics, the
// Table 1 ledger and the tracing overhead.  Operations of the probe cells
// it adds (a lock-bank pass, a quicksort cell) are counted in probes, apart
// from the workload's.
func perLayer(r *runner, threads int, seed int64, d time.Duration, probes *tally) ([]metric, error) {
	lockstep := len(r.plan.Apps) > 0
	kinds := 2
	if lockstep {
		kinds = 3
	}
	var plain, traced, single []passResult
	leaves := map[string]int64{}
	start := time.Now()
	for i := 0; i < kinds*minPasses || time.Since(start) < d; i++ {
		switch i % kinds {
		case 0:
			plain = append(plain, r.pass(threads, false))
		case 1:
			var buf bytes.Buffer
			if err := pprof.StartCPUProfile(&buf); err != nil {
				return nil, fmt.Errorf("cpu profile: %w", err)
			}
			p := r.pass(threads, true)
			pprof.StopCPUProfile()
			got, err := leafSamples(buf.Bytes())
			if err != nil {
				return nil, err
			}
			for fn, n := range got {
				leaves[fn] += n
			}
			traced = append(traced, p)
		case 2:
			single = append(single, r.pass(1, false))
		}
	}

	prims, err := runProbes()
	if err != nil {
		return nil, err
	}
	unit := map[string]float64{}
	var ms []metric
	for _, p := range prims {
		unit[p.name] = median(p.samples)
		ms = append(ms, metric{name: p.name, value: median(p.samples), unit: p.unit, n: len(p.samples),
			how: fmt.Sprintf("Table 1 probe, IQR %.4g: %s", iqr(p.samples), p.note)})
	}

	// Lock-bank spans: from the workload's own traced passes on locks,
	// else from one traced lock-bank pass generated from the same seed.
	bankPasses := traced
	if len(r.plan.Locks) == 0 {
		lr, err := newRunner("locks", seed)
		if err != nil {
			return nil, err
		}
		bankPasses = []passResult{lr.pass(threads, true)}
		probes.add(lr.tally.attempted, lr.tally.failed, lr.tally.why...)
	}
	ms = append(ms, spanMetrics(bankPasses)...)

	// Engine rate and thread speedup: from the workload's passes on
	// lockstep workloads, else from a 64-node quicksort cell.
	steps, ones := plain, single
	if !lockstep {
		steps, ones = nil, nil
		sr, err := prepare(&plan{Apps: []appCell{{App: "quicksort", Nodes: 64, Scheme: "rt", Seed: mix(seed, 1), Size: scaleGrid[0].size}}})
		if err != nil {
			return nil, err
		}
		for i := 0; i < minPasses; i++ {
			ones = append(ones, sr.pass(1, false))
			steps = append(steps, sr.pass(threads, false))
		}
		probes.add(sr.tally.attempted, sr.tally.failed, sr.tally.why...)
	}
	var rate, stepSecs, oneSecs []float64
	for _, p := range steps {
		rate = append(rate, p.simNodeC/p.stepHost.Seconds()/1e6)
		stepSecs = append(stepSecs, p.stepHost.Seconds())
	}
	for _, p := range ones {
		oneSecs = append(oneSecs, p.stepHost.Seconds())
	}
	ms = append(ms,
		metric{name: "sched.node_mcycles_per_s", value: median(rate), unit: "Mcycle/s", n: len(rate), how: "simulated node-cycles per host second of lockstep cells"},
		metric{name: "sched.thread_speedup", value: median(oneSecs) / median(stepSecs), unit: "x", n: len(oneSecs) + len(stepSecs),
			how: fmt.Sprintf("lockstep cell time at 1 thread over time at %d threads", threads)})

	// Counts, per pass, from the untraced passes.
	med := func(f func(p passResult) float64) float64 {
		var xs []float64
		for _, p := range plain {
			xs = append(xs, f(p))
		}
		return median(xs)
	}
	count := func(name string, f func(s stats.Snapshot) uint64) metric {
		return metric{name: name, value: med(func(p passResult) float64 { return float64(f(p.total)) }), unit: "count", n: len(plain), how: "per pass, median"}
	}
	ms = append(ms,
		count("core.lock_transfers", func(s stats.Snapshot) uint64 { return s.LockTransfers }),
		count("core.barrier_crossings", func(s stats.Snapshot) uint64 { return s.BarrierCrossings }),
		count("detect.dirtybits_set", func(s stats.Snapshot) uint64 { return s.DirtybitsSet }),
		count("detect.dirtybits_read", func(s stats.Snapshot) uint64 { return s.CleanDirtybitsRead + s.DirtyDirtybitsRead }),
		count("detect.bytes_transferred", func(s stats.Snapshot) uint64 { return s.BytesTransferred }),
		count("vmem.write_faults", func(s stats.Snapshot) uint64 { return s.WriteFaults }),
		count("vmem.twin_bytes", func(s stats.Snapshot) uint64 { return s.TwinBytesUpdated }),
		count("diff.pages_diffed", func(s stats.Snapshot) uint64 { return s.PagesDiffed }),
		count("diff.runs", func(s stats.Snapshot) uint64 { return s.DiffRuns }),
		count("transport.messages", func(s stats.Snapshot) uint64 { return s.Messages }),
		count("transport.message_bytes", func(s stats.Snapshot) uint64 { return s.MessageBytes }),
	)
	var setupMs []float64
	for _, p := range bankPasses {
		for _, lr := range p.locks {
			setupMs = append(setupMs, float64(lr.setup.Microseconds())/1e3)
		}
	}
	ms = append(ms, metric{name: "memory.setup_ms", value: median(setupMs), unit: "ms", n: len(setupMs), how: "NewSystem+Alloc+Preset+NewLock of one lock-bank cell"})

	for _, app := range paperApps {
		ms = append(ms, metric{name: "apps.cell_ms." + app, value: med(func(p passResult) float64 { return float64(p.appHost[app].Microseconds()) / 1e3 }),
			unit: "ms", n: len(plain), how: "host ms per pass in this application's cells (0: not in the workload)"})
	}
	var oracle time.Duration
	for _, t := range r.oracleTime {
		oracle += t
	}
	ms = append(ms, metric{name: "apps.oracle_ms", value: float64(oracle.Microseconds()) / 1e3, unit: "ms", n: len(r.oracleTime),
		how: "sequential oracles of one pass's cells, called directly"})

	ms = append(ms,
		metric{name: "runtime.allocs", value: med(func(p passResult) float64 { return float64(p.rt.mallocs) }), unit: "count", n: len(plain), how: "heap objects allocated per pass"},
		metric{name: "runtime.gc_cycles", value: med(func(p passResult) float64 { return float64(p.rt.gcCycles) }), unit: "count", n: len(plain), how: "GC cycles per pass"},
		metric{name: "runtime.gc_pause_ms", value: med(func(p passResult) float64 { return float64(p.rt.gcPause.Microseconds()) / 1e3 }), unit: "ms", n: len(plain), how: "stop-the-world pause per pass"},
		metric{name: "runtime.gc_cpu_frac", value: med(func(p passResult) float64 {
			if p.rt.totalCPU <= 0 {
				return 0
			}
			return p.rt.gcCPU / p.rt.totalCPU
		}), unit: "1", n: len(plain), how: "GC share of the runtime's CPU estimate"},
	)

	shares := moduleShares(leaves)
	var nsamples int64
	for _, n := range leaves {
		nsamples += n
	}
	for _, m := range modules {
		ms = append(ms, metric{name: "self." + m, value: shares[m], unit: "1", n: int(nsamples), how: "share of CPU-profile samples whose leaf is in the module"})
	}

	passS := med(func(p passResult) float64 { return p.host.Seconds() })
	terms := ledger(unit, med, oracle)
	predicted := 0.0
	for _, t := range terms {
		predicted += t.seconds
		ms = append(ms, metric{name: "ledger.term." + t.name, value: t.seconds, unit: "s", n: len(plain),
			how: fmt.Sprintf("%.4g invocations x %.4g s", t.count, t.unit), reportOnly: true})
	}
	var tracedS []float64
	for _, p := range traced {
		tracedS = append(tracedS, p.host.Seconds())
	}
	ms = append(ms,
		metric{name: "ledger.pass_s", value: passS, unit: "s", n: len(plain), how: "measured: median untraced pass", reportOnly: true},
		metric{name: "ledger.predicted_s", value: predicted, unit: "s", n: len(plain), how: "sum of primitive cost x counted invocations, per pass"},
		metric{name: "ledger.overhead_frac", value: 1 - predicted/passS, unit: "1", n: len(plain), how: "1 - predicted_s / pass_s"},
		metric{name: "trace.overhead_frac", value: median(tracedS)/passS - 1, unit: "1", n: len(tracedS), how: "traced pass over untraced pass, minus 1"},
	)
	return ms, nil
}

// ledgerTerm is one primitive's share of a pass: its host cost times the
// number of times the pass invoked it.
type ledgerTerm struct {
	name        string
	unit, count float64
	seconds     float64
}

// ledger applies the paper's Table 1 x Table 2 method to host time.
// Channel round trips are charged only where messages travel over
// channels: in lock-bank cells on the goroutine engine.
func ledger(c map[string]float64, med func(func(passResult) float64) float64, oracle time.Duration) []ledgerTerm {
	per := func(f func(s stats.Snapshot) uint64) float64 {
		return med(func(p passResult) float64 { return float64(f(p.total)) })
	}
	msgs := per(func(s stats.Snapshot) uint64 { return s.Messages })
	pages := per(func(s stats.Snapshot) uint64 { return s.PagesDiffed })
	terms := []ledgerTerm{
		{name: "dirtybit_set", unit: c["detect.trap_ns"] * 1e-9, count: per(func(s stats.Snapshot) uint64 { return s.DirtybitsSet })},
		{name: "dirtybit_read", unit: c["detect.scan_ns_per_line"] * 1e-9, count: per(func(s stats.Snapshot) uint64 { return s.CleanDirtybitsRead + s.DirtyDirtybitsRead })},
		{name: "fault_twin", unit: c["vmem.fault_twin_us"] * 1e-6, count: per(func(s stats.Snapshot) uint64 { return s.WriteFaults })},
		{name: "page_diff", unit: c["diff.page_us"] * 1e-6, count: pages},
		{name: "diff_apply", unit: c["diff.apply_us"] * 1e-6, count: pages},
		{name: "block_copy_kb", unit: c["memory.block_copy_ns_per_kb"] * 1e-9, count: per(func(s stats.Snapshot) uint64 { return s.BytesTransferred }) / 1024},
		{name: "codec", unit: (c["proto.encode_ns"] + c["proto.decode_ns"]) * 1e-9, count: msgs},
		{name: "oracle", unit: oracle.Seconds(), count: 1},
	}
	if hops := med(func(p passResult) float64 { return p.chanMsgs }); hops > 0 {
		terms = append(terms, ledgerTerm{name: "channel_hop", unit: c["transport.chan_rtt_us"] / 2 * 1e-6, count: hops})
	}
	for i := range terms {
		terms[i].seconds = terms[i].unit * terms[i].count
	}
	return terms
}

// spanMetrics summarizes the lock bank's per-call spans per scheme.
func spanMetrics(passes []passResult) []metric {
	var ms []metric
	for _, scheme := range []string{"rt", "vm"} {
		var sp callSpans
		for _, p := range passes {
			for _, lr := range p.locks {
				if lr.scheme == scheme {
					for k := range sp {
						sp[k] = append(sp[k], lr.spans[k]...)
					}
				}
			}
		}
		us := func(k callKind, q float64) float64 { return quantile(sp[k], q) / 1e3 }
		pre := scheme + ".core."
		add := func(name string, v float64, unit string, k callKind, how string) {
			ms = append(ms, metric{name: pre + name, value: v, unit: unit, n: len(sp[k]), how: how})
		}
		add("store_ns", median(sp[callStore]), "ns", callStore, "Proc.WriteU64, median")
		add("load_ns", median(sp[callLoad]), "ns", callLoad, "Proc.ReadU64, median")
		for _, c := range []struct {
			name string
			k    callKind
		}{{"acquire_us", callAcquire}, {"acquire_shared_us", callAcquireShared}, {"release_us", callRelease}} {
			add(c.name+".p50", us(c.k, 0.5), "us", c.k, "median")
			add(c.name+".p99", us(c.k, 0.99), "us", c.k, tailNote(sp[c.k]))
		}
		add("barrier_us.p50", us(callBarrier, 0.5), "us", callBarrier, "median")
	}
	return ms
}
