// Command perfbench is the repository's benchmark.  It runs one seeded
// workload for a fixed time, checks every output, and prints a report
// followed by one JSON line of metrics.  Untraced it prints the end-to-end
// metrics; traced (-trace 1) it prints the per-layer metrics instead.
//
//	go run . -workload paper-rt -seed 1 -seconds 25 -trace 0
//
// Workloads: paper-rt and paper-vm run the paper's five applications at
// 8 nodes under the lockstep engine; locks runs a lock bank under RT on
// the goroutine engine and under VM on the lockstep engine; scale runs
// quicksort and sor at 64 to 256 nodes.  The diagnostic workload
// locks-goroutine runs both lock-bank cells on the goroutine engine.  See
// NOTES.md for the metrics and what each should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// setupShare is how much set-up work follows each timed pass, as a share
// of the pass's CPU time (at least one set-up).  setup_s is the median of
// those set-ups and the first, which counts from process start.  Spread
// over the whole run, the set-ups sample the host as the passes do; taken
// back to back, their median followed the host's speed in that one second.
const setupShare = 0.05

// minPasses is the fewest timed passes a run makes, however short
// -seconds is.
const minPasses = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
	// n is the sample count behind the value and how is how the value
	// was formed from those samples.
	n   int
	how string
	// reportOnly keeps a metric out of the JSON line (NOTES.md says why
	// for each).
	reportOnly bool
}

// fingerprint identifies the host and settings a result was taken on.
type fingerprint struct {
	Workload        string `json:"workload"`
	Seed            int64  `json:"seed"`
	Trace           int    `json:"trace"`
	NProc           int    `json:"nproc"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	LockstepThreads int    `json:"lockstep_threads"`
	CPU             string `json:"cpu"`
	Go              string `json:"go"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "1 for the traced run, which prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	threads := min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fp := fingerprint{
		Workload: *workload, Seed: *seed, Trace: *trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), LockstepThreads: threads,
		CPU: cpuModel(), Go: runtime.Version(),
	}
	fpJSON, _ := json.Marshal(fp) // plain data; cannot fail

	// Set-up: generate the inputs and the expected outputs, timed in
	// process CPU seconds from process start.
	r, err := newRunner(*workload, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	setups := []float64{cpuTime().Seconds()}
	runtime.GC()

	w := bufio.NewWriter(stdout)
	defer w.Flush()
	fmt.Fprintf(w, "fingerprint %s\n", fpJSON)
	fmt.Fprintf(w, "plan %s\n", describePlan(r.plan))

	// The warm-up pass runs the lockstep engine on one thread.  Its
	// results are the reference every timed pass, on all threads, must
	// reproduce exactly.
	r.pass(1, false)

	var ms []metric
	var probes tally
	d := time.Duration(*seconds) * time.Second
	if *trace == 0 {
		ms, err = endToEnd(r, threads, setups, d, func() (*runner, error) { return newRunner(*workload, *seed) })
	} else {
		ms, err = perLayer(r, threads, *seed, d, &probes)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	ms = append(ms, metric{name: "fail_frac", value: r.tally.frac(), unit: "1", n: r.tally.attempted,
		how: fmt.Sprintf("%d of %d operations failed", r.tally.failed, r.tally.attempted), reportOnly: true})
	for _, m := range ms {
		tag := ""
		if m.reportOnly {
			tag = " (report only)"
		}
		fmt.Fprintf(w, "metric %-34s %14.6g %-6s n=%-7d %s%s\n", m.name, m.value, m.unit, m.n, m.how, tag)
	}
	for _, why := range r.tally.why {
		fmt.Fprintf(w, "failure %s\n", why)
	}
	if probes.attempted > 0 {
		fmt.Fprintf(w, "probe cells: %d of %d operations failed\n", probes.failed, probes.attempted)
		for _, why := range probes.why {
			fmt.Fprintf(w, "probe failure %s\n", why)
		}
	}
	line, err := resultJSON(r.tally, ms)
	if err != nil {
		// A metric without samples (NaN) has no JSON form.
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	w.Write(line)
	w.WriteString("\n")
	return 0
}

// resultJSON renders the final line.  A run is correct only when no
// operation failed.
func resultJSON(t tally, ms []metric) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{t.failed == 0, t.attempted, t.failed, map[string]value{}}
	for _, m := range ms {
		if !m.reportOnly {
			out.Metrics[m.name] = value{m.value, m.unit}
		}
	}
	return json.Marshal(out)
}

func describePlan(p *plan) string {
	var parts []string
	for _, c := range p.Apps {
		names := sizeNames[c.App]
		parts = append(parts, fmt.Sprintf("%s/%s/%dn(%s=%d %s=%d)", c.App, c.Scheme, c.Nodes, names[0], c.Size[0], names[1], c.Size[1]))
	}
	for _, c := range p.Locks {
		parts = append(parts, fmt.Sprintf("locks/%s/%s/%dn(records=%d ops=%d)", c.Scheme, c.Sched, lockNodes, lockRecords, c.ops()))
	}
	return strings.Join(parts, " ")
}

// cpuModel reads the host's CPU model name.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// timedPasses runs passes until d has elapsed and at least minPasses
// have run.
func timedPasses(d time.Duration, pass func() passResult) []passResult {
	var out []passResult
	start := time.Now()
	for len(out) < minPasses || time.Since(start) < d {
		out = append(out, pass())
	}
	return out
}

// endToEnd runs the untraced timed passes, each followed by set-ups
// (setupShare), and forms the end-to-end metrics.
func endToEnd(r *runner, threads int, setups []float64, d time.Duration, setup func() (*runner, error)) ([]metric, error) {
	var err error
	passes := timedPasses(d, func() passResult {
		p := r.pass(threads, false)
		budget := time.Duration(setupShare * float64(p.cpu))
		for spent := time.Duration(0); err == nil && spent <= budget; {
			c := cpuTime()
			_, err = setup()
			t := cpuTime() - c
			setups = append(setups, t.Seconds())
			spent += t
			runtime.GC()
		}
		return p
	})
	if err != nil {
		return nil, err
	}
	var host, cpu, alloc, rss, sim, kb []float64
	for _, p := range passes {
		host = append(host, p.host.Seconds())
		cpu = append(cpu, p.cpu.Seconds())
		alloc = append(alloc, float64(p.rt.allocBytes)/1e6)
		rss = append(rss, p.rssPeakMB)
		sim = append(sim, p.sim)
		kb = append(kb, p.kb)
	}
	n := len(passes)
	ms := []metric{
		{name: "setup_s", value: median(setups), unit: "s", n: len(setups), how: "median set-up in process CPU seconds, spread over the run: inputs and oracles from the seed"},
		{name: "cpu_s", value: median(cpu), unit: "s", n: n, how: fmt.Sprintf("median process CPU seconds per verified pass, IQR %.4g", iqr(cpu))},
		{name: "pass_s", value: median(host), unit: "s", n: n, how: fmt.Sprintf("median wall seconds per verified pass, IQR %.4g", iqr(host)), reportOnly: true},
		{name: "alloc_mb", value: median(alloc), unit: "MB", n: n, how: "median host MB allocated per pass"},
		{name: "rss_peak_mb", value: median(rss), unit: "MB", n: n, how: "median over passes of the peak resident set during the pass"},
		{name: "sim_s", value: median(sim), unit: "s", n: n, how: "median simulated seconds per pass"},
		{name: "kb_total", value: median(kb), unit: "KB", n: n, how: "median application data transferred per pass"},
	}
	return append(ms, lockMetrics(passes)...), nil
}

// lockMetrics reports the lock bank per scheme: throughput and the host
// latency of a critical section.  These go to the report only; the JSON
// line carries the metrics every workload has.
func lockMetrics(passes []passResult) []metric {
	var ms []metric
	for _, scheme := range []string{"rt", "vm"} {
		var lat []float64
		var ops int
		var host time.Duration
		for _, p := range passes {
			for _, lr := range p.locks {
				if lr.scheme == scheme {
					lat = append(lat, lr.csMicros...)
					ops += lr.ops
					host += lr.host
				}
			}
		}
		if ops == 0 {
			continue
		}
		ms = append(ms,
			metric{name: scheme + ".cs_per_s", value: float64(ops) / host.Seconds(), unit: "1/s", n: ops, how: "critical sections per host second of System.Run"},
			metric{name: scheme + ".cs_us_p50", value: median(lat), unit: "us", n: len(lat), how: "critical-section host latency, median"},
			metric{name: scheme + ".cs_us_p99", value: quantile(lat, 0.99), unit: "us", n: len(lat), how: tailNote(lat)})
	}
	for i := range ms {
		ms[i].reportOnly = true
	}
	return ms
}
