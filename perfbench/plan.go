package main

import (
	"fmt"
	"math"

	"midway"
	"midway/internal/apps"
	"midway/internal/apps/cholesky"
	"midway/internal/apps/matmul"
	"midway/internal/apps/qsort"
	"midway/internal/apps/sor"
	"midway/internal/apps/water"
)

// appCell is one run of a paper application: the program, its input size,
// the node count, the detection scheme, and the input seed.  Size holds the
// application's size parameters in the order sizeNames gives.
type appCell struct {
	App    string
	Nodes  int
	Scheme string
	Seed   int64
	Size   [2]int
}

// sizeNames documents appCell.Size per application.
var sizeNames = map[string][2]string{
	"water":     {"molecules", "steps"},
	"quicksort": {"elements", "threshold"},
	"matrix":    {"n", "-"},
	"sor":       {"m", "iterations"},
	"cholesky":  {"n", "band"},
}

// paperApps lists the applications in the paper's column order.
var paperApps = []string{"water", "quicksort", "matrix", "sor", "cholesky"}

// paperSizes sit between the repository's medium and paper scales so that
// no application dominates a pass: water at the paper's size, the others
// cut until each takes a few hundred host milliseconds at 8 nodes.
// Quicksort's bubblesort threshold is halved from the medium scale's: the
// leaf sorts' cost grows with the square of the leaf size, which the
// pivots, and so the seed, decide.
var paperSizes = map[string][2]int{
	"water":     {343, 5},
	"quicksort": {48000, 250},
	"matrix":    {256, 0},
	"sor":       {512, 12},
	"cholesky":  {600, 32},
}

// scaleGrid is the -exp scaling grid of the evaluation CLI at its medium
// input sizes, RT only, with sor cut to 4 iterations to keep a pass near
// four host seconds and quicksort's threshold halved as in paperSizes.
var scaleGrid = []struct {
	app   string
	nodes int
	size  [2]int
}{
	{"quicksort", 64, [2]int{24000, 250}},
	{"quicksort", 128, [2]int{24000, 250}},
	{"quicksort", 256, [2]int{24000, 250}},
	{"sor", 64, [2]int{256, 4}},
	{"sor", 128, [2]int{256, 4}},
}

// The lock bank's sizes.  A record is two lineBytes-byte cache lines: the
// first word of the invariant pair and the counter in the first line, the
// second word of the pair at pairOffset in the second.  Records are
// packed back to back, 64 to a 4 KB page, so under VM every page holds
// data of many locks.  Records never share a line: RT keeps one dirtybit
// timestamp per line, which cannot order two locks' writes to one line
// (the false-sharing limit of the paper's scheme).
const (
	lockNodes    = 8
	lockRecords  = 256
	recordBytes  = 64
	pairOffset   = 56
	lineBytes    = 32
	opsPerNode   = 1500
	computeCycle = 2000
	zipfExponent = 1.2
	hotMillis    = 600
)

// lockOp is one critical section: the record it targets and whether it is
// an exclusive read-modify-write (else a shared-mode read).
type lockOp struct {
	Record    uint16
	Exclusive bool
}

// lockCell is one lock-bank run under one scheme and engine, with every
// node's operation stream.
type lockCell struct {
	Scheme  string
	Sched   string
	Streams [][]lockOp
	// want is each record's expected final counter, computed at set-up.
	want []uint64
}

// plan is everything a workload runs, generated from the seed alone.
type plan struct {
	Apps  []appCell
	Locks []lockCell
}

// mix derives an independent stream seed from the workload seed (one
// splitmix64 step), so each program sees inputs that depend only on the
// seed and its own index.
func mix(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

// workloads lists the benchmark's workloads.
var workloads = []string{"paper-rt", "paper-vm", "locks", "scale"}

// makePlan generates the workload's inputs from the seed.
func makePlan(workload string, seed int64) (*plan, error) {
	p := &plan{}
	switch workload {
	case "paper-rt", "paper-vm":
		scheme := "rt"
		if workload == "paper-vm" {
			scheme = "vm"
		}
		for i, app := range paperApps {
			p.Apps = append(p.Apps, appCell{App: app, Nodes: 8, Scheme: scheme, Seed: mix(seed, i), Size: paperSizes[app]})
		}
	case "scale":
		for i, g := range scaleGrid {
			// Each cell gets its own input, so a pass's total is not
			// hostage to one unlucky quicksort pivot sequence.
			p.Apps = append(p.Apps, appCell{App: g.app, Nodes: g.nodes, Scheme: "rt", Seed: mix(seed, 10+i), Size: g.size})
		}
	case "locks", "locks-goroutine":
		// RT runs on the goroutine engine, where the protocol handler
		// runs concurrently with the application.  VM runs on the
		// lockstep engine: on the goroutine engine it loses updates (the
		// collector diffs a page while the application stores to it; see
		// ROADMAP), which the diagnostic workload locks-goroutine shows.
		for i, scheme := range []string{"rt", "vm"} {
			sched := "goroutine"
			if scheme == "vm" && workload == "locks" {
				sched = "lockstep"
			}
			p.Locks = append(p.Locks, lockCell{Scheme: scheme, Sched: sched, Streams: lockStreams(mix(seed, 100+i))})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v, or locks-goroutine)", workload, workloads)
	}
	return p, nil
}

// lockStreams draws every node's operations: a record by a Zipf draw over
// a seeded permutation of the records (so the hot records are scattered
// over the pages), mixed with a draw from the node's own slice of the
// records as in the skew application; half the operations exclusive.
func lockStreams(seed int64) [][]lockOp {
	rnd := apps.NewRand(seed)
	perm := make([]int, lockRecords)
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := rnd.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	cdf := make([]float64, lockRecords)
	sum := 0.0
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), zipfExponent)
		cdf[r] = sum
	}
	draw := func(u float64) int {
		x := u * sum
		lo, hi := 0, len(cdf)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] <= x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	per := lockRecords / lockNodes
	out := make([][]lockOp, lockNodes)
	for n := range out {
		ops := make([]lockOp, opsPerNode)
		for i := range ops {
			var rec int
			if rnd.Intn(1000) < hotMillis {
				rec = n*per + draw(rnd.Float64())%per
			} else {
				rec = perm[draw(rnd.Float64())]
			}
			ops[i] = lockOp{Record: uint16(rec), Exclusive: rnd.Intn(2) == 0}
		}
		out[n] = ops
	}
	return out
}

// expectedCounts returns each record's final counter value: the number of
// exclusive operations that target it.
func (c *lockCell) expectedCounts() []uint64 {
	want := make([]uint64, lockRecords)
	for _, s := range c.Streams {
		for _, op := range s {
			if op.Exclusive {
				want[op.Record]++
			}
		}
	}
	return want
}

// ops returns the number of critical sections in the cell.
func (c *lockCell) ops() int {
	n := 0
	for _, s := range c.Streams {
		n += len(s)
	}
	return n
}

func strategy(scheme string) midway.Strategy {
	if scheme == "vm" {
		return midway.VM
	}
	return midway.RT
}

// program binds a cell's configuration to its application: run executes
// the cell on the DSM (the application checks its result against its own
// sequential oracle and returns an error on a mismatch), and oracle
// computes the expected checksum by calling the sequential oracle
// directly, without the DSM.
type program struct {
	run    func(midway.Config) (apps.Result, error)
	oracle func() float64
}

func programFor(c appCell) (program, error) {
	switch c.App {
	case "water":
		cfg := water.Paper()
		cfg.N, cfg.Steps, cfg.Seed = c.Size[0], c.Size[1], c.Seed
		return program{
			run:    func(m midway.Config) (apps.Result, error) { return water.Run(m, cfg) },
			oracle: func() float64 { return water.Checksum(water.Sequential(cfg)) },
		}, nil
	case "quicksort":
		cfg := qsort.Paper()
		cfg.N, cfg.Threshold, cfg.Seed = c.Size[0], c.Size[1], c.Seed
		return program{
			run:    func(m midway.Config) (apps.Result, error) { return qsort.Run(m, cfg) },
			oracle: func() float64 { return qsort.Checksum(qsort.Sequential(cfg)) },
		}, nil
	case "matrix":
		cfg := matmul.Paper()
		cfg.N, cfg.Seed = c.Size[0], c.Seed
		return program{
			run:    func(m midway.Config) (apps.Result, error) { return matmul.Run(m, cfg) },
			oracle: func() float64 { return matmul.Checksum(matmul.Sequential(cfg)) },
		}, nil
	case "sor":
		cfg := sor.Paper()
		cfg.M, cfg.Iters, cfg.Seed = c.Size[0], c.Size[1], c.Seed
		return program{
			run:    func(m midway.Config) (apps.Result, error) { return sor.Run(m, cfg) },
			oracle: func() float64 { return sor.Checksum(sor.Sequential(cfg)) },
		}, nil
	case "cholesky":
		cfg := cholesky.Paper()
		cfg.N, cfg.Band, cfg.Seed = c.Size[0], c.Size[1], c.Seed
		return program{
			run:    func(m midway.Config) (apps.Result, error) { return cholesky.Run(m, cfg) },
			oracle: func() float64 { return cholesky.Checksum(cfg, cholesky.Sequential(cfg)) },
		}, nil
	}
	return program{}, fmt.Errorf("unknown application %q", c.App)
}
