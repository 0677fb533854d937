package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
)

func TestTailPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{99, 75, true},
		{100, 90, true},
		{999, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		p, v, ok := tailPercentile(seq(c.n))
		if ok != c.ok || (ok && p != c.want) {
			t.Errorf("n=%d: percentile %v ok=%v, want %v ok=%v", c.n, p, ok, c.want, c.ok)
			continue
		}
		if !ok {
			continue
		}
		// At least ten samples lie beyond the reported value.
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: p%v = %v has %d samples beyond it", c.n, p, v, beyond)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := iqr(xs); got != 2 {
		t.Errorf("iqr = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

// encode serializes the plan, operation streams included, so two
// generations can be compared byte for byte.
func (p *plan) encode() []byte {
	b, err := json.Marshal(p)
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	return b
}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := makePlan(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makePlan(w, 7)
		c, _ := makePlan(w, 8)
		if !bytes.Equal(a.encode(), b.encode()) {
			t.Errorf("%s: seed 7 generated different inputs twice", w)
		}
		if bytes.Equal(a.encode(), c.encode()) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", w)
		}
	}
}

// TestFailureCounting checks that a wrong output is counted as a failed
// operation, by running cells against deliberately wrong expected values.
func TestFailureCounting(t *testing.T) {
	t.Run("lock bank", func(t *testing.T) {
		r, err := newRunner("locks", 3)
		if err != nil {
			t.Fatal(err)
		}
		c := &r.plan.Locks[0] // RT
		c.want[5]++
		lr := runLockCell(c, 1, false)
		if lr.failed != 1 {
			t.Errorf("failed = %d, want 1 (the one wrong counter): %v", lr.failed, lr.why)
		}
	})
	t.Run("application cell", func(t *testing.T) {
		cell := appCell{App: "sor", Nodes: 2, Scheme: "rt", Seed: 5, Size: [2]int{32, 2}}
		r, err := prepare(&plan{Apps: []appCell{cell}})
		if err != nil {
			t.Fatal(err)
		}
		r.pass(1, false)
		if r.tally.attempted != 1 || r.tally.failed != 0 {
			t.Fatalf("correct cell: %+v", r.tally)
		}
		good := r.want[0]
		r.want[0] *= 1.001
		r.pass(1, false)
		if r.tally.attempted != 2 || r.tally.failed != 1 {
			t.Errorf("wrong oracle: %+v, want 1 of 2 failed", r.tally)
		}
		r.want[0] = good
		r.ref[0].sim++
		r.pass(2, false)
		if r.tally.attempted != 3 || r.tally.failed != 2 {
			t.Errorf("wrong reference: %+v, want 2 of 3 failed", r.tally)
		}
	})
}

// Protobuf encoding for a synthetic profile.

func pbVarint(b []byte, num int, v uint64) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func pbBytes(b []byte, num int, msg []byte) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(msg)))
	return append(b, msg...)
}

func pbPacked(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// syntheticProfile builds a gzipped profile.  Each sample is a stack of
// function names, leaf first, with a count; a name of the form "a|b"
// makes one location with a inlined into b.
func syntheticProfile(t *testing.T, samples []struct {
	stack []string
	count uint64
}) []byte {
	strs := []string{""}
	str := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var msg []byte
	funcs := map[string]uint64{}
	fn := func(name string) uint64 {
		if id, ok := funcs[name]; ok {
			return id
		}
		id := uint64(len(funcs) + 1)
		funcs[name] = id
		var f []byte
		f = pbVarint(f, 1, id)
		f = pbVarint(f, 2, str(name))
		msg = pbBytes(msg, 5, f)
		return id
	}
	locs := map[string]uint64{}
	loc := func(frame string) uint64 {
		if id, ok := locs[frame]; ok {
			return id
		}
		id := uint64(len(locs) + 1)
		locs[frame] = id
		var l []byte
		l = pbVarint(l, 1, id)
		for _, name := range bytes.Split([]byte(frame), []byte("|")) {
			l = pbBytes(l, 4, pbVarint(nil, 1, fn(string(name))))
		}
		msg = pbBytes(msg, 4, l)
		return id
	}
	for _, s := range samples {
		var ids []uint64
		for _, f := range s.stack {
			ids = append(ids, loc(f))
		}
		var sm []byte
		sm = pbBytes(sm, 1, pbPacked(ids...))
		sm = pbBytes(sm, 2, pbPacked(s.count, s.count*10_000_000))
		msg = pbBytes(msg, 2, sm)
	}
	for _, s := range strs {
		msg = pbBytes(msg, 6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestModuleBucketing(t *testing.T) {
	prof := syntheticProfile(t, []struct {
		stack []string
		count uint64
	}{
		{[]string{"midway/internal/detect.rtTrap", "midway/internal/core.(*Proc).WriteU64", "main.main"}, 30},
		{[]string{"midway/internal/memory.(*Instance).WriteU64|midway/internal/core.(*Proc).WriteU64", "main.main"}, 10},
		{[]string{"midway.(*Proc).Acquire", "main.main"}, 5},
		{[]string{"midway/internal/stats.(*Node).Snapshot"}, 5},
		{[]string{"midway/internal/apps/qsort.Run.func1"}, 20},
		{[]string{"runtime.mallocgc", "midway/internal/diff.Compute"}, 15},
		{[]string{"internal/runtime/maps.(*Map).getWithKey"}, 5},
		{[]string{"sync.(*Mutex).Lock"}, 10},
	})
	leaves, err := leafSamples(prof)
	if err != nil {
		t.Fatal(err)
	}
	if got := leaves["midway/internal/memory.(*Instance).WriteU64"]; got != 10 {
		t.Errorf("inlined leaf has %d samples, want 10: %v", got, leaves)
	}
	got := moduleShares(leaves)
	want := map[string]float64{
		"detect": 0.30, "memory": 0.10, "core": 0.10, "apps": 0.20,
		"runtime": 0.20, "other": 0.10,
	}
	for _, m := range modules {
		if math.Abs(got[m]-want[m]) > 1e-12 {
			t.Errorf("self.%s = %v, want %v", m, got[m], want[m])
		}
	}
	if _, err := leafSamples(prof[:len(prof)/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}
