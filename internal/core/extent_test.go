package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"midway/internal/memory"
	"midway/internal/vmem"
)

// TestPartialLastPageTransfer runs the twin-diff mechanism over a shared
// allocation that is not a page multiple, so its storage ends inside the
// region at the page-rounded extent.  Nodes take turns writing the last,
// partial page (including its final word) under a lock; every acquirer
// must see exactly the oracle's contents.
func TestPartialLastPageTransfer(t *testing.T) {
	const size = 2*vmem.PageSize + 200
	for _, strat := range []Strategy{VM, Hybrid} {
		for _, lockstep := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/lockstep=%v", strat, lockstep), func(t *testing.T) {
				const nodes, rounds = 2, 4
				s, err := NewSystem(Config{Nodes: nodes, Strategy: strat, Lockstep: lockstep})
				if err != nil {
					t.Fatal(err)
				}
				a := s.MustAllocTagged("tail", size, 3, memory.GranCoarse)
				if ext := s.Layout().RegionFor(a).Extent(); ext != 3*vmem.PageSize {
					t.Fatalf("extent = %d, want 3 pages", ext)
				}
				rg := memory.Range{Addr: a, Size: size}
				lock := s.NewLock("tail", rg)
				bar := s.NewBarrier("turn", 0)
				init := make([]byte, size)
				for i := range init {
					init[i] = byte(i*7 + 1)
				}
				s.Preset(a, init)

				// oracle returns the contents after the first r rounds;
				// round r writes three words of the last page and one of
				// the first.
				offs := []uint32{2 * vmem.PageSize, 2*vmem.PageSize + 96, size - 8, 64}
				oracle := func(r int) []byte {
					want := append([]byte(nil), init...)
					for k := 1; k <= r; k++ {
						for j, off := range offs {
							binary.LittleEndian.PutUint64(want[off:], uint64(k*100+j))
						}
					}
					return want
				}
				err = s.Run(func(p *Proc) {
					got := make([]byte, size)
					for r := 1; r <= rounds; r++ {
						if p.ID() == r%nodes {
							p.Acquire(lock)
							p.ReadBytes(rg, got)
							if !bytes.Equal(got, oracle(r-1)) {
								panic(fmt.Sprintf("node %d round %d: acquired contents differ from the oracle", p.ID(), r))
							}
							for j, off := range offs {
								p.WriteU64(a+memory.Addr(off), uint64(r*100+j))
							}
							p.Release(lock)
						}
						p.Barrier(bar)
					}
					if p.ID() == 0 {
						p.Acquire(lock)
						p.ReadBytes(rg, got)
						if !bytes.Equal(got, oracle(rounds)) {
							panic("final acquired contents differ from the oracle")
						}
						p.Release(lock)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				st := s.TotalStats()
				if st.WriteFaults == 0 || st.PagesDiffed == 0 {
					t.Errorf("twin-diff path not exercised: %d faults, %d pages diffed", st.WriteFaults, st.PagesDiffed)
				}
			})
		}
	}
}

// TestProcPastExtentUnmapped: an instrumented access to a region's bytes
// past its extent fails the run with the unmapped-address error.
func TestProcPastExtentUnmapped(t *testing.T) {
	for name, access := range map[string]func(p *Proc, past memory.Addr){
		"load":  func(p *Proc, past memory.Addr) { p.ReadU64(past) },
		"store": func(p *Proc, past memory.Addr) { p.WriteU32(past, 1) },
		"area": func(p *Proc, past memory.Addr) {
			p.WriteBytes(memory.Range{Addr: past - 8, Size: 16}, make([]byte, 16))
		},
	} {
		t.Run(name, func(t *testing.T) {
			s := newTestSystem(t, 1, RT)
			a := s.MustAlloc("x", 100, 3)
			r := s.Layout().RegionFor(a)
			past := r.Base + memory.Addr(r.Extent())
			err := s.Run(func(p *Proc) {
				p.WriteU64(past-8, 1) // the last backed word is mapped
				access(p, past)
			})
			if err == nil || !strings.Contains(err.Error(), "unmapped") {
				t.Errorf("access past the extent: %v, want an unmapped error", err)
			}
		})
	}
}
