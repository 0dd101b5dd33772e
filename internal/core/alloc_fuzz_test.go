package core

import (
	"fmt"
	"testing"

	"zipr/internal/ir"
)

// FuzzAlloc checks the indexed allocator against a per-byte model: a
// []bool marking which bytes of the 0x10000-byte fuzz range are free.
// The input bytes drive a sequence of carve/release operations applied
// to both. After every operation the allocator's block list must equal
// the model's maximal free runs, its byte and block counts must match,
// and the tree invariants must hold; a battery of Space queries
// (parameterized from the same input bytes) must agree with a brute-
// force answer computed over the runs.
func FuzzAlloc(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0x10, 0x00, 8, 0, 0x40, 0x00, 16, 1, 0, 0})
	f.Add([]byte{0, 0x00, 0x00, 1, 0, 0x01, 0x00, 1, 1, 0, 1, 1, 0, 0})
	f.Add([]byte{
		0, 0x00, 0x10, 32, 0, 0x00, 0x30, 32, 0, 0x00, 0x20, 32,
		1, 0, 1, 1, 0, 0, 1, 0, 0,
	})
	// FindWithin at region boundaries: carve [0x100,0x120), then probe
	// windows that straddle the carved region's edges — one clipped by
	// the hole's start (too-small remainder), one starting just inside
	// the hole and reaching the free block beyond it, and one opening
	// exactly at the hole's end (the first free byte). compareQueries
	// demands the indexed tree agree with the model on every clipped
	// window.
	f.Add([]byte{
		0, 0x00, 0x01, 0x1f, // carve [0x100, 0x120)
		2, 0xfe, 0x00, 7, // window [0xfe, 0x11f): only 2 free bytes before the hole
		2, 0x18, 0x01, 3, // window [0x118, 0x129): fit begins at the hole's end
		2, 0x20, 0x01, 0xff, // window opening exactly at the first free byte
	})
	// NearestFit tie: carve [0x10, 0x20), leaving free blocks starting at
	// 0 and 0x20, then probe hint 0x10, equidistant from both starts;
	// the lower-addressed block must win.
	f.Add([]byte{
		0, 0x10, 0x00, 0x0f, // carve [0x10, 0x20)
		2, 0x10, 0x00, 3, // NearestFit(0x10, 4)
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		whole := ir.Range{Start: 0, End: 0x10000}
		free := make([]bool, whole.End) // the model: free[a] for every free byte a
		for a := range free {
			free[a] = true
		}
		idx := NewAlloc(whole, nil)
		var carved []ir.Range

		// runs returns the model's maximal free runs in address order:
		// exactly what the allocator's blocks must be.
		runs := func() []ir.Range {
			var rs []ir.Range
			for a := uint32(0); a < whole.End; {
				if !free[a] {
					a++
					continue
				}
				start := a
				for a < whole.End && free[a] {
					a++
				}
				rs = append(rs, ir.Range{Start: start, End: a})
			}
			return rs
		}
		allFree := func(r ir.Range) bool {
			if r.Start >= r.End || r.End > whole.End {
				return false
			}
			for a := r.Start; a < r.End; a++ {
				if !free[a] {
					return false
				}
			}
			return true
		}
		setFree := func(r ir.Range, v bool) {
			for a := r.Start; a < r.End; a++ {
				free[a] = v
			}
		}

		u16 := func(i int) uint32 { return uint32(data[i]) | uint32(data[i+1])<<8 }
		check := func(op string) {
			t.Helper()
			if err := idx.checkInvariants(); err != nil {
				t.Fatalf("after %s: %v", op, err)
			}
			want, got := runs(), idx.Blocks()
			if len(want) != len(got) {
				t.Fatalf("after %s: %d blocks, model has %d free runs", op, len(got), len(want))
			}
			total := 0
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("after %s: block %d = %+v, model run %+v", op, i, got[i], want[i])
				}
				total += int(want[i].Len())
			}
			if idx.TotalFree() != total || idx.NumBlocks() != len(want) {
				t.Fatalf("after %s: TotalFree %d, NumBlocks %d; model %d, %d",
					op, idx.TotalFree(), idx.NumBlocks(), total, len(want))
			}
		}
		compareQueries := func(addr uint32, size int) {
			t.Helper()
			rs := runs()
			sz := uint32(size)
			type q struct {
				name     string
				wb, gb   ir.Range
				wok, gok bool
			}
			var qs []q
			add := func(name string, wb ir.Range, wok bool, gb ir.Range, gok bool) {
				qs = append(qs, q{name, wb, gb, wok, gok})
			}

			// Largest: the first run of maximal length.
			var wb ir.Range
			wok := false
			for _, r := range rs {
				if !wok || r.Len() > wb.Len() {
					wb, wok = r, true
				}
			}
			gb, gok := idx.Largest()
			add("Largest", wb, wok, gb, gok)

			// LowestFit / HighestFit: the first / last fitting run.
			wb, wok = ir.Range{}, false
			for _, r := range rs {
				if r.Len() >= sz {
					wb, wok = r, true
					break
				}
			}
			gb, gok = idx.LowestFit(size)
			add("LowestFit", wb, wok, gb, gok)
			wb, wok = ir.Range{}, false
			for i := len(rs) - 1; i >= 0; i-- {
				if rs[i].Len() >= sz {
					wb, wok = rs[i], true
					break
				}
			}
			gb, gok = idx.HighestFit(size)
			add("HighestFit", wb, wok, gb, gok)

			// BestFit: the smallest fitting run, the lowest-addressed
			// one among equals.
			wb, wok = ir.Range{}, false
			for _, r := range rs {
				if r.Len() >= sz && (!wok || r.Len() < wb.Len()) {
					wb, wok = r, true
				}
			}
			gb, gok = idx.BestFit(size)
			add("BestFit", wb, wok, gb, gok)

			// NearestFit: the fitting run whose start is closest to
			// addr, the lower-addressed one among equidistant pairs.
			wb, wok = ir.Range{}, false
			var bestDist int64
			for _, r := range rs {
				if r.Len() < sz {
					continue
				}
				d := int64(r.Start) - int64(addr)
				if d < 0 {
					d = -d
				}
				if !wok || d < bestDist {
					wb, wok, bestDist = r, true, d
				}
			}
			gb, gok = idx.NearestFit(addr, size)
			add("NearestFit", wb, wok, gb, gok)

			// BlockStartingAt: the run that begins exactly at addr.
			wb, wok = ir.Range{}, false
			for _, r := range rs {
				if r.Start == addr {
					wb, wok = r, true
				}
			}
			gb, gok = idx.BlockStartingAt(addr)
			add("BlockStartingAt", wb, wok, gb, gok)

			// FindWithin: clip each run to the window, then take the
			// first clipped span of at least size bytes; the answer is
			// its first size bytes.
			win := ir.Range{Start: addr, End: addr + sz*4 + 1}
			wb, wok = ir.Range{}, false
			for _, r := range rs {
				lo, hi := max(r.Start, win.Start), min(r.End, win.End)
				if hi > lo && hi-lo >= sz {
					wb, wok = ir.Range{Start: lo, End: lo + sz}, true
					break
				}
			}
			gb, gok = idx.FindWithin(win, sz)
			add("FindWithin", wb, wok, gb, gok)

			for _, c := range qs {
				if c.wok != c.gok || (c.wok && c.wb != c.gb) {
					t.Fatalf("%s(addr=%#x, size=%d) = %+v, %v; model %+v, %v",
						c.name, addr, size, c.gb, c.gok, c.wb, c.wok)
				}
			}
			// VisitFits walks exactly the fitting runs, in address order.
			var fits []ir.Range
			idx.VisitFits(size, func(b ir.Range) bool {
				fits = append(fits, b)
				return true
			})
			k := 0
			for _, r := range rs {
				if r.Len() < sz {
					continue
				}
				if k >= len(fits) || fits[k] != r {
					t.Fatalf("VisitFits(%d) = %+v; model fitting runs differ at %+v", size, fits, r)
				}
				k++
			}
			if k != len(fits) {
				t.Fatalf("VisitFits(%d) = %+v: %d extra blocks", size, fits, len(fits)-k)
			}
		}

		for i := 0; i+3 < len(data); {
			op := data[i]
			switch op % 3 {
			case 0: // carve [addr, addr+size)
				addr := u16(i + 1)
				size := uint32(data[i+3]) + 1
				i += 4
				r := ir.Range{Start: addr, End: addr + size}
				wantOK := allFree(r)
				err := idx.Carve(r)
				if (err == nil) != wantOK {
					t.Fatalf("Carve(%+v): err %v, but model says every byte free = %v", r, err, wantOK)
				}
				if wantOK {
					setFree(r, false)
					carved = append(carved, r)
				}
				check(fmt.Sprintf("Carve(%+v)", r))
			case 1: // release a previously carved range
				k := int(u16(i + 1))
				i += 3
				if len(carved) == 0 {
					continue
				}
				k %= len(carved)
				r := carved[k]
				carved = append(carved[:k], carved[k+1:]...)
				setFree(r, true)
				idx.Release(r)
				check(fmt.Sprintf("Release(%+v)", r))
			default: // query probe
				addr := u16(i + 1)
				size := int(data[i+3]) + 1
				i += 4
				compareQueries(addr, size)
			}
		}
		// Final sweep: release everything, expect one whole block again.
		for _, r := range carved {
			setFree(r, true)
			idx.Release(r)
		}
		check("final release sweep")
		if idx.NumBlocks() != 1 || idx.TotalFree() != int(whole.Len()) {
			t.Fatalf("round trip left %d blocks, %d free", idx.NumBlocks(), idx.TotalFree())
		}
	})
}
