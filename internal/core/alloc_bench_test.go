package core

import (
	"testing"

	"zipr/internal/ir"
)

// benchSpace builds n free blocks of varying sizes separated by
// one-byte holes, the fragmentation shape a pin-dense rewrite produces.
func benchSpace(n int) []ir.Range {
	blocks := make([]ir.Range, 0, n)
	addr := uint32(0x1000)
	for i := 0; i < n; i++ {
		size := uint32(8 + (i*7)%120)
		blocks = append(blocks, ir.Range{Start: addr, End: addr + size})
		addr += size + 1
	}
	return blocks
}

// BenchmarkAllocCarveRelease measures the indexed allocator on a mixed
// workload over 10k fragmented blocks: a fit query, a carve of the
// result, and periodic releases.
func BenchmarkAllocCarveRelease(b *testing.B) {
	blocks := benchSpace(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := AllocFromBlocks(blocks)
		var carved []ir.Range
		for j := 0; j < 2048; j++ {
			size := 4 + j%24
			blk, ok := a.NearestFit(uint32(0x1000+j*37), size)
			if !ok {
				break
			}
			r := ir.Range{Start: blk.Start, End: blk.Start + uint32(size)}
			if err := a.Carve(r); err != nil {
				b.Fatal(err)
			}
			carved = append(carved, r)
			if j%4 == 3 {
				last := carved[len(carved)-1]
				carved = carved[:len(carved)-1]
				a.Release(last)
			}
		}
	}
}

// BenchmarkAllocNearestFit measures the hot placement query alone on
// the indexed allocator.
func BenchmarkAllocNearestFit(b *testing.B) {
	a := AllocFromBlocks(benchSpace(10_000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := a.NearestFit(uint32(0x1000+i*61), 16); !ok {
			b.Fatal("no fit")
		}
	}
}
