package peephole_test

import (
	"testing"

	"aviv/internal/bench"
	"aviv/internal/cover"
	"aviv/internal/isdl"
	"aviv/internal/peephole"
)

// BenchmarkPeepholeDiskStitch measures the pass on the work a disk-tier
// stitch gives it: the pre-peephole coverings of 8 programs of 25 blocks
// of 12 ops on the example machine (the shape of the perfbench
// programs). One op optimizes one block covering.
func BenchmarkPeepholeDiskStitch(b *testing.B) {
	m, err := isdl.Parse(isdl.ExampleArchFullISDL)
	if err != nil {
		b.Fatal(err)
	}
	var sols []*cover.Solution
	for p := int64(0); p < 8; p++ {
		sols = append(sols, preCoverings(b, bench.MultiBlockSource(1000+p, 25, 12), m)...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = peephole.Optimize(sols[i%len(sols)])
	}
}

// benchSink keeps the benchmarked call from being optimized away.
var benchSink *cover.Solution
