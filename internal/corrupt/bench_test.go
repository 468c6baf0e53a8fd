package corrupt

import (
	"testing"

	"cnnrev/internal/memtrace"
)

// streamingTrace returns n probe-sized records (16 blocks each) streaming
// upward through an input and an output region, three reads to a write,
// with monotonic cycles: the shape a regranulated capture has.
func streamingTrace(n int) *memtrace.Trace {
	const (
		region = 1 << 26
		burst  = 16
	)
	tr := &memtrace.Trace{BlockBytes: 64, Accesses: make([]memtrace.Access, n)}
	for i := range tr.Accesses {
		kind, base := memtrace.Read, uint64(1<<30)
		if i%4 == 3 {
			kind, base = memtrace.Write, 1<<30+2*region
		}
		off := uint64(i/4) * burst * 64 % region
		tr.Accesses[i] = memtrace.Access{Cycle: uint64(i) * 8, Addr: base + off, Count: burst, Kind: kind}
	}
	return tr
}

// BenchmarkApply corrupts a 2^20-record streaming trace under the two
// probe models of the noisy-probe benchmark workload.
func BenchmarkApply(b *testing.B) {
	tr := streamingTrace(1 << 20)
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"interference-0.05-reorder-16", Config{Seed: 1, InterferenceRate: 0.05, ReorderWindow: 16}},
		{"drop-0.01-reorder-16", Config{Seed: 1, DropRate: 0.01, ReorderWindow: 16}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Apply(tr, bc.cfg)
			}
		})
	}
}
