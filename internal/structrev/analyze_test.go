package structrev

import (
	"testing"

	"cnnrev/internal/memtrace"
)

func TestAnalyzeRejectsEmptyTrace(t *testing.T) {
	if _, err := Analyze(&memtrace.Trace{BlockBytes: 4}, 100, 4); err == nil {
		t.Fatal("expected error for empty trace")
	}
}

func TestAnalyzeRejectsWriteOnlyTrace(t *testing.T) {
	tr := &memtrace.Trace{BlockBytes: 4, Accesses: []memtrace.Access{
		{Cycle: 0, Addr: 0, Count: 10, Kind: memtrace.Write},
	}}
	if _, err := Analyze(tr, 40, 4); err == nil {
		t.Fatal("expected error for a trace with no reads")
	}
}

func TestAnalyzeRejectsWrongInputSize(t *testing.T) {
	// A minimal two-layer trace whose first region is far smaller than the
	// declared input.
	tr := &memtrace.Trace{BlockBytes: 4, Accesses: []memtrace.Access{
		{Cycle: 0, Addr: 0, Count: 4, Kind: memtrace.Read},      // "input"
		{Cycle: 1, Addr: 8192, Count: 4, Kind: memtrace.Read},   // weights
		{Cycle: 2, Addr: 16384, Count: 4, Kind: memtrace.Write}, // OFM
		{Cycle: 3, Addr: 16384, Count: 4, Kind: memtrace.Read},  // next layer IFM
		{Cycle: 4, Addr: 24576, Count: 4, Kind: memtrace.Read},  // next weights
		{Cycle: 5, Addr: 32768, Count: 2, Kind: memtrace.Write}, // next OFM
	}}
	if _, err := Analyze(tr, 10000, 4); err == nil {
		t.Fatal("expected input-size mismatch error")
	}
}

// TestAnalyzeSyntheticTwoLayer verifies segmentation on a hand-built trace
// with known ground truth.
func TestAnalyzeSyntheticTwoLayer(t *testing.T) {
	const (
		input = uint64(0)     // 64 bytes
		w1    = uint64(8192)  // 32 bytes
		ofm1  = uint64(16384) // 48 bytes
		w2    = uint64(24576) // 16 bytes
		ofm2  = uint64(32768) // 8 bytes
	)
	tr := &memtrace.Trace{BlockBytes: 4, Accesses: []memtrace.Access{
		{Cycle: 0, Addr: input, Count: 16, Kind: memtrace.Read},
		{Cycle: 1, Addr: w1, Count: 8, Kind: memtrace.Read},
		{Cycle: 10, Addr: ofm1, Count: 12, Kind: memtrace.Write},
		// Layer 2 begins: first read of freshly written ofm1.
		{Cycle: 20, Addr: ofm1, Count: 12, Kind: memtrace.Read},
		{Cycle: 21, Addr: w2, Count: 4, Kind: memtrace.Read},
		{Cycle: 22, Addr: ofm1, Count: 12, Kind: memtrace.Read}, // tiled re-read
		{Cycle: 30, Addr: ofm2, Count: 2, Kind: memtrace.Write},
	}}
	a, err := Analyze(tr, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Segments) != 2 {
		t.Fatalf("%d segments, want 2", len(a.Segments))
	}
	s0, s1 := a.Segments[0], a.Segments[1]
	if s0.WeightsBytes != 32 || s1.WeightsBytes != 16 {
		t.Fatalf("weights: %d, %d", s0.WeightsBytes, s1.WeightsBytes)
	}
	if s0.OFMBytes != 48 || s1.OFMBytes != 8 {
		t.Fatalf("OFMs: %d, %d", s0.OFMBytes, s1.OFMBytes)
	}
	if s1.StartCycle != 20 {
		t.Fatalf("layer 2 starts at %d, want 20", s1.StartCycle)
	}
	if len(s1.Inputs) != 1 || s1.Inputs[0].Producer != 0 || s1.Inputs[0].Bytes != 48 {
		t.Fatalf("layer 2 inputs: %+v", s1.Inputs)
	}
	if len(s0.Inputs) != 1 || s0.Inputs[0].Producer != -1 {
		t.Fatalf("layer 1 inputs: %+v", s0.Inputs)
	}
}

func TestClipAndOverlapHelpers(t *testing.T) {
	a := memtrace.Interval{Lo: 10, Hi: 20}
	b := memtrace.Interval{Lo: 15, Hi: 30}
	if c := clip(a, b); c != (memtrace.Interval{Lo: 15, Hi: 20}) {
		t.Fatalf("clip = %+v", c)
	}
	if c := clip(a, memtrace.Interval{Lo: 25, Hi: 30}); c.Bytes() != 0 {
		t.Fatalf("disjoint clip should be empty, got %+v", c)
	}
	sorted := []memtrace.Interval{{Lo: 0, Hi: 10}, {Lo: 20, Hi: 30}}
	if !overlapsAny(sorted, memtrace.Interval{Lo: 25, Hi: 26}) {
		t.Fatal("overlapsAny missed a hit")
	}
	if overlapsAny(sorted, memtrace.Interval{Lo: 10, Hi: 20}) {
		t.Fatal("overlapsAny false positive in the gap")
	}
}

func TestRegionIndex(t *testing.T) {
	regions := []memtrace.Interval{{Lo: 0, Hi: 100}, {Lo: 200, Hi: 300}}
	cases := []struct {
		addr uint64
		want int
	}{{0, 0}, {99, 0}, {100, -1}, {150, -1}, {200, 1}, {299, 1}, {300, -1}}
	for _, tc := range cases {
		if got := regionIndex(regions, tc.addr); got != tc.want {
			t.Errorf("regionIndex(%d) = %d, want %d", tc.addr, got, tc.want)
		}
	}
}

// descendingWritesTrace is the hostile write order for dependency
// attribution: one layer reads a 4 KiB input and 4 KiB of filters, then
// writes n single blocks in descending address order with a one-block hole
// between neighbours, and the next layer issues one read spanning them all.
// Every region lies within a few MiB of the others and consecutive regions
// are blocks apart, so the tolerant path keeps them all (far below
// FarFieldBytes) and both analyzers reach the dependency step.
func descendingWritesTrace(n int) *memtrace.Trace {
	const bb = 4
	const outBase = 16384
	accs := make([]memtrace.Access, 0, n+3)
	accs = append(accs,
		memtrace.Access{Cycle: 0, Addr: 0, Count: 1024, Kind: memtrace.Read},
		memtrace.Access{Cycle: 1, Addr: 8192, Count: 1024, Kind: memtrace.Read})
	for i := 0; i < n; i++ {
		addr := outBase + uint64(n-1-i)*2*bb
		accs = append(accs, memtrace.Access{Cycle: uint64(2 + i), Addr: addr, Count: 1, Kind: memtrace.Write})
	}
	accs = append(accs, memtrace.Access{Cycle: uint64(2 + n), Addr: outBase, Count: uint32(2*n - 1), Kind: memtrace.Read})
	return &memtrace.Trace{BlockBytes: bb, Accesses: accs}
}

// TestAnalyzeDescendingWrites: a million-record trace of descending
// single-block writes read back by one spanning read. Attribution that
// re-scans or splices earlier writes per read is quadratic here (40k
// records once took 22 s); both analyzers must finish quickly and credit
// every written byte to the writing layer. Under the race detector 2^16
// records keep the quadratic case far out of reach.
func TestAnalyzeDescendingWrites(t *testing.T) {
	records := 1 << 20
	if raceEnabled {
		records = 1 << 16
	}
	n := records - 3
	tr := descendingWritesTrace(n)
	for _, tolerant := range []bool{false, true} {
		var a *Analysis
		var err error
		if tolerant {
			a, err = AnalyzeTolerant(tr, 4096, 4, TolerantOptions{})
		} else {
			a, err = Analyze(tr, 4096, 4)
		}
		if err != nil {
			t.Fatalf("tolerant=%v: %v", tolerant, err)
		}
		if len(a.Segments) != 2 {
			t.Fatalf("tolerant=%v: %d segments, want 2", tolerant, len(a.Segments))
		}
		want := []SegInput{{Producer: 0, Bytes: uint64(n) * 4}}
		if got := a.Segments[1].Inputs; len(got) != 1 || got[0] != want[0] {
			t.Fatalf("tolerant=%v: reader inputs %+v, want %+v", tolerant, got, want)
		}
	}
}
