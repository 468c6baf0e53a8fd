package structrev

import (
	"bytes"
	"math/rand"
	"testing"

	"cnnrev/internal/accel"
	"cnnrev/internal/corrupt"
	"cnnrev/internal/memtrace"
	"cnnrev/internal/nn"
)

// FuzzAnalyze feeds arbitrary serialized traces through the analyzer: it
// must never panic, only return errors or well-formed analyses.
func FuzzAnalyze(f *testing.F) {
	// Seed: a minimal valid two-layer trace.
	seed := &memtrace.Trace{BlockBytes: 4, Accesses: []memtrace.Access{
		{Cycle: 0, Addr: 0, Count: 16, Kind: memtrace.Read},
		{Cycle: 1, Addr: 8192, Count: 8, Kind: memtrace.Read},
		{Cycle: 10, Addr: 16384, Count: 12, Kind: memtrace.Write},
		{Cycle: 20, Addr: 16384, Count: 12, Kind: memtrace.Read},
		{Cycle: 21, Addr: 24576, Count: 4, Kind: memtrace.Read},
		{Cycle: 30, Addr: 32768, Count: 2, Kind: memtrace.Write},
	}}
	var buf bytes.Buffer
	if err := seed.Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes(), 64)
	f.Add([]byte{}, 1)

	f.Fuzz(func(t *testing.T, raw []byte, inputBytes int) {
		tr, err := memtrace.ReadTrace(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if tr.BlockBytes <= 0 || tr.BlockBytes > 1<<20 || len(tr.Accesses) > 10000 {
			return
		}
		// Align addresses and bound counts so the trace is structurally
		// plausible; the analyzer still sees arbitrary patterns.
		for i := range tr.Accesses {
			tr.Accesses[i].Addr -= tr.Accesses[i].Addr % uint64(tr.BlockBytes)
			if tr.Accesses[i].Count > 1<<16 {
				tr.Accesses[i].Count %= 1 << 16
			}
			if tr.Accesses[i].Count == 0 {
				tr.Accesses[i].Count = 1
			}
			tr.Accesses[i].Kind &= 1
		}
		if inputBytes <= 0 {
			inputBytes = 1
		}
		a, err := Analyze(tr, inputBytes%(1<<20), 4)
		if err != nil {
			return
		}
		// Well-formedness: segments ordered, producers precede consumers.
		for i, seg := range a.Segments {
			if seg.Index != i {
				t.Fatalf("segment %d has index %d", i, seg.Index)
			}
			for _, in := range seg.Inputs {
				if in.Producer >= i {
					t.Fatalf("segment %d depends on later segment %d", i, in.Producer)
				}
			}
		}
		// Solving may fail but must not panic.
		_, _ = Solve(a, 8, 1, 10, DefaultOptions())
	})
}

// FuzzAnalyzeHostile is the untrusted-boundary contract: ANY buffer the
// trace codec accepts — no structural normalization, however adversarial the
// access pattern — must flow through the tolerant analyzer without a panic,
// producing either an error or well-formed segments. This is the property
// the revcnnd trace endpoint relies on.
func FuzzAnalyzeHostile(f *testing.F) {
	addSeed := func(tr *memtrace.Trace) {
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), 64, int64(0))
	}
	// A minimal plausible two-layer trace.
	addSeed(&memtrace.Trace{BlockBytes: 4, Accesses: []memtrace.Access{
		{Cycle: 0, Addr: 0, Count: 16, Kind: memtrace.Read},
		{Cycle: 1, Addr: 8192, Count: 8, Kind: memtrace.Read},
		{Cycle: 10, Addr: 16384, Count: 12, Kind: memtrace.Write},
		{Cycle: 20, Addr: 16384, Count: 12, Kind: memtrace.Read},
		{Cycle: 30, Addr: 32768, Count: 2, Kind: memtrace.Write},
	}})
	// Crash-corpus seeds: extents hugging the top of the address space (the
	// decode overflow guard's boundary), zero-ish geometry, duplicate and
	// interleaved regions, and a write-only trace.
	top := ^uint64(0)
	addSeed(&memtrace.Trace{BlockBytes: 64, Accesses: []memtrace.Access{
		{Cycle: 0, Addr: top - 64*16 + 1, Count: 16, Kind: memtrace.Read},
		{Cycle: 1, Addr: top - 64, Count: 1, Kind: memtrace.Write},
	}})
	addSeed(&memtrace.Trace{BlockBytes: 1, Accesses: []memtrace.Access{
		{Cycle: top, Addr: top - 1, Count: 1, Kind: memtrace.Read},
		{Cycle: top, Addr: 0, Count: 1, Kind: memtrace.Write},
		{Cycle: 0, Addr: top - 1, Count: 1, Kind: memtrace.Write},
	}})
	addSeed(&memtrace.Trace{BlockBytes: 8, Accesses: []memtrace.Access{
		{Cycle: 0, Addr: 4096, Count: 512, Kind: memtrace.Write},
		{Cycle: 1, Addr: 4096, Count: 512, Kind: memtrace.Write},
		{Cycle: 2, Addr: 4096, Count: 512, Kind: memtrace.Read},
		{Cycle: 2, Addr: 4100, Count: 512, Kind: memtrace.Read},
	}})
	// Regression seed: a >= 2^63 cycle span with corruption enabled used to
	// panic interference injection's Int63n (span cast to a non-positive
	// int64). Needs a nonzero corrupt seed — the other seeds skip Apply.
	{
		tr := &memtrace.Trace{BlockBytes: 64, Accesses: []memtrace.Access{
			{Cycle: 0, Addr: 0, Count: 1, Kind: memtrace.Read},
			{Cycle: 1 << 63, Addr: 4096, Count: 1, Kind: memtrace.Write},
		}}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), 64, int64(1))
	}
	// Hostile write order for dependency attribution: descending
	// single-block writes with holes, then one read spanning them (see
	// TestAnalyzeDescendingWrites), with its 4 KiB input size declared.
	{
		var buf bytes.Buffer
		if err := descendingWritesTrace(512).Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), 4096, int64(0))
	}
	f.Add([]byte{}, 1, int64(0))

	f.Fuzz(func(t *testing.T, raw []byte, inputBytes int, corruptSeed int64) {
		tr, err := memtrace.DecodeTrace(raw)
		if err != nil {
			return
		}
		if len(tr.Accesses) > 4096 {
			return // bound fuzz iteration cost, not the property
		}
		if inputBytes <= 0 {
			inputBytes = 1
		}
		inputBytes %= 1 << 20

		// Optionally push the hostile trace through the corruption models
		// too: Apply must also be total on codec-accepted traces. The block
		// bound keeps per-exec regranulation cost in fuzzing budget; Apply's
		// own maxRegranRecords guard covers the unbounded case.
		if corruptSeed != 0 && tr.Blocks() <= 1<<20 {
			tr = corrupt.Apply(tr, corrupt.Config{
				Seed: corruptSeed, DropRate: 0.05, SplitRate: 0.1,
				CoalesceRate: 0.1, ReorderWindow: 32, InterferenceRate: 0.1,
			})
		}

		opt := DefaultOptions()
		opt.MaxStructures = 200
		for _, tolerant := range []bool{false, true} {
			var a *Analysis
			var err error
			if tolerant {
				a, err = AnalyzeTolerant(tr, inputBytes, 4, TolerantOptions{})
			} else {
				a, err = Analyze(tr, inputBytes, 4)
			}
			if err != nil {
				continue
			}
			for i, seg := range a.Segments {
				if seg.Index != i {
					t.Fatalf("tolerant=%v: segment %d has index %d", tolerant, i, seg.Index)
				}
				for _, in := range seg.Inputs {
					if in.Producer >= i {
						t.Fatalf("tolerant=%v: segment %d depends on later segment %d", tolerant, i, in.Producer)
					}
				}
			}
			// Solving may reject the geometry but must not panic.
			_, _ = Solve(a, 8, 1, 10, opt)
		}
	})
}

// FuzzDataflowDetect drives hostile traces through the full untrusted
// pipeline the daemon exposes — detect, analyze, solve — and checks two
// properties: nothing panics, and the detector only ever returns one of its
// four classes with votes indexing real segments. It reuses the hostile
// extent corpus (top-of-address-space regions, 2^63 cycle spans, duplicate
// regions) plus per-dataflow golden captures as seeds.
func FuzzDataflowDetect(f *testing.F) {
	addSeed := func(tr *memtrace.Trace) {
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), 64, int64(0))
	}
	// Minimal plausible two-layer trace.
	addSeed(&memtrace.Trace{BlockBytes: 4, Accesses: []memtrace.Access{
		{Cycle: 0, Addr: 0, Count: 16, Kind: memtrace.Read},
		{Cycle: 1, Addr: 8192, Count: 8, Kind: memtrace.Read},
		{Cycle: 10, Addr: 16384, Count: 12, Kind: memtrace.Write},
		{Cycle: 20, Addr: 16384, Count: 12, Kind: memtrace.Read},
		{Cycle: 30, Addr: 32768, Count: 2, Kind: memtrace.Write},
	}})
	// Hostile-extent corpus (shared with FuzzAnalyzeHostile).
	top := ^uint64(0)
	addSeed(&memtrace.Trace{BlockBytes: 64, Accesses: []memtrace.Access{
		{Cycle: 0, Addr: top - 64*16 + 1, Count: 16, Kind: memtrace.Read},
		{Cycle: 1, Addr: top - 64, Count: 1, Kind: memtrace.Write},
	}})
	addSeed(&memtrace.Trace{BlockBytes: 1, Accesses: []memtrace.Access{
		{Cycle: top, Addr: top - 1, Count: 1, Kind: memtrace.Read},
		{Cycle: top, Addr: 0, Count: 1, Kind: memtrace.Write},
		{Cycle: 0, Addr: top - 1, Count: 1, Kind: memtrace.Write},
	}})
	addSeed(&memtrace.Trace{BlockBytes: 8, Accesses: []memtrace.Access{
		{Cycle: 0, Addr: 4096, Count: 512, Kind: memtrace.Write},
		{Cycle: 1, Addr: 4096, Count: 512, Kind: memtrace.Write},
		{Cycle: 2, Addr: 4096, Count: 512, Kind: memtrace.Read},
		{Cycle: 2, Addr: 4100, Count: 512, Kind: memtrace.Read},
	}})
	addSeed(&memtrace.Trace{BlockBytes: 64, Accesses: []memtrace.Access{
		{Cycle: 0, Addr: 0, Count: 1, Kind: memtrace.Read},
		{Cycle: 1 << 63, Addr: 4096, Count: 1, Kind: memtrace.Write},
	}})
	// Honest per-dataflow captures, so mutation starts from traces that carry
	// each backend's real interleaving signature.
	for _, df := range []accel.Dataflow{accel.OutputStationary, accel.WeightStationary, accel.RowStationary} {
		net := nn.LeNet(10)
		net.InitWeights(1)
		sim, err := accel.New(net, accel.Config{Dataflow: df})
		if err != nil {
			f.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		x := make([]float32, net.Input.Len())
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		res, err := sim.Run(x)
		if err != nil {
			f.Fatal(err)
		}
		addSeed(res.Trace)
	}
	f.Add([]byte{}, 1, int64(0))

	f.Fuzz(func(t *testing.T, raw []byte, inputBytes int, corruptSeed int64) {
		tr, err := memtrace.DecodeTrace(raw)
		if err != nil {
			return
		}
		if len(tr.Accesses) > 4096 {
			return // bound fuzz iteration cost, not the property
		}
		if inputBytes <= 0 {
			inputBytes = 1
		}
		inputBytes %= 1 << 20
		if corruptSeed != 0 && tr.Blocks() <= 1<<20 {
			tr = corrupt.Apply(tr, corrupt.Config{
				Seed: corruptSeed, DropRate: 0.05, SplitRate: 0.1,
				CoalesceRate: 0.1, ReorderWindow: 32, InterferenceRate: 0.1,
			})
		}

		// Detection must be total even on mismatched trace/analysis pairs.
		if det := DetectDataflow(tr, &Analysis{}, DetectOptions{}); det.Class != DataflowAmbiguous {
			t.Fatalf("empty analysis classified as %v", det.Class)
		}

		opt := DefaultOptions()
		opt.MaxStructures = 200
		for _, tolerant := range []bool{false, true} {
			var a *Analysis
			var err error
			if tolerant {
				a, err = AnalyzeTolerant(tr, inputBytes, 4, TolerantOptions{})
			} else {
				a, err = Analyze(tr, inputBytes, 4)
			}
			if err != nil {
				continue
			}
			det := DetectDataflow(tr, a, DetectOptions{})
			switch det.Class {
			case DataflowAmbiguous, DataflowOutputStationary, DataflowWeightStationary, DataflowRowStationary:
			default:
				t.Fatalf("tolerant=%v: detector invented class %d", tolerant, int(det.Class))
			}
			if len(det.Votes) != len(a.Segments) {
				t.Fatalf("tolerant=%v: %d votes for %d segments", tolerant, len(det.Votes), len(a.Segments))
			}
			for _, v := range det.Votes {
				if v.Segment < 0 || v.Segment >= len(a.Segments) {
					t.Fatalf("tolerant=%v: vote references segment %d of %d", tolerant, v.Segment, len(a.Segments))
				}
			}
			// Solving downstream of detection must not panic either.
			_, _ = Solve(a, 8, 1, 10, opt)
		}
	})
}

// FuzzEnumerateLayer checks the solver never panics and always emits
// configurations satisfying the size equations, for arbitrary size inputs.
func FuzzEnumerateLayer(f *testing.F) {
	f.Add(28, 1, 1176, 150, false)
	f.Add(227, 3, 69984, 34848, false)
	f.Add(6, 256, 4096, 37748736, true)
	f.Fuzz(func(t *testing.T, wIFM, dIFM, sizeOFM, sizeFltr int, last bool) {
		if wIFM <= 0 || wIFM > 300 || dIFM <= 0 || dIFM > 1024 {
			return
		}
		if sizeOFM <= 0 || sizeOFM > 1<<22 || sizeFltr <= 0 || sizeFltr > 1<<26 {
			return
		}
		for _, c := range EnumerateLayer(wIFM, dIFM, sizeOFM, sizeFltr, last, 10, DefaultOptions()) {
			if c.WOFM*c.WOFM*c.DOFM != sizeOFM {
				t.Fatalf("Eq2 violated by %s", c.String())
			}
			if c.F*c.F*c.DIFM*c.DOFM != sizeFltr {
				t.Fatalf("Eq3 violated by %s", c.String())
			}
		}
	})
}
