package corrupt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"cnnrev/internal/memtrace"
)

// testTrace builds a deterministic victim-like trace: a few contiguous
// regions of multi-block bursts with monotonic cycles.
func testTrace() *memtrace.Trace {
	tr := &memtrace.Trace{BlockBytes: 64}
	cycle := uint64(100)
	addr := uint64(1 << 20)
	for region := 0; region < 4; region++ {
		for i := 0; i < 50; i++ {
			kind := memtrace.Read
			if i%3 == 0 {
				kind = memtrace.Write
			}
			count := uint32(1 + i%7)
			tr.Accesses = append(tr.Accesses, memtrace.Access{
				Cycle: cycle, Addr: addr, Count: count, Kind: kind,
			})
			addr += uint64(count) * 64
			cycle += uint64(3 + i%5)
		}
		addr += 1 << 16 // guard gap between regions
	}
	return tr
}

func traceBytes(t *testing.T, tr *memtrace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

// TestZeroConfigIsByteIdentical pins the acceptance criterion that rate-0
// corruption leaves traces byte-for-byte unchanged.
func TestZeroConfigIsByteIdentical(t *testing.T) {
	tr := testTrace()
	want := traceBytes(t, tr)
	got := traceBytes(t, Apply(tr, Config{Seed: 42}))
	if !bytes.Equal(want, got) {
		t.Fatal("zero-effect Config changed the trace bytes")
	}
	if Config.Enabled(Config{Seed: 99}) {
		t.Fatal("seed alone must not enable corruption")
	}
}

// TestValidate pins the request-surface bounds: rates in [0,1] and finite,
// counts within what Apply runs in bounded memory, errors naming the knob.
func TestValidate(t *testing.T) {
	if err := (Config{Seed: -5, DropRate: 1, ReorderWindow: 1 << 20, InterferenceRegions: 64}).Validate(); err != nil {
		t.Fatalf("in-bounds config rejected: %v", err)
	}
	for _, c := range []struct {
		cfg  Config
		name string
	}{
		{Config{DropRate: 2}, "drop_rate"},
		{Config{DropRate: math.NaN()}, "drop_rate"},
		{Config{SplitRate: math.Inf(1)}, "split_rate"},
		{Config{CoalesceRate: -0.1}, "coalesce_rate"},
		{Config{InterferenceRate: math.NaN()}, "interference_rate"},
		{Config{ReorderWindow: -1}, "reorder_window"},
		{Config{InterferenceRegions: 65}, "interference_regions"},
		{Config{ProbeGranularityBlocks: 1<<20 + 1}, "probe_granularity_blocks"},
	} {
		if err := c.cfg.Validate(); err == nil || !strings.HasPrefix(err.Error(), c.name+" ") {
			t.Errorf("%+v: err = %v, want one naming %s", c.cfg, err, c.name)
		}
	}
}

// TestEqualSeedsCorruptIdentically pins determinism: equal (trace, Config)
// pairs produce byte-identical corrupted traces; different seeds differ.
func TestEqualSeedsCorruptIdentically(t *testing.T) {
	cfg := Config{
		Seed: 7, DropRate: 0.05, SplitRate: 0.2, CoalesceRate: 0.2,
		ReorderWindow: 8, InterferenceRate: 0.1,
	}
	a := traceBytes(t, Apply(testTrace(), cfg))
	b := traceBytes(t, Apply(testTrace(), cfg))
	if !bytes.Equal(a, b) {
		t.Fatal("equal seeds produced different corruption")
	}
	cfg.Seed = 8
	c := traceBytes(t, Apply(testTrace(), cfg))
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical corruption")
	}
}

// TestApplyDoesNotMutateInput verifies the input trace is untouched even
// with every model enabled (dropRecords reuses backing arrays of its own
// copy, never the caller's).
func TestApplyDoesNotMutateInput(t *testing.T) {
	tr := testTrace()
	want := traceBytes(t, tr)
	Apply(tr, Config{Seed: 1, DropRate: 0.5, SplitRate: 0.5, CoalesceRate: 0.5,
		ReorderWindow: 16, InterferenceRate: 0.5})
	if got := traceBytes(t, tr); !bytes.Equal(want, got) {
		t.Fatal("Apply mutated its input trace")
	}
}

func TestDropRate(t *testing.T) {
	tr := testTrace()
	out := Apply(tr, Config{Seed: 3, DropRate: 0.2})
	n, m := len(tr.Accesses), len(out.Accesses)
	if m >= n {
		t.Fatalf("drop removed nothing: %d -> %d", n, m)
	}
	if lo, hi := n*6/10, n*95/100; m < lo || m > hi {
		t.Fatalf("drop rate 0.2 kept %d of %d records, outside [%d,%d]", m, n, lo, hi)
	}
}

// TestReorderBounded verifies cycles stay monotonic, displacement respects
// the window, and the multiset of (Addr, Count, Kind) is preserved.
func TestReorderBounded(t *testing.T) {
	tr := testTrace()
	const window = 6
	out := Apply(tr, Config{Seed: 5, ReorderWindow: window})
	if len(out.Accesses) != len(tr.Accesses) {
		t.Fatalf("reorder changed record count: %d -> %d", len(tr.Accesses), len(out.Accesses))
	}
	type payload struct {
		Addr  uint64
		Count uint32
		Kind  memtrace.Kind
	}
	pos := map[payload][]int{}
	for i, a := range tr.Accesses {
		if i > 0 && a.Cycle < tr.Accesses[i-1].Cycle {
			t.Fatal("test trace cycles not monotonic")
		}
		pos[payload{a.Addr, a.Count, a.Kind}] = append(pos[payload{a.Addr, a.Count, a.Kind}], i)
	}
	moved := false
	for i, a := range out.Accesses {
		if a.Cycle != tr.Accesses[i].Cycle {
			t.Fatalf("record %d: cycle %d, want original slot cycle %d", i, a.Cycle, tr.Accesses[i].Cycle)
		}
		p := payload{a.Addr, a.Count, a.Kind}
		orig := pos[p]
		if len(orig) == 0 {
			t.Fatalf("record %d: payload %+v not in original trace", i, p)
		}
		// Displacement bound: some original slot of this payload must lie
		// within the window. (Payloads are near-unique in testTrace.)
		ok := false
		for _, o := range orig {
			if d := i - o; d >= -window && d <= window {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("record %d moved further than window %d (origins %v)", i, window, orig)
		}
		if orig[0] != i {
			moved = true
		}
		pos[p] = orig[1:]
	}
	if !moved {
		t.Fatal("reorder with window 6 moved nothing")
	}
}

// TestSplitAndCoalescePreserveBlocks verifies regranulation never changes
// the total block count or the set of touched addresses.
func TestSplitAndCoalescePreserveBlocks(t *testing.T) {
	tr := testTrace()
	for _, cfg := range []Config{
		{Seed: 11, SplitRate: 0.7},
		{Seed: 11, CoalesceRate: 0.7},
		{Seed: 11, SplitRate: 0.5, CoalesceRate: 0.5},
	} {
		out := Apply(tr, cfg)
		if got, want := out.Blocks(), tr.Blocks(); got != want {
			t.Fatalf("%+v: total blocks %d, want %d", cfg, got, want)
		}
		if cfg.SplitRate > 0 && cfg.CoalesceRate == 0 && len(out.Accesses) <= len(tr.Accesses) {
			t.Fatalf("split rate %v did not increase record count", cfg.SplitRate)
		}
		if cfg.CoalesceRate > 0 && cfg.SplitRate == 0 && len(out.Accesses) >= len(tr.Accesses) {
			t.Fatalf("coalesce rate %v did not decrease record count", cfg.CoalesceRate)
		}
	}
}

// TestInterferenceIsDisjoint verifies injected accesses land strictly above
// the victim's footprint, in the configured number of regions, with cycles
// inside the trace's span and the merged stream still cycle-monotonic.
func TestInterferenceIsDisjoint(t *testing.T) {
	tr := testTrace()
	var victimMax uint64
	for _, a := range tr.Accesses {
		if e := a.End(tr.BlockBytes); e > victimMax {
			victimMax = e
		}
	}
	out := Apply(tr, Config{Seed: 13, InterferenceRate: 0.3, InterferenceRegions: 3})
	if len(out.Accesses) <= len(tr.Accesses) {
		t.Fatal("interference rate 0.3 injected nothing")
	}
	lo, hi := tr.Accesses[0].Cycle, tr.Accesses[len(tr.Accesses)-1].Cycle
	regions := map[uint64]bool{}
	injected := 0
	for i, a := range out.Accesses {
		if i > 0 && a.Cycle < out.Accesses[i-1].Cycle {
			t.Fatalf("merged trace not cycle-monotonic at %d", i)
		}
		if a.Addr < victimMax {
			continue // victim record
		}
		injected++
		if a.Cycle < lo || a.Cycle > hi {
			t.Fatalf("interference cycle %d outside victim span [%d,%d]", a.Cycle, lo, hi)
		}
		regions[a.Addr/interferenceRegionGap] = true
	}
	if injected == 0 {
		t.Fatal("no injected record found above the victim footprint")
	}
	if len(regions) < 2 || len(regions) > 3 {
		t.Fatalf("interference spread over %d regions, want 2..3", len(regions))
	}
	if got, want := len(out.Accesses)-len(tr.Accesses), injected; got != want {
		t.Fatalf("victim records changed: %d new records but %d injected", got, want)
	}
}

// TestInterferenceHostileCycleSpan pins the Int63n guard: a codec-valid
// trace whose cycle span reaches or exceeds 2^63 — including spans only
// visible as min/max over non-monotonic records — must not panic, and the
// injected cycles must stay inside the observed span.
func TestInterferenceHostileCycleSpan(t *testing.T) {
	top := ^uint64(0)
	for name, accs := range map[string][]memtrace.Access{
		"monotonic-2^63": {
			{Cycle: 0, Addr: 0, Count: 1, Kind: memtrace.Read},
			{Cycle: 1 << 63, Addr: 64, Count: 1, Kind: memtrace.Write},
		},
		"full-span": {
			{Cycle: 0, Addr: 0, Count: 1, Kind: memtrace.Read},
			{Cycle: top, Addr: 64, Count: 1, Kind: memtrace.Write},
		},
		"non-monotonic": {
			{Cycle: top, Addr: 0, Count: 1, Kind: memtrace.Read},
			{Cycle: 0, Addr: 64, Count: 1, Kind: memtrace.Write},
			{Cycle: 5, Addr: 128, Count: 1, Kind: memtrace.Read},
		},
	} {
		tr := &memtrace.Trace{BlockBytes: 64, Accesses: accs}
		out := Apply(tr, Config{Seed: 17, InterferenceRate: 1})
		if len(out.Accesses) <= len(tr.Accesses) {
			t.Fatalf("%s: interference rate 1 injected nothing", name)
		}
	}
}

// TestSeverityMonotonic sanity-checks the slack heuristic.
func TestSeverityMonotonic(t *testing.T) {
	if (Config{}).Severity() != 0 {
		t.Fatal("zero config must have zero severity")
	}
	a := Config{DropRate: 0.01}.Severity()
	b := Config{DropRate: 0.05}.Severity()
	if !(a > 0 && b > a && b <= 1) {
		t.Fatalf("severity not monotonic: %v, %v", a, b)
	}
}

// TestRegranulationBoundedOnHostileExtents pins the DoS guard: a tiny
// codec-valid trace claiming enormous extents must not make Apply
// materialize records proportional to the claimed traffic — granularity
// coarsens instead, and block totals are preserved exactly.
func TestRegranulationBoundedOnHostileExtents(t *testing.T) {
	tr := &memtrace.Trace{BlockBytes: 1 << 20, Accesses: []memtrace.Access{
		{Cycle: 0, Addr: 0, Count: 1 << 31, Kind: memtrace.Read},
		{Cycle: 1, Addr: 1 << 60, Count: 1 << 31, Kind: memtrace.Write},
	}}
	out := Apply(tr, Config{Seed: 1, ReorderWindow: 4})
	if got := len(out.Accesses); got > maxRegranRecords+len(tr.Accesses) {
		t.Fatalf("hostile extents regranulated into %d records", got)
	}
	if got, want := out.Blocks(), tr.Blocks(); got != want {
		t.Fatalf("reorder-only corruption changed block total: %d != %d", got, want)
	}
}

// TestApplyDigests pins Apply's output bytes across code changes: each
// case's corrupted trace must hash to the digest recorded when the table
// was written. TestEqualSeedsCorruptIdentically only compares two runs of
// one build.
func TestApplyDigests(t *testing.T) {
	one := &memtrace.Trace{BlockBytes: 64, Accesses: []memtrace.Access{
		{Cycle: 9, Addr: 1 << 20, Count: 40, Kind: memtrace.Read},
	}}
	all := Config{Seed: 7, DropRate: 0.05, SplitRate: 0.2, CoalesceRate: 0.2,
		ReorderWindow: 8, InterferenceRate: 0.1}
	for _, tc := range []struct {
		name string
		tr   *memtrace.Trace
		cfg  Config
		want string
	}{
		{"drop", testTrace(), Config{Seed: 1, DropRate: 0.1},
			"97a99b212ad0e535de94e0fe5daa467e27328edee347c863aec6d842dd14e695"},
		{"split", testTrace(), Config{Seed: 2, SplitRate: 0.5},
			"6cd8ded2f22e4d7d83276e03bc3b196569ece0ba96e728ee440f7ea94806d45c"},
		{"coalesce", testTrace(), Config{Seed: 3, CoalesceRate: 0.5},
			"fb7c6b2265a99ca1dc880039e9da378b71d56054b651aef39dc21b57d90ed14e"},
		{"reorder-1", testTrace(), Config{Seed: 4, ReorderWindow: 1},
			"aeb54146455ee5f55e64e54a62d66b292b1fec64e5a8a39b78965727d157cc76"},
		{"reorder-16", testTrace(), Config{Seed: 4, ReorderWindow: 16},
			"b2576d027d5402c5bdb0fefa751dabc7eefbb1f93d0fbbc6c3d7253669f310c4"},
		{"reorder-past-end", testTrace(), Config{Seed: 4, ReorderWindow: 1000},
			"1f784b48383e92fb2ffb8d9e15b25c41417e8ea71a6cc45dd03d4ee1adff094d"},
		{"interference", testTrace(), Config{Seed: 5, InterferenceRate: 0.3},
			"8077e057ac90ab7f34b6bed33f10d19dabed5b3a9478a2d9db9b7fcbdb9050bb"},
		{"interference-5-regions", testTrace(), Config{Seed: 6, InterferenceRate: 0.3, InterferenceRegions: 5},
			"8808d4eebbe727de285d31dc1043e684d79783c82dcbd576aed19eaa3956bf4f"},
		{"all", testTrace(), all,
			"e8886de7a3083a6043ace89985cbf0d0b34c87f3099b72b32d1a03c4b8c55d67"},
		{"interference-reorder-16", testTrace(), Config{Seed: 1, InterferenceRate: 0.05, ReorderWindow: 16},
			"6c324f37982aac3af19f0b3a1ee07d3b7688833546c60f5a34c39ee044dc300c"},
		{"drop-reorder-16", testTrace(), Config{Seed: 1, DropRate: 0.01, ReorderWindow: 16},
			"4c2670e89103f3f7121bea01d8e50e2b1c3499542e2888ea1e39bd55c16a98d8"},
		{"gran-1", testTrace(), Config{Seed: 8, DropRate: 0.1, ReorderWindow: 16, ProbeGranularityBlocks: 1},
			"8029d1c86a83e4a2e5b75035a5b6352c01ff12a4af3e17deb8b4c8d948c1e619"},
		{"gran-4", testTrace(), Config{Seed: 9, InterferenceRate: 0.3, InterferenceRegions: 5, ReorderWindow: 1, ProbeGranularityBlocks: 4},
			"25a8ea39ae7614715742f4707138e4a159dcbdfc8a552f4055d6c1290e1f0c55"},
		{"one-record-reorder", one, Config{Seed: 10, ReorderWindow: 16},
			"6619209517bd46a9d8a15e6dc169e0143381a5171796953286635683547613c9"},
		{"one-record-all", one, all,
			"1e34c1e711c9aade0f6d5b572144b4dc6fe9c5b2367b8c35ea92deb696abf5bd"},
	} {
		sum := sha256.Sum256(traceBytes(t, Apply(tc.tr, tc.cfg)))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestApplyAllocatesOutputOnce pins the single-copy pipeline: under the
// noisy-probe workload's two probe models, Apply allocates at most 1.1
// times the bytes of the trace it returns, whether or not regranulation
// splits the records.
func TestApplyAllocatesOutputOnce(t *testing.T) {
	probeSized := streamingTrace(1 << 18)
	bursts := &memtrace.Trace{BlockBytes: 64, Accesses: make([]memtrace.Access, 1<<16)}
	for i := range bursts.Accesses {
		// 40-block bursts, chopped into chunks of 16, 16 and 8 blocks.
		bursts.Accesses[i] = memtrace.Access{Cycle: uint64(i) * 40, Addr: 1<<30 + uint64(i)*40*64, Count: 40, Kind: memtrace.Kind(i % 2)}
	}
	for _, tr := range []*memtrace.Trace{probeSized, bursts} {
		for _, cfg := range []Config{
			{Seed: 1, InterferenceRate: 0.05, ReorderWindow: 16},
			{Seed: 1, DropRate: 0.01, ReorderWindow: 16},
		} {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			out := Apply(tr, cfg)
			runtime.ReadMemStats(&after)
			outBytes := uint64(len(out.Accesses)) * uint64(unsafe.Sizeof(memtrace.Access{}))
			if got := after.TotalAlloc - before.TotalAlloc; float64(got) > 1.1*float64(outBytes) {
				t.Errorf("%d records, %+v: allocated %d bytes for a %d-byte output (%.3fx)",
					len(tr.Accesses), cfg, got, outBytes, float64(got)/float64(outBytes))
			}
		}
	}
}
