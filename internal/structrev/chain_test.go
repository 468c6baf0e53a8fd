package structrev

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"cnnrev/internal/accel"
	"cnnrev/internal/corrupt"
	"cnnrev/internal/memtrace"
	"cnnrev/internal/nn"
)

// makeSeg builds a minimal segment for unit tests.
func makeSeg(idx int, kind SegmentKind, ofm memtrace.Interval, inputs []SegInput) Segment {
	return Segment{Index: idx, Kind: kind, OFMRegion: ofm, OFMBytes: ofm.Bytes(), Inputs: inputs}
}

func TestDetectModulesFiresOnAdjacentPair(t *testing.T) {
	// squeeze (0) feeds two weighted consumers (1, 2) whose OFM regions are
	// DRAM-adjacent: the fire-module motif.
	a := &Analysis{Segments: []Segment{
		makeSeg(0, SegWeighted, memtrace.Interval{Lo: 0, Hi: 100}, nil),
		makeSeg(1, SegWeighted, memtrace.Interval{Lo: 1000, Hi: 1400},
			[]SegInput{{Producer: 0, Bytes: 100}}),
		makeSeg(2, SegWeighted, memtrace.Interval{Lo: 1400, Hi: 1800},
			[]SegInput{{Producer: 0, Bytes: 100}}),
	}}
	roles := detectModules(a)
	if roles[0] != roleSqueeze || roles[1] != roleExpandLo || roles[2] != roleExpandHi {
		t.Fatalf("roles = %v", roles)
	}
}

func TestDetectModulesIgnoresNonAdjacent(t *testing.T) {
	a := &Analysis{Segments: []Segment{
		makeSeg(0, SegWeighted, memtrace.Interval{Lo: 0, Hi: 100}, nil),
		makeSeg(1, SegWeighted, memtrace.Interval{Lo: 1000, Hi: 1400},
			[]SegInput{{Producer: 0, Bytes: 100}}),
		makeSeg(2, SegWeighted, memtrace.Interval{Lo: 9000, Hi: 9400},
			[]SegInput{{Producer: 0, Bytes: 100}}),
	}}
	roles := detectModules(a)
	for i, r := range roles {
		if r != roleNone {
			t.Fatalf("segment %d wrongly assigned role %v", i, r)
		}
	}
}

func TestInputDimsConcatAndEltwise(t *testing.T) {
	// Weighted segment reading two adjacent producers: depths add.
	a := &Analysis{Segments: []Segment{
		{}, {},
		makeSeg(2, SegWeighted, memtrace.Interval{}, []SegInput{
			{Producer: 0, Bytes: 1},
			{Producer: 1, Bytes: 1, Adjacent: true},
		}),
		makeSeg(3, SegEltwise, memtrace.Interval{}, []SegInput{
			{Producer: 0, Bytes: 1},
			{Producer: 1, Bytes: 1},
		}),
	}}
	out := []dims{{W: 10, D: 4}, {W: 10, D: 6}, {}, {}}
	d, ok := inputDims(a, 2, out, 0, 0)
	if !ok || d != (dims{W: 10, D: 10}) {
		t.Fatalf("concat dims = %v ok=%v", d, ok)
	}
	// Eltwise with mismatched depths must fail.
	if _, ok := inputDims(a, 3, out, 0, 0); ok {
		t.Fatal("eltwise over mismatched depths must be inconsistent")
	}
	// Eltwise with equal depths passes.
	out[1] = dims{W: 10, D: 4}
	if d, ok := inputDims(a, 3, out, 0, 0); !ok || d != (dims{W: 10, D: 4}) {
		t.Fatalf("eltwise dims = %v ok=%v", d, ok)
	}
	// Width mismatch fails in both modes.
	out[1] = dims{W: 9, D: 4}
	if _, ok := inputDims(a, 2, out, 0, 0); ok {
		t.Fatal("width mismatch must be inconsistent")
	}
}

func TestTimingCheckWindow(t *testing.T) {
	opt := Options{TimingSpreadMax: 1.5}
	seg := &Segment{StartCycle: 0, EndCycle: 1000}
	c := &LayerConfig{WIFM: 10, DIFM: 1, WOFM: 8, DOFM: 1, F: 3, S: 1, P: 0}
	t0, ok := timingCheck(timingWindow{}, seg, c, opt)
	if !ok || t0.lo != t0.hi {
		t.Fatalf("first layer must seed the window: %+v ok=%v", t0, ok)
	}
	// A layer 4x off per MAC must be rejected.
	segFast := &Segment{StartCycle: 0, EndCycle: 250}
	if _, ok := timingCheck(t0, segFast, c, opt); ok {
		t.Fatal("4x faster per MAC should violate a 1.5 tolerance")
	}
	// Within tolerance passes and widens the window.
	segNear := &Segment{StartCycle: 0, EndCycle: 1400}
	t1, ok := timingCheck(t0, segNear, c, opt)
	if !ok || t1.hi <= t1.lo {
		t.Fatalf("near layer should pass: %+v ok=%v", t1, ok)
	}
	// FC layers bypass the filter entirely.
	fc := &LayerConfig{WIFM: 10, DIFM: 1, WOFM: 1, DOFM: 5, FC: true, F: 10, S: 1}
	if t2, ok := timingCheck(t1, segFast, fc, opt); !ok || t2 != t1 {
		t.Fatal("FC must not affect the timing window")
	}
}

func TestUniqueConfigsDeduplicates(t *testing.T) {
	a := &Analysis{Segments: []Segment{{Index: 0, Kind: SegWeighted}}}
	c1 := LayerConfig{WIFM: 8, DIFM: 1, WOFM: 8, DOFM: 2, F: 3, S: 1, P: 1}
	c2 := c1
	c3 := c1
	c3.F = 1
	structures := []Structure{
		{Layers: []SolvedLayer{{Segment: 0, Config: &c1}}},
		{Layers: []SolvedLayer{{Segment: 0, Config: &c2}}},
		{Layers: []SolvedLayer{{Segment: 0, Config: &c3}}},
	}
	u := UniqueConfigs(a, structures)
	if len(u[0]) != 2 {
		t.Fatalf("got %d unique configs, want 2", len(u[0]))
	}
}

func TestSolveMaxStructuresGuard(t *testing.T) {
	a, _ := traceOf(t, nn.LeNet(10))
	opt := DefaultOptions()
	opt.MaxStructures = 1 // LeNet yields dozens; the valve must trip
	if _, err := Solve(a, 28, 1, 10, opt); err == nil {
		t.Fatal("expected MaxStructures abort")
	}
}

// TestUniqueConfigsMatchesStringSort pins UniqueConfigs' order on a report
// of 20,000 structures — ConvNet under 10% drop and reorder window 16,
// capped as the noise sweep caps its ConvNet drop-0.10 point — to a
// sort.Slice that formats both configurations in every comparison.
func TestUniqueConfigsMatchesStringSort(t *testing.T) {
	net := nn.ConvNet(10)
	tr := captureSeeded(t, net, accel.OutputStationary, 2)
	noisy := corrupt.Apply(tr, corrupt.Config{Seed: 1, DropRate: 0.1, ReorderWindow: 16})
	a, err := AnalyzeTolerant(noisy, net.Input.Len()*4, 4, TolerantOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.MaxStructures = 20000
	structures, err := Solve(a, 32, 3, 10, opt)
	if !errors.Is(err, ErrTooManyStructures) || len(structures) < 20000 {
		t.Fatalf("%d structures (%v), want a capped report of 20000", len(structures), err)
	}
	want := map[int][]LayerConfig{}
	seen := map[int]map[LayerConfig]bool{}
	for _, st := range structures {
		for _, l := range st.Layers {
			if l.Config == nil {
				continue
			}
			if seen[l.Segment] == nil {
				seen[l.Segment] = map[LayerConfig]bool{}
			}
			if !seen[l.Segment][*l.Config] {
				seen[l.Segment][*l.Config] = true
				want[l.Segment] = append(want[l.Segment], *l.Config)
			}
		}
	}
	for _, cfgs := range want {
		sort.Slice(cfgs, func(i, j int) bool { return cfgs[i].String() < cfgs[j].String() })
	}
	if got := UniqueConfigs(a, structures); !reflect.DeepEqual(got, want) {
		t.Fatal("UniqueConfigs order differs from sorting by String in the comparator")
	}
}
