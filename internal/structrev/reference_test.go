package structrev

import (
	"fmt"
	"reflect"
	"testing"

	"cnnrev/internal/accel"
	"cnnrev/internal/corrupt"
	"cnnrev/internal/memtrace"
	"cnnrev/internal/nn"
)

// referenceAttribute is the original dependency attribution, kept as the
// oracle attributeDeps must match. For each segment it scans the writes
// issued before the segment's first write backward, newest first, and
// subtracts each from the segment's still-unattributed reads. It costs
// O(writes × pieces) per segment, quadratic on a hostile write order.
func referenceAttribute(res *Analysis, segs []*segAcc, writes []writeRec, minDepFrac float64) {
	firstWriteOfSeg := make([]int, len(segs)+1)
	for i := range firstWriteOfSeg {
		firstWriteOfSeg[i] = len(writes)
	}
	for wi := len(writes) - 1; wi >= 0; wi-- {
		firstWriteOfSeg[writes[wi].seg] = wi
	}
	for si, sa := range segs {
		depBytes := map[int]uint64{}
		for _, iv := range memtrace.CoalesceIntervals(sa.fmapReads, 0) {
			if res.InputRegion.Overlaps(iv) {
				depBytes[-1] += clip(iv, res.InputRegion).Bytes()
				continue
			}
			remaining := []memtrace.Interval{iv}
			for wi := firstWriteOfSeg[si] - 1; wi >= 0 && len(remaining) > 0; wi-- {
				wr := writes[wi]
				var removed uint64
				remaining, removed = subtractOverlap(remaining, wr.iv)
				if removed > 0 {
					depBytes[wr.seg] += removed
				}
			}
		}
		setInputs(res, si, depBytes, minDepFrac)
	}
}

// referenceAnalyze is Analyze (or AnalyzeTolerant with default options)
// with referenceAttribute in place of attributeDeps.
func referenceAnalyze(tr *memtrace.Trace, inputBytes, elemBytes int, tolerant bool) (*Analysis, error) {
	var topt TolerantOptions
	if tolerant {
		topt = topt.withDefaults()
	}
	res, segs, writes, err := segmentTrace(tr, inputBytes, elemBytes, tolerant, topt)
	if err != nil {
		return nil, err
	}
	referenceAttribute(res, segs, writes, topt.MinDepFrac)
	return res, nil
}

// subtractOverlap removes iv's intersection from the disjoint, sorted
// interval set and returns the updated set plus the number of bytes
// removed.
func subtractOverlap(set []memtrace.Interval, iv memtrace.Interval) ([]memtrace.Interval, uint64) {
	var out []memtrace.Interval
	var removed uint64
	for _, s := range set {
		if !s.Overlaps(iv) {
			out = append(out, s)
			continue
		}
		lo, hi := iv.Lo, iv.Hi
		if s.Lo > lo {
			lo = s.Lo
		}
		if s.Hi < hi {
			hi = s.Hi
		}
		removed += hi - lo
		if s.Lo < lo {
			out = append(out, memtrace.Interval{Lo: s.Lo, Hi: lo})
		}
		if hi < s.Hi {
			out = append(out, memtrace.Interval{Lo: hi, Hi: s.Hi})
		}
	}
	return out, removed
}

func TestSubtractOverlap(t *testing.T) {
	set := []memtrace.Interval{{Lo: 0, Hi: 100}}
	set, n := subtractOverlap(set, memtrace.Interval{Lo: 40, Hi: 60})
	if n != 20 || len(set) != 2 || set[0] != (memtrace.Interval{Lo: 0, Hi: 40}) || set[1] != (memtrace.Interval{Lo: 60, Hi: 100}) {
		t.Fatalf("split: set=%v n=%d", set, n)
	}
	set, n = subtractOverlap(set, memtrace.Interval{Lo: 0, Hi: 50})
	if n != 40 || len(set) != 1 || set[0] != (memtrace.Interval{Lo: 60, Hi: 100}) {
		t.Fatalf("left clip: set=%v n=%d", set, n)
	}
	set, n = subtractOverlap(set, memtrace.Interval{Lo: 200, Hi: 300})
	if n != 0 || len(set) != 1 {
		t.Fatalf("disjoint: set=%v n=%d", set, n)
	}
	set, n = subtractOverlap(set, memtrace.Interval{Lo: 0, Hi: 1000})
	if n != 40 || len(set) != 0 {
		t.Fatalf("consume all: set=%v n=%d", set, n)
	}
}

// differentialCorpus returns the committed golden traces plus corrupted
// captures under every dataflow: LeNet and ConvNet under drop,
// interference, reordering and burst split/coalesce, alone and all
// together, at three corruption seeds; AlexNet at a quarter depth under
// interference and under all four together, at one seed (the reference
// takes over a second per AlexNet trace). -short and the race detector
// drop AlexNet; the race detector also drops golden traces of 10k records
// or more.
func differentialCorpus(t *testing.T) []namedTrace {
	t.Helper()
	var out []namedTrace
	for _, nt := range goldenTraces(t) {
		if !raceEnabled || len(nt.tr.Accesses) < 10000 {
			out = append(out, nt)
		}
	}
	interference := corrupt.Config{InterferenceRate: 0.05}
	combined := corrupt.Config{DropRate: 0.01, SplitRate: 0.1, CoalesceRate: 0.1, ReorderWindow: 16, InterferenceRate: 0.05}
	small := []corrupt.Config{
		{DropRate: 0.02}, interference, {ReorderWindow: 16}, {SplitRate: 0.2, CoalesceRate: 0.2}, combined,
	}
	victims := []struct {
		name    string
		net     func() *nn.Network
		configs []corrupt.Config
		seeds   []int64
	}{
		{"lenet", func() *nn.Network { return nn.LeNet(10) }, small, []int64{1, 2, 3}},
		{"convnet", func() *nn.Network { return nn.ConvNet(10) }, small, []int64{1, 2, 3}},
		{"alexnet-div4", func() *nn.Network { return nn.AlexNet(1000, 4) }, []corrupt.Config{interference, combined}, []int64{1}},
	}
	for _, v := range victims {
		if (testing.Short() || raceEnabled) && v.name == "alexnet-div4" {
			continue
		}
		for _, df := range allDataflows {
			net := v.net()
			tr := captureDataflowTrace(t, net, df)
			for _, cfg := range v.configs {
				for _, seed := range v.seeds {
					cfg.Seed = seed
					out = append(out, namedTrace{
						fmt.Sprintf("%s/%v/%+v", v.name, df, cfg),
						corrupt.Apply(tr, cfg), net.Input.Len() * 4,
					})
				}
			}
		}
	}
	return out
}

// TestAttributionMatchesReference pins the forward last-writer sweep to the
// backward scan it replaced: strict and tolerant, on clean and corrupted
// traces, the full Analysis (and any error) must be identical.
func TestAttributionMatchesReference(t *testing.T) {
	var analyzed, multiInput int
	for _, dt := range differentialCorpus(t) {
		for _, tolerant := range []bool{false, true} {
			var got *Analysis
			var gotErr error
			if tolerant {
				got, gotErr = AnalyzeTolerant(dt.tr, dt.inputBytes, 4, TolerantOptions{})
			} else {
				got, gotErr = Analyze(dt.tr, dt.inputBytes, 4)
			}
			want, wantErr := referenceAnalyze(dt.tr, dt.inputBytes, 4, tolerant)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s tolerant=%v: error %v, reference %v", dt.name, tolerant, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s tolerant=%v: analysis differs from the reference attribution:\n got %+v\nwant %+v",
					dt.name, tolerant, got, want)
			}
			if got == nil {
				continue
			}
			analyzed++
			for _, seg := range got.Segments {
				if len(seg.Inputs) > 1 {
					multiInput++
					break
				}
			}
		}
	}
	// Guard against a corpus that stops reaching the attribution step.
	if analyzed == 0 || multiInput == 0 {
		t.Fatalf("corpus too weak: %d analyses, %d with a multi-producer segment", analyzed, multiInput)
	}
	t.Logf("%d analyses identical to the reference, %d with a multi-producer segment", analyzed, multiInput)
}

// TestAnalyzeDeterministic runs strict analysis repeatedly on a corrupted
// weight-stationary AlexNet capture. Co-tenant writes land in the same
// interference region from several segments, so some segments read
// producers whose output regions start at the same address; their order
// and Adjacent flags once followed map iteration order.
func TestAnalyzeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("AlexNet capture in -short mode")
	}
	net := nn.AlexNet(1000, 4)
	tr := captureSeeded(t, net, accel.WeightStationary, 1)
	noisy := corrupt.Apply(tr, corrupt.Config{Seed: 1, InterferenceRate: 0.05, ReorderWindow: 16})
	first, err := Analyze(noisy, net.Input.Len()*4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 10; i++ {
		again, err := Analyze(noisy, net.Input.Len()*4, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d differs from run 0:\n%+v\n%+v", i, again.Segments, first.Segments)
		}
	}
}
