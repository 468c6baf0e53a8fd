package experiments

import "testing"

// These tests pin the two trace sweeps field by field (all but Elapsed), so
// any change to the pipeline they drive shows up as a diff. The noise sweep
// covers the solver-cap prefix: LeNet at drop 0.10 and ConvNet at 0.05 are
// truncated on 2 of 3 seeds, ConvNet at 0.10 on all 3.

func TestNoiseSweepPinned(t *testing.T) {
	want := []NoiseSweepPoint{
		{Network: "lenet", DropRate: 0, InterferenceRate: 0, Seeds: 3, TruthRetained: 3, MeanCandidates: 159.33333333333334, MeanSegments: 4, MeanWriteHole: 0.009378663540445475, Truncated: 0, Failures: 0},
		{Network: "lenet", DropRate: 0.005, InterferenceRate: 0, Seeds: 3, TruthRetained: 3, MeanCandidates: 357, MeanSegments: 4, MeanWriteHole: 0.012504884720593967, Truncated: 0, Failures: 0},
		{Network: "lenet", DropRate: 0.01, InterferenceRate: 0, Seeds: 3, TruthRetained: 3, MeanCandidates: 1129.3333333333333, MeanSegments: 4, MeanWriteHole: 0.01875732708089095, Truncated: 0, Failures: 0},
		{Network: "lenet", DropRate: 0.02, InterferenceRate: 0, Seeds: 3, TruthRetained: 3, MeanCandidates: 3177, MeanSegments: 4, MeanWriteHole: 0.028135990621336465, Truncated: 0, Failures: 0},
		{Network: "lenet", DropRate: 0.05, InterferenceRate: 0, Seeds: 3, TruthRetained: 3, MeanCandidates: 5839, MeanSegments: 4, MeanWriteHole: 0.050019538882375904, Truncated: 0, Failures: 0},
		{Network: "lenet", DropRate: 0.1, InterferenceRate: 0, Seeds: 3, TruthRetained: 2, MeanCandidates: 16360, MeanSegments: 4, MeanWriteHole: 0.09707487511455215, Truncated: 2, Failures: 0},
		{Network: "lenet", DropRate: 0, InterferenceRate: 0.05, Seeds: 3, TruthRetained: 3, MeanCandidates: 27, MeanSegments: 4, MeanWriteHole: 0, Truncated: 0, Failures: 0},
		{Network: "lenet", DropRate: 0, InterferenceRate: 0.25, Seeds: 3, TruthRetained: 3, MeanCandidates: 27, MeanSegments: 4, MeanWriteHole: 0, Truncated: 0, Failures: 0},
		{Network: "convnet", DropRate: 0, InterferenceRate: 0, Seeds: 3, TruthRetained: 3, MeanCandidates: 25, MeanSegments: 4, MeanWriteHole: 0, Truncated: 0, Failures: 0},
		{Network: "convnet", DropRate: 0.005, InterferenceRate: 0, Seeds: 3, TruthRetained: 3, MeanCandidates: 45, MeanSegments: 4, MeanWriteHole: 0.006622908166282304, Truncated: 0, Failures: 0},
		{Network: "convnet", DropRate: 0.01, InterferenceRate: 0, Seeds: 3, TruthRetained: 3, MeanCandidates: 182, MeanSegments: 4, MeanWriteHole: 0.013253884235820227, Truncated: 0, Failures: 0},
		{Network: "convnet", DropRate: 0.02, InterferenceRate: 0, Seeds: 3, TruthRetained: 3, MeanCandidates: 933, MeanSegments: 4, MeanWriteHole: 0.02082762841704196, Truncated: 0, Failures: 0},
		{Network: "convnet", DropRate: 0.05, InterferenceRate: 0, Seeds: 3, TruthRetained: 3, MeanCandidates: 16708, MeanSegments: 4, MeanWriteHole: 0.051662301021660695, Truncated: 2, Failures: 0},
		{Network: "convnet", DropRate: 0.1, InterferenceRate: 0, Seeds: 3, TruthRetained: 0, MeanCandidates: 20000, MeanSegments: 4, MeanWriteHole: 0.09763773299475158, Truncated: 3, Failures: 0},
		{Network: "convnet", DropRate: 0, InterferenceRate: 0.05, Seeds: 3, TruthRetained: 3, MeanCandidates: 25, MeanSegments: 4, MeanWriteHole: 0, Truncated: 0, Failures: 0},
		{Network: "convnet", DropRate: 0, InterferenceRate: 0.25, Seeds: 3, TruthRetained: 3, MeanCandidates: 25, MeanSegments: 4, MeanWriteHole: 0, Truncated: 0, Failures: 0},
	}
	got, err := NoiseSweep([]string{"lenet", "convnet"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d points, want %d", len(got), len(want))
	}
	for i := range want {
		g := got[i]
		g.Elapsed = 0
		if g != want[i] {
			t.Errorf("point %d:\n got %+v\nwant %+v", i, g, want[i])
		}
	}
}

func TestDefenseMatrixPinned(t *testing.T) {
	want := []DefenseMatrixRow{
		{Network: "lenet", Defense: "none", Mode: "strict", Defeated: false, Truncated: false, Segments: 4, Candidates: 27, TruthFound: true, BandwidthOverhead: 1, LatencyOverhead: 1},
		{Network: "lenet", Defense: "none", Mode: "tolerant", Defeated: false, Truncated: false, Segments: 4, Candidates: 27, TruthFound: true, BandwidthOverhead: 1, LatencyOverhead: 1},
		{Network: "lenet", Defense: "dummy", Mode: "strict", Defeated: false, Truncated: false, Segments: 9, Candidates: 0, TruthFound: false, BandwidthOverhead: 1.463386727688787, LatencyOverhead: 1},
		{Network: "lenet", Defense: "dummy", Mode: "tolerant", Defeated: false, Truncated: false, Segments: 8, Candidates: 0, TruthFound: false, BandwidthOverhead: 1.463386727688787, LatencyOverhead: 1},
		{Network: "lenet", Defense: "pad", Mode: "strict", Defeated: true, Truncated: false, Segments: 0, Candidates: 0, TruthFound: false, BandwidthOverhead: 1.4007437070938216, LatencyOverhead: 1},
		{Network: "lenet", Defense: "pad", Mode: "tolerant", Defeated: true, Truncated: false, Segments: 0, Candidates: 0, TruthFound: false, BandwidthOverhead: 1.4007437070938216, LatencyOverhead: 1},
		{Network: "lenet", Defense: "rerand", Mode: "strict", Defeated: false, Truncated: false, Segments: 6, Candidates: 0, TruthFound: false, BandwidthOverhead: 1.0606407322654463, LatencyOverhead: 1},
		{Network: "lenet", Defense: "rerand", Mode: "tolerant", Defeated: false, Truncated: false, Segments: 5, Candidates: 0, TruthFound: false, BandwidthOverhead: 1.0606407322654463, LatencyOverhead: 1},
		{Network: "lenet", Defense: "fuse", Mode: "strict", Defeated: false, Truncated: false, Segments: 4, Candidates: 0, TruthFound: false, BandwidthOverhead: 0.9393592677345538, LatencyOverhead: 1},
		{Network: "lenet", Defense: "fuse", Mode: "tolerant", Defeated: false, Truncated: false, Segments: 4, Candidates: 0, TruthFound: false, BandwidthOverhead: 0.9393592677345538, LatencyOverhead: 1},
		{Network: "lenet", Defense: "oram", Mode: "strict", Defeated: true, Truncated: false, Segments: 0, Candidates: 0, TruthFound: false, BandwidthOverhead: 88.07551487414187, LatencyOverhead: 543.8322110608235},
		{Network: "lenet", Defense: "oram", Mode: "tolerant", Defeated: true, Truncated: false, Segments: 0, Candidates: 0, TruthFound: false, BandwidthOverhead: 88.07551487414187, LatencyOverhead: 543.8322110608235},
		{Network: "convnet", Defense: "none", Mode: "strict", Defeated: false, Truncated: false, Segments: 4, Candidates: 25, TruthFound: true, BandwidthOverhead: 1, LatencyOverhead: 1},
		{Network: "convnet", Defense: "none", Mode: "tolerant", Defeated: false, Truncated: false, Segments: 4, Candidates: 25, TruthFound: true, BandwidthOverhead: 1, LatencyOverhead: 1},
		{Network: "convnet", Defense: "dummy", Mode: "strict", Defeated: false, Truncated: false, Segments: 7, Candidates: 0, TruthFound: false, BandwidthOverhead: 1.9254015261235167, LatencyOverhead: 1},
		{Network: "convnet", Defense: "dummy", Mode: "tolerant", Defeated: false, Truncated: false, Segments: 6, Candidates: 0, TruthFound: false, BandwidthOverhead: 1.9254015261235167, LatencyOverhead: 1},
		{Network: "convnet", Defense: "pad", Mode: "strict", Defeated: true, Truncated: false, Segments: 0, Candidates: 0, TruthFound: false, BandwidthOverhead: 1.328289487905579, LatencyOverhead: 1},
		{Network: "convnet", Defense: "pad", Mode: "tolerant", Defeated: true, Truncated: false, Segments: 0, Candidates: 0, TruthFound: false, BandwidthOverhead: 1.328289487905579, LatencyOverhead: 1},
		{Network: "convnet", Defense: "rerand", Mode: "strict", Defeated: false, Truncated: false, Segments: 7, Candidates: 0, TruthFound: false, BandwidthOverhead: 1.243488035278096, LatencyOverhead: 1},
		{Network: "convnet", Defense: "rerand", Mode: "tolerant", Defeated: false, Truncated: false, Segments: 7, Candidates: 0, TruthFound: false, BandwidthOverhead: 1.243488035278096, LatencyOverhead: 1},
		{Network: "convnet", Defense: "fuse", Mode: "strict", Defeated: false, Truncated: false, Segments: 4, Candidates: 0, TruthFound: false, BandwidthOverhead: 0.6458355850500421, LatencyOverhead: 1},
		{Network: "convnet", Defense: "fuse", Mode: "tolerant", Defeated: false, Truncated: false, Segments: 4, Candidates: 0, TruthFound: false, BandwidthOverhead: 0.6458355850500421, LatencyOverhead: 1},
		{Network: "convnet", Defense: "oram", Mode: "strict", Defeated: true, Truncated: false, Segments: 0, Candidates: 0, TruthFound: false, BandwidthOverhead: 96.00622554635655, LatencyOverhead: 55.21851999204297},
		{Network: "convnet", Defense: "oram", Mode: "tolerant", Defeated: true, Truncated: false, Segments: 0, Candidates: 0, TruthFound: false, BandwidthOverhead: 96.00622554635655, LatencyOverhead: 55.21851999204297},
	}
	got, err := DefenseMatrix([]string{"lenet", "convnet"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		g := got[i]
		g.Elapsed = 0
		if g != want[i] {
			t.Errorf("row %d:\n got %+v\nwant %+v", i, g, want[i])
		}
	}
}
