package structrev

import (
	"math/rand"
	"testing"

	"cnnrev/internal/accel"
	"cnnrev/internal/corrupt"
	"cnnrev/internal/memtrace"
	"cnnrev/internal/nn"
)

// dataflowOf maps an accel constant to the detector's class space.
func dataflowOf(df accel.Dataflow) DataflowClass {
	switch df {
	case accel.WeightStationary:
		return DataflowWeightStationary
	case accel.RowStationary:
		return DataflowRowStationary
	}
	return DataflowOutputStationary
}

var allDataflows = []accel.Dataflow{accel.OutputStationary, accel.WeightStationary, accel.RowStationary}

// captureDataflowTrace records one inference of net under the given
// dataflow with the golden-corpus capture parameters (weight seed 1, input
// seed 2, otherwise default configuration).
func captureDataflowTrace(t *testing.T, net *nn.Network, df accel.Dataflow) *memtrace.Trace {
	t.Helper()
	return captureSeeded(t, net, df, 2)
}

// captureSeeded is captureDataflowTrace with the given input seed.
func captureSeeded(t *testing.T, net *nn.Network, df accel.Dataflow, inputSeed int64) *memtrace.Trace {
	t.Helper()
	net.InitWeights(1)
	sim, err := accel.New(net, accel.Config{Dataflow: df})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(inputSeed))
	x := make([]float32, net.Input.Len())
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	res, err := sim.Run(x)
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

// TestDetectDataflowCleanMatrix: auto-detection recovers the producing
// backend for every Table 3 victim under every dataflow — the 12/12 matrix
// the dataflow experiment re-derives into results/dataflow_matrix.md.
func TestDetectDataflowCleanMatrix(t *testing.T) {
	for _, gc := range goldenCases {
		gc := gc
		t.Run(gc.model, func(t *testing.T) {
			if testing.Short() && !gc.short {
				t.Skip("large victim in -short mode")
			}
			for _, df := range allDataflows {
				tr := captureDataflowTrace(t, gc.victim(), df)
				a, err := Analyze(tr, gc.inW*gc.inW*gc.inD*4, 4)
				if err != nil {
					t.Fatalf("%v: %v", df, err)
				}
				det := DetectDataflow(tr, a, DetectOptions{})
				if want := dataflowOf(df); det.Class != want {
					for _, v := range det.Votes {
						t.Logf("segment %d: %v weak=%v (%s)", v.Segment, v.Class, v.Weak, v.Reason)
					}
					t.Fatalf("%s under %v detected as %v, want %v", gc.model, df, det.Class, want)
				}
			}
		})
	}
}

// TestDetectDataflowUnderDrops: with probe drop rates up to 5%, detection
// must return either the true dataflow or an explicit ambiguous verdict —
// never a wrong confident answer.
func TestDetectDataflowUnderDrops(t *testing.T) {
	victims := []struct {
		name   string
		inW    int
		inD    int
		victim func() *nn.Network
	}{
		{"lenet", 28, 1, func() *nn.Network { return nn.LeNet(10) }},
		{"convnet", 32, 3, func() *nn.Network { return nn.ConvNet(10) }},
	}
	for _, vic := range victims {
		for _, df := range allDataflows {
			tr := captureDataflowTrace(t, vic.victim(), df)
			want := dataflowOf(df)
			for _, rate := range []float64{0.01, 0.03, 0.05} {
				for seed := int64(1); seed <= 3; seed++ {
					corr := corrupt.Apply(tr, corrupt.Config{Seed: seed, DropRate: rate})
					a, err := AnalyzeTolerant(corr, vic.inW*vic.inW*vic.inD*4, 4, DefaultTolerantOptions())
					if err != nil {
						continue // segmentation lost: no verdict to mistrust
					}
					det := DetectDataflow(corr, a, DetectOptions{})
					if det.Class != want && det.Class != DataflowAmbiguous {
						t.Fatalf("%s under %v, drop %.2f seed %d: detected %v (want %v or ambiguous)",
							vic.name, df, rate, seed, det.Class, want)
					}
				}
			}
		}
	}
}

// TestCrossDataflowSolveContainsTruth: the structure attack keeps working
// against every backend — each victim's trace, under each dataflow, still
// yields a solve set containing the true structure. The output-stationary
// leg additionally re-pins byte identity with the pre-refactor golden
// corpus via captureTraceBytes (see TestGoldenTraceRegeneration).
func TestCrossDataflowSolveContainsTruth(t *testing.T) {
	for _, gc := range goldenCases {
		gc := gc
		t.Run(gc.model, func(t *testing.T) {
			if testing.Short() && !gc.short {
				t.Skip("large victim in -short mode")
			}
			for _, df := range allDataflows {
				tr := captureDataflowTrace(t, gc.victim(), df)
				a, err := Analyze(tr, gc.inW*gc.inW*gc.inD*4, 4)
				if err != nil {
					t.Fatalf("%v: %v", df, err)
				}
				if len(a.Segments) != gc.segments {
					t.Fatalf("%v: recovered %d segments, want %d", df, len(a.Segments), gc.segments)
				}
				opt := DefaultOptions()
				opt.IdenticalModules = gc.modular
				structures, err := Solve(a, gc.inW, gc.inD, gc.classes, opt)
				if err != nil {
					t.Fatalf("%v: %v", df, err)
				}
				if !containsTruth(structures, groundTruth(gc.victim())) {
					t.Fatalf("%s under %v: true structure not among %d candidates", gc.model, df, len(structures))
				}
			}
		})
	}
}

// TestDetectDataflowDegenerateInputs: nil/empty inputs produce an explicit
// ambiguous verdict, not a panic.
func TestDetectDataflowDegenerateInputs(t *testing.T) {
	if got := DetectDataflow(nil, nil, DetectOptions{}); got.Class != DataflowAmbiguous {
		t.Fatalf("nil inputs: %v", got.Class)
	}
	tr := &memtrace.Trace{BlockBytes: 4}
	if got := DetectDataflow(tr, &Analysis{}, DetectOptions{}); got.Class != DataflowAmbiguous {
		t.Fatalf("empty analysis: %v", got.Class)
	}
}
