package structrev

//go:generate go run ./testdata/gen

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"cnnrev/internal/accel"
	"cnnrev/internal/memtrace"
	"cnnrev/internal/nn"
)

// goldenCase pins the structure attack's output for one committed victim
// trace. structures is this implementation's deterministic candidate count;
// paperTable3 is the count the paper reports for the same victim (Table 3)
// — recorded alongside so drift in either direction is visible. The counts
// differ where the paper's solver applies pruning heuristics ours does not
// reproduce (cmd/experiments prints the same ours-vs-paper comparison).
type goldenCase struct {
	model        string
	inW, inD     int
	classes      int
	modular      bool
	segments     int
	structures   int
	rsStructures int // candidate count from the row-stationary trace
	paperTable3  int
	victim       func() *nn.Network
	short        bool // runs under -short
}

// The row-stationary counts differ where per-row cycle accounting shifts a
// layer's cycles-per-MAC profile enough to move candidates across the
// solver's timing-consistency bound; weight-stationary timing matches
// output-stationary exactly, so those two share a count.
var goldenCases = []goldenCase{
	{"lenet", 28, 1, 10, false, 4, 27, 24, 9, func() *nn.Network { return nn.LeNet(10) }, true},
	{"convnet", 32, 3, 10, false, 4, 25, 25, 6, func() *nn.Network { return nn.ConvNet(10) }, true},
	{"alexnet", 227, 3, 1000, false, 8, 32, 60, 24, func() *nn.Network { return nn.AlexNet(1000, 1) }, false},
	{"squeezenet", 227, 3, 1000, true, 29, 2, 2, 9, func() *nn.Network { return nn.SqueezeNet(1000, 1) }, false},
}

// goldenDataflows enumerates the per-backend corpus files: the
// output-stationary capture keeps the historical unsuffixed names (whose
// bytes pin the pre-refactor schedule); weight- and row-stationary captures
// carry .ws/.rs suffixes.
var goldenDataflows = []struct {
	suffix string
	df     accel.Dataflow
	class  DataflowClass
}{
	{"", accel.OutputStationary, DataflowOutputStationary},
	{".ws", accel.WeightStationary, DataflowWeightStationary},
	{".rs", accel.RowStationary, DataflowRowStationary},
}

// namedTrace is a trace and the input size its analysis declares.
type namedTrace struct {
	name       string
	tr         *memtrace.Trace
	inputBytes int
}

// goldenTraces decodes the committed corpus, every victim under every
// dataflow; -short skips the victims the golden tests skip.
func goldenTraces(tb testing.TB) []namedTrace {
	tb.Helper()
	var out []namedTrace
	for _, gc := range goldenCases {
		if testing.Short() && !gc.short {
			continue
		}
		for _, gd := range goldenDataflows {
			raw, err := os.ReadFile(filepath.Join("testdata", "golden", gc.model+gd.suffix+".trace"))
			if err != nil {
				tb.Fatal(err)
			}
			tr, err := memtrace.DecodeTrace(raw)
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, namedTrace{gc.model + gd.suffix, tr, gc.inW * gc.inW * gc.inD * 4})
		}
	}
	return out
}

// TestGoldenTraceConformance is the end-to-end regression gate for the
// attack pipeline: it decodes each committed trace, re-derives the dataflow
// graph, and pins both the graph report and the candidate count. Any change
// to the simulator's transaction schedule, the trace codec, the segmenter,
// or the solver that alters attack output fails here before it can ship
// silently.
func TestGoldenTraceConformance(t *testing.T) {
	for _, gc := range goldenCases {
		gc := gc
		t.Run(gc.model, func(t *testing.T) {
			if testing.Short() && !gc.short {
				t.Skip("large golden trace in -short mode")
			}
			for _, gd := range goldenDataflows {
				raw, err := os.ReadFile(filepath.Join("testdata", "golden", gc.model+gd.suffix+".trace"))
				if err != nil {
					t.Fatalf("missing golden trace (run `go generate ./...`): %v", err)
				}
				tr, err := memtrace.DecodeTrace(raw)
				if err != nil {
					t.Fatalf("%v golden trace does not decode: %v", gd.df, err)
				}

				a, err := Analyze(tr, gc.inW*gc.inW*gc.inD*4, 4)
				if err != nil {
					t.Fatalf("%v: %v", gd.df, err)
				}
				if len(a.Segments) != gc.segments {
					t.Fatalf("%v: recovered %d segments, golden %d", gd.df, len(a.Segments), gc.segments)
				}

				// The dataflow graph (dependencies, adjacency, extents, timing)
				// must match the committed report byte for byte.
				wantReport, err := os.ReadFile(filepath.Join("testdata", "golden", gc.model+gd.suffix+".report.txt"))
				if err != nil {
					t.Fatalf("missing golden report (run `go generate ./...`): %v", err)
				}
				var gotReport bytes.Buffer
				a.WriteReport(&gotReport)
				if !bytes.Equal(gotReport.Bytes(), wantReport) {
					t.Fatalf("%v: recovered dataflow graph drifted from golden report:\n--- got ---\n%s--- want ---\n%s",
						gd.df, gotReport.String(), wantReport)
				}

				// The committed trace must classify as the backend that
				// produced it.
				if det := DetectDataflow(tr, a, DetectOptions{}); det.Class != gd.class {
					t.Fatalf("%v golden trace detected as %v", gd.df, det.Class)
				}

				opt := DefaultOptions()
				opt.IdenticalModules = gc.modular
				structures, err := Solve(a, gc.inW, gc.inD, gc.classes, opt)
				if err != nil {
					t.Fatalf("%v: %v", gd.df, err)
				}
				wantN := gc.structures
				if gd.df == accel.RowStationary {
					wantN = gc.rsStructures
				}
				if len(structures) != wantN {
					t.Fatalf("%v: enumerated %d candidate structures, golden %d (paper Table 3: %d)",
						gd.df, len(structures), wantN, gc.paperTable3)
				}
				if !containsTruth(structures, groundTruth(gc.victim())) {
					t.Fatalf("%v: true structure not among the %d candidates", gd.df, len(structures))
				}
				t.Logf("%s/%v: %d candidates from committed trace (paper Table 3: %d)",
					gc.model, gd.df, len(structures), gc.paperTable3)
			}
		})
	}
}

// TestGoldenTraceRegeneration guards the generator's determinism claim on
// the fast victims: capturing a fresh trace with the documented parameters
// reproduces the committed bytes exactly. (Traces are value-independent
// without zero pruning; this catches accidental schedule or codec drift.)
func TestGoldenTraceRegeneration(t *testing.T) {
	for _, gc := range goldenCases[:2] { // lenet, convnet: cheap to recapture
		gc := gc
		t.Run(gc.model, func(t *testing.T) {
			for _, gd := range goldenDataflows {
				want, err := os.ReadFile(filepath.Join("testdata", "golden", gc.model+gd.suffix+".trace"))
				if err != nil {
					t.Fatal(err)
				}
				raw := captureTraceBytes(t, gc.victim(), gd.df)
				if !bytes.Equal(raw, want) {
					t.Fatalf("freshly captured %s %v trace differs from golden (%d vs %d bytes)",
						gc.model, gd.df, len(raw), len(want))
				}
			}
		})
	}
}

// captureTraceBytes performs the generator's capture: weight seed 1, input
// seed 2, default accelerator configuration plus the dataflow.
func captureTraceBytes(t *testing.T, net *nn.Network, df accel.Dataflow) []byte {
	t.Helper()
	net.InitWeights(1)
	sim, err := accel.New(net, accel.Config{Dataflow: df})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	x := make([]float32, net.Input.Len())
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	res, err := sim.Run(x)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Trace.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
