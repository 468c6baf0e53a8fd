package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"cnnrev/internal/accel"
	"cnnrev/internal/corrupt"
	"cnnrev/internal/defense"
	"cnnrev/internal/nn"
	"cnnrev/internal/structrev"
)

func TestStructureAttackLeNetEndToEnd(t *testing.T) {
	net := nn.LeNet(10)
	net.InitWeights(1)
	rep, err := RunStructureAttackSpec(context.Background(), net, accel.Config{}, structrev.DefaultOptions(), 2, StructureAttackSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Structures) == 0 {
		t.Fatal("no structures recovered")
	}
	if rep.TruthIndex < 0 {
		t.Fatal("true structure not among candidates")
	}
	if len(rep.PerLayer) != 4 {
		t.Fatalf("per-layer map has %d entries, want 4", len(rep.PerLayer))
	}
}

// TestAttackTraceMatchesRunStructureAttackSpec: attacking a captured trace
// directly reports what the capturing pipeline reports, stage for stage,
// except the truth index, which needs the victim.
func TestAttackTraceMatchesRunStructureAttackSpec(t *testing.T) {
	net := nn.LeNet(10)
	net.InitWeights(2)
	cfg := accel.Config{Dataflow: accel.WeightStationary}
	spec := StructureAttackSpec{
		Defense: defense.Config{Kind: "fuse"},
		Corrupt: corrupt.Config{Seed: 1, DropRate: 0.02, ReorderWindow: 16},
	}
	var stages []string
	want, err := RunStructureAttackSpec(context.Background(), net, cfg, structrev.DefaultOptions(), 2, spec,
		func(stage string, _ time.Duration) { stages = append(stages, stage) })
	if err != nil {
		t.Fatal(err)
	}
	if s := []string{"capture", "defense", "corrupt", "analyze", "detect", "solve"}; !reflect.DeepEqual(stages, s) {
		t.Fatalf("stages %v, want %v", stages, s)
	}

	cap, err := Capture(net, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := TraceInput{Input: net.Input, ElemBytes: 4, Classes: 10, Dataflow: cfg.Dataflow}
	got, err := AttackTrace(context.Background(), cap.Result.Trace, in, structrev.DefaultOptions(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.TruthIndex != -1 {
		t.Fatalf("TruthIndex %d without a victim, want -1", got.TruthIndex)
	}
	got.TruthIndex = want.TruthIndex
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AttackTrace report differs from RunStructureAttackSpec's:\n got %+v\nwant %+v", got, want)
	}
}

// TestAttackTraceChecksContextAfterDefense: a context that expires by the
// end of the defense stage ends the attack there with no report, while
// without a defense the same context reaches the solve and yields a
// partial report.
func TestAttackTraceChecksContextAfterDefense(t *testing.T) {
	net := nn.LeNet(10)
	cap, err := Capture(net, accel.Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := TraceInput{Input: net.Input, ElemBytes: 4, Classes: 10}
	var stages []string
	onStage := func(stage string, _ time.Duration) { stages = append(stages, stage) }
	spec := StructureAttackSpec{Defense: defense.Config{Kind: "fuse"}}
	if rep, err := AttackTrace(ctx, cap.Result.Trace, in, structrev.DefaultOptions(), spec, onStage); rep != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("defended: report %v, err %v; want nil, context.Canceled", rep != nil, err)
	}
	if !reflect.DeepEqual(stages, []string{"defense"}) {
		t.Fatalf("defended stages %v, want [defense]", stages)
	}
	rep, err := AttackTrace(ctx, cap.Result.Trace, in, structrev.DefaultOptions(), StructureAttackSpec{}, nil)
	if rep == nil || !rep.Partial || !errors.Is(err, context.Canceled) {
		t.Fatalf("undefended: report %v, err %v; want a partial report", rep, err)
	}
}

// TestAttackTraceCapKeepsPrefix: a solver cap ends the enumeration like a
// deadline does, keeping the deterministic prefix, but it is not a
// cancellation, so Partial stays false.
func TestAttackTraceCapKeepsPrefix(t *testing.T) {
	net := nn.LeNet(10)
	cap, err := Capture(net, accel.Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := TraceInput{Input: net.Input, ElemBytes: 4, Classes: 10}
	full, err := AttackTrace(context.Background(), cap.Result.Trace, in, structrev.DefaultOptions(), StructureAttackSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt := structrev.DefaultOptions()
	opt.MaxStructures = 5
	rep, err := AttackTrace(context.Background(), cap.Result.Trace, in, opt, StructureAttackSpec{}, nil)
	if !errors.Is(err, structrev.ErrTooManyStructures) {
		t.Fatalf("err %v, want ErrTooManyStructures", err)
	}
	if rep == nil || rep.Partial {
		t.Fatalf("report %v, want a non-partial report", rep)
	}
	if len(full.Structures) <= 5 || !reflect.DeepEqual(rep.Structures, full.Structures[:5]) {
		t.Fatalf("capped structures are not the first 5 of the %d uncapped ones", len(full.Structures))
	}
}

func TestMaterializeReproducesVictimShapes(t *testing.T) {
	net := nn.LeNet(10)
	net.InitWeights(1)
	rep, err := RunStructureAttackSpec(context.Background(), net, accel.Config{}, structrev.DefaultOptions(), 2, StructureAttackSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cand, err := Materialize(rep.Analysis, &rep.Structures[rep.TruthIndex], net.Input, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cand.Output() != net.Output() {
		t.Fatalf("candidate output %v, victim %v", cand.Output(), net.Output())
	}
	// Per-layer shapes must match the victim exactly for the true candidate.
	wi := 0
	for i := range net.Specs {
		if net.Params[i] == nil {
			continue
		}
		for wi < len(cand.Specs) && cand.Params[wi] == nil {
			wi++
		}
		if cand.Shapes[wi] != net.Shapes[i] {
			t.Fatalf("layer %d: candidate %v, victim %v", i, cand.Shapes[wi], net.Shapes[i])
		}
		wi++
	}
}

func TestMaterializeSqueezeNetDAG(t *testing.T) {
	// Attack the full-size victim (tiny depth-scaled victims are
	// overhead-dominated, breaking the cycles∝MACs assumption the timing
	// filter relies on), then materialize a depth-scaled candidate.
	net := nn.SqueezeNet(1000, 1)
	net.InitWeights(3)
	opt := structrev.DefaultOptions()
	opt.IdenticalModules = true
	rep, err := RunStructureAttackSpec(context.Background(), net, accel.Config{}, opt, 4, StructureAttackSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TruthIndex < 0 {
		t.Fatalf("truth not found among %d candidates", len(rep.Structures))
	}
	cand, err := Materialize(rep.Analysis, &rep.Structures[rep.TruthIndex], net.Input, 10, 16)
	if err != nil {
		t.Fatal(err)
	}
	// The rebuilt DAG must run and produce classifier-shaped output.
	cand.InitWeights(5)
	x := make([]float32, cand.Input.Len())
	rng := rand.New(rand.NewSource(6))
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	out := cand.Infer(x)
	if len(out) != 10 {
		t.Fatalf("candidate output size %d", len(out))
	}
	// It must contain eltwise (bypass) and concat (fire) nodes.
	var elt, cat int
	for i := range cand.Specs {
		switch cand.Specs[i].Kind {
		case nn.KindEltwise:
			elt++
		case nn.KindConcat:
			cat++
		}
	}
	if elt != 3 || cat == 0 {
		t.Fatalf("rebuilt DAG has %d eltwise and %d concat nodes", elt, cat)
	}
}

func TestRankCandidatesOrdersByAccuracy(t *testing.T) {
	net := nn.LeNet(3)
	net.InitWeights(1)
	rep, err := RunStructureAttackSpec(context.Background(), net, accel.Config{}, structrev.DefaultOptions(), 2, StructureAttackSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	scores := RankCandidatesResult(context.Background(), rep, net.Input, RankConfig{
		Classes: 3, PerClass: 12, Epochs: 3, DepthDiv: 1, Seed: 7, MaxCandidates: 5,
	}).Scores
	if len(scores) == 0 {
		t.Fatal("no scores")
	}
	for i := 1; i < len(scores); i++ {
		a, b := scores[i-1].Accuracy, scores[i].Accuracy
		if !math.IsNaN(a) && !math.IsNaN(b) && a < b {
			t.Fatal("scores not sorted descending")
		}
	}
	// All candidates should train (valid geometries).
	for _, s := range scores {
		if s.Err != nil {
			t.Fatalf("candidate %d failed to materialize: %v", s.Index, s.Err)
		}
	}
}

func TestRunWeightAttackAccuracy(t *testing.T) {
	// A small pruned conv layer: 8 filters of 5×5×2 with 25% zeros.
	spec := nn.LayerSpec{Name: "conv1", Kind: nn.KindConv, OutC: 8, F: 5, S: 2, ReLU: true}
	net, err := nn.New("victim", nn.Shape{C: 2, H: 24, W: 24}, []nn.LayerSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for i := range net.Params[0].W.Data {
		if rng.Float64() < 0.25 {
			net.Params[0].W.Data[i] = 0
		} else {
			m := 0.05 + 0.3*rng.Float64()
			if rng.Intn(2) == 0 {
				m = -m
			}
			net.Params[0].W.Data[i] = float32(m)
		}
	}
	for i := range net.Params[0].B.Data {
		net.Params[0].B.Data[i] = float32(0.04 + 0.05*rng.Float64())
	}
	rep, err := RunWeightAttackOpts(context.Background(), net, accel.Config{}, WeightAttackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxRatioErr > math.Pow(2, -10) {
		t.Fatalf("max ratio error %g exceeds 2^-10", rep.MaxRatioErr)
	}
	if rep.ZeroErrors != 0 {
		t.Fatalf("%d zero/non-zero misclassifications", rep.ZeroErrors)
	}
	if rep.ZerosDetected != rep.ZerosActual {
		t.Fatalf("detected %d of %d zero weights", rep.ZerosDetected, rep.ZerosActual)
	}
	if rep.Queries == 0 {
		t.Fatal("no queries recorded")
	}
}

// TestRunWeightAttackRejectsZeroBias: a zero bias leaves the filter's w/b
// undefined, so the attack must refuse the victim before any query rather
// than exhaust its search and report an infinite ratio error.
func TestRunWeightAttackRejectsZeroBias(t *testing.T) {
	spec := nn.LayerSpec{Name: "conv1", Kind: nn.KindConv, OutC: 3, F: 5, S: 2, ReLU: true}
	net, err := nn.New("victim", nn.Shape{C: 1, H: 16, W: 16}, []nn.LayerSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	net.InitWeights(4)
	for d := range net.Params[0].B.Data {
		net.Params[0].B.Data[d] = 0.05
	}
	net.Params[0].B.Data[1] = 0
	rep, err := RunWeightAttackOpts(context.Background(), net, accel.Config{}, WeightAttackConfig{})
	if err == nil || !strings.Contains(err.Error(), "filter 1 has a zero bias") {
		t.Fatalf("report %+v, error %v; want filter 1's zero bias rejected", rep, err)
	}
	net.Params[0].B.Data[1] = -0.05
	if _, err := RunWeightAttackOpts(context.Background(), net, accel.Config{}, WeightAttackConfig{}); err != nil {
		t.Fatalf("non-zero biases: %v", err)
	}
}

func TestRankCandidatesCapsAndSurvivesErrors(t *testing.T) {
	net := nn.LeNet(3)
	net.InitWeights(1)
	rep, err := RunStructureAttackSpec(context.Background(), net, accel.Config{}, structrev.DefaultOptions(), 2, StructureAttackSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	scores := RankCandidatesResult(context.Background(), rep, net.Input, RankConfig{
		Classes: 2, PerClass: 4, Epochs: 1, DepthDiv: 1, Seed: 3, MaxCandidates: 2,
	}).Scores
	if len(scores) != 2 {
		t.Fatalf("cap ignored: %d scores", len(scores))
	}
}

func TestGroundTruthConfigsShapes(t *testing.T) {
	net := nn.AlexNet(1000, 16)
	truth := GroundTruthConfigs(net)
	if len(truth) != 8 {
		t.Fatalf("%d configs", len(truth))
	}
	if !truth[5].FC || truth[5].WIFM != 6 {
		t.Fatalf("fc6 config: %+v", truth[5])
	}
	if truth[0].F != 11 || !truth[0].HasPool {
		t.Fatalf("conv1 config: %+v", truth[0])
	}
}

// TestCaptureAllocatesTraceOnly pins the trace-only capture: observing
// full-size SqueezeNet allocates the trace and the simulator's tables but no
// activations, im2col or pooling scratch — under 8 MiB in every dataflow,
// where computing every layer allocated 55–60 MiB.
func TestCaptureAllocatesTraceOnly(t *testing.T) {
	const limit = 8 << 20
	net := nn.SqueezeNet(1000, 1)
	net.InitWeights(1)
	for _, df := range []accel.Dataflow{accel.OutputStationary, accel.WeightStationary, accel.RowStationary} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cap, err := Capture(net, accel.Config{Dataflow: df}, 2)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
			t.Errorf("%v: Capture allocated %.1f MiB for %d records, want < %d MiB",
				df, float64(got)/(1<<20), len(cap.Result.Trace.Accesses), limit>>20)
		}
	}
}

// TestCaptureSeedReachesOnlyPrunedTraces: a zero-pruned trace depends on
// the input Capture draws from its seed; a trace-only capture does not
// read the input at all, so its seed changes nothing.
func TestCaptureSeedReachesOnlyPrunedTraces(t *testing.T) {
	net := nn.LeNet(10)
	net.InitWeights(1)
	traceOf := func(cfg accel.Config, seed int64) string {
		cap, err := Capture(net, cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := cap.Result.Trace.Write(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if traceOf(accel.Config{}, 1) != traceOf(accel.Config{}, 2) {
		t.Error("unpruned traces differ between seeds")
	}
	pruned := accel.Config{ZeroPrune: true}
	if traceOf(pruned, 1) == traceOf(pruned, 2) {
		t.Error("zero-pruned traces do not depend on the seed")
	}
	if traceOf(pruned, 1) != traceOf(pruned, 1) {
		t.Error("zero-pruned traces differ for one seed")
	}
}
