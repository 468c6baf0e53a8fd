package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"cnnrev/internal/accel"
	"cnnrev/internal/nn"
	"cnnrev/internal/structrev"
)

func TestStructureAttackLeNetEndToEnd(t *testing.T) {
	net := nn.LeNet(10)
	net.InitWeights(1)
	rep, err := RunStructureAttack(net, accel.Config{}, structrev.DefaultOptions(), 2)
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

func TestMaterializeReproducesVictimShapes(t *testing.T) {
	net := nn.LeNet(10)
	net.InitWeights(1)
	rep, err := RunStructureAttack(net, accel.Config{}, structrev.DefaultOptions(), 2)
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
	rep, err := RunStructureAttack(net, accel.Config{}, opt, 4)
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
	rep, err := RunStructureAttack(net, accel.Config{}, structrev.DefaultOptions(), 2)
	if err != nil {
		t.Fatal(err)
	}
	scores := RankCandidates(rep, net.Input, RankConfig{
		Classes: 3, PerClass: 12, Epochs: 3, DepthDiv: 1, Seed: 7, MaxCandidates: 5,
	})
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
	rep, err := RunWeightAttack(net, accel.Config{})
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

func TestRankCandidatesCapsAndSurvivesErrors(t *testing.T) {
	net := nn.LeNet(3)
	net.InitWeights(1)
	rep, err := RunStructureAttack(net, accel.Config{}, structrev.DefaultOptions(), 2)
	if err != nil {
		t.Fatal(err)
	}
	scores := RankCandidates(rep, net.Input, RankConfig{
		Classes: 2, PerClass: 4, Epochs: 1, DepthDiv: 1, Seed: 3, MaxCandidates: 2,
	})
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
