package cnnrev

import (
	"context"
	"io"
	"math"
	"math/rand"
	"sync"
	"testing"

	"cnnrev/internal/accel"
	"cnnrev/internal/core"
	"cnnrev/internal/experiments"
	"cnnrev/internal/nn"
	"cnnrev/internal/oram"
	"cnnrev/internal/structrev"
	"cnnrev/internal/tensor"
	"cnnrev/internal/weightrev"
)

// ---------------------------------------------------------------------------
// Paper artifacts: one benchmark per table and figure. Each runs the full
// regeneration pipeline and reports the headline quantity as a custom
// metric, so `go test -bench .` doubles as the reproduction harness.
// ---------------------------------------------------------------------------

func benchTable3(b *testing.B, model string, paper int) {
	b.ReportAllocs()
	b.Helper()
	var count int
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3([]string{model})
		if err != nil {
			b.Fatal(err)
		}
		if !rows[0].TruthFound {
			b.Fatalf("%s: true structure lost", model)
		}
		count = rows[0].Count
	}
	b.ReportMetric(float64(count), "candidates")
	b.ReportMetric(float64(paper), "paper_candidates")
}

func BenchmarkTable3_LeNet(b *testing.B)      { benchTable3(b, "lenet", 9) }
func BenchmarkTable3_ConvNet(b *testing.B)    { benchTable3(b, "convnet", 6) }
func BenchmarkTable3_AlexNet(b *testing.B)    { benchTable3(b, "alexnet", 24) }
func BenchmarkTable3_SqueezeNet(b *testing.B) { benchTable3(b, "squeezenet", 9) }

func BenchmarkTable4_AlexNetConfigs(b *testing.B) {
	b.ReportAllocs()
	var rep *experiments.Table4Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.Table4()
		if err != nil {
			b.Fatal(err)
		}
		if !rep.TruthFound {
			b.Fatal("true structure lost")
		}
	}
	rows := 0
	for _, cfgs := range rep.Configs {
		rows += len(cfgs)
	}
	b.ReportMetric(float64(rows), "config_rows")
	b.ReportMetric(float64(rep.Combinations), "combinations")
}

func BenchmarkFig3_MemoryTrace(b *testing.B) {
	b.ReportAllocs()
	var rep *experiments.Fig3Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.Fig3("alexnet", io.Discard)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.Segments), "layer_boundaries")
	b.ReportMetric(float64(rep.TraceRecords), "trace_records")
}

func BenchmarkFig4_CandidateAccuracy(b *testing.B) {
	b.ReportAllocs()
	var rep *experiments.RankReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.Fig4(core.RankConfig{
			Classes: 3, PerClass: 6, Epochs: 1, DepthDiv: 48, Seed: 9, MaxCandidates: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.TruthRank), "truth_rank")
	b.ReportMetric(float64(rep.Candidates), "candidates_trained")
}

func BenchmarkFig5_SqueezeNetAccuracy(b *testing.B) {
	b.ReportAllocs()
	var rep *experiments.RankReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.Fig5(core.RankConfig{
			Classes: 6, PerClass: 8, Epochs: 1, DepthDiv: 32, TopK: 5, Seed: 9,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.TruthRank), "truth_rank")
	b.ReportMetric(float64(rep.Candidates), "candidates_trained")
}

func BenchmarkFig7_WeightRecovery(b *testing.B) {
	b.ReportAllocs()
	var rep *experiments.Fig7Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.Fig7(16)
		if err != nil {
			b.Fatal(err)
		}
		if rep.MaxRatioErr > 1.0/1024 {
			b.Fatalf("ratio error %g exceeds the paper's 2^-10 bound", rep.MaxRatioErr)
		}
		if rep.ZeroErrors != 0 {
			b.Fatalf("%d zero-weight misclassifications", rep.ZeroErrors)
		}
	}
	b.ReportMetric(rep.MaxRatioErr, "max_ratio_err")
	b.ReportMetric(float64(rep.Queries), "device_queries")
}

// weightAttackVictim builds a single-conv victim with a model's first-layer
// geometry, minus pooling and padding (the ratio attack's corner iteration
// needs P=0 and no fused pool): deterministic signed weights bounded away
// from zero, 20% exact zeros, positive bias.
func weightAttackVictim(in nn.Shape, outC, f int, seed int64) *nn.Network {
	spec := nn.LayerSpec{Name: "conv1", Kind: nn.KindConv, OutC: outC, F: f, S: 1, ReLU: true}
	net := nn.MustNew("victim", in, []nn.LayerSpec{spec})
	rng := rand.New(rand.NewSource(seed))
	w := net.Params[0].W.Data
	for i := range w {
		if rng.Float64() < 0.2 {
			w[i] = 0
			continue
		}
		mag := 0.05 + 0.25*rng.Float64()
		if rng.Intn(2) == 0 {
			mag = -mag
		}
		w[i] = float32(mag)
	}
	for i := range net.Params[0].B.Data {
		net.Params[0].B.Data[i] = 0.07
	}
	return net
}

// benchWeightAttack runs the full §4 recovery (parallel per-filter fan-out
// through core.RunWeightAttackOpts) against a first-layer-geometry victim.
func benchWeightAttack(b *testing.B, in nn.Shape, outC, f int, seed int64) {
	net := weightAttackVictim(in, outC, f, seed)
	b.ReportAllocs()
	var rep *core.WeightReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = core.RunWeightAttackOpts(context.Background(), net, accel.Config{}, core.WeightAttackConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if rep.ZeroErrors != 0 {
			b.Fatalf("%d zero-weight misclassifications", rep.ZeroErrors)
		}
	}
	b.ReportMetric(float64(rep.Queries), "device_queries")
	b.ReportMetric(rep.MaxRatioErr, "max_ratio_err")
}

// BenchmarkWeightAttack_LeNet: LeNet conv1 geometry (1x28x28 in, 6 filters
// of 5x5), unpooled/unpadded.
func BenchmarkWeightAttack_LeNet(b *testing.B) {
	benchWeightAttack(b, nn.Shape{C: 1, H: 28, W: 28}, 6, 5, 31)
}

// BenchmarkWeightAttack_ConvNet: CIFAR ConvNet conv1 geometry (3x32x32 in,
// 32 filters of 5x5), unpooled/unpadded.
func BenchmarkWeightAttack_ConvNet(b *testing.B) {
	benchWeightAttack(b, nn.Shape{C: 3, H: 32, W: 32}, 32, 5, 32)
}

// ---------------------------------------------------------------------------
// Ablations (design choices DESIGN.md calls out).
// ---------------------------------------------------------------------------

func BenchmarkAblationToleranceSweep(b *testing.B) {
	b.ReportAllocs()
	var rows []experiments.TimingSweepRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationTimingSweep("alexnet", []float64{1.15, 1.35, 2.0})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Tolerance == 1.35 {
			b.ReportMetric(float64(r.Candidates), "candidates_tol1.35")
		}
	}
}

func BenchmarkAblationKernelBound(b *testing.B) {
	b.ReportAllocs()
	var rows []experiments.KernelBoundRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationKernelBound("alexnet", []int{11, 22})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[len(rows)-1].Candidates), "candidates_unbounded22")
}

func BenchmarkAblationZeroPruning(b *testing.B) {
	b.ReportAllocs()
	var rows []experiments.PruneTrafficRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationZeroPruneTraffic(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[len(rows)-1].TrafficFactor, "traffic_ratio_sparse")
}

func BenchmarkAblationORAM(b *testing.B) {
	b.ReportAllocs()
	var rep *experiments.ORAMReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.AblationORAM("lenet")
		if err != nil {
			b.Fatal(err)
		}
		if !rep.AttackDefeated {
			b.Fatal("ORAM failed to defeat the attack")
		}
	}
	b.ReportMetric(rep.Overhead, "oram_overhead_x")
}

func BenchmarkAblationBiasInDRAM(b *testing.B) {
	b.ReportAllocs()
	var rep *experiments.BiasAblationReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.AblationBiasInDRAM("lenet")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.PaperModel), "candidates_paper_model")
	b.ReportMetric(float64(rep.BiasInDRAM), "candidates_bias_in_dram")
}

func BenchmarkAblationBlockSize(b *testing.B) {
	b.ReportAllocs()
	var rows []experiments.BlockSizeRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationBlockSize("lenet", []int{4, 16})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].Candidates), "candidates_4B")
	b.ReportMetric(float64(rows[1].Candidates), "candidates_16B")
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks.
// ---------------------------------------------------------------------------

// gemmOperands builds deterministic operands for the GEMM shape benchmarks.
func gemmOperands(lenA, lenB, lenC int) (a, bb, c []float32) {
	rng := rand.New(rand.NewSource(1))
	a = make([]float32, lenA)
	bb = make([]float32, lenB)
	c = make([]float32, lenC)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
	}
	for i := range bb {
		bb[i] = float32(rng.NormFloat64())
	}
	return a, bb, c
}

func benchGemmShape(b *testing.B, m, k, n int) {
	b.ReportAllocs()
	b.Helper()
	a, bb, c := gemmOperands(m*k, k*n, m*n)
	b.SetBytes(int64(m*k+k*n+m*n) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Gemm(a, bb, c, m, k, n)
	}
}

// Square, skinny and transposed shapes of the cache-blocked GEMM family.
// The naive-reference comparison benchmarks live next to the kernels in
// internal/tensor/gemm_bench_test.go.

func BenchmarkGemm256(b *testing.B)       { benchGemmShape(b, 256, 256, 256) }
func BenchmarkGemmSquare512(b *testing.B) { benchGemmShape(b, 512, 512, 512) }

// m=1: a single-sample FC forward row (classifier shape).
func BenchmarkGemmSkinnyM1(b *testing.B) { benchGemmShape(b, 1, 4096, 1000) }

// n=1: a matrix-vector product.
func BenchmarkGemmSkinnyN1(b *testing.B) { benchGemmShape(b, 2048, 1024, 1) }

func BenchmarkGemmTransA(b *testing.B) {
	b.ReportAllocs()
	// Conv backward dcols shape: (k×OutC)ᵀ·(OutC×n), AlexNet conv2 family.
	m, k, n := 2400, 256, 729
	a, bb, c := gemmOperands(k*m, k*n, m*n)
	b.SetBytes(int64(k*m+k*n+m*n) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.GemmTransA(a, bb, c, m, k, n)
	}
}

func BenchmarkGemmTransB(b *testing.B) {
	b.ReportAllocs()
	// Conv backward dW shape: (OutC×spatial)·(k×spatial)ᵀ.
	m, k, n := 256, 729, 2400
	a, bb, c := gemmOperands(m*k, n*k, m*n)
	b.SetBytes(int64(m*k+n*k+m*n) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.GemmTransB(a, bb, c, m, k, n)
	}
}

func BenchmarkConvForwardAlexNetConv2(b *testing.B) {
	b.ReportAllocs()
	conv := tensor.Conv2D{InC: 96, OutC: 256, F: 5, S: 1, P: 2}
	in := make([]float32, 96*27*27)
	w := make([]float32, 256*96*5*5)
	bias := make([]float32, 256)
	oh, ow := conv.OutDims(27, 27)
	out := make([]float32, 256*oh*ow)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(in, 27, 27, w, bias, out, nil)
	}
}

func BenchmarkAccelTraceAlexNet(b *testing.B) {
	b.ReportAllocs()
	net := nn.AlexNet(1000, 1)
	net.InitWeights(1)
	x := make([]float32, net.Input.Len())
	for i := 0; i < b.N; i++ {
		sim, err := accel.New(net, accel.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(x); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCapture times the adversary's capture of full-size AlexNet under one
// dataflow: core.Capture, which records the trace without computing the
// layers. BenchmarkAccelTraceAlexNet is the computing Run it replaces.
func benchCapture(b *testing.B, df accel.Dataflow) {
	b.ReportAllocs()
	net := nn.AlexNet(1000, 1)
	net.InitWeights(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Capture(net, accel.Config{Dataflow: df}, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCapture_OS(b *testing.B) { benchCapture(b, accel.OutputStationary) }
func BenchmarkCapture_WS(b *testing.B) { benchCapture(b, accel.WeightStationary) }
func BenchmarkCapture_RS(b *testing.B) { benchCapture(b, accel.RowStationary) }

func BenchmarkSolveAlexNet(b *testing.B) {
	b.ReportAllocs()
	net := nn.AlexNet(1000, 1)
	net.InitWeights(1)
	cap, err := core.Capture(net, accel.Config{}, 2)
	if err != nil {
		b.Fatal(err)
	}
	a, err := structrev.Analyze(cap.Result.Trace, net.Input.Len()*4, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := structrev.Solve(a, 227, 3, 1000, structrev.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainerEpochLeNet(b *testing.B) {
	b.ReportAllocs()
	net := nn.LeNet(3)
	net.InitWeights(1)
	xs := make([][]float32, 30)
	ys := make([]int, 30)
	rng := rand.New(rand.NewSource(2))
	for i := range xs {
		xs[i] = make([]float32, net.Input.Len())
		for j := range xs[i] {
			xs[i][j] = float32(rng.NormFloat64())
		}
		ys[i] = i % 3
	}
	tr := nn.NewTrainer(net)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Epoch(xs, ys, rng)
	}
}

func BenchmarkORAMObfuscate(b *testing.B) {
	b.ReportAllocs()
	net := nn.LeNet(10)
	net.InitWeights(1)
	cap, err := core.Capture(net, accel.Config{}, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := oram.Obfuscate(cap.Result.Trace, oram.Config{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDataflow(b *testing.B) {
	b.ReportAllocs()
	var rows []experiments.DataflowRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationDataflow("convnet")
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.TruthFound {
				b.Fatalf("%s lost the truth", r.Dataflow)
			}
		}
	}
	b.ReportMetric(float64(rows[0].Candidates), "candidates")
}

func BenchmarkExtensionLayerPeeling(b *testing.B) {
	b.ReportAllocs()
	net := peelingVictim()
	for i := 0; i < b.N; i++ {
		o, err := weightrev.NewStackOracle(net)
		if err != nil {
			b.Fatal(err)
		}
		at := weightrev.NewStackAttacker(o, net)
		rec, err := at.Recover()
		if err != nil {
			b.Fatal(err)
		}
		if rec.Unreachable[1][0] || rec.Unreachable[1][1] || rec.Unreachable[1][2] {
			b.Fatal("injection failed")
		}
	}
}

// peelingVictim builds the 2-layer ladder-dominant stack used by the
// peeling benchmark (mirrors examples/peeling).
func peelingVictim() *nn.Network {
	net, err := nn.New("stack", nn.Shape{C: 1, H: 16, W: 16}, []nn.LayerSpec{
		{Name: "conv0", Kind: nn.KindConv, OutC: 3, F: 3, S: 2, ReLU: true},
		{Name: "conv1", Kind: nn.KindConv, OutC: 2, F: 2, S: 1, ReLU: true},
	})
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(41))
	w0 := net.Params[0].W.Data
	for i := range w0 {
		w0[i] = float32(0.01 + 0.03*rng.Float64())
		if rng.Intn(2) == 0 {
			w0[i] = -w0[i]
		}
	}
	w0[(0*3+1)*3+1] = 0.5
	w0[(1*3+1)*3+1] = -0.5
	w0[(2*3+0)*3+1] = 0.5
	w0[(2*3+2)*3+1] = 0.02
	for d := 0; d < 3; d++ {
		net.Params[0].B.Data[d] = float32(-0.04 - 0.02*rng.Float64())
	}
	w1 := net.Params[1].W.Data
	for i := range w1 {
		m := 0.08 + 0.3*rng.Float64()
		if rng.Intn(2) == 0 {
			m = -m
		}
		w1[i] = float32(m)
	}
	for d := 0; d < 2; d++ {
		net.Params[1].B.Data[d] = float32(-0.02 - 0.02*rng.Float64())
	}
	return net
}

// BenchmarkPipeline_LeNet times the complete attack pipeline end to end:
// trace capture on the simulated accelerator, trace analysis, structure
// solving, and parallel candidate ranking — the wall-clock an adversary pays
// from first observation to a ranked structure list. This is the headline
// number for the pipeline-throughput work; before/after figures live in
// results/perf_pipeline.md.
func BenchmarkPipeline_LeNet(b *testing.B) {
	b.ReportAllocs()
	net := nn.LeNet(3)
	net.InitWeights(1)
	var ranked int
	for i := 0; i < b.N; i++ {
		rep, err := core.RunStructureAttackSpec(context.Background(), net, accel.Config{}, structrev.DefaultOptions(), 2, core.StructureAttackSpec{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if rep.TruthIndex < 0 {
			b.Fatal("true structure lost")
		}
		scores := core.RankCandidatesResult(context.Background(), rep, net.Input, core.RankConfig{
			Classes: 3, PerClass: 12, Epochs: 3, DepthDiv: 1, Seed: 7, MaxCandidates: 8,
		}).Scores
		if len(scores) == 0 {
			b.Fatal("no ranked candidates")
		}
		ranked = len(scores)
	}
	b.ReportMetric(float64(ranked), "candidates_ranked")
}

// ---------------------------------------------------------------------------
// Candidate-ranking schedules: flat full-budget training vs the
// successive-halving tournament on a wide report (LeNet at timing tolerance
// 4.0 yields ~93 candidates). Both benchmarks rank the identical report
// with the identical seed; the Halving variant asserts it selects the same
// top-1 as the flat reference — a winner whose full-budget validation
// accuracy is bit-equal to the flat winner's (under an exact accuracy tie
// the selection criterion cannot distinguish the tied candidates, so that
// is what "same top-1" means) — while spending at least 3x fewer training
// epochs. Committed numbers live in results/perf_rank.md and
// results/bench_rank.json.
// ---------------------------------------------------------------------------

var rankBench struct {
	once  sync.Once
	rep   *core.StructureReport
	input nn.Shape
	rc    core.RankConfig
	flat  *core.RankResult // untimed reference for the top-1 assertion
	err   error
}

func rankBenchSetup(b *testing.B) {
	b.Helper()
	rankBench.once.Do(func() {
		net := nn.LeNet(10)
		net.InitWeights(1)
		opt := structrev.DefaultOptions()
		opt.TimingSpreadMax = 4.0
		rep, err := core.RunStructureAttackSpec(context.Background(), net, accel.Config{}, opt, 2, core.StructureAttackSpec{}, nil)
		if err != nil {
			rankBench.err = err
			return
		}
		rankBench.rep = rep
		rankBench.input = net.Input
		rankBench.rc = core.RankConfig{Classes: 4, PerClass: 24, Epochs: 12, DepthDiv: 1, Seed: 9}
		rankBench.flat = core.RankCandidatesResult(context.Background(), rep, net.Input, rankBench.rc)
	})
	if rankBench.err != nil {
		b.Fatal(rankBench.err)
	}
	if n := len(rankBench.flat.Scores); n < 64 {
		b.Fatalf("want a >= 64-candidate report, got %d", n)
	}
}

func BenchmarkRank_Flat(b *testing.B) {
	rankBenchSetup(b)
	b.ReportAllocs()
	var res *core.RankResult
	for i := 0; i < b.N; i++ {
		res = core.RankCandidatesResult(context.Background(), rankBench.rep, rankBench.input, rankBench.rc)
	}
	if res.Scores[0].Index != rankBench.flat.Scores[0].Index {
		b.Fatalf("flat ranking nondeterministic: top-1 %d vs %d", res.Scores[0].Index, rankBench.flat.Scores[0].Index)
	}
	b.ReportMetric(float64(res.TotalEpochs), "total_epochs")
	b.ReportMetric(float64(len(res.Scores)), "candidates")
}

func BenchmarkRank_Halving(b *testing.B) {
	rankBenchSetup(b)
	b.ReportAllocs()
	rc := rankBench.rc
	rc.Halving, rc.Eta, rc.MinEpochs = true, 2, 1
	var res *core.RankResult
	for i := 0; i < b.N; i++ {
		res = core.RankCandidatesResult(context.Background(), rankBench.rep, rankBench.input, rc)
	}
	ref := rankBench.flat
	best := math.Float64bits(ref.Scores[0].Accuracy)
	sameTop1 := false
	for _, sc := range ref.Scores {
		if sc.Index == res.Scores[0].Index {
			sameTop1 = math.Float64bits(sc.Accuracy) == best && sc.Epochs == ref.Scores[0].Epochs
			break
		}
	}
	if !sameTop1 {
		b.Fatalf("tournament top-1 %d (acc %.4f) is not flat's top-1 selection (candidate %d, acc %.4f)",
			res.Scores[0].Index, res.Scores[0].Accuracy, ref.Scores[0].Index, ref.Scores[0].Accuracy)
	}
	if math.Float64bits(res.Scores[0].Accuracy) != best {
		b.Fatalf("winner accuracy differs: %v vs %v", res.Scores[0].Accuracy, ref.Scores[0].Accuracy)
	}
	if res.TotalEpochs*3 > ref.TotalEpochs {
		b.Fatalf("epoch reduction below 3x: tournament %d vs flat %d", res.TotalEpochs, ref.TotalEpochs)
	}
	b.ReportMetric(float64(res.TotalEpochs), "total_epochs")
	b.ReportMetric(float64(ref.TotalEpochs)/float64(res.TotalEpochs), "epoch_reduction_x")
	b.ReportMetric(float64(len(res.Scores)), "candidates")
}
