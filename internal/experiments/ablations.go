package experiments

import (
	"fmt"
	"strings"

	"cnnrev/internal/accel"
	"cnnrev/internal/core"
	"cnnrev/internal/nn"
	"cnnrev/internal/oram"
	"cnnrev/internal/structrev"
)

// TimingSweepRow is one tolerance setting's outcome.
type TimingSweepRow struct {
	Tolerance  float64
	Candidates int
	TruthFound bool
}

// AblationTimingSweep measures how the execution-time filter's tolerance
// trades candidate-set size against robustness (the design choice behind
// Algorithm 1 step 4). A tolerance below the victim's intrinsic
// cycles-per-MAC spread loses the true structure; a loose one admits more
// candidates.
func AblationTimingSweep(model string, tols []float64) ([]TimingSweepRow, error) {
	if len(tols) == 0 {
		tols = []float64{1.05, 1.15, 1.35, 2.0, 4.0}
	}
	classes := 10
	if model == "alexnet" || model == "squeezenet" {
		classes = 1000
	}
	net, err := victim(model, classes, 1)
	if err != nil {
		return nil, err
	}
	cap, err := core.Capture(net, accel.Config{}, 2)
	if err != nil {
		return nil, err
	}
	elem := cap.Sim.Config().ElemBytes
	a, err := structrev.Analyze(cap.Result.Trace, net.Input.Len()*elem, elem)
	if err != nil {
		return nil, err
	}
	truth := core.GroundTruthConfigs(net)
	var rows []TimingSweepRow
	for _, tol := range tols {
		opt := structrev.DefaultOptions()
		opt.TimingSpreadMax = tol
		if model == "squeezenet" {
			opt.IdenticalModules = true
		}
		structures, err := structrev.Solve(a, net.Input.W, net.Input.C, net.NumClasses(), opt)
		if err != nil {
			return nil, err
		}
		row := TimingSweepRow{Tolerance: tol, Candidates: len(structures)}
		for i := range structures {
			if matchesTruth(&structures[i], truth) {
				row.TruthFound = true
				break
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func matchesTruth(st *structrev.Structure, truth []structrev.LayerConfig) bool {
	cfgs := st.WeightedConfigs()
	if len(cfgs) != len(truth) {
		return false
	}
	for i := range cfgs {
		a, b := cfgs[i], truth[i]
		if a.FC != b.FC || a.WOFM != b.WOFM || a.DOFM != b.DOFM {
			return false
		}
		if a.FC {
			continue
		}
		if a.F != b.F || a.S != b.S || a.ConvOutW() != b.ConvOutW() ||
			a.HasPool != b.HasPool || a.FPool != b.FPool || a.SPool != b.SPool {
			return false
		}
	}
	return true
}

// FormatTimingSweep renders the sweep.
func FormatTimingSweep(model string, rows []TimingSweepRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — timing-filter tolerance sweep (%s)\n", model)
	fmt.Fprintf(&b, "%10s %12s %8s\n", "tolerance", "candidates", "truth")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10.2f %12d %8v\n", r.Tolerance, r.Candidates, r.TruthFound)
	}
	return b.String()
}

// BiasAblationReport compares the attack against victims that keep biases
// on chip (the paper's Eq. (3) model) versus in the DRAM filter region.
type BiasAblationReport struct {
	Model                  string
	PaperModel, BiasInDRAM int
	TruthFoundBoth         bool
}

// AblationBiasInDRAM quantifies how much stronger the structure attack gets
// when the victim streams biases through DRAM: the extra D_OFM elements let
// the solver reject wrong output-depth factorizations outright.
func AblationBiasInDRAM(model string) (*BiasAblationReport, error) {
	classes := 10
	if model == "alexnet" || model == "squeezenet" {
		classes = 1000
	}
	net, err := victim(model, classes, 1)
	if err != nil {
		return nil, err
	}
	plain, err := core.RunStructureAttack(net, accel.Config{}, structrev.DefaultOptions(), 2)
	if err != nil {
		return nil, err
	}
	optB := structrev.DefaultOptions()
	optB.BiasInFilters = true
	withBias, err := core.RunStructureAttack(net, accel.Config{BiasInDRAM: true}, optB, 2)
	if err != nil {
		return nil, err
	}
	return &BiasAblationReport{
		Model:          model,
		PaperModel:     len(plain.Structures),
		BiasInDRAM:     len(withBias.Structures),
		TruthFoundBoth: plain.TruthIndex >= 0 && withBias.TruthIndex >= 0,
	}, nil
}

// String renders the report.
func (r *BiasAblationReport) String() string {
	return fmt.Sprintf("Ablation — bias storage (%s): %d candidates (biases on chip, paper model) vs %d (biases in DRAM); truth found in both: %v\n",
		r.Model, r.PaperModel, r.BiasInDRAM, r.TruthFoundBoth)
}

// PruneTrafficRow is one threshold's traffic measurement.
type PruneTrafficRow struct {
	Threshold     float32
	Sparsity      float64 // fraction of zero output pixels across fmap layers
	DenseBlocks   uint64
	PrunedBlocks  uint64
	TrafficFactor float64 // pruned / dense
}

// AblationZeroPruneTraffic reproduces the motivation for dynamic zero
// pruning (the optimization §4 attacks): total DRAM traffic with and
// without pruning as activation sparsity grows.
func AblationZeroPruneTraffic(thresholds []float32) ([]PruneTrafficRow, error) {
	if len(thresholds) == 0 {
		thresholds = []float32{0, 0.25, 0.5, 1.0}
	}
	base, err := nn.Sequential("sparse", nn.Shape{C: 3, H: 32, W: 32}, []nn.ConvConfig{
		{OutC: 16, F: 3, S: 1, P: 1},
		{OutC: 16, F: 3, S: 1, P: 1},
		{OutC: 16, F: 3, S: 1, P: 1},
	}, []int{10})
	if err != nil {
		return nil, err
	}
	base.InitWeights(3)
	var rows []PruneTrafficRow
	for _, th := range thresholds {
		dense, err := core.Capture(base, accel.Config{Threshold: th}, 4)
		if err != nil {
			return nil, err
		}
		pruned, err := core.Capture(base, accel.Config{Threshold: th, ZeroPrune: true}, 4)
		if err != nil {
			return nil, err
		}
		// Only the pruned capture computes activations; the dense one's
		// are identical (same input, threshold and weights).
		total, zero := 0, 0
		for li := range base.Specs {
			shape := base.Shapes[li]
			total += shape.Len()
			for _, nz := range pruned.Result.NZCounts[li] {
				zero += shape.H*shape.W - nz
			}
		}
		db, pb := dense.Result.Trace.Blocks(), pruned.Result.Trace.Blocks()
		rows = append(rows, PruneTrafficRow{
			Threshold:     th,
			Sparsity:      float64(zero) / float64(total),
			DenseBlocks:   db,
			PrunedBlocks:  pb,
			TrafficFactor: float64(pb) / float64(db),
		})
	}
	return rows, nil
}

// FormatPruneTraffic renders the rows.
func FormatPruneTraffic(rows []PruneTrafficRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — zero-pruning DRAM traffic vs activation sparsity\n")
	fmt.Fprintf(&b, "%10s %10s %12s %12s %8s\n", "threshold", "sparsity", "dense blks", "pruned blks", "ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10.2f %10.2f %12d %12d %8.2f\n",
			r.Threshold, r.Sparsity, r.DenseBlocks, r.PrunedBlocks, r.TrafficFactor)
	}
	return b.String()
}

// ORAMReport quantifies the defense the paper's related work points to.
type ORAMReport struct {
	Model          string
	Overhead       float64
	Levels         int
	MaxStash       int
	AttackDefeated bool
}

// AblationORAM obfuscates a victim trace with Path ORAM and verifies the
// structure attack no longer even segments it, at the measured bandwidth
// cost.
func AblationORAM(model string) (*ORAMReport, error) {
	classes := 10
	if model == "alexnet" || model == "squeezenet" {
		classes = 1000
	}
	net, err := victim(model, classes, 1)
	if err != nil {
		return nil, err
	}
	cap, err := core.Capture(net, accel.Config{}, 2)
	if err != nil {
		return nil, err
	}
	obf, st, err := oram.Obfuscate(cap.Result.Trace, oram.Config{Seed: 5})
	if err != nil {
		return nil, err
	}
	_, aerr := structrev.Analyze(obf, net.Input.Len()*4, 4)
	return &ORAMReport{
		Model:          model,
		Overhead:       st.Overhead(),
		Levels:         st.Levels,
		MaxStash:       st.MaxStash,
		AttackDefeated: aerr != nil,
	}, nil
}

// String renders the report.
func (r *ORAMReport) String() string {
	return fmt.Sprintf("Ablation — Path ORAM defense (%s): %.0fx block-transfer overhead (%d levels, stash<=%d); structure attack defeated: %v\n",
		r.Model, r.Overhead, r.Levels, r.MaxStash, r.AttackDefeated)
}

// KernelBoundRow is one MaxConvF setting's outcome.
type KernelBoundRow struct {
	MaxConvF   int
	Candidates int
	TruthFound bool
	Err        string
}

// AblationKernelBound sweeps the kernel-size prior that breaks the
// enumeration's gauge symmetry (DESIGN.md), showing candidate counts
// exploding as the bound loosens.
func AblationKernelBound(model string, bounds []int) ([]KernelBoundRow, error) {
	if len(bounds) == 0 {
		bounds = []int{7, 11, 13, 22, 44}
	}
	classes := 10
	if model == "alexnet" || model == "squeezenet" {
		classes = 1000
	}
	net, err := victim(model, classes, 1)
	if err != nil {
		return nil, err
	}
	cap, err := core.Capture(net, accel.Config{}, 2)
	if err != nil {
		return nil, err
	}
	elem := cap.Sim.Config().ElemBytes
	a, err := structrev.Analyze(cap.Result.Trace, net.Input.Len()*elem, elem)
	if err != nil {
		return nil, err
	}
	truth := core.GroundTruthConfigs(net)
	var rows []KernelBoundRow
	for _, mb := range bounds {
		opt := structrev.DefaultOptions()
		opt.MaxConvF = mb
		structures, err := structrev.Solve(a, net.Input.W, net.Input.C, net.NumClasses(), opt)
		row := KernelBoundRow{MaxConvF: mb}
		if err != nil {
			row.Err = err.Error()
		} else {
			row.Candidates = len(structures)
			for i := range structures {
				if matchesTruth(&structures[i], truth) {
					row.TruthFound = true
					break
				}
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatKernelBound renders the sweep.
func FormatKernelBound(model string, rows []KernelBoundRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — kernel-size prior sweep (%s)\n", model)
	fmt.Fprintf(&b, "%10s %12s %8s %s\n", "maxConvF", "candidates", "truth", "note")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10d %12d %8v %s\n", r.MaxConvF, r.Candidates, r.TruthFound, r.Err)
	}
	return b.String()
}

// BlockSizeRow is one trace-granularity setting's outcome.
type BlockSizeRow struct {
	BlockBytes int
	Candidates int
	TruthFound bool
	Err        string
}

// AblationBlockSize coarsens the observable DRAM transaction granularity
// and reruns the structure attack: with 4-byte (element) granularity sizes
// are exact; coarser buses blur region extents until the integer
// factorizations no longer pin the dimensions.
func AblationBlockSize(model string, blocks []int) ([]BlockSizeRow, error) {
	if len(blocks) == 0 {
		blocks = []int{4, 16, 64}
	}
	classes := 10
	if model == "alexnet" || model == "squeezenet" {
		classes = 1000
	}
	var rows []BlockSizeRow
	for _, bb := range blocks {
		net, err := victim(model, classes, 1)
		if err != nil {
			return nil, err
		}
		rep, err := core.RunStructureAttack(net, accel.Config{BlockBytes: bb}, structrev.DefaultOptions(), 2)
		row := BlockSizeRow{BlockBytes: bb}
		if err != nil {
			row.Err = err.Error()
		} else {
			row.Candidates = len(rep.Structures)
			row.TruthFound = rep.TruthIndex >= 0
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatBlockSize renders the sweep.
func FormatBlockSize(model string, rows []BlockSizeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — DRAM transaction granularity (%s)\n", model)
	fmt.Fprintf(&b, "%10s %12s %8s %s\n", "blockB", "candidates", "truth", "note")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10d %12d %8v %s\n", r.BlockBytes, r.Candidates, r.TruthFound, r.Err)
	}
	return b.String()
}

// NoiseRow is one timing-noise setting's outcome.
type NoiseRow struct {
	Jitter     float64
	Candidates int
	TruthFound bool
}

// AblationTimingNoise injects per-tile latency jitter (DRAM contention,
// refresh) into the victim and reruns the structure attack: per-layer
// execution times are sums of many jittered tiles, so the timing filter
// tolerates realistic noise levels.
func AblationTimingNoise(model string, jitters []float64) ([]NoiseRow, error) {
	if len(jitters) == 0 {
		jitters = []float64{0, 0.1, 0.25, 0.5}
	}
	classes := 10
	if model == "alexnet" || model == "squeezenet" {
		classes = 1000
	}
	var rows []NoiseRow
	for _, j := range jitters {
		net, err := victim(model, classes, 1)
		if err != nil {
			return nil, err
		}
		opt := structrev.DefaultOptions()
		if model == "squeezenet" {
			opt.IdenticalModules = true
		}
		rep, err := core.RunStructureAttack(net, accel.Config{CycleJitter: j, NoiseSeed: 11}, opt, 2)
		if err != nil {
			return nil, err
		}
		rows = append(rows, NoiseRow{Jitter: j, Candidates: len(rep.Structures), TruthFound: rep.TruthIndex >= 0})
	}
	return rows, nil
}

// FormatTimingNoise renders the sweep.
func FormatTimingNoise(model string, rows []NoiseRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — per-tile latency jitter (%s)\n", model)
	fmt.Fprintf(&b, "%10s %12s %8s\n", "jitter", "candidates", "truth")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10.2f %12d %8v\n", r.Jitter, r.Candidates, r.TruthFound)
	}
	return b.String()
}

// PadDefenseReport compares write-count hiding strategies against the §4
// weight attack.
type PadDefenseReport struct {
	DenseBlocks  uint64 // pruning disabled
	PrunedBlocks uint64 // pruning on (leaky)
	PaddedBlocks uint64 // pruning on, streams padded to worst case
	CountsLeak   bool   // do padded write volumes still vary with the input?
}

// AblationPadDefense evaluates the natural countermeasure to the weight
// attack — padding compressed streams to a constant worst-case size — and
// shows it costs more traffic than disabling pruning altogether: the only
// safe pruning is no pruning.
func AblationPadDefense() (*PadDefenseReport, error) {
	net := PrunedConv1(16, 0.25, 7)
	run := func(cfg accel.Config, seed int64) (*core.CaptureResult, error) {
		return core.Capture(net, cfg, seed)
	}
	dense, err := run(accel.Config{}, 1)
	if err != nil {
		return nil, err
	}
	pruned, err := run(accel.Config{ZeroPrune: true}, 1)
	if err != nil {
		return nil, err
	}
	pad1, err := run(accel.Config{ZeroPrune: true, PadPrunedWrites: true}, 1)
	if err != nil {
		return nil, err
	}
	pad2, err := run(accel.Config{ZeroPrune: true, PadPrunedWrites: true}, 2)
	if err != nil {
		return nil, err
	}
	rep := &PadDefenseReport{
		DenseBlocks:  dense.Result.Trace.Blocks(),
		PrunedBlocks: pruned.Result.Trace.Blocks(),
		PaddedBlocks: pad1.Result.Trace.Blocks(),
	}
	// Write volumes must be input-independent under padding.
	rep.CountsLeak = pad1.Result.Trace.Blocks() != pad2.Result.Trace.Blocks()
	return rep, nil
}

// String renders the report.
func (r *PadDefenseReport) String() string {
	return fmt.Sprintf("Ablation — padding defense vs weight attack: dense %d, pruned %d, padded %d block transfers; padded volumes input-dependent: %v (padding costs %.1fx dense — the only safe pruning is no pruning)\n",
		r.DenseBlocks, r.PrunedBlocks, r.PaddedBlocks, r.CountsLeak,
		float64(r.PaddedBlocks)/float64(r.DenseBlocks))
}

// DataflowRow is one data-reuse strategy's outcome.
type DataflowRow struct {
	Dataflow    string
	Candidates  int
	TruthFound  bool
	TraceBlocks uint64
}

// AblationDataflow runs the structure attack against all three accelerator
// dataflows, testing the paper's claim that the RAW structure survives
// "regardless of micro-architecture details and data reuse strategies".
func AblationDataflow(model string) ([]DataflowRow, error) {
	classes := 10
	if model == "alexnet" || model == "squeezenet" {
		classes = 1000
	}
	var rows []DataflowRow
	for _, df := range []accel.Dataflow{accel.OutputStationary, accel.WeightStationary, accel.RowStationary} {
		net, err := victim(model, classes, 1)
		if err != nil {
			return nil, err
		}
		opt := structrev.DefaultOptions()
		if model == "squeezenet" {
			opt.IdenticalModules = true
		}
		rep, err := core.RunStructureAttack(net, accel.Config{Dataflow: df}, opt, 2)
		if err != nil {
			return nil, err
		}
		rows = append(rows, DataflowRow{
			Dataflow:    df.String(),
			Candidates:  len(rep.Structures),
			TruthFound:  rep.TruthIndex >= 0,
			TraceBlocks: rep.TraceBytes / 4,
		})
	}
	return rows, nil
}

// FormatDataflow renders the comparison.
func FormatDataflow(model string, rows []DataflowRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — data-reuse strategy (%s)\n", model)
	fmt.Fprintf(&b, "%20s %12s %8s %14s\n", "dataflow", "candidates", "truth", "trace blocks")
	for _, r := range rows {
		fmt.Fprintf(&b, "%20s %12d %8v %14d\n", r.Dataflow, r.Candidates, r.TruthFound, r.TraceBlocks)
	}
	return b.String()
}
