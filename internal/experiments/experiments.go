// Package experiments regenerates every table and figure of the paper's
// evaluation (Tables 3-4, Figures 3-5 and 7) plus the ablations DESIGN.md
// calls out. Each experiment returns a printable report; cmd/experiments
// and the root bench harness are thin wrappers around these functions.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"cnnrev/internal/accel"
	"cnnrev/internal/core"
	"cnnrev/internal/nn"
	"cnnrev/internal/structrev"
)

// victim builds a zoo network with its default class count and
// deterministic weights.
func victim(model string) (*nn.Network, error) {
	net, err := nn.Model(model, 0, 1)
	if err != nil {
		return nil, err
	}
	net.InitWeights(1)
	return net, nil
}

// solverOptions returns the solver settings for a victim: SqueezeNet is
// solved under the identical-modules assumption, as in the paper.
func solverOptions(model string) structrev.Options {
	opt := structrev.DefaultOptions()
	opt.IdenticalModules = model == "squeezenet"
	return opt
}

// attack runs the clean §3 attack on net, captured with the Table 3 input
// seed.
func attack(net *nn.Network, cfg accel.Config, opt structrev.Options) (*core.StructureReport, error) {
	return core.RunStructureAttackSpec(context.Background(), net, cfg, opt, 2, core.StructureAttackSpec{}, nil)
}

// paperStructureCounts records the candidate-structure counts the paper's
// Table 3 reports.
var paperStructureCounts = map[string]int{
	"lenet": 9, "convnet": 6, "alexnet": 24, "squeezenet": 9,
}

// Table3Row is one network's entry of Table 3.
type Table3Row struct {
	Network    string
	Layers     int
	Count      int
	PaperCount int
	TruthFound bool
	Elapsed    time.Duration
}

// Table3 reproduces Table 3: the number of possible structures recovered
// for each study network (SqueezeNet under the identical-modules
// assumption, as in the paper).
func Table3(models []string) ([]Table3Row, error) {
	if len(models) == 0 {
		models = []string{"lenet", "convnet", "alexnet", "squeezenet"}
	}
	var rows []Table3Row
	for _, m := range models {
		net, err := victim(m)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		rep, err := attack(net, accel.Config{}, solverOptions(m))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m, err)
		}
		layers := 0
		for i := range net.Specs {
			if net.Params[i] != nil {
				layers++
			}
		}
		rows = append(rows, Table3Row{
			Network:    m,
			Layers:     layers,
			Count:      len(rep.Structures),
			PaperCount: paperStructureCounts[m],
			TruthFound: rep.TruthIndex >= 0,
			Elapsed:    time.Since(start),
		})
	}
	return rows, nil
}

// FormatTable3 renders Table 3 rows.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3 — number of possible structures\n")
	fmt.Fprintf(&b, "%-12s %8s %8s %8s %8s %10s\n", "network", "layers", "ours", "paper", "truth", "time")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %8d %8d %8d %8v %10s\n",
			r.Network, r.Layers, r.Count, r.PaperCount, r.TruthFound, r.Elapsed.Round(time.Millisecond))
	}
	return b.String()
}

// Table4Report reproduces Table 4: per-layer candidate configurations for
// AlexNet, plus the total combination count.
type Table4Report struct {
	// Layer order follows the victim's weighted segments.
	Segments     []int
	Configs      map[int][]structrev.LayerConfig
	Combinations int
	PaperCombos  int
	TruthFound   bool
}

// Table4 runs the structure attack on AlexNet and gathers the per-layer
// view.
func Table4() (*Table4Report, error) {
	net, _ := victim("alexnet")
	rep, err := attack(net, accel.Config{}, structrev.DefaultOptions())
	if err != nil {
		return nil, err
	}
	t := &Table4Report{
		Configs:      rep.PerLayer,
		Combinations: len(rep.Structures),
		PaperCombos:  24,
		TruthFound:   rep.TruthIndex >= 0,
	}
	for seg := range rep.PerLayer {
		t.Segments = append(t.Segments, seg)
	}
	sort.Ints(t.Segments)
	return t, nil
}

// String renders the Table 4 report.
func (t *Table4Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4 — AlexNet candidate layer configurations (paper: 13 rows, 24 combinations)\n")
	for _, seg := range t.Segments {
		fmt.Fprintf(&b, "layer %d (%d configs):\n", seg, len(t.Configs[seg]))
		for _, c := range t.Configs[seg] {
			fmt.Fprintf(&b, "  %s\n", c.String())
		}
	}
	fmt.Fprintf(&b, "total combinations: %d (paper: %d), truth recovered: %v\n",
		t.Combinations, t.PaperCombos, t.TruthFound)
	return b.String()
}

// RankReport is the outcome of candidate short-training (Figures 4 and 5).
type RankReport struct {
	Figure     string
	Scores     []core.CandidateScore
	TruthRank  int // 1-based rank of the true structure, 0 if absent
	Candidates int
	TopK       int
}

// String renders the ranking.
func (r *RankReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — top-%d accuracy of %d candidate structures (short training)\n",
		r.Figure, r.TopK, r.Candidates)
	for i, s := range r.Scores {
		mark := ""
		if s.IsTruth {
			mark = "  <-- original structure"
		}
		fmt.Fprintf(&b, "%3d. candidate %2d  acc %.3f%s\n", i+1, s.Index, s.Accuracy, mark)
	}
	if r.TruthRank > 0 {
		fmt.Fprintf(&b, "original structure ranks %d of %d (paper: 4th of 24 on Fig 4's ImageNet ranking)\n", r.TruthRank, len(r.Scores))
	}
	return b.String()
}

// Fig4 reproduces Figure 4: accuracy ranking of the recovered AlexNet
// candidate structures, trained depth-scaled on the synthetic substitute
// dataset (DESIGN.md §2).
func Fig4(rc core.RankConfig) (*RankReport, error) {
	net, _ := victim("alexnet")
	rep, err := attack(net, accel.Config{}, structrev.DefaultOptions())
	if err != nil {
		return nil, err
	}
	if rc.TopK == 0 {
		rc.TopK = 1
	}
	scores := core.RankCandidatesResult(context.Background(), rep, net.Input, rc).Scores
	return rankReport("Figure 4 (AlexNet)", scores, rc.TopK), nil
}

// Fig5 reproduces Figure 5: top-5 accuracy of the SqueezeNet candidates
// after three epochs, under the identical-modules assumption.
func Fig5(rc core.RankConfig) (*RankReport, error) {
	net, _ := victim("squeezenet")
	rep, err := attack(net, accel.Config{}, solverOptions("squeezenet"))
	if err != nil {
		return nil, err
	}
	if rc.TopK == 0 {
		rc.TopK = 5
	}
	if rc.Epochs == 0 {
		rc.Epochs = 3 // the paper trains three epochs for Figure 5
	}
	scores := core.RankCandidatesResult(context.Background(), rep, net.Input, rc).Scores
	return rankReport("Figure 5 (SqueezeNet)", scores, rc.TopK), nil
}

func rankReport(name string, scores []core.CandidateScore, topK int) *RankReport {
	r := &RankReport{Figure: name, Scores: scores, Candidates: len(scores), TopK: topK}
	for i, s := range scores {
		if s.IsTruth {
			r.TruthRank = i + 1
		}
	}
	return r
}

// PrunedConv1 builds the Figure-7 victim: a single AlexNet-geometry CONV1
// layer (96 filters of 11×11×3, stride 4) whose weights are magnitude-
// pruned (Deep-Compression style) so a zeroFrac fraction is exactly zero,
// with small positive biases.
func PrunedConv1(filters int, zeroFrac float64, seed int64) *nn.Network {
	if filters <= 0 {
		filters = 96
	}
	spec := nn.LayerSpec{Name: "conv1", Kind: nn.KindConv, OutC: filters, F: 11, S: 4, ReLU: true}
	net := nn.MustNew("alexnet-conv1", nn.Shape{C: 3, H: 227, W: 227}, []nn.LayerSpec{spec})
	rng := rand.New(rand.NewSource(seed))
	w := net.Params[0].W.Data
	for i := range w {
		w[i] = float32(rng.NormFloat64() * 0.08)
	}
	// Magnitude pruning: zero the smallest zeroFrac fraction.
	mags := make([]float64, len(w))
	for i, v := range w {
		mags[i] = abs64(float64(v))
	}
	sort.Float64s(mags)
	thresh := mags[int(float64(len(mags))*zeroFrac)]
	for i := range w {
		if abs64(float64(w[i])) <= thresh {
			w[i] = 0
		}
	}
	for i := range net.Params[0].B.Data {
		net.Params[0].B.Data[i] = float32(0.03 + 0.04*rng.Float64())
	}
	return net
}

func abs64(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Fig7Report is the weight-recovery outcome.
type Fig7Report struct {
	*core.WeightReport
	ZeroFrac float64
	Elapsed  time.Duration
}

// String renders the report.
func (r *Fig7Report) String() string {
	return fmt.Sprintf(
		"Figure 7 — w/b recovery over %d filters (11x11x3, %.0f%% pruned)\n"+
			"max |w/b error| = %.3g (paper: < 2^-10 = %.3g)\n"+
			"zero weights: %d/%d detected, %d misclassifications\n"+
			"device queries: %d, elapsed %s\n",
		r.Filters, r.ZeroFrac*100, r.MaxRatioErr, 1.0/1024,
		r.ZerosDetected, r.ZerosActual, r.ZeroErrors, r.Queries, r.Elapsed.Round(time.Millisecond))
}

// Fig7 reproduces Figure 7: recover w/b for every filter of the pruned
// CONV1 layer via the zero-pruning side channel. filters caps the number of
// output channels for quick runs (0 = the full 96).
func Fig7(filters int) (*Fig7Report, error) {
	net := PrunedConv1(filters, 0.25, 42)
	start := time.Now()
	rep, err := core.RunWeightAttackOpts(context.Background(), net, accel.Config{}, core.WeightAttackConfig{})
	if err != nil {
		return nil, err
	}
	return &Fig7Report{WeightReport: rep, ZeroFrac: 0.25, Elapsed: time.Since(start)}, nil
}

// Table3Extended runs the structure attack on the beyond-paper victims
// (NiN and the mini ResNet; VGG-11 is exercised by the structrev tests —
// its full-scale FC layers are disproportionately heavy here). ResNet needs
// the Equation (5) relaxation for its strided projection.
func Table3Extended() ([]Table3Row, error) {
	var rows []Table3Row
	for _, m := range []string{"nin", "resnetmini"} {
		net, err := victim(m)
		if err != nil {
			return nil, err
		}
		opt := structrev.DefaultOptions()
		if m == "resnetmini" {
			opt.AllowStrideOverKernel = true
		}
		start := time.Now()
		rep, err := attack(net, accel.Config{}, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m, err)
		}
		layers := 0
		for i := range net.Specs {
			if net.Params[i] != nil {
				layers++
			}
		}
		rows = append(rows, Table3Row{
			Network:    m,
			Layers:     layers,
			Count:      len(rep.Structures),
			TruthFound: rep.TruthIndex >= 0,
			Elapsed:    time.Since(start),
		})
	}
	return rows, nil
}
