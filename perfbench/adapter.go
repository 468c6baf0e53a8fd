package main

// This file is the benchmark's only door into the program: every call into
// cnnrev/internal/... lives here, so an API change in the program is
// absorbed by editing this one file. The rest of the benchmark sees plain
// Go values.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"cnnrev/internal/accel"
	"cnnrev/internal/core"
	"cnnrev/internal/corrupt"
	"cnnrev/internal/defense"
	"cnnrev/internal/experiments"
	"cnnrev/internal/nn"
	"cnnrev/internal/structrev"
)

// victim is one CNN whose weights are initialized from a seed.
type victim struct {
	model string
	net   *nn.Network
}

// newVictim builds a victim the same way revcnnd's simulate mode does:
// 10 classes for the small nets, 1000 for the ImageNet-sized ones.
func newVictim(model string, depthDiv int, seed int64) (*victim, error) {
	if depthDiv < 1 {
		depthDiv = 1
	}
	var net *nn.Network
	switch model {
	case "lenet":
		net = nn.LeNet(10)
	case "convnet":
		net = nn.ConvNet(10)
	case "alexnet":
		net = nn.AlexNet(1000, depthDiv)
	case "squeezenet":
		net = nn.SqueezeNet(1000, depthDiv)
	case "nin":
		net = nn.NiN(1000, depthDiv)
	default:
		return nil, fmt.Errorf("unknown model %q", model)
	}
	net.InitWeights(seed)
	return &victim{model: model, net: net}, nil
}

// inputDims returns the upload query parameters of the victim's trace:
// input width, input depth and class count.
func (v *victim) inputDims() (w, d, classes int) {
	return v.net.Input.W, v.net.Input.C, v.net.NumClasses()
}

// structSpec is one structure-attack job: the capture backend, the probe's
// corruption model and the victim's defense.
type structSpec struct {
	dataflow     string // os, ws or rs
	tolerant     bool
	drop         float64
	interference float64
	reorder      int
	defense      string // "" or a defense kind
	seed         int64  // capture input seed
	noiseSeed    int64  // corruption and defense seed
}

func (s structSpec) accelConfig() (accel.Config, error) {
	df, err := accel.ParseDataflow(s.dataflow)
	return accel.Config{Dataflow: df}, err
}

func (s structSpec) attackSpec() core.StructureAttackSpec {
	spec := core.StructureAttackSpec{Tolerant: s.tolerant}
	if s.drop > 0 || s.interference > 0 || s.reorder > 0 {
		spec.Corrupt = corrupt.Config{
			Seed: s.noiseSeed, DropRate: s.drop, InterferenceRate: s.interference, ReorderWindow: s.reorder,
		}
	}
	if s.defense != "" {
		spec.Defense = defense.Config{Kind: s.defense, Seed: s.noiseSeed}
	}
	return spec
}

func (s structSpec) defended() bool { return s.defense != "" }

// structOutcome is what the benchmark checks and counts from one structure
// attack.
type structOutcome struct {
	candidates int
	truthIndex int
	// configsKept[k] is the number of distinct configurations recovered for
	// the k-th weighted segment.
	configsKept []int
	segments    int
	traceBytes  uint64
	detected    string
	report      *core.StructureReport // input to ranking
	input       nn.Shape
}

// runStructure runs the §3 attack through core.RunStructureAttackSpec.
// onStage receives every completed pipeline stage.
func runStructure(ctx context.Context, v *victim, s structSpec, onStage func(stage string, d time.Duration)) (*structOutcome, error) {
	cfg, err := s.accelConfig()
	if err != nil {
		return nil, err
	}
	rep, err := core.RunStructureAttackSpec(ctx, v.net, cfg, structrev.DefaultOptions(), s.seed, s.attackSpec(), onStage)
	if err != nil {
		return nil, err
	}
	out := &structOutcome{
		candidates: len(rep.Structures),
		truthIndex: rep.TruthIndex,
		segments:   len(rep.Analysis.Segments),
		traceBytes: rep.TraceBytes,
		detected:   rep.DetectedDataflow,
		report:     rep,
		input:      v.net.Input,
	}
	for i := range rep.Analysis.Segments {
		if cfgs, ok := rep.PerLayer[i]; ok {
			out.configsKept = append(out.configsKept, len(cfgs))
		}
	}
	return out, nil
}

// isTruncated reports whether a structure attack stopped at the solver's
// candidate cap.
func isTruncated(err error) bool { return errors.Is(err, structrev.ErrTooManyStructures) }

// captureInfo describes the trace a structure job captures and analyzes.
type captureInfo struct {
	digest          string // SHA-256 of the serialized captured trace
	records         int    // captured trace records
	simCycles       uint64 // simulated cycles over all layers
	analyzedRecords int    // records after defense and corruption
	bandwidthX      float64
}

// inspectCapture captures the job's trace on its own, outside the timed
// pipeline, and replays the job's defense and corruption on it to count
// what the analysis will see.
func inspectCapture(v *victim, s structSpec) (*captureInfo, error) {
	cfg, err := s.accelConfig()
	if err != nil {
		return nil, err
	}
	cap, err := core.Capture(v.net, cfg, s.seed)
	if err != nil {
		return nil, err
	}
	res := cap.Result
	h := sha256.New()
	if err := res.Trace.Write(h); err != nil {
		return nil, err
	}
	info := &captureInfo{
		digest:  hex.EncodeToString(h.Sum(nil)),
		records: len(res.Trace.Accesses),
	}
	for _, c := range res.LayerCycles {
		info.simCycles += c
	}
	spec := s.attackSpec()
	tr := res.Trace
	if spec.Defense.Enabled() {
		var st defense.Stats
		if tr, st, err = defense.Apply(tr, spec.Defense); err != nil {
			return nil, err
		}
		info.bandwidthX = st.BandwidthOverhead()
	}
	if spec.Corrupt.Enabled() {
		tr = corrupt.Apply(tr, spec.Corrupt)
	}
	info.analyzedRecords = len(tr.Accesses)
	return info, nil
}

// captureUpload captures the victim's clean output-stationary trace and
// serializes it in the upload format revcnnd accepts.
func captureUpload(v *victim, seed int64) ([]byte, error) {
	cap, err := core.Capture(v.net, accel.Config{}, seed)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := cap.Result.Trace.Write(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// rankSpec is one candidate-ranking job (core.RankConfig).
type rankSpec struct {
	halving       bool
	classes       int
	perClass      int
	epochs        int
	maxCandidates int
	seed          int64
}

// rankOutcome is the ranking's verdict and schedule.
type rankOutcome struct {
	top1        int
	top1AccBits uint64
	epochs      int
	rungs       int
}

// runRank ranks the candidates of a structure report through
// core.RankCandidatesResult.
func runRank(ctx context.Context, so *structOutcome, s rankSpec) rankOutcome {
	rc := core.RankConfig{
		Classes: s.classes, PerClass: s.perClass, Epochs: s.epochs, DepthDiv: 1,
		Seed: s.seed, MaxCandidates: s.maxCandidates,
	}
	if s.halving {
		rc.Halving, rc.Eta, rc.MinEpochs = true, 2, 1
	}
	res := core.RankCandidatesResult(ctx, so.report, so.input, rc)
	out := rankOutcome{top1: -1, epochs: res.TotalEpochs, rungs: len(res.Rungs)}
	if len(res.Scores) > 0 && res.Scores[0].Err == nil {
		out.top1 = res.Scores[0].Index
		out.top1AccBits = math.Float64bits(res.Scores[0].Accuracy)
	}
	return out
}

// weightVictim is the §4 victim: a magnitude-pruned AlexNet CONV1.
type weightVictim struct {
	net *nn.Network
}

func newWeightVictim(filters int, zeroFrac float64, seed int64) *weightVictim {
	return &weightVictim{net: experiments.PrunedConv1(filters, zeroFrac, seed)}
}

// weightOutcome scores one weight recovery.
type weightOutcome struct {
	maxRatioErr float64
	zeroErrors  int
	queries     int
}

// runWeights runs the §4 attack through core.RunWeightAttackOpts.
func runWeights(ctx context.Context, wv *weightVictim) (weightOutcome, error) {
	rep, err := core.RunWeightAttackOpts(ctx, wv.net, accel.Config{}, core.WeightAttackConfig{})
	if err != nil {
		return weightOutcome{}, err
	}
	return weightOutcome{maxRatioErr: rep.MaxRatioErr, zeroErrors: rep.ZeroErrors, queries: rep.Queries}, nil
}

// layerRow is one CNN layer of the victim-layer report.
type layerRow struct {
	Name     string  `json:"name"`
	Kind     string  `json:"kind"`
	Cycles   uint64  `json:"sim_cycles"`
	Records  int     `json:"records"`
	HostMS   float64 `json:"host_ms"`
	Weighted bool    `json:"-"`
}

// profileLayers runs the victim once per layer prefix on one
// accel.Session, output-stationary, and differences the host times of
// consecutive prefixes to attribute host time to each layer.
func profileLayers(v *victim, seed int64) ([]layerRow, error) {
	sim, err := accel.New(v.net, accel.Config{})
	if err != nil {
		return nil, err
	}
	ss := sim.NewSession()
	rng := rand.New(rand.NewSource(seed))
	x := make([]float32, v.net.Input.Len())
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	if _, err := ss.Run(x); err != nil { // untimed: sizes the session's arena
		return nil, err
	}
	rows := make([]layerRow, len(v.net.Specs))
	prev := 0.0
	for i := range v.net.Specs {
		t0 := time.Now()
		res, err := ss.RunPrefix(x, i)
		if err != nil {
			return nil, err
		}
		el := time.Since(t0).Seconds() * 1000
		spec := &v.net.Specs[i]
		r := res.LayerAccessRange[i]
		rows[i] = layerRow{
			Name: spec.Name, Kind: spec.Kind.String(),
			Cycles: res.LayerCycles[i], Records: r[1] - r[0],
			HostMS:   el - prev,
			Weighted: spec.Kind == nn.KindConv || spec.Kind == nn.KindFC,
		}
		prev = el
	}
	return rows, nil
}
