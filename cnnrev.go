// Package cnnrev is a full reproduction of "Reverse Engineering
// Convolutional Neural Networks Through Side-channel Information Leaks"
// (Hua, Zhang and Suh, DAC 2018).
//
// It provides, built from scratch on the standard library:
//
//   - a CNN substrate (internal/tensor, internal/nn) with inference and
//     training, and the paper's four study networks (LeNet, a CIFAR
//     ConvNet, AlexNet, SqueezeNet with fire modules and bypass paths);
//   - a tile-based CNN inference accelerator simulator (internal/accel)
//     that emits the off-chip DRAM trace an SGX-style adversary observes,
//     with optional dynamic zero pruning of output feature maps;
//   - the structure reverse-engineering attack of the paper's §3
//     (internal/structrev): RAW-dependency layer segmentation, the integer
//     constraint solver of Equations (1)-(8), the execution-time filter,
//     and candidate-structure enumeration;
//   - the weight reverse-engineering attack of §4 (internal/weightrev):
//     zero-crossing binary search against the zero-pruning write-count
//     side channel, pooled variants, zero-weight detection and
//     threshold-based bias recovery;
//   - a Path ORAM defense (internal/oram) demonstrating the
//     countermeasure the paper points to; and
//   - an experiment harness (internal/experiments) regenerating every
//     table and figure of the paper's evaluation.
//
// This facade re-exports the main entry points so the examples and tools
// read naturally; the heavy lifting lives in the internal packages.
package cnnrev

import (
	"context"
	"io"
	"math/rand"

	"cnnrev/internal/accel"
	"cnnrev/internal/core"
	"cnnrev/internal/defense"
	"cnnrev/internal/experiments"
	"cnnrev/internal/memtrace"
	"cnnrev/internal/nn"
	"cnnrev/internal/oram"
	"cnnrev/internal/structrev"
)

// Re-exported substrate types.
type (
	// Network is a CNN with learnable parameters.
	Network = nn.Network
	// Shape is a channels×height×width activation shape.
	Shape = nn.Shape
	// AccelConfig parameterizes the victim accelerator.
	AccelConfig = accel.Config
	// Dataflow selects the accelerator's data-reuse schedule.
	Dataflow = accel.Dataflow
	// DataflowClass is a detector verdict: one of the three schedules, or
	// ambiguous when the trace does not discriminate.
	DataflowClass = structrev.DataflowClass
	// DataflowDetection is the full auto-detection outcome, including
	// per-segment votes.
	DataflowDetection = structrev.DataflowDetection
	// Trace is an observed off-chip memory trace.
	Trace = memtrace.Trace
	// SolverOptions tunes the structure attack.
	SolverOptions = structrev.Options
	// Structure is one recovered candidate network structure.
	Structure = structrev.Structure
	// LayerConfig is one layer parameter hypothesis (paper Table 2).
	LayerConfig = structrev.LayerConfig
	// StructureReport is the outcome of a structure attack.
	StructureReport = core.StructureReport
	// WeightReport is the outcome of a weight attack.
	WeightReport = core.WeightReport
	// RankConfig parameterizes candidate short-training.
	RankConfig = core.RankConfig
	// CandidateScore is a ranked candidate structure.
	CandidateScore = core.CandidateScore
	// RankResult is the full outcome of a candidate ranking, including the
	// successive-halving rung schedule and epoch accounting.
	RankResult = core.RankResult
	// RungStat is one rung of a successive-halving tournament.
	RungStat = core.RungStat
	// ORAMConfig parameterizes the Path ORAM defense.
	ORAMConfig = oram.Config
	// ORAMStats reports obfuscation cost.
	ORAMStats = oram.Stats
	// DefenseConfig selects a defensive trace transform and its knobs
	// (internal/defense): dummy-traffic injection, bucket padding,
	// address re-randomization, layer fusion, or the ORAM adapter.
	DefenseConfig = defense.Config
	// DefenseStats reports a defense's measured bandwidth/latency cost.
	DefenseStats = defense.Stats
	// DefenseTransform is one defense behind the common Apply interface.
	DefenseTransform = defense.Transform
	// StructureAttackSpec selects the hostile-probe and defense extensions
	// of the §3 pipeline (corruption, tolerant analysis, defensive trace
	// transforms); the zero value reproduces the clean pipeline.
	StructureAttackSpec = core.StructureAttackSpec
)

// DefenseKinds lists the recognized defense kind names.
var DefenseKinds = defense.Kinds

// Model-zoo constructors: the paper's four study networks plus the
// beyond-paper victims (VGG-11, Network-in-Network, a mini ResNet with
// projection shortcuts). depthDiv scales channel counts (1 = paper size).
var (
	LeNet      = nn.LeNet
	ConvNet    = nn.ConvNet
	AlexNet    = nn.AlexNet
	SqueezeNet = nn.SqueezeNet
	VGG11      = nn.VGG11
	NiN        = nn.NiN
	ResNetMini = nn.ResNetMini
)

// The three accelerator dataflows (data-reuse schedules). Output
// stationary is the paper's baseline; weight and row stationary test the
// claim that the attack survives "regardless of micro-architecture details
// and data reuse strategies".
const (
	OutputStationary = accel.OutputStationary
	WeightStationary = accel.WeightStationary
	RowStationary    = accel.RowStationary
)

// ParseDataflow maps a CLI/API spelling ("os", "weight-stationary", ...)
// to a Dataflow; the empty string means output stationary.
var ParseDataflow = accel.ParseDataflow

// Quantization: post-training symmetric int8 (the numeric regime of int8
// inference accelerators; see internal/nn/quant.go).
type QuantNetwork = nn.QuantNetwork

// QuantizeNetwork calibrates and quantizes a float network to int8.
var QuantizeNetwork = nn.QuantizeNetwork

// SaveNetwork serializes a network (structure + parameters); LoadNetwork
// restores one.
func SaveNetwork(n *Network, w io.Writer) error { return n.Save(w) }

// LoadNetwork deserializes a network written by SaveNetwork.
func LoadNetwork(r io.Reader) (*Network, error) { return nn.Load(r) }

// DefaultAccelConfig returns the baseline accelerator microarchitecture.
func DefaultAccelConfig() AccelConfig { return accel.DefaultConfig() }

// DefaultSolverOptions returns the solver settings used in the paper
// reproduction runs.
func DefaultSolverOptions() SolverOptions { return structrev.DefaultOptions() }

// RunStructureAttack runs a victim once on the simulated accelerator and
// reverse engineers its structure from the trace (paper §3, Algorithm 1).
func RunStructureAttack(net *Network, cfg AccelConfig, opt SolverOptions, seed int64) (*StructureReport, error) {
	return core.RunStructureAttack(net, cfg, opt, seed)
}

// RankCandidates short-trains recovered candidates on a synthetic dataset
// and ranks them by accuracy (the paper's Figures 4-5 methodology).
func RankCandidates(rep *StructureReport, input Shape, rc RankConfig) []CandidateScore {
	return core.RankCandidates(rep, input, rc)
}

// Materialize rebuilds a trainable network from a recovered candidate.
func Materialize(rep *StructureReport, idx int, input Shape, classes, depthDiv int) (*Network, error) {
	return core.Materialize(rep.Analysis, &rep.Structures[idx], input, classes, depthDiv)
}

// RunWeightAttack recovers weight/bias ratios of a victim's first conv
// layer through the zero-pruning side channel (paper §4, Algorithm 2).
func RunWeightAttack(net *Network, cfg AccelConfig) (*WeightReport, error) {
	return core.RunWeightAttack(net, cfg)
}

// RunStructureAttackCtx is RunStructureAttack with cooperative
// cancellation: on context expiry it returns the partial report found so
// far (Partial set, structures a deterministic prefix of the full
// enumeration) alongside the context error. cmd/revcnnd serves this.
func RunStructureAttackCtx(ctx context.Context, net *Network, cfg AccelConfig, opt SolverOptions, seed int64) (*StructureReport, error) {
	return core.RunStructureAttackCtx(ctx, net, cfg, opt, seed, nil)
}

// RankCandidatesCtx is RankCandidates with cooperative cancellation at
// candidate and epoch granularity; cancelled candidates carry a NaN
// accuracy and the context error, sorted after every real score.
func RankCandidatesCtx(ctx context.Context, rep *StructureReport, input Shape, rc RankConfig) []CandidateScore {
	return core.RankCandidatesCtx(ctx, rep, input, rc)
}

// RankCandidatesResult is RankCandidatesCtx returning the full RankResult:
// scores plus the rung schedule, total epoch work, and how many candidates
// a MaxCandidates cap skipped. With RankConfig.Halving set it runs the
// successive-halving tournament instead of the flat schedule.
func RankCandidatesResult(ctx context.Context, rep *StructureReport, input Shape, rc RankConfig) *RankResult {
	return core.RankCandidatesResult(ctx, rep, input, rc)
}

// RunWeightAttackCtx is RunWeightAttack with cooperative cancellation at
// per-weight granularity.
func RunWeightAttackCtx(ctx context.Context, net *Network, cfg AccelConfig) (*WeightReport, error) {
	return core.RunWeightAttackCtx(ctx, net, cfg)
}

// RunStructureAttackOnTrace reverse engineers candidate structures directly
// from a recorded trace (e.g. one written by cmd/tracegen), given the
// adversary-known input shape and classifier width. Element size is assumed
// to be 4 bytes (float32).
func RunStructureAttackOnTrace(tr *Trace, input Shape, classes int) ([]Structure, error) {
	a, err := structrev.Analyze(tr, input.Len()*4, 4)
	if err != nil {
		return nil, err
	}
	return structrev.Solve(a, input.W, input.C, classes, structrev.DefaultOptions())
}

// DetectTraceDataflow segments a recorded trace and classifies which
// accelerator dataflow produced it from the read/write interleaving alone
// (no knowledge of the victim beyond the input shape). Element size is
// assumed to be 4 bytes (float32).
func DetectTraceDataflow(tr *Trace, input Shape) (DataflowDetection, error) {
	a, err := structrev.Analyze(tr, input.Len()*4, 4)
	if err != nil {
		return DataflowDetection{}, err
	}
	return structrev.DetectDataflow(tr, a, structrev.DetectOptions{}), nil
}

// CaptureTrace observes one inference and returns the trace. Unless cfg
// zero-prunes, no layer is computed: the trace does not depend on the
// values.
func CaptureTrace(net *Network, cfg AccelConfig, seed int64) (*Trace, error) {
	cap, err := core.Capture(net, cfg, seed)
	if err != nil {
		return nil, err
	}
	return cap.Result.Trace, nil
}

// CaptureServedTrace runs n back-to-back inferences with distinct random
// inputs and returns the continuous trace a passive observer would record.
func CaptureServedTrace(net *Network, cfg AccelConfig, n int, seed int64) (*Trace, error) {
	sim, err := accel.New(net, cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float32, n)
	for i := range xs {
		xs[i] = make([]float32, net.Input.Len())
		for j := range xs[i] {
			xs[i][j] = float32(rng.NormFloat64())
		}
	}
	_, tr, err := sim.RunMany(xs)
	return tr, err
}

// AttackServedTrace analyzes a trace containing several back-to-back
// inferences (a serving accelerator observed continuously), splits it into
// inferences, and solves each slice. Element size is assumed 4 bytes.
func AttackServedTrace(tr *Trace, input Shape, classes int) ([][]Structure, error) {
	a, err := structrev.Analyze(tr, input.Len()*4, 4)
	if err != nil {
		return nil, err
	}
	var out [][]Structure
	for _, inf := range a.Inferences() {
		structures, err := structrev.Solve(inf, input.W, input.C, classes, structrev.DefaultOptions())
		if err != nil {
			return nil, err
		}
		out = append(out, structures)
	}
	return out, nil
}

// ObfuscateTrace replays a trace through Path ORAM.
func ObfuscateTrace(tr *Trace, cfg ORAMConfig) (*Trace, ORAMStats, error) {
	return oram.Obfuscate(tr, cfg)
}

// DefendTrace applies a defensive trace transform (internal/defense) to a
// captured trace and reports its measured cost. The zero config returns a
// byte-identical copy.
func DefendTrace(tr *Trace, cfg DefenseConfig) (*Trace, DefenseStats, error) {
	return defense.Apply(tr, cfg)
}

// RunStructureAttackSpec is RunStructureAttackCtx with the hostile-probe
// and defense spec: the captured trace passes through spec.Defense (the
// victim's countermeasure) and then spec.Corrupt (the probe's noise)
// before analysis.
func RunStructureAttackSpec(ctx context.Context, net *Network, cfg AccelConfig, opt SolverOptions, seed int64, spec StructureAttackSpec) (*StructureReport, error) {
	return core.RunStructureAttackSpec(ctx, net, cfg, opt, seed, spec, nil)
}

// WriteTrace serializes a trace; ReadTrace deserializes one.
func WriteTrace(tr *Trace, w io.Writer) error { return tr.Write(w) }

// ReadTrace deserializes a trace written by WriteTrace from a stream. It
// accepts exactly what DecodeTrace accepts: data past the declared records
// is an error.
func ReadTrace(r io.Reader) (*Trace, error) { return memtrace.ReadTrace(r) }

// DecodeTrace strictly decodes an in-memory trace buffer, validating the
// header against the input length before allocating.
func DecodeTrace(data []byte) (*Trace, error) { return memtrace.DecodeTrace(data) }

// PrunedConv1 builds the Figure-7 victim layer (pruned AlexNet CONV1).
var PrunedConv1 = experiments.PrunedConv1
