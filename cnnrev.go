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
	// ORAMConfig parameterizes the Path ORAM defense (DefenseConfig.ORAM).
	ORAMConfig = oram.Config
	// ORAMStats reports obfuscation cost (DefenseStats.ORAM).
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
	// TraceInput is what the adversary knows of the victim besides its
	// trace: input shape, element size, class count and dataflow prior.
	TraceInput = core.TraceInput
	// WeightAttackConfig tunes the weight attack; the zero value recovers
	// filters in parallel.
	WeightAttackConfig = core.WeightAttackConfig
)

// DefenseKinds lists the recognized defense kind names.
var DefenseKinds = defense.Kinds

// Model-zoo constructors: the paper's four study networks plus the
// beyond-paper victims (VGG-11, Network-in-Network, a mini ResNet with
// projection shortcuts). depthDiv scales channel counts (1 = paper size).
// Model builds any of them by name, with the zoo's default class count.
var (
	Model      = nn.Model
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
// spec adds the victim's defense and the probe's corruption; its zero value
// is the clean pipeline. If ctx expires during the candidate enumeration,
// the report carries the structures found so far with Partial set,
// alongside the context error; past opt.MaxStructures it carries the first
// MaxStructures structures alongside the cap error.
func RunStructureAttack(ctx context.Context, net *Network, cfg AccelConfig, opt SolverOptions, seed int64, spec StructureAttackSpec) (*StructureReport, error) {
	return core.RunStructureAttackSpec(ctx, net, cfg, opt, seed, spec, nil)
}

// AttackTrace reverse engineers candidate structures from a recorded trace
// (e.g. one written by cmd/tracegen), given what the adversary knows of the
// victim: input shape, element size and classifier width. It runs the same
// pipeline as RunStructureAttack after the capture; TruthIndex is -1.
func AttackTrace(ctx context.Context, tr *Trace, in TraceInput, opt SolverOptions, spec StructureAttackSpec) (*StructureReport, error) {
	return core.AttackTrace(ctx, tr, in, opt, spec, nil)
}

// RankCandidates short-trains recovered candidates on a synthetic dataset
// and ranks them by accuracy (the paper's Figures 4-5 methodology). With
// RankConfig.Halving set it runs the successive-halving tournament.
// Cancelled candidates carry a NaN accuracy and the context error, sorted
// after every real score.
func RankCandidates(ctx context.Context, rep *StructureReport, input Shape, rc RankConfig) *RankResult {
	return core.RankCandidatesResult(ctx, rep, input, rc)
}

// Materialize rebuilds a trainable network from a recovered candidate.
func Materialize(rep *StructureReport, idx int, input Shape, classes, depthDiv int) (*Network, error) {
	return core.Materialize(rep.Analysis, &rep.Structures[idx], input, classes, depthDiv)
}

// RunWeightAttack recovers weight/bias ratios of a victim's first conv
// layer through the zero-pruning side channel (paper §4, Algorithm 2),
// with cooperative cancellation at per-weight granularity.
func RunWeightAttack(ctx context.Context, net *Network, cfg AccelConfig, wc WeightAttackConfig) (*WeightReport, error) {
	return core.RunWeightAttackOpts(ctx, net, cfg, wc)
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

// DefendTrace applies a defensive trace transform (internal/defense) to a
// captured trace and reports its measured cost; Kind "oram" replays it
// through Path ORAM. The zero config returns a byte-identical copy.
func DefendTrace(tr *Trace, cfg DefenseConfig) (*Trace, DefenseStats, error) {
	return defense.Apply(tr, cfg)
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
