// Package core orchestrates the paper's end-to-end model-extraction flows
// on top of the substrates: run a victim network on the simulated
// accelerator, capture its off-chip trace, reverse engineer the structure
// (§3, Algorithm 1), materialize and short-train the recovered candidate
// structures to pick the best one (the paper's Figures 4 and 5), and
// recover weights through the zero-pruning side channel (§4, Algorithm 2).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"cnnrev/internal/accel"
	"cnnrev/internal/corrupt"
	"cnnrev/internal/defense"
	"cnnrev/internal/memtrace"
	"cnnrev/internal/nn"
	"cnnrev/internal/structrev"
	"cnnrev/internal/weightrev"
)

// CaptureResult bundles a victim run and its observable trace. Result is
// what accel.Simulator.Observe returns: the trace with its per-layer timing
// and record ranges, and NZCounts only when cfg zero-prunes; Logits and Acts
// are nil.
type CaptureResult struct {
	Net    *nn.Network
	Sim    *accel.Simulator
	Result *accel.Result
}

// Capture observes one inference of net on the simulated accelerator with a
// deterministic random input and returns the observables. Unless cfg
// zero-prunes, no layer is computed: the trace does not depend on the
// values, so the input is left unfilled and seed is not used.
func Capture(net *nn.Network, cfg accel.Config, seed int64) (*CaptureResult, error) {
	sim, err := accel.New(net, cfg)
	if err != nil {
		return nil, err
	}
	x := make([]float32, net.Input.Len())
	if cfg.ZeroPrune {
		rng := rand.New(rand.NewSource(seed))
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
	}
	res, err := sim.Observe(x)
	if err != nil {
		return nil, err
	}
	return &CaptureResult{Net: net, Sim: sim, Result: res}, nil
}

// StructureReport is the outcome of the structure attack against one victim.
type StructureReport struct {
	Analysis   *structrev.Analysis
	Structures []structrev.Structure
	// PerLayer lists, per weighted segment, the distinct recovered
	// configurations (the paper's Table 4 view).
	PerLayer map[int][]structrev.LayerConfig
	// TruthIndex is the index of the candidate matching the victim (up to
	// padding equivalence), or -1.
	TruthIndex int
	// TraceBytes is the off-chip traffic the analysis saw, after any
	// defense and corruption.
	TraceBytes uint64
	// Partial marks a report whose enumeration was cut short by context
	// cancellation: Structures is a deterministic prefix of the complete
	// candidate set.
	Partial bool
	// Corrupted marks a run whose captured trace was degraded by a
	// corruption model before analysis; Tolerant marks the noise-tolerant
	// analysis path, whose measured corruption level is in Noise.
	Corrupted bool
	Tolerant  bool
	Noise     structrev.NoiseStats
	// Defense names the defensive trace transform applied between capture
	// and the (adversary-side) corruption/analysis stages — "" when none
	// ran. DefenseStats carries its measured bandwidth/latency cost.
	Defense      string
	DefenseStats defense.Stats
	// Dataflow is the accelerator scheduling the capture ran under
	// (canonical name of cfg.Dataflow).
	Dataflow string
	// DetectedDataflow is the scheduling class auto-detected from the
	// trace's read/write interleaving — "ambiguous" when the evidence is
	// absent or conflicting (e.g. heavily corrupted probes). On a clean
	// capture it matches Dataflow; the conformance tests pin this for every
	// Table 3 victim under every backend.
	DetectedDataflow string
}

// StructureAttackSpec selects the hostile-probe extensions of the §3
// pipeline: a seeded corruption model applied to the captured trace (an
// imperfect bus probe) and the noise-tolerant analysis that compensates.
// The zero value reproduces the clean pipeline exactly.
type StructureAttackSpec struct {
	// Defense applies a defensive trace transform (internal/defense) to
	// the captured trace before any adversary-side stage: the victim's
	// countermeasure runs at the accelerator, the probe's corruption
	// happens afterwards on the bus.
	Defense defense.Config
	// Corrupt degrades the captured trace before analysis. Enabling any
	// model forces the tolerant analysis path.
	Corrupt corrupt.Config
	// Tolerant selects structrev.AnalyzeTolerant even on a clean trace
	// (byte-identical results there, per the golden conformance tests).
	Tolerant bool
	// TolerantOpt tunes the tolerant analysis; zero fields take the
	// documented defaults.
	TolerantOpt structrev.TolerantOptions
}

// StageFunc observes the completion of one named pipeline stage; the
// service layer uses it to feed per-stage latency histograms.
type StageFunc func(stage string, elapsed time.Duration)

// done reports a stage that started at t0; a nil StageFunc observes nothing.
func (f StageFunc) done(stage string, t0 time.Time) {
	if f != nil {
		f(stage, time.Since(t0))
	}
}

// isCtxErr reports whether err is the context's own cancellation error.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// RunStructureAttackSpec runs the §3 attack on a simulated victim: it
// captures net's trace (the "capture" stage), attacks it with AttackTrace
// under spec, and scores the candidates against net's true structure.
// Cancellation noticed before the solve returns a nil report; a report cut
// short by ctx or by opt.MaxStructures comes back with its error, as from
// AttackTrace. onStage, when non-nil, observes each completed stage.
func RunStructureAttackSpec(ctx context.Context, net *nn.Network, cfg accel.Config, opt structrev.Options, seed int64, spec StructureAttackSpec, onStage StageFunc) (*StructureReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	cap, err := Capture(net, cfg, seed)
	if err != nil {
		return nil, err
	}
	onStage.done("capture", t0)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	in := TraceInput{Input: net.Input, ElemBytes: cap.Sim.Config().ElemBytes, Classes: net.NumClasses(), Dataflow: cfg.Dataflow}
	rep, err := AttackTrace(ctx, cap.Result.Trace, in, opt, spec, onStage)
	if rep != nil {
		rep.TruthIndex = FindTruth(rep.Structures, GroundTruthConfigs(net))
	}
	return rep, err
}

// TraceInput is what the §3 adversary knows besides the trace: the input
// geometry, the element size and the class count. Dataflow is the
// scheduling the report names: the capture backend, or the adversary's
// declared prior for a trace captured elsewhere.
type TraceInput struct {
	Input     nn.Shape
	ElemBytes int
	Classes   int
	Dataflow  accel.Dataflow
}

// AttackTrace runs the adversary's side of the §3 pipeline on a trace, one
// observed stage each: the spec's defense, then its corruption, then the
// analysis (tolerant when corruption is enabled or spec.Tolerant is set),
// dataflow detection and the solve. tr is never modified. The context is
// checked after the defense and throughout the solve.
//
// Once the analysis succeeds, the report comes back even when the solve
// fails, alongside its error. If ctx expires during the solve, Structures
// is the deterministic prefix found so far and Partial is set. If the
// enumeration passes opt.MaxStructures, Structures is the first
// MaxStructures of the complete set, Partial stays false, and the error
// wraps structrev.ErrTooManyStructures. The victim is unknown here, so
// TruthIndex is -1.
func AttackTrace(ctx context.Context, tr *memtrace.Trace, in TraceInput, opt structrev.Options, spec StructureAttackSpec, onStage StageFunc) (*StructureReport, error) {
	rep := &StructureReport{TruthIndex: -1, Dataflow: in.Dataflow.String()}
	if spec.Defense.Enabled() {
		t0 := time.Now()
		var err error
		if tr, rep.DefenseStats, err = defense.Apply(tr, spec.Defense); err != nil {
			return nil, err
		}
		rep.Defense = spec.Defense.Kind
		onStage.done("defense", t0)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	rep.Corrupted = spec.Corrupt.Enabled()
	if rep.Corrupted {
		t0 := time.Now()
		tr = corrupt.Apply(tr, spec.Corrupt)
		onStage.done("corrupt", t0)
	}
	rep.Tolerant = spec.Tolerant || rep.Corrupted
	elem := in.ElemBytes
	t0 := time.Now()
	var a *structrev.Analysis
	var err error
	if rep.Tolerant {
		a, err = structrev.AnalyzeTolerant(tr, in.Input.Len()*elem, elem, spec.TolerantOpt)
	} else {
		a, err = structrev.Analyze(tr, in.Input.Len()*elem, elem)
	}
	if err != nil {
		return nil, err
	}
	onStage.done("analyze", t0)
	t0 = time.Now()
	rep.DetectedDataflow = structrev.DetectDataflow(tr, a, structrev.DetectOptions{}).Class.String()
	onStage.done("detect", t0)
	t0 = time.Now()
	structures, serr := structrev.SolveCtx(ctx, a, in.Input.W, in.Input.C, in.Classes, opt)
	onStage.done("solve", t0)
	rep.Analysis = a
	rep.Structures = structures
	rep.PerLayer = structrev.UniqueConfigs(a, structures)
	rep.TraceBytes = tr.Blocks() * uint64(tr.BlockBytes)
	rep.Partial = isCtxErr(serr)
	rep.Noise = a.Noise
	return rep, serr
}

// FindTruth returns the index of the first candidate matching the ground
// truth (up to padding equivalence), or -1. Exported so experiments that
// drive the analysis stages directly can score truth retention the same way
// the pipeline does.
func FindTruth(structures []structrev.Structure, truth []structrev.LayerConfig) int {
	for i := range structures {
		if structureMatches(&structures[i], truth) {
			return i
		}
	}
	return -1
}

// GroundTruthConfigs converts a network's weighted layers to the
// LayerConfig form the attack recovers (used to score the attack; the
// adversary of course does not have this).
func GroundTruthConfigs(net *nn.Network) []structrev.LayerConfig {
	var out []structrev.LayerConfig
	for i := range net.Specs {
		spec := &net.Specs[i]
		in := net.InShapes[i][0]
		switch spec.Kind {
		case nn.KindConv:
			c := structrev.LayerConfig{
				WIFM: in.W, DIFM: in.C,
				WOFM: net.Shapes[i].W, DOFM: net.Shapes[i].C,
				F: spec.F, S: spec.S, P: spec.P,
			}
			if spec.Pool != nn.PoolNone {
				c.HasPool = true
				c.FPool, c.SPool, c.PPool = spec.PoolF, spec.PoolS, spec.PoolP
			}
			out = append(out, c)
		case nn.KindFC:
			out = append(out, structrev.LayerConfig{
				WIFM: in.W, DIFM: in.C, WOFM: 1, DOFM: spec.OutC,
				FC: true, F: in.W, S: 1,
			})
		}
	}
	return out
}

// structureMatches compares a candidate against ground truth up to padding
// equivalence (the solver canonicalizes equivalent paddings).
func structureMatches(st *structrev.Structure, truth []structrev.LayerConfig) bool {
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
			a.HasPool != b.HasPool || a.FPool != b.FPool || a.SPool != b.SPool || a.PPool != b.PPool {
			return false
		}
	}
	return true
}

// Materialize builds a trainable network from a recovered structure by
// replaying the recovered dataflow graph: weighted segments become conv/FC
// layers, concatenated reads become concat nodes, element-wise segments
// become bypass additions. Channel and FC widths are depth-scaled by
// depthDiv (classifier output intact) so pure-Go candidate ranking stays
// feasible; pooling materializes as max pooling (global pools as average),
// since the side channel does not distinguish pool kinds.
func Materialize(a *structrev.Analysis, st *structrev.Structure, input nn.Shape, classes, depthDiv int) (*nn.Network, error) {
	var specs []nn.LayerSpec
	segNode := make([]int, len(a.Segments)) // nn layer index of each segment's output
	last := len(a.Segments) - 1

	for si := range a.Segments {
		seg := &a.Segments[si]
		// Group the segment's inputs into units: adjacent producers form a
		// concatenated read.
		var units [][]int // each unit: list of producer refs (nn node indices or InputRef)
		for _, in := range seg.Inputs {
			var node int
			if in.Producer < 0 {
				node = nn.InputRef
			} else {
				node = segNode[in.Producer]
			}
			if in.Adjacent && len(units) > 0 {
				units[len(units)-1] = append(units[len(units)-1], node)
			} else {
				units = append(units, []int{node})
			}
		}
		if len(units) == 0 {
			return nil, fmt.Errorf("core: segment %d has no inputs", si)
		}
		// Materialize each multi-producer unit as a concat node.
		nodes := make([]int, len(units))
		for u, members := range units {
			if len(members) == 1 {
				nodes[u] = members[0]
				continue
			}
			specs = append(specs, nn.LayerSpec{
				Name: fmt.Sprintf("concat%d_%d", si, u), Kind: nn.KindConcat, Inputs: members,
			})
			nodes[u] = len(specs) - 1
		}

		switch {
		case seg.Kind == structrev.SegEltwise:
			specs = append(specs, nn.LayerSpec{
				Name: fmt.Sprintf("eltwise%d", si), Kind: nn.KindEltwise, Inputs: nodes,
			})
		default:
			c := st.Layers[si].Config
			if c == nil {
				return nil, fmt.Errorf("core: weighted segment %d has no config", si)
			}
			in := nodes[0]
			if len(nodes) > 1 {
				// A weighted layer reading several non-adjacent maps: treat
				// as a concatenated input.
				specs = append(specs, nn.LayerSpec{
					Name: fmt.Sprintf("concat%d", si), Kind: nn.KindConcat, Inputs: nodes,
				})
				in = len(specs) - 1
			}
			outC := c.DOFM
			if si != last {
				outC = scaleDim(outC, depthDiv)
			} else if classes > 0 {
				outC = classes
			}
			spec := nn.LayerSpec{
				Name:   fmt.Sprintf("layer%d", si),
				ReLU:   si != last,
				Inputs: []int{in},
				OutC:   outC,
			}
			if c.FC {
				spec.Kind = nn.KindFC
			} else {
				spec.Kind = nn.KindConv
				spec.F, spec.S, spec.P = c.F, c.S, c.P
				if c.HasPool {
					spec.Pool = nn.PoolMax
					if c.WOFM == 1 {
						spec.Pool = nn.PoolAvg // global pooling is average by convention
					}
					spec.PoolF, spec.PoolS, spec.PoolP = c.FPool, c.SPool, c.PPool
				}
			}
			specs = append(specs, spec)
		}
		segNode[si] = len(specs) - 1
	}
	return nn.New("candidate", input, specs)
}

func scaleDim(d, div int) int {
	if div <= 1 {
		return d
	}
	s := d / div
	if s < 1 {
		s = 1
	}
	return s
}

// WeightReport is the outcome of the §4 weight attack on one conv layer.
type WeightReport struct {
	// MaxRatioErr is the largest |recovered − true| error over all w/b
	// ratios of non-zero weights (the paper reports < 2⁻¹⁰).
	MaxRatioErr float64
	// ZerosDetected / ZerosActual count zero-weight identification.
	ZerosDetected, ZerosActual int
	// ZeroErrors counts misclassified weights (zero↔non-zero).
	ZeroErrors int
	// Queries is the number of device inferences used.
	Queries int
	// Filters is the number of output channels recovered.
	Filters int
	// Ratios[d][c][ky][kx] are the recovered w/b values.
	Ratios [][][][]float64
}

// WeightAttackConfig tunes RunWeightAttackOpts. The zero value gives the
// default behavior (parallel per-filter recovery).
type WeightAttackConfig struct {
	// Serial disables the per-filter fan-out and recovers filters one at a
	// time — the reference mode (mirrors RankConfig.Serial).
	Serial bool
}

// RunWeightAttackOpts recovers w/b for every filter of the first layer of
// net (which must be an unpooled, unpadded conv layer) through the
// zero-pruning side channel, and scores the recovery against the true
// parameters. Each parallel per-filter recovery checks ctx between
// individual weight searches, so a cancelled attack releases the worker
// pool within one binary-search (single-weight) boundary.
func RunWeightAttackOpts(ctx context.Context, net *nn.Network, cfg accel.Config, opts WeightAttackConfig) (*WeightReport, error) {
	oracle, err := weightrev.NewFastOracle(net, cfg, 0)
	if err != nil {
		return nil, err
	}
	spec := &net.Specs[0]
	g := weightrev.Geometry{
		In: net.Input, OutC: spec.OutC, F: spec.F, S: spec.S, P: spec.P,
	}
	at := weightrev.NewAttacker(oracle, g)
	at.Serial = opts.Serial
	w := net.Params[0].W.Data
	b := net.Params[0].B.Data
	// The attack recovers w/b, which a zero bias leaves undefined: every
	// crossing would sit at 0, and the search would spend its whole query
	// budget without finding one. Reject such a filter before the first
	// query (a layer out of the algorithm's reach reports that instead).
	if g.CornerReachable() == nil {
		for d, bias := range b {
			if bias == 0 {
				return nil, fmt.Errorf("weightrev: filter %d has a zero bias, so its w/b ratios are undefined", d)
			}
		}
	}

	rep := &WeightReport{Filters: spec.OutC}
	rep.Ratios = make([][][][]float64, spec.OutC)
	inC, f := net.Input.C, spec.F

	// Filters are independent: RecoverAllFilters fans them out on the shared
	// tensor worker pool (the analytic oracle is read-only per query), one
	// task per filter so uneven search depths balance dynamically. In
	// hardware terms this corresponds to interleaving the per-filter query
	// schedules.
	results, err := at.RecoverAllFilters(ctx)
	if err != nil {
		return nil, err
	}
	for d := 0; d < spec.OutC; d++ {
		res := results[d]
		rep.Ratios[d] = res.Ratio
		for c := 0; c < inC; c++ {
			for ky := 0; ky < f; ky++ {
				for kx := 0; kx < f; kx++ {
					truth := float64(w[((d*inC+c)*f+ky)*f+kx]) / float64(b[d])
					isZero := w[((d*inC+c)*f+ky)*f+kx] == 0
					if isZero {
						rep.ZerosActual++
						if res.Zero[c][ky][kx] {
							rep.ZerosDetected++
						} else {
							rep.ZeroErrors++
						}
						continue
					}
					if res.Zero[c][ky][kx] {
						rep.ZeroErrors++
						continue
					}
					if e := math.Abs(res.Ratio[c][ky][kx] - truth); e > rep.MaxRatioErr {
						rep.MaxRatioErr = e
					}
				}
			}
		}
	}
	rep.Queries = oracle.Queries()
	return rep, nil
}
