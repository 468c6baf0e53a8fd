package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"

	"cnnrev/internal/accel"
	"cnnrev/internal/core"
	"cnnrev/internal/corrupt"
	"cnnrev/internal/defense"
	"cnnrev/internal/experiments"
	"cnnrev/internal/memtrace"
	"cnnrev/internal/nn"
	"cnnrev/internal/structrev"
)

// rankParams mirrors core.RankConfig for the request surface.
type rankParams struct {
	Classes       int   `json:"classes"`
	PerClass      int   `json:"per_class"`
	Epochs        int   `json:"epochs"`
	DepthDiv      int   `json:"depth_div"`
	TopK          int   `json:"top_k"`
	Seed          int64 `json:"seed"`
	MaxCandidates int   `json:"max_candidates"`

	// Successive-halving tournament knobs (core.RankConfig.Halving/Eta/
	// MinEpochs). The zero values select the flat schedule.
	Halving   bool `json:"halving"`
	Eta       int  `json:"eta"`
	MinEpochs int  `json:"min_epochs"`
}

// validate bounds the tournament knobs. Eta/MinEpochs without halving are
// rejected rather than ignored: a silent no-op would still mint a distinct
// result-cache key and return a flat ranking under tournament-looking
// parameters. Every count knob is also bounded below: a negative count
// would flow silently into trainer/rank semantics (and mint its own cache
// key) on both request surfaces.
func (p *rankParams) validate() error {
	for _, c := range []struct {
		name string
		v    int
	}{
		{"classes", p.Classes},
		{"per_class", p.PerClass},
		{"epochs", p.Epochs},
		{"depth_div", p.DepthDiv},
		{"top_k", p.TopK},
		{"max_candidates", p.MaxCandidates},
	} {
		if c.v < 0 {
			return fmt.Errorf("rank %s must be >= 0, got %d", c.name, c.v)
		}
	}
	if p.Eta < 0 || p.Eta > 64 {
		return fmt.Errorf("rank eta must be in [0,64], got %d", p.Eta)
	}
	if p.MinEpochs < 0 || p.MinEpochs > 1<<20 {
		return fmt.Errorf("rank min_epochs must be in [0,%d], got %d", 1<<20, p.MinEpochs)
	}
	if !p.Halving && (p.Eta != 0 || p.MinEpochs != 0) {
		return fmt.Errorf("rank eta/min_epochs require halving=true")
	}
	return nil
}

// defenseParams mirrors defense.Config for the request surface.
type defenseParams struct {
	Kind           string  `json:"kind"`
	Seed           int64   `json:"seed"`
	DummyRate      float64 `json:"dummy_rate"`
	BucketBytes    int     `json:"bucket_bytes"`
	OnChipBytes    int64   `json:"onchip_bytes"`
	ORAMZ          int     `json:"oram_z"`
	ORAMBlockBytes int     `json:"oram_block_bytes"`
}

// toConfig validates the parameters and converts them to a defense.Config.
// Knobs belonging to a defense other than the selected one are rejected
// rather than ignored — a silent no-op would still mint a distinct
// result-cache key and return an undefended result under defense-looking
// parameters (the same contract rankParams enforces for eta/min_epochs).
func (p *defenseParams) toConfig() (defense.Config, error) {
	cfg := defense.Config{
		Kind:        p.Kind,
		Seed:        p.Seed,
		DummyRate:   p.DummyRate,
		BucketBytes: p.BucketBytes,
		OnChipBytes: p.OnChipBytes,
	}
	cfg.ORAM.Z = p.ORAMZ
	cfg.ORAM.BlockBytes = p.ORAMBlockBytes
	if err := cfg.Validate(); err != nil {
		return defense.Config{}, err
	}
	if !cfg.Enabled() {
		if p.Seed != 0 || p.DummyRate != 0 || p.BucketBytes != 0 || p.OnChipBytes != 0 || p.ORAMZ != 0 || p.ORAMBlockBytes != 0 {
			return defense.Config{}, fmt.Errorf("defense_* knobs require a defense kind (one of %v)", defense.Kinds[1:])
		}
		return cfg, nil
	}
	if p.DummyRate != 0 && cfg.Kind != "dummy" {
		return defense.Config{}, fmt.Errorf("defense_dummy_rate applies to defense=dummy, not %q", cfg.Kind)
	}
	if p.BucketBytes != 0 && cfg.Kind != "pad" {
		return defense.Config{}, fmt.Errorf("defense_bucket_bytes applies to defense=pad, not %q", cfg.Kind)
	}
	if p.OnChipBytes != 0 && cfg.Kind != "fuse" {
		return defense.Config{}, fmt.Errorf("defense_onchip_bytes applies to defense=fuse, not %q", cfg.Kind)
	}
	if (p.ORAMZ != 0 || p.ORAMBlockBytes != 0) && cfg.Kind != "oram" {
		return defense.Config{}, fmt.Errorf("defense_oram_* apply to defense=oram, not %q", cfg.Kind)
	}
	return cfg, nil
}

// attackRequest is a fully parsed job input, either a decoded uploaded
// trace ("trace" mode) or a victim spec to simulate ("simulate" mode).
type attackRequest struct {
	mode string // "trace" | "simulate"

	// trace mode
	trace     *memtrace.Trace
	traceHash string // SHA-256 of the serialized upload, hex
	inW, inD  int
	elemBytes int

	// simulate mode
	model    string
	depthDiv int
	filters  int
	zeroFrac float64
	seed     int64

	// common
	classes       int
	modular       bool
	tol           float64
	allowStrideOK bool
	maxStructures int
	// capResolved marks maxStructures as the *effective* solver cap — the
	// request cap already merged with the server's -max-structures by the
	// submitting frontend — so worker replicas and the cache key use the
	// frontend's bound verbatim instead of re-merging against their own.
	capResolved bool
	maxReturn   int
	rank        *rankParams
	weights     bool
	timeout     time.Duration
	// dataflow selects the accelerator backend: the capture schedule in
	// simulate mode, the adversary's declared scheduling prior in trace mode
	// (either way the job's own detection result is reported back).
	dataflow accel.Dataflow

	// hostile-probe extensions: corrupt degrades the trace before analysis
	// (uploaded or captured), tolerant selects the noise-tolerant analysis
	// path (forced on whenever corruption is enabled).
	tolerant bool
	corrupt  corrupt.Config

	// defense applies a defensive trace transform (internal/defense) to
	// the victim's trace before any adversary-side stage — before corrupt,
	// since the countermeasure runs at the accelerator while probe noise
	// happens on the bus.
	defense defense.Config

	// cacheBypass skips the result-cache lookup (the fresh result still
	// refreshes the stored entry).
	cacheBypass bool
}

// cacheKey canonicalizes everything that determines a job's result into
// the content-addressed cache key. Trace mode is keyed on the upload's
// SHA-256 plus the analysis parameters; simulate mode on the canonical
// victim spec (with the seed already resolved, so an absent seed and an
// explicit seed 2 share an entry). The maxstructures component is the
// *effective* cap (request merged with the server's -max-structures), so
// restarting the server with a different cap never replays a result
// computed under the old bound. The v3 prefix adds the defense tuple: a
// defended and an undefended run of the same victim must never share an
// entry. The job timeout is deliberately excluded: only complete results
// are cached, and a complete result is valid under any deadline.
func (req *attackRequest) cacheKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "v3|mode=%s|", req.mode)
	if req.mode == "trace" {
		fmt.Fprintf(&b, "sha256=%s|inw=%d|ind=%d|elem=%d|", req.traceHash, req.inW, req.inD, req.elemBytes)
	} else {
		fmt.Fprintf(&b, "model=%s|depthdiv=%d|filters=%d|zerofrac=%g|seed=%d|",
			req.model, req.depthDiv, req.filters, req.zeroFrac, req.seed)
	}
	fmt.Fprintf(&b, "classes=%d|modular=%t|tol=%g|strideok=%t|maxstructures=%d|maxreturn=%d|tolerant=%t|weights=%t|dataflow=%s|",
		req.classes, req.modular, req.tol, req.allowStrideOK, req.maxStructures, req.maxReturn, req.tolerant, req.weights, req.dataflow)
	c := req.corrupt
	fmt.Fprintf(&b, "corrupt=%d,%g,%g,%g,%d,%g,%d,%d|",
		c.Seed, c.DropRate, c.SplitRate, c.CoalesceRate, c.ReorderWindow,
		c.InterferenceRate, c.InterferenceRegions, c.ProbeGranularityBlocks)
	d := req.defense
	fmt.Fprintf(&b, "defense=%s,%d,%g,%d,%d,%d,%d|",
		d.Kind, d.Seed, d.DummyRate, d.BucketBytes, d.OnChipBytes,
		d.ORAM.Z, d.ORAM.BlockBytes)
	if r := req.rank; r != nil {
		fmt.Fprintf(&b, "rank=%d,%d,%d,%d,%d,%d,%d,h=%t,%d,%d",
			r.Classes, r.PerClass, r.Epochs, r.DepthDiv, r.TopK, r.Seed, r.MaxCandidates,
			r.Halving, r.Eta, r.MinEpochs)
	} else {
		b.WriteString("rank=-")
	}
	return b.String()
}

// corruptParams mirrors corrupt.Config for the request surface.
type corruptParams struct {
	Seed                   int64   `json:"seed"`
	DropRate               float64 `json:"drop_rate"`
	SplitRate              float64 `json:"split_rate"`
	CoalesceRate           float64 `json:"coalesce_rate"`
	ReorderWindow          int     `json:"reorder_window"`
	InterferenceRate       float64 `json:"interference_rate"`
	InterferenceRegions    int     `json:"interference_regions"`
	ProbeGranularityBlocks int     `json:"probe_granularity_blocks"`
}

// toConfig validates the parameters and converts them to a corrupt.Config.
func (p *corruptParams) toConfig() (corrupt.Config, error) {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"drop_rate", p.DropRate},
		{"split_rate", p.SplitRate},
		{"coalesce_rate", p.CoalesceRate},
		{"interference_rate", p.InterferenceRate},
	} {
		if r.v < 0 || r.v > 1 {
			return corrupt.Config{}, fmt.Errorf("%s must be in [0,1], got %g", r.name, r.v)
		}
	}
	if p.ReorderWindow < 0 || p.ReorderWindow > 1<<20 {
		return corrupt.Config{}, fmt.Errorf("reorder_window must be in [0,%d], got %d", 1<<20, p.ReorderWindow)
	}
	if p.InterferenceRegions < 0 || p.InterferenceRegions > 64 {
		return corrupt.Config{}, fmt.Errorf("interference_regions must be in [0,64], got %d", p.InterferenceRegions)
	}
	if p.ProbeGranularityBlocks < 0 || p.ProbeGranularityBlocks > 1<<20 {
		return corrupt.Config{}, fmt.Errorf("probe_granularity_blocks must be in [0,%d], got %d", 1<<20, p.ProbeGranularityBlocks)
	}
	return corrupt.Config{
		Seed:                   p.Seed,
		DropRate:               p.DropRate,
		SplitRate:              p.SplitRate,
		CoalesceRate:           p.CoalesceRate,
		ReorderWindow:          p.ReorderWindow,
		InterferenceRate:       p.InterferenceRate,
		InterferenceRegions:    p.InterferenceRegions,
		ProbeGranularityBlocks: p.ProbeGranularityBlocks,
	}, nil
}

type segInputJSON struct {
	Producer int    `json:"producer"`
	Bytes    uint64 `json:"bytes"`
	Adjacent bool   `json:"adjacent,omitempty"`
}

type segmentJSON struct {
	Index        int            `json:"index"`
	Kind         string         `json:"kind"`
	WeightsBytes uint64         `json:"weights_bytes"`
	OFMBytes     uint64         `json:"ofm_bytes"`
	Cycles       uint64         `json:"cycles"`
	Inputs       []segInputJSON `json:"inputs"`
}

type scoreJSON struct {
	Candidate int      `json:"candidate"`
	Accuracy  *float64 `json:"accuracy"` // null when training failed or was cancelled
	IsTruth   bool     `json:"is_truth,omitempty"`
	Error     string   `json:"error,omitempty"`
	Epochs    int      `json:"epochs,omitempty"` // training epochs received (partial under halving elimination)
}

// rungJSON is one successive-halving rung in the response.
type rungJSON struct {
	TargetEpochs int `json:"target_epochs"`
	Candidates   int `json:"candidates"`
	Epochs       int `json:"epochs"`
	Eliminated   int `json:"eliminated"`
}

// rankMetaJSON summarizes the ranking schedule that produced the scores.
type rankMetaJSON struct {
	Halving     bool       `json:"halving"`
	TotalEpochs int        `json:"total_epochs"`
	Skipped     int        `json:"skipped,omitempty"` // candidates never trained (MaxCandidates cap)
	Rungs       []rungJSON `json:"rungs,omitempty"`
}

type weightsJSON struct {
	Filters       int     `json:"filters"`
	MaxRatioErr   float64 `json:"max_ratio_err"`
	ZerosActual   int     `json:"zeros_actual"`
	ZerosDetected int     `json:"zeros_detected"`
	ZeroErrors    int     `json:"zero_errors"`
	Queries       int     `json:"queries"`
}

// attackResponse is the JSON result of one job. Partial marks a response
// cut short by the job deadline: the populated fields are a deterministic
// prefix of the full result.
// noiseJSON mirrors structrev.NoiseStats in the response.
type noiseJSON struct {
	InterferenceRegions  int     `json:"interference_regions"`
	InterferenceAccesses int     `json:"interference_accesses"`
	WriteHoleFrac        float64 `json:"write_hole_frac"`
	ROHoleFrac           float64 `json:"ro_hole_frac"`
	DroppedDeps          int     `json:"dropped_deps"`
}

// defenseJSON reports the applied defensive transform and its measured
// cost in the response.
type defenseJSON struct {
	Kind              string  `json:"kind"`
	BandwidthOverhead float64 `json:"bandwidth_overhead"`
	LatencyOverhead   float64 `json:"latency_overhead"`
	InputBlocks       uint64  `json:"input_blocks"`
	OutputBlocks      uint64  `json:"output_blocks"`
	ORAMLevels        int     `json:"oram_levels,omitempty"`
	ORAMMaxStash      int     `json:"oram_max_stash,omitempty"`
}

func defenseJSONFrom(st defense.Stats) *defenseJSON {
	dj := &defenseJSON{
		Kind:              st.Defense,
		BandwidthOverhead: st.BandwidthOverhead(),
		LatencyOverhead:   st.LatencyOverhead(),
		InputBlocks:       st.InputBlocks,
		OutputBlocks:      st.OutputBlocks,
	}
	if st.ORAM != nil {
		dj.ORAMLevels = st.ORAM.Levels
		dj.ORAMMaxStash = st.ORAM.MaxStash
	}
	return dj
}

type attackResponse struct {
	JobID         string           `json:"job_id"`
	Mode          string           `json:"mode"`
	Model         string           `json:"model,omitempty"`
	Partial       bool             `json:"partial,omitempty"`
	Cached        bool             `json:"cached,omitempty"` // served from the result cache; job_id/stage_ms describe the job that computed it
	Tolerant      bool             `json:"tolerant,omitempty"`
	Corrupted     bool             `json:"corrupted,omitempty"`
	Defense       *defenseJSON     `json:"defense,omitempty"`           // defensive transform applied before analysis, with measured overheads
	Dataflow      string           `json:"dataflow,omitempty"`          // accelerator scheduling the job ran under (simulate: capture backend; trace: declared prior)
	DetectedDF    string           `json:"detected_dataflow,omitempty"` // scheduling class auto-detected from the trace; "ambiguous" when evidence is insufficient
	Noise         *noiseJSON       `json:"noise,omitempty"`
	Segments      []segmentJSON    `json:"segments,omitempty"`
	NumStructures int              `json:"num_structures"`
	Structures    []string         `json:"structures,omitempty"`
	Truncated     bool             `json:"structures_truncated,omitempty"`
	TruthIndex    *int             `json:"truth_index,omitempty"`
	Scores        []scoreJSON      `json:"scores,omitempty"`
	Rank          *rankMetaJSON    `json:"rank,omitempty"`
	Weights       *weightsJSON     `json:"weights,omitempty"`
	WeightsError  string           `json:"weights_error,omitempty"`
	TraceBytes    uint64           `json:"trace_bytes,omitempty"`
	StageMS       map[string]int64 `json:"stage_ms"`
}

// buildVictim constructs the simulate-mode victim. initWeights reports
// whether the caller should seed the weights (the pruned-conv victim of the
// weight attack arrives with its magnitude-pruned weights already set).
func buildVictim(model string, classes, depthDiv, filters int, zeroFrac float64, seed int64) (net *nn.Network, initWeights bool, err error) {
	if classes <= 0 {
		classes = 10
		if model == "alexnet" || model == "squeezenet" {
			classes = 1000
		}
	}
	if depthDiv <= 0 {
		depthDiv = 1
	}
	switch model {
	case "lenet":
		return nn.LeNet(classes), true, nil
	case "convnet":
		return nn.ConvNet(classes), true, nil
	case "alexnet":
		return nn.AlexNet(classes, depthDiv), true, nil
	case "squeezenet":
		return nn.SqueezeNet(classes, depthDiv), true, nil
	case "vgg11":
		return nn.VGG11(classes, depthDiv), true, nil
	case "nin":
		return nn.NiN(classes, depthDiv), true, nil
	case "resnetmini":
		return nn.ResNetMini(classes, depthDiv), true, nil
	case "prunedconv1":
		// The §4 weight-attack victim: a first layer the corner-iteration
		// algorithm can reach (unpooled, unpadded conv).
		if zeroFrac <= 0 || zeroFrac >= 1 {
			zeroFrac = 0.25
		}
		return experiments.PrunedConv1(filters, zeroFrac, seed), false, nil
	}
	return nil, false, fmt.Errorf("unknown model %q", model)
}

// solverOptions maps request knobs onto the solver's option set. Once the
// submitting frontend has resolved the effective cap (capResolved), it is
// taken verbatim — a worker with a different -max-structures must not
// re-merge it.
func (s *Server) solverOptions(req *attackRequest) structrev.Options {
	opt := structrev.DefaultOptions()
	opt.IdenticalModules = req.modular
	opt.AllowStrideOverKernel = req.allowStrideOK
	if req.tol > 0 {
		opt.TimingSpreadMax = req.tol
	}
	if req.capResolved {
		opt.MaxStructures = req.maxStructures
		return opt
	}
	if s.cfg.MaxStructures > 0 {
		opt.MaxStructures = s.cfg.MaxStructures
	}
	if req.maxStructures > 0 && (opt.MaxStructures == 0 || req.maxStructures < opt.MaxStructures) {
		opt.MaxStructures = req.maxStructures
	}
	return opt
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// execute runs the attack pipeline for one job. It returns the response
// (possibly partial), or a nil response with the HTTP status to report.
// A context.Canceled error means the client disconnected; the job is
// abandoned without a response.
func (s *Server) execute(j *job) (*attackResponse, int, error) {
	req, ctx := j.req, j.ctx
	resp := &attackResponse{JobID: j.id, Mode: req.mode, Model: req.model, StageMS: map[string]int64{}}
	observe := func(stage string, d time.Duration) {
		s.met.ObserveStage(stage, d)
		s.met.ObserveStageDataflow(stage, req.dataflow.String(), d)
		resp.StageMS[stage] = d.Milliseconds()
	}
	opt := s.solverOptions(req)

	// cancelledIn attributes a context expiration to the stage that was (or
	// would have been) running: the first pipeline stage with no recorded
	// completion.
	cancelledIn := func() string {
		for _, st := range stageNames {
			if _, done := resp.StageMS[st]; !done {
				return st
			}
		}
		return stageNames[len(stageNames)-1]
	}
	fail := func(status int, err error) (*attackResponse, int, error) {
		if isCtxErr(err) {
			s.met.MarkStageCancelled(cancelledIn())
			if errors.Is(err, context.Canceled) {
				return nil, 0, err
			}
			status = http.StatusGatewayTimeout
		}
		return nil, status, err
	}

	var rep *core.StructureReport
	var input nn.Shape
	var net *nn.Network

	switch req.mode {
	case "trace":
		input = nn.Shape{C: req.inD, H: req.inW, W: req.inW}
		trace := req.trace
		var defStats defense.Stats
		defended := req.defense.Enabled()
		if defended {
			t0 := time.Now()
			var derr error
			trace, defStats, derr = defense.Apply(trace, req.defense)
			if derr != nil {
				return fail(http.StatusUnprocessableEntity, derr)
			}
			observe("defense", time.Since(t0))
		}
		corrupted := req.corrupt.Enabled()
		if corrupted {
			t0 := time.Now()
			trace = corrupt.Apply(trace, req.corrupt)
			observe("corrupt", time.Since(t0))
		}
		tolerant := req.tolerant || corrupted
		t0 := time.Now()
		var a *structrev.Analysis
		var err error
		if tolerant {
			a, err = structrev.AnalyzeTolerant(trace, input.Len()*req.elemBytes, req.elemBytes, structrev.TolerantOptions{})
		} else {
			a, err = structrev.Analyze(trace, input.Len()*req.elemBytes, req.elemBytes)
		}
		if err != nil {
			return fail(http.StatusUnprocessableEntity, err)
		}
		observe("analyze", time.Since(t0))
		t0 = time.Now()
		detected := structrev.DetectDataflow(trace, a, structrev.DetectOptions{})
		observe("detect", time.Since(t0))
		t0 = time.Now()
		structures, serr := structrev.SolveCtx(ctx, a, req.inW, req.inD, req.classes, opt)
		observe("solve", time.Since(t0))
		if serr != nil && !isCtxErr(serr) {
			return fail(http.StatusUnprocessableEntity, serr)
		}
		rep = &core.StructureReport{
			Analysis:   a,
			Structures: structures,
			PerLayer:   structrev.UniqueConfigs(a, structures),
			TruthIndex: -1,
			TraceBytes: trace.Blocks() * uint64(trace.BlockBytes),
			Partial:    serr != nil,
			Corrupted:  corrupted,
			Tolerant:   tolerant,
			Noise:      a.Noise,

			Dataflow:         req.dataflow.String(),
			DetectedDataflow: detected.Class.String(),
		}
		if defended {
			rep.Defense = req.defense.Kind
			rep.DefenseStats = defStats
		}
		if serr != nil {
			s.met.MarkStageCancelled("solve")
		}
	case "simulate":
		var initW bool
		var err error
		net, initW, err = buildVictim(req.model, req.classes, req.depthDiv, req.filters, req.zeroFrac, req.seed)
		if err != nil {
			return fail(http.StatusBadRequest, err)
		}
		if initW {
			net.InitWeights(req.seed)
		}
		input = net.Input
		spec := core.StructureAttackSpec{Defense: req.defense, Corrupt: req.corrupt, Tolerant: req.tolerant}
		rep, err = core.RunStructureAttackSpec(ctx, net, accel.Config{Dataflow: req.dataflow}, opt, req.seed, spec, observe)
		if err != nil && rep == nil {
			return fail(http.StatusUnprocessableEntity, err)
		}
		if rep.Partial {
			s.met.MarkStageCancelled("solve")
		}
		idx := rep.TruthIndex
		resp.TruthIndex = &idx
	default:
		return fail(http.StatusBadRequest, fmt.Errorf("unknown mode %q", req.mode))
	}

	fillStructureResult(resp, rep, req.maxReturn)

	// A partial solve means the deadline already struck: later stages would
	// start cancelled, so return what we have.
	if rep.Partial {
		resp.Partial = true
		if errors.Is(ctx.Err(), context.Canceled) {
			return nil, 0, ctx.Err()
		}
		return resp, http.StatusOK, nil
	}

	if req.rank != nil {
		rc := core.RankConfig{
			Classes: req.rank.Classes, PerClass: req.rank.PerClass, Epochs: req.rank.Epochs,
			DepthDiv: req.rank.DepthDiv, TopK: req.rank.TopK, Seed: req.rank.Seed,
			MaxCandidates: req.rank.MaxCandidates,
			Halving:       req.rank.Halving, Eta: req.rank.Eta, MinEpochs: req.rank.MinEpochs,
		}
		if s.cfg.Workers > 1 {
			// Fan each rung's independent trainings out to idle serve workers;
			// training remains seed-deterministic per candidate, so the scores
			// are bit-identical to the serial schedule.
			rc.Runner = s.runShared
		}
		t0 := time.Now()
		rres := core.RankCandidatesResult(ctx, rep, input, rc)
		observe("rank", time.Since(t0))
		s.met.ObserveRank(rres)
		for _, sc := range rres.Scores {
			sj := scoreJSON{Candidate: sc.Index, IsTruth: sc.IsTruth, Epochs: sc.Epochs}
			if !math.IsNaN(sc.Accuracy) {
				acc := sc.Accuracy
				sj.Accuracy = &acc
			}
			if sc.Err != nil {
				sj.Error = sc.Err.Error()
			}
			resp.Scores = append(resp.Scores, sj)
		}
		meta := &rankMetaJSON{Halving: rres.Halving, TotalEpochs: rres.TotalEpochs, Skipped: rres.Skipped}
		for _, rg := range rres.Rungs {
			meta.Rungs = append(meta.Rungs, rungJSON{
				TargetEpochs: rg.TargetEpochs, Candidates: rg.Candidates,
				Epochs: rg.Epochs, Eliminated: rg.Eliminated,
			})
		}
		resp.Rank = meta
		if ctx.Err() != nil {
			s.met.MarkStageCancelled("rank")
			resp.Partial = true
		}
	}

	if req.weights && !resp.Partial {
		if net == nil {
			resp.WeightsError = "weight attack requires simulate mode"
		} else {
			t0 := time.Now()
			wrep, err := core.RunWeightAttackCtx(ctx, net, accel.Config{Dataflow: req.dataflow})
			// Record the stage on every outcome — an unreachable first layer
			// or a mid-stage cancellation still spent this wall time, and the
			// stage histogram must not undercount it.
			observe("weights", time.Since(t0))
			switch {
			case err != nil && isCtxErr(err):
				s.met.MarkStageCancelled("weights")
				resp.Partial = true
			case err != nil:
				// The victim's first layer is out of the §4 algorithm's
				// reach (pooled/padded); report it without failing the job.
				resp.WeightsError = err.Error()
			default:
				resp.Weights = &weightsJSON{
					Filters: wrep.Filters, MaxRatioErr: wrep.MaxRatioErr,
					ZerosActual: wrep.ZerosActual, ZerosDetected: wrep.ZerosDetected,
					ZeroErrors: wrep.ZeroErrors, Queries: wrep.Queries,
				}
			}
		}
	}

	if cerr := ctx.Err(); cerr != nil {
		resp.Partial = true
		if errors.Is(cerr, context.Canceled) {
			return nil, 0, cerr
		}
	}
	return resp, http.StatusOK, nil
}

// fillStructureResult populates the structure-attack portion of a response.
// maxReturn bounds the rendered structure list (the count is always exact);
// Truncated flags the cut so a capped list is never mistaken for the full
// enumeration.
func fillStructureResult(resp *attackResponse, rep *core.StructureReport, maxReturn int) {
	if maxReturn <= 0 {
		maxReturn = 50
	}
	for i := range rep.Analysis.Segments {
		seg := &rep.Analysis.Segments[i]
		sj := segmentJSON{
			Index: seg.Index, Kind: seg.Kind.String(),
			WeightsBytes: seg.WeightsBytes, OFMBytes: seg.OFMBytes, Cycles: seg.Cycles(),
		}
		for _, in := range seg.Inputs {
			sj.Inputs = append(sj.Inputs, segInputJSON{Producer: in.Producer, Bytes: in.Bytes, Adjacent: in.Adjacent})
		}
		resp.Segments = append(resp.Segments, sj)
	}
	resp.NumStructures = len(rep.Structures)
	resp.TraceBytes = rep.TraceBytes
	resp.Tolerant = rep.Tolerant
	resp.Corrupted = rep.Corrupted
	resp.Dataflow = rep.Dataflow
	resp.DetectedDF = rep.DetectedDataflow
	if rep.Defense != "" {
		resp.Defense = defenseJSONFrom(rep.DefenseStats)
	}
	if rep.Tolerant {
		resp.Noise = &noiseJSON{
			InterferenceRegions:  rep.Noise.InterferenceRegions,
			InterferenceAccesses: rep.Noise.InterferenceAccesses,
			WriteHoleFrac:        rep.Noise.WriteHoleFrac,
			ROHoleFrac:           rep.Noise.ROHoleFrac,
			DroppedDeps:          rep.Noise.DroppedDeps,
		}
	}
	n := len(rep.Structures)
	if n > maxReturn {
		n = maxReturn
		resp.Truncated = true
	}
	for i := 0; i < n; i++ {
		resp.Structures = append(resp.Structures, renderStructure(&rep.Structures[i]))
	}
}

// renderStructure prints a candidate as its weighted configs in execution
// order, the same view cmd/revcnn prints.
func renderStructure(st *structrev.Structure) string {
	var parts []string
	for _, c := range st.WeightedConfigs() {
		parts = append(parts, c.String())
	}
	return strings.Join(parts, "; ")
}
