package serve

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strings"
	"time"

	"cnnrev/internal/accel"
	"cnnrev/internal/core"
	"cnnrev/internal/defense"
	"cnnrev/internal/nn"
	"cnnrev/internal/structrev"
)

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

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// execute runs the attack pipeline for one job. It returns the response
// (possibly partial), or a nil response with the HTTP status to report.
// A context.Canceled error means the client disconnected; the job is
// abandoned without a response.
func (s *Server) execute(j *job) (*attackResponse, int, error) {
	req, ctx, df := j.req, j.ctx, j.req.dataflow()
	resp := &attackResponse{JobID: j.id, Mode: req.mode(), Model: req.Model, StageMS: map[string]int64{}}
	observe := func(stage string, d time.Duration) {
		s.met.ObserveStage(stage, d)
		s.met.ObserveStageDataflow(stage, df.String(), d)
		resp.StageMS[stage] = d.Milliseconds()
	}

	// cancelledIn attributes a context expiration to the stage that was (or
	// would have been) running: the first stage this job runs on a worker
	// with no recorded completion.
	cancelledIn := func() string {
		for _, st := range stageNames {
			if _, done := resp.StageMS[st]; !done && req.runs(st) {
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

	spec := core.StructureAttackSpec{Defense: req.Defense.config(), Corrupt: req.Corrupt, Tolerant: req.Tolerant}
	var rep *core.StructureReport
	var input nn.Shape
	var net *nn.Network
	var err error
	if up := req.Upload; up != nil {
		input = nn.Shape{C: up.InD, H: up.InW, W: up.InW}
		in := core.TraceInput{Input: input, ElemBytes: up.Elem, Classes: req.Classes, Dataflow: df}
		rep, err = core.AttackTrace(ctx, j.trace, in, req.solverOptions(), spec, observe)
	} else {
		if net, err = buildVictim(req); err != nil {
			return fail(http.StatusBadRequest, err)
		}
		input = net.Input
		rep, err = core.RunStructureAttackSpec(ctx, net, accel.Config{Dataflow: df}, req.solverOptions(), req.Seed, spec, observe)
	}
	// Only a deadline's partial report is served; a solver cap is a 422.
	if err != nil && (rep == nil || !rep.Partial) {
		return fail(http.StatusUnprocessableEntity, err)
	}
	if rep.Partial {
		s.met.MarkStageCancelled("solve")
	}
	if net != nil {
		idx := rep.TruthIndex
		resp.TruthIndex = &idx
	}

	fillStructureResult(resp, rep, req.MaxReturn)

	// A partial solve means the deadline already struck: later stages would
	// start cancelled, so return what we have.
	if rep.Partial {
		resp.Partial = true
		if errors.Is(ctx.Err(), context.Canceled) {
			return nil, 0, ctx.Err()
		}
		return resp, http.StatusOK, nil
	}

	if req.Rank != nil {
		rc := req.Rank.config()
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

	if req.Weights && !resp.Partial {
		if net == nil {
			resp.WeightsError = "weight attack requires simulate mode"
		} else {
			t0 := time.Now()
			wrep, err := core.RunWeightAttackOpts(ctx, net, accel.Config{Dataflow: df}, core.WeightAttackConfig{})
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
	names := make(map[structrev.LayerConfig]string)
	for i := 0; i < n; i++ {
		resp.Structures = append(resp.Structures, renderStructure(&rep.Structures[i], names))
	}
}

// renderStructure prints a candidate as its weighted configs in execution
// order (WeightedConfigs), the same view cmd/revcnn prints. names memoizes
// each distinct config's string across the structures of one response,
// which share most of their layer hypotheses.
func renderStructure(st *structrev.Structure, names map[structrev.LayerConfig]string) string {
	var b strings.Builder
	sep := ""
	for _, l := range st.Layers {
		if l.Config == nil {
			continue // unweighted
		}
		name, ok := names[*l.Config]
		if !ok {
			name = l.Config.String()
			names[*l.Config] = name
		}
		b.WriteString(sep)
		b.WriteString(name)
		sep = "; "
	}
	return b.String()
}
