package core

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"cnnrev/internal/dataset"
	"cnnrev/internal/nn"
	"cnnrev/internal/tensor"
)

// RankConfig parameterizes candidate ranking (Figures 4 and 5).
type RankConfig struct {
	Classes   int
	PerClass  int // training samples per class (plus PerClass/3 test)
	Epochs    int
	DepthDiv  int
	TopK      int // accuracy metric: top-K
	Seed      int64
	LR        float32
	BatchSize int
	// MaxCandidates caps how many structures are trained (0 = all). When the
	// cap truncates the candidate list, the trained scores are a
	// deterministic prefix (candidate-index order) of the full ranking and
	// RankResult.Skipped records how many candidates were never trained —
	// the same truncated-prefix contract ErrTooManyStructures gives the
	// solver stage.
	MaxCandidates int
	// Serial forces the candidates to be trained one after another on the
	// calling goroutine — the reference schedule the determinism regression
	// tests compare the default parallel ranking against.
	Serial bool

	// Halving replaces the flat train-everyone-to-completion loop with a
	// successive-halving tournament: every candidate trains for a small
	// initial budget (MinEpochs), the top 1/Eta fraction by validation
	// accuracy survives, the per-candidate budget multiplies by Eta, and the
	// cycle repeats — survivors resuming from their existing trainer state —
	// until the budget reaches Epochs. The zero value (and Eta <= 1, and
	// MinEpochs >= Epochs) selects the flat path, so existing callers and
	// golden tests are untouched.
	Halving bool
	// Eta is the tournament elimination factor (default 2). Eta <= 1
	// degenerates to the flat schedule: one rung at the full epoch budget.
	Eta int
	// MinEpochs is the first-rung per-candidate epoch budget (default 1).
	MinEpochs int

	// Runner, when non-nil (and Serial is unset), schedules each rung's
	// independent candidate trainings instead of tensor.Parallel — the hook
	// revcnnd uses to fan a rung out across its idle serve workers. The
	// determinism contract requires only that Runner invoke fn exactly once
	// for every i in [0,n), in any order, and return after all calls finish;
	// candidate state isolation makes the result schedule-independent.
	Runner func(n int, fn func(i int))
}

// CandidateScore is one ranked candidate structure.
type CandidateScore struct {
	Index    int
	Accuracy float64
	IsTruth  bool
	Err      error
	// Epochs counts the training epochs this candidate actually received.
	// Under the flat schedule every scored candidate gets RankConfig.Epochs;
	// under successive halving only the final rung's survivors reach the
	// full budget and earlier-eliminated candidates record the rung budget
	// they were cut at.
	Epochs int
}

// RungStat records one rung of a successive-halving tournament (the flat
// schedule is a single rung at the full budget).
type RungStat struct {
	// TargetEpochs is the cumulative per-candidate epoch budget at this rung.
	TargetEpochs int
	// Candidates is how many candidates trained in this rung.
	Candidates int
	// Epochs is the number of epoch-trainings actually executed in this rung
	// (survivors resume, so a rung only pays the budget delta).
	Epochs int
	// Eliminated is how many candidates were cut at this rung's boundary.
	Eliminated int
}

// RankResult is the full outcome of a candidate ranking: the sorted scores
// plus the tournament accounting the serve layer exposes as metrics and the
// perf harness benchmarks.
type RankResult struct {
	// Scores is sorted best-first: NaN (failed/cancelled) candidates last,
	// then by Epochs descending (final-rung survivors before earlier
	// eliminations), then by accuracy descending, ties in candidate-index
	// order. The top-1 is therefore always a candidate that reached the full
	// epoch budget.
	Scores []CandidateScore
	// Skipped counts candidates beyond MaxCandidates that were never
	// trained; the trained scores are a deterministic prefix (by candidate
	// index) of the uncapped ranking's training set.
	Skipped int
	// TotalEpochs is the number of epoch-trainings executed across all
	// candidates and rungs — the quantity successive halving minimizes.
	TotalEpochs int
	// Rungs is the executed tournament schedule, one entry per rung.
	Rungs []RungStat
	// Halving reports whether the tournament path ran (false for the flat
	// schedule, including the Eta <= 1 and MinEpochs >= Epochs degenerations).
	Halving bool
}

// candState is one candidate's resumable training state: the materialized
// network, its trainer (momentum velocities and gradient buffers), and the
// private epoch-shuffle RNG. Holding these across rungs is what lets a
// survivor continue where it stopped instead of retraining from scratch —
// and what keeps the tournament bit-identical to the flat schedule when no
// elimination happens: the epoch/RNG stream is exactly the flat one, merely
// interleaved with extra read-only accuracy evaluations.
type candState struct {
	net    *nn.Network
	tr     *nn.Trainer
	rng    *rand.Rand
	epochs int
}

// RankCandidatesResult short-trains every recovered candidate on a
// synthetic dataset and ranks them by validation accuracy — the paper's
// method for picking the final structure (its Figures 4 and 5). The input
// resolution and channel count follow the victim; depth scaling substitutes
// for the paper's full-scale ImageNet training (see DESIGN.md §2). The
// result carries the scores plus skip/rung/epoch accounting. When
// rc.Halving is set it runs the successive-halving tournament; otherwise
// the flat schedule (a single rung at the full budget).
//
// Cancellation works at candidate and epoch granularity: a cancelled
// ranking abandons untrained candidates (and unfinished epochs) and marks
// their scores with ctx's error and a NaN accuracy, which sorts them after
// every real score. The per-candidate RNG and shard-state isolation means a
// cancelled run leaves no residue — a subsequent rank over the same report
// is bit-identical to one that was never preceded by a cancellation.
//
// Determinism contract, either schedule: candidate weights are seeded per
// candidate (Seed+i), each candidate owns a private epoch-shuffle RNG, and
// trainer shard partitioning is fixed, so concurrent training on the shared
// worker pool reorders nothing observable — the result is bit-identical to
// the Serial reference for a fixed seed. Rung elimination sorts a snapshot
// of per-candidate accuracies (NaN last, ties by candidate index), which is
// equally schedule-independent, so the whole tournament is too.
func RankCandidatesResult(ctx context.Context, rep *StructureReport, input nn.Shape, rc RankConfig) *RankResult {
	if rc.Classes == 0 {
		rc.Classes = 4
	}
	if rc.PerClass == 0 {
		rc.PerClass = 12
	}
	if rc.Epochs == 0 {
		rc.Epochs = 3
	}
	if rc.DepthDiv == 0 {
		rc.DepthDiv = 16
	}
	if rc.TopK == 0 {
		rc.TopK = 1
	}
	if rc.LR == 0 {
		rc.LR = 0.1
	}
	if rc.BatchSize == 0 {
		rc.BatchSize = 8
	}
	if rc.Eta == 0 {
		rc.Eta = 2
	}
	if rc.MinEpochs == 0 {
		rc.MinEpochs = 1
	}
	testPer := rc.PerClass/3 + 1
	ds := dataset.Synthetic(rc.Classes, rc.PerClass+testPer, input.C, input.H, input.W, rc.Seed+100)
	train, test := ds.Split(rc.Classes * rc.PerClass)

	n := len(rep.Structures)
	res := &RankResult{}
	if rc.MaxCandidates > 0 && n > rc.MaxCandidates {
		res.Skipped = n - rc.MaxCandidates
		n = rc.MaxCandidates
	}
	halving := rc.Halving && rc.Eta > 1 && rc.MinEpochs < rc.Epochs
	res.Halving = halving

	scores := make([]CandidateScore, n)
	states := make([]*candState, n)
	for i := range scores {
		scores[i] = CandidateScore{Index: i, IsTruth: i == rep.TruthIndex}
	}

	// trainOne brings candidate i up to the cumulative epoch budget and
	// re-evaluates its validation accuracy. release drops the resumable
	// state afterwards (final rung: nothing left to resume), restoring the
	// flat path's transient-memory behavior.
	trainOne := func(i, target int, release bool) {
		sc := &scores[i]
		if sc.Err != nil {
			return // failed to materialize or already cancelled
		}
		if err := ctx.Err(); err != nil {
			sc.Err = err
			sc.Accuracy = math.NaN()
			return
		}
		st := states[i]
		if st == nil {
			net, err := Materialize(rep.Analysis, &rep.Structures[i], input, rc.Classes, rc.DepthDiv)
			if err != nil {
				sc.Err = err
				sc.Accuracy = math.NaN()
				return
			}
			net.InitWeights(rc.Seed + int64(i))
			tr := nn.NewTrainer(net)
			tr.LR = rc.LR
			tr.BatchSize = rc.BatchSize
			tr.ClipNorm = 1.0 // deep candidates at aggressive rates need clipping
			st = &candState{net: net, tr: tr, rng: rand.New(rand.NewSource(rc.Seed + 7))}
			states[i] = st
		}
		for st.epochs < target {
			if err := ctx.Err(); err != nil {
				sc.Err = err
				sc.Accuracy = math.NaN()
				return
			}
			st.tr.Epoch(train.X, train.Y, st.rng)
			st.epochs++
			sc.Epochs = st.epochs
		}
		sc.Accuracy = st.tr.Accuracy(test.X, test.Y, rc.TopK)
		if release {
			states[i] = nil
		} else {
			// A survivor waits for the rest of its rung before it trains
			// again; holding every candidate's scratch across that wait
			// would keep the whole field's buffers live at once.
			st.tr.ReleaseScratch()
		}
	}

	survivors := make([]int, n)
	for i := range survivors {
		survivors[i] = i
	}
	budget := rc.Epochs
	if halving {
		budget = rc.MinEpochs
	}
	for len(survivors) > 0 {
		final := budget >= rc.Epochs
		prev := make([]int, len(survivors))
		for si, i := range survivors {
			prev[si] = scores[i].Epochs
		}
		if rc.Serial {
			for _, i := range survivors {
				trainOne(i, budget, final)
			}
		} else {
			// Candidates within a rung are fully independent; one task per
			// candidate on the shared worker pool (nested GEMM/trainer
			// parallelism finds the pool busy and runs inline), or on the
			// caller's Runner when it wants to schedule the fan-out itself.
			surv := survivors
			run := tensor.Parallel
			if rc.Runner != nil {
				run = rc.Runner
			}
			run(len(surv), func(si int) { trainOne(surv[si], budget, final) })
		}
		rs := RungStat{TargetEpochs: budget, Candidates: len(survivors)}
		for si, i := range survivors {
			rs.Epochs += scores[i].Epochs - prev[si]
		}
		res.TotalEpochs += rs.Epochs
		if final {
			res.Rungs = append(res.Rungs, rs)
			break
		}
		// Rung boundary: keep the top ceil(k/Eta) by this rung's validation
		// accuracy. The ordering is the final sort's within-rung rule (NaN
		// last, ties by candidate index), so failed/cancelled candidates
		// are never carried into the next rung — they are eliminated at the
		// first boundary they reach, exactly like the flat ranker's NaN-last
		// ordering puts them behind every real score.
		order := append([]int(nil), survivors...)
		sort.SliceStable(order, func(a, b int) bool {
			ai, aj := scores[order[a]].Accuracy, scores[order[b]].Accuracy
			if math.IsNaN(aj) {
				return !math.IsNaN(ai)
			}
			if math.IsNaN(ai) {
				return false
			}
			return ai > aj
		})
		keep := (len(order) + rc.Eta - 1) / rc.Eta
		for keep > 0 && math.IsNaN(scores[order[keep-1]].Accuracy) {
			keep--
		}
		rs.Eliminated = len(order) - keep
		res.Rungs = append(res.Rungs, rs)
		for _, i := range order[keep:] {
			states[i] = nil // eliminated: free the resumable state
		}
		// Train the next rung in candidate-index order (clearer serial
		// reference; scheduling is unobservable either way).
		survivors = order[:keep]
		sort.Ints(survivors)
		if len(survivors) == 1 {
			// A decided tournament still owes the winner the full budget:
			// the returned top-1 accuracy is always a full-budget accuracy.
			budget = rc.Epochs
		} else {
			budget *= rc.Eta
			if budget > rc.Epochs {
				budget = rc.Epochs
			}
		}
	}

	// Stable sort so candidates with equal accuracies — and the NaN block of
	// cancelled/failed candidates — keep index order, making the output
	// well-defined even when a deadline strikes mid-rank. Epochs ranks
	// before accuracy so a tournament's top-1 is always a final-rung
	// survivor: an eliminated candidate's few-epoch accuracy is not
	// comparable to a full-budget one. Under the flat schedule every scored
	// candidate has equal Epochs and this is the plain accuracy order.
	sort.SliceStable(scores, func(i, j int) bool {
		ai, aj := scores[i].Accuracy, scores[j].Accuracy
		if math.IsNaN(aj) {
			return !math.IsNaN(ai)
		}
		if math.IsNaN(ai) {
			return false
		}
		if scores[i].Epochs != scores[j].Epochs {
			return scores[i].Epochs > scores[j].Epochs
		}
		return ai > aj
	})
	res.Scores = scores
	return res
}
