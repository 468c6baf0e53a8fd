package core

import (
	"context"
	"math"
	"testing"

	"cnnrev/internal/accel"
	"cnnrev/internal/nn"
	"cnnrev/internal/structrev"
)

// lenetReport builds the shared LeNet report the halving tests rank.
func lenetReport(t *testing.T) (*StructureReport, *nn.Network) {
	t.Helper()
	net := nn.LeNet(3)
	net.InitWeights(1)
	rep, err := RunStructureAttack(net, accel.Config{}, structrev.DefaultOptions(), 2)
	if err != nil {
		t.Fatal(err)
	}
	return rep, net
}

// TestRankHalvingDegeneratesToFlat is the satellite property test: a
// tournament with Eta=1, or with MinEpochs >= Epochs, performs no
// elimination and must be bit-identical to the flat ranker — same order,
// bit-identical accuracies, same per-candidate epochs. This is the
// guarantee that lets the knobs default to the flat path without risking
// the golden rankings.
func TestRankHalvingDegeneratesToFlat(t *testing.T) {
	rep, net := lenetReport(t)
	base := RankConfig{Classes: 3, PerClass: 9, Epochs: 3, DepthDiv: 1, Seed: 11, MaxCandidates: 6}
	flat := RankCandidatesResult(context.Background(), rep, net.Input, base)
	if flat.Halving {
		t.Fatal("flat config reported Halving")
	}
	if len(flat.Scores) < 2 {
		t.Fatalf("want at least 2 candidates, got %d", len(flat.Scores))
	}

	cases := []struct {
		name string
		rc   RankConfig
	}{
		{"eta1", func() RankConfig { rc := base; rc.Halving = true; rc.Eta = 1; return rc }()},
		{"minEpochs=epochs", func() RankConfig { rc := base; rc.Halving = true; rc.Eta = 2; rc.MinEpochs = base.Epochs; return rc }()},
		{"minEpochs>epochs", func() RankConfig {
			rc := base
			rc.Halving = true
			rc.Eta = 3
			rc.MinEpochs = base.Epochs + 5
			return rc
		}()},
	}
	for _, tc := range cases {
		got := RankCandidatesResult(context.Background(), rep, net.Input, tc.rc)
		if got.Halving {
			t.Fatalf("%s: degenerate tournament reported Halving", tc.name)
		}
		if len(got.Rungs) != 1 || got.Rungs[0].TargetEpochs != base.Epochs {
			t.Fatalf("%s: rungs %+v, want a single full-budget rung", tc.name, got.Rungs)
		}
		if got.TotalEpochs != flat.TotalEpochs {
			t.Fatalf("%s: total epochs %d vs flat %d", tc.name, got.TotalEpochs, flat.TotalEpochs)
		}
		sameScores(t, tc.name+" vs flat", got.Scores, flat.Scores)
		for i := range got.Scores {
			if got.Scores[i].Epochs != flat.Scores[i].Epochs {
				t.Fatalf("%s: rank %d epochs %d vs flat %d", tc.name, i, got.Scores[i].Epochs, flat.Scores[i].Epochs)
			}
		}
	}
}

// TestRankHalvingParallelBitIdenticalToSerial extends the determinism
// regression to the tournament: per-candidate RNGs, fixed shard
// partitioning, and snapshot-based rung elimination make the halving
// schedule bit-identical between the shared-pool parallel execution and the
// serial reference.
func TestRankHalvingParallelBitIdenticalToSerial(t *testing.T) {
	rep, net := lenetReport(t)
	rc := RankConfig{
		Classes: 3, PerClass: 9, Epochs: 4, DepthDiv: 1, Seed: 11, MaxCandidates: 8,
		Halving: true, Eta: 2, MinEpochs: 1,
	}
	par := RankCandidatesResult(context.Background(), rep, net.Input, rc)
	rc.Serial = true
	ser := RankCandidatesResult(context.Background(), rep, net.Input, rc)
	if !par.Halving || !ser.Halving {
		t.Fatalf("halving not active: parallel %v serial %v", par.Halving, ser.Halving)
	}
	sameScores(t, "parallel tournament vs serial reference", par.Scores, ser.Scores)
	for i := range ser.Scores {
		if par.Scores[i].Epochs != ser.Scores[i].Epochs {
			t.Fatalf("rank %d epochs %d parallel vs %d serial", i, par.Scores[i].Epochs, ser.Scores[i].Epochs)
		}
	}
	if par.TotalEpochs != ser.TotalEpochs || len(par.Rungs) != len(ser.Rungs) {
		t.Fatalf("tournament accounting differs: %+v vs %+v", par, ser)
	}
	for r := range ser.Rungs {
		if par.Rungs[r] != ser.Rungs[r] {
			t.Fatalf("rung %d: %+v parallel vs %+v serial", r, par.Rungs[r], ser.Rungs[r])
		}
	}
}

// TestRankHalvingScheduleAndCounters pins the tournament mechanics: rung
// budgets multiply by Eta up to the full budget, survivor counts shrink by
// ~1/Eta per rung, the total epoch work is strictly below the flat
// schedule's, and the winner always carries a full-budget accuracy.
func TestRankHalvingScheduleAndCounters(t *testing.T) {
	rep, net := lenetReport(t)
	rc := RankConfig{
		Classes: 3, PerClass: 9, Epochs: 8, DepthDiv: 1, Seed: 11, MaxCandidates: 8,
		Halving: true, Eta: 2, MinEpochs: 1,
	}
	res := RankCandidatesResult(context.Background(), rep, net.Input, rc)
	if !res.Halving {
		t.Fatal("halving not active")
	}
	n := res.Rungs[0].Candidates
	if n < 4 {
		t.Fatalf("want >= 4 candidates in rung 0, got %d", n)
	}
	flatEpochs := n * rc.Epochs
	if res.TotalEpochs >= flatEpochs {
		t.Fatalf("tournament spent %d epochs, flat would be %d", res.TotalEpochs, flatEpochs)
	}
	wantBudget := rc.MinEpochs
	prevCands := n
	for r, rung := range res.Rungs {
		if rung.TargetEpochs != wantBudget {
			t.Fatalf("rung %d budget %d, want %d", r, rung.TargetEpochs, wantBudget)
		}
		if rung.Candidates > prevCands {
			t.Fatalf("rung %d grew: %d candidates after %d", r, rung.Candidates, prevCands)
		}
		prevCands = rung.Candidates - rung.Eliminated
		if r < len(res.Rungs)-1 {
			keep := (rung.Candidates + rc.Eta - 1) / rc.Eta
			if got := rung.Candidates - rung.Eliminated; got != keep {
				t.Fatalf("rung %d kept %d of %d, want ceil(k/eta)=%d", r, got, rung.Candidates, keep)
			}
			if prevCands == 1 {
				wantBudget = rc.Epochs
			} else {
				wantBudget *= rc.Eta
				if wantBudget > rc.Epochs {
					wantBudget = rc.Epochs
				}
			}
		}
	}
	last := res.Rungs[len(res.Rungs)-1]
	if last.TargetEpochs != rc.Epochs {
		t.Fatalf("final rung budget %d, want full %d", last.TargetEpochs, rc.Epochs)
	}
	top := res.Scores[0]
	if top.Err != nil || math.IsNaN(top.Accuracy) {
		t.Fatalf("top-1 unusable: %+v", top)
	}
	if top.Epochs != rc.Epochs {
		t.Fatalf("top-1 trained %d epochs, want the full budget %d", top.Epochs, rc.Epochs)
	}
	// Resume semantics: total epoch work is the sum of per-rung budget
	// deltas over survivors, not budget × survivors.
	sum := 0
	for _, sc := range res.Scores {
		sum += sc.Epochs
	}
	if sum != res.TotalEpochs {
		t.Fatalf("per-candidate epochs sum %d != TotalEpochs %d (restart instead of resume?)", sum, res.TotalEpochs)
	}
}

// TestRankMaxCandidatesRecordsSkipped is the satellite fix: a MaxCandidates
// truncation must be recorded, not silent — the trained scores are the
// deterministic candidate-index prefix and Skipped counts the rest,
// mirroring ErrTooManyStructures' truncated-prefix semantics.
func TestRankMaxCandidatesRecordsSkipped(t *testing.T) {
	rep, net := lenetReport(t)
	if len(rep.Structures) < 3 {
		t.Fatalf("want >= 3 candidates, got %d", len(rep.Structures))
	}
	for _, halving := range []bool{false, true} {
		rc := RankConfig{
			Classes: 2, PerClass: 4, Epochs: 2, DepthDiv: 1, Seed: 3,
			MaxCandidates: 2, Halving: halving, Eta: 2, MinEpochs: 1,
		}
		res := RankCandidatesResult(context.Background(), rep, net.Input, rc)
		if len(res.Scores) != 2 {
			t.Fatalf("halving=%v: cap ignored: %d scores", halving, len(res.Scores))
		}
		if want := len(rep.Structures) - 2; res.Skipped != want {
			t.Fatalf("halving=%v: skipped %d, want %d", halving, res.Skipped, want)
		}
		for _, sc := range res.Scores {
			if sc.Index >= 2 {
				t.Fatalf("halving=%v: trained candidate %d beyond the cap prefix", halving, sc.Index)
			}
		}
		// Uncapped: nothing skipped.
		rc.MaxCandidates = 0
		if got := RankCandidatesResult(context.Background(), rep, net.Input, rc); got.Skipped != 0 {
			t.Fatalf("halving=%v: uncapped rank reports %d skipped", halving, got.Skipped)
		}
	}
}

// TestRankHalvingEliminatesBrokenCandidateFirstRung: a candidate that fails
// to materialize carries a NaN accuracy and must be cut at the first rung
// boundary it reaches (the flat ranker's NaN-last contract, applied per
// rung), never consuming later-rung budget.
func TestRankHalvingEliminatesBrokenCandidateFirstRung(t *testing.T) {
	rep, net := lenetReport(t)
	broken := *rep
	broken.Structures = append(append([]structrev.Structure(nil), rep.Structures...),
		structrev.Structure{Layers: make([]structrev.SolvedLayer, len(rep.Analysis.Segments))})
	brokenIdx := len(broken.Structures) - 1
	rc := RankConfig{
		Classes: 2, PerClass: 4, Epochs: 4, DepthDiv: 1, Seed: 3,
		Halving: true, Eta: 2, MinEpochs: 1,
	}
	res := RankCandidatesResult(context.Background(), &broken, net.Input, rc)
	last := res.Scores[len(res.Scores)-1]
	if last.Index != brokenIdx || last.Err == nil || !math.IsNaN(last.Accuracy) {
		t.Fatalf("broken candidate not sorted last with an error: %+v", last)
	}
	if last.Epochs != 0 {
		t.Fatalf("broken candidate trained %d epochs", last.Epochs)
	}
	if res.Rungs[0].Eliminated < 1 {
		t.Fatalf("first rung eliminated %d, want >= 1 (the broken candidate)", res.Rungs[0].Eliminated)
	}
}

// TestRankHalvingTop1MatchesFlatGoldenVictims is the seeded regression the
// perf claim rests on: on all four Table 3 victims, the tournament must
// select flat's top-1 candidate while spending fewer total epochs. The
// small synthetic training task can saturate, leaving several candidates
// bit-equal at flat's best accuracy; in that case any member of the tied-top
// set is the same selection (successive halving is free to keep a different
// tied optimum), so the assertion is membership in the bit-equal tie set —
// which degenerates to exact index equality whenever the top-1 is unique.
// Work is race-scaled via the raceEnabled pattern.
func TestRankHalvingTop1MatchesFlatGoldenVictims(t *testing.T) {
	type victimCase struct {
		name    string
		build   func() *nn.Network
		modular bool
		rc      RankConfig
	}
	cases := []victimCase{
		{"lenet", func() *nn.Network { return nn.LeNet(10) }, false,
			RankConfig{Classes: 5, PerClass: 8, Epochs: 4, DepthDiv: 1, Seed: 9}},
		{"convnet", func() *nn.Network { return nn.ConvNet(10) }, false,
			RankConfig{Classes: 5, PerClass: 8, Epochs: 4, DepthDiv: 1, Seed: 9}},
		{"alexnet", func() *nn.Network { return nn.AlexNet(1000, 1) }, false,
			RankConfig{Classes: 4, PerClass: 6, Epochs: 4, DepthDiv: 48, Seed: 9, MaxCandidates: 8}},
		{"squeezenet", func() *nn.Network { return nn.SqueezeNet(1000, 1) }, true,
			RankConfig{Classes: 4, PerClass: 6, Epochs: 4, DepthDiv: 48, Seed: 9, MaxCandidates: 8}},
	}
	if raceEnabled {
		// The detector multiplies training cost ~10x; the two big victims'
		// coverage here is the schedule, not the training numerics, which
		// lenet/convnet already exercise.
		cases = cases[:2]
		for i := range cases {
			cases[i].rc.MaxCandidates = 6
		}
	}
	for _, tc := range cases {
		net := tc.build()
		net.InitWeights(1)
		opt := structrev.DefaultOptions()
		opt.IdenticalModules = tc.modular
		rep, err := RunStructureAttack(net, accel.Config{}, opt, 2)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		flat := RankCandidatesResult(context.Background(), rep, net.Input, tc.rc)
		hrc := tc.rc
		hrc.Halving, hrc.Eta, hrc.MinEpochs = true, 2, 1
		halv := RankCandidatesResult(context.Background(), rep, net.Input, hrc)
		best := math.Float64bits(flat.Scores[0].Accuracy)
		tied := map[int]bool{}
		for _, sc := range flat.Scores {
			if math.Float64bits(sc.Accuracy) == best && sc.Epochs == flat.Scores[0].Epochs {
				tied[sc.Index] = true
			}
		}
		top := halv.Scores[0]
		if !tied[top.Index] {
			t.Fatalf("%s: halving top-1 candidate %d (acc %.4f) not in flat's tied-top set %v (acc %.4f)",
				tc.name, top.Index, top.Accuracy, tied, flat.Scores[0].Accuracy)
		}
		if len(tied) == 1 && top.Index != flat.Scores[0].Index {
			t.Fatalf("%s: unique flat top-1 %d, halving chose %d", tc.name, flat.Scores[0].Index, top.Index)
		}
		if b := math.Float64bits(top.Accuracy); b != best {
			t.Fatalf("%s: winner accuracy differs despite full-budget final rung: %v vs %v",
				tc.name, flat.Scores[0].Accuracy, top.Accuracy)
		}
		if top.Epochs != tc.rc.Epochs {
			t.Fatalf("%s: halving winner trained %d epochs, want full budget %d", tc.name, top.Epochs, tc.rc.Epochs)
		}
		if halv.TotalEpochs >= flat.TotalEpochs {
			t.Fatalf("%s: halving spent %d epochs, flat %d", tc.name, halv.TotalEpochs, flat.TotalEpochs)
		}
	}
}
