package core

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"cnnrev/internal/accel"
	"cnnrev/internal/nn"
	"cnnrev/internal/structrev"
)

// countdownCtx is a context.Context whose Err flips to context.Canceled
// after a fixed number of Err calls — a deterministic way to cancel the
// pipeline mid-flight at an exact cooperative checkpoint, independent of
// wall-clock timing. Safe for concurrent use (parallel ranking polls Err
// from worker goroutines).
type countdownCtx struct {
	remaining atomic.Int64
}

func cancelAfter(n int) *countdownCtx {
	c := &countdownCtx{}
	c.remaining.Store(int64(n))
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}
func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return nil }
func (c *countdownCtx) Value(any) any               { return nil }

// sameScores compares two rankings for bit-identical equality.
func sameScores(t *testing.T, label string, got, want []CandidateScore) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores vs %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Index != w.Index || g.IsTruth != w.IsTruth ||
			math.Float64bits(g.Accuracy) != math.Float64bits(w.Accuracy) ||
			(g.Err == nil) != (w.Err == nil) {
			t.Fatalf("%s: rank %d differs: got {idx %d acc %v truth %v err %v}, want {idx %d acc %v truth %v err %v}",
				label, i, g.Index, g.Accuracy, g.IsTruth, g.Err, w.Index, w.Accuracy, w.IsTruth, w.Err)
		}
	}
}

// TestRankCandidatesCancelledRunLeavesPoolClean is the satellite property
// test extending rank_determinism_test.go: cancelling a parallel rank at an
// arbitrary cooperative checkpoint must leave no residue in the shared
// worker pool or trainer state — a subsequent uncancelled parallel rank is
// bit-identical to the serial reference, exactly as if the cancelled run
// never happened.
func TestRankCandidatesCancelledRunLeavesPoolClean(t *testing.T) {
	net := nn.LeNet(3)
	net.InitWeights(1)
	rep, err := RunStructureAttackSpec(context.Background(), net, accel.Config{}, structrev.DefaultOptions(), 2, StructureAttackSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rc := RankConfig{Classes: 3, PerClass: 9, Epochs: 2, DepthDiv: 1, Seed: 11, MaxCandidates: 6}
	serialRC := rc
	serialRC.Serial = true
	ref := RankCandidatesResult(context.Background(), rep, net.Input, serialRC).Scores
	if len(ref) < 2 {
		t.Fatalf("want at least 2 candidates, got %d", len(ref))
	}

	checkpoints := []int{0, 1, 3, 7, 15}
	if raceEnabled {
		checkpoints = []int{0, 3, 15} // each k costs a full re-rank; trim under -race
	}
	sawCancelled := false
	for _, k := range checkpoints {
		cancelled := RankCandidatesResult(cancelAfter(k), rep, net.Input, rc).Scores
		for _, sc := range cancelled {
			if sc.Err != nil {
				sawCancelled = true
				if !math.IsNaN(sc.Accuracy) {
					t.Fatalf("k=%d: cancelled candidate %d has accuracy %v, want NaN", k, sc.Index, sc.Accuracy)
				}
			}
		}
		// rank → cancel → rank: the follow-up run must be pristine.
		after := RankCandidatesResult(context.Background(), rep, net.Input, rc).Scores
		sameScores(t, "post-cancel parallel rank vs serial reference", after, ref)
	}
	if !sawCancelled {
		t.Fatal("no candidate was ever cancelled; countdown checkpoints never hit")
	}
}

// TestRunStructureAttackSpecPartialPrefix pins partial-result semantics for
// the solve stage: a cancellation mid-enumeration yields a report marked
// Partial whose structures are a prefix of the full deterministic
// enumeration.
func TestRunStructureAttackSpecPartialPrefix(t *testing.T) {
	net := nn.LeNet(10)
	net.InitWeights(1)
	full, err := RunStructureAttackSpec(context.Background(), net, accel.Config{}, structrev.DefaultOptions(), 2, StructureAttackSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Structures) < 3 {
		t.Fatalf("want a few structures to truncate, got %d", len(full.Structures))
	}

	sawStrictPrefix := false
	for k := 2; k < 60; k += 7 {
		net := nn.LeNet(10)
		net.InitWeights(1)
		rep, err := RunStructureAttackSpec(cancelAfter(k), net, accel.Config{}, structrev.DefaultOptions(), 2, StructureAttackSpec{}, nil)
		if err == nil {
			if len(rep.Structures) != len(full.Structures) || rep.Partial {
				t.Fatalf("k=%d: no error but incomplete report (%d structures, partial=%v)", k, len(rep.Structures), rep.Partial)
			}
			continue
		}
		if rep == nil {
			continue // cancelled before the solve stage; nothing partial yet
		}
		if !rep.Partial {
			t.Fatalf("k=%d: cancelled report not marked partial", k)
		}
		if len(rep.Structures) > len(full.Structures) {
			t.Fatalf("k=%d: partial run found more structures (%d) than the full run (%d)", k, len(rep.Structures), len(full.Structures))
		}
		for i := range rep.Structures {
			got := rep.Structures[i].WeightedConfigs()
			want := full.Structures[i].WeightedConfigs()
			if len(got) != len(want) {
				t.Fatalf("k=%d: structure %d is not the full run's prefix", k, i)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("k=%d: structure %d config %d: %v != %v", k, i, j, got[j], want[j])
				}
			}
		}
		if n := len(rep.Structures); n > 0 && n < len(full.Structures) {
			sawStrictPrefix = true
		}
	}
	if !sawStrictPrefix {
		t.Fatal("no checkpoint produced a nonempty strict prefix; countdown values need retuning")
	}

	// Already-expired context: refused before any work.
	if rep, err := RunStructureAttackSpec(cancelAfter(0), net, accel.Config{}, structrev.DefaultOptions(), 2, StructureAttackSpec{}, nil); err == nil || rep != nil {
		t.Fatalf("expired context: rep=%v err=%v, want nil/ctx error", rep, err)
	}
}
