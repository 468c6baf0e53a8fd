package core

import (
	"context"
	"math"
	"testing"

	"cnnrev/internal/accel"
	"cnnrev/internal/nn"
	"cnnrev/internal/structrev"
)

// TestRankCandidatesParallelBitIdenticalToSerial is the determinism
// regression for the parallel ranking schedule: concurrent candidate
// training must produce the exact CandidateScore sequence — same order,
// bit-identical accuracies — as the serial reference, because every
// candidate's RNG state (weight init Seed+i, private epoch shuffler) and
// trainer shard partitioning are independent of scheduling.
func TestRankCandidatesParallelBitIdenticalToSerial(t *testing.T) {
	victims := []*nn.Network{nn.LeNet(3), nn.ConvNet(3)}
	for _, net := range victims {
		net.InitWeights(1)
		rep, err := RunStructureAttackSpec(context.Background(), net, accel.Config{}, structrev.DefaultOptions(), 2, StructureAttackSpec{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		rc := RankConfig{Classes: 3, PerClass: 9, Epochs: 2, DepthDiv: 1, Seed: 11, MaxCandidates: 6}
		par := RankCandidatesResult(context.Background(), rep, net.Input, rc).Scores
		rc.Serial = true
		ser := RankCandidatesResult(context.Background(), rep, net.Input, rc).Scores
		if len(par) != len(ser) {
			t.Fatalf("%s: parallel ranked %d candidates, serial %d", net.Name, len(par), len(ser))
		}
		if len(par) < 2 {
			t.Fatalf("%s: want at least 2 candidates to make the comparison meaningful, got %d", net.Name, len(par))
		}
		for i := range ser {
			p, s := par[i], ser[i]
			if p.Index != s.Index || p.IsTruth != s.IsTruth {
				t.Fatalf("%s: rank %d is candidate %d (truth=%v) parallel vs %d (truth=%v) serial",
					net.Name, i, p.Index, p.IsTruth, s.Index, s.IsTruth)
			}
			if math.Float64bits(p.Accuracy) != math.Float64bits(s.Accuracy) {
				t.Fatalf("%s: rank %d accuracy %v parallel vs %v serial (not bit-identical)",
					net.Name, i, p.Accuracy, s.Accuracy)
			}
			if (p.Err == nil) != (s.Err == nil) {
				t.Fatalf("%s: rank %d error mismatch: %v vs %v", net.Name, i, p.Err, s.Err)
			}
		}
	}
}
