package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"cnnrev/internal/accel"
	"cnnrev/internal/core"
	"cnnrev/internal/dataset"
	"cnnrev/internal/experiments"
	"cnnrev/internal/nn"
	"cnnrev/internal/structrev"
	"cnnrev/internal/tensor"
)

// The digests below pin every bit the adversary's two learning loops
// produce: the trained parameters of the LeNet candidates, the ranking
// scores, and the weight attack's query count and recovered ratios. A
// kernel rewrite that changes one rounding anywhere in training or in the
// analytic oracle changes one of them. They were computed before the
// kernels' fast paths were written; regenerate them only for a change that
// is meant to alter numerical results, and say so.

// digest accumulates values into a SHA-256 in a fixed binary encoding.
type digest struct{ buf []byte }

func (d *digest) u64(v uint64) { d.buf = binary.LittleEndian.AppendUint64(d.buf, v) }
func (d *digest) int(v int)    { d.u64(uint64(int64(v))) }
func (d *digest) f64(v float64) {
	d.u64(math.Float64bits(v))
}
func (d *digest) f32s(v []float32) {
	for _, x := range v {
		d.buf = binary.LittleEndian.AppendUint32(d.buf, math.Float32bits(x))
	}
}
func (d *digest) sum() string {
	s := sha256.Sum256(d.buf)
	return hex.EncodeToString(s[:])
}

// digestLeNetReport is the rank-weights workload's structure report: 27
// LeNet candidates.
func digestLeNetReport(t *testing.T) (*core.StructureReport, nn.Shape) {
	t.Helper()
	net := nn.LeNet(10)
	net.InitWeights(1)
	rep, err := core.RunStructureAttackSpec(context.Background(), net, accel.Config{}, structrev.DefaultOptions(), 1, core.StructureAttackSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Structures) != 27 {
		t.Fatalf("%d LeNet candidates, want 27", len(rep.Structures))
	}
	return rep, net.Input
}

func skipSlowDigest(t *testing.T) {
	t.Helper()
	if testing.Short() || core.RaceEnabled {
		t.Skip("trains 27 candidates; runs in the full non-race suite")
	}
}

// TestTrainedParameterDigest trains every LeNet candidate for two epochs
// with two trainer shards and digests all parameter bits and the
// candidate's accuracy. The shard count is fixed, so the digest does not
// depend on the host's worker count.
func TestTrainedParameterDigest(t *testing.T) {
	skipSlowDigest(t)
	rep, input := digestLeNetReport(t)
	const classes, perClass = 4, 6
	ds := dataset.Synthetic(classes, perClass+perClass/3+1, input.C, input.H, input.W, 101)
	train, test := ds.Split(classes * perClass)
	var d digest
	for i := range rep.Structures {
		net, err := core.Materialize(rep.Analysis, &rep.Structures[i], input, classes, 1)
		if err != nil {
			t.Fatal(err)
		}
		net.InitWeights(int64(i) + 1)
		tr := nn.NewTrainer(net)
		tr.LR, tr.BatchSize, tr.ClipNorm, tr.Workers = 0.1, 8, 1, 2
		rng := rand.New(rand.NewSource(8))
		for e := 0; e < 2; e++ {
			d.f64(tr.Epoch(train.X, train.Y, rng))
		}
		for _, p := range net.Params {
			if p != nil {
				d.f32s(p.W.Data)
				d.f32s(p.B.Data)
			}
		}
		d.f64(nn.Accuracy(net, test.X, test.Y, 1))
	}
	const want = "79c43a01e6db50a1c9a003bc12f45dc3351471e52c770d836e678ddc7ba2fea0"
	if got := d.sum(); got != want {
		t.Errorf("trained-parameter digest %s, want %s", got, want)
	}
}

// TestRankResultDigests digests every score (index, accuracy bits, epochs)
// of the rank-weights workload's two ranking configurations. A ranking
// trainer uses one shard per pool worker and sums the shards' gradients in
// shard order, so its rounding depends on the worker count; the digests
// were recorded, and agree, with one to four workers.
func TestRankResultDigests(t *testing.T) {
	skipSlowDigest(t)
	if w := tensor.Workers(); w > 4 {
		t.Skipf("digests recorded with 1-4 pool workers, not %d", w)
	}
	rep, input := digestLeNetReport(t)
	base := core.RankConfig{Classes: 4, PerClass: 6, Epochs: 8, DepthDiv: 1, Seed: 1}
	halving := base
	halving.Halving, halving.Eta, halving.MinEpochs = true, 2, 1
	flat := base
	flat.MaxCandidates = 4
	for _, tc := range []struct {
		name string
		rc   core.RankConfig
		want string
	}{
		{"halving", halving, "7c502fd8fc3fbf9f90d0918c5b84dbf53188488f139876d5b146ea8bc7cb3636"},
		{"flat", flat, "b0bc155d63086e820b9d925134f13c4b22c6f2cd5c8224f2a70188c951fb73bd"},
	} {
		res := core.RankCandidatesResult(context.Background(), rep, input, tc.rc)
		var d digest
		d.int(res.TotalEpochs)
		d.int(len(res.Rungs))
		for _, s := range res.Scores {
			d.int(s.Index)
			d.f64(s.Accuracy)
			d.int(s.Epochs)
		}
		if got := d.sum(); got != tc.want {
			t.Errorf("%s ranking with %d workers: digest %s, want %s", tc.name, tensor.Workers(), got, tc.want)
		}
	}
}

// TestWeightAttackDigests digests the §4 attack on the Figure 7 victim
// geometry: the query count, every recovered ratio's bits and the zero
// counts. A weight flagged zero keeps ratio 0, which no found crossing
// yields, so the ratio bits carry every zero flag too.
func TestWeightAttackDigests(t *testing.T) {
	if core.RaceEnabled {
		t.Skip("half a million oracle queries per victim; runs in the non-race suite")
	}
	for _, tc := range []struct {
		seed int64
		want string
	}{
		{1, "7630731a41d049cbfcf8be63cfdc54678b3900a8e1a708ea745678cfb0c69777"},
		{2, "bec72c6f64d787eb4cd52e7864933b7e0e3e9af6273d5e72b31f3562a8b1b3b8"},
	} {
		rep, err := core.RunWeightAttackOpts(context.Background(), experiments.PrunedConv1(32, 0.25, tc.seed), accel.Config{}, core.WeightAttackConfig{})
		if err != nil {
			t.Fatal(err)
		}
		var d digest
		d.int(rep.Queries)
		for _, filter := range rep.Ratios {
			for _, ch := range filter {
				for _, row := range ch {
					for _, r := range row {
						d.f64(r)
					}
				}
			}
		}
		d.int(rep.ZerosDetected)
		d.int(rep.ZeroErrors)
		if got := d.sum(); got != tc.want {
			t.Errorf("PrunedConv1 seed %d: digest %s, want %s (%d queries)", tc.seed, got, tc.want, rep.Queries)
		}
	}
}
