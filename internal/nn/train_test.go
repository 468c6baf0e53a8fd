package nn

import (
	"math"
	"math/rand"
	"testing"

	"cnnrev/internal/dataset"
)

// TestTrainerLearnsLeNet is the substrate's key integration test: LeNet must
// learn a small synthetic task far beyond chance within a few epochs,
// demonstrating that forward, backward and the SGD update are consistent.
func TestTrainerLearnsLeNet(t *testing.T) {
	ds := dataset.Synthetic(3, 40, 1, 28, 28, 11)
	train, test := ds.Split(90)

	n := LeNet(3)
	n.InitWeights(1)
	tr := NewTrainer(n)
	tr.LR = 0.02
	tr.BatchSize = 10
	rng := rand.New(rand.NewSource(2))

	first := tr.Epoch(train.X, train.Y, rng)
	var last float64
	for e := 0; e < 6; e++ {
		last = tr.Epoch(train.X, train.Y, rng)
	}
	if last >= first {
		t.Fatalf("loss did not decrease: first %.4f last %.4f", first, last)
	}
	acc := Accuracy(n, test.X, test.Y, 1)
	if acc < 0.6 {
		t.Fatalf("test accuracy %.2f, want >= 0.6 (chance is 0.33)", acc)
	}
}

// TestTrainerLearnsDAG checks that training works through concat and
// eltwise layers (the SqueezeNet building blocks).
func TestTrainerLearnsDAG(t *testing.T) {
	ds := dataset.Synthetic(2, 30, 2, 8, 8, 12)
	train, test := ds.Split(40)

	n := tinyDAG(t)
	n.InitWeights(3)
	tr := NewTrainer(n)
	tr.LR = 0.05
	tr.BatchSize = 8
	rng := rand.New(rand.NewSource(4))
	for e := 0; e < 15; e++ {
		tr.Epoch(train.X, train.Y, rng)
	}
	acc := Accuracy(n, test.X, test.Y, 1)
	if acc < 0.7 {
		t.Fatalf("DAG test accuracy %.2f, want >= 0.7 (chance is 0.5)", acc)
	}
}

func TestAccuracyTopK(t *testing.T) {
	n := LeNet(5)
	n.InitWeights(9)
	ds := dataset.Synthetic(5, 4, 1, 28, 28, 13)
	top1 := Accuracy(n, ds.X, ds.Y, 1)
	top5 := Accuracy(n, ds.X, ds.Y, 5)
	if top5 != 1 {
		t.Fatalf("top-5 of 5 classes must be 1.0, got %v", top5)
	}
	if top1 > top5 {
		t.Fatal("top-1 cannot exceed top-5")
	}
}

func TestTrainerDeterministic(t *testing.T) {
	run := func() float64 {
		ds := dataset.Synthetic(2, 10, 1, 28, 28, 5)
		n := LeNet(2)
		n.InitWeights(1)
		tr := NewTrainer(n)
		tr.Workers = 1 // single worker for bitwise determinism
		tr.BatchSize = 5
		rng := rand.New(rand.NewSource(6))
		return tr.Epoch(ds.X, ds.Y, rng)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("single-worker training must be deterministic: %v vs %v", a, b)
	}
}

func TestWeightDecayShrinksWeights(t *testing.T) {
	run := func(wd float32) float32 {
		n := LeNet(2)
		n.InitWeights(3)
		tr := NewTrainer(n)
		tr.Workers = 1
		tr.WeightDecay = wd
		tr.LR = 0.01
		xs := [][]float32{make([]float32, n.Input.Len()), make([]float32, n.Input.Len())}
		ys := []int{0, 1}
		rng := rand.New(rand.NewSource(4))
		for e := 0; e < 20; e++ {
			tr.Epoch(xs, ys, rng)
		}
		var sum float32
		for _, p := range n.Params {
			for _, v := range p.W.Data {
				sum += v * v
			}
		}
		return sum
	}
	if run(0.05) >= run(0) {
		t.Fatal("weight decay should shrink the weight norm")
	}
}

func TestClipNormBoundsUpdates(t *testing.T) {
	// With a huge LR, training diverges to NaN without clipping and stays
	// finite with it.
	diverged := func(clip float64) bool {
		ds := dataset.Synthetic(2, 10, 1, 28, 28, 7)
		n := LeNet(2)
		n.InitWeights(1)
		tr := NewTrainer(n)
		tr.LR = 5
		tr.ClipNorm = clip
		tr.BatchSize = 5
		rng := rand.New(rand.NewSource(8))
		for e := 0; e < 3; e++ {
			tr.Epoch(ds.X, ds.Y, rng)
		}
		for _, p := range n.Params {
			for _, v := range p.W.Data {
				if v != v { // NaN
					return true
				}
			}
		}
		return false
	}
	if !diverged(0) {
		t.Skip("unclipped training happened to stay finite; clip comparison moot")
	}
	if diverged(0.5) {
		t.Fatal("clipped training diverged")
	}
}

// TestReleaseScratchKeepsTrainingBitIdentical: a trainer whose scratch is
// released between epochs, and evaluated on its own buffers, trains and
// scores exactly like one that keeps its scratch and is evaluated on fresh
// buffers — the buffers carry nothing from one step to the next.
func TestReleaseScratchKeepsTrainingBitIdentical(t *testing.T) {
	ds := dataset.Synthetic(3, 12, 1, 28, 28, 5)
	train, test := ds.Split(27)
	nets := [2]*Network{LeNet(3), LeNet(3)}
	var trs [2]*Trainer
	for i, n := range nets {
		n.InitWeights(6)
		trs[i] = NewTrainer(n)
		trs[i].BatchSize, trs[i].Workers, trs[i].ClipNorm = 4, 2, 1
	}
	rngs := [2]*rand.Rand{rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))}
	for e := 0; e < 3; e++ {
		keep := trs[0].Epoch(train.X, train.Y, rngs[0])
		released := trs[1].Epoch(train.X, train.Y, rngs[1])
		if keep != released {
			t.Fatalf("epoch %d: loss %v with kept scratch, %v with released", e, keep, released)
		}
		if a, b := Accuracy(nets[0], test.X, test.Y, 1), trs[1].Accuracy(test.X, test.Y, 1); a != b {
			t.Fatalf("epoch %d: accuracy %v on fresh buffers, %v on the trainer's", e, a, b)
		}
		trs[1].ReleaseScratch()
	}
	for i, p := range nets[0].Params {
		if p == nil {
			continue
		}
		q := nets[1].Params[i]
		for j := range p.W.Data {
			if math.Float32bits(p.W.Data[j]) != math.Float32bits(q.W.Data[j]) {
				t.Fatalf("layer %d weight %d: %v with kept scratch, %v with released", i, j, p.W.Data[j], q.W.Data[j])
			}
		}
	}
}
