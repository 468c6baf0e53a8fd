package cnnrev

import (
	"bytes"
	"context"
	"testing"
)

// TestPublicAPIEndToEnd walks the documented user journey: build a victim,
// capture its trace, serialize and reload it, run the structure attack on
// the raw trace, and verify the truth survives.
func TestPublicAPIEndToEnd(t *testing.T) {
	victim := LeNet(10)
	victim.InitWeights(1)

	tr, err := CaptureTrace(victim, DefaultAccelConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(tr, &buf); err != nil {
		t.Fatal(err)
	}
	tr2, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	in := TraceInput{Input: victim.Input, ElemBytes: 4, Classes: victim.NumClasses()}
	trep, err := AttackTrace(context.Background(), tr2, in, DefaultSolverOptions(), StructureAttackSpec{})
	if err != nil {
		t.Fatal(err)
	}
	structures := trep.Structures
	if len(structures) == 0 {
		t.Fatal("no structures from round-tripped trace")
	}

	rep, err := RunStructureAttack(context.Background(), victim, DefaultAccelConfig(), DefaultSolverOptions(), 2, StructureAttackSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TruthIndex < 0 {
		t.Fatal("truth not recovered through the facade")
	}
	if len(structures) != len(rep.Structures) {
		t.Fatalf("trace path found %d structures, pipeline %d", len(structures), len(rep.Structures))
	}

	// Materialize the stolen structure and check it runs.
	clone, err := Materialize(rep, rep.TruthIndex, victim.Input, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	clone.InitWeights(3)
	if got := len(clone.Infer(make([]float32, clone.Input.Len()))); got != 10 {
		t.Fatalf("clone emits %d logits", got)
	}
}

func TestPublicAPIWeightAttack(t *testing.T) {
	victim := PrunedConv1(4, 0.25, 5)
	rep, err := RunWeightAttack(context.Background(), victim, AccelConfig{}, WeightAttackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxRatioErr > 1.0/1024 || rep.ZeroErrors != 0 {
		t.Fatalf("weight attack degraded: %+v", rep)
	}
}

func TestPublicAPIORAM(t *testing.T) {
	victim := LeNet(10)
	victim.InitWeights(1)
	tr, err := CaptureTrace(victim, DefaultAccelConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	obf, stats, err := DefendTrace(tr, DefenseConfig{Kind: "oram", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ORAM.Overhead() < 10 {
		t.Fatalf("implausible ORAM overhead %v", stats.ORAM.Overhead())
	}
	in := TraceInput{Input: victim.Input, ElemBytes: 4, Classes: 10}
	if _, err := AttackTrace(context.Background(), obf, in, DefaultSolverOptions(), StructureAttackSpec{}); err == nil {
		t.Fatal("attack should fail on obfuscated trace")
	}
}

func TestModelZooThroughFacade(t *testing.T) {
	for _, n := range []*Network{LeNet(10), ConvNet(10), AlexNet(10, 32), SqueezeNet(10, 32)} {
		if n.NumClasses() != 10 {
			t.Fatalf("%s: %d classes", n.Name, n.NumClasses())
		}
	}
}

func TestSaveLoadNetworkFacade(t *testing.T) {
	n := ResNetMini(10, 4)
	n.InitWeights(3)
	var buf bytes.Buffer
	if err := SaveNetwork(n, &buf); err != nil {
		t.Fatal(err)
	}
	m, err := LoadNetwork(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, n.Input.Len())
	a, b := n.Infer(x), m.Infer(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("round trip changed inference")
		}
	}
}

func TestQuantizeNetworkFacade(t *testing.T) {
	n := LeNet(4)
	n.InitWeights(2)
	calib := [][]float32{make([]float32, n.Input.Len())}
	calib[0][5] = 1
	q, err := QuantizeNetwork(n, calib)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(q.Infer(calib[0])); got != 4 {
		t.Fatalf("quantized logits %d", got)
	}
}

func TestTraceAttackRejectsWrongInputShape(t *testing.T) {
	victim := LeNet(10)
	victim.InitWeights(1)
	tr, err := CaptureTrace(victim, DefaultAccelConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Declaring a much larger input must fail the region matching.
	in := TraceInput{Input: Shape{C: 3, H: 224, W: 224}, ElemBytes: 4, Classes: 10}
	if _, err := AttackTrace(context.Background(), tr, in, DefaultSolverOptions(), StructureAttackSpec{}); err == nil {
		t.Fatal("expected input-shape mismatch error")
	}
}
