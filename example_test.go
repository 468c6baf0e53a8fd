package cnnrev_test

import (
	"context"
	"fmt"

	"cnnrev"
)

// ExampleRunStructureAttack reverse engineers a LeNet's structure from one
// traced inference.
func ExampleRunStructureAttack() {
	victim := cnnrev.LeNet(10)
	victim.InitWeights(1)
	rep, err := cnnrev.RunStructureAttack(context.Background(), victim, cnnrev.DefaultAccelConfig(), cnnrev.DefaultSolverOptions(), 2, cnnrev.StructureAttackSpec{})
	if err != nil {
		panic(err)
	}
	fmt.Println("layers recovered:", len(rep.Analysis.Segments))
	fmt.Println("victim structure among candidates:", rep.TruthIndex >= 0)
	// Output:
	// layers recovered: 4
	// victim structure among candidates: true
}

// ExampleRunWeightAttack recovers weight/bias ratios through the
// zero-pruning write-count side channel.
func ExampleRunWeightAttack() {
	victim := cnnrev.PrunedConv1(2, 0.25, 5)
	rep, err := cnnrev.RunWeightAttack(context.Background(), victim, cnnrev.AccelConfig{}, cnnrev.WeightAttackConfig{})
	if err != nil {
		panic(err)
	}
	fmt.Println("within paper precision:", rep.MaxRatioErr < 1.0/1024)
	fmt.Println("zero weights misclassified:", rep.ZeroErrors)
	// Output:
	// within paper precision: true
	// zero weights misclassified: 0
}

// ExampleDefendTrace shows Path ORAM defeating the structure attack.
func ExampleDefendTrace() {
	victim := cnnrev.LeNet(10)
	victim.InitWeights(1)
	tr, _ := cnnrev.CaptureTrace(victim, cnnrev.DefaultAccelConfig(), 2)
	obf, stats, err := cnnrev.DefendTrace(tr, cnnrev.DefenseConfig{Kind: "oram", Seed: 7})
	if err != nil {
		panic(err)
	}
	fmt.Println("overhead exceeds 50x:", stats.ORAM.Overhead() > 50)
	in := cnnrev.TraceInput{Input: victim.Input, ElemBytes: 4, Classes: 10}
	_, attackErr := cnnrev.AttackTrace(context.Background(), obf, in, cnnrev.DefaultSolverOptions(), cnnrev.StructureAttackSpec{})
	fmt.Println("attack defeated:", attackErr != nil)
	// Output:
	// overhead exceeds 50x: true
	// attack defeated: true
}
