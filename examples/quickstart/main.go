// Quickstart: steal a small CNN's structure through its memory trace.
//
// A LeNet classifier runs on a protected accelerator: its weights and
// feature maps are encrypted in DRAM, and we never see inside the chip. We
// observe only which addresses are read and written, and when. That is
// enough to recover the network's architecture.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"cnnrev"
)

func main() {
	log.SetFlags(0)

	// The victim: a trained-looking LeNet behind SGX-style protection.
	victim := cnnrev.LeNet(10)
	victim.InitWeights(1)

	// The adversary triggers one inference and records the off-chip trace.
	rep, err := cnnrev.RunStructureAttack(context.Background(), victim, cnnrev.DefaultAccelConfig(), cnnrev.DefaultSolverOptions(), 2, cnnrev.StructureAttackSpec{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("observed %d bytes of encrypted off-chip traffic\n", rep.TraceBytes)
	fmt.Printf("layers found from read-after-write dependencies: %d\n", len(rep.Analysis.Segments))
	for _, seg := range rep.Analysis.Segments {
		fmt.Printf("  layer %d: filters %5d B, output %6d B, %7d cycles\n",
			seg.Index, seg.WeightsBytes, seg.OFMBytes, seg.Cycles())
	}

	fmt.Printf("\ncandidate structures consistent with the trace: %d\n", len(rep.Structures))
	if rep.TruthIndex >= 0 {
		fmt.Println("the victim's true structure is among them:")
		for _, c := range rep.Structures[rep.TruthIndex].WeightedConfigs() {
			fmt.Printf("  %s\n", c.String())
		}
	}

	// Pick the best candidate the way the paper does: short-train each one.
	fmt.Println("\nranking candidates by short training on substitute data...")
	scores := cnnrev.RankCandidates(context.Background(), rep, victim.Input, cnnrev.RankConfig{
		Classes: 3, PerClass: 10, Epochs: 2, DepthDiv: 1, Seed: 3, MaxCandidates: 8,
	}).Scores
	for i, s := range scores {
		mark := ""
		if s.IsTruth {
			mark = "  <-- the actual victim structure"
		}
		fmt.Printf("%2d. candidate %2d  accuracy %.2f%s\n", i+1, s.Index, s.Accuracy, mark)
	}
}
