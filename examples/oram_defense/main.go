// ORAM defense demo (paper §5): Path ORAM obfuscates the address pattern,
// defeating the structure attack — at a two-orders-of-magnitude bandwidth
// cost, which is why the paper calls protecting CNN inference this way
// expensive.
//
//	go run ./examples/oram_defense
package main

import (
	"context"
	"fmt"
	"log"

	"cnnrev"
)

func main() {
	log.SetFlags(0)
	victim := cnnrev.LeNet(10)
	victim.InitWeights(1)

	// Plain accelerator: the attack succeeds.
	ctx := context.Background()
	rep, err := cnnrev.RunStructureAttack(ctx, victim, cnnrev.DefaultAccelConfig(), cnnrev.DefaultSolverOptions(), 2, cnnrev.StructureAttackSpec{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("without ORAM: %d candidate structures, truth recovered: %v\n",
		len(rep.Structures), rep.TruthIndex >= 0)

	// Same victim behind a Path ORAM controller.
	tr, err := cnnrev.CaptureTrace(victim, cnnrev.DefaultAccelConfig(), 2)
	if err != nil {
		log.Fatal(err)
	}
	obf, stats, err := cnnrev.DefendTrace(tr, cnnrev.DefenseConfig{Kind: "oram", Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	o := stats.ORAM
	fmt.Printf("with Path ORAM (Z=4, %d levels): %d logical -> %d physical block transfers (%.0fx)\n",
		o.Levels, o.LogicalBlocks, o.PhysicalBlocks, o.Overhead())

	// The adversary sees uniformly random paths: no read-only filter
	// regions, no read-after-write layer boundaries.
	in := cnnrev.TraceInput{Input: victim.Input, ElemBytes: 4, Classes: victim.NumClasses()}
	if _, err := cnnrev.AttackTrace(ctx, obf, in, cnnrev.DefaultSolverOptions(), cnnrev.StructureAttackSpec{}); err != nil {
		fmt.Printf("structure attack on the obfuscated trace fails: %v\n", err)
	} else {
		fmt.Println("unexpected: attack still worked")
	}
}
