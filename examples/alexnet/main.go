// AlexNet case study (paper §3.2, Tables 3-4): reverse engineer the
// structure of an 8-layer AlexNet from a single traced inference.
//
//	go run ./examples/alexnet
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"cnnrev"
)

func main() {
	log.SetFlags(0)
	victim := cnnrev.AlexNet(1000, 1)
	victim.InitWeights(1)

	start := time.Now()
	rep, err := cnnrev.RunStructureAttack(context.Background(), victim, cnnrev.DefaultAccelConfig(), cnnrev.DefaultSolverOptions(), 2, cnnrev.StructureAttackSpec{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("attack time: %s\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("segments: %d (5 conv + 3 FC expected)\n", len(rep.Analysis.Segments))

	// The paper's Table 4: candidate configurations per layer.
	fmt.Println("\ncandidate configurations per layer (cf. paper Table 4):")
	for seg := 0; seg < len(rep.Analysis.Segments); seg++ {
		cfgs := rep.PerLayer[seg]
		fmt.Printf("  CONV/FC %d — %d candidates\n", seg+1, len(cfgs))
		for _, c := range cfgs {
			fmt.Printf("    %s\n", c.String())
		}
	}
	fmt.Printf("\nvalid combinations (cf. paper Table 3: 24): %d\n", len(rep.Structures))
	fmt.Printf("victim structure recovered: %v (candidate #%d)\n", rep.TruthIndex >= 0, rep.TruthIndex)
}
