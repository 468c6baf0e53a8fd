// SqueezeNet case study (paper §3.2, Figure 5 setting): the memory trace
// exposes fire modules (squeeze → parallel expand convolutions writing one
// concatenated map) and the three bypass paths (element-wise additions
// reading two distant maps), and the modular-construction assumption
// collapses the candidate space.
//
//	go run ./examples/squeezenet
package main

import (
	"context"
	"fmt"
	"log"

	"cnnrev"
)

func main() {
	log.SetFlags(0)
	victim := cnnrev.SqueezeNet(1000, 1)
	victim.InitWeights(1)

	opt := cnnrev.DefaultSolverOptions()
	opt.IdenticalModules = true // the paper's modular reduction: 329 -> 9
	rep, err := cnnrev.RunStructureAttack(context.Background(), victim, cnnrev.DefaultAccelConfig(), opt, 2, cnnrev.StructureAttackSpec{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("segments recovered: %d\n", len(rep.Analysis.Segments))
	bypass, concat := 0, 0
	for _, seg := range rep.Analysis.Segments {
		if seg.Kind.String() == "eltwise" {
			bypass++
		}
		for _, in := range seg.Inputs {
			if in.Adjacent {
				concat++
			}
		}
	}
	fmt.Printf("bypass paths detected: %d, concatenated reads: %d\n", bypass, concat)
	fmt.Printf("candidate structures under the identical-modules assumption: %d (paper: 9)\n", len(rep.Structures))
	fmt.Printf("victim structure recovered: %v\n", rep.TruthIndex >= 0)

	// Rebuild the stolen architecture as a trainable network (depth-scaled
	// so this demo trains nothing huge) and run an inference through it.
	clone, err := cnnrev.Materialize(rep, maxInt(rep.TruthIndex, 0), victim.Input, 10, 16)
	if err != nil {
		log.Fatal(err)
	}
	clone.InitWeights(7)
	x := make([]float32, clone.Input.Len())
	out := clone.Infer(x)
	fmt.Printf("materialized clone: %d layers, %d parameters, %d-way classifier output\n",
		len(clone.Specs), clone.TotalWeights(), len(out))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
