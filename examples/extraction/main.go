// End-to-end model extraction: the paper's stated objective is "a
// duplicated CNN model that has comparable accuracy to the target model".
// This example walks the full pipeline on a ConvNet victim:
//
//  1. observe one inference's memory trace → candidate structures (§3);
//
//  2. short-train every candidate on substitute data and keep the best
//     (the paper's Figures 4-5 methodology);
//
//  3. compare the extracted clone's accuracy against the victim's.
//
//     go run ./examples/extraction
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"cnnrev"
	"cnnrev/internal/dataset"
	"cnnrev/internal/nn"
)

func main() {
	log.SetFlags(0)

	// The victim: a ConvNet trained on a (private) task. The adversary can
	// query it but wants the model itself.
	ds := dataset.Synthetic(4, 50, 3, 32, 32, 77)
	train, test := ds.Split(4 * 40)
	victim := cnnrev.ConvNet(4)
	victim.InitWeights(1)
	tr := nn.NewTrainer(victim)
	tr.LR = 0.05
	tr.ClipNorm = 1
	rng := rand.New(rand.NewSource(2))
	for e := 0; e < 8; e++ {
		tr.Epoch(train.X, train.Y, rng)
	}
	victimAcc := nn.Accuracy(victim, test.X, test.Y, 1)
	fmt.Printf("victim accuracy: %.2f\n", victimAcc)

	// Step 1: structure attack from one traced inference.
	rep, err := cnnrev.RunStructureAttack(context.Background(), victim, cnnrev.DefaultAccelConfig(), cnnrev.DefaultSolverOptions(), 3, cnnrev.StructureAttackSpec{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("structure attack: %d candidates (victim structure included: %v)\n",
		len(rep.Structures), rep.TruthIndex >= 0)

	// Step 2: rank candidates by short training and keep the best.
	scores := cnnrev.RankCandidates(context.Background(), rep, victim.Input, cnnrev.RankConfig{
		Classes: 4, PerClass: 25, Epochs: 3, DepthDiv: 1, Seed: 5,
	}).Scores
	best := scores[0]
	fmt.Printf("best candidate after short training: #%d (acc %.2f, is victim structure: %v)\n",
		best.Index, best.Accuracy, best.IsTruth)

	// Step 3: train the stolen architecture properly and compare.
	clone, err := cnnrev.Materialize(rep, best.Index, victim.Input, 4, 1)
	if err != nil {
		log.Fatal(err)
	}
	clone.InitWeights(9)
	ct := nn.NewTrainer(clone)
	ct.LR = 0.05
	ct.ClipNorm = 1
	crng := rand.New(rand.NewSource(10))
	for e := 0; e < 8; e++ {
		ct.Epoch(train.X, train.Y, crng)
	}
	cloneAcc := nn.Accuracy(clone, test.X, test.Y, 1)
	fmt.Printf("extracted clone accuracy: %.2f (victim %.2f)\n", cloneAcc, victimAcc)
	if cloneAcc >= victimAcc-0.1 {
		fmt.Println("extraction successful: the clone matches the victim within 10 points")
	}
}
