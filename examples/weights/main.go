// Weight recovery demo (paper §4, Figure 7): a zero-pruning accelerator
// compresses output feature maps in DRAM, so the number of write bursts
// leaks how many pixels the ReLU zeroed. Crafting inputs with a single
// live pixel and binary-searching its value recovers every weight as a
// ratio of the bias — and a tunable activation threshold then gives the
// bias itself, i.e. the exact weights.
//
//	go run ./examples/weights
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"cnnrev"
	"cnnrev/internal/accel"
	"cnnrev/internal/nn"
	"cnnrev/internal/weightrev"
)

func main() {
	log.SetFlags(0)

	// Part 1: recover a pruned AlexNet CONV1 (a few filters for speed;
	// run cmd/weightrev for the full 96-filter Figure 7).
	victim := cnnrev.PrunedConv1(8, 0.25, 42)
	start := time.Now()
	rep, err := cnnrev.RunWeightAttack(context.Background(), victim, cnnrev.AccelConfig{}, cnnrev.WeightAttackConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AlexNet CONV1 (8 filters): recovered all w/b in %s, %d queries\n",
		time.Since(start).Round(time.Millisecond), rep.Queries)
	fmt.Printf("  max error %.2g (paper: < 2^-10), zeros detected %d/%d\n",
		rep.MaxRatioErr, rep.ZerosDetected, rep.ZerosActual)

	// Part 2: the fused-pooling variants (paper Eq. 10 and Eq. 11).
	demoPooled(nn.PoolMax, false, "Eq. 10 (max pooling)")
	demoPooled(nn.PoolAvg, true, "Eq. 11 (average pooling before activation)")

	// Part 3: full weight recovery with a tunable threshold activation.
	demoBias()
}

func demoPooled(pool nn.PoolKind, poolBeforeAct bool, label string) {
	spec := nn.LayerSpec{Name: "conv", Kind: nn.KindConv, OutC: 2, F: 3, S: 1, ReLU: true,
		Pool: pool, PoolF: 2, PoolS: 2}
	net, err := nn.New("pooled", nn.Shape{C: 1, H: 16, W: 16}, []nn.LayerSpec{spec})
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := range net.Params[0].W.Data {
		m := 0.05 + 0.3*rng.Float64()
		if rng.Intn(2) == 0 {
			m = -m
		}
		net.Params[0].W.Data[i] = float32(m)
	}
	net.Params[0].B.Data[0], net.Params[0].B.Data[1] = -0.06, -0.08

	cfg := accel.Config{PoolBeforeActivation: poolBeforeAct}
	oracle, err := weightrev.NewFastOracle(net, cfg, 0)
	if err != nil {
		log.Fatal(err)
	}
	at := weightrev.NewAttacker(oracle, weightrev.Geometry{
		In: net.Input, OutC: 2, F: 3, S: 1, P: 0,
		Pool: pool, PoolF: 2, PoolS: 2, PoolBeforeAct: poolBeforeAct,
	})
	r00, r10, err := at.RecoverPooledPair(0, 0)
	if err != nil {
		log.Fatal(err)
	}
	b := float64(net.Params[0].B.Data[0])
	w00 := float64(net.Params[0].W.Data[0])
	w10 := float64(net.Params[0].W.Data[3])
	fmt.Printf("%s: w00/b = %.4f (true %.4f), w10/b = %.4f (true %.4f)\n",
		label, r00, w00/b, r10, w10/b)
}

func demoBias() {
	spec := nn.LayerSpec{Name: "conv", Kind: nn.KindConv, OutC: 1, F: 3, S: 1, ReLU: true}
	net, err := nn.New("thresh", nn.Shape{C: 1, H: 12, W: 12}, []nn.LayerSpec{spec})
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for i := range net.Params[0].W.Data {
		net.Params[0].W.Data[i] = float32(0.1 + 0.2*rng.Float64())
	}
	trueBias := 0.0625
	net.Params[0].B.Data[0] = float32(trueBias)

	oracle, _ := weightrev.NewFastOracle(net, accel.Config{}, 0)
	at := weightrev.NewAttacker(oracle, weightrev.Geometry{In: net.Input, OutC: 1, F: 3, S: 1, P: 0})
	weights, bias, err := at.RecoverWeights(0, 1.0)
	if err != nil {
		log.Fatal(err)
	}
	var maxErr float64
	for ky := 0; ky < 3; ky++ {
		for kx := 0; kx < 3; kx++ {
			e := math.Abs(weights[0][ky][kx] - float64(net.Params[0].W.Data[ky*3+kx]))
			if e > maxErr {
				maxErr = e
			}
		}
	}
	fmt.Printf("tunable threshold: bias recovered as %.6f (true %.6f); exact weights, max error %.2g\n",
		bias, trueBias, maxErr)
}
