// Command weightrev runs the paper's weight reverse-engineering attack
// (§4) against a magnitude-pruned AlexNet CONV1 layer on the zero-pruning
// accelerator, recovering every weight as a ratio of the bias and checking
// the error against the paper's 2^-10 bound (Figure 7).
//
// Usage:
//
//	weightrev [-filters 96] [-zerofrac 0.25] [-parallel=false]
//
// The -cpuprofile and -memprofile flags write pprof profiles of the attack
// for hunting hot spots:
//
//	weightrev -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"cnnrev"
)

func main() {
	log.SetFlags(0)
	filters := flag.Int("filters", 96, "number of CONV1 filters to recover")
	zeroFrac := flag.Float64("zerofrac", 0.25, "fraction of weights pruned to exactly zero")
	seed := flag.Int64("seed", 42, "victim weight seed")
	parallel := flag.Bool("parallel", true, "recover filters in parallel on the worker pool (results are identical either way)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the attack to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (taken after the run) to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		fatal(err)
		fatal(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			fatal(f.Close())
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			fatal(err)
			runtime.GC() // report live steady-state heap, not transient garbage
			fatal(pprof.WriteHeapProfile(f))
			fatal(f.Close())
		}()
	}

	net := cnnrev.PrunedConv1(*filters, *zeroFrac, *seed)
	mode := "parallel"
	if !*parallel {
		mode = "serial"
	}
	fmt.Printf("victim: AlexNet CONV1, %d filters of 11x11x3, %.0f%% zero weights (%s recovery)\n",
		*filters, *zeroFrac*100, mode)

	start := time.Now()
	rep, err := cnnrev.RunWeightAttack(context.Background(), net, cnnrev.AccelConfig{},
		cnnrev.WeightAttackConfig{Serial: !*parallel})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	qps := float64(rep.Queries) / elapsed.Seconds()
	fmt.Printf("recovered %d filters in %s using %d device queries (%.0f queries/s)\n",
		rep.Filters, elapsed.Round(time.Millisecond), rep.Queries, qps)
	fmt.Printf("max |w/b| error: %.3g (paper bound: 2^-10 = %.3g)\n", rep.MaxRatioErr, 1.0/1024)
	fmt.Printf("zero weights: %d/%d detected, %d misclassified\n",
		rep.ZerosDetected, rep.ZerosActual, rep.ZeroErrors)
	if rep.MaxRatioErr < 1.0/1024 && rep.ZeroErrors == 0 {
		fmt.Println("PASS: recovery within the paper's reported precision")
	} else {
		fmt.Println("WARN: recovery outside the paper's reported precision")
	}
}

func fatal(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
