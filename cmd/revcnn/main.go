// Command revcnn runs the paper's structure reverse-engineering attack
// (§3) end to end: it simulates a victim on the CNN accelerator, observes
// the off-chip memory trace, and enumerates every network structure
// consistent with the trace. With -trace it attacks a recorded trace
// instead; every attack flag applies in both modes.
//
// Usage:
//
//	revcnn -model alexnet [-modular] [-tol 1.35] [-rank] [-depthdiv 16]
//	revcnn -trace lenet.trace -inw 28 -ind 1 -classes 10 [attack flags]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"cnnrev"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses args, runs the attack on a simulated victim or on a recorded
// trace, and prints the report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("revcnn", flag.ExitOnError)
	model := fs.String("model", "lenet", "victim model: lenet|convnet|alexnet|squeezenet|vgg11|nin|resnetmini")
	classes := fs.Int("classes", 0, "classifier outputs (default: 10 small nets, 1000 large)")
	modular := fs.Bool("modular", false, "assume repeated modules are identical (paper's SqueezeNet reduction)")
	tol := fs.Float64("tol", 1.35, "execution-time filter tolerance (max cycles-per-MAC spread)")
	rank := fs.Bool("rank", false, "short-train candidates on synthetic data and rank them (Figs 4-5)")
	depthDiv := fs.Int("depthdiv", 16, "depth scaling for candidate training")
	epochs := fs.Int("epochs", 0, "with -rank: per-candidate epoch budget (0 = default)")
	halving := fs.Bool("halving", false, "with -rank: successive-halving tournament instead of full-budget training")
	eta := fs.Int("eta", 0, "with -halving: elimination factor (0 = default 2)")
	minEpochs := fs.Int("minepochs", 0, "with -halving: first-rung epoch budget (0 = default 1)")
	seed := fs.Int64("seed", 2, "victim weight/input seed")
	dataflow := fs.String("dataflow", "", "accelerator dataflow: os|ws|rs (or output-stationary|weight-stationary|row-stationary; default os)")
	defenseKind := fs.String("defense", "", "defensive trace transform on the victim side: none|dummy|pad|rerand|fuse|oram")
	defenseSeed := fs.Int64("defense-seed", 0, "seed for the randomized defenses (dummy, rerand, oram)")
	dummyRate := fs.Float64("defense-dummy-rate", 0, "with -defense dummy: injected records per real record (0 = default 1)")
	bucketBytes := fs.Int("defense-bucket-bytes", 0, "with -defense pad: bucket granularity in bytes (0 = next power of two)")
	onchipBytes := fs.Int64("defense-onchip-bytes", 0, "with -defense fuse: on-chip buffer capacity in bytes (0 = 1 MiB)")
	oramZ := fs.Int("defense-oram-z", 0, "with -defense oram: bucket capacity Z (0 = default 4)")
	oramBlock := fs.Int("defense-oram-block", 0, "with -defense oram: ORAM block size in bytes (0 = default 64)")
	tolerant := fs.Bool("tolerant", false, "use the noise-tolerant analysis path")
	traceFile := fs.String("trace", "", "attack a recorded trace file (from cmd/tracegen) instead of simulating; requires -inw/-ind/-classes")
	inW := fs.Int("inw", 0, "with -trace: input width")
	inD := fs.Int("ind", 0, "with -trace: input channel count")
	fs.Parse(args)

	df, err := cnnrev.ParseDataflow(*dataflow)
	if err != nil {
		return fmt.Errorf("revcnn: %w", err)
	}
	dcfg := cnnrev.DefenseConfig{
		Kind: *defenseKind, Seed: *defenseSeed, DummyRate: *dummyRate,
		BucketBytes: *bucketBytes, OnChipBytes: *onchipBytes,
	}
	dcfg.ORAM.Z = *oramZ
	dcfg.ORAM.BlockBytes = *oramBlock
	if err := dcfg.Validate(); err != nil {
		return fmt.Errorf("revcnn: %w", err)
	}
	opt := cnnrev.DefaultSolverOptions()
	opt.IdenticalModules = *modular
	opt.TimingSpreadMax = *tol
	spec := cnnrev.StructureAttackSpec{Defense: dcfg, Tolerant: *tolerant}
	ctx := context.Background()

	var rep *cnnrev.StructureReport
	var input cnnrev.Shape
	if *traceFile != "" {
		// The tracegen → revcnn workflow: the adversary need not share a
		// process with the victim.
		if *inW <= 0 || *inD <= 0 || *classes <= 0 {
			return errors.New("revcnn: -trace requires -inw, -ind and -classes")
		}
		tr, err := readTrace(*traceFile)
		if err != nil {
			return err
		}
		input = cnnrev.Shape{C: *inD, H: *inW, W: *inW}
		in := cnnrev.TraceInput{Input: input, ElemBytes: 4, Classes: *classes, Dataflow: df}
		if rep, err = cnnrev.AttackTrace(ctx, tr, in, opt, spec); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace %s: %d records, %d block transfers\n", *traceFile, len(tr.Accesses), tr.Blocks())
	} else {
		net, err := cnnrev.Model(*model, *classes, 1)
		if err != nil {
			return err
		}
		net.InitWeights(*seed)
		if rep, err = cnnrev.RunStructureAttack(ctx, net, cnnrev.AccelConfig{Dataflow: df}, opt, *seed, spec); err != nil {
			return err
		}
		input = net.Input
		fmt.Fprintf(w, "victim: %s (%v input, %d classes)\n", net.Name, net.Input, net.NumClasses())
	}

	fmt.Fprintf(w, "accelerator dataflow: %s (detected from trace: %s)\n", rep.Dataflow, rep.DetectedDataflow)
	if rep.Defense != "" {
		fmt.Fprintf(w, "defense: %s (bandwidth x%.2f, latency x%.2f)\n",
			rep.Defense, rep.DefenseStats.BandwidthOverhead(), rep.DefenseStats.LatencyOverhead())
	}
	fmt.Fprintf(w, "trace observed: %d bytes of off-chip transfers\n", rep.TraceBytes)
	rep.Analysis.WriteReport(w)
	fmt.Fprintf(w, "candidate structures: %d", len(rep.Structures))
	if *traceFile == "" {
		// Only a simulated victim's true structure is known.
		fmt.Fprintf(w, " (true structure found: %v)", rep.TruthIndex >= 0)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "\nper-layer candidate configurations:")
	for seg := range rep.Analysis.Segments {
		cfgs := rep.PerLayer[seg]
		if len(cfgs) == 0 {
			continue
		}
		fmt.Fprintf(w, "  segment %d:\n", seg)
		for _, c := range cfgs {
			fmt.Fprintf(w, "    %s\n", c.String())
		}
	}

	if *rank {
		fmt.Fprintln(w, "\nshort-training candidates on synthetic data...")
		res := cnnrev.RankCandidates(ctx, rep, input, cnnrev.RankConfig{
			DepthDiv: *depthDiv, Seed: *seed, Epochs: *epochs,
			Halving: *halving, Eta: *eta, MinEpochs: *minEpochs,
		})
		if res.Halving {
			fmt.Fprintf(w, "successive-halving tournament: %d epochs total across %d rungs\n",
				res.TotalEpochs, len(res.Rungs))
			for i, rg := range res.Rungs {
				fmt.Fprintf(w, "  rung %d: %3d candidates x budget %2d  (%4d epochs, %d eliminated)\n",
					i, rg.Candidates, rg.TargetEpochs, rg.Epochs, rg.Eliminated)
			}
		}
		if res.Skipped > 0 {
			fmt.Fprintf(w, "candidate cap: %d candidates never trained\n", res.Skipped)
		}
		for i, s := range res.Scores {
			mark := ""
			if s.IsTruth {
				mark = "  <-- original structure"
			}
			fmt.Fprintf(w, "%3d. candidate %2d  acc %.3f  (%d epochs)%s\n", i+1, s.Index, s.Accuracy, s.Epochs, mark)
		}
	}
	return nil
}

// readTrace decodes a trace file written by cmd/tracegen.
func readTrace(path string) (*cnnrev.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return cnnrev.ReadTrace(f)
}
