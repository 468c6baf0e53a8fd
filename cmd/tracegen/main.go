// Command tracegen runs one of the study networks on the simulated CNN
// accelerator and writes the observable off-chip memory trace to a file.
//
// Usage:
//
//	tracegen -model alexnet -out alexnet.trace [-zeroprune] [-depthdiv 1]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"cnnrev"
)

func main() {
	log.SetFlags(0)
	model := flag.String("model", "lenet", "victim model: lenet|convnet|alexnet|squeezenet|vgg11|nin|resnetmini")
	out := flag.String("out", "", "output trace file (required)")
	zeroPrune := flag.Bool("zeroprune", false, "enable dynamic zero pruning of feature maps")
	depthDiv := flag.Int("depthdiv", 1, "channel-count divisor (1 = paper size)")
	classes := flag.Int("classes", 0, "classifier outputs (default: 10 small nets, 1000 large)")
	seed := flag.Int64("seed", 2, "input/weight seed")
	dataflow := flag.String("dataflow", "", "accelerator dataflow: os|ws|rs (or output-stationary|weight-stationary|row-stationary; default os)")
	defenseKind := flag.String("defense", "", "defensive trace transform applied before writing: none|dummy|pad|rerand|fuse|oram")
	defenseSeed := flag.Int64("defense-seed", 0, "seed for the randomized defenses (dummy, rerand, oram)")
	dummyRate := flag.Float64("defense-dummy-rate", 0, "with -defense dummy: injected records per real record (0 = default 1)")
	bucketBytes := flag.Int("defense-bucket-bytes", 0, "with -defense pad: bucket granularity in bytes (0 = next power of two)")
	onchipBytes := flag.Int64("defense-onchip-bytes", 0, "with -defense fuse: on-chip buffer capacity in bytes (0 = 1 MiB)")
	oramZ := flag.Int("defense-oram-z", 0, "with -defense oram: bucket capacity Z (0 = default 4)")
	oramBlock := flag.Int("defense-oram-block", 0, "with -defense oram: ORAM block size in bytes (0 = default 64)")
	flag.Parse()
	if *out == "" {
		log.Fatal("tracegen: -out is required")
	}
	df, err := cnnrev.ParseDataflow(*dataflow)
	if err != nil {
		log.Fatalf("tracegen: %v", err)
	}
	dcfg := cnnrev.DefenseConfig{
		Kind: *defenseKind, Seed: *defenseSeed, DummyRate: *dummyRate,
		BucketBytes: *bucketBytes, OnChipBytes: *onchipBytes,
	}
	dcfg.ORAM.Z = *oramZ
	dcfg.ORAM.BlockBytes = *oramBlock
	if err := dcfg.Validate(); err != nil {
		log.Fatalf("tracegen: %v", err)
	}

	net, err := cnnrev.Model(*model, *classes, *depthDiv)
	if err != nil {
		log.Fatal(err)
	}
	net.InitWeights(*seed)
	cfg := cnnrev.AccelConfig{ZeroPrune: *zeroPrune, Dataflow: df}
	tr, err := cnnrev.CaptureTrace(net, cfg, *seed)
	if err != nil {
		log.Fatal(err)
	}
	if dcfg.Enabled() {
		defended, st, derr := cnnrev.DefendTrace(tr, dcfg)
		if derr != nil {
			log.Fatalf("tracegen: %v", derr)
		}
		tr = defended
		fmt.Printf("defense %s: bandwidth x%.2f, latency x%.2f (%d -> %d block transfers)\n",
			st.Defense, st.BandwidthOverhead(), st.LatencyOverhead(), st.InputBlocks, st.OutputBlocks)
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := cnnrev.WriteTrace(tr, f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s: %s dataflow, %d records, %d block transfers (block %dB), last cycle %d\n",
		*out, df, len(tr.Accesses), tr.Blocks(), tr.BlockBytes, tr.LastCycle())
}
