// Command gen regenerates the golden-trace conformance corpus consumed by
// golden_test.go: for each Table 3 victim it captures one deterministic
// inference trace per accelerator dataflow and writes the serialized trace
// plus the recovered dataflow-graph report. The output-stationary corpus
// keeps the historical unsuffixed names (lenet.trace, …) — those bytes pin
// the pre-refactor simulator schedule — while the weight- and
// row-stationary captures carry .ws/.rs suffixes (lenet.ws.trace, …).
//
// Regenerate (from internal/structrev) with:
//
//	go generate ./...
//
// The traces are value-independent — without zero pruning the accelerator's
// transaction schedule depends only on layer shapes and tiling — so they are
// captured with the simulator's trace-only Observe, which skips the layer
// arithmetic, and regeneration is byte-identical across machines (and to a
// full Run) as long as the capture parameters below (weight seed 1, input
// seed 2, default accel.Config plus the dataflow) stay fixed.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"cnnrev/internal/accel"
	"cnnrev/internal/nn"
	"cnnrev/internal/structrev"
)

// dataflows maps the per-backend file suffix ("" = legacy output-stationary
// names) to the captured dataflow.
var dataflows = []struct {
	suffix string
	df     accel.Dataflow
}{
	{"", accel.OutputStationary},
	{".ws", accel.WeightStationary},
	{".rs", accel.RowStationary},
}

func main() {
	out := flag.String("out", filepath.Join("testdata", "golden"), "output directory")
	flag.Parse()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	victims := []struct {
		name string
		net  func() *nn.Network
	}{
		{"lenet", func() *nn.Network { return nn.LeNet(10) }},
		{"convnet", func() *nn.Network { return nn.ConvNet(10) }},
		{"alexnet", func() *nn.Network { return nn.AlexNet(1000, 1) }},
		{"squeezenet", func() *nn.Network { return nn.SqueezeNet(1000, 1) }},
	}
	for _, v := range victims {
		for _, d := range dataflows {
			net := v.net()
			net.InitWeights(1)
			sim, err := accel.New(net, accel.Config{Dataflow: d.df})
			if err != nil {
				log.Fatal(err)
			}
			rng := rand.New(rand.NewSource(2))
			x := make([]float32, net.Input.Len())
			for i := range x {
				x[i] = float32(rng.NormFloat64())
			}
			res, err := sim.Observe(x)
			if err != nil {
				log.Fatal(err)
			}
			var buf bytes.Buffer
			if err := res.Trace.Write(&buf); err != nil {
				log.Fatal(err)
			}
			tracePath := filepath.Join(*out, v.name+d.suffix+".trace")
			if err := os.WriteFile(tracePath, buf.Bytes(), 0o644); err != nil {
				log.Fatal(err)
			}
			a, err := structrev.Analyze(res.Trace, net.Input.Len()*4, 4)
			if err != nil {
				log.Fatal(err)
			}
			var rep bytes.Buffer
			a.WriteReport(&rep)
			reportPath := filepath.Join(*out, v.name+d.suffix+".report.txt")
			if err := os.WriteFile(reportPath, rep.Bytes(), 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-10s %-18s %7d accesses  %8d trace bytes  %2d segments\n",
				v.name, d.df, len(res.Trace.Accesses), buf.Len(), len(a.Segments))
		}
	}
}
