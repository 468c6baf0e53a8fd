package accel

import (
	"bytes"
	"fmt"
	"testing"

	"cnnrev/internal/nn"
	"cnnrev/internal/structrev"
)

// observeVictims returns the victims of the trace-only differential: every
// layer kind (conv with and without pooling, FC, concat in SqueezeNet's fire
// modules, eltwise in ResNet-mini) at full size and at reduced depth. Under
// the race detector, whose instrumentation slows the arithmetic of every
// reference Run tenfold, only small victims covering the same layer kinds
// run. In -short mode the full-size victims and the heavier reduced ones
// (AlexNet÷2, VGG11÷4) are left out; the rest cover the same layer kinds.
func observeVictims() []*nn.Network {
	if raceEnabled {
		return []*nn.Network{nn.LeNet(10), nn.SqueezeNet(10, 32), nn.ResNetMini(10, 4)}
	}
	victims := []*nn.Network{
		nn.LeNet(10), nn.ConvNet(10), nn.AlexNet(1000, 4), nn.SqueezeNet(10, 32),
		nn.ResNetMini(10, 1), nn.ResNetMini(10, 2),
	}
	if testing.Short() {
		return victims
	}
	return append(victims, nn.AlexNet(1000, 1), nn.AlexNet(1000, 2),
		nn.SqueezeNet(1000, 1), nn.NiN(1000, 1), nn.VGG11(1000, 4))
}

// observeConfigs covers every Config knob a trace could depend on: timing
// noise, the filter-region layout, the activation semantics, pruning alone
// and combined with every other knob, and burst geometries whose row
// offsets are not block-aligned (BlockBytes 64, ElemBytes 1).
var observeConfigs = []Config{
	{},
	{CycleJitter: 0.05, NoiseSeed: 9},
	{BiasInDRAM: true},
	{PadPrunedWrites: true},
	{Threshold: 0.5},
	{PoolBeforeActivation: true},
	{BlockBytes: 64},
	{ElemBytes: 1},
	{ZeroPrune: true},
	{ZeroPrune: true, PadPrunedWrites: true, CycleJitter: 0.05, NoiseSeed: 9, BiasInDRAM: true, Threshold: 0.25, PoolBeforeActivation: true},
}

// observedEqual requires a trace-only result to carry exactly the
// observables of a full Run: trace bytes, per-layer cycles, start cycles and
// record ranges, plus the non-zero counts when pruning. Logits and Acts
// must be nil.
func observedEqual(t *testing.T, label string, got, want *Result, pruned bool) {
	t.Helper()
	if !bytes.Equal(traceBytes(t, got.Trace), traceBytes(t, want.Trace)) {
		t.Fatalf("%s: trace differs from Run's (%d vs %d records)", label, len(got.Trace.Accesses), len(want.Trace.Accesses))
	}
	for li := range want.LayerCycles {
		if got.LayerCycles[li] != want.LayerCycles[li] || got.LayerStartCycle[li] != want.LayerStartCycle[li] {
			t.Fatalf("%s: layer %d cycles (%d,%d), want (%d,%d)", label, li,
				got.LayerStartCycle[li], got.LayerCycles[li], want.LayerStartCycle[li], want.LayerCycles[li])
		}
		if got.LayerAccessRange[li] != want.LayerAccessRange[li] {
			t.Fatalf("%s: layer %d record range %v, want %v", label, li, got.LayerAccessRange[li], want.LayerAccessRange[li])
		}
	}
	if got.Logits != nil || got.Acts != nil {
		t.Fatalf("%s: trace-only run returned values", label)
	}
	if !pruned {
		if got.NZCounts != nil {
			t.Fatalf("%s: trace-only run without pruning returned NZCounts", label)
		}
		return
	}
	for li := range want.NZCounts {
		for c := range want.NZCounts[li] {
			if got.NZCounts[li][c] != want.NZCounts[li][c] {
				t.Fatalf("%s: nz[%d][%d] = %d, want %d", label, li, c, got.NZCounts[li][c], want.NZCounts[li][c])
			}
		}
	}
}

// TestObserveMatchesRun is the differential test of the trace-only path:
// for every victim, dataflow and config, Observe must return Run's
// observables exactly — on a fresh simulator, and on simulators whose pooled
// arenas alternate between the two entry points. Without pruning, Observe
// also runs on the arena the reference Run left behind (it must skip the
// arithmetic there too), and once per victim and dataflow Run runs on the
// arena a trace-only run left behind, which holds no value buffers: it must
// still compute everything a fresh Run does. Under pruning both entry points
// compute on the same buffers, so the fresh Observe suffices. For the
// unaligned-burst configs the trace must also reach structure analysis,
// which returns an analysis or an error.
func TestObserveMatchesRun(t *testing.T) {
	for _, net := range observeVictims() {
		net.InitWeights(1)
		x := randInput(net, 2)
		for _, df := range []Dataflow{OutputStationary, WeightStationary, RowStationary} {
			for ci, cfg := range observeConfigs {
				cfg.Dataflow = df
				label := fmt.Sprintf("%s/%v/%+v", net.Name, df, cfg)
				ref, err := New(net, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Run(x)
				if err != nil {
					t.Fatal(err)
				}

				sim, err := New(net, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sim.Observe(x)
				if err != nil {
					t.Fatal(err)
				}
				observedEqual(t, label+"/fresh", got, want, cfg.ZeroPrune)

				if !cfg.ZeroPrune {
					again, err := ref.Observe(x)
					if err != nil {
						t.Fatal(err)
					}
					observedEqual(t, label+"/observe-after-run", again, want, false)
				}
				if ci == 0 {
					again, err := sim.Run(x)
					if err != nil {
						t.Fatal(err)
					}
					resultsEqual(t, label+"/run-after-observe", again, want)
					if !bytes.Equal(traceBytes(t, again.Trace), traceBytes(t, want.Trace)) {
						t.Fatalf("%s/run-after-observe: trace differs from a fresh Run's", label)
					}
				}

				if cfg.BlockBytes == 64 || cfg.ElemBytes == 1 {
					elem := sim.Config().ElemBytes
					a, err := structrev.Analyze(got.Trace, net.Input.Len()*elem, elem)
					if (a == nil) == (err == nil) {
						t.Fatalf("%s: Analyze returned analysis %v and error %v, want exactly one", label, a != nil, err)
					}
				}
			}
		}
	}
}
