package weightrev

import (
	"sync/atomic"
	"testing"

	"cnnrev/internal/accel"
	"cnnrev/internal/nn"
)

// benchOracleQuery measures one CountChannel device query against a
// multi-layer victim (LeNet: conv-conv-fc-fc) with layer 0 as the target.
// Full mode simulates all four layers and scans the whole trace (the
// pre-prefix reference); prefix mode stops after the target layer and
// reads only its region of the trace.
func benchOracleQuery(b *testing.B, fullRun bool) {
	net := nn.LeNet(10)
	net.InitWeights(3)
	o, err := NewTraceOracle(net, accel.Config{}, 0)
	if err != nil {
		b.Fatal(err)
	}
	o.fullRun = fullRun
	pixels := []Pixel{{C: 0, Y: 3, X: 4, V: 0.5}}
	want := o.CountChannel(0, pixels) // warm the session pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := o.CountChannel(0, pixels); got != want {
			b.Fatalf("count changed: %d vs %d", got, want)
		}
	}
}

func BenchmarkOracleQuery_Full(b *testing.B)   { benchOracleQuery(b, true) }
func BenchmarkOracleQuery_Prefix(b *testing.B) { benchOracleQuery(b, false) }

// fig7Oracle builds the analytic oracle over a Figure 7 style victim:
// AlexNet's CONV1 geometry (11×11×3, stride 4) on a 227×227 input.
func fig7Oracle(tb testing.TB) *FastOracle {
	spec := nn.LayerSpec{Name: "conv1", Kind: nn.KindConv, OutC: 4, F: 11, S: 4, ReLU: true}
	net := nn.MustNew("conv1", nn.Shape{C: 3, H: 227, W: 227}, []nn.LayerSpec{spec})
	net.InitWeights(5)
	for i := range net.Params[0].B.Data {
		net.Params[0].B.Data[i] = 0.05
	}
	o, err := NewFastOracle(net, accel.Config{}, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return o
}

// BenchmarkFastOracleQuery measures one analytic CountChannel query, the
// oracle the weight attack runs, at a pixel that reaches nine conv
// outputs.
func BenchmarkFastOracleQuery(b *testing.B) {
	o := fig7Oracle(b)
	pixels := []Pixel{{C: 1, Y: 100, X: 120, V: 0.5}}
	want := o.CountChannel(2, pixels)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := o.CountChannel(2, pixels); got != want {
			b.Fatalf("count changed: %d vs %d", got, want)
		}
	}
}

// BenchmarkFastOracleQueryParallel runs the same query as
// BenchmarkFastOracleQuery from every worker at once, each on its own
// channel, as the weight attack's parallel filter recovery does. Query
// accounting that writes a cache line shared between channels shows up here
// as a higher ns/op.
func BenchmarkFastOracleQueryParallel(b *testing.B) {
	o := fig7Oracle(b)
	pixels := []Pixel{{C: 1, Y: 100, X: 120, V: 0.5}}
	var workers atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		d := int(workers.Add(1)-1) % o.out.C
		want := o.countChannel(d, pixels)
		for pb.Next() {
			if got := o.CountChannel(d, pixels); got != want {
				b.Errorf("channel %d: count changed: %d vs %d", d, got, want)
				return
			}
		}
	})
}
