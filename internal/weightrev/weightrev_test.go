package weightrev

import (
	"math"
	"math/rand"
	"testing"

	"cnnrev/internal/accel"
	"cnnrev/internal/nn"
)

// convLayer builds a single-conv-layer victim with deterministic weights:
// magnitudes bounded away from zero (so crossings stay inside the search
// range), a sprinkling of exact-zero weights, and a non-zero bias.
func convLayer(t *testing.T, in nn.Shape, outC, f, s, p int, pool nn.PoolKind, poolF, poolS int, bias float32, zeroFrac float64, seed int64) *nn.Network {
	t.Helper()
	spec := nn.LayerSpec{Name: "conv1", Kind: nn.KindConv, OutC: outC, F: f, S: s, P: p, ReLU: true,
		Pool: pool, PoolF: poolF, PoolS: poolS}
	net, err := nn.New("victim", in, []nn.LayerSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	w := net.Params[0].W.Data
	for i := range w {
		if rng.Float64() < zeroFrac {
			w[i] = 0
			continue
		}
		mag := 0.05 + 0.25*rng.Float64()
		if rng.Intn(2) == 0 {
			mag = -mag
		}
		w[i] = float32(mag)
	}
	for i := range net.Params[0].B.Data {
		net.Params[0].B.Data[i] = bias
	}
	return net
}

func TestFastOracleMatchesTraceOracle(t *testing.T) {
	cases := []struct {
		name string
		net  *nn.Network
		cfg  accel.Config
	}{
		{"plain", convLayer(t, nn.Shape{C: 2, H: 12, W: 12}, 3, 3, 1, 0, nn.PoolNone, 0, 0, 0.07, 0.2, 1), accel.Config{}},
		{"padded", convLayer(t, nn.Shape{C: 1, H: 10, W: 10}, 2, 3, 2, 1, nn.PoolNone, 0, 0, -0.05, 0, 2), accel.Config{}},
		{"maxpool", convLayer(t, nn.Shape{C: 1, H: 12, W: 12}, 2, 3, 1, 0, nn.PoolMax, 2, 2, -0.06, 0.1, 3), accel.Config{}},
		{"avgpool", convLayer(t, nn.Shape{C: 1, H: 12, W: 12}, 2, 3, 1, 0, nn.PoolAvg, 2, 2, -0.06, 0, 4), accel.Config{}},
		{"avgpool-eq11", convLayer(t, nn.Shape{C: 1, H: 12, W: 12}, 2, 3, 1, 0, nn.PoolAvg, 2, 2, -0.06, 0, 5), accel.Config{PoolBeforeActivation: true}},
		{"threshold", convLayer(t, nn.Shape{C: 1, H: 12, W: 12}, 2, 3, 1, 0, nn.PoolNone, 0, 0, 0.04, 0, 6), accel.Config{Threshold: 0.03}},
		// The Figure 7 victim's geometry (PrunedConv1: F=11, S=4) on a
		// smaller input, plain and with AlexNet's 3/2 max pooling.
		{"conv1", convLayer(t, nn.Shape{C: 3, H: 35, W: 35}, 3, 11, 4, 0, nn.PoolNone, 0, 0, 0.05, 0.25, 10), accel.Config{}},
		{"conv1-maxpool", convLayer(t, nn.Shape{C: 3, H: 39, W: 39}, 2, 11, 4, 0, nn.PoolMax, 3, 2, -0.05, 0.25, 11), accel.Config{}},
		{"conv1-padded-avgpool", convLayer(t, nn.Shape{C: 2, H: 30, W: 30}, 2, 11, 4, 2, nn.PoolAvg, 3, 2, -0.04, 0.1, 12), accel.Config{}},
	}
	rng := rand.New(rand.NewSource(9))
	for _, tc := range cases {
		trace, err := NewTraceOracle(tc.net, tc.cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := NewFastOracle(tc.net, tc.cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		in := tc.net.Input
		s := tc.net.Specs[0].S
		for q := 0; q < 40; q++ {
			var pix []Pixel
			for n := rng.Intn(3); n >= 0; n-- {
				pix = append(pix, Pixel{
					C: rng.Intn(in.C), Y: rng.Intn(in.H), X: rng.Intn(in.W),
					V: float32(rng.NormFloat64() * 2),
				})
			}
			// Every other query adds a pixel that reaches outputs an
			// earlier one reaches too: the same pixel again, or one a
			// stride away in another channel. Each affected output must be
			// counted once.
			switch p := pix[0]; q % 4 {
			case 1:
				p.V = float32(rng.NormFloat64() * 2)
				pix = append(pix, p)
			case 3:
				p.C, p.Y, p.X = rng.Intn(in.C), min(p.Y+s, in.H-1), min(p.X+1, in.W-1)
				pix = append(pix, p)
			}
			want := trace.Counts(pix)
			got := fast.Counts(pix)
			for d := range want {
				if got[d] != want[d] {
					t.Fatalf("%s query %d ch %d: fast %d, trace %d (pix %+v)", tc.name, q, d, got[d], want[d], pix)
				}
			}
		}
	}
}

// TestFastOracleCountChannelAllocatesNothing pins the analytic oracle's
// query path to zero allocations, single and overlapping probe pixels
// alike: the weight attack issues half a million queries per victim.
func TestFastOracleCountChannelAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; pin runs in the non-race job")
	}
	o := fig7Oracle(t)
	for _, pixels := range [][]Pixel{
		{{C: 1, Y: 100, X: 120, V: 0.5}},
		{{C: 0, Y: 0, X: 0, V: -2}},
		{{C: 2, Y: 40, X: 40, V: 1}, {C: 0, Y: 44, X: 41, V: -1}, {C: 2, Y: 40, X: 40, V: 3}},
	} {
		if allocs := testing.AllocsPerRun(100, func() { o.CountChannel(3, pixels) }); allocs != 0 {
			t.Errorf("CountChannel(%v) allocates %.1f objects per call, want 0", pixels, allocs)
		}
	}
}

func TestRecoverFilterRatiosExact(t *testing.T) {
	// 5×5 kernel, stride 2 (so probe pixels hit multiple outputs), 2 input
	// channels, 20% zero weights, positive bias.
	net := convLayer(t, nn.Shape{C: 2, H: 20, W: 20}, 3, 5, 2, 0, nn.PoolNone, 0, 0, 0.08, 0.2, 7)
	o, err := NewFastOracle(net, accel.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	at := NewAttacker(o, Geometry{In: net.Input, OutC: 3, F: 5, S: 2, P: 0})
	for d := 0; d < 3; d++ {
		got, err := at.RecoverFilterRatios(d)
		if err != nil {
			t.Fatal(err)
		}
		b := float64(net.Params[0].B.Data[d])
		for c := 0; c < 2; c++ {
			for ky := 0; ky < 5; ky++ {
				for kx := 0; kx < 5; kx++ {
					w := float64(net.Params[0].W.Data[((d*2+c)*5+ky)*5+kx])
					if w == 0 {
						if !got.Zero[c][ky][kx] {
							t.Errorf("d%d c%d (%d,%d): zero weight not detected (ratio %g)", d, c, ky, kx, got.Ratio[c][ky][kx])
						}
						continue
					}
					if got.Zero[c][ky][kx] {
						t.Errorf("d%d c%d (%d,%d): nonzero weight reported zero", d, c, ky, kx)
						continue
					}
					want := w / b
					if e := math.Abs(got.Ratio[c][ky][kx] - want); e > math.Pow(2, -10) {
						t.Errorf("d%d c%d (%d,%d): w/b = %g, want %g (err %g > 2^-10)", d, c, ky, kx, got.Ratio[c][ky][kx], want, e)
					}
				}
			}
		}
	}
	t.Logf("device queries: %d", o.Queries())
}

func TestRecoverNegativeBias(t *testing.T) {
	net := convLayer(t, nn.Shape{C: 1, H: 14, W: 14}, 2, 3, 1, 0, nn.PoolNone, 0, 0, -0.07, 0, 8)
	o, _ := NewFastOracle(net, accel.Config{}, 0)
	at := NewAttacker(o, Geometry{In: net.Input, OutC: 2, F: 3, S: 1, P: 0})
	got, err := at.RecoverFilterRatios(0)
	if err != nil {
		t.Fatal(err)
	}
	b := float64(net.Params[0].B.Data[0])
	for ky := 0; ky < 3; ky++ {
		for kx := 0; kx < 3; kx++ {
			w := float64(net.Params[0].W.Data[(ky)*3+kx])
			if e := math.Abs(got.Ratio[0][ky][kx] - w/b); e > math.Pow(2, -10) {
				t.Errorf("(%d,%d): err %g", ky, kx, e)
			}
		}
	}
}

func TestRecoverPooled1x1(t *testing.T) {
	for _, pool := range []nn.PoolKind{nn.PoolMax, nn.PoolAvg} {
		net := convLayer(t, nn.Shape{C: 4, H: 8, W: 8}, 2, 1, 1, 0, pool, 2, 2, -0.05, 0.25, 10)
		o, _ := NewFastOracle(net, accel.Config{}, 0)
		at := NewAttacker(o, Geometry{In: net.Input, OutC: 2, F: 1, S: 1, P: 0, Pool: pool, PoolF: 2, PoolS: 2})
		for d := 0; d < 2; d++ {
			ratios, zeros, err := at.RecoverPooled1x1(d)
			if err != nil {
				t.Fatal(err)
			}
			b := float64(net.Params[0].B.Data[d])
			for c := 0; c < 4; c++ {
				w := float64(net.Params[0].W.Data[d*4+c])
				if w == 0 {
					if !zeros[c] {
						t.Errorf("pool %v d%d c%d: zero weight missed", pool, d, c)
					}
					continue
				}
				if e := math.Abs(ratios[c] - w/b); e > math.Pow(2, -10) {
					t.Errorf("pool %v d%d c%d: err %g", pool, d, c, e)
				}
			}
		}
	}
}

func TestRecoverPooledPairEq10(t *testing.T) {
	// Max pooling, ReLU-then-pool: the paper's Eq. (10) case.
	net := convLayer(t, nn.Shape{C: 1, H: 16, W: 16}, 2, 3, 1, 0, nn.PoolMax, 2, 2, -0.06, 0, 11)
	o, _ := NewFastOracle(net, accel.Config{}, 0)
	at := NewAttacker(o, Geometry{In: net.Input, OutC: 2, F: 3, S: 1, P: 0, Pool: nn.PoolMax, PoolF: 2, PoolS: 2})
	for d := 0; d < 2; d++ {
		r00, r10, err := at.RecoverPooledPair(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		b := float64(net.Params[0].B.Data[d])
		w00 := float64(net.Params[0].W.Data[(d*1*3+0)*3+0])
		w10 := float64(net.Params[0].W.Data[(d*1*3+1)*3+0])
		if e := math.Abs(r00 - w00/b); e > 1e-3 {
			t.Errorf("d%d: w00/b err %g", d, e)
		}
		if e := math.Abs(r10 - w10/b); e > 1e-2*(1+math.Abs(w10/b)) {
			t.Errorf("d%d: w10/b = %g, want %g", d, r10, w10/b)
		}
	}
}

func TestRecoverPooledPairEq11(t *testing.T) {
	// Average pooling applied before the activation: the paper's Eq. (11).
	net := convLayer(t, nn.Shape{C: 1, H: 16, W: 16}, 2, 3, 1, 0, nn.PoolAvg, 2, 2, -0.06, 0, 12)
	cfg := accel.Config{PoolBeforeActivation: true}
	o, _ := NewFastOracle(net, cfg, 0)
	at := NewAttacker(o, Geometry{In: net.Input, OutC: 2, F: 3, S: 1, P: 0,
		Pool: nn.PoolAvg, PoolF: 2, PoolS: 2, PoolBeforeAct: true})
	for d := 0; d < 2; d++ {
		r00, r10, err := at.RecoverPooledPair(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		b := float64(net.Params[0].B.Data[d])
		w00 := float64(net.Params[0].W.Data[(d*3+0)*3+0])
		w10 := float64(net.Params[0].W.Data[(d*3+1)*3+0])
		if e := math.Abs(r00 - w00/b); e > 1e-3 {
			t.Errorf("d%d: w00/b err %g", d, e)
		}
		if e := math.Abs(r10 - w10/b); e > 1e-2*(1+math.Abs(w10/b)) {
			t.Errorf("d%d: w10/b = %g, want %g", d, r10, w10/b)
		}
	}
}

func TestRecoverBiasAndFullWeights(t *testing.T) {
	net := convLayer(t, nn.Shape{C: 1, H: 12, W: 12}, 2, 3, 1, 0, nn.PoolNone, 0, 0, 0.0625, 0, 13)
	o, _ := NewFastOracle(net, accel.Config{}, 0)
	at := NewAttacker(o, Geometry{In: net.Input, OutC: 2, F: 3, S: 1, P: 0})
	for d := 0; d < 2; d++ {
		weights, bias, err := at.RecoverWeights(d, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if e := math.Abs(bias - 0.0625); e > 1e-6 {
			t.Errorf("d%d: bias = %g, want 0.0625", d, bias)
		}
		for ky := 0; ky < 3; ky++ {
			for kx := 0; kx < 3; kx++ {
				w := float64(net.Params[0].W.Data[(d*3+ky)*3+kx])
				if e := math.Abs(weights[0][ky][kx] - w); e > 1e-4 {
					t.Errorf("d%d (%d,%d): w = %g, want %g", d, ky, kx, weights[0][ky][kx], w)
				}
			}
		}
	}
}

func TestAttackerRejectsUnsupportedGeometry(t *testing.T) {
	net := convLayer(t, nn.Shape{C: 1, H: 12, W: 12}, 1, 3, 1, 1, nn.PoolNone, 0, 0, 0.05, 0, 14)
	o, _ := NewFastOracle(net, accel.Config{}, 0)
	at := NewAttacker(o, Geometry{In: net.Input, OutC: 1, F: 3, S: 1, P: 1})
	if _, err := at.RecoverFilterRatios(0); err == nil {
		t.Fatal("expected rejection of padded geometry")
	}
	at2 := NewAttacker(o, Geometry{In: net.Input, OutC: 1, F: 3, S: 1, P: 0, Pool: nn.PoolMax, PoolF: 3, PoolS: 3})
	if _, _, err := at2.RecoverPooledPair(0, 0); err == nil {
		t.Fatal("expected rejection of 3x3 pooling in the pair method")
	}
}

func TestFastOracleRejectsNonFirstLayer(t *testing.T) {
	net := nn.LeNet(10)
	if _, err := NewFastOracle(net, accel.Config{}, 1); err == nil {
		t.Fatal("expected rejection")
	}
}

// TestRecoverQuantizedWeights exercises the collision path: a
// Deep-Compression-style quantized filter where many weights share exactly
// the same value, so target crossings coincide with predicted ones and must
// be identified from the count-step parity anomaly.
func TestRecoverQuantizedWeights(t *testing.T) {
	spec := nn.LayerSpec{Name: "conv", Kind: nn.KindConv, OutC: 1, F: 4, S: 1, ReLU: true}
	net, err := nn.New("quant", nn.Shape{C: 1, H: 16, W: 16}, []nn.LayerSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	// A 4-value codebook, as trained quantization produces.
	codebook := []float32{-0.2, -0.05, 0.1, 0.25}
	rng := rand.New(rand.NewSource(21))
	for i := range net.Params[0].W.Data {
		net.Params[0].W.Data[i] = codebook[rng.Intn(len(codebook))]
	}
	net.Params[0].B.Data[0] = 0.07

	o, _ := NewFastOracle(net, accel.Config{}, 0)
	at := NewAttacker(o, Geometry{In: net.Input, OutC: 1, F: 4, S: 1, P: 0})
	got, err := at.RecoverFilterRatios(0)
	if err != nil {
		t.Fatal(err)
	}
	for ky := 0; ky < 4; ky++ {
		for kx := 0; kx < 4; kx++ {
			w := float64(net.Params[0].W.Data[ky*4+kx])
			if got.Zero[0][ky][kx] {
				t.Errorf("(%d,%d): quantized weight misreported as zero", ky, kx)
				continue
			}
			if e := math.Abs(got.Ratio[0][ky][kx] - w/0.07); e > 1e-3 {
				t.Errorf("(%d,%d): w/b err %g", ky, kx, e)
			}
		}
	}
}

// TestAggregateOracleSingleFilter: with only the total count visible (the
// paper's conservative leak model), a single-filter layer is still fully
// recoverable — total and per-channel counts coincide.
func TestAggregateOracleSingleFilter(t *testing.T) {
	net := convLayer(t, nn.Shape{C: 1, H: 14, W: 14}, 1, 3, 1, 0, nn.PoolNone, 0, 0, 0.06, 0.2, 61)
	fast, _ := NewFastOracle(net, accel.Config{}, 0)
	agg := &AggregateOracle{O: fast}
	at := NewAttacker(agg, Geometry{In: net.Input, OutC: 1, F: 3, S: 1, P: 0})
	got, err := at.RecoverFilterRatios(0)
	if err != nil {
		t.Fatal(err)
	}
	b := float64(net.Params[0].B.Data[0])
	for ky := 0; ky < 3; ky++ {
		for kx := 0; kx < 3; kx++ {
			w := float64(net.Params[0].W.Data[ky*3+kx])
			if w == 0 {
				if !got.Zero[0][ky][kx] {
					t.Errorf("(%d,%d): zero missed", ky, kx)
				}
				continue
			}
			if e := math.Abs(got.Ratio[0][ky][kx] - w/b); e > math.Pow(2, -10) {
				t.Errorf("(%d,%d): err %g", ky, kx, e)
			}
		}
	}
}

// TestAggregateOracleConfoundedMultiFilter: on a multi-filter layer the
// total count mixes every filter's crossings; the recovery for filter 0 no
// longer matches filter 0's true ratios everywhere, motivating the
// per-channel oracle (which the visible write addresses justify).
func TestAggregateOracleConfoundedMultiFilter(t *testing.T) {
	net := convLayer(t, nn.Shape{C: 1, H: 14, W: 14}, 3, 3, 1, 0, nn.PoolNone, 0, 0, 0.06, 0, 62)
	fast, _ := NewFastOracle(net, accel.Config{}, 0)
	agg := &AggregateOracle{O: fast}
	at := NewAttacker(agg, Geometry{In: net.Input, OutC: 3, F: 3, S: 1, P: 0})
	got, err := at.RecoverFilterRatios(0)
	if err != nil {
		t.Fatal(err)
	}
	b := float64(net.Params[0].B.Data[0])
	mismatch := false
	for ky := 0; ky < 3 && !mismatch; ky++ {
		for kx := 0; kx < 3 && !mismatch; kx++ {
			w := float64(net.Params[0].W.Data[ky*3+kx])
			if got.Zero[0][ky][kx] || math.Abs(got.Ratio[0][ky][kx]-w/b) > 1e-3 {
				mismatch = true
			}
		}
	}
	if !mismatch {
		t.Fatal("aggregate counting should confound multi-filter recovery")
	}
}

func TestRecoverBiasOutOfRange(t *testing.T) {
	net := convLayer(t, nn.Shape{C: 1, H: 10, W: 10}, 1, 3, 1, 0, nn.PoolNone, 0, 0, 0.5, 0, 71)
	o, _ := NewFastOracle(net, accel.Config{}, 0)
	at := NewAttacker(o, Geometry{In: net.Input, OutC: 1, F: 3, S: 1, P: 0})
	if _, err := at.RecoverBias(0, 0.1); err == nil {
		t.Fatal("bias 0.5 outside ±0.1 must error")
	}
}

func TestTinyWeightReportedZero(t *testing.T) {
	// |b/w| beyond the search range reads as "no crossing": the attack
	// classifies ultra-small weights as zero, as documented.
	net := convLayer(t, nn.Shape{C: 1, H: 10, W: 10}, 1, 2, 1, 0, nn.PoolNone, 0, 0, 0.5, 0, 72)
	net.Params[0].W.Data[0] = 0.001 // |b/w| = 500 >> XMax=64
	o, _ := NewFastOracle(net, accel.Config{}, 0)
	at := NewAttacker(o, Geometry{In: net.Input, OutC: 1, F: 2, S: 1, P: 0})
	got, err := at.RecoverFilterRatios(0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Zero[0][0][0] {
		t.Fatal("unreachable crossing should classify as zero")
	}
}
