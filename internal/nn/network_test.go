package nn

import (
	"math"
	"math/rand"
	"testing"

	"cnnrev/internal/tensor"
)

func TestAlexNetShapes(t *testing.T) {
	n := AlexNet(1000, 1)
	want := []Shape{
		{96, 27, 27},
		{256, 13, 13},
		{384, 13, 13},
		{384, 13, 13},
		{256, 6, 6},
		{4096, 1, 1},
		{4096, 1, 1},
		{1000, 1, 1},
	}
	if len(n.Shapes) != len(want) {
		t.Fatalf("AlexNet has %d layers, want %d", len(n.Shapes), len(want))
	}
	for i, w := range want {
		if n.Shapes[i] != w {
			t.Errorf("layer %d (%s): shape %v, want %v", i, n.Specs[i].Name, n.Shapes[i], w)
		}
	}
}

func TestAlexNetMACs(t *testing.T) {
	n := AlexNet(1000, 1)
	// conv1: 55²·96·11²·3 per the paper's MAC formula.
	want := int64(55*55) * 96 * 121 * 3
	if got := n.MACs(0); got != want {
		t.Fatalf("conv1 MACs = %d, want %d", got, want)
	}
	// fc8: 1000·4096
	if got := n.MACs(7); got != 1000*4096 {
		t.Fatalf("fc8 MACs = %d", got)
	}
	if n.TotalMACs() <= n.MACs(0) {
		t.Fatal("TotalMACs must exceed a single layer")
	}
}

func TestLeNetAndConvNetShapes(t *testing.T) {
	le := LeNet(10)
	if le.Shapes[0] != (Shape{6, 14, 14}) || le.Shapes[1] != (Shape{16, 5, 5}) {
		t.Fatalf("LeNet conv shapes: %v", le.Shapes[:2])
	}
	if le.Output() != (Shape{10, 1, 1}) {
		t.Fatalf("LeNet output: %v", le.Output())
	}
	cn := ConvNet(10)
	if cn.Shapes[0] != (Shape{32, 16, 16}) || cn.Shapes[2] != (Shape{64, 4, 4}) {
		t.Fatalf("ConvNet shapes: %v", cn.Shapes)
	}
}

func TestSqueezeNetStructure(t *testing.T) {
	n := SqueezeNet(1000, 1)
	// conv1 pools 111 -> 55.
	if n.Shapes[0] != (Shape{96, 55, 55}) {
		t.Fatalf("conv1 out = %v, want 96x55x55", n.Shapes[0])
	}
	// Find the three bypass layers and the final conv10.
	bypass := 0
	for i := range n.Specs {
		if n.Specs[i].Kind == KindEltwise {
			bypass++
			if len(n.Specs[i].Inputs) != 2 {
				t.Fatalf("bypass %s has %d inputs", n.Specs[i].Name, len(n.Specs[i].Inputs))
			}
		}
	}
	if bypass != 3 {
		t.Fatalf("SqueezeNet has %d bypass paths, want 3", bypass)
	}
	if n.Output() != (Shape{1000, 1, 1}) {
		t.Fatalf("output = %v", n.Output())
	}
	// fire4 expands pool 55 -> 27; the concat after fire4 should be 256x27x27.
	for i := range n.Specs {
		if n.Specs[i].Name == "fire4/concat" && n.Shapes[i] != (Shape{256, 27, 27}) {
			t.Fatalf("fire4 concat = %v, want 256x27x27", n.Shapes[i])
		}
		if n.Specs[i].Name == "fire9/concat" && n.Shapes[i] != (Shape{512, 13, 13}) {
			t.Fatalf("fire9 concat = %v, want 512x13x13", n.Shapes[i])
		}
	}
}

func TestDepthScaling(t *testing.T) {
	n := AlexNet(10, 8)
	if n.Shapes[0].C != 12 || n.Shapes[1].C != 32 {
		t.Fatalf("depth-scaled channels: %v %v", n.Shapes[0], n.Shapes[1])
	}
	if n.Output().C != 10 {
		t.Fatal("classes must not scale")
	}
	if n.TotalWeights() >= AlexNet(10, 1).TotalWeights()/8 {
		t.Fatal("depth scaling should cut weights substantially")
	}
}

// TestModelByName: the by-name constructor builds the same network as the
// named constructor, with the zoo's class default, and rejects unknown
// names and negative class counts instead of panicking.
func TestModelByName(t *testing.T) {
	for _, tc := range []struct {
		name    string
		classes int
		want    *Network
	}{
		{"lenet", 10, LeNet(10)},
		{"convnet", 10, ConvNet(10)},
		{"alexnet", 1000, AlexNet(1000, 32)},
		{"squeezenet", 1000, SqueezeNet(1000, 32)},
		{"vgg11", 10, VGG11(10, 32)},
		{"nin", 10, NiN(10, 32)},
		{"resnetmini", 10, ResNetMini(10, 32)},
	} {
		if !IsModel(tc.name) {
			t.Fatalf("IsModel(%q) = false", tc.name)
		}
		got, err := Model(tc.name, 0, 32)
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != tc.want.Name || got.NumClasses() != tc.classes || got.TotalWeights() != tc.want.TotalWeights() {
			t.Errorf("%s: built %s with %d classes and %d weights, want %s with %d and %d",
				tc.name, got.Name, got.NumClasses(), got.TotalWeights(), tc.want.Name, tc.classes, tc.want.TotalWeights())
		}
	}
	if n, err := Model("nin", 7, 0); err != nil || n.NumClasses() != 7 || n.Name != "nin/d1" {
		t.Fatalf("nin with 7 classes at depth divisor 0: %v, %v", n, err)
	}
	if _, err := Model("resnet", 10, 1); err == nil || err.Error() != `unknown model "resnet"` || IsModel("resnet") {
		t.Fatalf("unknown name: err %v", err)
	}
	if _, err := Model("lenet", -1, 1); err == nil {
		t.Fatal("negative class count accepted")
	}
}

func TestNewRejectsBadGraphs(t *testing.T) {
	cases := []struct {
		name  string
		specs []LayerSpec
	}{
		{"forward ref", []LayerSpec{
			{Name: "a", Kind: KindConv, OutC: 1, F: 1, S: 1, Inputs: []int{1}},
			{Name: "b", Kind: KindConv, OutC: 1, F: 1, S: 1},
		}},
		{"kernel too big", []LayerSpec{
			{Name: "a", Kind: KindConv, OutC: 1, F: 50, S: 1},
		}},
		{"eltwise mismatch", []LayerSpec{
			{Name: "a", Kind: KindConv, OutC: 2, F: 1, S: 1},
			{Name: "b", Kind: KindConv, OutC: 3, F: 1, S: 1},
			{Name: "c", Kind: KindEltwise, Inputs: []int{0, 1}},
		}},
		{"concat spatial mismatch", []LayerSpec{
			{Name: "a", Kind: KindConv, OutC: 2, F: 1, S: 1},
			{Name: "b", Kind: KindConv, OutC: 2, F: 1, S: 2},
			{Name: "c", Kind: KindConcat, Inputs: []int{0, 1}},
		}},
		{"empty", nil},
	}
	for _, tc := range cases {
		if _, err := New(tc.name, Shape{C: 1, H: 8, W: 8}, tc.specs); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestInferDeterministic(t *testing.T) {
	n := LeNet(10)
	n.InitWeights(42)
	x := make([]float32, n.Input.Len())
	rng := rand.New(rand.NewSource(1))
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	a, b := n.Infer(x), n.Infer(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Infer must be deterministic")
		}
	}
	if len(a) != 10 {
		t.Fatalf("logit count = %d", len(a))
	}
}

// tinyDAG builds a small network exercising every layer kind: conv+pool,
// parallel branches, concat, eltwise, fc.
func tinyDAG(t *testing.T) *Network {
	t.Helper()
	n, err := New("tinydag", Shape{C: 2, H: 8, W: 8}, []LayerSpec{
		{Name: "conv1", Kind: KindConv, OutC: 4, F: 3, S: 1, P: 1, ReLU: true,
			Pool: PoolMax, PoolF: 2, PoolS: 2},
		{Name: "branchA", Kind: KindConv, OutC: 3, F: 1, S: 1, ReLU: true, Inputs: []int{0}},
		{Name: "branchB", Kind: KindConv, OutC: 3, F: 3, S: 1, P: 1, ReLU: true, Inputs: []int{0},
			Pool: PoolAvg, PoolF: 3, PoolS: 1, PoolP: 1},
		{Name: "cat", Kind: KindConcat, Inputs: []int{1, 2}},
		{Name: "proj", Kind: KindConv, OutC: 6, F: 1, S: 1, ReLU: true, Inputs: []int{3}},
		{Name: "sum", Kind: KindEltwise, Inputs: []int{3, 4}},
		{Name: "fc", Kind: KindFC, OutC: 4, Inputs: []int{5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestBackwardNumericalDAG verifies analytic gradients of the full DAG
// (pool, relu, concat, eltwise, fc) against central finite differences of
// the cross-entropy loss.
func TestBackwardNumericalDAG(t *testing.T) {
	n := tinyDAG(t)
	n.InitWeights(7)
	rng := rand.New(rand.NewSource(8))
	x := make([]float32, n.Input.Len())
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	label := 2

	loss := func() float64 {
		out := n.Infer(x)
		d := make([]float32, len(out))
		return tensor.SoftmaxCrossEntropy(out, label, d)
	}

	st := n.newState()
	gs := n.newGradState()
	gs.zeroGrads()
	out := n.forward(st, x)
	last := len(n.Specs) - 1
	tensor.SoftmaxCrossEntropy(out, label, gs.dOut[last])
	n.backward(st, gs, x)

	const eps = 5e-3
	for li, p := range n.Params {
		if p == nil {
			continue
		}
		for s := 0; s < 6; s++ {
			i := rng.Intn(p.W.Len())
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			lp := loss()
			p.W.Data[i] = orig - eps
			lm := loss()
			p.W.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			got := float64(gs.dW[li][i])
			if math.Abs(num-got) > 5e-2*(1+math.Abs(num)) {
				t.Errorf("layer %s dW[%d]: numeric %g analytic %g", n.Specs[li].Name, i, num, got)
			}
		}
		// One bias per layer.
		i := rng.Intn(p.B.Len())
		orig := p.B.Data[i]
		p.B.Data[i] = orig + eps
		lp := loss()
		p.B.Data[i] = orig - eps
		lm := loss()
		p.B.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if got := float64(gs.dB[li][i]); math.Abs(num-got) > 5e-2*(1+math.Abs(num)) {
			t.Errorf("layer %s dB[%d]: numeric %g analytic %g", n.Specs[li].Name, i, num, got)
		}
	}
}

func TestSequentialBuilder(t *testing.T) {
	n, err := Sequential("seq", Shape{C: 1, H: 28, W: 28}, []ConvConfig{
		{OutC: 6, F: 5, S: 1, P: 2, Pool: PoolMax, PoolF: 2, PoolS: 2},
		{OutC: 16, F: 5, S: 1, Pool: PoolMax, PoolF: 2, PoolS: 2},
	}, []int{120, 10})
	if err != nil {
		t.Fatal(err)
	}
	ref := LeNet(10)
	for i := range ref.Shapes {
		if n.Shapes[i] != ref.Shapes[i] {
			t.Fatalf("Sequential differs from LeNet at layer %d: %v vs %v", i, n.Shapes[i], ref.Shapes[i])
		}
	}
	if n.Specs[len(n.Specs)-1].ReLU {
		t.Fatal("last FC must not have ReLU")
	}
}

func TestVGG11Shapes(t *testing.T) {
	n := VGG11(1000, 1)
	if len(n.Specs) != 11 {
		t.Fatalf("VGG11 has %d layers", len(n.Specs))
	}
	want := map[int]Shape{
		0:  {64, 112, 112},
		1:  {128, 56, 56},
		3:  {256, 28, 28},
		5:  {512, 14, 14},
		7:  {512, 7, 7},
		10: {1000, 1, 1},
	}
	for i, w := range want {
		if n.Shapes[i] != w {
			t.Errorf("layer %d: %v, want %v", i, n.Shapes[i], w)
		}
	}
}

func TestNiNShapes(t *testing.T) {
	n := NiN(10, 1)
	if n.Output() != (Shape{10, 1, 1}) {
		t.Fatalf("NiN output %v", n.Output())
	}
	if n.Shapes[2] != (Shape{96, 16, 16}) || n.Shapes[5] != (Shape{192, 8, 8}) {
		t.Fatalf("NiN stage shapes: %v %v", n.Shapes[2], n.Shapes[5])
	}
	// No FC layers at all.
	for i := range n.Specs {
		if n.Specs[i].Kind == KindFC {
			t.Fatal("NiN must be fully convolutional")
		}
	}
}

func TestResNetMiniShapes(t *testing.T) {
	n := ResNetMini(10, 1)
	if n.Output() != (Shape{10, 1, 1}) {
		t.Fatalf("output %v", n.Output())
	}
	elt := 0
	for i := range n.Specs {
		if n.Specs[i].Kind == KindEltwise {
			elt++
			a, b := n.Specs[i].Inputs[0], n.Specs[i].Inputs[1]
			if n.Shapes[a] != n.Shapes[b] {
				t.Fatalf("shortcut dims mismatch at %s", n.Specs[i].Name)
			}
		}
		if n.Specs[i].Name == "proj" && n.Shapes[i] != (Shape{32, 16, 16}) {
			t.Fatalf("projection shape %v", n.Shapes[i])
		}
	}
	if elt != 2 {
		t.Fatalf("%d shortcuts, want 2", elt)
	}
	// It must train like any other DAG.
	n.InitWeights(1)
	x := make([]float32, n.Input.Len())
	if got := len(n.Infer(x)); got != 10 {
		t.Fatalf("logits %d", got)
	}
}

func TestKindAndPoolStrings(t *testing.T) {
	if KindConv.String() != "conv" || KindFC.String() != "fc" ||
		KindConcat.String() != "concat" || KindEltwise.String() != "eltwise" {
		t.Fatal("Kind names wrong")
	}
	if PoolNone.String() != "none" || PoolMax.String() != "max" || PoolAvg.String() != "avg" {
		t.Fatal("PoolKind names wrong")
	}
	if (Shape{3, 4, 5}).String() != "3x4x5" {
		t.Fatal("Shape string wrong")
	}
	if Kind(99).String() == "" || PoolKind(99).String() == "" {
		t.Fatal("unknown enum names must not be empty")
	}
}
