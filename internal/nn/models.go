package nn

import "fmt"

// scaleC divides a channel count by div, keeping at least one channel.
// div=1 reproduces the paper-size networks; larger divisors give the
// depth-scaled variants used for candidate-structure training (DESIGN.md §2).
func scaleC(c, div int) int {
	if div <= 1 {
		return c
	}
	s := c / div
	if s < 1 {
		s = 1
	}
	return s
}

// zoo maps each victim name to its constructor.
var zoo = map[string]func(numClasses, depthDiv int) *Network{
	"lenet":      func(c, _ int) *Network { return LeNet(c) },
	"convnet":    func(c, _ int) *Network { return ConvNet(c) },
	"alexnet":    AlexNet,
	"squeezenet": SqueezeNet,
	"vgg11":      VGG11,
	"nin":        NiN,
	"resnetmini": ResNetMini,
}

// IsModel reports whether Model knows name.
func IsModel(name string) bool {
	_, ok := zoo[name]
	return ok
}

// Model builds a zoo network by name: lenet, convnet, alexnet, squeezenet,
// vgg11, nin or resnetmini. numClasses 0 means 1000 for the ImageNet-sized
// alexnet and squeezenet and 10 for the rest. depthDiv divides the channel
// counts of the deeper nets; below 1 it means 1, the paper size. An unknown
// name or a negative class count is an error.
func Model(name string, numClasses, depthDiv int) (*Network, error) {
	build, ok := zoo[name]
	if !ok {
		return nil, fmt.Errorf("unknown model %q", name)
	}
	if numClasses < 0 {
		return nil, fmt.Errorf("model %s: class count must be >= 0, got %d", name, numClasses)
	}
	if numClasses == 0 {
		numClasses = 10
		if name == "alexnet" || name == "squeezenet" {
			numClasses = 1000
		}
	}
	return build(numClasses, max(depthDiv, 1)), nil
}

// LeNet returns the 4-layer LeNet variant the paper studies (two conv
// layers with pooling, two fully-connected layers) for 28×28 grayscale
// input.
func LeNet(numClasses int) *Network {
	return MustNew("lenet", Shape{C: 1, H: 28, W: 28}, []LayerSpec{
		{Name: "conv1", Kind: KindConv, OutC: 6, F: 5, S: 1, P: 2, ReLU: true,
			Pool: PoolMax, PoolF: 2, PoolS: 2},
		{Name: "conv2", Kind: KindConv, OutC: 16, F: 5, S: 1, ReLU: true,
			Pool: PoolMax, PoolF: 2, PoolS: 2},
		{Name: "fc3", Kind: KindFC, OutC: 120, ReLU: true},
		{Name: "fc4", Kind: KindFC, OutC: numClasses},
	})
}

// ConvNet returns the 4-layer cuda-convnet style CIFAR network the paper
// studies (three conv layers, one fully-connected) for 32×32 RGB input.
func ConvNet(numClasses int) *Network {
	return MustNew("convnet", Shape{C: 3, H: 32, W: 32}, []LayerSpec{
		{Name: "conv1", Kind: KindConv, OutC: 32, F: 5, S: 1, P: 2, ReLU: true,
			Pool: PoolMax, PoolF: 2, PoolS: 2},
		{Name: "conv2", Kind: KindConv, OutC: 32, F: 5, S: 1, P: 2, ReLU: true,
			Pool: PoolAvg, PoolF: 2, PoolS: 2},
		{Name: "conv3", Kind: KindConv, OutC: 64, F: 3, S: 1, P: 1, ReLU: true,
			Pool: PoolAvg, PoolF: 2, PoolS: 2},
		{Name: "fc4", Kind: KindFC, OutC: numClasses},
	})
}

// AlexNet returns the 8-layer AlexNet (five conv, three FC) with the layer
// geometry of the paper's Table 4 original structure (CONV1₁, CONV2₁,
// CONV3₁, CONV4, CONV5₁). depthDiv scales channel counts for feasible
// pure-Go training; 1 gives the paper-size network.
func AlexNet(numClasses, depthDiv int) *Network {
	d := depthDiv
	return MustNew(fmt.Sprintf("alexnet/d%d", d), Shape{C: 3, H: 227, W: 227}, []LayerSpec{
		{Name: "conv1", Kind: KindConv, OutC: scaleC(96, d), F: 11, S: 4, P: 1, ReLU: true,
			Pool: PoolMax, PoolF: 3, PoolS: 2},
		{Name: "conv2", Kind: KindConv, OutC: scaleC(256, d), F: 5, S: 1, P: 2, ReLU: true,
			Pool: PoolMax, PoolF: 3, PoolS: 2},
		{Name: "conv3", Kind: KindConv, OutC: scaleC(384, d), F: 3, S: 1, P: 1, ReLU: true},
		{Name: "conv4", Kind: KindConv, OutC: scaleC(384, d), F: 3, S: 1, P: 1, ReLU: true},
		{Name: "conv5", Kind: KindConv, OutC: scaleC(256, d), F: 3, S: 1, P: 1, ReLU: true,
			Pool: PoolMax, PoolF: 3, PoolS: 2},
		{Name: "fc6", Kind: KindFC, OutC: scaleC(4096, d), ReLU: true},
		{Name: "fc7", Kind: KindFC, OutC: scaleC(4096, d), ReLU: true},
		{Name: "fc8", Kind: KindFC, OutC: numClasses},
	})
}

// fire appends a SqueezeNet fire module (squeeze 1×1 → parallel expand 1×1
// and expand 3×3 → channel concat) reading from layer `from`, and returns
// the index of the concat layer. If poolExpand is true, a 3×3/2 max pool is
// fused into both expand convolutions (equivalent to pooling the concat,
// since pooling is per-channel; this is how an accelerator without a
// dedicated fire unit realizes the SqueezeNet pool placement).
func fire(specs []LayerSpec, name string, from, squeezeC, expandC int, poolExpand bool) ([]LayerSpec, int) {
	sq := LayerSpec{Name: name + "/squeeze1x1", Kind: KindConv, OutC: squeezeC, F: 1, S: 1, ReLU: true, Inputs: []int{from}}
	specs = append(specs, sq)
	sqIdx := len(specs) - 1
	e1 := LayerSpec{Name: name + "/expand1x1", Kind: KindConv, OutC: expandC, F: 1, S: 1, ReLU: true, Inputs: []int{sqIdx}}
	e3 := LayerSpec{Name: name + "/expand3x3", Kind: KindConv, OutC: expandC, F: 3, S: 1, P: 1, ReLU: true, Inputs: []int{sqIdx}}
	if poolExpand {
		for _, e := range []*LayerSpec{&e1, &e3} {
			e.Pool, e.PoolF, e.PoolS = PoolMax, 3, 2
		}
	}
	specs = append(specs, e1, e3)
	cat := LayerSpec{Name: name + "/concat", Kind: KindConcat, Inputs: []int{len(specs) - 2, len(specs) - 1}}
	specs = append(specs, cat)
	return specs, len(specs) - 1
}

// SqueezeNet returns the SqueezeNet the paper studies: two conv layers,
// eight fire modules, and three simple bypass paths (element-wise additions
// around fire3, fire5 and fire7, the fires whose input and output dims
// match). depthDiv scales channels as in AlexNet.
func SqueezeNet(numClasses, depthDiv int) *Network {
	d := depthDiv
	var specs []LayerSpec
	specs = append(specs, LayerSpec{Name: "conv1", Kind: KindConv,
		OutC: scaleC(96, d), F: 7, S: 2, ReLU: true,
		Pool: PoolMax, PoolF: 3, PoolS: 2, Inputs: []int{InputRef}})
	conv1 := 0

	var f2, f3, by3, f4, f5, by5, f6, f7, by7, f8, f9 int
	specs, f2 = fire(specs, "fire2", conv1, scaleC(16, d), scaleC(64, d), false)
	specs, f3 = fire(specs, "fire3", f2, scaleC(16, d), scaleC(64, d), false)
	specs = append(specs, LayerSpec{Name: "bypass23", Kind: KindEltwise, Inputs: []int{f2, f3}})
	by3 = len(specs) - 1
	specs, f4 = fire(specs, "fire4", by3, scaleC(32, d), scaleC(128, d), true)
	specs, f5 = fire(specs, "fire5", f4, scaleC(32, d), scaleC(128, d), false)
	specs = append(specs, LayerSpec{Name: "bypass45", Kind: KindEltwise, Inputs: []int{f4, f5}})
	by5 = len(specs) - 1
	specs, f6 = fire(specs, "fire6", by5, scaleC(48, d), scaleC(192, d), false)
	specs, f7 = fire(specs, "fire7", f6, scaleC(48, d), scaleC(192, d), false)
	specs = append(specs, LayerSpec{Name: "bypass67", Kind: KindEltwise, Inputs: []int{f6, f7}})
	by7 = len(specs) - 1
	specs, f8 = fire(specs, "fire8", by7, scaleC(64, d), scaleC(256, d), true)
	specs, f9 = fire(specs, "fire9", f8, scaleC(64, d), scaleC(256, d), false)

	// conv10 with fused global average pooling (1×1 conv, then average over
	// the whole remaining plane).
	net := MustNew("tmp", Shape{C: 3, H: 227, W: 227}, specs) // resolve shapes so far
	w := net.Shapes[f9].W
	specs = append(specs, LayerSpec{Name: "conv10", Kind: KindConv,
		OutC: numClasses, F: 1, S: 1, ReLU: true,
		Pool: PoolAvg, PoolF: w, PoolS: w, Inputs: []int{f9}})

	return MustNew(fmt.Sprintf("squeezenet/d%d", d), Shape{C: 3, H: 227, W: 227}, specs)
}

// VGG11 returns VGG configuration A (11 weighted layers), a beyond-the-
// paper target demonstrating the structure attack on deep uniform-kernel
// networks. depthDiv scales channels as elsewhere.
func VGG11(numClasses, depthDiv int) *Network {
	d := depthDiv
	conv := func(name string, outC int, pool bool) LayerSpec {
		s := LayerSpec{Name: name, Kind: KindConv, OutC: scaleC(outC, d), F: 3, S: 1, P: 1, ReLU: true}
		if pool {
			s.Pool, s.PoolF, s.PoolS = PoolMax, 2, 2
		}
		return s
	}
	return MustNew(fmt.Sprintf("vgg11/d%d", d), Shape{C: 3, H: 224, W: 224}, []LayerSpec{
		conv("conv1", 64, true),
		conv("conv2", 128, true),
		conv("conv3", 256, false),
		conv("conv4", 256, true),
		conv("conv5", 512, false),
		conv("conv6", 512, true),
		conv("conv7", 512, false),
		conv("conv8", 512, true),
		{Name: "fc9", Kind: KindFC, OutC: scaleC(4096, d), ReLU: true},
		{Name: "fc10", Kind: KindFC, OutC: scaleC(4096, d), ReLU: true},
		{Name: "fc11", Kind: KindFC, OutC: numClasses},
	})
}

// NiN returns a CIFAR-scale Network-in-Network: 5×5/3×3 convolutions each
// followed by 1×1 "mlpconv" layers, a global-average-pooled classifier and
// no FC layers — another beyond-the-paper generality target (1×1 kernels
// and a global pool stress the solver's corner cases).
func NiN(numClasses, depthDiv int) *Network {
	d := depthDiv
	return MustNew(fmt.Sprintf("nin/d%d", d), Shape{C: 3, H: 32, W: 32}, []LayerSpec{
		{Name: "conv1", Kind: KindConv, OutC: scaleC(192, d), F: 5, S: 1, P: 2, ReLU: true},
		{Name: "mlp1a", Kind: KindConv, OutC: scaleC(160, d), F: 1, S: 1, ReLU: true},
		{Name: "mlp1b", Kind: KindConv, OutC: scaleC(96, d), F: 1, S: 1, ReLU: true,
			Pool: PoolMax, PoolF: 2, PoolS: 2},
		{Name: "conv2", Kind: KindConv, OutC: scaleC(192, d), F: 5, S: 1, P: 2, ReLU: true},
		{Name: "mlp2a", Kind: KindConv, OutC: scaleC(192, d), F: 1, S: 1, ReLU: true},
		{Name: "mlp2b", Kind: KindConv, OutC: scaleC(192, d), F: 1, S: 1, ReLU: true,
			Pool: PoolAvg, PoolF: 2, PoolS: 2},
		{Name: "conv3", Kind: KindConv, OutC: scaleC(192, d), F: 3, S: 1, P: 1, ReLU: true},
		{Name: "mlp3a", Kind: KindConv, OutC: scaleC(192, d), F: 1, S: 1, ReLU: true},
		{Name: "mlp3b", Kind: KindConv, OutC: numClasses, F: 1, S: 1, ReLU: true,
			Pool: PoolAvg, PoolF: 8, PoolS: 8},
	})
}

// ResNetMini returns a small residual network in the style the paper cites
// when introducing bypass connections (He et al.): a stem convolution, two
// residual stages (each two 3×3 convolutions with an element-wise shortcut,
// the second stage downsampling through a 1×1 projection), and a global-
// average-pooled classifier. All shortcut additions are visible to the
// trace adversary as element-wise layers.
func ResNetMini(numClasses, depthDiv int) *Network {
	d := depthDiv
	c16, c32 := scaleC(16, d), scaleC(32, d)
	var specs []LayerSpec
	add := func(s LayerSpec) int {
		specs = append(specs, s)
		return len(specs) - 1
	}
	stem := add(LayerSpec{Name: "stem", Kind: KindConv, OutC: c16, F: 3, S: 1, P: 1, ReLU: true,
		Inputs: []int{InputRef}})
	// Stage 1: identity shortcut.
	b1a := add(LayerSpec{Name: "b1a", Kind: KindConv, OutC: c16, F: 3, S: 1, P: 1, ReLU: true, Inputs: []int{stem}})
	b1b := add(LayerSpec{Name: "b1b", Kind: KindConv, OutC: c16, F: 3, S: 1, P: 1, ReLU: true, Inputs: []int{b1a}})
	sum1 := add(LayerSpec{Name: "sum1", Kind: KindEltwise, Inputs: []int{stem, b1b}})
	// Stage 2: strided branch with a 1×1 projection shortcut.
	b2a := add(LayerSpec{Name: "b2a", Kind: KindConv, OutC: c32, F: 3, S: 2, P: 1, ReLU: true, Inputs: []int{sum1}})
	b2b := add(LayerSpec{Name: "b2b", Kind: KindConv, OutC: c32, F: 3, S: 1, P: 1, ReLU: true, Inputs: []int{b2a}})
	proj := add(LayerSpec{Name: "proj", Kind: KindConv, OutC: c32, F: 1, S: 2, ReLU: true, Inputs: []int{sum1}})
	sum2 := add(LayerSpec{Name: "sum2", Kind: KindEltwise, Inputs: []int{proj, b2b}})
	// Classifier: 1×1 conv + global average pool.
	net := MustNew("tmp", Shape{C: 3, H: 32, W: 32}, specs)
	w := net.Shapes[sum2].W
	add(LayerSpec{Name: "head", Kind: KindConv, OutC: numClasses, F: 1, S: 1, ReLU: true,
		Pool: PoolAvg, PoolF: w, PoolS: w, Inputs: []int{sum2}})
	return MustNew(fmt.Sprintf("resnetmini/d%d", d), Shape{C: 3, H: 32, W: 32}, specs)
}

// ConvConfig is a generic convolution-layer description used to materialize
// candidate structures recovered by the attack into trainable networks.
type ConvConfig struct {
	OutC, F, S, P       int
	Pool                PoolKind
	PoolF, PoolS, PoolP int
}

// Sequential builds a plain feed-forward network: the given conv layers
// (each with ReLU) followed by FC layers (ReLU on all but the last).
func Sequential(name string, input Shape, convs []ConvConfig, fcs []int) (*Network, error) {
	var specs []LayerSpec
	for i, c := range convs {
		specs = append(specs, LayerSpec{
			Name: fmt.Sprintf("conv%d", i+1), Kind: KindConv,
			OutC: c.OutC, F: c.F, S: c.S, P: c.P, ReLU: true,
			Pool: c.Pool, PoolF: c.PoolF, PoolS: c.PoolS, PoolP: c.PoolP,
		})
	}
	for i, out := range fcs {
		specs = append(specs, LayerSpec{
			Name: fmt.Sprintf("fc%d", len(convs)+i+1), Kind: KindFC,
			OutC: out, ReLU: i < len(fcs)-1,
		})
	}
	return New(name, input, specs)
}
