package weightrev

import (
	"fmt"
	"sync/atomic"

	"cnnrev/internal/accel"
	"cnnrev/internal/nn"
)

// FastOracle computes the same per-channel non-zero counts as TraceOracle
// but analytically, exploiting that attack queries are all-zero except a
// handful of pixels: the convolution output equals the bias everywhere
// except the few positions the probe pixels touch. It implements the exact
// semantics of the simulated accelerator's fused conv → activation → pool
// pipeline (including threshold activations, clipped max-pool windows,
// fixed-divisor average pooling, and the optional pool-before-activation
// order), and is validated bit-for-bit against TraceOracle by tests.
type FastOracle struct {
	net   *nn.Network
	layer int
	spec  *nn.LayerSpec
	in    nn.Shape
	conv  nn.Shape
	out   nn.Shape

	thresh        float32
	poolBeforeAct bool

	// base state for the all-zero input: per channel, the non-zero count,
	// and (for pooled layers) per pooled position whether it is non-zero.
	baseCount []int
	baseNZ    [][]bool

	// queries[d] counts the queries on channel d, and queries[out.C] the
	// Counts calls. Each counter has its own cache line, so workers
	// recovering different filters never write a line another one reads.
	queries []paddedCount
}

// paddedCount is a query counter filling a 64-byte cache line: counters
// in one slice are a line apart, so no two share one.
type paddedCount struct {
	atomic.Int64
	_ [56]byte
}

// NewFastOracle builds the analytic oracle for layer 0 of net, mirroring
// the semantics selected by cfg.
func NewFastOracle(net *nn.Network, cfg accel.Config, layer int) (*FastOracle, error) {
	if layer != 0 {
		return nil, fmt.Errorf("weightrev: the fast oracle models attacker-controlled layer inputs, so the target must be layer 0")
	}
	spec := &net.Specs[layer]
	if spec.Kind != nn.KindConv {
		return nil, fmt.Errorf("weightrev: layer %d is not a conv layer", layer)
	}
	o := &FastOracle{
		net:           net,
		layer:         layer,
		spec:          spec,
		in:            net.Input,
		conv:          spec.ConvOut(net.Input),
		out:           net.Shapes[layer],
		thresh:        cfg.Threshold,
		poolBeforeAct: cfg.PoolBeforeActivation,
	}
	o.queries = make([]paddedCount, o.out.C+1)
	o.rebuildBase()
	return o, nil
}

// SetThreshold adjusts the activation threshold.
func (o *FastOracle) SetThreshold(t float32) {
	o.thresh = t
	o.rebuildBase()
}

// Queries returns the number of device inferences issued.
func (o *FastOracle) Queries() int {
	var n int64
	for i := range o.queries {
		n += o.queries[i].Load()
	}
	return int(n)
}

func (o *FastOracle) weight(d, c, ky, kx int) float32 {
	f := o.spec.F
	return o.net.Params[o.layer].W.Data[((d*o.in.C+c)*f+ky)*f+kx]
}

func (o *FastOracle) bias(d int) float32 {
	return o.net.Params[o.layer].B.Data[d]
}

func (o *FastOracle) act(v float32) float32 {
	if v > o.thresh {
		return v
	}
	return 0
}

// convValue evaluates the conv output at (d, cy, cx) for a sparse input.
func (o *FastOracle) convValue(d, cy, cx int, pixels []Pixel) float32 {
	spec := o.spec
	v := o.bias(d)
	for _, p := range pixels {
		ky := p.Y - (cy*spec.S - spec.P)
		kx := p.X - (cx*spec.S - spec.P)
		if ky >= 0 && ky < spec.F && kx >= 0 && kx < spec.F {
			v += o.weight(d, p.C, ky, kx) * p.V
		}
	}
	return v
}

// pooledValue evaluates the fused pooled output at (d, py, px), honoring
// the configured activation order, for a sparse input.
func (o *FastOracle) pooledValue(d, py, px int, pixels []Pixel) float32 {
	spec := o.spec
	if spec.Pool == nn.PoolNone {
		return o.act(o.convValue(d, py, px, pixels))
	}
	y0 := py*spec.PoolS - spec.PoolP
	x0 := px*spec.PoolS - spec.PoolP
	var maxV float32
	var sum float32
	first := true
	for ky := 0; ky < spec.PoolF; ky++ {
		cy := y0 + ky
		if cy < 0 || cy >= o.conv.H {
			continue
		}
		for kx := 0; kx < spec.PoolF; kx++ {
			cx := x0 + kx
			if cx < 0 || cx >= o.conv.W {
				continue
			}
			v := o.convValue(d, cy, cx, pixels)
			if !o.poolBeforeAct {
				v = o.act(v)
			}
			if first || v > maxV {
				maxV = v
				first = false
			}
			sum += v
		}
	}
	var pooled float32
	if spec.Pool == nn.PoolMax {
		pooled = maxV
	} else {
		pooled = sum / float32(spec.PoolF*spec.PoolF)
	}
	if o.poolBeforeAct {
		pooled = o.act(pooled)
	}
	return pooled
}

// rebuildBase evaluates the all-zero-input output state once per channel.
func (o *FastOracle) rebuildBase() {
	o.baseCount = make([]int, o.out.C)
	o.baseNZ = make([][]bool, o.out.C)
	for d := 0; d < o.out.C; d++ {
		nz := make([]bool, o.out.H*o.out.W)
		n := 0
		for py := 0; py < o.out.H; py++ {
			for px := 0; px < o.out.W; px++ {
				if o.pooledValue(d, py, px, nil) != 0 {
					nz[py*o.out.W+px] = true
					n++
				}
			}
		}
		o.baseNZ[d] = nz
		o.baseCount[d] = n
	}
}

// span is an inclusive range of output indices; it is empty when lo > hi.
type span struct{ lo, hi int }

// windowSpan returns the outputs, among w, of a window of width f, stride s
// and padding pad whose window covers input index p: the m with
// 0 <= p - (m*s - pad) < f.
func windowSpan(p, f, s, pad, w int) span {
	lo := (p + pad - f + 1 + s - 1) / s // ceil; a negative bound clamps to 0 either way
	if lo < 0 {
		lo = 0
	}
	hi := (p + pad) / s
	if hi > w-1 {
		hi = w - 1
	}
	return span{lo, hi}
}

// affected returns the rectangle of output (pooled) positions whose value
// a probe pixel can move away from the base state. A pixel reaches a
// rectangle of conv positions, and since pooling windows are monotone in
// position, the pooled outputs over that rectangle form a rectangle too:
// from the first window covering its top-left corner to the last covering
// its bottom-right.
func (o *FastOracle) affected(p Pixel) (ys, xs span) {
	spec := o.spec
	ys = windowSpan(p.Y, spec.F, spec.S, spec.P, o.conv.H)
	xs = windowSpan(p.X, spec.F, spec.S, spec.P, o.conv.W)
	if spec.Pool == nn.PoolNone || ys.lo > ys.hi || xs.lo > xs.hi {
		return ys, xs
	}
	ys = span{
		windowSpan(ys.lo, spec.PoolF, spec.PoolS, spec.PoolP, o.out.H).lo,
		windowSpan(ys.hi, spec.PoolF, spec.PoolS, spec.PoolP, o.out.H).hi,
	}
	xs = span{
		windowSpan(xs.lo, spec.PoolF, spec.PoolS, spec.PoolP, o.out.W).lo,
		windowSpan(xs.hi, spec.PoolF, spec.PoolS, spec.PoolP, o.out.W).hi,
	}
	return ys, xs
}

// affectedBefore reports whether output (y, x) lies in the affected
// rectangle of one of pixels, so each position is counted once however
// many probe pixels reach it.
func (o *FastOracle) affectedBefore(pixels []Pixel, y, x int) bool {
	for _, p := range pixels {
		ys, xs := o.affected(p)
		if ys.lo <= y && y <= ys.hi && xs.lo <= x && x <= xs.hi {
			return true
		}
	}
	return false
}

// CountChannel returns the non-zero output count of channel d. It
// allocates nothing.
func (o *FastOracle) CountChannel(d int, pixels []Pixel) int {
	o.queries[d].Add(1)
	return o.countChannel(d, pixels)
}

// countChannel starts from the all-zero input's count and adds ±1 for
// every affected position whose zero-ness the probe flips. The sum does
// not depend on the order the positions are visited in.
func (o *FastOracle) countChannel(d int, pixels []Pixel) int {
	n := o.baseCount[d]
	base := o.baseNZ[d]
	for i, p := range pixels {
		ys, xs := o.affected(p)
		for y := ys.lo; y <= ys.hi; y++ {
			for x := xs.lo; x <= xs.hi; x++ {
				if i > 0 && o.affectedBefore(pixels[:i], y, x) {
					continue
				}
				now := o.pooledValue(d, y, x, pixels) != 0
				was := base[y*o.out.W+x]
				if now && !was {
					n++
				} else if !now && was {
					n--
				}
			}
		}
	}
	return n
}

// Counts returns all channels' non-zero counts.
func (o *FastOracle) Counts(pixels []Pixel) []int {
	o.queries[o.out.C].Add(1)
	counts := make([]int, o.out.C)
	for d := range counts {
		counts[d] = o.countChannel(d, pixels)
	}
	return counts
}
