package weightrev

import (
	"context"
	"fmt"
	"math"

	"cnnrev/internal/nn"
	"cnnrev/internal/tensor"
)

// Geometry is the attacker's knowledge of the target layer's structure
// (obtained with the structure attack of §3).
type Geometry struct {
	In            nn.Shape
	OutC          int
	F, S, P       int
	Pool          nn.PoolKind
	PoolF, PoolS  int
	PoolBeforeAct bool
}

// Attacker drives the zero-crossing weight-recovery attack against an
// oracle.
type Attacker struct {
	O Oracle
	G Geometry
	// XMax bounds the probe-value search range; crossings beyond it (i.e.
	// |b/w| > XMax, extremely small weights) are reported as zero.
	XMax float64
	// Iters is the number of bisection refinements per crossing.
	Iters int
	// Serial forces RecoverAllFilters onto a plain sequential loop — the
	// reference mode the parallel path must match bit for bit.
	Serial bool
}

// NewAttacker returns an attacker with default search parameters.
func NewAttacker(o Oracle, g Geometry) *Attacker {
	return &Attacker{O: o, G: g, XMax: 64, Iters: 48}
}

// FilterRatios holds the recovered weight/bias ratios of one filter
// (output channel): Ratio[c][ky][kx] = w(c,ky,kx)/b, with Zero marking
// weights identified as zero (no crossing found — the paper's
// missing-zero-crossing rule).
type FilterRatios struct {
	Channel int
	Ratio   [][][]float64
	Zero    [][][]bool
}

// step searches [lo,hi] for the single count step of channel d when probe
// pixels[idx].V varies, and returns the crossing point.
func (a *Attacker) bisect(d int, pixels []Pixel, idx int, lo, hi float64) float64 {
	set := func(v float64) int {
		pixels[idx].V = float32(v)
		return a.O.CountChannel(d, pixels)
	}
	cLo := set(lo)
	for i := 0; i < a.Iters; i++ {
		mid := (lo + hi) / 2
		if set(mid) == cLo {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// findNewCrossing scans the probe range for a count step of channel d that
// is not explained by the predicted (already-known) crossings. It returns
// false only when no unexplained step exists anywhere (zero weight, or
// |b/w| beyond the search range).
func (a *Attacker) findNewCrossing(d int, pixels []Pixel, idx int, predicted []float64) (float64, bool) {
	count := func(v float64) int {
		pixels[idx].V = float32(v)
		return a.O.CountChannel(d, pixels)
	}
	return scanCrossing(count, -a.XMax, a.XMax, predicted, a.Iters)
}

// scanCrossing finds the crossing of an unexplained count step of the
// monotone-per-term step function count over [lo, hi]. Steps in the gaps
// between predicted crossings are bisected to full precision. A target
// crossing that coincides with a predicted one — common for quantized
// models, where many weights share a value — still betrays itself by the
// step across that point: k known flips of ±1 produce a net step of
// magnitude at most k with parity k, so any magnitude or parity anomaly
// means an extra (target) flip, and the crossing equals the predicted
// value.
func scanCrossing(count func(float64) int, lo, hi float64, predicted []float64, iters int) (float64, bool) {
	// Cluster predicted crossings, with margins exceeding both their
	// recovery error and the device's float32 quantization.
	var pts []float64
	for _, p := range predicted {
		if p > lo && p < hi {
			pts = append(pts, p)
		}
	}
	sortFloats(pts)
	type cluster struct {
		center float64
		k      int // number of predicted flips at this point
		lo, hi float64
	}
	var clusters []cluster
	for _, p := range pts {
		eps := 2e-5 * (1 + math.Abs(p))
		if n := len(clusters); n > 0 && p-eps <= clusters[n-1].hi {
			clusters[n-1].k++
			clusters[n-1].hi = p + eps
			continue
		}
		clusters = append(clusters, cluster{center: p, k: 1, lo: p - eps, hi: p + eps})
	}

	bisect := func(gl, gh float64) float64 {
		cl := count(gl)
		for i := 0; i < iters; i++ {
			mid := (gl + gh) / 2
			if count(mid) == cl {
				gl = mid
			} else {
				gh = mid
			}
		}
		return (gl + gh) / 2
	}

	// Walk the breakpoints left to right, evaluating each once.
	prevX := lo
	prevC := count(prevX)
	for _, cl := range clusters {
		if cl.lo <= prevX || cl.hi >= hi {
			continue // cluster clipped against the window; treat as gap
		}
		// Gap before this cluster.
		cLo := count(cl.lo)
		if cLo != prevC {
			return bisect(prevX, cl.lo), true
		}
		// Step across the cluster itself.
		cHi := count(cl.hi)
		step := cHi - cLo
		if absInt(step) > cl.k || (absInt(step)-cl.k)%2 != 0 {
			return cl.center, true // collision: target crossing ≈ predicted value
		}
		prevX, prevC = cl.hi, cHi
	}
	if count(hi) != prevC {
		return bisect(prevX, hi), true
	}
	return 0, false
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func sortFloats(x []float64) {
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j] < x[j-1]; j-- {
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
}

// CornerReachable reports whether RecoverFilterRatios can attack a layer
// of this geometry: an unpooled layer without padding, so that a probe
// pixel at the input's corner reaches one weight of a filter in isolation.
func (g Geometry) CornerReachable() error {
	if g.Pool != nn.PoolNone {
		return fmt.Errorf("weightrev: RecoverFilterRatios handles unpooled layers; use RecoverPooled* for fused pooling")
	}
	if g.P != 0 {
		return fmt.Errorf("weightrev: corner iteration requires P=0 (padding makes corner weights unreachable in isolation)")
	}
	return nil
}

// RecoverFilterRatios runs Algorithm 2 for one output channel of an
// unpooled conv layer with zero padding (P = 0), recovering w/b for every
// weight. Probe pixels iterate in raster order from the corner; at pixel
// (ky,kx) every other affected output goes through an already-recovered
// weight, so its crossing is predictable and the one unexplained step
// reveals b/w(ky,kx).
func (a *Attacker) RecoverFilterRatios(d int) (*FilterRatios, error) {
	return a.RecoverFilterRatiosCtx(context.Background(), d)
}

// RecoverFilterRatiosCtx is RecoverFilterRatios with cooperative
// cancellation, checked before each weight's crossing search — one
// scan-plus-bisection, tens of oracle queries — so an abandoned attack
// stops within a single-weight boundary.
func (a *Attacker) RecoverFilterRatiosCtx(ctx context.Context, d int) (*FilterRatios, error) {
	g := a.G
	if err := g.CornerReachable(); err != nil {
		return nil, err
	}
	res := &FilterRatios{Channel: d}
	res.Ratio = make([][][]float64, g.In.C)
	res.Zero = make([][][]bool, g.In.C)
	// crossings[c][ky][kx] = -b/w, NaN when w = 0.
	crossings := make([][][]float64, g.In.C)
	for c := 0; c < g.In.C; c++ {
		res.Ratio[c] = alloc2(g.F)
		res.Zero[c] = alloc2b(g.F)
		crossings[c] = alloc2(g.F)
		for ky := 0; ky < g.F; ky++ {
			for kx := 0; kx < g.F; kx++ {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				// Predicted crossings: outputs (m,n) ≥ (0,0), m·S ≤ ky etc.,
				// reached through weight (ky−mS, kx−nS); all but (0,0) known.
				var predicted []float64
				for m := 0; m*g.S <= ky; m++ {
					for n := 0; n*g.S <= kx; n++ {
						if m == 0 && n == 0 {
							continue
						}
						pky, pkx := ky-m*g.S, kx-n*g.S
						cr := crossings[c][pky][pkx]
						if !math.IsNaN(cr) {
							predicted = append(predicted, cr)
						}
					}
				}
				pix := []Pixel{{C: c, Y: ky, X: kx}}
				cr, ok := a.findNewCrossing(d, pix, 0, predicted)
				if !ok {
					crossings[c][ky][kx] = math.NaN()
					res.Zero[c][ky][kx] = true
					continue
				}
				crossings[c][ky][kx] = cr
				res.Ratio[c][ky][kx] = -1 / cr // w/b = −1/(−b/w crossing)
			}
		}
	}
	return res, nil
}

// RecoverAllFilters recovers every output channel of the layer. Filters
// are independent — channel d's bisections read only channel d's
// compressed write stream, and its query values depend only on its own
// earlier crossings — so unless Serial is set they fan out across the
// shared tensor worker pool. The oracle must be safe for concurrent
// queries (TraceOracle and FastOracle are); results and Queries() totals
// are then bit-identical to the serial reference regardless of schedule.
// On failure the first error in channel order is returned.
func (a *Attacker) RecoverAllFilters(ctx context.Context) ([]*FilterRatios, error) {
	n := a.G.OutC
	if n <= 0 {
		return nil, fmt.Errorf("weightrev: geometry has %d output channels", n)
	}
	results := make([]*FilterRatios, n)
	errs := make([]error, n)
	run := func(d int) {
		results[d], errs[d] = a.RecoverFilterRatiosCtx(ctx, d)
	}
	if a.Serial {
		for d := 0; d < n; d++ {
			run(d)
		}
	} else {
		tensor.Parallel(n, run)
	}
	for d, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("weightrev: filter %d: %w", d, err)
		}
	}
	return results, nil
}

func alloc2(f int) [][]float64 {
	m := make([][]float64, f)
	for i := range m {
		m[i] = make([]float64, f)
	}
	return m
}

func alloc2b(f int) [][]bool {
	m := make([][]bool, f)
	for i := range m {
		m[i] = make([]bool, f)
	}
	return m
}

// RecoverPooled1x1 recovers w/b for a 1×1 convolution fused with 2×2/2
// pooling (max or average). Each probe pixel at an even coordinate affects
// exactly one conv output, whose pool window companions stay at the bias
// value; with a negative bias the pooled non-zero indicator flips exactly
// at the crossing (§4.1's F=1 case).
func (a *Attacker) RecoverPooled1x1(d int) ([]float64, []bool, error) {
	g := a.G
	if g.F != 1 || g.Pool == nn.PoolNone || g.PoolF != 2 || g.PoolS != 2 {
		return nil, nil, fmt.Errorf("weightrev: RecoverPooled1x1 requires F=1 with 2x2/2 pooling")
	}
	ratios := make([]float64, g.In.C)
	zeros := make([]bool, g.In.C)
	for c := 0; c < g.In.C; c++ {
		pix := []Pixel{{C: c, Y: 0, X: 0}}
		cr, ok := a.findNewCrossing(d, pix, 0, nil)
		if !ok {
			zeros[c] = true
			continue
		}
		ratios[c] = -1 / cr
	}
	return ratios, zeros, nil
}

// RecoverPooledPair implements the paper's Eq. (10)/(11) two-pixel method
// for an F×F convolution (S=1, P=0) fused with 2×2/2 pooling: it recovers
// w(0,0)/b by probing x(0,0), then pins x(1,0) so that the merged output
// y(1,0) stays non-positive and probes x(0,0) again to expose w(1,0)/b.
// It requires a negative bias (otherwise max pooling hides all crossings,
// as §4.1 notes). It returns the two ratios (w00/b, w10/b) for channel c
// of filter d.
func (a *Attacker) RecoverPooledPair(d, c int) (r00, r10 float64, err error) {
	g := a.G
	if g.Pool == nn.PoolNone || g.PoolF != 2 || g.PoolS != 2 || g.S != 1 || g.P != 0 {
		return 0, 0, fmt.Errorf("weightrev: RecoverPooledPair requires S=1, P=0, 2x2/2 pooling")
	}
	// Step 1: w(0,0). Pixel (0,0) reaches only conv output (0,0); its pool
	// companions remain at the (negative) bias. Under max (or
	// ReLU-then-average) pooling the pooled indicator flips at −b/w00;
	// under Eq.-11 average-then-activate semantics all four raw window
	// terms contribute, so the flip is at −4b/w00.
	pix := []Pixel{{C: c, Y: 0, X: 0}}
	cr00, ok := a.findNewCrossing(d, pix, 0, nil)
	if !ok {
		return 0, 0, fmt.Errorf("weightrev: no crossing for w(0,0) — zero weight or bias not negative")
	}
	negBOverW00 := cr00 // −b/w00
	if g.Pool == nn.PoolAvg && g.PoolBeforeAct {
		negBOverW00 = cr00 / 4
		r00 = -4 / cr00
	} else {
		r00 = -1 / cr00
	}

	// Step 2: pin x(1,0) = τ with y(1,0) = w00·τ + b = b/2 ≤ 0, then search
	// x(0,0): the pooled window flips when y(0,0) = w00·v + w10·τ + b
	// crosses the activation boundary.
	tau := negBOverW00 / 2
	pins := []Pixel{{C: c, Y: 1, X: 0, V: float32(tau)}, {C: c, Y: 0, X: 0}}
	// Predicted crossings: none besides the target — y(1,0) is pinned
	// non-positive for all probe values, other windows see only the pin.
	cr, ok := a.findNewCrossing(d, pins, 1, nil)
	if !ok {
		return r00, 0, fmt.Errorf("weightrev: no crossing for w(1,0)")
	}
	if g.Pool == nn.PoolMax && !g.PoolBeforeAct {
		// y00 = w00·v + w10·τ + b = 0 at v = cr →
		// w10 = −(b + w00·cr)/τ → w10/b = −(1 + (w00/b)·cr)/τ.
		r10 = -(1 + r00*cr) / tau
		return r00, r10, nil
	}
	if g.Pool == nn.PoolAvg && g.PoolBeforeAct {
		// Eq. (11) semantics: pooled(0,0) = (y00 + y01 + y10 + y11)/4 with
		// y01 = y11 = b and y10 = w00·τ + b:
		// crossing when w00·v + w10·τ + w00·τ + 4b = 0 →
		// w10/b = −(4 + (w00/b)(v + τ))/τ.
		r10 = -(4 + r00*(cr+tau)) / tau
		return r00, r10, nil
	}
	if g.Pool == nn.PoolAvg && !g.PoolBeforeAct {
		// ReLU-then-average: the pooled sum is non-zero iff any window term
		// is positive; with the pin keeping y10 ≤ 0 the flip is y00's:
		// same algebra as the max case.
		r10 = -(1 + r00*cr) / tau
		return r00, r10, nil
	}
	return 0, 0, fmt.Errorf("weightrev: unsupported pooling configuration")
}

// RecoverBias exploits a tunable activation threshold (§4.1): with an
// all-zero input every output pixel equals the bias, so sweeping the
// threshold until the channel's non-zero count flips locates b exactly.
// tMax bounds the search.
func (a *Attacker) RecoverBias(d int, tMax float64) (float64, error) {
	count := func(t float64) int {
		a.O.SetThreshold(float32(t))
		return a.O.CountChannel(d, nil)
	}
	lo, hi := -tMax, tMax
	cLo := count(lo)
	if count(hi) == cLo {
		a.O.SetThreshold(0)
		return 0, fmt.Errorf("weightrev: bias outside ±%g or zero", tMax)
	}
	for i := 0; i < a.Iters; i++ {
		mid := (lo + hi) / 2
		if count(mid) == cLo {
			lo = mid
		} else {
			hi = mid
		}
	}
	a.O.SetThreshold(0)
	return (lo + hi) / 2, nil
}

// RecoverWeights combines ratio recovery with threshold-based bias recovery
// to reconstruct the exact weights of filter d (unpooled, P=0 layer).
func (a *Attacker) RecoverWeights(d int, tMax float64) (weights [][][]float64, bias float64, err error) {
	ratios, err := a.RecoverFilterRatios(d)
	if err != nil {
		return nil, 0, err
	}
	bias, err = a.RecoverBias(d, tMax)
	if err != nil {
		return nil, 0, err
	}
	weights = make([][][]float64, a.G.In.C)
	for c := range weights {
		weights[c] = alloc2(a.G.F)
		for ky := 0; ky < a.G.F; ky++ {
			for kx := 0; kx < a.G.F; kx++ {
				if !ratios.Zero[c][ky][kx] {
					weights[c][ky][kx] = ratios.Ratio[c][ky][kx] * bias
				}
			}
		}
	}
	return weights, bias, nil
}
