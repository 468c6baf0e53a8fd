package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The scalar loops below are the kernels as they were before their fast
// paths: one output element at a time, bounds-checked, no unrolling. Each
// rewritten kernel must reproduce them bit for bit — same products, same
// summation order per output element — on every path it can take.

// refGemmAcc is C += A·B, rows i, then k, then columns, skipping zero A.
func refGemmAcc(a, b, c []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : i*k+k]
		crow := c[i*n : i*n+n]
		for p, av := range arow {
			if av == 0 {
				continue
			}
			brow := b[p*n : p*n+n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// refGemmTransAAcc is C += Aᵀ·B with A stored k×m, skipping zero A.
func refGemmTransAAcc(a, b, c []float32, m, k, n int) {
	for p := 0; p < k; p++ {
		arow := a[p*m : p*m+m]
		brow := b[p*n : p*n+n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			crow := c[i*n : i*n+n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// refGemmTransBAcc is C += A·Bᵀ with B stored n×k: each element adds the
// dot products of successive chunk-wide slices of k (chunk ≥ k is one
// dot over the whole row, as on the unpacked paths).
func refGemmTransBAcc(a, b, c []float32, m, k, n, chunk int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			for pc := 0; pc < k; pc += chunk {
				kc := min(chunk, k-pc)
				c[i*n+j] += refDot(a[i*k+pc:i*k+pc+kc], b[j*k+pc:j*k+pc+kc])
			}
		}
	}
}

// refDot is the four-accumulator inner product.
func refDot(x, y []float32) float32 {
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	for ; i < len(x); i++ {
		s0 += x[i] * y[i]
	}
	return (s0 + s1) + (s2 + s3)
}

func refLinearForward(l Linear, in, weights, bias, out []float32) {
	for o := 0; o < l.Out; o++ {
		row := weights[o*l.In : (o+1)*l.In]
		var s float32
		for i, v := range in {
			s += row[i] * v
		}
		if bias != nil {
			s += bias[o]
		}
		out[o] = s
	}
}

func refLinearBackward(l Linear, in, weights, dOut, dWeights, dBias, dIn []float32) {
	for o := 0; o < l.Out; o++ {
		g := dOut[o]
		if dBias != nil {
			dBias[o] += g
		}
		if g == 0 {
			continue
		}
		drow := dWeights[o*l.In : (o+1)*l.In]
		for i, v := range in {
			drow[i] += g * v
		}
	}
	if dIn != nil {
		for i := range dIn[:l.In] {
			dIn[i] = 0
		}
		for o := 0; o < l.Out; o++ {
			g := dOut[o]
			if g == 0 {
				continue
			}
			row := weights[o*l.In : (o+1)*l.In]
			for i, v := range row {
				dIn[i] += g * v
			}
		}
	}
}

func refIm2col(c Conv2D, in []float32, h, w int, cols []float32) {
	oh, ow := c.OutDims(h, w)
	rowLen := oh * ow
	for ch := 0; ch < c.InC; ch++ {
		chBase := ch * h * w
		for ky := 0; ky < c.F; ky++ {
			for kx := 0; kx < c.F; kx++ {
				r := (ch*c.F+ky)*c.F + kx
				dst := cols[r*rowLen : (r+1)*rowLen]
				di := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*c.S - c.P + ky
					if iy < 0 || iy >= h {
						for ox := 0; ox < ow; ox++ {
							dst[di] = 0
							di++
						}
						continue
					}
					rowBase := chBase + iy*w
					for ox := 0; ox < ow; ox++ {
						ix := ox*c.S - c.P + kx
						if ix < 0 || ix >= w {
							dst[di] = 0
						} else {
							dst[di] = in[rowBase+ix]
						}
						di++
					}
				}
			}
		}
	}
}

func refCol2im(c Conv2D, cols []float32, h, w int, dIn []float32) {
	oh, ow := c.OutDims(h, w)
	rowLen := oh * ow
	for ch := 0; ch < c.InC; ch++ {
		chBase := ch * h * w
		for ky := 0; ky < c.F; ky++ {
			for kx := 0; kx < c.F; kx++ {
				r := (ch*c.F+ky)*c.F + kx
				src := cols[r*rowLen : (r+1)*rowLen]
				si := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*c.S - c.P + ky
					if iy < 0 || iy >= h {
						si += ow
						continue
					}
					rowBase := chBase + iy*w
					for ox := 0; ox < ow; ox++ {
						ix := ox*c.S - c.P + kx
						if ix >= 0 && ix < w {
							dIn[rowBase+ix] += src[si]
						}
						si++
					}
				}
			}
		}
	}
}

func refMaxForward(p Pool2D, in []float32, c, h, w int, out []float32, argmax []int) {
	oh, ow := p.OutDim(h), p.OutDim(w)
	oi := 0
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for oy := 0; oy < oh; oy++ {
			y0 := oy*p.S - p.P
			for ox := 0; ox < ow; ox++ {
				x0 := ox*p.S - p.P
				best := float32(math.Inf(-1))
				bestIdx := -1
				for ky := 0; ky < p.F; ky++ {
					iy := y0 + ky
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < p.F; kx++ {
						ix := x0 + kx
						if ix < 0 || ix >= w {
							continue
						}
						v := in[base+iy*w+ix]
						if v > best {
							best, bestIdx = v, base+iy*w+ix
						}
					}
				}
				if bestIdx < 0 {
					best = 0
				}
				out[oi] = best
				if argmax != nil {
					argmax[oi] = bestIdx
				}
				oi++
			}
		}
	}
}

// sparseSlice draws n normal values with about a third of them exactly
// zero, so the kernels' zero-skips are taken.
func sparseSlice(rng *rand.Rand, n int) []float32 {
	s := randSlice(rng, n)
	for i := range s {
		if rng.Intn(3) == 0 {
			s[i] = 0
		}
	}
	return s
}

// requireBits fails unless got and want hold the same float32 bit patterns.
func requireBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d is %v (%#x), scalar reference %v (%#x)",
				what, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestGemmKernelsBitIdentical runs every GEMM entry point on shapes that
// take each path — unblocked (under 2^16 MACs), skinny m < 16 over
// column blocks, and packed panels with partial KC and NC tails — with
// zeros in A and an infinity in B, against the scalar loops.
func TestGemmKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, s := range []struct {
		name    string
		m, k, n int
	}{
		{"tiny", 1, 1, 1},
		{"unblocked", 7, 13, 29},
		{"unblocked-odd", 15, 33, 131},
		{"skinny", 6, 25, 576},
		{"skinny-m1", 1, 300, 700},
		{"packed", 16, 150, 64},
		{"packed-partial-panels", 40, 300, 600},
		{"packed-tall", 150, 16, 64},
	} {
		m, k, n := s.m, s.k, s.n
		a, b := sparseSlice(rng, m*k), randSlice(rng, k*n)
		// One infinite B element: a zero A element that meets it must be
		// skipped, not turned into 0·Inf = NaN.
		b[(k/2)*n+n-1] = float32(math.Inf(1))
		c0 := randSlice(rng, m*n)

		got := make([]float32, m*n)
		want := make([]float32, m*n)
		Gemm(a, b, got, m, k, n)
		refGemmAcc(a, b, want, m, k, n)
		requireBits(t, s.name+" Gemm", got, want)

		copy(got, c0)
		copy(want, c0)
		GemmAcc(a, b, got, m, k, n)
		refGemmAcc(a, b, want, m, k, n)
		requireBits(t, s.name+" GemmAcc", got, want)

		// Aᵀ·B: A is stored k×m.
		clear(want)
		GemmTransA(a, b, got, m, k, n)
		refGemmTransAAcc(a, b, want, m, k, n)
		requireBits(t, s.name+" GemmTransA", got, want)

		// A·Bᵀ: B is stored n×k. The packed path sums blockKC-wide dots.
		chunk := k
		if m*k*n >= gemmParallelThreshold && m >= gemmPackMinRows {
			chunk = blockKC
		}
		bt := randSlice(rng, n*k)
		clear(want)
		GemmTransB(a, bt, got, m, k, n)
		refGemmTransBAcc(a, bt, want, m, k, n, chunk)
		requireBits(t, s.name+" GemmTransB", got, want)

		copy(got, c0)
		copy(want, c0)
		GemmTransBAcc(a, bt, got, m, k, n)
		refGemmTransBAcc(a, bt, want, m, k, n, chunk)
		requireBits(t, s.name+" GemmTransBAcc", got, want)
	}
}

// TestLinearBitIdentical covers row counts that are and are not multiples
// of the forward pass's four-row unroll, zero upstream gradients meeting
// infinities, and the optional bias and input gradient.
func TestLinearBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, d := range [][2]int{{1, 1}, {5, 3}, {16, 4}, {13, 7}, {120, 84}, {400, 10}} {
		l := Linear{In: d[0], Out: d[1]}
		in, w := sparseSlice(rng, l.In), randSlice(rng, l.In*l.Out)
		for _, bias := range [][]float32{nil, randSlice(rng, l.Out)} {
			got, want := make([]float32, l.Out), make([]float32, l.Out)
			l.Forward(in, w, bias, got)
			refLinearForward(l, in, w, bias, want)
			requireBits(t, "Linear.Forward", got, want)
		}
		// Infinite inputs and weights meet zero upstream gradients, which
		// must be skipped rather than turned into 0·Inf = NaN.
		dOut := sparseSlice(rng, l.Out)
		in, w = append([]float32(nil), in...), append([]float32(nil), w...)
		in[l.In/2] = float32(math.Inf(-1))
		for o, g := range dOut {
			if g == 0 {
				w[o*l.In] = float32(math.Inf(1))
			}
		}
		dW0, dB0 := randSlice(rng, l.In*l.Out), randSlice(rng, l.Out)
		for _, withIn := range []bool{false, true} {
			gotW, wantW := append([]float32(nil), dW0...), append([]float32(nil), dW0...)
			gotB, wantB := append([]float32(nil), dB0...), append([]float32(nil), dB0...)
			var gotIn, wantIn []float32
			if withIn {
				gotIn, wantIn = randSlice(rng, l.In), make([]float32, l.In)
			}
			l.Backward(in, w, dOut, gotW, gotB, gotIn)
			refLinearBackward(l, in, w, dOut, wantW, wantB, wantIn)
			requireBits(t, "Linear.Backward dW", gotW, wantW)
			requireBits(t, "Linear.Backward dB", gotB, wantB)
			requireBits(t, "Linear.Backward dIn", gotIn, wantIn)
		}
	}
}

// TestIm2colCol2imBitIdentical covers padded, strided, stride-over-kernel
// and AlexNet CONV1 geometries on non-square inputs.
func TestIm2colCol2imBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, g := range []struct {
		c    Conv2D
		h, w int
	}{
		{Conv2D{InC: 1, F: 1, S: 1}, 4, 5},
		{Conv2D{InC: 2, F: 3, S: 1, P: 1}, 7, 6},
		{Conv2D{InC: 3, F: 5, S: 1, P: 2}, 9, 11},
		{Conv2D{InC: 2, F: 3, S: 2, P: 1}, 10, 9},
		{Conv2D{InC: 1, F: 2, S: 3, P: 0}, 11, 8},
		{Conv2D{InC: 2, F: 1, S: 2, P: 1}, 6, 7},
		{Conv2D{InC: 3, F: 11, S: 4, P: 0}, 35, 39},
		{Conv2D{InC: 2, F: 5, S: 3, P: 4}, 8, 13},
		{Conv2D{InC: 1, F: 3, S: 1, P: 3}, 2, 3},
	} {
		c := g.c
		oh, ow := c.OutDims(g.h, g.w)
		size := c.InC * c.F * c.F * oh * ow
		in := randSlice(rng, c.InC*g.h*g.w)
		got := randSlice(rng, size) // stale scratch must be overwritten
		want := make([]float32, size)
		c.Im2col(in, g.h, g.w, got)
		refIm2col(c, in, g.h, g.w, want)
		requireBits(t, "Im2col", got, want)

		cols := randSlice(rng, size)
		dIn := randSlice(rng, len(in))
		wantIn := append([]float32(nil), dIn...)
		c.Col2im(cols, g.h, g.w, dIn)
		refCol2im(c, cols, g.h, g.w, wantIn)
		requireBits(t, "Col2im", dIn, wantIn)
	}
}

// TestMaxForwardBitIdentical covers windows clipped at every edge, windows
// wholly in padding, ties, −Inf-only windows and NaN inputs; outputs and
// argmax must both match.
func TestMaxForwardBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	negInf, nan := float32(math.Inf(-1)), float32(math.NaN())
	for _, g := range []struct {
		p       Pool2D
		c, h, w int
	}{
		{Pool2D{F: 2, S: 2}, 2, 8, 8},
		{Pool2D{F: 3, S: 2}, 3, 13, 13},
		{Pool2D{F: 3, S: 2, Ceil: true}, 2, 12, 10},
		{Pool2D{F: 3, S: 1, P: 1}, 2, 6, 7},
		{Pool2D{F: 2, S: 3, P: 1, Ceil: true}, 1, 9, 8},
		{Pool2D{F: 3, S: 2, P: 2, Ceil: true}, 1, 5, 5},
		{Pool2D{F: 2, S: 2, P: 2}, 2, 5, 6}, // first windows wholly in padding
	} {
		p := g.p
		oh, ow := p.OutDim(g.h), p.OutDim(g.w)
		in := randSlice(rng, g.c*g.h*g.w)
		for i := range in {
			switch r := rng.Intn(10); {
			case r == 0:
				in[i] = negInf
			case r == 1:
				in[i] = nan
			case r < 4:
				in[i] = float32(rng.Intn(3)) // ties
			}
		}
		// One channel of -Inf and NaN only: windows with no selectable
		// maximum.
		for i := 0; i < g.h*g.w; i++ {
			in[i] = negInf
			if i%3 == 0 {
				in[i] = nan
			}
		}
		got, want := make([]float32, g.c*oh*ow), make([]float32, g.c*oh*ow)
		gotArg, wantArg := make([]int, len(got)), make([]int, len(want))
		p.MaxForward(in, g.c, g.h, g.w, got, gotArg)
		refMaxForward(p, in, g.c, g.h, g.w, want, wantArg)
		requireBits(t, "MaxForward", got, want)
		for i := range wantArg {
			if gotArg[i] != wantArg[i] {
				t.Fatalf("%+v: argmax[%d] = %d, scalar reference %d", p, i, gotArg[i], wantArg[i])
			}
		}
		p.MaxForward(in, g.c, g.h, g.w, got, nil)
		requireBits(t, "MaxForward without argmax", got, want)
	}
}
