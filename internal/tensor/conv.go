package tensor

// ConvOutDim returns the spatial output extent of a convolution with kernel
// width f, per-side padding p and stride s over an input of extent w:
// floor((w − f + 2p)/s) + 1. It returns 0 when the kernel does not fit.
// Every component of the reproduction (simulator, solver, attacks) shares
// this arithmetic so that the constraint equations match the victim exactly.
func ConvOutDim(w, f, s, p int) int {
	num := w - f + 2*p
	if num < 0 || s <= 0 {
		return 0
	}
	return num/s + 1
}

// PoolOutDim returns the spatial output extent of a pooling window of width
// f, per-side padding p and stride s over an input of extent w using
// Caffe-style ceil semantics: ceil((w − f + 2p)/s) + 1. Paper Table 4 is
// only consistent with ceil-mode pooling (e.g. 55 → 27 with F=3, S=2).
func PoolOutDim(w, f, s, p int) int {
	num := w - f + 2*p
	if num < 0 || s <= 0 {
		return 0
	}
	return (num+s-1)/s + 1
}

// Conv2D holds the immutable geometry of a 2-D convolution layer.
type Conv2D struct {
	InC, OutC int // channel counts
	F         int // square kernel width
	S         int // stride
	P         int // per-side zero padding
}

// OutDims returns the spatial output size for an h×w input.
func (c Conv2D) OutDims(h, w int) (oh, ow int) {
	return ConvOutDim(h, c.F, c.S, c.P), ConvOutDim(w, c.F, c.S, c.P)
}

// validCols returns the output columns [lo, hi) whose kernel column kx
// lands inside an input row of width w; the others read padding.
func (c Conv2D) validCols(kx, w, ow int) (lo, hi int) {
	if n := c.P - kx; n > 0 {
		lo = (n + c.S - 1) / c.S
	}
	if n := w - 1 + c.P - kx; n >= 0 {
		hi = min(n/c.S+1, ow)
	}
	return min(lo, hi), hi
}

// Im2col expands an input image (InC×H×W, flat) into a column matrix of
// shape (InC·F·F) × (OH·OW) so convolution becomes a single GEMM. cols must
// have capacity InC·F·F·OH·OW. Each output row is a zero-filled padding
// prefix and suffix around one span read from an input row, a plain copy
// at stride 1.
func (c Conv2D) Im2col(in []float32, h, w int, cols []float32) (oh, ow int) {
	oh, ow = c.OutDims(h, w)
	rowLen := oh * ow
	for ch := 0; ch < c.InC; ch++ {
		plane := in[ch*h*w : (ch+1)*h*w]
		for ky := 0; ky < c.F; ky++ {
			for kx := 0; kx < c.F; kx++ {
				r := (ch*c.F+ky)*c.F + kx
				dst := cols[r*rowLen : (r+1)*rowLen]
				lo, hi := c.validCols(kx, w, ow)
				for oy := 0; oy < oh; oy++ {
					row := dst[oy*ow : (oy+1)*ow]
					iy := oy*c.S - c.P + ky
					if iy < 0 || iy >= h || lo == hi {
						clear(row)
						continue
					}
					clear(row[:lo])
					clear(row[hi:])
					src := plane[iy*w+lo*c.S-c.P+kx:]
					if c.S == 1 {
						copy(row[lo:hi], src)
						continue
					}
					for ox := lo; ox < hi; ox++ {
						row[ox] = src[(ox-lo)*c.S]
					}
				}
			}
		}
	}
	return oh, ow
}

// Col2im scatters a column-matrix gradient back onto an input-shaped
// gradient buffer, accumulating where kernel windows overlap. It is the
// adjoint of Im2col. dIn must be pre-zeroed by the caller if accumulation
// from scratch is desired. Every input element receives its terms in the
// same (ky, kx, oy, ox) order as a loop over all columns would give it.
func (c Conv2D) Col2im(cols []float32, h, w int, dIn []float32) {
	oh, ow := c.OutDims(h, w)
	rowLen := oh * ow
	for ch := 0; ch < c.InC; ch++ {
		plane := dIn[ch*h*w : (ch+1)*h*w]
		for ky := 0; ky < c.F; ky++ {
			for kx := 0; kx < c.F; kx++ {
				r := (ch*c.F+ky)*c.F + kx
				src := cols[r*rowLen : (r+1)*rowLen]
				lo, hi := c.validCols(kx, w, ow)
				if lo == hi {
					continue
				}
				for oy := 0; oy < oh; oy++ {
					iy := oy*c.S - c.P + ky
					if iy < 0 || iy >= h {
						continue
					}
					row := src[oy*ow+lo : oy*ow+hi]
					dst := plane[iy*w+lo*c.S-c.P+kx:]
					if c.S == 1 {
						dst = dst[:len(row)]
						for j, v := range row {
							dst[j] += v
						}
						continue
					}
					for j, v := range row {
						dst[j*c.S] += v
					}
				}
			}
		}
	}
}

// Forward computes the convolution of a single image in (InC×H×W) with
// weights (OutC × InC·F·F) and per-output-channel bias, writing the result
// (OutC×OH×OW) into out. cols is scratch space of size InC·F·F·OH·OW; pass
// nil to allocate internally.
func (c Conv2D) Forward(in []float32, h, w int, weights, bias, out, cols []float32) (oh, ow int) {
	oh, ow = c.OutDims(h, w)
	k := c.InC * c.F * c.F
	if cols == nil {
		cols = make([]float32, k*oh*ow)
	}
	c.Im2col(in, h, w, cols)
	Gemm(weights, cols, out, c.OutC, k, oh*ow)
	if bias != nil {
		plane := oh * ow
		for oc := 0; oc < c.OutC; oc++ {
			b := bias[oc]
			row := out[oc*plane : (oc+1)*plane]
			for i := range row {
				row[i] += b
			}
		}
	}
	return oh, ow
}

// Backward computes gradients for a single image given upstream gradient
// dOut (OutC×OH×OW). It accumulates into dWeights (OutC × InC·F·F) and dBias
// (OutC), and writes the input gradient into dIn (InC×H×W, overwritten).
// Passing nil for dIn skips input-gradient computation (first layer).
// cols must hold the Im2col expansion of the forward input (recomputed here
// from in), and colsGrad is scratch of the same size; pass nil to allocate.
func (c Conv2D) Backward(in []float32, h, w int, weights, dOut, dWeights, dBias, dIn, cols, colsGrad []float32) {
	oh, ow := c.OutDims(h, w)
	k := c.InC * c.F * c.F
	n := oh * ow
	if cols == nil {
		cols = make([]float32, k*n)
	}
	c.Im2col(in, h, w, cols)

	// dW += dOut · colsᵀ  (OutC×n)·(n×k)
	GemmTransBAcc(dOut, cols, dWeights, c.OutC, n, k)

	if dBias != nil {
		for oc := 0; oc < c.OutC; oc++ {
			var s float32
			for _, v := range dOut[oc*n : (oc+1)*n] {
				s += v
			}
			dBias[oc] += s
		}
	}

	if dIn != nil {
		if colsGrad == nil {
			colsGrad = make([]float32, k*n)
		}
		// dcols = Wᵀ · dOut  (k×OutC)·(OutC×n)
		GemmTransA(weights, dOut, colsGrad, k, c.OutC, n)
		for i := range dIn[:c.InC*h*w] {
			dIn[i] = 0
		}
		c.Col2im(colsGrad, h, w, dIn)
	}
}
