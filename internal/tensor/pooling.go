package tensor

import "math"

// Pool2D holds the geometry of a square pooling window. Ceil selects
// Caffe-style ceil-mode output sizing (the mode the paper's Table 4 implies);
// windows that extend past the padded input are clipped.
type Pool2D struct {
	F, S, P int
	Ceil    bool
}

// OutDim returns the pooled output extent for an input extent w.
func (p Pool2D) OutDim(w int) int {
	if p.Ceil {
		return PoolOutDim(w, p.F, p.S, p.P)
	}
	return ConvOutDim(w, p.F, p.S, p.P)
}

// MaxForward applies channel-wise max pooling to in (c×h×w), writing
// out (c×oh×ow). If argmax is non-nil it records, per output element, the
// flat input index of the selected maximum (or -1 when the window covered
// only padding), for use by MaxBackward.
func (p Pool2D) MaxForward(in []float32, c, h, w int, out []float32, argmax []int) (oh, ow int) {
	oh, ow = p.OutDim(h), p.OutDim(w)
	oi := 0
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for oy := 0; oy < oh; oy++ {
			y0 := oy*p.S - p.P
			for ox := 0; ox < ow; ox++ {
				x0 := ox*p.S - p.P
				best := float32(math.Inf(-1))
				bestIdx := -1
				if y0 >= 0 && y0+p.F <= h && x0 >= 0 && x0+p.F <= w {
					// The window lies wholly inside the input: the same
					// scan, without the edge tests.
					for iy := y0; iy < y0+p.F; iy++ {
						at := base + iy*w + x0
						for kx, v := range in[at : at+p.F] {
							if v > best {
								best, bestIdx = v, at+kx
							}
						}
					}
				} else {
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
				}
				if bestIdx < 0 {
					best = 0 // window fully in padding: emit zero
				}
				out[oi] = best
				if argmax != nil {
					argmax[oi] = bestIdx
				}
				oi++
			}
		}
	}
	return oh, ow
}

// MaxBackward scatters the upstream gradient dOut through the argmax map
// produced by MaxForward, accumulating into dIn (which the caller zeroes).
func (p Pool2D) MaxBackward(dOut []float32, argmax []int, dIn []float32) {
	for i, g := range dOut {
		if idx := argmax[i]; idx >= 0 {
			dIn[idx] += g
		}
	}
}

// AvgForward applies channel-wise average pooling with a fixed divisor of
// F² (padding counts as zeros), matching the paper's Eq. (11) semantics.
func (p Pool2D) AvgForward(in []float32, c, h, w int, out []float32) (oh, ow int) {
	oh, ow = p.OutDim(h), p.OutDim(w)
	inv := 1 / float32(p.F*p.F)
	oi := 0
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for oy := 0; oy < oh; oy++ {
			y0 := oy*p.S - p.P
			for ox := 0; ox < ow; ox++ {
				x0 := ox*p.S - p.P
				var sum float32
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
						sum += in[base+iy*w+ix]
					}
				}
				out[oi] = sum * inv
				oi++
			}
		}
	}
	return oh, ow
}

// AvgBackward distributes the upstream gradient uniformly over each window
// (1/F² per contributing input element), accumulating into dIn.
func (p Pool2D) AvgBackward(dOut []float32, c, h, w int, dIn []float32) {
	oh, ow := p.OutDim(h), p.OutDim(w)
	inv := 1 / float32(p.F*p.F)
	oi := 0
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for oy := 0; oy < oh; oy++ {
			y0 := oy*p.S - p.P
			for ox := 0; ox < ow; ox++ {
				x0 := ox*p.S - p.P
				g := dOut[oi] * inv
				oi++
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
						dIn[base+iy*w+ix] += g
					}
				}
			}
		}
	}
}

// GlobalAvgForward averages each channel plane of in (c×h×w) to a single
// value, writing c values to out.
func GlobalAvgForward(in []float32, c, h, w int, out []float32) {
	plane := h * w
	inv := 1 / float32(plane)
	for ch := 0; ch < c; ch++ {
		var s float32
		for _, v := range in[ch*plane : (ch+1)*plane] {
			s += v
		}
		out[ch] = s * inv
	}
}

// GlobalAvgBackward spreads each channel's gradient uniformly over its plane.
func GlobalAvgBackward(dOut []float32, c, h, w int, dIn []float32) {
	plane := h * w
	inv := 1 / float32(plane)
	for ch := 0; ch < c; ch++ {
		g := dOut[ch] * inv
		row := dIn[ch*plane : (ch+1)*plane]
		for i := range row {
			row[i] += g
		}
	}
}
