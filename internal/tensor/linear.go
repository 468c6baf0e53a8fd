package tensor

// Linear is a fully-connected layer mapping In features to Out features.
// In a CNN accelerator an FC layer is a convolution whose filter width
// equals the whole input feature map, which is exactly how the paper's
// structure attack treats it.
type Linear struct {
	In, Out int
}

// Forward computes out = W·in + b for one sample, with W stored row-major
// as Out×In. Four rows run side by side, sharing the loads of in; each is
// still one sequential sum, so the result matches a row-at-a-time loop bit
// for bit.
func (l Linear) Forward(in, weights, bias, out []float32) {
	o := 0
	for ; o+4 <= l.Out; o += 4 {
		r0, r1 := l.row(weights, o, len(in)), l.row(weights, o+1, len(in))
		r2, r3 := l.row(weights, o+2, len(in)), l.row(weights, o+3, len(in))
		var s0, s1, s2, s3 float32
		for i, v := range in {
			s0 += r0[i] * v
			s1 += r1[i] * v
			s2 += r2[i] * v
			s3 += r3[i] * v
		}
		if bias != nil {
			s0 += bias[o]
			s1 += bias[o+1]
			s2 += bias[o+2]
			s3 += bias[o+3]
		}
		out[o], out[o+1], out[o+2], out[o+3] = s0, s1, s2, s3
	}
	for ; o < l.Out; o++ {
		row := l.row(weights, o, len(in))
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

// row returns row o of the Out×In matrix w cut to its first n elements,
// so a loop over n inputs needs no bounds checks; n > In panics, as
// indexing past the row would.
func (l Linear) row(w []float32, o, n int) []float32 {
	return w[o*l.In : (o+1)*l.In : (o+1)*l.In][:n]
}

// Backward accumulates dWeights and dBias for one sample and, when dIn is
// non-nil, overwrites dIn with Wᵀ·dOut.
func (l Linear) Backward(in, weights, dOut, dWeights, dBias, dIn []float32) {
	for o := 0; o < l.Out; o++ {
		g := dOut[o]
		if dBias != nil {
			dBias[o] += g
		}
		if g == 0 {
			continue
		}
		axpy(l.row(dWeights, o, len(in)), in, g)
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
			axpy(dIn, weights[o*l.In:(o+1)*l.In], g)
		}
	}
}
