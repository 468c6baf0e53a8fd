package main

import "time"

// The hosts this benchmark runs on change speed by up to 2x over minutes
// (co-tenants, clock scaling), far more than the changes the benchmark
// must resolve. A fixed kernel — a small float matrix product plus a
// streaming pass over 8 MB — timed between jobs tracks that drift (its
// 10-second averages correlate at r ≈ 0.93 with the structure attack's),
// so the end-to-end time metrics are reported at a reference speed: raw
// time ÷ speed, where speed is the kernel's measured time over
// refKernelMS. The raw values and the speed go into the results record.

// refKernelMS is the kernel's time at the reference speed.
const refKernelMS = 10.0

// calibrator owns the kernel's buffers, allocated once so that timing it
// neither allocates nor triggers collections.
type calibrator struct {
	a, b, c []float64
	buf     []int64
	sink    float64
}

const calN = 96

func newCalibrator() *calibrator {
	c := &calibrator{
		a: make([]float64, calN*calN), b: make([]float64, calN*calN), c: make([]float64, calN*calN),
		buf: make([]int64, 1<<20),
	}
	for i := range c.a {
		c.a[i] = float64(i%7) * 0.5
		c.b[i] = float64(i%5) * 0.25
	}
	return c
}

// kernelMS runs the kernel once and returns its wall time in ms.
func (c *calibrator) kernelMS() float64 {
	t0 := time.Now()
	clear(c.c)
	for i := 0; i < calN; i++ {
		for k := 0; k < calN; k++ {
			aik := c.a[i*calN+k]
			for j := 0; j < calN; j++ {
				c.c[i*calN+j] += aik * c.b[k*calN+j]
			}
		}
	}
	var s int64
	for r := 0; r < 4; r++ {
		for i := range c.buf {
			c.buf[i] += int64(i) ^ s
			s += c.buf[i] >> 3
		}
	}
	c.sink += c.c[5] + float64(s)
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// sample times the kernel n times.
func (c *calibrator) sample(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = c.kernelMS()
	}
	return out
}

// speed is the host's slowdown against the reference (2 = half as fast)
// from kernel timings.
func speed(kernelMS []float64) float64 { return median(kernelMS) / refKernelMS }
