package tensor

import "sync"

// The GEMM family is cache-blocked: the k and n dimensions are walked in
// KC×NC panels, the B panel is packed into a contiguous scratch buffer so
// the inner kernels stream it with unit stride regardless of the parent
// matrix's row length, and the m dimension is split into row blocks that
// the shared worker pool (pool.go) executes concurrently. All workers of a
// panel read the same packed B and own disjoint rows of C, so no
// synchronization is needed inside a panel.
const (
	// blockMC is the number of C rows one pool task owns.
	blockMC = 64
	// blockKC is the packed panel depth; blockKC·blockNC floats ≈ 256 KiB,
	// sized to sit in L2 while A rows stream past it. The panel is wide and
	// shallow (NC ≫ KC) so the innermost j loops stay long enough to amortize
	// their setup; narrower panels measurably lose to the unblocked kernel on
	// deep-k convolution shapes even though they touch the same bytes.
	blockKC = 128
	// blockNC is the packed panel width.
	blockNC = 512
)

// gemmParallelThreshold is the minimum number of multiply-accumulates below
// which a GEMM runs single-threaded and unblocked; packing a panel and
// waking pool workers for tiny products costs more than it saves.
const gemmParallelThreshold = 1 << 16

// gemmPackMinRows is the minimum m for the packed-panel path. Packing costs
// one copy per panel element and is amortized over the m rows that reuse the
// panel, so below this the kernels parallelize over unpacked column blocks
// instead (the depth-scaled candidate networks of the ranking attack produce
// exactly these few-filter, wide-spatial shapes).
const gemmPackMinRows = 16

// gemmTask is the pooled state of one parallel GEMM call: operand views,
// blocking geometry, the packed-panel scratch, and the kernel to run per
// pool iteration. Keeping all of it in one recycled struct (instead of a
// fresh closure per panel) makes every GEMM call allocation-free in steady
// state, which matters for the trainer's step loop and the simulator's
// repeated oracle runs.
type gemmTask struct {
	kern    func(t *gemmTask, i int)
	a, b, c []float32
	packed  []float32 // KC×NC panel scratch, retained across pool cycles
	m, k, n int
	width   int // column-block width of the skinny (unpacked) paths
	// Current panel window for the packed paths.
	mc, pc, kc, jc, nc int
}

// Run dispatches one pool iteration to the task's kernel.
func (t *gemmTask) Run(i int) { t.kern(t, i) }

// gemmTasks recycles task descriptors (with their packed panels) across
// calls. Nested GEMMs — a trainer shard's conv inside a parallel region —
// each draw their own descriptor.
var gemmTasks = sync.Pool{New: func() any { return new(gemmTask) }}

func getGemmTask(a, b, c []float32, m, k, n int) *gemmTask {
	t := gemmTasks.Get().(*gemmTask)
	t.a, t.b, t.c = a, b, c
	t.m, t.k, t.n = m, k, n
	return t
}

func putGemmTask(t *gemmTask) {
	t.a, t.b, t.c = nil, nil, nil // keep packed, drop operand references
	gemmTasks.Put(t)
}

// panel ensures the packed scratch exists and returns it.
func (t *gemmTask) panel() []float32 {
	if t.packed == nil {
		t.packed = make([]float32, blockKC*blockNC)
	}
	return t.packed
}

// colSplit partitions n columns for the unpacked skinny-m paths: wide enough
// that the inner loops still stream long runs (≥ blockNC), and no finer than
// ~2 blocks per pool worker. With a single worker this yields one full-width
// block, making the skinny path bit-for-bit the serial kernel's access
// pattern rather than paying column-split overhead nobody can use.
func colSplit(n int) (blocks, width int) {
	width = (n + 2*Workers() - 1) / (2 * Workers())
	if width < blockNC {
		width = blockNC
	}
	return (n + width - 1) / width, width
}

// rowSplit picks the row-block size for the packed paths: blockMC, shrunk so
// every pool worker gets a few tasks to balance, but no smaller than lo.
func rowSplit(m, lo int) int {
	mc := blockMC
	if w := Workers(); m < 2*w*mc {
		mc = max((m+2*w-1)/(2*w), lo)
	}
	return mc
}

// Gemm computes C = A*B for row-major matrices, where A is m×k, B is k×n and
// C is m×n. C is overwritten.
func Gemm(a, b, c []float32, m, k, n int) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("tensor: Gemm buffer too small")
	}
	for i := range c[:m*n] {
		c[i] = 0
	}
	gemmAcc(a, b, c, m, k, n)
}

// GemmAcc computes C += A*B with the same layout conventions as Gemm.
func GemmAcc(a, b, c []float32, m, k, n int) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("tensor: GemmAcc buffer too small")
	}
	gemmAcc(a, b, c, m, k, n)
}

func gemmAcc(a, b, c []float32, m, k, n int) {
	if m == 0 || n == 0 || k == 0 {
		return
	}
	if m*k*n < gemmParallelThreshold {
		gemmRows(a, b, c, 0, m, k, n)
		return
	}
	t := getGemmTask(a, b, c, m, k, n)
	defer putGemmTask(t)
	if m < gemmPackMinRows {
		// Skinny in m (a single-sample FC row, or a depth-scaled conv with a
		// handful of filters): too few rows to amortize packing, so split
		// the columns of B and C into blocks and run the plain streaming
		// kernel on each — disjoint C columns, no scratch, and identical
		// memory behavior to the serial kernel when the pool is busy.
		var blocks int
		blocks, t.width = colSplit(n)
		t.kern = skinnyAccKern
		ParallelRun(blocks, t)
		return
	}
	// Row blocks sized so every pool worker gets a few tasks to balance.
	mc := rowSplit(m, 8)
	t.mc = mc
	t.kern = panelAccKern
	packed := t.panel()
	for jc := 0; jc < n; jc += blockNC {
		nc := min(blockNC, n-jc)
		for pc := 0; pc < k; pc += blockKC {
			kc := min(blockKC, k-pc)
			packB(packed, b, pc, kc, jc, nc, n)
			t.pc, t.kc, t.jc, t.nc = pc, kc, jc, nc
			ParallelRun((m+mc-1)/mc, t)
		}
	}
}

// skinnyAccKern accumulates one column block of C += A*B without packing.
func skinnyAccKern(t *gemmTask, ji int) {
	jc := ji * t.width
	nc := min(t.width, t.n-jc)
	k, n := t.k, t.n
	for i := 0; i < t.m; i++ {
		arow := t.a[i*k : i*k+k]
		crow := t.c[i*n+jc : i*n+jc+nc]
		for p, av := range arow {
			if av != 0 {
				axpy(crow, t.b[p*n+jc:p*n+jc+nc], av)
			}
		}
	}
}

// panelAccKern accumulates one row block of C against the current packed
// panel window.
func panelAccKern(t *gemmTask, bi int) {
	ic := bi * t.mc
	gemmPanel(t.a, t.packed, t.c, ic, min(t.mc, t.m-ic), t.pc, t.kc, t.jc, t.nc, t.k, t.n)
}

// packB copies the kc×nc sub-panel of row-major B (row length n) starting at
// (pc, jc) into packed, contiguously with row length nc.
func packB(packed, b []float32, pc, kc, jc, nc, n int) {
	for p := 0; p < kc; p++ {
		src := b[(pc+p)*n+jc:]
		copy(packed[p*nc:p*nc+nc], src[:nc])
	}
}

// gemmPanel accumulates C[ic:ic+mc, jc:jc+nc] += A[ic:ic+mc, pc:pc+kc] times
// the packed kc×nc B panel. The zero-skip matters for the sparse im2col
// columns produced by padded convolutions.
func gemmPanel(a, packed, c []float32, ic, mc, pc, kc, jc, nc, k, n int) {
	for i := ic; i < ic+mc; i++ {
		arow := a[i*k+pc : i*k+pc+kc]
		crow := c[i*n+jc : i*n+jc+nc]
		for p, av := range arow {
			if av != 0 {
				axpy(crow, packed[p*nc:p*nc+nc], av)
			}
		}
	}
}

// gemmRows accumulates rows [lo,hi) of C += A*B with the i,k,j loop order,
// streaming B and C rows sequentially. This is the unblocked small-size
// kernel and the serial baseline the blocked path must agree with.
func gemmRows(a, b, c []float32, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		arow := a[i*k : i*k+k]
		crow := c[i*n : i*n+n]
		for p, av := range arow {
			if av != 0 {
				axpy(crow, b[p*n:p*n+n], av)
			}
		}
	}
}

// GemmTransA computes C = Aᵀ*B where A is k×m (so Aᵀ is m×k), B is k×n and
// C is m×n. Used by convolution backward passes.
func GemmTransA(a, b, c []float32, m, k, n int) {
	if len(a) < k*m || len(b) < k*n || len(c) < m*n {
		panic("tensor: GemmTransA buffer too small")
	}
	for i := range c[:m*n] {
		c[i] = 0
	}
	if m == 0 || n == 0 || k == 0 {
		return
	}
	if m*k*n < gemmParallelThreshold {
		gemmTransASerial(a, b, c, m, k, n)
		return
	}
	t := getGemmTask(a, b, c, m, k, n)
	defer putGemmTask(t)
	if m < gemmPackMinRows {
		// Too few C rows to amortize packing: split the columns instead and
		// run the serial loop order on each disjoint column window.
		var blocks int
		blocks, t.width = colSplit(n)
		t.kern = skinnyTransAKern
		ParallelRun(blocks, t)
		return
	}
	// Row blocks of C own contiguous runs of every row of A (A is k×m, so
	// row p contributes a[p*m+ic : p*m+ic+mc]), which keeps both the A reads
	// and the C writes of a task disjoint and cache-local.
	mc := rowSplit(m, 8)
	t.mc = mc
	t.kern = panelTransAKern
	packed := t.panel()
	for jc := 0; jc < n; jc += blockNC {
		nc := min(blockNC, n-jc)
		for pc := 0; pc < k; pc += blockKC {
			kc := min(blockKC, k-pc)
			packB(packed, b, pc, kc, jc, nc, n)
			t.pc, t.kc, t.jc, t.nc = pc, kc, jc, nc
			ParallelRun((m+mc-1)/mc, t)
		}
	}
}

// skinnyTransAKern accumulates one column block of C += Aᵀ*B unpacked.
func skinnyTransAKern(t *gemmTask, ji int) {
	jc := ji * t.width
	nc := min(t.width, t.n-jc)
	m, n := t.m, t.n
	for p := 0; p < t.k; p++ {
		arow := t.a[p*m : p*m+m]
		brow := t.b[p*n+jc : p*n+jc+nc]
		for i, av := range arow {
			if av != 0 {
				axpy(t.c[i*n+jc:i*n+jc+nc], brow, av)
			}
		}
	}
}

// panelTransAKern accumulates one row block of C += Aᵀ·(packed panel).
func panelTransAKern(t *gemmTask, bi int) {
	ic := bi * t.mc
	mcc := min(t.mc, t.m-ic)
	m, n := t.m, t.n
	for p := 0; p < t.kc; p++ {
		apart := t.a[(t.pc+p)*m+ic : (t.pc+p)*m+ic+mcc]
		brow := t.packed[p*t.nc : p*t.nc+t.nc]
		for ii, av := range apart {
			if av != 0 {
				axpy(t.c[(ic+ii)*n+t.jc:(ic+ii)*n+t.jc+t.nc], brow, av)
			}
		}
	}
}

// gemmTransASerial is the unblocked Aᵀ*B accumulation kernel.
func gemmTransASerial(a, b, c []float32, m, k, n int) {
	for p := 0; p < k; p++ {
		arow := a[p*m : p*m+m]
		brow := b[p*n : p*n+n]
		for i, av := range arow {
			if av != 0 {
				axpy(c[i*n:i*n+n], brow, av)
			}
		}
	}
}

// GemmTransB computes C = A*Bᵀ where A is m×k, B is n×k and C is m×n.
func GemmTransB(a, b, c []float32, m, k, n int) {
	if len(a) < m*k || len(b) < n*k || len(c) < m*n {
		panic("tensor: GemmTransB buffer too small")
	}
	for i := range c[:m*n] {
		c[i] = 0
	}
	gemmTransBAcc(a, b, c, m, k, n)
}

// GemmTransBAcc computes C += A*Bᵀ where A is m×k, B is n×k, C is m×n.
func GemmTransBAcc(a, b, c []float32, m, k, n int) {
	if len(a) < m*k || len(b) < n*k || len(c) < m*n {
		panic("tensor: GemmTransBAcc buffer too small")
	}
	gemmTransBAcc(a, b, c, m, k, n)
}

func gemmTransBAcc(a, b, c []float32, m, k, n int) {
	if m == 0 || n == 0 || k == 0 {
		return
	}
	if m*k*n < gemmParallelThreshold {
		gemmTransBRows(a, b, c, 0, m, k, n)
		return
	}
	t := getGemmTask(a, b, c, m, k, n)
	defer putGemmTask(t)
	if m < gemmPackMinRows {
		// Few C rows: every output is an independent dot of contiguous
		// k-vectors, so split the B rows (= C columns) across the pool
		// without packing.
		var blocks int
		blocks, t.width = colSplit(n)
		t.kern = skinnyTransBKern
		ParallelRun(blocks, t)
		return
	}
	// Here both A rows and B rows are contiguous k-vectors; the panel packs
	// nc rows of B restricted to a kc slice so a task's working set is one
	// nc×kc panel plus the A row it streams.
	mc := rowSplit(m, 1)
	t.mc = mc
	t.kern = panelTransBKern
	packed := t.panel()
	for jc := 0; jc < n; jc += blockNC {
		nc := min(blockNC, n-jc)
		for pc := 0; pc < k; pc += blockKC {
			kc := min(blockKC, k-pc)
			// Pack rows jc..jc+nc of B, columns pc..pc+kc (row length kc).
			for j := 0; j < nc; j++ {
				src := b[(jc+j)*k+pc:]
				copy(packed[j*kc:j*kc+kc], src[:kc])
			}
			t.pc, t.kc, t.jc, t.nc = pc, kc, jc, nc
			ParallelRun((m+mc-1)/mc, t)
		}
	}
}

// skinnyTransBKern accumulates one column block of C += A*Bᵀ unpacked.
func skinnyTransBKern(t *gemmTask, ji int) {
	jc := ji * t.width
	nc := min(t.width, t.n-jc)
	k, n := t.k, t.n
	for i := 0; i < t.m; i++ {
		dotRows(t.a[i*k:i*k+k], t.b[jc*k:(jc+nc)*k], t.c[i*n+jc:i*n+jc+nc])
	}
}

// panelTransBKern accumulates one row block of C += A·(packed Bᵀ panel).
func panelTransBKern(t *gemmTask, bi int) {
	ic := bi * t.mc
	k, n := t.k, t.n
	for i := ic; i < min(ic+t.mc, t.m); i++ {
		dotRows(t.a[i*k+t.pc:i*k+t.pc+t.kc], t.packed[:t.nc*t.kc], t.c[i*n+t.jc:i*n+t.jc+t.nc])
	}
}

// gemmTransBRows is the unblocked A*Bᵀ kernel over C rows [lo,hi).
func gemmTransBRows(a, b, c []float32, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		dotRows(a[i*k:i*k+k], b[:n*k], c[i*n:i*n+n])
	}
}

// The inner kernels below change how an output element's sum is computed —
// unrolled, with shared loads and without bounds checks — but never which
// products it adds or in what order, so their results are bit-identical to
// the plain one-element-at-a-time loops (kept as test references).

// axpy adds a·x to y: y[j] += a*x[j] for every j < len(x). The outputs are
// independent, so unrolling over them leaves each one a single multiply
// and add. After the reslice the loop's len(y) test always holds; stating
// it lets the compiler drop the bounds checks inside the loop.
func axpy(y, x []float32, a float32) {
	y = y[:len(x)]
	for len(x) >= 8 && len(y) >= 8 {
		y[0] += a * x[0]
		y[1] += a * x[1]
		y[2] += a * x[2]
		y[3] += a * x[3]
		y[4] += a * x[4]
		y[5] += a * x[5]
		y[6] += a * x[6]
		y[7] += a * x[7]
		y, x = y[8:], x[8:]
	}
	for j, v := range x {
		y[j] += a * v
	}
}

// dot returns the inner product of two equal-length float32 vectors, using
// four accumulators so the multiplies pipeline.
func dot(x, y []float32) float32 {
	y = y[:len(x)]
	var s0, s1, s2, s3 float32
	for len(x) >= 4 && len(y) >= 4 {
		s0 += x[0] * y[0]
		s1 += x[1] * y[1]
		s2 += x[2] * y[2]
		s3 += x[3] * y[3]
		x, y = x[4:], y[4:]
	}
	for i, v := range x {
		s0 += v * y[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// dot2 returns dot(x, y) and dot(x, z), loading x once for both.
func dot2(x, y, z []float32) (float32, float32) {
	y, z = y[:len(x)], z[:len(x)]
	var s0, s1, s2, s3, t0, t1, t2, t3 float32
	for len(x) >= 4 && len(y) >= 4 && len(z) >= 4 {
		x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
		s0 += x0 * y[0]
		t0 += x0 * z[0]
		s1 += x1 * y[1]
		t1 += x1 * z[1]
		s2 += x2 * y[2]
		t2 += x2 * z[2]
		s3 += x3 * y[3]
		t3 += x3 * z[3]
		x, y, z = x[4:], y[4:], z[4:]
	}
	for i, v := range x {
		s0 += v * y[i]
		t0 += v * z[i]
	}
	return (s0 + s1) + (s2 + s3), (t0 + t1) + (t2 + t3)
}

// dotRows adds dot(x, row j of b) to c[j] for every j < len(c), where b
// holds len(c) rows of len(x) floats, two rows at a time.
func dotRows(x, b, c []float32) {
	k := len(x)
	j := 0
	for ; j+2 <= len(c); j += 2 {
		d0, d1 := dot2(x, b[j*k:j*k+k], b[(j+1)*k:(j+2)*k])
		c[j] += d0
		c[j+1] += d1
	}
	if j < len(c) {
		c[j] += dot(x, b[j*k:j*k+k])
	}
}
