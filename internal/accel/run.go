package accel

import (
	"fmt"
	"math/rand"

	"cnnrev/internal/memtrace"
	"cnnrev/internal/nn"
	"cnnrev/internal/tensor"
)

// session is the per-run simulation arena: every buffer one inference needs,
// sized once from the network shapes and reused across runs. The value
// buffers (acts, cols, convScratch) are added by useValues on the first run
// that computes, so trace-only runs never hold them, and the recorder's
// capacity is reserved when each observation window opens, because Observe
// may have handed the last window's buffer to its caller. Simulators keep
// a sync.Pool of sessions, so both the one-shot Run/RunMany entry points and
// long-lived Session handles reach a zero-allocation steady state — the §4
// weight attack drives tens of thousands of oracle inferences through here,
// and per-query arena churn used to dominate its wall-clock.
type session struct {
	rec   *memtrace.Recorder
	trace memtrace.Trace // reused zero-copy trace view for Session.Run
	res   Result         // reused result header for Session.Run
	cycle uint64
	rng   *rand.Rand // tile-latency jitter source (nil = no jitter)
	x     []float32  // current input (caller-owned, valid during one run)

	// compute gates the layer arithmetic for the current run. A run that
	// computes needs the value buffers (acts, cols, convScratch), which
	// useValues allocates on the first such run; trace-only runs without
	// pruning never touch them.
	compute bool
	acts    [][]float32 // per-layer output activations
	// accRange[i] brackets layer i's records in the recorder: its trace
	// entries are Accesses[accRange[i][0]:accRange[i][1]]. Layers a prefix
	// run skipped carry an empty range at the trace end.
	accRange [][2]int
	// chanBytes[i][c] is the stored byte size of channel c of layer i's
	// output when pruned[i] (compressed); dense sizes live in the
	// simulator's immutable tables.
	chanBytes [][]int
	pruned    []bool
	nz        [][]int
	// chanStream[i][c] is the next write offset into channel c's compressed
	// stream when pruning.
	chanStream [][]uint64
	layerStart []uint64
	layerCyc   []uint64

	cols        []float32 // im2col scratch for the largest conv layer
	convScratch []float32 // pre-pool conv output scratch (pooled layers)
	order       []int     // eltwise producer-order scratch
}

// newSession allocates an arena for one concurrent inference: everything but
// the value buffers, which useValues adds for runs that compute.
func (s *Simulator) newSession() *session {
	n := s.net
	se := &session{
		rec:        memtrace.NewRecorder(s.cfg.BlockBytes),
		accRange:   make([][2]int, len(n.Specs)),
		chanBytes:  make([][]int, len(n.Specs)),
		pruned:     make([]bool, len(n.Specs)),
		nz:         make([][]int, len(n.Specs)),
		chanStream: make([][]uint64, len(n.Specs)),
		layerStart: make([]uint64, len(n.Specs)),
		layerCyc:   make([]uint64, len(n.Specs)),
	}
	maxEltIn := 0
	for i := range n.Specs {
		se.nz[i] = make([]int, n.Shapes[i].C)
		se.chanBytes[i] = make([]int, n.Shapes[i].C)
		se.chanStream[i] = make([]uint64, n.Shapes[i].C)
		if spec := &n.Specs[i]; spec.Kind == nn.KindEltwise && len(spec.Inputs) > maxEltIn {
			maxEltIn = len(spec.Inputs)
		}
	}
	se.order = make([]int, maxEltIn)
	if s.cfg.CycleJitter > 0 {
		se.rng = rand.New(rand.NewSource(s.cfg.NoiseSeed))
	}
	return se
}

// useValues sets whether the session's next runs compute the layer
// arithmetic, allocating the value buffers the first time they do.
func (s *Simulator) useValues(se *session, compute bool) {
	se.compute = compute
	if !compute || se.acts != nil {
		return
	}
	n := s.net
	se.acts = make([][]float32, len(n.Specs))
	maxCols, maxPooledConv := 0, 0
	for i := range n.Specs {
		spec := &n.Specs[i]
		se.acts[i] = make([]float32, n.Shapes[i].Len())
		if spec.Kind == nn.KindConv {
			in := n.InShapes[i][0]
			c := spec.ConvOut(in)
			if k := in.C * spec.F * spec.F * c.H * c.W; k > maxCols {
				maxCols = k
			}
			if spec.Pool != nn.PoolNone && c.Len() > maxPooledConv {
				maxPooledConv = c.Len()
			}
		}
	}
	se.cols = make([]float32, maxCols)
	se.convScratch = make([]float32, maxPooledConv)
}

// acquire takes an arena from the simulator's pool (allocating on first use
// or after GC pressure drained the pool), set to compute or not for the run
// ahead.
func (s *Simulator) acquire(compute bool) *session {
	se, ok := s.sessions.Get().(*session)
	if !ok {
		se = s.newSession()
	}
	s.useValues(se, compute)
	return se
}

func (s *Simulator) release(se *session) {
	se.x = nil
	s.sessions.Put(se)
}

// resetRun prepares the arena for one inference starting at startCycle.
func (s *Simulator) resetRun(se *session, x []float32, startCycle uint64) {
	se.x = x
	se.cycle = startCycle
	for i := range se.pruned {
		se.pruned[i] = false
	}
}

// beginWindow opens a fresh observation window on the arena: it empties the
// recorder and reserves the tiling-derived capacity, so even the first run
// records without growth copies, and restarts the jitter stream so
// equal-seed runs stay identical.
func (s *Simulator) beginWindow(se *session) {
	se.rec.Reset()
	se.rec.Reserve(s.estAccesses)
	if se.rng != nil {
		se.rng.Seed(s.cfg.NoiseSeed)
	}
}

// Run performs one inference, returning the functional outputs and the
// observed trace. The returned Result owns its buffers; for allocation-free
// repeated inference use NewSession.
func (s *Simulator) Run(x []float32) (*Result, error) {
	se := s.acquire(true)
	defer s.release(se)
	s.beginWindow(se)
	if _, err := s.runOne(se, x, 0); err != nil {
		return nil, err
	}
	res := s.snapshotResult(se)
	res.Trace = s.snapshotTrace(se)
	return res, nil
}

// Observe performs one inference as the §3 adversary sees it and returns
// only the observables: the trace Run would record for x, byte for byte,
// with its per-layer timing and record ranges. Without zero pruning no
// record depends on a computed value — tiling, burst sizes, the cycle model
// and jitter follow from the network geometry and the Config alone — so
// Observe skips the layer arithmetic (convolutions, activations, pooling,
// FC products, eltwise sums, concat copies and non-zero counting) and never
// allocates activation buffers. With ZeroPrune the write counts depend on
// the values, so it computes them exactly as Run does and also returns
// NZCounts. Logits and Acts are always nil.
func (s *Simulator) Observe(x []float32) (*Result, error) {
	se := s.acquire(s.cfg.ZeroPrune)
	defer s.release(se)
	s.beginWindow(se)
	if _, err := s.runOne(se, x, 0); err != nil {
		return nil, err
	}
	res := s.snapshotTiming(se)
	if se.compute {
		res.NZCounts = s.snapshotNZCounts(se)
	}
	// Return the records the cheaper way. A copy allocates their bytes
	// again; handing the recorder's buffer over allocates nothing but pins
	// its spare capacity for as long as the caller keeps the trace. Hand it
	// over when the spare capacity is no larger than the records, and give
	// the arena a fresh recorder, which the next window reserves.
	var view memtrace.Trace
	se.rec.TraceInto(&view)
	if spare := cap(view.Accesses) - len(view.Accesses); spare <= len(view.Accesses) {
		res.Trace = &view
		se.rec = memtrace.NewRecorder(s.cfg.BlockBytes)
	} else {
		res.Trace = s.snapshotTrace(se)
	}
	return res, nil
}

// RunMany performs several back-to-back inferences on the same device —
// what an adversary watching a serving accelerator observes — returning the
// per-inference functional results and one continuous trace. All inferences
// share one arena; the per-run outputs are snapshotted so each Result stays
// valid after the arena is reused.
func (s *Simulator) RunMany(xs [][]float32) ([]*Result, *memtrace.Trace, error) {
	se := s.acquire(true)
	defer s.release(se)
	s.beginWindow(se)
	var results []*Result
	cycle := uint64(0)
	for _, x := range xs {
		end, err := s.runOne(se, x, cycle)
		if err != nil {
			return nil, nil, err
		}
		results = append(results, s.snapshotResult(se))
		cycle = end
	}
	tr := s.snapshotTrace(se)
	for _, r := range results {
		r.Trace = tr
	}
	return results, tr, nil
}

// snapshotResult deep-copies the arena's functional outputs into a fresh
// Result (Trace unset).
func (s *Simulator) snapshotResult(se *session) *Result {
	res := s.snapshotTiming(se)
	res.Logits = append([]float32(nil), se.acts[len(se.acts)-1]...)
	res.Acts = make([][]float32, len(se.acts))
	for i := range se.acts {
		res.Acts[i] = append([]float32(nil), se.acts[i]...)
	}
	res.NZCounts = s.snapshotNZCounts(se)
	return res
}

// snapshotTiming copies the arena's per-layer cycles and record ranges into
// a fresh Result (Trace and every value field unset).
func (s *Simulator) snapshotTiming(se *session) *Result {
	return &Result{
		LayerCycles:      append([]uint64(nil), se.layerCyc...),
		LayerStartCycle:  append([]uint64(nil), se.layerStart...),
		LayerAccessRange: append([][2]int(nil), se.accRange...),
	}
}

// snapshotNZCounts copies the arena's per-channel non-zero counts.
func (s *Simulator) snapshotNZCounts(se *session) [][]int {
	nz := make([][]int, len(se.nz))
	for i := range se.nz {
		nz[i] = append([]int(nil), se.nz[i]...)
	}
	return nz
}

// snapshotTrace copies the arena's recorded trace so it survives arena reuse.
func (s *Simulator) snapshotTrace(se *session) *memtrace.Trace {
	var view memtrace.Trace
	se.rec.TraceInto(&view)
	return &memtrace.Trace{
		BlockBytes: view.BlockBytes,
		Accesses:   append([]memtrace.Access(nil), view.Accesses...),
	}
}

// Session is a reusable inference handle bound to one Simulator. Run fills
// and returns a Result whose buffers — activations, counts, and the Trace —
// are owned by the session and valid only until the next Run on the same
// session, which makes steady-state inference allocation-free. A Session is
// not safe for concurrent use, but distinct Sessions of one Simulator are:
// the oracle attacks issue concurrent queries by giving each goroutine its
// own session.
type Session struct {
	sim *Simulator
	se  *session
}

// NewSession allocates an independent run context sized for the network.
func (s *Simulator) NewSession() *Session {
	se := s.newSession()
	s.useValues(se, true)
	return &Session{sim: s, se: se}
}

// Run performs one inference reusing the session's arena. The returned
// Result (including its Trace) aliases session memory: copy anything that
// must survive the next call.
func (ss *Session) Run(x []float32) (*Result, error) {
	return ss.RunPrefix(x, len(ss.sim.net.Specs)-1)
}

// RunPrefix performs one inference truncated after lastLayer: execution,
// cycle accounting and trace recording all stop once layer lastLayer has
// run, so the returned trace is a byte-exact prefix of what Run would have
// recorded for the same input (equal-seed jitter included) at a cost
// proportional to the prefix alone. The §4 weight attack targets one layer
// per query and uses this to stop paying for the downstream network.
//
// The returned Result aliases session memory like Run's; Logits is the
// stop layer's activation, and Acts/NZCounts/LayerCycles entries past
// lastLayer are stale from the previous run (their LayerAccessRange entries
// are empty).
func (ss *Session) RunPrefix(x []float32, lastLayer int) (*Result, error) {
	s, se := ss.sim, ss.se
	s.beginWindow(se)
	if _, err := s.runLayers(se, x, 0, lastLayer); err != nil {
		return nil, err
	}
	res := &se.res
	res.Logits = se.acts[lastLayer]
	res.Acts = se.acts
	res.LayerCycles = se.layerCyc
	res.LayerStartCycle = se.layerStart
	res.NZCounts = se.nz
	res.LayerAccessRange = se.accRange
	se.rec.TraceInto(&se.trace)
	res.Trace = &se.trace
	return res, nil
}

// runOne executes one inference against the arena's recorder, starting at
// the given cycle, and returns the end cycle. Layer buffers are fully
// overwritten in execution order, so arena reuse leaks no state between
// runs; the per-run tests pin this by comparing reused-arena traces against
// fresh-simulator traces byte for byte.
func (s *Simulator) runOne(se *session, x []float32, startCycle uint64) (uint64, error) {
	return s.runLayers(se, x, startCycle, len(s.net.Specs)-1)
}

// runLayers executes layers 0..last against the arena's recorder. Because
// layers execute strictly in order — the cycle counter, the jitter stream
// and the recorder all advance layer by layer — stopping after layer `last`
// records exactly the same accesses a full run would have recorded up to
// that point: a prefix run's trace is a byte-exact prefix of the full run's.
// The per-layer record ranges in se.accRange are maintained as each layer
// runs; layers past `last` get an empty range at the trace end.
func (s *Simulator) runLayers(se *session, x []float32, startCycle uint64, last int) (uint64, error) {
	if len(x) != s.net.Input.Len() {
		return 0, fmt.Errorf("accel: input has %d elements, want %d", len(x), s.net.Input.Len())
	}
	n := s.net
	if last < 0 || last >= len(n.Specs) {
		return 0, fmt.Errorf("accel: prefix layer %d out of range [0,%d)", last, len(n.Specs))
	}
	s.resetRun(se, x, startCycle)
	for i := 0; i <= last; i++ {
		start := se.cycle
		se.layerStart[i] = start
		se.accRange[i][0] = se.rec.Len()
		switch n.Specs[i].Kind {
		case nn.KindConv:
			s.simConv(i, se)
		case nn.KindFC:
			s.simFC(i, se)
		case nn.KindConcat:
			s.simConcat(i, se)
		case nn.KindEltwise:
			s.simEltwise(i, se)
		}
		se.accRange[i][1] = se.rec.Len()
		se.layerCyc[i] = se.cycle - start
	}
	for i := last + 1; i < len(n.Specs); i++ {
		se.accRange[i][0] = se.rec.Len()
		se.accRange[i][1] = se.rec.Len()
		se.layerStart[i] = se.cycle
		se.layerCyc[i] = 0
	}
	return se.cycle, nil
}

// inputAct returns the activation buffer feeding input j of layer i.
func (se *session) inputAct(n *nn.Network, i, j int) []float32 {
	ref := n.Specs[i].Inputs[j]
	if ref == nn.InputRef {
		return se.x
	}
	return se.acts[ref]
}

// inputChanBytes returns the per-channel stored sizes of the region feeding
// input j of layer i: the producer's compressed sizes when it wrote pruned,
// else the simulator's immutable dense tables.
func (s *Simulator) inputChanBytes(se *session, i, j int) []int {
	ref := s.net.Specs[i].Inputs[j]
	if ref == nn.InputRef {
		return s.inDenseCB
	}
	if se.pruned[ref] {
		return se.chanBytes[ref]
	}
	return s.denseCB[ref]
}

// prunedInput reports whether the region feeding input j of layer i holds
// compressed (pruned) data.
func (s *Simulator) prunedInput(se *session, i, j int) bool {
	ref := s.net.Specs[i].Inputs[j]
	return ref != nn.InputRef && se.pruned[ref]
}

// jitter scales a chunk latency by a factor uniform in [1−J, 1+J].
func (s *Simulator) jitter(se *session, cycles uint64) uint64 {
	if se.rng == nil {
		return cycles
	}
	f := 1 + (se.rng.Float64()*2-1)*s.cfg.CycleJitter
	if f < 0 {
		f = 0
	}
	return uint64(float64(cycles) * f)
}

// memCycles converts a byte volume to DRAM cycles.
func (s *Simulator) memCycles(bytes int) uint64 {
	return uint64((bytes + s.cfg.MemBytesPerCycle - 1) / s.cfg.MemBytesPerCycle)
}

// computeCycles converts a MAC count to PE-array cycles.
func (s *Simulator) computeCycles(macs int64) uint64 {
	p := int64(s.cfg.PEs)
	return uint64((macs + p - 1) / p)
}

// activate applies the configured activation (threshold ReLU) in place.
func (s *Simulator) activate(buf []float32) {
	tensor.ThresholdReLUForward(buf, buf, s.cfg.Threshold)
}

// applyActPool runs the fused activation+pooling stages of a conv layer in
// the configured order. For unpooled layers convOut must alias out (the
// activation happens in place); for pooled layers convOut is the pre-pool
// scratch and out receives the pooled result.
func (s *Simulator) applyActPool(spec *nn.LayerSpec, convOut []float32, convShape nn.Shape, out []float32) {
	if spec.Pool == nn.PoolNone {
		if spec.ReLU {
			s.activate(out)
		}
		return
	}
	doPool := func(in []float32) {
		p := tensor.Pool2D{F: spec.PoolF, S: spec.PoolS, P: spec.PoolP, Ceil: false}
		if spec.Pool == nn.PoolMax {
			p.MaxForward(in, convShape.C, convShape.H, convShape.W, out, nil)
		} else {
			p.AvgForward(in, convShape.C, convShape.H, convShape.W, out)
		}
	}
	if s.cfg.PoolBeforeActivation {
		doPool(convOut)
		if spec.ReLU {
			s.activate(out)
		}
		return
	}
	if spec.ReLU {
		s.activate(convOut)
	}
	doPool(convOut)
}

// recordPrunedWrite emits the compressed write burst for nz non-zero values
// appended to channel c's stream in layer li's output slot, and returns the
// byte volume written.
func (s *Simulator) recordPrunedWrite(se *session, li, c, nz int, planeBytes uint64) int {
	if nz == 0 {
		return 0
	}
	bytes := nz * s.cfg.PruneBytesPerNZ
	base := s.lay.Fmaps[li].Base + uint64(c)*planeBytes + se.chanStream[li][c]
	se.rec.RecordBytes(se.cycle, base, bytes, memtrace.Write)
	se.chanStream[li][c] += uint64(bytes)
	return bytes
}

// countNZRows counts non-zero elements of channel c, rows [r0,r1), in a
// C×H×W buffer.
func countNZRows(buf []float32, h, w, c, r0, r1 int) int {
	nz := 0
	base := c * h * w
	for _, v := range buf[base+r0*w : base+r1*w] {
		if v != 0 {
			nz++
		}
	}
	return nz
}

// simConv computes a conv layer functionally (when the run computes) and
// emits its tiled trace.
func (s *Simulator) simConv(li int, se *session) {
	n := s.net
	spec := &n.Specs[li]
	in := n.InShapes[li][0]
	conv := tensor.Conv2D{InC: in.C, OutC: spec.OutC, F: spec.F, S: spec.S, P: spec.P}
	convShape := spec.ConvOut(in)
	outShape := n.Shapes[li]

	if se.compute {
		out := se.acts[li]
		convOut := out // unpooled: conv and layer output share the buffer
		if spec.Pool != nn.PoolNone {
			convOut = se.convScratch[:convShape.Len()]
		}
		conv.Forward(se.inputAct(n, li, 0), in.H, in.W, n.Params[li].W.Data, n.Params[li].B.Data, convOut, se.cols)
		s.applyActPool(spec, convOut, convShape, out)
	}

	s.emitConvTrace(li, se, in, convShape, outShape, conv.InC*spec.F*spec.F)
	s.finishFmap(li, se, outShape, s.cfg.ZeroPrune)
}

// finishFmap records per-channel non-zero statistics (when the run
// computes) and, for layers whose output was written compressed, the stored
// channel sizes. With PadPrunedWrites, compressed streams are padded with
// dummy transactions up to the dense-equivalent worst case, hiding the §4
// count leak (at a cost exceeding unpruned traffic). Only pruning runs write
// compressed, and those always compute.
func (s *Simulator) finishFmap(li int, se *session, outShape nn.Shape, pruned bool) {
	nz := se.nz[li]
	if se.compute {
		out := se.acts[li]
		for c := 0; c < outShape.C; c++ {
			nz[c] = countNZRows(out, outShape.H, outShape.W, c, 0, outShape.H)
		}
	}
	if !pruned {
		return
	}
	cb := se.chanBytes[li]
	for c := range cb {
		cb[c] = nz[c] * s.cfg.PruneBytesPerNZ
	}
	if s.cfg.PadPrunedWrites {
		stride := s.fmapPlaneStride(outShape)
		for c := range cb {
			pad := int(stride) - cb[c]
			if pad > 0 {
				base := s.lay.Fmaps[li].Base + uint64(c)*stride + uint64(cb[c])
				se.rec.RecordBytes(se.cycle, base, pad, memtrace.Write)
				se.cycle += s.jitter(se, s.memCycles(pad))
			}
			cb[c] = int(stride)
		}
	}
	se.pruned[li] = true
}

// convTiling derives the conv loop-nest geometry — the output-channel tile
// and the output-row band height — from the buffer sizes. Shared by the
// trace emitter and the transaction-count estimator so Recorder reservations
// match what a run records.
func (s *Simulator) convTiling(li int, in, convShape, outShape nn.Shape, weightsPerOC int, pruneIn bool) (bandRows, ocTile int) {
	spec := &s.net.Specs[li]
	cfg := &s.cfg
	elem := cfg.ElemBytes

	ocTile = cfg.WBufBytes / ((weightsPerOC + 1) * elem)
	if ocTile < 1 {
		ocTile = 1
	}
	if ocTile > spec.OutC {
		ocTile = spec.OutC
	}

	// Choose a band height (in output rows) so the OFM band fits the OFM
	// buffer and one channel's IFM band fits the IFM buffer.
	bandRows = outShape.H
	for bandRows > 1 {
		i0, i1 := s.ifmRowsFor(spec, in, convShape, bandRows, 0)
		ofmOK := bandRows*outShape.W*ocTile*elem <= cfg.OFMBufBytes
		ifmOK := (i1-i0)*in.W*elem <= cfg.IFMBufBytes
		if ofmOK && ifmOK {
			break
		}
		bandRows--
	}
	if pruneIn {
		// Compressed IFM streams are not row-addressable: stream the whole
		// map once per filter tile instead of banding.
		bandRows = outShape.H
	}
	return bandRows, ocTile
}

// ifmRowsFor maps an output-row band [p0, p0+bh) back to the input rows it
// consumes through the (optional) pool and conv windows.
func (s *Simulator) ifmRowsFor(spec *nn.LayerSpec, in, convShape nn.Shape, bh, p0 int) (i0, i1 int) {
	c0, c1 := p0, p0+bh // conv rows
	if spec.Pool != nn.PoolNone {
		c0 = p0*spec.PoolS - spec.PoolP
		c1 = (p0+bh-1)*spec.PoolS - spec.PoolP + spec.PoolF
	}
	if c0 < 0 {
		c0 = 0
	}
	if c1 > convShape.H {
		c1 = convShape.H
	}
	i0 = c0*spec.S - spec.P
	i1 = (c1-1)*spec.S - spec.P + spec.F
	if i0 < 0 {
		i0 = 0
	}
	if i1 > in.H {
		i1 = in.H
	}
	return i0, i1
}

// emitConvTrace walks the tiling loop nest of a convolution, emitting reads
// of IFM and filter tiles, OFM write bursts and the cycle cost of each tile.
func (s *Simulator) emitConvTrace(li int, se *session, in, convShape, outShape nn.Shape, weightsPerOC int) {
	n := s.net
	spec := &n.Specs[li]
	cfg := &s.cfg
	elem := cfg.ElemBytes

	pruneIn := s.prunedInput(se, li, 0)
	inCB := s.inputChanBytes(se, li, 0)
	inReg, _ := s.inputRegion(li, 0)
	wReg := s.lay.Weights[li]
	outReg := s.lay.Fmaps[li]
	inStride := s.inputPlaneStride(li, 0)
	inDense := inStride == uint64(in.H*in.W*elem)
	outStride := s.fmapPlaneStride(outShape)
	outDense := outStride == uint64(outShape.H*outShape.W*elem)
	if cfg.ZeroPrune {
		cs := se.chanStream[li]
		for c := range cs {
			cs[c] = 0
		}
	}

	bandRows, ocTile := s.convTiling(li, in, convShape, outShape, weightsPerOC, pruneIn)

	// Shared tile helpers, composed per the configured dataflow.
	readIFM := func(p0, p1 int) int {
		i0, i1 := s.ifmRowsFor(spec, in, convShape, p1-p0, p0)
		memBytes := 0
		if pruneIn {
			// Compressed channels cannot be row-addressed: stream whole
			// channels.
			for c := 0; c < in.C; c++ {
				if inCB[c] == 0 {
					continue
				}
				se.rec.RecordBytes(se.cycle, inReg.Base+uint64(c)*inStride, inCB[c], memtrace.Read)
				memBytes += inCB[c]
			}
			return memBytes
		}
		rowBytes := (i1 - i0) * in.W * elem
		if i0 == 0 && i1 == in.H && inDense {
			// Whole channels are contiguous: one burst.
			se.rec.RecordBytes(se.cycle, inReg.Base, in.C*rowBytes, memtrace.Read)
			return in.C * rowBytes
		}
		for c := 0; c < in.C; c++ {
			base := inReg.Base + uint64(c)*inStride + uint64(i0*in.W*elem)
			se.rec.RecordBytes(se.cycle, base, rowBytes, memtrace.Read)
			memBytes += rowBytes
		}
		return memBytes
	}
	readIFMRows := func(r0, r1 int) int {
		// Row-granular IFM read: only rows [r0, r1), every channel.
		rowBytes := (r1 - r0) * in.W * elem
		if r0 == 0 && r1 == in.H && inDense {
			se.rec.RecordBytes(se.cycle, inReg.Base, in.C*rowBytes, memtrace.Read)
			return in.C * rowBytes
		}
		memBytes := 0
		for c := 0; c < in.C; c++ {
			base := inReg.Base + uint64(c)*inStride + uint64(r0*in.W*elem)
			se.rec.RecordBytes(se.cycle, base, rowBytes, memtrace.Read)
			memBytes += rowBytes
		}
		return memBytes
	}
	readWeights := func(oc0, oc1 int) int {
		wBytes := (oc1 - oc0) * weightsPerOC * elem
		se.rec.RecordBytes(se.cycle, wReg.Base+uint64(oc0*weightsPerOC*elem), wBytes, memtrace.Read)
		if cfg.BiasInDRAM {
			biasBase := wReg.Base + uint64(spec.OutC*weightsPerOC*elem)
			bBytes := (oc1 - oc0) * elem
			se.rec.RecordBytes(se.cycle, biasBase+uint64(oc0*elem), bBytes, memtrace.Read)
			wBytes += bBytes
		}
		return wBytes
	}
	convRows := func(p0, p1 int) (c0, c1 int) {
		c0, c1 = p0, p1
		if spec.Pool != nn.PoolNone {
			c0 = p0*spec.PoolS - spec.PoolP
			c1 = (p1-1)*spec.PoolS - spec.PoolP + spec.PoolF
			if c0 < 0 {
				c0 = 0
			}
			if c1 > convShape.H {
				c1 = convShape.H
			}
		}
		return c0, c1
	}
	computeRows := func(c0, c1, oc0, oc1, memBytes int) {
		macs := int64(c1-c0) * int64(convShape.W) * int64(spec.F) * int64(spec.F) * int64(in.C) * int64(oc1-oc0)
		cc := s.computeCycles(macs)
		if mc := s.memCycles(memBytes); mc > cc {
			cc = mc
		}
		se.cycle += s.jitter(se, cc+cfg.TileOverhead)
	}
	compute := func(p0, p1, oc0, oc1, memBytes int) {
		c0, c1 := convRows(p0, p1)
		computeRows(c0, c1, oc0, oc1, memBytes)
	}
	writeOFM := func(p0, p1, oc0, oc1 int) {
		// OFM band write (once, post activation+pool).
		if cfg.ZeroPrune {
			wb := 0
			for c := oc0; c < oc1; c++ {
				nz := countNZRows(se.acts[li], outShape.H, outShape.W, c, p0, p1)
				wb += s.recordPrunedWrite(se, li, c, nz, outStride)
			}
			se.cycle += s.jitter(se, s.memCycles(wb))
			return
		}
		rowBytes := (p1 - p0) * outShape.W * elem
		if p0 == 0 && p1 == outShape.H && outDense {
			se.rec.RecordBytes(se.cycle, outReg.Base+uint64(oc0)*outStride, (oc1-oc0)*rowBytes, memtrace.Write)
		} else {
			for c := oc0; c < oc1; c++ {
				base := outReg.Base + uint64(c)*outStride + uint64(p0*outShape.W*elem)
				se.rec.RecordBytes(se.cycle, base, rowBytes, memtrace.Write)
			}
		}
		se.cycle += s.jitter(se, s.memCycles((oc1-oc0)*rowBytes))
	}

	switch cfg.Dataflow {
	case WeightStationary:
		// Each filter tile is pinned on chip while the IFM streams past it;
		// filters are read exactly once.
		for oc0 := 0; oc0 < spec.OutC; oc0 += ocTile {
			oc1 := minInt(oc0+ocTile, spec.OutC)
			wb := readWeights(oc0, oc1)
			for p0 := 0; p0 < outShape.H; p0 += bandRows {
				p1 := minInt(p0+bandRows, outShape.H)
				mem := readIFM(p0, p1)
				if p0 == 0 {
					mem += wb
				}
				compute(p0, p1, oc0, oc1, mem)
				writeOFM(p0, p1, oc0, oc1)
			}
		}
	case RowStationary:
		// Filters stream on chip exactly once (ascending tile preamble) and
		// partial sums are retained in the PE array, so the IFM is also read
		// exactly once: each output row pulls in only its newly-needed input
		// rows and retires immediately across every output channel. The
		// per-row channel-interleaved write pattern after a weight-only
		// preamble is this dataflow's trace signature.
		wb := 0
		for oc0 := 0; oc0 < spec.OutC; oc0 += ocTile {
			oc1 := minInt(oc0+ocTile, spec.OutC)
			wb += readWeights(oc0, oc1)
		}
		if pruneIn {
			// Compressed IFM streams are not row-addressable: stream the
			// whole map once after the filter preamble.
			wb += readIFM(0, outShape.H)
		}
		cursor, ccur := 0, 0
		for p := 0; p < outShape.H; p++ {
			mem := 0
			if !pruneIn {
				_, i1 := s.ifmRowsFor(spec, in, convShape, 1, p)
				if i1 > cursor {
					mem = readIFMRows(cursor, i1)
					cursor = i1
				}
			}
			if p == 0 {
				mem += wb
			}
			// Pool windows overlap in conv rows; partial sums held in the
			// array mean each conv row's MACs are paid exactly once.
			c0, c1 := convRows(p, p+1)
			if c0 < ccur {
				c0 = ccur
			}
			if c1 < c0 {
				c1 = c0
			}
			ccur = c1
			computeRows(c0, c1, 0, spec.OutC, mem)
			writeOFM(p, p+1, 0, spec.OutC)
		}
	default: // OutputStationary
		// Each output band is pinned on chip while the filter tiles stream
		// past it.
		for p0 := 0; p0 < outShape.H; p0 += bandRows {
			p1 := minInt(p0+bandRows, outShape.H)
			for oc0 := 0; oc0 < spec.OutC; oc0 += ocTile {
				oc1 := minInt(oc0+ocTile, spec.OutC)
				mem := readIFM(p0, p1) + readWeights(oc0, oc1)
				compute(p0, p1, oc0, oc1, mem)
				writeOFM(p0, p1, oc0, oc1)
			}
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// simFC computes a fully-connected layer (when the run computes) and emits
// its trace: the IFM is read once (it fits on chip), weight rows stream in
// output tiles, and the output vector is written once.
func (s *Simulator) simFC(li int, se *session) {
	n := s.net
	spec := &n.Specs[li]
	in := n.InShapes[li][0]
	cfg := &s.cfg
	elem := cfg.ElemBytes

	var out []float32 // read only by pruned writes, and pruning runs compute
	if se.compute {
		l := tensor.Linear{In: in.Len(), Out: spec.OutC}
		out = se.acts[li]
		l.Forward(se.inputAct(n, li, 0), n.Params[li].W.Data, n.Params[li].B.Data, out)
		if spec.ReLU {
			s.activate(out)
		}
	}

	inReg, inShape := s.inputRegion(li, 0)
	inCB := s.inputChanBytes(se, li, 0)
	pruneIn := s.prunedInput(se, li, 0)
	inStride := s.inputPlaneStride(li, 0)
	inDense := inStride == uint64(inShape.H*inShape.W*elem)
	wReg := s.lay.Weights[li]
	outShape := n.Shapes[li]
	outStride := s.fmapPlaneStride(outShape)
	if cfg.ZeroPrune {
		cs := se.chanStream[li]
		for c := range cs {
			cs[c] = 0
		}
	}

	// Read the whole IFM once.
	memBytes := 0
	if pruneIn || !inDense {
		for c := 0; c < inShape.C; c++ {
			if inCB[c] == 0 {
				continue
			}
			se.rec.RecordBytes(se.cycle, inReg.Base+uint64(c)*inStride, inCB[c], memtrace.Read)
			memBytes += inCB[c]
		}
	} else {
		se.rec.RecordBytes(se.cycle, inReg.Base, in.Len()*elem, memtrace.Read)
		memBytes = in.Len() * elem
	}
	se.cycle += s.jitter(se, s.memCycles(memBytes)+cfg.TileOverhead)

	rowBytes := in.Len() * elem
	ocTile := cfg.WBufBytes / rowBytes
	if ocTile < 1 {
		ocTile = 1
	}
	for oc0 := 0; oc0 < spec.OutC; oc0 += ocTile {
		oc1 := oc0 + ocTile
		if oc1 > spec.OutC {
			oc1 = spec.OutC
		}
		wBytes := (oc1 - oc0) * rowBytes
		se.rec.RecordBytes(se.cycle, wReg.Base+uint64(oc0*rowBytes), wBytes, memtrace.Read)
		if cfg.BiasInDRAM {
			biasBase := wReg.Base + uint64(spec.OutC*rowBytes)
			se.rec.RecordBytes(se.cycle, biasBase+uint64(oc0*elem), (oc1-oc0)*elem, memtrace.Read)
		}
		macs := int64(oc1-oc0) * int64(in.Len())
		cc := s.computeCycles(macs)
		if mc := s.memCycles(wBytes); mc > cc {
			cc = mc
		}
		se.cycle += s.jitter(se, cc+cfg.TileOverhead)
	}

	if cfg.ZeroPrune {
		wb := 0
		for c := 0; c < spec.OutC; c++ {
			nz := 0
			if out[c] != 0 {
				nz = 1
			}
			wb += s.recordPrunedWrite(se, li, c, nz, outStride)
		}
		se.cycle += s.jitter(se, s.memCycles(wb))
	} else {
		se.rec.RecordBytes(se.cycle, s.lay.Fmaps[li].Base, spec.OutC*elem, memtrace.Write)
		se.cycle += s.jitter(se, s.memCycles(spec.OutC*elem))
	}
	s.finishFmap(li, se, outShape, s.cfg.ZeroPrune)
}

// simEltwise adds its inputs (when the run computes) channel-plane by
// channel-plane, reading the most recently produced input first (its data is
// the fresh RAW dependency that marks the layer boundary).
func (s *Simulator) simEltwise(li int, se *session) {
	n := s.net
	spec := &n.Specs[li]
	outShape := n.Shapes[li]
	elem := s.cfg.ElemBytes

	if se.compute {
		out := se.acts[li]
		copy(out, se.inputAct(n, li, 0))
		for j := 1; j < len(spec.Inputs); j++ {
			for k, v := range se.inputAct(n, li, j) {
				out[k] += v
			}
		}
	}

	// Visit inputs most-recent-producer first.
	order := se.order[:len(spec.Inputs)]
	for i := range order {
		order[i] = i
	}
	for a := 0; a < len(order); a++ {
		for b := a + 1; b < len(order); b++ {
			if spec.Inputs[order[b]] > spec.Inputs[order[a]] {
				order[a], order[b] = order[b], order[a]
			}
		}
	}

	denseBytes := outShape.H * outShape.W * elem
	outStride := s.fmapPlaneStride(outShape)
	for c := 0; c < outShape.C; c++ {
		memBytes := 0
		for _, j := range order {
			reg, _ := s.inputRegion(li, j)
			cb := s.inputChanBytes(se, li, j)
			stride := s.inputPlaneStride(li, j)
			if cb[c] == 0 {
				continue
			}
			se.rec.RecordBytes(se.cycle, reg.Base+uint64(c)*stride, cb[c], memtrace.Read)
			memBytes += cb[c]
		}
		se.rec.RecordBytes(se.cycle, s.lay.Fmaps[li].Base+uint64(c)*outStride, denseBytes, memtrace.Write)
		memBytes += denseBytes
		se.cycle += s.jitter(se, s.memCycles(memBytes)+s.cfg.TileOverhead)
	}
	// Element-wise outputs are written dense even under pruning.
	s.finishFmap(li, se, outShape, false)
}

// simConcat assembles its output and, when the run computes, its non-zero
// statistics. Producers whose sole consumer is this concat already wrote
// into the shared region (zero-copy) and contribute no traffic; others are
// copied through the accelerator.
func (s *Simulator) simConcat(li int, se *session) {
	n := s.net
	spec := &n.Specs[li]
	outShape := n.Shapes[li]
	elem := s.cfg.ElemBytes

	if se.compute {
		out := se.acts[li]
		off := 0
		for j := range spec.Inputs {
			src := se.inputAct(n, li, j)
			copy(out[off:off+len(src)], src)
			off += len(src)
		}
		nzs := se.nz[li]
		for c := 0; c < outShape.C; c++ {
			nzs[c] = countNZRows(out, outShape.H, outShape.W, c, 0, outShape.H)
		}
	}

	// Per-channel stored sizes: concatenation of producer channel sizes
	// (so downstream readers of a pruned fire module see compressed streams).
	cb := se.chanBytes[li]
	cOff := 0
	anyPruned := false
	for j := range spec.Inputs {
		jcb := s.inputChanBytes(se, li, j)
		copy(cb[cOff:cOff+len(jcb)], jcb)
		cOff += len(jcb)
		if s.prunedInput(se, li, j) {
			anyPruned = true
		}
	}
	se.pruned[li] = anyPruned

	byteOff := uint64(0)
	felem := uint64(s.fmapElemBytes())
	for j := range spec.Inputs {
		ref := spec.Inputs[j]
		reg, shape := s.inputRegion(li, j)
		slot := uint64(shape.Len()) * felem
		if ref >= 0 && s.concatTarget[ref] == li {
			byteOff += slot
			continue // zero-copy: already in place
		}
		size := shape.Len() * elem
		se.rec.RecordBytes(se.cycle, reg.Base, size, memtrace.Read)
		se.rec.RecordBytes(se.cycle, s.lay.Fmaps[li].Base+byteOff, size, memtrace.Write)
		se.cycle += s.jitter(se, s.memCycles(2*size)+s.cfg.TileOverhead)
		byteOff += slot
	}
}
