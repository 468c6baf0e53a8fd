package nn

import (
	"math"
	"math/rand"

	"cnnrev/internal/tensor"
)

// gradState carries per-layer backward buffers for one worker.
type gradState struct {
	dOut     [][]float32 // gradient w.r.t. each layer output
	dActMax  []float32   // scratch: gradient w.r.t. pre-pool activation
	dInMax   []float32   // scratch: gradient w.r.t. a layer input
	colsGrad []float32   // scratch for conv backward
	dW, dB   [][]float32 // parameter gradient accumulators (nil for non-param layers)
}

func (n *Network) newGradState() *gradState {
	gs := &gradState{
		dOut: make([][]float32, len(n.Specs)),
		dW:   make([][]float32, len(n.Specs)),
		dB:   make([][]float32, len(n.Specs)),
	}
	maxAct, maxIn, maxCols := 0, n.Input.Len(), 0
	for i := range n.Specs {
		gs.dOut[i] = make([]float32, n.Shapes[i].Len())
		if p := n.Params[i]; p != nil {
			gs.dW[i] = make([]float32, p.W.Len())
			gs.dB[i] = make([]float32, p.B.Len())
		}
		for _, in := range n.InShapes[i] {
			if in.Len() > maxIn {
				maxIn = in.Len()
			}
		}
		if n.Specs[i].Kind == KindConv {
			spec := &n.Specs[i]
			in := n.InShapes[i][0]
			c := spec.ConvOut(in)
			if c.Len() > maxAct {
				maxAct = c.Len()
			}
			if k := in.C * spec.F * spec.F * c.H * c.W; k > maxCols {
				maxCols = k
			}
		}
	}
	gs.dActMax = make([]float32, maxAct)
	gs.dInMax = make([]float32, maxIn)
	gs.colsGrad = make([]float32, maxCols)
	return gs
}

// zeroGrads clears parameter-gradient accumulators.
func (gs *gradState) zeroGrads() {
	for i := range gs.dW {
		for j := range gs.dW[i] {
			gs.dW[i][j] = 0
		}
		for j := range gs.dB[i] {
			gs.dB[i][j] = 0
		}
	}
}

// backward propagates the loss gradient (already stored in
// gs.dOut[last]) through the network, accumulating parameter gradients in
// gs.dW/gs.dB. st must hold the forward activations of the same sample.
func (n *Network) backward(st *state, gs *gradState, x []float32) {
	// Zero every intermediate dOut except the last, which carries dLoss.
	for i := 0; i < len(n.Specs)-1; i++ {
		buf := gs.dOut[i]
		for j := range buf {
			buf[j] = 0
		}
	}
	for i := len(n.Specs) - 1; i >= 0; i-- {
		spec := &n.Specs[i]
		g := gs.dOut[i]
		switch spec.Kind {
		case KindConv:
			in := n.InShapes[i][0]
			c := spec.ConvOut(in)
			// Gradient w.r.t. the pre-pool activation.
			var dAct []float32
			if spec.Pool != PoolNone {
				dAct = gs.dActMax[:c.Len()]
				for j := range dAct {
					dAct[j] = 0
				}
				p := tensor.Pool2D{F: spec.PoolF, S: spec.PoolS, P: spec.PoolP, Ceil: false}
				if spec.Pool == PoolMax {
					p.MaxBackward(g, st.argmax[i], dAct)
				} else {
					p.AvgBackward(g, c.C, c.H, c.W, dAct)
				}
			} else {
				dAct = g
			}
			if spec.ReLU {
				// In-place mask: dPre = dAct where activation was positive.
				act := st.actOut[i]
				for j := range dAct {
					if act[j] <= 0 {
						dAct[j] = 0
					}
				}
			}
			conv := tensor.Conv2D{InC: in.C, OutC: spec.OutC, F: spec.F, S: spec.S, P: spec.P}
			ref := spec.Inputs[0]
			var dIn []float32
			if ref != InputRef {
				dIn = gs.dInMax[:in.Len()]
			}
			conv.Backward(st.input(n, i, 0, x), in.H, in.W, n.Params[i].W.Data,
				dAct, gs.dW[i], gs.dB[i], dIn, st.cols, gs.colsGrad)
			if ref != InputRef {
				dst := gs.dOut[ref]
				for j, v := range dIn {
					dst[j] += v
				}
			}
		case KindFC:
			in := n.InShapes[i][0]
			if spec.ReLU {
				act := st.actOut[i]
				for j := range g {
					if act[j] <= 0 {
						g[j] = 0
					}
				}
			}
			l := tensor.Linear{In: in.Len(), Out: spec.OutC}
			ref := spec.Inputs[0]
			var dIn []float32
			if ref != InputRef {
				dIn = gs.dInMax[:in.Len()]
			}
			l.Backward(st.input(n, i, 0, x), n.Params[i].W.Data, g, gs.dW[i], gs.dB[i], dIn)
			if ref != InputRef {
				dst := gs.dOut[ref]
				for j, v := range dIn {
					dst[j] += v
				}
			}
		case KindConcat:
			off := 0
			for _, ref := range spec.Inputs {
				var size int
				if ref == InputRef {
					size = n.Input.Len()
				} else {
					size = n.Shapes[ref].Len()
				}
				if ref != InputRef {
					dst := gs.dOut[ref]
					seg := g[off : off+size]
					for k, v := range seg {
						dst[k] += v
					}
				}
				off += size
			}
		case KindEltwise:
			for _, ref := range spec.Inputs {
				if ref == InputRef {
					continue
				}
				dst := gs.dOut[ref]
				for k, v := range g {
					dst[k] += v
				}
			}
		}
	}
}

// Trainer performs minibatch SGD with momentum over a fixed network,
// parallelizing samples within a batch across workers.
type Trainer struct {
	Net         *Network
	LR          float32
	Momentum    float32
	WeightDecay float32
	BatchSize   int
	Workers     int
	// ClipNorm rescales each batch gradient to at most this global L2 norm
	// (0 disables clipping). Essential for stable short training of deep
	// candidates at aggressive learning rates.
	ClipNorm float64

	velW, velB [][]float32
	bufs       []*trainBuf
	losses     []float64
	shard      stepShard
}

type trainBuf struct {
	st *state
	gs *gradState
}

// stepShard is the trainer's reusable parallel-region body: one Run(w)
// invocation processes worker w's strided share of the current minibatch.
// Keeping it (and the operand references it needs) in a persistent field
// instead of a per-step closure keeps Trainer.step allocation-free, which
// the parallel candidate-ranking path relies on — dozens of short trainings
// run concurrently and per-step garbage would serialize them in the GC.
type stepShard struct {
	tr      *Trainer
	xs      [][]float32
	ys      []int
	batch   []int
	workers int
}

// Run computes worker w's forward/backward passes and gradient accumulation.
func (s *stepShard) Run(w int) {
	tr := s.tr
	n := tr.Net
	buf := tr.bufs[w]
	buf.gs.zeroGrads()
	var loss float64
	last := len(n.Specs) - 1
	for bi := w; bi < len(s.batch); bi += s.workers {
		idx := s.batch[bi]
		x := s.xs[idx]
		out := n.forward(buf.st, x)
		loss += tensor.SoftmaxCrossEntropy(out, s.ys[idx], buf.gs.dOut[last])
		n.backward(buf.st, buf.gs, x)
	}
	// A local accumulator before the single final store keeps shards from
	// writing adjacent losses[] words in their hot loop (false sharing).
	tr.losses[w] = loss
}

// NewTrainer constructs a trainer with sensible defaults for any zero field
// (LR 0.01, momentum 0.9, batch 32, one worker per shared-pool slot).
func NewTrainer(n *Network) *Trainer {
	tr := &Trainer{
		Net:       n,
		LR:        0.01,
		Momentum:  0.9,
		BatchSize: 32,
		Workers:   tensor.Workers(),
	}
	tr.velW = make([][]float32, len(n.Specs))
	tr.velB = make([][]float32, len(n.Specs))
	for i, p := range n.Params {
		if p != nil {
			tr.velW[i] = make([]float32, p.W.Len())
			tr.velB[i] = make([]float32, p.B.Len())
		}
	}
	return tr
}

func (tr *Trainer) ensureBufs() {
	if tr.Workers < 1 {
		tr.Workers = 1
	}
	for len(tr.bufs) < tr.Workers {
		tr.bufs = append(tr.bufs, &trainBuf{st: tr.Net.newState(), gs: tr.Net.newGradState()})
	}
	if len(tr.losses) < tr.Workers {
		tr.losses = make([]float64, tr.Workers)
	}
}

// ReleaseScratch drops the trainer's per-worker forward and backward
// buffers; the next Epoch allocates them again. Parameters, momentum and
// the results of later epochs are unaffected: the buffers carry nothing
// from one step to the next. A caller that pauses a training — the
// ranking's successive-halving rungs — releases them so a paused trainer
// holds only its parameters and momentum.
func (tr *Trainer) ReleaseScratch() {
	tr.bufs = nil
}

// Epoch runs one pass over the dataset in shuffled minibatches and returns
// the mean cross-entropy loss.
func (tr *Trainer) Epoch(xs [][]float32, ys []int, rng *rand.Rand) float64 {
	tr.ensureBufs()
	perm := rng.Perm(len(xs))
	var totalLoss float64
	for start := 0; start < len(perm); start += tr.BatchSize {
		end := start + tr.BatchSize
		if end > len(perm) {
			end = len(perm)
		}
		totalLoss += tr.step(xs, ys, perm[start:end])
	}
	return totalLoss / float64(len(xs))
}

// step processes one minibatch and applies the SGD update; it returns the
// summed loss over the batch.
func (tr *Trainer) step(xs [][]float32, ys []int, batch []int) float64 {
	tr.ensureBufs() // no-op (and no allocation) once warm
	n := tr.Net
	workers := tr.Workers
	if workers > len(batch) {
		workers = len(batch)
	}
	// Worker shards run on the shared tensor pool; a shard's nested GEMM
	// parallelism then finds the pool busy and runs inline instead of
	// oversubscribing. The shard body and loss accumulators are persistent
	// trainer fields, so a step allocates nothing in steady state.
	tr.shard = stepShard{tr: tr, xs: xs, ys: ys, batch: batch, workers: workers}
	tensor.ParallelRun(workers, &tr.shard)
	tr.shard.xs, tr.shard.ys, tr.shard.batch = nil, nil, nil

	invBatch := 1 / float32(len(batch))
	// Reduce worker gradients into worker 0 and optionally clip the global
	// gradient norm.
	var sq float64
	for i, p := range n.Params {
		if p == nil {
			continue
		}
		for w := 1; w < workers; w++ {
			src := tr.bufs[w].gs
			dst := tr.bufs[0].gs
			for j, v := range src.dW[i] {
				dst.dW[i][j] += v
			}
			for j, v := range src.dB[i] {
				dst.dB[i][j] += v
			}
		}
		if tr.ClipNorm > 0 {
			for _, v := range tr.bufs[0].gs.dW[i] {
				g := float64(v) * float64(invBatch)
				sq += g * g
			}
			for _, v := range tr.bufs[0].gs.dB[i] {
				g := float64(v) * float64(invBatch)
				sq += g * g
			}
		}
	}
	scale := float32(1)
	if tr.ClipNorm > 0 {
		if norm := math.Sqrt(sq); norm > tr.ClipNorm {
			scale = float32(tr.ClipNorm / norm)
		}
	}
	for i, p := range n.Params {
		if p == nil {
			continue
		}
		gW, gB := tr.bufs[0].gs.dW[i], tr.bufs[0].gs.dB[i]
		for j := range p.W.Data {
			g := gW[j]*invBatch*scale + tr.WeightDecay*p.W.Data[j]
			tr.velW[i][j] = tr.Momentum*tr.velW[i][j] - tr.LR*g
			p.W.Data[j] += tr.velW[i][j]
		}
		for j := range p.B.Data {
			g := gB[j] * invBatch * scale
			tr.velB[i][j] = tr.Momentum*tr.velB[i][j] - tr.LR*g
			p.B.Data[j] += tr.velB[i][j]
		}
	}
	var loss float64
	for _, l := range tr.losses[:workers] {
		loss += l
	}
	return loss
}

// Accuracy returns the top-k classification accuracy of n over the dataset.
func Accuracy(n *Network, xs [][]float32, ys []int, k int) float64 {
	return accuracy(n, xs, ys, k, nil)
}

// Accuracy returns the top-k classification accuracy of the trained
// network over the dataset, evaluated on the trainer's own per-worker
// buffers instead of freshly allocated ones.
func (tr *Trainer) Accuracy(xs [][]float32, ys []int, k int) float64 {
	tr.ensureBufs()
	return accuracy(tr.Net, xs, ys, k, tr.bufs[:tr.Workers])
}

// accuracy evaluates the samples on one state per worker: bufs' states
// when given, else new ones.
func accuracy(n *Network, xs [][]float32, ys []int, k int, bufs []*trainBuf) float64 {
	if len(xs) == 0 {
		return 0
	}
	workers := tensor.Workers()
	if bufs != nil {
		workers = len(bufs)
	}
	if workers > len(xs) {
		workers = len(xs)
	}
	hits := make([]int, workers)
	tensor.Parallel(workers, func(w int) {
		var st *state
		if bufs != nil {
			st = bufs[w].st
		} else {
			st = n.newState()
		}
		// Per-worker top-k scratch: the ranking loop evaluates thousands of
		// samples and must not allocate per sample.
		idxBuf := make([]int, 0, k)
		valBuf := make([]float32, 0, k)
		hit := 0 // local accumulator: avoids false sharing on hits[]
		for i := w; i < len(xs); i += workers {
			out := n.forward(st, xs[i])
			for _, idx := range tensor.TopKInto(out, k, idxBuf, valBuf) {
				if idx == ys[i] {
					hit++
					break
				}
			}
		}
		hits[w] = hit
	})
	total := 0
	for _, h := range hits {
		total += h
	}
	return float64(total) / float64(len(xs))
}
