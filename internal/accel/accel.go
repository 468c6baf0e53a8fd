// Package accel simulates the paper's victim: a tile-based CNN inference
// accelerator (Figure 1) behind an SGX-like protection boundary (Figure 2).
// The simulator computes each layer exactly (same arithmetic as internal/nn)
// while emitting the off-chip DRAM access trace an adversary would observe:
// tiled reads of input-feature-map (IFM) and filter regions, write-once
// output-feature-map (OFM) bursts, and a cycle counter from a compute-bound
// PE-array model. With ZeroPrune enabled, OFM writes are run-length
// compressed per output channel, leaking the non-zero pixel counts that the
// paper's weight attack exploits. Without it the trace is data-oblivious,
// and Observe records it without computing any layer.
package accel

import (
	"fmt"
	"sync"

	"cnnrev/internal/memtrace"
	"cnnrev/internal/nn"
)

// Dataflow selects the convolution tiling loop order — the accelerator's
// data-reuse strategy. The paper's structure attack is claimed to work
// "regardless of its micro-architecture details and data reuse strategies";
// having both orders lets the reproduction test that claim directly.
type Dataflow int

const (
	// OutputStationary pins each output band on chip and streams filter
	// tiles past it (the default).
	OutputStationary Dataflow = iota
	// WeightStationary pins each filter tile on chip and streams the input
	// feature map past it; filters are read exactly once.
	WeightStationary
	// RowStationary holds partial sums in the PE array (Eyeriss-style):
	// filters and the input feature map are each read exactly once, and
	// output rows retire in row-major order across every output channel.
	RowStationary
)

// String names the dataflow.
func (d Dataflow) String() string {
	switch d {
	case WeightStationary:
		return "weight-stationary"
	case RowStationary:
		return "row-stationary"
	}
	return "output-stationary"
}

// ParseDataflow maps a user-facing dataflow name (canonical or short form)
// to its constant. The empty string selects the default output-stationary
// design, matching the zero Config.
func ParseDataflow(s string) (Dataflow, error) {
	switch s {
	case "", "os", "output-stationary":
		return OutputStationary, nil
	case "ws", "weight-stationary":
		return WeightStationary, nil
	case "rs", "row-stationary":
		return RowStationary, nil
	}
	return OutputStationary, fmt.Errorf("accel: unknown dataflow %q (want output-stationary|weight-stationary|row-stationary or os|ws|rs)", s)
}

// Config describes the accelerator microarchitecture.
type Config struct {
	// Dataflow selects the conv tiling loop order (default OutputStationary).
	Dataflow Dataflow
	// BlockBytes is the DRAM transaction granularity (default 4, i.e. a
	// 32-bit bus as on the paper's FPGA prototype).
	BlockBytes int
	// ElemBytes is the storage size of one feature-map/weight element
	// (default 4).
	ElemBytes int
	// IFMBufBytes, WBufBytes and OFMBufBytes size the on-chip buffers
	// (default 64 KiB each).
	IFMBufBytes, WBufBytes, OFMBufBytes int
	// PEs is the number of multiply-accumulates per cycle (default 256).
	PEs int
	// MemBytesPerCycle is the DRAM bandwidth (default 16).
	MemBytesPerCycle int
	// TileOverhead is the fixed per-tile control overhead in cycles
	// (default 32).
	TileOverhead uint64
	// ZeroPrune enables dynamic zero pruning of conv/FC OFM writes
	// (Cnvlutin/SCNN/Minerva style run-length encoding).
	ZeroPrune bool
	// PruneBytesPerNZ is the compressed size of one non-zero element
	// (value + index, default 8).
	PruneBytesPerNZ int
	// Threshold is the activation threshold: outputs at or below it are
	// zeroed. Zero gives plain ReLU; a tunable positive threshold models the
	// Minerva-style optimization §4 uses to recover the bias.
	Threshold float32
	// PoolBeforeActivation applies fused pooling before the activation
	// function (the semantics of the paper's Eq. 11) instead of the default
	// activation-then-pooling order.
	PoolBeforeActivation bool
	// PadPrunedWrites pads every compressed channel stream with dummy
	// transactions up to the dense size — the natural countermeasure to the
	// §4 weight attack (constant write counts reveal nothing) that also
	// forfeits pruning's entire bandwidth saving.
	PadPrunedWrites bool
	// CycleJitter adds deterministic multiplicative noise to every tile's
	// latency: each chunk's cycles are scaled by a factor uniform in
	// [1−CycleJitter, 1+CycleJitter]. Models DRAM contention and refresh
	// variability; the structure attack's timing filter must tolerate it.
	CycleJitter float64
	// NoiseSeed drives the jitter (runs with equal seeds are identical).
	NoiseSeed int64
	// BiasInDRAM stores per-channel biases in the filter DRAM region (and
	// streams them with the weights). The default (false) matches the
	// paper's Equation (3), SIZE_FLTR = F²·D_IFM·D_OFM: biases arrive with
	// the layer instructions from the host. Storing them in DRAM is an
	// ablation — the extra D_OFM elements let the attacker reject wrong
	// D_OFM factorizations outright, making the structure attack stronger.
	BiasInDRAM bool
}

// DefaultConfig returns the baseline configuration used by the experiments.
func DefaultConfig() Config {
	return Config{
		BlockBytes:       4,
		ElemBytes:        4,
		IFMBufBytes:      64 << 10,
		WBufBytes:        64 << 10,
		OFMBufBytes:      64 << 10,
		PEs:              64,
		MemBytesPerCycle: 64,
		TileOverhead:     32,
		PruneBytesPerNZ:  8,
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.BlockBytes == 0 {
		c.BlockBytes = d.BlockBytes
	}
	if c.ElemBytes == 0 {
		c.ElemBytes = d.ElemBytes
	}
	if c.IFMBufBytes == 0 {
		c.IFMBufBytes = d.IFMBufBytes
	}
	if c.WBufBytes == 0 {
		c.WBufBytes = d.WBufBytes
	}
	if c.OFMBufBytes == 0 {
		c.OFMBufBytes = d.OFMBufBytes
	}
	if c.PEs == 0 {
		c.PEs = d.PEs
	}
	if c.MemBytesPerCycle == 0 {
		c.MemBytesPerCycle = d.MemBytesPerCycle
	}
	if c.TileOverhead == 0 {
		c.TileOverhead = d.TileOverhead
	}
	if c.PruneBytesPerNZ == 0 {
		c.PruneBytesPerNZ = d.PruneBytesPerNZ
	}
}

// Region is an allocated DRAM byte range.
type Region struct {
	Base  uint64
	Bytes uint64
}

// End returns the first byte past the region.
func (r Region) End() uint64 { return r.Base + r.Bytes }

// Layout is the accelerator's DRAM allocation: one read-only region per
// parameterized layer (weights + bias), one feature-map region per layer
// output, and the network input region. Layers whose sole consumer is a
// concat layer write directly into the concat's region at their channel
// offset (zero-copy concatenation, as the paper assumes for fire modules).
type Layout struct {
	Input   Region
	Weights []Region // indexed by layer; zero Region for layers without parameters
	Fmaps   []Region // indexed by layer; output region of each layer
	// FmapOwner[i] is the layer whose Fmaps region layer i writes into
	// (i itself unless the output is embedded in a concat region).
	FmapOwner []int
	// FmapOffset[i] is the byte offset of layer i's output within the
	// owner's region.
	FmapOffset []uint64
}

const regionAlign = 4096

// Simulator runs a network on the modelled accelerator. A Simulator is safe
// for concurrent Run/RunMany/Observe calls (each borrows an arena from an
// internal pool); for allocation-free repeated inference give each goroutine
// its own Session.
type Simulator struct {
	cfg Config
	net *nn.Network
	lay Layout

	// zero-copy concat bookkeeping
	concatTarget []int // for each layer: consuming concat layer or -1

	// Immutable per-channel dense stored sizes, shared by every session:
	// denseCB[i][c] for layer i's output, inDenseCB for the network input.
	denseCB   [][]int
	inDenseCB []int
	// estAccesses is the tiling-derived upper bound on coalesced trace
	// records per inference, used to pre-reserve Recorder capacity.
	estAccesses int

	sessions sync.Pool // *session arenas for Run/RunMany/Observe
}

// Result captures one inference run. Run, RunMany and Session fill every
// field. Observe fills only the observables — Trace, LayerCycles,
// LayerStartCycle and LayerAccessRange — plus NZCounts when the simulator
// zero-prunes; its Logits and Acts are nil, because a trace-only run skips
// the arithmetic that would produce them.
type Result struct {
	// Logits is the final layer output (identical to nn inference up to the
	// configured activation semantics).
	Logits []float32
	// Trace is the observed off-chip access trace.
	Trace *memtrace.Trace
	// Acts holds every layer's output activation (ground truth for tests).
	Acts [][]float32
	// LayerCycles[i] is the simulated execution time of layer i (ground
	// truth; the adversary instead derives this from trace timestamps).
	LayerCycles []uint64
	// LayerStartCycle[i] is the cycle at which layer i began.
	LayerStartCycle []uint64
	// NZCounts[i][c] is the number of non-zero pixels in channel c of layer
	// i's output (meaningful when ZeroPrune is set; ground truth for tests).
	NZCounts [][]int
	// LayerAccessRange[i] brackets layer i's records in the trace: the
	// accesses layer i issued are Trace.Accesses[lo:hi] for [lo, hi] =
	// LayerAccessRange[i]. Region-scoped consumers (the §4 count oracle) use
	// it to read one layer's bursts without scanning the whole trace. For a
	// prefix run, layers past the stop layer carry an empty range at the
	// trace end.
	LayerAccessRange [][2]int
}

// New builds a simulator for net with the given configuration.
func New(net *nn.Network, cfg Config) (*Simulator, error) {
	cfg.fillDefaults()
	if cfg.Dataflow < OutputStationary || cfg.Dataflow > RowStationary {
		return nil, fmt.Errorf("accel: unknown dataflow %d", cfg.Dataflow)
	}
	if cfg.ZeroPrune && cfg.PruneBytesPerNZ%cfg.BlockBytes != 0 {
		return nil, fmt.Errorf("accel: PruneBytesPerNZ (%d) must be a multiple of BlockBytes (%d) so write counts are exact", cfg.PruneBytesPerNZ, cfg.BlockBytes)
	}
	s := &Simulator{cfg: cfg, net: net}
	s.buildLayout()
	s.denseCB = make([][]int, len(net.Specs))
	for i := range net.Specs {
		sh := net.Shapes[i]
		cb := make([]int, sh.C)
		for c := range cb {
			cb[c] = sh.H * sh.W * cfg.ElemBytes
		}
		s.denseCB[i] = cb
	}
	s.inDenseCB = make([]int, net.Input.C)
	for c := range s.inDenseCB {
		s.inDenseCB[c] = net.Input.H * net.Input.W * cfg.ElemBytes
	}
	s.estAccesses = s.estimateAccesses()
	return s, nil
}

// estimateAccesses bounds the number of coalesced trace records one
// inference can emit, by walking the same tiling geometry the emitters use.
// Sessions reserve this much Recorder capacity up front so even the first
// run records without growth copies. The bound need not be tight (burst
// merging only shrinks the real count); it is capped so degenerate configs
// cannot reserve unbounded memory.
func (s *Simulator) estimateAccesses() int {
	n := s.net
	total := 0
	for i := range n.Specs {
		spec := &n.Specs[i]
		out := n.Shapes[i]
		switch spec.Kind {
		case nn.KindConv:
			in := n.InShapes[i][0]
			convShape := spec.ConvOut(in)
			bandRows, ocTile := s.convTiling(i, in, convShape, out, in.C*spec.F*spec.F, false)
			bands := (out.H + bandRows - 1) / bandRows
			ocTiles := (spec.OutC + ocTile - 1) / ocTile
			if s.cfg.Dataflow == RowStationary {
				// Weight + bias preamble per tile, then per output row: up
				// to in.C IFM row bursts and out.C row writes.
				total += 2*ocTiles + out.H*(in.C+out.C)
			} else {
				// Per tile: up to in.C IFM read bursts, weight + bias reads,
				// up to ocTile OFM write bursts.
				total += bands * ocTiles * (in.C + 2 + ocTile)
			}
			total += out.C // PadPrunedWrites padding bursts
		case nn.KindFC:
			in := n.InShapes[i][0]
			rowBytes := in.Len() * s.cfg.ElemBytes
			ocTile := s.cfg.WBufBytes / rowBytes
			if ocTile < 1 {
				ocTile = 1
			}
			tiles := (spec.OutC + ocTile - 1) / ocTile
			total += in.C + 2*tiles + 2*out.C
		case nn.KindEltwise:
			total += out.C * (len(spec.Inputs) + 1)
		case nn.KindConcat:
			total += 2 * len(spec.Inputs)
		}
	}
	const capEntries = 1 << 20
	if total > capEntries {
		total = capEntries
	}
	return total
}

// Config returns the simulator's (default-filled) configuration.
func (s *Simulator) Config() Config { return s.cfg }

// SetThreshold retunes the activation threshold between runs — the knob the
// §4 bias-recovery attack sweeps. Not safe concurrently with in-flight runs;
// the oracle serializes sweeps around its query batches.
func (s *Simulator) SetThreshold(t float32) { s.cfg.Threshold = t }

// Layout returns the DRAM allocation (ground truth for tests and for
// building oracles; the adversary recovers the equivalent information from
// the trace).
func (s *Simulator) Layout() Layout { return s.lay }

// Net returns the simulated network.
func (s *Simulator) Net() *nn.Network { return s.net }

func alignUp(v uint64, a uint64) uint64 { return (v + a - 1) / a * a }

// fmapElemBytes returns the per-element slot size of feature-map regions.
// With zero pruning, each channel slot must hold the worst-case compressed
// stream (every element non-zero at PruneBytesPerNZ bytes each), so slots
// are sized accordingly.
func (s *Simulator) fmapElemBytes() int {
	if s.cfg.ZeroPrune {
		return s.cfg.PruneBytesPerNZ
	}
	return s.cfg.ElemBytes
}

// fmapPlaneStride returns the byte stride between consecutive channel slots
// of a feature-map region with the given shape.
func (s *Simulator) fmapPlaneStride(shape nn.Shape) uint64 {
	return uint64(shape.H * shape.W * s.fmapElemBytes())
}

// inputPlaneStride returns the channel-slot stride of the region feeding
// input j of layer i (the network input region is always dense).
func (s *Simulator) inputPlaneStride(i, j int) uint64 {
	ref := s.net.Specs[i].Inputs[j]
	if ref == nn.InputRef {
		return uint64(s.net.Input.H * s.net.Input.W * s.cfg.ElemBytes)
	}
	return s.fmapPlaneStride(s.net.Shapes[ref])
}

// buildLayout allocates DRAM regions: input, per-layer weights, per-layer
// feature maps. Each region is page-aligned with a guard page so an
// adversary's interval clustering keeps them distinct (as real allocators
// do).
func (s *Simulator) buildLayout() {
	n := s.net
	elem := uint64(s.cfg.ElemBytes)
	s.lay.Weights = make([]Region, len(n.Specs))
	s.lay.Fmaps = make([]Region, len(n.Specs))
	s.lay.FmapOwner = make([]int, len(n.Specs))
	s.lay.FmapOffset = make([]uint64, len(n.Specs))
	s.concatTarget = make([]int, len(n.Specs))
	for i := range s.concatTarget {
		s.concatTarget[i] = -1
	}

	// A layer writes straight into a concat region iff its only consumer is
	// that concat.
	consumers := make([][]int, len(n.Specs))
	for i := range n.Specs {
		for _, ref := range n.Specs[i].Inputs {
			if ref >= 0 {
				consumers[ref] = append(consumers[ref], i)
			}
		}
	}
	for i := range n.Specs {
		if len(consumers[i]) == 1 {
			c := consumers[i][0]
			if n.Specs[c].Kind == nn.KindConcat {
				s.concatTarget[i] = c
			}
		}
	}

	cursor := uint64(regionAlign)
	alloc := func(bytes uint64) Region {
		r := Region{Base: cursor, Bytes: bytes}
		cursor = alignUp(cursor+bytes, regionAlign) + regionAlign
		return r
	}

	felem := uint64(s.fmapElemBytes())
	s.lay.Input = alloc(uint64(n.Input.Len()) * elem)
	for i := range n.Specs {
		if p := n.Params[i]; p != nil {
			wlen := p.W.Len()
			if s.cfg.BiasInDRAM {
				wlen += p.B.Len()
			}
			s.lay.Weights[i] = alloc(uint64(wlen) * elem)
		}
	}
	for i := range n.Specs {
		if s.concatTarget[i] >= 0 {
			continue // allocated inside the concat region below
		}
		s.lay.Fmaps[i] = alloc(uint64(n.Shapes[i].Len()) * felem)
		s.lay.FmapOwner[i] = i
	}
	// Embed zero-copy producers inside their concat regions at channel
	// offsets matching the concat input order.
	for ci := range n.Specs {
		if n.Specs[ci].Kind != nn.KindConcat {
			continue
		}
		off := uint64(0)
		for _, ref := range n.Specs[ci].Inputs {
			if ref >= 0 && s.concatTarget[ref] == ci {
				s.lay.Fmaps[ref] = Region{
					Base:  s.lay.Fmaps[ci].Base + off,
					Bytes: uint64(n.Shapes[ref].Len()) * felem,
				}
				s.lay.FmapOwner[ref] = ci
				s.lay.FmapOffset[ref] = off
			}
			if ref == nn.InputRef {
				off += uint64(n.Input.Len()) * felem
			} else {
				off += uint64(n.Shapes[ref].Len()) * felem
			}
		}
	}
}

// inputRegion returns the DRAM region and shape feeding input j of layer i.
func (s *Simulator) inputRegion(i, j int) (Region, nn.Shape) {
	ref := s.net.Specs[i].Inputs[j]
	if ref == nn.InputRef {
		return s.lay.Input, s.net.Input
	}
	return s.lay.Fmaps[ref], s.net.Shapes[ref]
}
