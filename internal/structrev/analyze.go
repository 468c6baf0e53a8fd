// Package structrev implements the paper's first attack (§3): reverse
// engineering a CNN's structure from its off-chip memory access trace.
//
// The attack proceeds in two stages. Analyze segments the trace into layers
// using read-after-write dependencies on feature maps (Algorithm 1 steps
// 1-2), recovering per-layer SIZE_IFM/SIZE_OFM/SIZE_FLTR, the inter-layer
// dataflow graph (including concatenation and bypass connections) and
// per-layer execution times. Solve then enumerates every layer
// parameterization consistent with the integer constraint system of
// Equations (1)-(8), filters candidates whose MAC count contradicts the
// measured execution-time ratios, and chains per-layer candidates into
// complete network structures (Algorithm 1 steps 3-5).
package structrev

import (
	"fmt"
	"io"
	"sort"

	"cnnrev/internal/memtrace"
)

// SegmentKind classifies a trace segment by its observable behaviour.
type SegmentKind int

const (
	// SegWeighted is a layer that streams a read-only (filter) region:
	// a convolutional or fully-connected layer.
	SegWeighted SegmentKind = iota
	// SegEltwise is a layer that reads feature maps only and writes an
	// output of the same size (a bypass element-wise addition).
	SegEltwise
)

// String names the segment kind.
func (k SegmentKind) String() string {
	if k == SegWeighted {
		return "weighted"
	}
	return "eltwise"
}

// SegInput is one observed data dependency of a segment.
type SegInput struct {
	// Producer is the segment index that wrote the data, or -1 for the
	// network input region.
	Producer int
	// Bytes is the extent of the producer data read.
	Bytes uint64
	// Adjacent reports whether this producer's output region is contiguous
	// in DRAM with the previous producer in the list — the signature of a
	// depth concatenation read.
	Adjacent bool
}

// Segment is one layer execution recovered from the trace.
type Segment struct {
	Index      int
	Kind       SegmentKind
	StartCycle uint64
	EndCycle   uint64 // start of the next segment (or end of trace)

	// WeightsBytes is the extent of the read-only region streamed by this
	// segment (0 for eltwise segments).
	WeightsBytes  uint64
	WeightsRegion memtrace.Interval

	// OFMBytes is the extent of the address range written by this segment.
	OFMBytes  uint64
	OFMRegion memtrace.Interval

	// Inputs are the feature-map dependencies, ordered by region address.
	Inputs []SegInput
}

// Cycles returns the segment execution time.
func (s *Segment) Cycles() uint64 { return s.EndCycle - s.StartCycle }

// IFMBytes returns the total extent of all feature-map inputs.
func (s *Segment) IFMBytes() uint64 {
	var t uint64
	for _, in := range s.Inputs {
		t += in.Bytes
	}
	return t
}

// Analysis is the result of segmenting a trace.
type Analysis struct {
	Segments []Segment
	// InputRegion is the DRAM region holding the (adversary-known) network
	// input.
	InputRegion memtrace.Interval
	ElemBytes   int
	// BlockBytes is the observed transaction granularity: region extents are
	// only known up to this rounding, which the solver accounts for.
	BlockBytes int
	// AddrSlack is the adjacency tolerance in bytes used when deciding
	// whether two producer regions are DRAM-contiguous (a concatenation
	// read). 0 demands exact adjacency; the tolerant path sets it so that
	// dropped boundary blocks cannot hide a concatenation.
	AddrSlack int
	// Tolerant records whether the noise-tolerant path produced this
	// analysis; Noise is populated only when it did.
	Tolerant bool
	Noise    NoiseStats
}

// NoiseStats summarizes the corruption the tolerant analysis measured and
// compensated for. SolveCtx derives its upward size slack from these.
type NoiseStats struct {
	// InterferenceRegions/Accesses count the low-density address clusters
	// (and the accesses within them) discarded as co-tenant traffic.
	InterferenceRegions  int
	InterferenceAccesses int
	// WriteHoleFrac is the fraction of the dominant output regions' extent
	// not covered by observed writes — the measured write-drop level.
	WriteHoleFrac float64
	// ROHoleFrac is the same measure over read-only (filter/input) regions.
	ROHoleFrac float64
	// DroppedDeps counts dependency edges discarded for carrying less than
	// MinDepFrac of a segment's input bytes.
	DroppedDeps int
}

// TolerantOptions tunes AnalyzeTolerant. The zero value of each field
// selects the documented default.
type TolerantOptions struct {
	// MinRegionDensity is the minimum covered-bytes/extent ratio an address
	// cluster needs to be treated as victim data; sparser clusters are
	// discarded as co-tenant interference. Default 0.35 — victim buffers
	// are streamed near-completely (density ≥ 0.9 even at 10% drop), while
	// interference scatters a few transactions over a wide region.
	MinRegionDensity float64
	// MinDepFrac discards dependency edges carrying less than this fraction
	// of a segment's total input bytes (residual interference reads that
	// alias an earlier interference write). Default 0.02.
	MinDepFrac float64
	// AddrSlack is the region-adjacency tolerance in bytes (see
	// Analysis.AddrSlack). Default 1024 — generous against boundary-block
	// drops yet far below the allocator's 4096-byte guard separation.
	AddrSlack int
	// RegionGap is the coalescing gap in bytes used when clustering written
	// and read-only address space, bridging holes left by dropped
	// transactions. Default 4095: one byte under the guard-page separation
	// of distinct victim regions, so real regions never merge.
	RegionGap uint64
	// FarFieldBytes groups address clusters into connected components
	// (consecutive gap within this bound) and keeps only the heaviest one:
	// the victim's buffers are guard-page-packed — never megabytes apart —
	// while co-tenant traffic lives in disjoint, distant regions. Default
	// 1 MiB.
	FarFieldBytes uint64
	// MinSegmentBytes folds segments that moved less than this much traffic
	// into a neighboring segment after the boundary scan. Reordering at a
	// layer boundary interleaves the two layers' filter streams, making
	// boundary rules fire twice and shedding a tiny spurious segment; real
	// layers stream at least their filter region. Default 2048 — half the
	// smallest victim layer's traffic, far above a reorder straggler's.
	MinSegmentBytes uint64
}

// DefaultTolerantOptions returns the tolerant-analysis thresholds used in
// the noise sweeps.
func DefaultTolerantOptions() TolerantOptions {
	return TolerantOptions{
		MinRegionDensity: 0.35,
		MinDepFrac:       0.02,
		AddrSlack:        1024,
		RegionGap:        4095,
		FarFieldBytes:    1 << 20,
		MinSegmentBytes:  2048,
	}
}

func (t TolerantOptions) withDefaults() TolerantOptions {
	def := DefaultTolerantOptions()
	if t.MinRegionDensity == 0 {
		t.MinRegionDensity = def.MinRegionDensity
	}
	if t.MinDepFrac == 0 {
		t.MinDepFrac = def.MinDepFrac
	}
	if t.AddrSlack == 0 {
		t.AddrSlack = def.AddrSlack
	}
	if t.RegionGap == 0 {
		t.RegionGap = def.RegionGap
	}
	if t.FarFieldBytes == 0 {
		t.FarFieldBytes = def.FarFieldBytes
	}
	if t.MinSegmentBytes == 0 {
		t.MinSegmentBytes = def.MinSegmentBytes
	}
	return t
}

// intervalOf converts an access to its byte interval.
func intervalOf(a memtrace.Access, blockBytes int) memtrace.Interval {
	return memtrace.Interval{Lo: a.Addr, Hi: a.End(blockBytes)}
}

// regionIndex finds the region in sorted (by Lo) regions containing addr,
// returning -1 if none.
func regionIndex(regions []memtrace.Interval, addr uint64) int {
	i := sort.Search(len(regions), func(i int) bool { return regions[i].Hi > addr })
	if i < len(regions) && regions[i].Contains(addr) {
		return i
	}
	return -1
}

// Analyze segments a trace into layers. inputBytes is the byte size of the
// network input (known to the adversary, who controls it); elemBytes is the
// element storage size (known from the data type).
func Analyze(tr *memtrace.Trace, inputBytes int, elemBytes int) (*Analysis, error) {
	return analyzeWith(tr, inputBytes, elemBytes, false, TolerantOptions{})
}

// AnalyzeTolerant is Analyze with the noise-tolerant path enabled: it
// discards low-density interference clusters, clusters regions with a gap
// that bridges dropped transactions, selects each segment's dominant output
// region, prunes negligible dependency edges, and records the measured
// corruption level in Analysis.Noise so the solver can widen its size
// constraints. On an uncorrupted trace it is equivalent to Analyze — the
// golden conformance tests pin byte-identical reports.
func AnalyzeTolerant(tr *memtrace.Trace, inputBytes int, elemBytes int, topt TolerantOptions) (*Analysis, error) {
	return analyzeWith(tr, inputBytes, elemBytes, true, topt.withDefaults())
}

// filterInterference discards accesses in address clusters that look like
// co-tenant traffic under either of two tests: coverage density below the
// threshold (victim buffers are streamed near-completely, while
// interference scatters a few transactions over a wide region), or a sparse
// burst isolated far from every substantial cluster (locally dense, but the
// victim's buffers are guard-page-packed, never megabytes apart).
func filterInterference(accs []memtrace.Access, bb int, topt TolerantOptions) ([]memtrace.Access, NoiseStats) {
	var st NoiseStats
	ivs := make([]memtrace.Interval, len(accs))
	for i, a := range accs {
		ivs[i] = intervalOf(a, bb)
	}
	memtrace.SortIntervals(ivs)
	clusters := memtrace.CoalesceSorted(ivs, topt.RegionGap)
	covered := make([]uint64, len(clusters))
	for _, iv := range memtrace.CoalesceSorted(ivs, 0) {
		// A zero-gap interval lies inside exactly one gap-coalesced cluster.
		if ci := regionIndex(clusters, iv.Lo); ci >= 0 {
			covered[ci] += iv.Bytes()
		}
	}
	drop := make([]bool, len(clusters))
	for i, c := range clusters {
		if c.Bytes() > 0 && float64(covered[i])/float64(c.Bytes()) < topt.MinRegionDensity {
			drop[i] = true
			st.InterferenceRegions++
		}
	}
	// Far-field pass: victim buffers are guard-page-packed — never megabytes
	// apart — while co-tenant traffic lives in disjoint, distant regions.
	// Group clusters into connected components (consecutive gap within
	// FarFieldBytes) and keep only the component carrying the most covered
	// bytes; everything else is interference, dense or not.
	if topt.FarFieldBytes > 0 && len(clusters) > 1 {
		compOf := make([]int, len(clusters))
		compWeight := []uint64{covered[0]}
		for i := 1; i < len(clusters); i++ {
			if clusters[i].Lo-clusters[i-1].Hi > topt.FarFieldBytes {
				compWeight = append(compWeight, 0)
			}
			compOf[i] = len(compWeight) - 1
			compWeight[compOf[i]] += covered[i]
		}
		best := 0
		for c, w := range compWeight {
			if w > compWeight[best] {
				best = c
			}
		}
		for i := range clusters {
			if compOf[i] != best && !drop[i] {
				drop[i] = true
				st.InterferenceRegions++
			}
		}
	}
	if st.InterferenceRegions == 0 {
		return accs, st
	}
	kept := make([]memtrace.Access, 0, len(accs))
	for _, a := range accs {
		if ci := regionIndex(clusters, a.Addr); ci >= 0 && drop[ci] {
			st.InterferenceAccesses++
			continue
		}
		kept = append(kept, a)
	}
	return kept, st
}

// segAcc accumulates one segment during the boundary scan.
type segAcc struct {
	start      uint64
	roIdx      int // filter region index, -1 if none yet
	firstIdx   int
	readsInput bool
	fmapReads  []memtrace.Interval
	writeSpans []memtrace.Interval
	// trailing counts the fmap reads issued after the segment's last
	// write; on a filter-region boundary they are re-attributed to the
	// new layer (they are its stale-IFM prefetch).
	trailing int
	// readRegions tracks the fmap regions this segment has read, so the
	// tolerant path can recognize a reordered producer write straggling
	// in after its consumer already started (layers never write a region
	// they read).
	readRegions map[int]bool
	// bytes is the total traffic attributed to this segment; the
	// tolerant path folds negligible segments into a neighbor.
	bytes uint64
}

// writeRec is one write and the segment it is attributed to.
type writeRec struct {
	iv  memtrace.Interval
	seg int
}

func analyzeWith(tr *memtrace.Trace, inputBytes int, elemBytes int, tolerant bool, topt TolerantOptions) (*Analysis, error) {
	res, segs, writes, err := segmentTrace(tr, inputBytes, elemBytes, tolerant, topt)
	if err != nil {
		return nil, err
	}
	attributeDeps(res, segs, writes, topt.MinDepFrac)
	return res, nil
}

// segmentTrace runs every analysis step but dependency attribution: it
// builds the feature-map and read-only regions, scans the trace for layer
// boundaries, and fills res.Segments with everything except Inputs. It
// also returns the segments' accumulators, each with its fmapReads and
// writeSpans sorted by Lo, and every write in trace order labelled with
// its segment.
func segmentTrace(tr *memtrace.Trace, inputBytes int, elemBytes int, tolerant bool, topt TolerantOptions) (*Analysis, []*segAcc, []writeRec, error) {
	if err := tr.Validate(); err != nil {
		return nil, nil, nil, fmt.Errorf("structrev: %w", err)
	}
	if len(tr.Accesses) == 0 {
		return nil, nil, nil, fmt.Errorf("structrev: empty trace")
	}
	bb := tr.BlockBytes

	accs := tr.Accesses
	var noise NoiseStats
	if tolerant {
		accs, noise = filterInterference(accs, bb, topt)
		if len(accs) == 0 {
			return nil, nil, nil, fmt.Errorf("structrev: every access cluster fell below the interference density threshold")
		}
	}

	// Pass 1: global write space and read-only (filter + input) regions.
	nWrites := 0
	for _, a := range accs {
		if a.Kind == memtrace.Write {
			nWrites++
		}
	}
	if nWrites == len(accs) {
		return nil, nil, nil, fmt.Errorf("structrev: trace has no reads")
	}
	writeIvs := make([]memtrace.Interval, 0, nWrites)
	for _, a := range accs {
		if a.Kind == memtrace.Write {
			writeIvs = append(writeIvs, intervalOf(a, bb))
		}
	}
	memtrace.SortIntervals(writeIvs)
	// Feature-map regions: clusters of the written address space. The
	// allocator separates distinct data structures by guard pages, so a
	// zero-gap coalesce recovers them (a zero-copy concatenated output forms
	// one region, which is exactly how the adversary perceives it). The
	// tolerant path coalesces across RegionGap instead, bridging the holes
	// dropped write transactions leave inside a region.
	var fmapGap uint64
	if tolerant {
		fmapGap = topt.RegionGap
	}
	fmapRegions := memtrace.CoalesceSorted(writeIvs, fmapGap)
	// A dropped write at the very edge of an output region shrinks the
	// write-derived region, orphaning the reads of that edge chunk; left
	// alone they would form a phantom read-only region and fire boundary
	// rule (b) on every pass over it. The tolerant path therefore counts
	// reads within edgeSlack of a feature-map region as feature-map reads.
	// Half the region gap can never reach a real read-only region: the
	// allocator separates distinct regions by at least RegionGap+1 bytes.
	var edgeSlack uint64
	if tolerant {
		edgeSlack = topt.RegionGap / 2
	}
	roIvs := make([]memtrace.Interval, 0, len(accs)-nWrites)
	for _, a := range accs {
		if a.Kind != memtrace.Read {
			continue
		}
		iv := intervalOf(a, bb)
		test := iv
		if tolerant {
			if test.Lo >= edgeSlack {
				test.Lo -= edgeSlack
			} else {
				test.Lo = 0
			}
			if test.Hi+edgeSlack >= test.Hi {
				test.Hi += edgeSlack
			} else {
				test.Hi = ^uint64(0)
			}
		}
		if !overlapsAny(fmapRegions, test) {
			roIvs = append(roIvs, iv)
		}
	}
	memtrace.SortIntervals(roIvs)
	// A small gap tolerance bridges rows a strided convolution never samples
	// (e.g. AlexNet conv1 leaves the last input row unread); it stays well
	// under the allocator's page-granular separation of distinct regions.
	roGap := uint64(2048)
	if tolerant && topt.RegionGap > roGap {
		roGap = topt.RegionGap
	}
	roRegions := memtrace.CoalesceSorted(roIvs, roGap)
	if tolerant {
		var roExtent, roCov uint64
		for _, r := range roRegions {
			roExtent += r.Bytes()
		}
		for _, iv := range memtrace.CoalesceSorted(roIvs, 0) {
			roCov += iv.Bytes()
		}
		if roExtent > 0 {
			noise.ROHoleFrac = 1 - float64(roCov)/float64(roExtent)
		}
	}

	// The input region is the earliest-touched read-only region whose extent
	// matches the known input size. (A strided first layer may leave
	// trailing pixels unread, so the observed extent can fall slightly short
	// — or exceed the size by block rounding. Matching by size rather than
	// by first access keeps the identification dataflow-independent: a
	// weight-stationary accelerator streams filters before its first IFM
	// tile.)
	inputIdx := -1
	bestDiff := 1 << 62
	for _, a := range accs {
		if a.Kind != memtrace.Read {
			continue
		}
		ro := regionIndex(roRegions, a.Addr)
		if ro < 0 {
			continue
		}
		got := int(roRegions[ro].Bytes())
		if got > inputBytes+bb || got < inputBytes*3/4 {
			continue
		}
		diff := inputBytes - got
		if diff < 0 {
			diff = -diff
		}
		// Closest size wins; earliest touch breaks ties (the input is always
		// consumed in the first layer).
		if diff < bestDiff {
			bestDiff = diff
			inputIdx = ro
		}
	}
	if inputIdx < 0 {
		return nil, nil, nil, fmt.Errorf("structrev: no read-only region matches the declared %d-byte input", inputBytes)
	}
	inputRegion := roRegions[inputIdx]

	// Pass 2: scan for boundaries. A new segment begins when
	//  (a) a read hits a *fresh* feature-map region — one written since it
	//      was last read. This is the paper's "first read access on a
	//      memory address that was previously written": a layer's OFM is
	//      fresh until its consumer starts, and the consumer's own
	//      progressive (banded, tiled) re-reads do not re-trigger.
	//  (b) a read streams a different filter region than the one the
	//      current segment has been using (two back-to-back layers can
	//      share an IFM, as in fire-module expand convolutions).
	var segs []*segAcc
	// allWrites records which segment wrote each interval, in trace order.
	allWrites := make([]writeRec, 0, nWrites)
	fresh := make([]bool, len(fmapRegions))
	// inputConsumerRo is the filter region of the layer that consumes the
	// network input (layer 0); an input read from any other layer marks the
	// start of a new inference.
	inputConsumerRo := -1

	cur := &segAcc{start: accs[0].Cycle, roIdx: -1, firstIdx: 0}
	closeSeg := func(nextStart int, moveTrailing bool) {
		var carry []memtrace.Interval
		if moveTrailing && cur.trailing > 0 {
			n := len(cur.fmapReads) - cur.trailing
			carry = append(carry, cur.fmapReads[n:]...)
			cur.fmapReads = cur.fmapReads[:n]
		}
		segs = append(segs, cur)
		cur = &segAcc{start: accs[nextStart].Cycle, roIdx: -1, firstIdx: nextStart,
			fmapReads: carry, trailing: len(carry)}
	}
	for ai, a := range accs {
		iv := intervalOf(a, bb)
		if a.Kind == memtrace.Write {
			fr := regionIndex(fmapRegions, a.Addr)
			if tolerant && fr >= 0 && cur.readRegions[fr] && len(segs) > 0 {
				// A reordered producer write straggling in after its consumer
				// already started reading the region: attribute it to the
				// previous segment. Re-marking the region fresh here would
				// re-trigger boundary rule (a) and shatter the segmentation.
				prev := segs[len(segs)-1]
				prev.writeSpans = append(prev.writeSpans, iv)
				prev.bytes += iv.Bytes()
				allWrites = append(allWrites, writeRec{iv, len(segs) - 1})
				continue
			}
			if fr >= 0 {
				fresh[fr] = true
			}
			cur.writeSpans = append(cur.writeSpans, iv)
			cur.bytes += iv.Bytes()
			cur.trailing = 0
			allWrites = append(allWrites, writeRec{iv, len(segs)})
			continue
		}
		// Read: boundary checks. Rule (a) fires only once the current
		// segment has produced output: a weight-stationary layer streams
		// filters before its first IFM tile, and an element-wise layer
		// gathers several fresh operands — neither marks a new layer.
		boundary := false
		fr := regionIndex(fmapRegions, a.Addr)
		if fr < 0 && tolerant {
			fr = regionIndexNear(fmapRegions, a.Addr, edgeSlack)
		}
		if fr >= 0 && fresh[fr] {
			if len(cur.writeSpans) > 0 {
				boundary = true
			}
			fresh[fr] = false
		}
		ro := -1
		if fr < 0 {
			ro = regionIndex(roRegions, a.Addr)
			switch {
			case ro >= 0 && ro != inputIdx:
				switch {
				case cur.roIdx >= 0 && cur.roIdx != ro:
					// Rule (b): a different filter region is streaming.
					boundary = true
				case cur.roIdx < 0 && len(cur.writeSpans) > 0:
					// Rule (b'): the current segment has no filter region yet
					// it already wrote its output (an element-wise layer, or
					// a weight-stationary layer whose single filter read
					// opens the next layer) — a filter read must belong to a
					// new layer. Layers never write before reading filters.
					boundary = true
				}
			case ro == inputIdx:
				// Rule (c): the network input is consumed only by the first
				// layer — an input read from a segment that is not the
				// input-consuming layer (and has produced output) starts a
				// new inference.
				if len(cur.writeSpans) > 0 && cur.roIdx != inputConsumerRo {
					boundary = true
				}
			}
		}
		if boundary && ai > cur.firstIdx {
			// A filter-region boundary (rules b/b'/c) hands the trailing
			// post-write fmap reads to the new layer.
			closeSeg(ai, ro >= 0)
		}
		cur.bytes += iv.Bytes()
		if ro >= 0 && ro != inputIdx {
			if cur.roIdx < 0 {
				cur.roIdx = ro
				if cur.readsInput {
					inputConsumerRo = ro
				}
			}
		} else if fr >= 0 || ro == inputIdx {
			cur.fmapReads = append(cur.fmapReads, iv)
			cur.trailing++
			if tolerant && fr >= 0 {
				if cur.readRegions == nil {
					cur.readRegions = make(map[int]bool)
				}
				cur.readRegions[fr] = true
			}
			if ro == inputIdx {
				cur.readsInput = true
				if cur.roIdx >= 0 {
					inputConsumerRo = cur.roIdx
				}
			}
		}
	}
	segs = append(segs, cur)

	if tolerant && topt.MinSegmentBytes > 0 && len(segs) > 1 {
		// Fold negligible segments into a neighbor. Reordering at a layer
		// boundary interleaves the two layers' filter streams, so rules
		// (a)/(b) fire more than once and shed a tiny spurious segment
		// carrying a straggler's worth of traffic; a real layer streams at
		// least its whole filter region. Prefer the neighbor reading the
		// same filter region (the straggler's origin).
		var kept []*segAcc
		remap := make([]int, len(segs))
		// A segment is spurious if it moved negligible traffic, or if it is a
		// weighted segment that wrote nothing and streams the same filter
		// region as a neighbor: every real layer produces output, and adjacent
		// layers never share a filter region — such a husk is the remainder of
		// a reorder-split segment whose reads were carried forward and whose
		// writes were reattributed backward.
		spurious := func(i int, sa *segAcc) bool {
			if sa.bytes < topt.MinSegmentBytes {
				return true
			}
			if sa.roIdx >= 0 && len(sa.writeSpans) == 0 {
				if len(kept) > 0 && kept[len(kept)-1].roIdx == sa.roIdx {
					return true
				}
				if i+1 < len(segs) && segs[i+1].roIdx == sa.roIdx {
					return true
				}
			}
			return false
		}
		mergeInto := func(dst, src *segAcc, forward bool) {
			if forward {
				dst.start = src.start
				dst.firstIdx = src.firstIdx
				dst.fmapReads = append(append([]memtrace.Interval(nil), src.fmapReads...), dst.fmapReads...)
				dst.writeSpans = append(append([]memtrace.Interval(nil), src.writeSpans...), dst.writeSpans...)
			} else {
				dst.fmapReads = append(dst.fmapReads, src.fmapReads...)
				dst.writeSpans = append(dst.writeSpans, src.writeSpans...)
			}
			if dst.roIdx < 0 {
				dst.roIdx = src.roIdx
			}
			dst.readsInput = dst.readsInput || src.readsInput
			dst.bytes += src.bytes
		}
		for i, sa := range segs {
			if !spurious(i, sa) {
				remap[i] = len(kept)
				kept = append(kept, sa)
				continue
			}
			prevOK := len(kept) > 0
			nextOK := i+1 < len(segs)
			switch {
			case prevOK && (kept[len(kept)-1].roIdx == sa.roIdx || !nextOK ||
				segs[i+1].roIdx != sa.roIdx):
				mergeInto(kept[len(kept)-1], sa, false)
				remap[i] = len(kept) - 1
			case nextOK:
				mergeInto(segs[i+1], sa, true)
				remap[i] = -1 // resolves to the successor's kept index
			default:
				// Every segment is negligible; keep it rather than lose it.
				remap[i] = len(kept)
				kept = append(kept, sa)
			}
		}
		if len(kept) > 0 && len(kept) < len(segs) {
			for i := len(segs) - 2; i >= 0; i-- {
				if remap[i] < 0 {
					remap[i] = remap[i+1]
				}
			}
			for wi := range allWrites {
				allWrites[wi].seg = remap[allWrites[wi].seg]
			}
			segs = kept
		}
	}

	// Assemble Segment records.
	res := &Analysis{InputRegion: inputRegion, ElemBytes: elemBytes, BlockBytes: bb, Tolerant: tolerant,
		Segments: make([]Segment, 0, len(segs))}
	if tolerant {
		res.AddrSlack = topt.AddrSlack
	}
	lastCycle := accs[0].Cycle
	for _, a := range accs {
		if a.Cycle > lastCycle {
			lastCycle = a.Cycle
		}
	}
	var ofmExtent, ofmCovered uint64
	for si, sa := range segs {
		seg := Segment{Index: si, StartCycle: sa.start}
		if si+1 < len(segs) {
			seg.EndCycle = segs[si+1].start
		} else {
			seg.EndCycle = lastCycle + 1
		}
		if seg.EndCycle < seg.StartCycle {
			// A hostile trace with non-monotonic cycles must not underflow
			// the segment duration.
			seg.EndCycle = seg.StartCycle
		}
		if sa.roIdx >= 0 {
			seg.Kind = SegWeighted
			seg.WeightsRegion = roRegions[sa.roIdx]
			seg.WeightsBytes = seg.WeightsRegion.Bytes()
		} else {
			seg.Kind = SegEltwise
		}
		memtrace.SortIntervals(sa.writeSpans)
		memtrace.SortIntervals(sa.fmapReads)
		if w := memtrace.CoalesceSorted(sa.writeSpans, fmapGap); len(w) > 0 {
			if tolerant {
				// Take the dominant written cluster as the OFM: residual
				// interference writes form small satellite clusters that must
				// not stretch the region, and the gap-coalesced extent bridges
				// dropped-write holes (on a clean contiguous trace it equals
				// the strict byte sum). Clusters overlapping the segment's own
				// feature-map reads are skipped — a layer never writes its
				// input, so such a cluster is a reordered producer write that
				// straggled in before this segment first read the region.
				readCover := memtrace.CoalesceSorted(sa.fmapReads, topt.RegionGap)
				best := -1
				for i := range w {
					if overlapsAny(readCover, w[i]) {
						continue
					}
					if best < 0 || w[i].Bytes() > w[best].Bytes() {
						best = i
					}
				}
				if best < 0 {
					// Every cluster overlaps the reads (an in-place layer the
					// model does not cover); fall back to the plain dominant.
					for i := range w {
						if best < 0 || w[i].Bytes() > w[best].Bytes() {
							best = i
						}
					}
				}
				seg.OFMRegion = w[best]
				seg.OFMBytes = w[best].Bytes()
				for _, iv := range memtrace.CoalesceSorted(sa.writeSpans, 0) {
					if iv.Lo >= w[best].Lo && iv.Hi <= w[best].Hi {
						ofmCovered += iv.Bytes()
					}
				}
				ofmExtent += seg.OFMBytes
			} else {
				// The OFM is the single contiguous range this segment wrote
				// (write-once). Multiple ranges would indicate an unmodelled
				// layer type; take the full span.
				seg.OFMRegion = memtrace.Interval{Lo: w[0].Lo, Hi: w[len(w)-1].Hi}
				for _, iv := range w {
					seg.OFMBytes += iv.Bytes()
				}
			}
		}
		res.Segments = append(res.Segments, seg)
	}
	if tolerant && ofmExtent > 0 {
		noise.WriteHoleFrac = 1 - float64(ofmCovered)/float64(ofmExtent)
	}
	res.Noise = noise
	return res, segs, allWrites, nil
}

// regionIndexNear is regionIndex with an edge tolerance: it also matches an
// address within slack bytes of a region's boundary (see edgeSlack in
// segmentTrace).
func regionIndexNear(regions []memtrace.Interval, addr uint64, slack uint64) int {
	i := sort.Search(len(regions), func(i int) bool { return regions[i].Hi > addr })
	if i < len(regions) {
		if regions[i].Contains(addr) {
			return i
		}
		if regions[i].Lo >= addr && regions[i].Lo-addr <= slack {
			return i
		}
	}
	if i > 0 && addr-regions[i-1].Hi <= slack {
		return i - 1
	}
	return -1
}

// adjacentAddrs reports whether two region endpoints are contiguous within
// the given byte tolerance (0 demands exact adjacency).
func adjacentAddrs(hi, lo uint64, slack int) bool {
	if hi == lo {
		return true
	}
	if slack <= 0 {
		return false
	}
	d := hi - lo
	if lo > hi {
		d = lo - hi
	}
	return d <= uint64(slack)
}

// clip returns the intersection of two overlapping intervals.
func clip(a, b memtrace.Interval) memtrace.Interval {
	lo, hi := a.Lo, a.Hi
	if b.Lo > lo {
		lo = b.Lo
	}
	if b.Hi < hi {
		hi = b.Hi
	}
	if hi < lo {
		hi = lo
	}
	return memtrace.Interval{Lo: lo, Hi: hi}
}

// overlapsAny reports whether iv overlaps any interval in the sorted,
// disjoint set.
func overlapsAny(sorted []memtrace.Interval, iv memtrace.Interval) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i].Hi > iv.Lo })
	return i < len(sorted) && sorted[i].Lo < iv.Hi
}

// Inferences splits a multi-inference analysis (a trace of a continuously
// serving accelerator) into per-inference analyses: a new inference begins
// at a weighted segment consuming the network-input region. Producer
// indices are renumbered within each slice; dependencies never cross an
// inference boundary because reads attribute to their most recent writers.
func (a *Analysis) Inferences() []*Analysis {
	var starts []int
	for i := range a.Segments {
		for _, in := range a.Segments[i].Inputs {
			if in.Producer == -1 {
				starts = append(starts, i)
				break
			}
		}
	}
	if len(starts) == 0 {
		return []*Analysis{a}
	}
	var out []*Analysis
	for k, lo := range starts {
		hi := len(a.Segments)
		if k+1 < len(starts) {
			hi = starts[k+1]
		}
		sub := &Analysis{
			InputRegion: a.InputRegion,
			ElemBytes:   a.ElemBytes,
			BlockBytes:  a.BlockBytes,
		}
		for i := lo; i < hi; i++ {
			seg := a.Segments[i]
			seg.Index = i - lo
			ins := make([]SegInput, len(seg.Inputs))
			for j, in := range seg.Inputs {
				ins[j] = in
				if in.Producer >= 0 {
					ins[j].Producer = in.Producer - lo
				}
			}
			seg.Inputs = ins
			sub.Segments = append(sub.Segments, seg)
		}
		out = append(out, sub)
	}
	return out
}

// WriteReport renders a human-readable summary of the recovered layer
// graph: per segment, its kind, filter and output sizes, timing, and data
// dependencies (with concatenation adjacency marked).
func (a *Analysis) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "recovered %d segments (input region %d bytes, %d-byte elements, %d-byte bus)\n",
		len(a.Segments), a.InputRegion.Bytes(), a.ElemBytes, a.BlockBytes)
	for _, seg := range a.Segments {
		fmt.Fprintf(w, "  seg %2d  %-8s  filters %8d B  output %8d B  %9d cycles  <- ",
			seg.Index, seg.Kind, seg.WeightsBytes, seg.OFMBytes, seg.Cycles())
		if len(seg.Inputs) == 0 {
			fmt.Fprint(w, "(none)")
		}
		for i, in := range seg.Inputs {
			if i > 0 {
				if in.Adjacent {
					fmt.Fprint(w, " ++ ") // depth concatenation
				} else {
					fmt.Fprint(w, ", ")
				}
			}
			if in.Producer < 0 {
				fmt.Fprint(w, "input")
			} else {
				fmt.Fprintf(w, "seg %d", in.Producer)
			}
		}
		fmt.Fprintln(w)
	}
}
