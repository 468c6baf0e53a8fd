package structrev

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"cnnrev/internal/accel"
	"cnnrev/internal/corrupt"
	"cnnrev/internal/memtrace"
	"cnnrev/internal/nn"
)

// referenceAttribute is the original dependency attribution, kept as the
// oracle attributeDeps must match. For each segment it scans the writes
// issued before the segment's first write backward, newest first, and
// subtracts each from the segment's still-unattributed reads. It costs
// O(writes × pieces) per segment, quadratic on a hostile write order.
func referenceAttribute(res *Analysis, segs []*segAcc, writes []writeRec, minDepFrac float64) {
	firstWriteOfSeg := make([]int, len(segs)+1)
	for i := range firstWriteOfSeg {
		firstWriteOfSeg[i] = len(writes)
	}
	for wi := len(writes) - 1; wi >= 0; wi-- {
		firstWriteOfSeg[writes[wi].seg] = wi
	}
	for si, sa := range segs {
		depBytes := map[int]uint64{}
		for _, iv := range sa.reads {
			if res.InputRegion.Overlaps(iv) {
				depBytes[-1] += clip(iv, res.InputRegion).Bytes()
				continue
			}
			remaining := []memtrace.Interval{iv}
			for wi := firstWriteOfSeg[si] - 1; wi >= 0 && len(remaining) > 0; wi-- {
				wr := writes[wi]
				var removed uint64
				remaining, removed = subtractOverlap(remaining, wr.iv)
				if removed > 0 {
					depBytes[wr.seg] += removed
				}
			}
		}
		setInputs(res, si, depBytes, minDepFrac)
	}
}

// referenceAnalyze is Analyze (or AnalyzeTolerant with default options)
// with referenceAttribute in place of attributeDeps.
func referenceAnalyze(tr *memtrace.Trace, inputBytes, elemBytes int, tolerant bool) (*Analysis, error) {
	var topt TolerantOptions
	if tolerant {
		topt = topt.withDefaults()
	}
	res, sg, err := segmentTrace(tr, inputBytes, elemBytes, tolerant, topt)
	if err != nil {
		return nil, err
	}
	referenceAttribute(res, sg.segs, sg.writes, topt.MinDepFrac)
	return res, nil
}

// referenceSegment is Analyze (or AnalyzeTolerant with default options)
// with referenceSegmentTrace in place of segmentTrace: it hands the
// reference's segments, writes and write endpoints to attributeDeps.
func referenceSegment(tr *memtrace.Trace, inputBytes, elemBytes int, tolerant bool) (*Analysis, error) {
	var topt TolerantOptions
	if tolerant {
		topt = topt.withDefaults()
	}
	res, refSegs, writes, err := referenceSegmentTrace(tr, inputBytes, elemBytes, tolerant, topt)
	if err != nil {
		return nil, err
	}
	sg := &segmentation{writes: writes}
	for _, sa := range refSegs {
		sg.segs = append(sg.segs, &segAcc{reads: memtrace.CoalesceSorted(sa.fmapReads, 0)})
	}
	for _, w := range writes {
		if w.iv.Lo < w.iv.Hi {
			sg.ends = append(sg.ends, w.iv.Lo, w.iv.Hi)
		}
	}
	slices.Sort(sg.ends)
	sg.ends = slices.Compact(sg.ends)
	attributeDeps(res, sg, topt.MinDepFrac)
	return res, nil
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

// refRegionIndexNear is regionIndex with an edge tolerance: it also matches an
// address within slack bytes of a region's boundary (see edgeSlack in
// segmentTrace).
func refRegionIndexNear(regions []memtrace.Interval, addr uint64, slack uint64) int {
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

// overlapsAny reports whether iv overlaps any interval in the sorted,
// disjoint set.
func overlapsAny(sorted []memtrace.Interval, iv memtrace.Interval) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i].Hi > iv.Lo })
	return i < len(sorted) && sorted[i].Lo < iv.Hi
}

// referenceFilter is filterInterference over the trace's own order: it sorts
// the records' intervals, coalesces them twice, and finds each record's
// cluster by binary search.
func referenceFilter(accs []memtrace.Access, bb int, topt TolerantOptions) ([]memtrace.Access, NoiseStats) {
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

// refSegAcc is the reference scan's segment accumulator: it copies every
// span it is handed, and keeps a per-segment map of the regions it read.
type refSegAcc struct {
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

// referenceSegmentTrace is segmentTrace as it was before the address order:
// it sorts the write, read-only and per-segment interval sets each on their
// own, finds every record's regions by binary search, and copies spans
// between segments when it carries or folds them. It returns each segment's
// fmapReads and writeSpans sorted by Lo.
func referenceSegmentTrace(tr *memtrace.Trace, inputBytes int, elemBytes int, tolerant bool, topt TolerantOptions) (*Analysis, []*refSegAcc, []writeRec, error) {
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
		accs, noise = referenceFilter(accs, bb, topt)
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
	var segs []*refSegAcc
	// allWrites records which segment wrote each interval, in trace order.
	allWrites := make([]writeRec, 0, nWrites)
	fresh := make([]bool, len(fmapRegions))
	// inputConsumerRo is the filter region of the layer that consumes the
	// network input (layer 0); an input read from any other layer marks the
	// start of a new inference.
	inputConsumerRo := -1

	cur := &refSegAcc{start: accs[0].Cycle, roIdx: -1, firstIdx: 0}
	closeSeg := func(nextStart int, moveTrailing bool) {
		var carry []memtrace.Interval
		if moveTrailing && cur.trailing > 0 {
			n := len(cur.fmapReads) - cur.trailing
			carry = append(carry, cur.fmapReads[n:]...)
			cur.fmapReads = cur.fmapReads[:n]
		}
		segs = append(segs, cur)
		cur = &refSegAcc{start: accs[nextStart].Cycle, roIdx: -1, firstIdx: nextStart,
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
			fr = refRegionIndexNear(fmapRegions, a.Addr, edgeSlack)
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
		var kept []*refSegAcc
		remap := make([]int, len(segs))
		// A segment is spurious if it moved negligible traffic, or if it is a
		// weighted segment that wrote nothing and streams the same filter
		// region as a neighbor: every real layer produces output, and adjacent
		// layers never share a filter region — such a husk is the remainder of
		// a reorder-split segment whose reads were carried forward and whose
		// writes were reattributed backward.
		spurious := func(i int, sa *refSegAcc) bool {
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
		mergeInto := func(dst, src *refSegAcc, forward bool) {
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

// subtractOverlap removes iv's intersection from the disjoint, sorted
// interval set and returns the updated set plus the number of bytes
// removed.
func subtractOverlap(set []memtrace.Interval, iv memtrace.Interval) ([]memtrace.Interval, uint64) {
	var out []memtrace.Interval
	var removed uint64
	for _, s := range set {
		if !s.Overlaps(iv) {
			out = append(out, s)
			continue
		}
		lo, hi := iv.Lo, iv.Hi
		if s.Lo > lo {
			lo = s.Lo
		}
		if s.Hi < hi {
			hi = s.Hi
		}
		removed += hi - lo
		if s.Lo < lo {
			out = append(out, memtrace.Interval{Lo: s.Lo, Hi: lo})
		}
		if hi < s.Hi {
			out = append(out, memtrace.Interval{Lo: hi, Hi: s.Hi})
		}
	}
	return out, removed
}

func TestSubtractOverlap(t *testing.T) {
	set := []memtrace.Interval{{Lo: 0, Hi: 100}}
	set, n := subtractOverlap(set, memtrace.Interval{Lo: 40, Hi: 60})
	if n != 20 || len(set) != 2 || set[0] != (memtrace.Interval{Lo: 0, Hi: 40}) || set[1] != (memtrace.Interval{Lo: 60, Hi: 100}) {
		t.Fatalf("split: set=%v n=%d", set, n)
	}
	set, n = subtractOverlap(set, memtrace.Interval{Lo: 0, Hi: 50})
	if n != 40 || len(set) != 1 || set[0] != (memtrace.Interval{Lo: 60, Hi: 100}) {
		t.Fatalf("left clip: set=%v n=%d", set, n)
	}
	set, n = subtractOverlap(set, memtrace.Interval{Lo: 200, Hi: 300})
	if n != 0 || len(set) != 1 {
		t.Fatalf("disjoint: set=%v n=%d", set, n)
	}
	set, n = subtractOverlap(set, memtrace.Interval{Lo: 0, Hi: 1000})
	if n != 40 || len(set) != 0 {
		t.Fatalf("consume all: set=%v n=%d", set, n)
	}
}

// differentialCorpus returns the committed golden traces plus corrupted
// captures under every dataflow: LeNet and ConvNet under drop,
// interference, reordering and burst split/coalesce, alone and all
// together, at three corruption seeds; AlexNet at a quarter depth under
// interference and under all four together, at one seed (the reference
// takes over a second per AlexNet trace). -short and the race detector
// drop AlexNet; the race detector also drops golden traces of 10k records
// or more.
func differentialCorpus(t *testing.T) []namedTrace {
	t.Helper()
	var out []namedTrace
	for _, nt := range goldenTraces(t) {
		if !raceEnabled || len(nt.tr.Accesses) < 10000 {
			out = append(out, nt)
		}
	}
	interference := corrupt.Config{InterferenceRate: 0.05}
	combined := corrupt.Config{DropRate: 0.01, SplitRate: 0.1, CoalesceRate: 0.1, ReorderWindow: 16, InterferenceRate: 0.05}
	small := []corrupt.Config{
		{DropRate: 0.02}, interference, {ReorderWindow: 16}, {SplitRate: 0.2, CoalesceRate: 0.2}, combined,
	}
	victims := []struct {
		name    string
		net     func() *nn.Network
		configs []corrupt.Config
		seeds   []int64
	}{
		{"lenet", func() *nn.Network { return nn.LeNet(10) }, small, []int64{1, 2, 3}},
		{"convnet", func() *nn.Network { return nn.ConvNet(10) }, small, []int64{1, 2, 3}},
		{"alexnet-div4", func() *nn.Network { return nn.AlexNet(1000, 4) }, []corrupt.Config{interference, combined}, []int64{1}},
	}
	for _, v := range victims {
		if (testing.Short() || raceEnabled) && v.name == "alexnet-div4" {
			continue
		}
		for _, df := range allDataflows {
			net := v.net()
			tr := captureDataflowTrace(t, net, df)
			for _, cfg := range v.configs {
				for _, seed := range v.seeds {
					cfg.Seed = seed
					out = append(out, namedTrace{
						fmt.Sprintf("%s/%v/%+v", v.name, df, cfg),
						corrupt.Apply(tr, cfg), net.Input.Len() * 4,
					})
				}
			}
		}
	}
	return out
}

// TestAttributionMatchesReference pins the forward last-writer sweep to the
// backward scan it replaced: strict and tolerant, on clean and corrupted
// traces, the full Analysis (and any error) must be identical.
func TestAttributionMatchesReference(t *testing.T) {
	var analyzed, multiInput int
	for _, dt := range differentialCorpus(t) {
		for _, tolerant := range []bool{false, true} {
			var got *Analysis
			var gotErr error
			if tolerant {
				got, gotErr = AnalyzeTolerant(dt.tr, dt.inputBytes, 4, TolerantOptions{})
			} else {
				got, gotErr = Analyze(dt.tr, dt.inputBytes, 4)
			}
			want, wantErr := referenceAnalyze(dt.tr, dt.inputBytes, 4, tolerant)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s tolerant=%v: error %v, reference %v", dt.name, tolerant, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s tolerant=%v: analysis differs from the reference attribution:\n got %+v\nwant %+v",
					dt.name, tolerant, got, want)
			}
			if got == nil {
				continue
			}
			analyzed++
			for _, seg := range got.Segments {
				if len(seg.Inputs) > 1 {
					multiInput++
					break
				}
			}
		}
	}
	// Guard against a corpus that stops reaching the attribution step.
	if analyzed == 0 || multiInput == 0 {
		t.Fatalf("corpus too weak: %d analyses, %d with a multi-producer segment", analyzed, multiInput)
	}
	t.Logf("%d analyses identical to the reference, %d with a multi-producer segment", analyzed, multiInput)
}

// TestSegmentationMatchesReference pins the address-order segmentation to
// the sort-and-search one it replaced: strict and tolerant, on clean and
// corrupted traces, the full Analysis (and any error) must be identical.
func TestSegmentationMatchesReference(t *testing.T) {
	var analyzed, filtered int
	for _, dt := range differentialCorpus(t) {
		for _, tolerant := range []bool{false, true} {
			got, gotErr := analyzeEither(dt.tr, dt.inputBytes, tolerant)
			want, wantErr := referenceSegment(dt.tr, dt.inputBytes, 4, tolerant)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s tolerant=%v: error %v, reference %v", dt.name, tolerant, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s tolerant=%v: analysis differs from the reference segmentation:\n got %+v\nwant %+v",
					dt.name, tolerant, got, want)
			}
			if got == nil {
				continue
			}
			analyzed++
			if got.Noise.InterferenceAccesses > 0 {
				filtered++
			}
		}
	}
	// Guard against a corpus that stops reaching the interference filter.
	if analyzed == 0 || filtered == 0 {
		t.Fatalf("corpus too weak: %d analyses, %d with interference filtered out", analyzed, filtered)
	}
	t.Logf("%d analyses identical to the reference, %d with interference filtered out", analyzed, filtered)
}

// analyzeEither runs Analyze or AnalyzeTolerant with default options.
func analyzeEither(tr *memtrace.Trace, inputBytes int, tolerant bool) (*Analysis, error) {
	if tolerant {
		return AnalyzeTolerant(tr, inputBytes, 4, TolerantOptions{})
	}
	return Analyze(tr, inputBytes, 4)
}

// TestAnalyzeDeterministic runs strict analysis repeatedly on a corrupted
// weight-stationary AlexNet capture. Co-tenant writes land in the same
// interference region from several segments, so some segments read
// producers whose output regions start at the same address; their order
// and Adjacent flags once followed map iteration order.
func TestAnalyzeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("AlexNet capture in -short mode")
	}
	net := nn.AlexNet(1000, 4)
	tr := captureSeeded(t, net, accel.WeightStationary, 1)
	noisy := corrupt.Apply(tr, corrupt.Config{Seed: 1, InterferenceRate: 0.05, ReorderWindow: 16})
	first, err := Analyze(noisy, net.Input.Len()*4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 10; i++ {
		again, err := Analyze(noisy, net.Input.Len()*4, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d differs from run 0:\n%+v\n%+v", i, again.Segments, first.Segments)
		}
	}
}
