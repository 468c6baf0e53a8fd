package structrev

import (
	"cmp"
	"slices"

	"cnnrev/internal/memtrace"
)

// attributeDeps sets every segment's Inputs: its feature-map reads
// attributed to their most recent earlier writers (a region may be rewritten
// across repeated inferences; only the freshest data is the layer's input).
// A segment sees every write issued before its own first write, and every
// write if it wrote nothing. One forward sweep therefore answers all
// segments: it paints the writes in trace order into a last-writer map and
// answers each segment's reads when it reaches that segment's first write.
func attributeDeps(res *Analysis, sg *segmentation, minDepFrac float64) {
	segs, writes := sg.segs, sg.writes
	firstWrite := make([]int, len(segs))
	for si := range firstWrite {
		firstWrite[si] = len(writes)
	}
	for wi := len(writes) - 1; wi >= 0; wi-- {
		firstWrite[writes[wi].seg] = wi
	}
	lw := newLastWriter(sg.ends)
	dep := map[int]uint64{}
	answer := func(si int) {
		clear(dep)
		for _, iv := range segs[si].reads {
			if res.InputRegion.Overlaps(iv) {
				// Regions are guard-separated; a read never spans the input
				// region and a feature map.
				dep[-1] += clip(iv, res.InputRegion).Bytes()
				continue
			}
			lw.read(iv, dep)
		}
		setInputs(res, si, dep, minDepFrac)
	}
	for wi, w := range writes {
		if firstWrite[w.seg] == wi {
			answer(w.seg)
		}
		lw.paint(w.iv, w.seg)
	}
	for si, wi := range firstWrite {
		if wi == len(writes) {
			answer(si)
		}
	}
}

// setInputs turns one segment's bytes-per-producer into its Inputs. The
// tolerant path first prunes negligible edges: residual interference reads
// that alias an earlier interference write masquerade as tiny dependencies
// and would wreck inputDims. Producers are then ordered by region address,
// ties by producer index, and concatenation adjacency is marked.
func setInputs(res *Analysis, si int, dep map[int]uint64, minDepFrac float64) {
	if res.Tolerant && len(dep) > 1 {
		var tot uint64
		for _, b := range dep {
			tot += b
		}
		for p, b := range dep {
			if float64(b) < minDepFrac*float64(tot) {
				delete(dep, p)
				res.Noise.DroppedDeps++
			}
		}
	}
	if len(dep) == 0 {
		return
	}
	regionLo := func(p int) uint64 {
		if p < 0 {
			return res.InputRegion.Lo
		}
		return res.Segments[p].OFMRegion.Lo
	}
	inputs := make([]SegInput, 0, len(dep))
	for p, b := range dep {
		inputs = append(inputs, SegInput{Producer: p, Bytes: b})
	}
	slices.SortFunc(inputs, func(a, b SegInput) int {
		return cmp.Or(cmp.Compare(regionLo(a.Producer), regionLo(b.Producer)), cmp.Compare(a.Producer, b.Producer))
	})
	// Mark concatenation adjacency.
	for k := 1; k < len(inputs); k++ {
		prev, this := inputs[k-1].Producer, inputs[k].Producer
		if prev >= 0 && this >= 0 {
			a := res.Segments[prev].OFMRegion
			b := res.Segments[this].OFMRegion
			if adjacentAddrs(a.Hi, b.Lo, res.AddrSlack) {
				inputs[k].Adjacent = true
			}
		}
	}
	res.Segments[si].Inputs = inputs
}

// Labels of lastWriter nodes besides segment indices.
const (
	unwritten = -1 // no write covers the node's range
	mixed     = -2 // the node's range has more than one label
)

// lastWriter maps every written byte to the segment of its latest write.
// It is a segment tree over the elementary intervals between the sorted,
// distinct endpoints of all writes, built up front. A node holds the label
// its entire range shares, or mixed. Painting a write costs O(log M) for M
// endpoints, and reading an interval costs O(log M) per run of one label it
// covers, whatever order the writes come in; memory is O(writes).
type lastWriter struct {
	xs   []uint64 // leaf i is the byte range [xs[i], xs[i+1])
	lab  []int32
	last int // index in xs of the previous write's Hi
}

// newLastWriter returns an unpainted lastWriter over xs, the sorted,
// distinct endpoints of the writes it will paint.
func newLastWriter(xs []uint64) lastWriter {
	lw := lastWriter{xs: xs}
	if leaves := len(xs) - 1; leaves > 0 {
		// A tree split at midpoints over n leaves uses node indices below
		// twice the next power of two.
		size := 1
		for size < leaves {
			size <<= 1
		}
		lw.lab = make([]int32, 2*size)
		for i := range lw.lab {
			lw.lab[i] = unwritten
		}
	}
	return lw
}

// leaves returns the number of elementary intervals.
func (lw *lastWriter) leaves() int { return max(len(lw.xs)-1, 0) }

// paint records a write of iv by segment seg, the latest so far.
func (lw *lastWriter) paint(iv memtrace.Interval, seg int) {
	if iv.Lo >= iv.Hi {
		return
	}
	// Both endpoints are in xs, so they name leaf boundaries exactly.
	// Writes mostly stream upward, so each search starts where the previous
	// write ended.
	l := lw.find(iv.Lo, lw.last)
	lw.last = lw.find(iv.Hi, l)
	lw.assign(1, 0, lw.leaves(), l, lw.last, int32(seg))
}

// find returns the index of x in xs, which must hold it, galloping from
// index from: steps of doubling length toward x bracket it, then a binary
// search inside the last step finds it. It costs O(log d) for a distance d
// from from, so O(log M) at worst.
func (lw *lastWriter) find(x uint64, from int) int {
	xs := lw.xs
	// Bracket the answer in (lo, hi]: xs[lo] < x <= xs[hi], with lo = -1
	// standing for the start of xs.
	lo, hi := from, from
	if xs[from] < x {
		// xs ends with the largest endpoint, which is at least x.
		for step := 1; xs[hi] < x; step *= 2 {
			lo, hi = hi, min(hi+step, len(xs)-1)
		}
	} else {
		for step := 1; lo >= 0 && xs[lo] >= x; step *= 2 {
			hi, lo = lo, max(lo-step, -1)
		}
	}
	i, _ := slices.BinarySearch(xs[lo+1:hi+1], x)
	return lo + 1 + i
}

// assign labels leaves [l, r) with seg within node, which spans leaves
// [nl, nr) and overlaps [l, r).
func (lw *lastWriter) assign(node, nl, nr, l, r int, seg int32) {
	if l <= nl && nr <= r {
		lw.lab[node] = seg
		return
	}
	left, right := 2*node, 2*node+1
	if v := lw.lab[node]; v != mixed {
		lw.lab[left], lw.lab[right] = v, v
	}
	mid := (nl + nr) / 2
	if l < mid {
		lw.assign(left, nl, mid, l, r, seg)
	}
	if r > mid {
		lw.assign(right, mid, nr, l, r, seg)
	}
	if lw.lab[left] == lw.lab[right] {
		lw.lab[node] = lw.lab[left]
	} else {
		lw.lab[node] = mixed
	}
}

// read adds to dep, per segment, the bytes of iv whose latest write so far
// was that segment's. Unwritten bytes are not counted.
func (lw *lastWriter) read(iv memtrace.Interval, dep map[int]uint64) {
	n := lw.leaves()
	if n == 0 || iv.Lo >= iv.Hi || iv.Hi <= lw.xs[0] || iv.Lo >= lw.xs[n] {
		return
	}
	lw.collect(1, 0, n, iv, dep)
}

// collect is read within node, which spans leaves [nl, nr) and overlaps iv.
func (lw *lastWriter) collect(node, nl, nr int, iv memtrace.Interval, dep map[int]uint64) {
	if v := lw.lab[node]; v != mixed {
		if v != unwritten {
			dep[int(v)] += min(lw.xs[nr], iv.Hi) - max(lw.xs[nl], iv.Lo)
		}
		return
	}
	mid := (nl + nr) / 2
	if iv.Lo < lw.xs[mid] {
		lw.collect(2*node, nl, mid, iv, dep)
	}
	if iv.Hi > lw.xs[mid] {
		lw.collect(2*node+1, mid, nr, iv, dep)
	}
}
