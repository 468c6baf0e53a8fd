package structrev

import (
	"math/bits"

	"cnnrev/internal/memtrace"
)

// addrRec is one trace record as the analysis's address order holds it:
// its start address, its trace index shifted left once with its kind in the
// low bit, and its block count.
type addrRec struct {
	lo  uint64
	tag uint32
	cnt uint32
}

// maxRecords bounds the records one analysis indexes: addrRec keeps a
// record's index in 31 bits, and the per-record labels keep read-only
// region indices below -1 in an int32.
const maxRecords = 1 << 30

// index returns the record's position in the trace.
func (r addrRec) index() int { return int(r.tag >> 1) }

// isWrite reports whether the record is a write.
func (r addrRec) isWrite() bool { return memtrace.Kind(r.tag&1) == memtrace.Write }

// iv returns the record's byte interval.
func (r addrRec) iv(blockBytes uint64) memtrace.Interval {
	return memtrace.Interval{Lo: r.lo, Hi: r.lo + uint64(r.cnt)*blockBytes}
}

// insertionCutoff is the bucket size below which addrOrder finishes with an
// insertion sort: under it, a 256-way counting pass costs more than the
// moves it saves.
const insertionCutoff = 32

// addrOrder returns every record of accs sorted by start address, ties in
// no particular order: the one order the analysis reads all of its interval
// sets, region labels and per-segment spans from. It is an in-place
// most-significant-digit ("American flag") radix sort on 8-bit digits,
// starting at the highest byte in which the addresses differ, written for
// addrRec's key: each pass counts a bucket's records per digit, permutes
// them into their sub-buckets along cycles, and recurses on the next byte.
// It costs O(n·d), where d ≤ 8 counts the bytes from the highest differing
// one down, and allocates only the records.
func addrOrder(accs []memtrace.Access) []addrRec {
	recs := make([]addrRec, len(accs))
	var diff uint64
	for i, a := range accs {
		recs[i] = addrRec{lo: a.Addr, tag: uint32(i)<<1 | uint32(a.Kind), cnt: a.Count}
		diff |= a.Addr ^ accs[0].Addr
	}
	if diff != 0 {
		addrPass(recs, uint(bits.Len64(diff)-1)&^7)
	}
	return recs
}

// addrPass sorts s, whose addresses agree in every byte above the one at
// shift, by that byte and the ones below it.
func addrPass(s []addrRec, shift uint) {
	if len(s) < insertionCutoff {
		for i := 1; i < len(s); i++ {
			r := s[i]
			j := i
			for ; j > 0 && s[j-1].lo > r.lo; j-- {
				s[j] = s[j-1]
			}
			s[j] = r
		}
		return
	}
	// end counts each digit's records, then holds its bucket's end.
	var next, end [256]int
	for _, r := range s {
		end[byte(r.lo>>shift)]++
	}
	lo := 0
	for d, c := range end {
		if c == len(s) {
			// One digit throughout: nothing to permute at this byte.
			if shift > 0 {
				addrPass(s, shift-8)
			}
			return
		}
		next[d] = lo
		lo += c
		end[d] = lo
	}
	for d := range next {
		for next[d] < end[d] {
			// Carry the record at bucket d's head to its own bucket's head,
			// picking up the one it displaces, until one belongs in d.
			r := s[next[d]]
			for b := byte(r.lo >> shift); int(b) != d; b = byte(r.lo >> shift) {
				s[next[b]], r = r, s[next[b]]
				next[b]++
			}
			s[next[d]] = r
			next[d]++
		}
	}
	if shift == 0 {
		return
	}
	lo = 0
	for _, hi := range end {
		if hi-lo > 1 {
			addrPass(s[lo:hi], shift-8)
		}
		lo = hi
	}
}

// regionAt returns the index of the region containing addr in regions,
// sorted and disjoint, or -1; *from is a search position that addresses
// asked in increasing order advance. It leaves *from at the first region
// ending past addr, so a sweep costs O(regions + addresses).
func regionAt(regions []memtrace.Interval, from *int, addr uint64) int {
	i := *from
	for i < len(regions) && regions[i].Hi <= addr {
		i++
	}
	*from = i
	if i < len(regions) && regions[i].Lo <= addr {
		return i
	}
	return -1
}
