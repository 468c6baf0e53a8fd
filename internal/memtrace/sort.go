package memtrace

import "math/bits"

// SortIntervals sorts ivs in place by Lo. Intervals with equal Lo may come
// out in any order; every caller coalesces the result, and CoalesceSorted's
// output depends only on the set of intervals. Callers that coalesce one set
// at several gaps sort it once and call CoalesceSorted per gap.
func SortIntervals(ivs []Interval) {
	radixSort(ivs, func(iv Interval) uint64 { return iv.Lo })
}

// SortAddrs sorts addrs in place in increasing order.
func SortAddrs(addrs []uint64) {
	radixSort(addrs, func(a uint64) uint64 { return a })
}

// insertionCutoff is the bucket size below which radixSort finishes with an
// insertion sort: under it, a 256-way counting pass costs more than the
// element moves it saves.
const insertionCutoff = 32

// radixSort sorts s in place by key, in no particular order among equal
// keys. It is a most-significant-digit ("American flag") radix sort on 8-bit
// digits: each pass counts a bucket's elements per digit and permutes them
// into their sub-buckets along cycles, then recurses on the next digit. It
// starts at the highest byte in which the keys differ (a trace's addresses
// share their top bytes), so it makes at most 8 passes over any element and
// runs in O(n·d) on any input, where d ≤ 8 counts the bytes from that one
// down. It allocates nothing.
func radixSort[E any](s []E, key func(E) uint64) {
	if len(s) < 2 {
		return
	}
	k0 := key(s[0])
	var diff uint64
	for _, e := range s[1:] {
		diff |= key(e) ^ k0
	}
	if diff == 0 {
		return
	}
	radixPass(s, key, uint(bits.Len64(diff)-1)&^7)
}

// radixPass sorts s, whose keys agree in every byte above the one at shift,
// by that byte and the ones below it.
func radixPass[E any](s []E, key func(E) uint64, shift uint) {
	if len(s) < insertionCutoff {
		insertionSort(s, key)
		return
	}
	// end counts each digit's elements, then holds its bucket's end.
	var next, end [256]int
	for _, e := range s {
		end[byte(key(e)>>shift)]++
	}
	lo := 0
	for d, c := range end {
		if c == len(s) {
			// One digit throughout: nothing to permute at this byte.
			if shift > 0 {
				radixPass(s, key, shift-8)
			}
			return
		}
		next[d] = lo
		lo += c
		end[d] = lo
	}
	for d := range next {
		for next[d] < end[d] {
			// Carry the element at bucket d's head to its own bucket's head,
			// picking up the one it displaces, until one belongs in d.
			e := s[next[d]]
			for b := byte(key(e) >> shift); int(b) != d; b = byte(key(e) >> shift) {
				s[next[b]], e = e, s[next[b]]
				next[b]++
			}
			s[next[d]] = e
			next[d]++
		}
	}
	if shift == 0 {
		return
	}
	lo = 0
	for _, hi := range end {
		if hi-lo > 1 {
			radixPass(s[lo:hi], key, shift-8)
		}
		lo = hi
	}
}

func insertionSort[E any](s []E, key func(E) uint64) {
	for i := 1; i < len(s); i++ {
		e := s[i]
		k := key(e)
		j := i
		for ; j > 0 && key(s[j-1]) > k; j-- {
			s[j] = s[j-1]
		}
		s[j] = e
	}
}
