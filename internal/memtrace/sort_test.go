package memtrace

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// sortInputs returns key sets that stress the radix sort's digit selection,
// buckets and insertion-sort cutoff, each of length n.
func sortInputs(n int, r *rand.Rand) map[string][]uint64 {
	gen := func(f func(i int) uint64) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = f(i)
		}
		return keys
	}
	const base = 0x7f3a_0000_0000
	return map[string][]uint64{
		"random":       gen(func(int) uint64 { return r.Uint64() }),
		"shared-high":  gen(func(int) uint64 { return base + uint64(r.Intn(1<<26))&^63 }),
		"low-byte":     gen(func(int) uint64 { return base + uint64(r.Intn(256)) }),
		"all-equal":    gen(func(int) uint64 { return base }),
		"duplicates":   gen(func(int) uint64 { return base + uint64(r.Intn(5))<<(8*r.Intn(8)) }),
		"ascending":    gen(func(i int) uint64 { return base + uint64(i)*64 }),
		"descending":   gen(func(i int) uint64 { return base + uint64(n-i)*64 }),
		"top-of-space": gen(func(int) uint64 { return ^uint64(0) - uint64(r.Intn(1<<12)) }),
	}
}

// TestRadixSortMatchesComparisonSort checks SortAddrs and SortIntervals
// against the standard library's comparison sorts: the same key sequence,
// as a permutation of the input.
func TestRadixSortMatchesComparisonSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var lengths []int
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 100_000)
	for _, n := range lengths {
		for name, keys := range sortInputs(n, r) {
			want := slices.Clone(keys)
			slices.Sort(want)
			got := slices.Clone(keys)
			SortAddrs(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s/%d: SortAddrs differs from slices.Sort", name, n)
			}
			// Hi carries each interval's input position, so the sorted
			// intervals must name every position once.
			ivs := make([]Interval, n)
			for i, k := range keys {
				ivs[i] = Interval{Lo: k, Hi: uint64(i)}
			}
			ref := slices.Clone(ivs)
			slices.SortFunc(ref, func(a, b Interval) int { return cmp.Compare(a.Lo, b.Lo) })
			SortIntervals(ivs)
			seen := make([]bool, n)
			for i, iv := range ivs {
				if iv.Lo != ref[i].Lo {
					t.Fatalf("%s/%d: SortIntervals key %d is %#x, slices.SortFunc has %#x", name, n, i, iv.Lo, ref[i].Lo)
				}
				if iv.Lo != keys[iv.Hi] || seen[iv.Hi] {
					t.Fatalf("%s/%d: SortIntervals output is not a permutation of its input", name, n)
				}
				seen[iv.Hi] = true
			}
		}
	}
}

func TestRadixSortAllocatesNothing(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	keys := sortInputs(10_000, r)["shared-high"]
	addrs := make([]uint64, len(keys))
	ivs := make([]Interval, len(keys))
	if a := testing.AllocsPerRun(5, func() {
		copy(addrs, keys)
		SortAddrs(addrs)
	}); a != 0 {
		t.Errorf("SortAddrs: %v allocations per run", a)
	}
	if a := testing.AllocsPerRun(5, func() {
		for i, k := range keys {
			ivs[i] = Interval{Lo: k, Hi: k + 64}
		}
		SortIntervals(ivs)
	}); a != 0 {
		t.Errorf("SortIntervals: %v allocations per run", a)
	}
}

// BenchmarkSortIntervals sorts 2^20 block-aligned intervals scattered over a
// 64 MiB window, the shape of a probe trace's interval sets, with the radix
// sort and, for comparison, the standard library's pdqsort.
func BenchmarkSortIntervals(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	src := make([]Interval, 1<<20)
	for i := range src {
		lo := uint64(1<<32) + uint64(r.Intn(1<<20))*64
		src[i] = Interval{Lo: lo, Hi: lo + 64*uint64(1+r.Intn(16))}
	}
	ivs := make([]Interval, len(src))
	for _, bc := range []struct {
		name string
		sort func([]Interval)
	}{
		{"radix", SortIntervals},
		{"pdqsort", func(s []Interval) {
			slices.SortFunc(s, func(a, b Interval) int { return cmp.Compare(a.Lo, b.Lo) })
		}},
	} {
		b.Run(fmt.Sprintf("%s/n=%d", bc.name, len(src)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(ivs, src)
				bc.sort(ivs)
			}
		})
	}
}
