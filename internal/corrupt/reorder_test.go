package corrupt

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"cnnrev/internal/memtrace"
)

// ringReorder is reorderBounded as it was before short traces got their own
// branch: the window-sized ring for every trace length. It is the oracle
// reorderShort must match.
func ringReorder(accs []memtrace.Access, window int, rng *rand.Rand) {
	m := window + 1
	slots := min(m, len(accs))
	held := make([]memtrace.Access, slots)
	next := make([]int32, slots+m)
	tail := make([]int32, m)
	for k := range tail {
		next[slots+k], tail[k] = -1, int32(slots+k)
	}
	var offs [512]int32
	d, dSlot, iSlot := 0, 0, 0
	for i := 0; i < len(accs)+window; i++ {
		if i < len(accs) {
			if i%len(offs) == 0 {
				for j := range offs[:min(len(offs), len(accs)-i)] {
					offs[j] = int32(rng.Intn(m))
				}
			}
			k := iSlot + int(offs[i%len(offs)])
			if k >= m {
				k -= m
			}
			held[iSlot], next[iSlot] = accs[i], -1
			next[tail[k]], tail[k] = int32(iSlot), int32(iSlot)
		}
		for s := next[slots+iSlot]; s >= 0; s = next[s] {
			a := held[s]
			a.Cycle = held[dSlot].Cycle
			accs[d] = a
			d++
			if dSlot++; dSlot == m {
				dSlot = 0
			}
		}
		next[slots+iSlot], tail[iSlot] = -1, int32(slots+iSlot)
		if iSlot++; iSlot == m {
			iSlot = 0
		}
	}
}

// TestReorderMatchesRing compares reorderBounded with the ring on random
// traces of 1 to 300 records, at windows just below, at and just above the
// record count, where the short-trace branch takes over, and at revcnnd's
// largest window. Both must permute identically and leave the generator in
// the same state.
func TestReorderMatchesRing(t *testing.T) {
	gen := rand.New(rand.NewSource(1))
	for n := 1; n <= 300; n++ {
		accs := make([]memtrace.Access, n)
		cycle := uint64(0)
		for i := range accs {
			cycle += uint64(gen.Intn(4)) // repeated cycles are legal
			accs[i] = memtrace.Access{Cycle: cycle, Addr: gen.Uint64() >> 8, Count: uint32(1 + gen.Intn(16)), Kind: memtrace.Kind(gen.Intn(2))}
		}
		windows := []int{n - 2, n - 1, n, n + 1}
		if n == 1 || n%23 == 0 || n == 300 {
			windows = append(windows, 1<<20)
		}
		for _, w := range windows {
			if w < 1 {
				continue
			}
			seed := gen.Int63()
			got, want := slices.Clone(accs), slices.Clone(accs)
			grng, wrng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			reorderBounded(got, w, grng)
			ringReorder(want, w, wrng)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d window=%d: reorder diverges from the ring\n got %v\nwant %v", n, w, got, want)
			}
			if grng.Int63() != wrng.Int63() {
				t.Fatalf("n=%d window=%d: generator states diverge after the reorder", n, w)
			}
		}
	}
}

// TestReorderShortTraceAllocatesByTrace: a one-record trace under revcnnd's
// largest reorder window used to make Apply allocate two 2^20-entry ring
// arrays (8.4 MB) and loop 2^20 times.
func TestReorderShortTraceAllocatesByTrace(t *testing.T) {
	one := &memtrace.Trace{BlockBytes: 64, Accesses: []memtrace.Access{
		{Cycle: 9, Addr: 1 << 20, Count: 1, Kind: memtrace.Read},
	}}
	cfg := Config{Seed: 3, ReorderWindow: 1 << 20}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	out := Apply(one, cfg)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("Apply of one record with window 2^20 allocated %d bytes, want under 64 KiB", got)
	}
	if len(out.Accesses) != 1 || out.Accesses[0] != one.Accesses[0] {
		t.Fatalf("one-record reorder changed the record: %+v", out.Accesses)
	}
}
