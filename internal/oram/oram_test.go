package oram

import (
	"math/rand"
	"testing"
	"time"

	"cnnrev/internal/accel"
	"cnnrev/internal/memtrace"
	"cnnrev/internal/nn"
	"cnnrev/internal/structrev"
)

func lenetTrace(t *testing.T) *memtrace.Trace {
	t.Helper()
	net := nn.LeNet(10)
	net.InitWeights(1)
	sim, err := accel.New(net, accel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	x := make([]float32, net.Input.Len())
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	res, err := sim.Run(x)
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

func TestObfuscateOverheadMatchesTheory(t *testing.T) {
	tr := lenetTrace(t)
	obf, st, err := Obfuscate(tr, Config{BlockBytes: 64, Z: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Path ORAM moves 2·Z·(L+1) blocks per logical access.
	want := float64(2 * 4 * st.Levels)
	if got := st.Overhead(); got != want {
		t.Fatalf("overhead = %v, want %v (levels %d)", got, want, st.Levels)
	}
	if obf.Blocks() != st.PhysicalBlocks {
		t.Fatalf("trace blocks %d != stats %d", obf.Blocks(), st.PhysicalBlocks)
	}
	if st.Overhead() < 50 {
		t.Fatalf("ORAM should cost dearly; overhead only %.0fx", st.Overhead())
	}
}

func TestObfuscateStashBounded(t *testing.T) {
	tr := lenetTrace(t)
	_, st, err := Obfuscate(tr, Config{BlockBytes: 64, Z: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The classic result: stash stays small (O(log N) w.h.p.) for Z >= 4.
	if st.MaxStash > st.DistinctBlocks/4 {
		t.Fatalf("stash blew up: %d of %d blocks", st.MaxStash, st.DistinctBlocks)
	}
	if st.MaxStash == 0 {
		t.Fatal("stash never used — protocol not exercised")
	}
}

func TestObfuscationDefeatsStructureAttack(t *testing.T) {
	tr := lenetTrace(t)
	obf, _, err := Obfuscate(tr, Config{BlockBytes: 64, Z: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Every bucket is both read and written, so there is no read-only
	// (filter) region and no layer boundary to find: Analyze must fail.
	if _, err := structrev.Analyze(obf, 28*28*4, 4); err == nil {
		t.Fatal("structure attack should fail on an ORAM-obfuscated trace")
	}
}

func TestObfuscationHidesAddressCorrelation(t *testing.T) {
	// Two runs of the same logical trace with different ORAM seeds must
	// produce different physical access sequences (position-map randomness),
	// while identical seeds reproduce exactly.
	tr := lenetTrace(t)
	a1, _, _ := Obfuscate(tr, Config{Seed: 5})
	a2, _, _ := Obfuscate(tr, Config{Seed: 6})
	a3, _, _ := Obfuscate(tr, Config{Seed: 5})
	if len(a1.Accesses) != len(a3.Accesses) {
		t.Fatal("same seed must give same length")
	}
	same13, same12 := true, true
	for i := range a1.Accesses {
		if a1.Accesses[i] != a3.Accesses[i] {
			same13 = false
		}
		if i < len(a2.Accesses) && a1.Accesses[i] != a2.Accesses[i] {
			same12 = false
		}
	}
	if !same13 {
		t.Fatal("obfuscation must be deterministic per seed")
	}
	if same12 {
		t.Fatal("different seeds must randomize the pattern")
	}
}

func TestPathBucketsWellFormed(t *testing.T) {
	c := newController(100, 4, rand.New(rand.NewSource(1)))
	for leaf := 0; leaf < c.leaves; leaf++ {
		p := c.pathBuckets(leaf)
		if len(p) != c.levels || p[0] != 0 {
			t.Fatalf("leaf %d: path %v", leaf, p)
		}
		for l := 1; l < len(p); l++ {
			if (p[l]-1)/2 != p[l-1] {
				t.Fatalf("leaf %d: %v not a root path", leaf, p)
			}
		}
		if !c.onPath(p[len(p)-1], leaf) || !c.onPath(0, leaf) {
			t.Fatal("onPath inconsistent with pathBuckets")
		}
	}
}

func TestObfuscateRejectsIncompatibleBlocks(t *testing.T) {
	tr := &memtrace.Trace{BlockBytes: 48, Accesses: []memtrace.Access{{Addr: 0, Count: 1}}}
	if _, _, err := Obfuscate(tr, Config{BlockBytes: 64}); err == nil {
		t.Fatal("expected block-size incompatibility error")
	}
}

func TestObfuscateBucketCapacityScalesOverhead(t *testing.T) {
	tr := lenetTrace(t)
	_, z4, err := Obfuscate(tr, Config{Z: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, z8, err := Obfuscate(tr, Config{Z: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Doubling Z halves tree height (roughly) but doubles per-bucket cost;
	// both must report consistent accounting.
	if z8.Levels >= z4.Levels {
		t.Fatalf("larger buckets should shrink the tree: %d vs %d levels", z8.Levels, z4.Levels)
	}
	if z4.Overhead() != float64(2*4*z4.Levels) || z8.Overhead() != float64(2*8*z8.Levels) {
		t.Fatal("overhead accounting inconsistent")
	}
}

// TestObfuscateRejectsHostileConfigs pins the Validate gate: a negative Z
// used to spin newController's sizing loop forever, and a negative or
// non-power-of-two BlockBytes corrupted the block math. Every case must
// return promptly with an error, never hang or panic.
func TestObfuscateRejectsHostileConfigs(t *testing.T) {
	tr := &memtrace.Trace{BlockBytes: 64, Accesses: []memtrace.Access{
		{Cycle: 0, Addr: 0, Count: 4, Kind: memtrace.Read},
		{Cycle: 1, Addr: 4096, Count: 4, Kind: memtrace.Write},
	}}
	for _, cfg := range []Config{
		{Z: -1},
		{Z: -1 << 40},
		{Z: maxZ + 1},
		{BlockBytes: -64},
		{BlockBytes: 48}, // not a power of two
		{BlockBytes: 3},  // not a power of two
		{BlockBytes: memtrace.MaxBlockBytes * 2},
		{Z: -1, BlockBytes: -1},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted a hostile config", cfg)
		}
		if _, _, err := Obfuscate(tr, cfg); err == nil {
			t.Errorf("Obfuscate(%+v) accepted a hostile config", cfg)
		}
	}
	// Zero values still select the defaults.
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	if _, st, err := Obfuscate(tr, Config{}); err != nil || st.PhysicalBlocks == 0 {
		t.Fatalf("zero config: %v (physical %d)", err, st.PhysicalBlocks)
	}
}

// TestObfuscateBoundsHostileExtents pins the DoS guards: a tiny
// codec-valid trace claiming petabyte extents must be rejected before any
// per-block enumeration, not obfuscated block by block.
func TestObfuscateBoundsHostileExtents(t *testing.T) {
	tr := &memtrace.Trace{BlockBytes: 1 << 20, Accesses: []memtrace.Access{
		{Cycle: 0, Addr: 0, Count: 1 << 31, Kind: memtrace.Read},
		{Cycle: 1, Addr: 1 << 60, Count: 1 << 31, Kind: memtrace.Write},
	}}
	if _, _, err := Obfuscate(tr, Config{BlockBytes: 4096}); err == nil {
		t.Fatal("petabyte-extent trace accepted")
	}
}

// TestObfuscateTopOfAddressSpace is the wrap regression: an extent hugging
// 2^64 used to wrap the per-block enumeration cursor past its end bound
// and spin forever. The trace is small and must obfuscate (or reject)
// promptly.
func TestObfuscateTopOfAddressSpace(t *testing.T) {
	top := ^uint64(0)
	tr := &memtrace.Trace{BlockBytes: 1, Accesses: []memtrace.Access{
		{Cycle: top, Addr: top - 1, Count: 1, Kind: memtrace.Read},
		{Cycle: top, Addr: 0, Count: 1, Kind: memtrace.Write},
		{Cycle: 0, Addr: top - 1, Count: 1, Kind: memtrace.Write},
	}}
	done := make(chan error, 1)
	go func() {
		_, _, err := Obfuscate(tr, Config{Seed: 1})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Logf("rejected (acceptable): %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Obfuscate hung on a top-of-address-space extent")
	}
}
