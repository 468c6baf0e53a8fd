// Package oram implements a Path ORAM controller (Stefanov et al., CCS'13)
// over the reproduction's memory-trace model. The paper's related-work
// section names ORAM as the defense that defeats its attacks at significant
// cost; this package quantifies both claims: an obfuscated trace carries no
// read-after-write structure for the attack to segment, and every logical
// block access expands into 2·Z·(L+1) physical block transfers.
package oram

import (
	"fmt"
	"math/rand"

	"cnnrev/internal/memtrace"
)

// Config parameterizes the ORAM controller.
type Config struct {
	// BlockBytes is the ORAM block size (default 64).
	BlockBytes int
	// Z is the bucket capacity in blocks (default 4, the standard Path ORAM
	// choice).
	Z int
	// Seed drives the position-map randomness.
	Seed int64
}

// Validate rejects configurations the controller cannot run. Zero values
// are allowed — they select the documented defaults — but a negative Z
// would spin newController's tree-sizing loop forever (a negative product
// is always below the target), and a negative or non-power-of-two block
// size corrupts the block arithmetic. This is the single gate every
// HTTP-reachable caller goes through.
func (c Config) Validate() error {
	if c.Z < 0 {
		return fmt.Errorf("oram: Z must be >= 1 (got %d)", c.Z)
	}
	if c.BlockBytes < 0 {
		return fmt.Errorf("oram: BlockBytes must be >= 1 (got %d)", c.BlockBytes)
	}
	if c.BlockBytes > 0 && c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("oram: BlockBytes must be a power of two (got %d)", c.BlockBytes)
	}
	if c.BlockBytes > memtrace.MaxBlockBytes {
		return fmt.Errorf("oram: BlockBytes %d exceeds the maximum block size %d", c.BlockBytes, memtrace.MaxBlockBytes)
	}
	if c.Z > maxZ {
		return fmt.Errorf("oram: Z must be <= %d (got %d)", maxZ, c.Z)
	}
	return nil
}

// maxZ bounds the bucket capacity; every physical access touches 2·Z·(L+1)
// slots, so an absurd Z is a resource-exhaustion vector, not a security
// parameter.
const maxZ = 1 << 10

// maxLogicalAccesses and maxPhysicalTransfers bound an obfuscation run.
// A hostile (codec-valid) trace can claim petabyte extents in a few
// records; enumerating its logical blocks, let alone emitting the
// 2·Z·(L+1)-expanded physical stream, would run without bound. Both caps
// sit above every planned experiment (full AlexNet at page-granular ORAM
// blocks is ~10M physical transfers) and the error text names the fix:
// a larger ORAM block size.
const (
	maxLogicalAccesses   = 1 << 26
	maxPhysicalTransfers = 1 << 25
)

// Stats reports the cost and behaviour of an obfuscation run.
type Stats struct {
	// LogicalBlocks is the number of block accesses in the input trace.
	LogicalBlocks uint64
	// PhysicalBlocks is the number of block transfers the ORAM emitted.
	PhysicalBlocks uint64
	// Levels is the tree height + 1 (number of buckets per path).
	Levels int
	// MaxStash is the peak stash occupancy observed.
	MaxStash int
	// DistinctBlocks is the size of the logical address space touched.
	DistinctBlocks int
}

// Overhead returns the bandwidth expansion factor.
func (s Stats) Overhead() float64 {
	if s.LogicalBlocks == 0 {
		return 0
	}
	return float64(s.PhysicalBlocks) / float64(s.LogicalBlocks)
}

// controller is a Path ORAM instance over a fixed logical block set.
type controller struct {
	z      int
	levels int // buckets per path = tree height + 1
	leaves int
	rng    *rand.Rand

	pos     map[uint64]int      // logical block -> leaf
	bucket  [][]uint64          // bucket index -> resident blocks
	inStash map[uint64]struct{} // stash contents
	max     int
}

// treeLevels returns the buckets per path of a tree with room for n
// logical blocks in buckets of z: the fewest levels whose leaves hold them.
func treeLevels(n int, z int) int {
	levels := 1
	for (1<<(levels-1))*z < n {
		levels++
	}
	return levels
}

// newController sizes the tree for n logical blocks.
func newController(n int, z int, rng *rand.Rand) *controller {
	if n < 1 {
		n = 1
	}
	levels := treeLevels(n, z)
	c := &controller{
		z:       z,
		levels:  levels,
		leaves:  1 << (levels - 1),
		rng:     rng,
		pos:     make(map[uint64]int, n),
		bucket:  make([][]uint64, (1<<levels)-1),
		inStash: make(map[uint64]struct{}),
	}
	return c
}

// pathBuckets returns the bucket indices from the root to the given leaf.
func (c *controller) pathBuckets(leaf int) []int {
	idx := make([]int, c.levels)
	node := leaf + c.leaves - 1 // leaf node index in the implicit tree
	for l := c.levels - 1; l >= 0; l-- {
		idx[l] = node
		node = (node - 1) / 2
	}
	return idx
}

// onPath reports whether bucket b lies on the path to leaf.
func (c *controller) onPath(b, leaf int) bool {
	node := leaf + c.leaves - 1
	for {
		if node == b {
			return true
		}
		if node == 0 {
			return false
		}
		node = (node - 1) / 2
	}
}

// access performs one Path ORAM access for the logical block, invoking emit
// for every physical bucket-slot transfer (reads of the whole path, then
// writes of the whole path).
func (c *controller) access(block uint64, emit func(bucket, slot int, kind memtrace.Kind)) {
	leaf, ok := c.pos[block]
	if !ok {
		leaf = c.rng.Intn(c.leaves)
	}
	// Remap before the access, as the protocol requires.
	c.pos[block] = c.rng.Intn(c.leaves)

	path := c.pathBuckets(leaf)
	// Read the whole path into the stash.
	for _, b := range path {
		for s := 0; s < c.z; s++ {
			emit(b, s, memtrace.Read)
		}
		for _, blk := range c.bucket[b] {
			c.inStash[blk] = struct{}{}
		}
		c.bucket[b] = c.bucket[b][:0]
	}
	c.inStash[block] = struct{}{}
	if len(c.inStash) > c.max {
		c.max = len(c.inStash)
	}

	// Evict: greedily push stash blocks as deep as possible on this path.
	for l := c.levels - 1; l >= 0; l-- {
		b := path[l]
		for blk := range c.inStash {
			if len(c.bucket[b]) >= c.z {
				break
			}
			if c.onPath(b, c.pos[blk]) {
				c.bucket[b] = append(c.bucket[b], blk)
				delete(c.inStash, blk)
			}
		}
	}
	// Write the whole path back (dummies fill unused slots — the adversary
	// cannot tell).
	for _, b := range path {
		for s := 0; s < c.z; s++ {
			emit(b, s, memtrace.Write)
		}
	}
}

// Obfuscate replays a plaintext trace through Path ORAM and returns the
// physical trace an adversary would observe, plus cost statistics. Logical
// timing (the cycle stamps) is replaced by a constant-rate clock — one tick
// per physical block — since the ORAM controller serializes transfers.
func Obfuscate(tr *memtrace.Trace, cfg Config) (*memtrace.Trace, Stats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, Stats{}, err
	}
	if err := tr.Validate(); err != nil {
		return nil, Stats{}, err
	}
	if cfg.BlockBytes == 0 {
		cfg.BlockBytes = 64
	}
	if cfg.Z == 0 {
		cfg.Z = 4
	}
	if cfg.BlockBytes%tr.BlockBytes != 0 && tr.BlockBytes%cfg.BlockBytes != 0 {
		return nil, Stats{}, fmt.Errorf("oram: block size %d incompatible with trace granularity %d", cfg.BlockBytes, tr.BlockBytes)
	}

	// Bound the run before enumerating anything: a hostile trace's extents
	// can dwarf its record count. Each record touches the block range
	// [Addr/obb, Addr/obb + blocks); the distinct blocks, which size the
	// tree, are the union of those ranges.
	obb := uint64(cfg.BlockBytes)
	var totalLogical uint64
	ranges := make([]memtrace.Interval, len(tr.Accesses))
	for i, a := range tr.Accesses {
		lo := a.Addr / obb * obb
		hi := a.End(tr.BlockBytes)
		// span/obb rounded up, without the += obb-1 overflow a hostile
		// full-address-space extent would trigger.
		span := hi - lo
		blocks := span / obb
		if span%obb != 0 {
			blocks++
		}
		totalLogical += blocks
		if totalLogical > maxLogicalAccesses {
			return nil, Stats{}, fmt.Errorf("oram: trace spans more than %d logical block accesses at block size %d; use a larger ORAM block size", maxLogicalAccesses, cfg.BlockBytes)
		}
		ranges[i] = memtrace.Interval{Lo: a.Addr / obb, Hi: a.Addr/obb + blocks}
	}
	memtrace.SortIntervals(ranges)
	var distinct uint64
	for _, r := range memtrace.CoalesceSorted(ranges, 0) {
		distinct += r.Bytes()
	}
	// Every access reads and writes a whole path of Z-slot buckets, so the
	// physical count is known now, before the block set, the position map
	// or the tree is built.
	levels := treeLevels(max(int(distinct), 1), cfg.Z)
	physical := totalLogical * 2 * uint64(cfg.Z) * uint64(levels)
	if physical > maxPhysicalTransfers {
		return nil, Stats{}, fmt.Errorf("oram: obfuscation would emit %d physical transfers (cap %d); use a larger ORAM block size", physical, maxPhysicalTransfers)
	}

	// Enumerate the logical block set. The inner loops step with an explicit
	// wrap check: an extent hugging the top of the address space would
	// otherwise wrap addr past hi and spin forever.
	seen := make(map[uint64]struct{}, distinct)
	logical := make([]uint64, 0, distinct)
	for _, a := range tr.Accesses {
		lo := a.Addr / obb * obb
		hi := a.End(tr.BlockBytes)
		for addr := lo; addr < hi; {
			if _, ok := seen[addr]; !ok {
				seen[addr] = struct{}{}
				logical = append(logical, addr)
			}
			next := addr + obb
			if next < addr {
				break // top of the address space
			}
			addr = next
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := newController(len(logical), cfg.Z, rng)
	for _, b := range logical {
		c.pos[b] = rng.Intn(c.leaves)
	}

	st := Stats{Levels: c.levels, DistinctBlocks: len(logical)}
	rec := memtrace.NewRecorder(cfg.BlockBytes)
	// Every transfer gets its own tick, so none coalesce: the trace holds
	// exactly one record per physical transfer.
	rec.Reserve(int(physical))
	var tick uint64
	emit := func(bucket, slot int, kind memtrace.Kind) {
		addr := uint64(bucket*cfg.Z+slot) * obb
		rec.Record(tick, addr, 1, kind)
		tick++
		st.PhysicalBlocks++
	}
	for _, a := range tr.Accesses {
		lo := a.Addr / obb * obb
		hi := a.End(tr.BlockBytes)
		for addr := lo; addr < hi; {
			st.LogicalBlocks++
			c.access(addr, emit)
			next := addr + obb
			if next < addr {
				break // top of the address space
			}
			addr = next
		}
	}
	st.MaxStash = c.max
	return rec.Trace(), st, nil
}
