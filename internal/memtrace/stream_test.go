package memtrace

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// synthAccess is the deterministic record stream the synthetic trace reader
// emits: valid, non-wrapping, and cheap to regenerate for verification.
func synthAccess(i uint64) Access {
	return Access{
		Cycle: i,
		Addr:  (i % (1 << 20)) * 64,
		Count: uint32(1 + i%7),
		Kind:  Kind(i % 2),
	}
}

// synthTraceReader serves a serialized trace of n records without ever
// materializing it: records are encoded on demand into a fixed carry
// buffer. It lets the constant-memory tests stream multi-hundred-megabyte
// traces whose only real allocations are the decoder's own batch buffers.
type synthTraceReader struct {
	n     uint64 // total records
	next  uint64 // next record to encode
	carry [traceHeaderBytes]byte
	have  int // valid bytes in carry
	used  int // bytes of carry already served
	done  bool
}

func newSynthTrace(n uint64) *synthTraceReader {
	r := &synthTraceReader{n: n}
	binary.LittleEndian.PutUint64(r.carry[0:8], uint64(traceMagic))
	binary.LittleEndian.PutUint64(r.carry[8:16], 64)
	binary.LittleEndian.PutUint64(r.carry[16:24], n)
	r.have = traceHeaderBytes
	return r
}

func (r *synthTraceReader) Read(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		if r.used == r.have {
			if r.next == r.n {
				r.done = true
				break
			}
			a := synthAccess(r.next)
			r.next++
			binary.LittleEndian.PutUint64(r.carry[0:8], a.Cycle)
			binary.LittleEndian.PutUint64(r.carry[8:16], a.Addr)
			binary.LittleEndian.PutUint32(r.carry[16:20], a.Count)
			r.carry[20] = byte(a.Kind)
			r.have, r.used = accessRecordBytes, 0
		}
		n := copy(p, r.carry[r.used:r.have])
		r.used += n
		p = p[n:]
		total += n
	}
	if total == 0 && r.done {
		return 0, io.EOF
	}
	return total, nil
}

// randomTrace builds a structurally valid trace of n records for round-trip
// comparisons.
func randomTrace(t *testing.T, n int, seed int64) *Trace {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr := &Trace{BlockBytes: 1 + rng.Intn(256), Accesses: make([]Access, n)}
	for i := range tr.Accesses {
		tr.Accesses[i] = Access{
			Cycle: rng.Uint64(),
			Addr:  rng.Uint64() >> 1, // clear the top bit: extent must not wrap
			Count: uint32(rng.Intn(1 << 16)),
			Kind:  Kind(rng.Intn(2)),
		}
	}
	return tr
}

// decodeAll drains a Decoder, accumulating every batch.
func decodeAll(d *Decoder) (*Trace, error) {
	var accs []Access
	for {
		batch, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		accs = append(accs, batch...)
	}
	return &Trace{BlockBytes: d.BlockBytes(), Accesses: accs}, nil
}

// TestDecoderMatchesDecodeTrace pins the tentpole contract: the streaming
// decoder and the in-memory decoder produce identical traces on everything
// Write emits, across batch boundaries (including a batch size that does
// not divide the record count).
func TestDecoderMatchesDecodeTrace(t *testing.T) {
	for _, n := range []int{0, 1, 7, DecodeBatch, DecodeBatch + 1, 3*DecodeBatch - 5} {
		tr := randomTrace(t, n, int64(n)+1)
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		want, err := DecodeTrace(buf.Bytes())
		if err != nil {
			t.Fatalf("n=%d: DecodeTrace: %v", n, err)
		}
		d := NewDecoder(bytes.NewReader(buf.Bytes()))
		d.batchCap = 7 // force many small batches
		got, err := decodeAll(d)
		if err != nil {
			t.Fatalf("n=%d: streaming decode: %v", n, err)
		}
		if got.BlockBytes != want.BlockBytes || !sameAccesses(got.Accesses, want.Accesses) {
			t.Fatalf("n=%d: streaming decode diverges from DecodeTrace", n)
		}
		if d.Declared() != uint64(n) || d.Decoded() != uint64(n) {
			t.Fatalf("n=%d: declared %d decoded %d", n, d.Declared(), d.Decoded())
		}
		// The decoder is terminal after EOF.
		if _, err := d.Next(); err != io.EOF {
			t.Fatalf("n=%d: post-EOF Next returned %v", n, err)
		}
	}
}

// TestDecoderStrictRejection feeds both decode paths the same corrupt
// buffers; the streaming decoder must reject exactly what DecodeTrace
// rejects, with an error naming the problem.
func TestDecoderStrictRejection(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		tr := &Trace{BlockBytes: 4, Accesses: []Access{
			{Cycle: 1, Addr: 0, Count: 1, Kind: Read},
			{Cycle: 2, Addr: 4, Count: 1, Kind: Write},
		}}
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantSub string
	}{
		{"short header", func(b []byte) []byte { return b[:10] }, "header"},
		{"bad magic", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[0:8], 0x1234)
			return b
		}, "bad magic"},
		{"high magic garbage", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:8], 0xDEADBEEF)
			return b
		}, "bad magic"},
		{"zero block", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:16], 0)
			return b
		}, "block size"},
		{"absurd block", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:16], MaxBlockBytes+1)
			return b
		}, "block size"},
		{"forged count", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:24], 1<<40)
			return b
		}, "access"},
		{"truncated record", func(b []byte) []byte { return b[:len(b)-5] }, "access"},
		{"trailing byte", func(b []byte) []byte { return append(b, 0xAA) }, "trailing"},
		{"bad kind", func(b []byte) []byte {
			b[traceHeaderBytes+accessRecordBytes+20] = 7
			return b
		}, "invalid kind"},
		{"wrapping extent", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[traceHeaderBytes+8:traceHeaderBytes+16], ^uint64(0)-2)
			return b
		}, "overflows"},
	}
	for _, tc := range cases {
		raw := tc.mutate(append([]byte(nil), valid()...))
		if _, err := DecodeTrace(raw); err == nil {
			t.Fatalf("%s: DecodeTrace accepted the corrupt buffer", tc.name)
		}
		_, err := decodeAll(NewDecoder(bytes.NewReader(raw)))
		if err == nil {
			t.Fatalf("%s: streaming decoder accepted the corrupt buffer", tc.name)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
}

// TestDecodeStreamConstantMemory is the ROADMAP item-1 pin: decoding a
// multi-hundred-megabyte trace through the streaming decoder allocates a
// fixed number of O(batch) buffers, independent of trace size — where the
// old io.ReadAll + DecodeTrace path held the entire serialized body plus
// the full access slice. The generator reader allocates nothing per record,
// so every allocation AllocsPerRun sees belongs to the decoder.
func TestDecodeStreamConstantMemory(t *testing.T) {
	records := uint64(12_000_000) // 24 + 12M·21 bytes ≈ 252 MB serialized
	if raceEnabled || testing.Short() {
		records = 2_000_000
	}
	var total uint64
	allocs := testing.AllocsPerRun(1, func() {
		total = 0
		d := NewDecoder(newSynthTrace(records))
		for {
			batch, err := d.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("decode at record %d: %v", total, err)
			}
			for i := range batch {
				if batch[i] != synthAccess(total) {
					t.Fatalf("record %d decoded as %+v, want %+v", total, batch[i], synthAccess(total))
				}
				total++
			}
		}
	})
	if total != records {
		t.Fatalf("decoded %d records, want %d", total, records)
	}
	// The decoder owns exactly two batch buffers plus a handful of fixed
	// setup allocations; a bound far below one-per-batch (records/4096
	// batches were consumed) pins the O(batch) memory claim.
	if allocs > 16 {
		t.Fatalf("streaming decode of %d records did %v allocs, want <= 16 (constant)", records, allocs)
	}
}

// allocBytes returns the fewest heap bytes fn allocated over a few runs,
// so a stray allocation elsewhere in the process does not count.
func allocBytes(fn func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestSmallTraceDecodeAllocation: DecodeTrace decodes straight into its
// exactly sized record slice, and a Decoder sizes its batch buffers for
// the records its header declares, so decoding the 14-record LeNet golden
// trace costs its records and not two 4096-record batches (~180 KiB).
func TestSmallTraceDecodeAllocation(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "structrev", "testdata", "golden", "lenet.trace"))
	if err != nil {
		t.Fatal(err)
	}
	var tr *Trace
	got := allocBytes(func() {
		if tr, err = DecodeTrace(raw); err != nil {
			t.Fatal(err)
		}
	})
	records := uint64(len(tr.Accesses)) * uint64(unsafe.Sizeof(Access{}))
	if len(tr.Accesses) != 14 || got-records >= 1<<10 {
		t.Fatalf("DecodeTrace of %d records allocated %d bytes, %d beyond the records; want under 1 KiB beyond", len(tr.Accesses), got, got-records)
	}
	r := bytes.NewReader(raw)
	got = allocBytes(func() {
		r.Reset(raw)
		if _, err := decodeAll(NewDecoder(r)); err != nil {
			t.Fatal(err)
		}
	})
	// The batch buffers hold 14 records each (21 and 24 bytes per record);
	// decodeAll's growing copy of the records comes on top.
	if got >= 4<<10 {
		t.Fatalf("streaming decode of 14 records allocated %d bytes, want under 4 KiB", got)
	}
}

// BenchmarkDecodeStream measures streaming decode throughput; CI's
// bench-smoke job runs it so codec regressions show up next to the
// existing perf pins.
func BenchmarkDecodeStream(b *testing.B) {
	const records = 1_000_000
	b.SetBytes(int64(traceHeaderBytes + records*accessRecordBytes))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := NewDecoder(newSynthTrace(records))
		var n uint64
		for {
			batch, err := d.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n += uint64(len(batch))
		}
		if n != records {
			b.Fatalf("decoded %d records, want %d", n, records)
		}
	}
}

// BenchmarkDecodeTrace is the in-memory baseline for BenchmarkDecodeStream:
// the same records, decoded from a buffer the old ReadAll path would have
// had to hold.
func BenchmarkDecodeTrace(b *testing.B) {
	const records = 1_000_000
	raw, err := io.ReadAll(newSynthTrace(records))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, err := DecodeTrace(raw)
		if err != nil {
			b.Fatal(err)
		}
		if len(tr.Accesses) != records {
			b.Fatalf("decoded %d records", len(tr.Accesses))
		}
	}
}
