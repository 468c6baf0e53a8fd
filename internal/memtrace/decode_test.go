package memtrace

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// synthTraceBytes serializes a valid trace of n records: cheap to build,
// with every direction and a spread of addresses and burst lengths.
func synthTraceBytes(tb testing.TB, n int) []byte {
	tb.Helper()
	tr := &Trace{BlockBytes: 64, Accesses: make([]Access, n)}
	for i := range tr.Accesses {
		tr.Accesses[i] = Access{
			Cycle: uint64(i),
			Addr:  uint64(i%(1<<20)) * 64,
			Count: uint32(1 + i%7),
			Kind:  Kind(i % 2),
		}
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// checkInPieces runs CheckTrace over data delivered step bytes at a time,
// then once more as the whole trace, the way an upload's bytes land.
func checkInPieces(data []byte, step int) error {
	checked := 0
	for end := step; end < len(data); end += step {
		var err error
		if checked, err = CheckTrace(data[:end], checked, false); err != nil {
			return err
		}
	}
	_, err := CheckTrace(data, checked, true)
	return err
}

// TestDecoderStrictRejection feeds corrupt buffers to DecodeTrace and to
// CheckTrace, whole and one byte at a time: all three must reject each
// buffer with the same error, naming the problem.
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
		}, "declares"},
		{"truncated record", func(b []byte) []byte { return b[:len(b)-5] }, "declares"},
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
		_, err := DecodeTrace(raw)
		if err == nil {
			t.Fatalf("%s: DecodeTrace accepted the corrupt buffer", tc.name)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
		if _, cerr := CheckTrace(raw, 0, true); cerr == nil || cerr.Error() != err.Error() {
			t.Fatalf("%s: CheckTrace of the whole buffer: %v, want %v", tc.name, cerr, err)
		}
		if cerr := checkInPieces(raw, 1); cerr == nil || cerr.Error() != err.Error() {
			t.Fatalf("%s: CheckTrace one byte at a time: %v, want %v", tc.name, cerr, err)
		}
	}
}

// TestCheckTraceAllocatesNothing: checking a valid trace, whole or as it
// arrives in pieces, allocates nothing.
func TestCheckTraceAllocatesNothing(t *testing.T) {
	raw := synthTraceBytes(t, 5000)
	for _, step := range []int{1, 100, 32 << 10, len(raw)} {
		if allocs := testing.AllocsPerRun(3, func() {
			if err := checkInPieces(raw, step); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("checking in %d-byte pieces allocated %v times, want 0", step, allocs)
		}
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
// exactly sized record slice, so decoding the 14-record LeNet golden trace
// costs its records and little else.
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
}

// BenchmarkDecodeTrace decodes a million-record trace from memory, as the
// worker decodes a job payload's upload. CI's bench-smoke job runs it with
// BenchmarkCheckTrace so codec regressions show up next to the existing
// perf pins.
func BenchmarkDecodeTrace(b *testing.B) {
	const records = 1_000_000
	raw := synthTraceBytes(b, records)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
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

// BenchmarkCheckTrace checks the same records as they would land from the
// network, 32 KiB at a time, the way revcnnd checks an upload.
func BenchmarkCheckTrace(b *testing.B) {
	raw := synthTraceBytes(b, 1_000_000)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := checkInPieces(raw, 32<<10); err != nil {
			b.Fatal(err)
		}
	}
}
