package serve

import (
	"bytes"
	"encoding/binary"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/iotest"
)

// goldenUpload reads one of the structure attack's golden traces.
func goldenUpload(tb testing.TB, name string) []byte {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "structrev", "testdata", "golden", name))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// serveUpload posts body to the trace endpoint through a direct handler
// call. A *bytes.Reader body carries its Content-Length; any other reader
// arrives with none, as a chunked upload does.
func serveUpload(s *Server, query string, body io.Reader) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/attack/trace?"+query, body))
	return rec
}

// handlerAlloc returns the fewest heap bytes fn allocated over three runs,
// so a stray allocation elsewhere in the process does not count.
func handlerAlloc(fn func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// traceHeader is a serialized trace header: the magic, the block size and
// the declared record count.
func traceHeader(block, records uint64) []byte {
	hdr := binary.LittleEndian.AppendUint64(nil, 0xC99A7E01)
	hdr = binary.LittleEndian.AppendUint64(hdr, block)
	return binary.LittleEndian.AppendUint64(hdr, records)
}

// TestTraceUploadMalformedShapes posts each malformed upload twice: once
// with a Content-Length, and once one byte at a time with none. Both
// deliveries get a 400 and the same body, the check's first problem in
// the order header, records, trailing data, missing records.
func TestTraceUploadMalformedShapes(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	const query = "inw=28&ind=1&classes=10"
	lenet := goldenUpload(t, "lenet.trace") // 14 records at 4-byte blocks
	mutated := func(mutate func(b []byte)) []byte {
		b := bytes.Clone(lenet)
		mutate(b)
		return b
	}
	// 2^40 declared records over three valid ones.
	forged := append(traceHeader(4, 1<<40), lenet[24:24+3*21]...)
	cases := []struct {
		name, want string
		body       []byte
	}{
		{"empty body", "memtrace: decode: 0 bytes is shorter than the 24-byte header", nil},
		{"10-byte body", "memtrace: decode: 10 bytes is shorter than the 24-byte header", lenet[:10]},
		{"bad magic", "memtrace: decode: bad magic 0x1234", mutated(func(b []byte) {
			binary.LittleEndian.PutUint64(b[0:8], 0x1234)
		})},
		// The low half of the magic word is right, the high half garbage.
		{"high magic garbage", "memtrace: decode: bad magic 0xdeadbeefc99a7e01", mutated(func(b []byte) {
			binary.LittleEndian.PutUint32(b[4:8], 0xDEADBEEF)
		})},
		{"block size 0", "memtrace: decode: implausible block size 0", mutated(func(b []byte) {
			binary.LittleEndian.PutUint64(b[8:16], 0)
		})},
		{"block size 2^20+1", "memtrace: decode: implausible block size 1048577", mutated(func(b []byte) {
			binary.LittleEndian.PutUint64(b[8:16], 1<<20+1)
		})},
		{"bad kind at record 3", "memtrace: decode: access 3: invalid kind 7", mutated(func(b []byte) {
			b[24+3*21+20] = 7
		})},
		// One record at 64-byte blocks whose extent wraps past 2^64.
		{"overflowing extent", "memtrace: decode: access 0: extent 0xffffffffffffff7f+1048576 blocks overflows the address space", func() []byte {
			rec := binary.LittleEndian.AppendUint64(traceHeader(64, 1), 1)
			rec = binary.LittleEndian.AppendUint64(rec, ^uint64(0)-128)
			return append(binary.LittleEndian.AppendUint32(rec, 1<<20), 0)
		}()},
		{"truncated mid-record", "memtrace: decode: header declares 14 records but only 215 bytes follow", lenet[:24+10*21+5]},
		{"truncated at a record boundary", "memtrace: decode: header declares 14 records but only 210 bytes follow", lenet[:24+10*21]},
		{"one trailing byte", "memtrace: decode: trailing data past 14 declared records", append(bytes.Clone(lenet), 0xAA)},
		{"2^40 records over three", "memtrace: decode: header declares 1099511627776 records but only 63 bytes follow", forged},
	}
	for _, c := range cases {
		for _, d := range []struct {
			name string
			body func() io.Reader
		}{
			{"content-length", func() io.Reader { return bytes.NewReader(c.body) }},
			{"one byte at a time", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(c.body)) }},
		} {
			rec := serveUpload(s, query, d.body())
			if rec.Code != http.StatusBadRequest || rec.Body.String() != c.want+"\n" {
				t.Errorf("%s, %s: %d %q, want 400 %q", c.name, d.name, rec.Code, rec.Body, c.want)
			}
		}
	}
	// A declared record count buys no memory, however the upload arrives.
	for _, body := range []func() io.Reader{
		func() io.Reader { return bytes.NewReader(forged) },
		func() io.Reader { return iotest.OneByteReader(bytes.NewReader(forged)) },
	} {
		got := handlerAlloc(func() { serveUpload(s, query, body()) })
		t.Logf("a three-record upload declaring 2^40 records allocates %d bytes", got)
		if got >= 64<<10 {
			t.Errorf("a three-record upload declaring 2^40 records allocated %d bytes, want under 64 KiB", got)
		}
	}
	if got := s.Metrics().Counter("started"); got != 0 {
		t.Fatalf("rejected uploads started %d jobs", got)
	}
}

// endlessTrace serves a trace header declaring 2^40 records at 64-byte
// blocks, then zeroed records, valid reads of no blocks, without end; the
// record numbered bad, if any, has an invalid kind. It counts the bytes it
// serves.
type endlessTrace struct {
	hdr    []byte
	bad    int
	served int
}

func newEndlessTrace(bad int) *endlessTrace {
	return &endlessTrace{hdr: traceHeader(64, 1<<40), bad: bad}
}

func (e *endlessTrace) Read(p []byte) (int, error) {
	for i := range p {
		switch o := e.served + i; {
		case o < len(e.hdr):
			p[i] = e.hdr[o]
		case (o-len(e.hdr))/21 == e.bad && (o-len(e.hdr))%21 == 20:
			p[i] = 7
		default:
			p[i] = 0
		}
	}
	e.served += len(p)
	return len(p), nil
}

// TestTraceUploadPastMaxUpload: an endless chunked upload of valid records
// gets 413 at -max-upload, and one whose record 3 is bad gets 400 at that
// record, having read a few hundred bytes of it and not the 64 MiB the
// default -max-upload allows.
func TestTraceUploadPastMaxUpload(t *testing.T) {
	const query = "inw=28&ind=1&classes=10"
	small, _ := newTestServer(t, Config{MaxUploadBytes: 64 << 10})
	s, _ := newTestServer(t, Config{})
	deliveries := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"as it comes", func(r io.Reader) io.Reader { return r }},
		{"one byte at a time", iotest.OneByteReader},
	}
	for _, d := range deliveries {
		rec := serveUpload(small, query, d.wrap(newEndlessTrace(-1)))
		if want := "trace exceeds 65536 byte upload limit\n"; rec.Code != http.StatusRequestEntityTooLarge || rec.Body.String() != want {
			t.Errorf("valid endless upload, %s: %d %q, want 413 %q", d.name, rec.Code, rec.Body, want)
		}
		body := newEndlessTrace(3)
		rec = serveUpload(s, query, d.wrap(body))
		if want := "memtrace: decode: access 3: invalid kind 7\n"; rec.Code != http.StatusBadRequest || rec.Body.String() != want {
			t.Errorf("endless upload with a bad record 3, %s: %d %q, want 400 %q", d.name, rec.Code, rec.Body, want)
		}
		if body.served >= 64<<10 {
			t.Errorf("endless upload with a bad record 3, %s: read %d bytes before rejecting it, want under 64 KiB", d.name, body.served)
		}
	}
}

// TestTraceCacheHitAllocation pins the upload path's allocation. A cache
// hit through a direct handler call reads the upload into its job payload
// and hashes it, so it allocates about the upload once: no copy buffer, no
// decoded records and no grown copy of a buffer its Content-Length sized.
func TestTraceCacheHitAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; pin runs in the non-race job")
	}
	s, _ := newTestServer(t, Config{})
	for _, c := range []struct {
		file  string
		bound float64 // allocation per hit, in uploads
	}{
		{"squeezenet.trace", 1.15},
		{"alexnet.trace", 1.3},
	} {
		raw := goldenUpload(t, c.file)
		const query = "inw=227&ind=3&classes=1000"
		if rec := serveUpload(s, query, bytes.NewReader(raw)); rec.Code != http.StatusOK {
			t.Fatalf("%s: first upload: %d %s", c.file, rec.Code, rec.Body)
		}
		const calls = 50
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			if rec := serveUpload(s, query, bytes.NewReader(raw)); rec.Header().Get("X-Revcnnd-Cache") != "hit" {
				t.Fatalf("%s: repeat upload %d was not a cache hit: %d %s", c.file, i, rec.Code, rec.Body)
			}
		}
		runtime.ReadMemStats(&after)
		per := float64(after.TotalAlloc-before.TotalAlloc) / calls / float64(len(raw))
		t.Logf("%s: a cache hit allocates %.3f× its %d-byte upload", c.file, per, len(raw))
		if per >= c.bound {
			t.Errorf("%s: a cache hit allocated %.2f× its %d-byte upload, want under %.2f×", c.file, per, len(raw), c.bound)
		}
	}
}
