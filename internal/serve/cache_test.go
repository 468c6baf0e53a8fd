package serve

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// TestResultCacheLRUEviction pins the byte-budget LRU contract: least
// recently used entries fall out first, a get refreshes recency, and the
// byte accounting tracks keys plus bodies.
func TestResultCacheLRUEviction(t *testing.T) {
	entry := func(i int) (string, []byte) {
		return fmt.Sprintf("k%02d", i), bytes.Repeat([]byte{byte(i)}, 97) // 3 + 97 = 100 bytes
	}
	c := newResultCache(300) // exactly three entries
	for i := 0; i < 3; i++ {
		k, b := entry(i)
		if ev := c.put(k, b); ev != 0 {
			t.Fatalf("put %d evicted %d entries under budget", i, ev)
		}
	}
	if n, e := c.stats(); n != 300 || e != 3 {
		t.Fatalf("stats = %d bytes %d entries, want 300/3", n, e)
	}
	// Touch k00 so k01 becomes the LRU victim.
	if _, ok := c.get("k00"); !ok {
		t.Fatal("k00 missing before eviction")
	}
	k3, b3 := entry(3)
	if ev := c.put(k3, b3); ev != 1 {
		t.Fatalf("put over budget evicted %d entries, want 1", ev)
	}
	if _, ok := c.get("k01"); ok {
		t.Fatal("LRU entry k01 survived eviction")
	}
	for _, k := range []string{"k00", "k02", "k03"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("%s evicted out of LRU order", k)
		}
	}
}

// TestResultCacheReplaceAndOversize: replacing a key updates bytes in
// place, and an entry larger than the whole budget is refused rather than
// flushing the cache to make room for something that cannot fit.
func TestResultCacheReplaceAndOversize(t *testing.T) {
	c := newResultCache(100)
	c.put("a", make([]byte, 10))
	c.put("a", make([]byte, 50))
	if n, e := c.stats(); n != 51 || e != 1 {
		t.Fatalf("after replace: %d bytes %d entries, want 51/1", n, e)
	}
	got, ok := c.get("a")
	if !ok || len(got) != 50 {
		t.Fatalf("replaced body len %d, want 50", len(got))
	}
	if ev := c.put("huge", make([]byte, 200)); ev != 0 {
		t.Fatalf("oversized put evicted %d entries", ev)
	}
	if _, ok := c.get("huge"); ok {
		t.Fatal("entry over the whole budget was stored")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("oversized put flushed an existing entry")
	}
}

// TestCacheKeyDistinguishesParams pins the canonicalization: setting any
// leaf field of the request to a non-zero value changes the key, except the
// timeout, and the same logical request reproduces it. The walk covers
// every field the request struct has, so a knob added later cannot be left
// out of the key.
func TestCacheKeyDistinguishesParams(t *testing.T) {
	base := func() *attackRequest {
		return &attackRequest{
			Upload:  &uploadParams{SHA256: "abc", InW: 28, InD: 1, Elem: 4},
			Classes: 10, Tol: 0.1,
		}
	}
	k0 := base().cacheKey()
	if k0 != base().cacheKey() {
		t.Fatal("identical requests produced different keys")
	}
	seen := map[string]string{k0: "base"}
	for _, path := range jsonLeaves(reflect.TypeOf(attackRequest{}), nil) {
		r := base()
		name := setLeaf(reflect.ValueOf(r).Elem(), path)
		k := r.cacheKey()
		if name == "TimeoutMS" {
			if k != k0 {
				t.Fatal("timeout leaked into the cache key")
			}
			continue
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("setting %s collides with %s on key %q", name, prev, k)
		}
		seen[k] = name
	}
	if len(seen) < 40 {
		t.Fatalf("walked only %d leaves; the request has more knobs than that", len(seen)-1)
	}
	// Simulate mode keys on the resolved seed: 0 and 2 are distinct.
	s0 := &attackRequest{Model: "lenet", Seed: 0}
	s2 := &attackRequest{Model: "lenet", Seed: 2}
	if s0.cacheKey() == s2.cacheKey() {
		t.Fatal("seed 0 and seed 2 collide on one cache key")
	}
	if (&attackRequest{Model: "lenet"}).cacheKey() == base().cacheKey() {
		t.Fatal("trace and simulate mode collide")
	}
}

// jsonLeaves returns the field index paths of every JSON-encoded leaf under
// struct type t, descending through nested structs and struct pointers.
func jsonLeaves(t reflect.Type, prefix []int) [][]int {
	var out [][]int
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() || f.Tag.Get("json") == "-" {
			continue
		}
		path := append(append([]int(nil), prefix...), i)
		ft := f.Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct {
			out = append(out, jsonLeaves(ft, path)...)
			continue
		}
		out = append(out, path)
	}
	return out
}

// setLeaf changes the leaf at path to a different non-zero value,
// allocating nil struct pointers on the way, and returns its dotted name.
func setLeaf(v reflect.Value, path []int) string {
	var name string
	for _, i := range path {
		if v.Kind() == reflect.Pointer {
			if v.IsNil() {
				v.Set(reflect.New(v.Type().Elem()))
			}
			v = v.Elem()
		}
		if name != "" {
			name += "."
		}
		name += v.Type().Field(i).Name
		v = v.Field(i)
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		panic("setLeaf: unhandled kind " + v.Kind().String())
	}
	return name
}
