package main

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"
)

// promSet is one scrape of a Prometheus text exposition, keyed by series:
// the metric name followed by its labels sorted by name, e.g.
// `revcnnd_stage_seconds_sum{stage="decode"}`. Parsing is tolerant: lines
// it cannot read are counted and skipped, and a series the server no
// longer exports is simply absent from the set.
type promSet struct {
	series map[string]float64
	bad    int // unparseable sample lines
}

func parseProm(r io.Reader) (*promSet, error) {
	p := &promSet{series: map[string]float64{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := parsePromLine(line)
		if !ok {
			p.bad++
			continue
		}
		p.series[key] = val
	}
	return p, sc.Err()
}

// parsePromLine splits `name{labels} value [timestamp]` into a canonical
// series key and its value.
func parsePromLine(line string) (string, float64, bool) {
	name, rest := line, ""
	var labels []string
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return "", 0, false
		}
		name, rest = line[:i], line[j+1:]
		var ok bool
		if labels, ok = splitLabels(line[i+1 : j]); !ok {
			return "", 0, false
		}
	} else if i := strings.IndexAny(line, " \t"); i >= 0 {
		name, rest = line[:i], line[i:]
	} else {
		return "", 0, false
	}
	fields := strings.Fields(rest)
	if name == "" || len(fields) == 0 {
		return "", 0, false
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", 0, false
	}
	return seriesKey(name, labels...), v, true
}

// splitLabels parses `a="x",b="y"` into sorted `a="x"` pairs, honoring
// escaped quotes inside values.
func splitLabels(s string) ([]string, bool) {
	var out []string
	for s = strings.TrimSpace(s); s != ""; s = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(s), ",")) {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, false
		}
		end := -1
		for k := eq + 2; k < len(s); k++ {
			if s[k] == '\\' {
				k++
				continue
			}
			if s[k] == '"' {
				end = k
				break
			}
		}
		if end < 0 {
			return nil, false
		}
		out = append(out, strings.TrimSpace(s[:eq])+"="+s[eq+1:end+1])
		s = s[end+1:]
	}
	return out, true
}

// seriesKey builds the canonical key from a name and `k="v"` labels.
func seriesKey(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	l := append([]string(nil), labels...)
	sort.Strings(l)
	return name + "{" + strings.Join(l, ",") + "}"
}

// get returns one series' value and whether it was exported.
func (p *promSet) get(name string, labels ...string) (float64, bool) {
	if p == nil {
		return 0, false
	}
	v, ok := p.series[seriesKey(name, labels...)]
	return v, ok
}

// delta returns after − before for one series; ok is false when either
// scrape lacks it.
func promDelta(before, after *promSet, name string, labels ...string) (float64, bool) {
	a, ok1 := after.get(name, labels...)
	b, ok2 := before.get(name, labels...)
	return a - b, ok1 && ok2
}
