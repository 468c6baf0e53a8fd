package structrev

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
)

// SolvedLayer pairs a segment with a structural hypothesis (nil for
// element-wise segments, which carry no parameters).
type SolvedLayer struct {
	Segment int
	Kind    SegmentKind
	Config  *LayerConfig
}

// Structure is one complete candidate network structure: a consistent
// assignment of configurations to every segment (Algorithm 1 step 5).
type Structure struct {
	Layers []SolvedLayer
}

// WeightedConfigs returns the configs of the weighted (conv/FC) layers in
// execution order.
func (s *Structure) WeightedConfigs() []LayerConfig {
	var out []LayerConfig
	for _, l := range s.Layers {
		if l.Config != nil {
			out = append(out, *l.Config)
		}
	}
	return out
}

// moduleRole identifies a repeated-module role for the IdenticalModules
// assumption: fire-module squeeze and the two expand positions.
type moduleRole int

const (
	roleNone moduleRole = iota
	roleSqueeze
	roleExpandLo
	roleExpandHi
)

// detectModules marks fire-module roles: a weighted segment feeding exactly
// two weighted segments whose outputs are DRAM-adjacent (a depth concat) is
// a squeeze; the two consumers are expand-lo/expand-hi by address order.
func detectModules(a *Analysis) []moduleRole {
	roles := make([]moduleRole, len(a.Segments))
	consumers := make([][]int, len(a.Segments))
	for i := range a.Segments {
		for _, in := range a.Segments[i].Inputs {
			if in.Producer >= 0 {
				consumers[in.Producer] = append(consumers[in.Producer], i)
			}
		}
	}
	for i := range a.Segments {
		if a.Segments[i].Kind != SegWeighted {
			continue
		}
		var w []int
		for _, c := range consumers[i] {
			if a.Segments[c].Kind == SegWeighted {
				w = append(w, c)
			}
		}
		if len(w) != 2 {
			continue
		}
		r1, r2 := a.Segments[w[0]].OFMRegion, a.Segments[w[1]].OFMRegion
		if adjacentAddrs(r1.Hi, r2.Lo, a.AddrSlack) {
			roles[i] = roleSqueeze
			roles[w[0]] = roleExpandLo
			roles[w[1]] = roleExpandHi
		} else if adjacentAddrs(r2.Hi, r1.Lo, a.AddrSlack) {
			roles[i] = roleSqueeze
			roles[w[1]] = roleExpandLo
			roles[w[0]] = roleExpandHi
		}
	}
	return roles
}

// geometry is the instance-independent part of a configuration, shared
// across module instances under the IdenticalModules assumption.
type geometry struct {
	FC      bool
	F, S, P int
}

func geomOf(c *LayerConfig) geometry { return geometry{FC: c.FC, F: c.F, S: c.S, P: c.P} }

// dims is a feature-map shape hypothesis.
type dims struct{ W, D int }

// ErrTooManyStructures marks an enumeration aborted by Options.
// MaxStructures. Like a deadline, the abort returns the deterministic
// prefix enumerated so far alongside the (wrapped) sentinel.
var ErrTooManyStructures = errors.New("too many candidate structures")

// Solve enumerates every complete network structure consistent with the
// analysis, the known input (inW×inW×inD) and output (classes), the
// constraint system, and the execution-time filter.
func Solve(a *Analysis, inW, inD, classes int, opt Options) ([]Structure, error) {
	return SolveCtx(context.Background(), a, inW, inD, classes, opt)
}

// SolveCtx is Solve with cooperative cancellation: the chaining recursion
// checks ctx at every segment node it visits, so a cancelled solve stops
// within one candidate-assignment step. On cancellation it returns the
// structures fully enumerated so far together with ctx.Err() — a
// deterministic prefix of the complete enumeration — so callers can serve a
// partial result against a deadline.
func SolveCtx(ctx context.Context, a *Analysis, inW, inD, classes int, opt Options) ([]Structure, error) {
	if opt.TimingSpreadMax == 0 {
		opt.TimingSpreadMax = 1.35
	}
	if opt.MaxPoolF == 0 {
		opt.MaxPoolF = 4
	}
	if opt.MaxConvF == 0 {
		opt.MaxConvF = 13
	}
	if opt.MaxStructures == 0 {
		opt.MaxStructures = 100000
	}
	elem := a.ElemBytes
	if opt.SizeSlackElems == 0 && a.BlockBytes > elem {
		// Coarse transactions round region extents up to whole blocks.
		opt.SizeSlackElems = a.BlockBytes/elem - 1
	}
	slackB := opt.SizeSlackElems * elem
	if opt.SizeSlackUpFrac == 0 && a.Noise.WriteHoleFrac > 0 {
		// Dropped write transactions make observed sizes undershoot the true
		// ones; widen upward in proportion to the measured hole fraction
		// (×3 head-room for per-region variance around the mean). A clean
		// trace measures zero holes and keeps the exact constraints.
		opt.SizeSlackUpFrac = math.Min(0.5, 3*a.Noise.WriteHoleFrac)
	}
	if want := inW * inW * inD * elem; int(a.InputRegion.Bytes()) > want+slackB || int(a.InputRegion.Bytes()) < want*3/4 {
		return nil, fmt.Errorf("structrev: input region %d bytes does not match declared input %dx%dx%d", a.InputRegion.Bytes(), inW, inW, inD)
	}

	var roles []moduleRole
	if opt.IdenticalModules {
		roles = detectModules(a)
	} else {
		roles = make([]moduleRole, len(a.Segments))
	}

	// Candidate cache per (segment, input dims).
	type cacheKey struct {
		seg int
		in  dims
	}
	candCache := map[cacheKey][]LayerConfig{}
	candidatesFor := func(si int, in dims) []LayerConfig {
		key := cacheKey{si, in}
		if c, ok := candCache[key]; ok {
			return c
		}
		seg := &a.Segments[si]
		isLast := si == len(a.Segments)-1
		c := EnumerateLayer(in.W, in.D,
			int(seg.OFMBytes)/elem, int(seg.WeightsBytes)/elem,
			isLast, classes, opt)
		candCache[key] = c
		return c
	}

	var results []Structure
	out := make([]dims, len(a.Segments))
	chosen := make([]*LayerConfig, len(a.Segments))
	geomChosen := map[moduleRole]*geometry{}

	var rec func(si int, t timingWindow) error
	rec = func(si int, t timingWindow) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if si == len(a.Segments) {
			st := Structure{}
			for i := range a.Segments {
				sl := SolvedLayer{Segment: i, Kind: a.Segments[i].Kind}
				if chosen[i] != nil {
					c := *chosen[i]
					sl.Config = &c
				}
				st.Layers = append(st.Layers, sl)
			}
			if len(results) == opt.MaxStructures {
				return fmt.Errorf("structrev: more than %d candidate structures; aborting: %w", opt.MaxStructures, ErrTooManyStructures)
			}
			results = append(results, st)
			return nil
		}
		seg := &a.Segments[si]

		// Resolve input dims from producers.
		in, ok := inputDims(a, si, out, inW, inD)
		if !ok {
			return nil // inconsistent branch
		}

		if seg.Kind == SegEltwise {
			// Element-wise addition: all inputs must agree and the output
			// must have the same size (up to block rounding upward, and up
			// to the drop-induced undershoot downward).
			want := in.W * in.W * in.D * elem
			if int(seg.OFMBytes) < want-sizeUp(want, opt.SizeSlackUpFrac) || int(seg.OFMBytes) > want+slackB {
				return nil
			}
			out[si] = in
			return rec(si+1, t)
		}

		role := roles[si]
		for _, cand := range candidatesFor(si, in) {
			cand := cand
			if role != roleNone {
				g := geomOf(&cand)
				if cur := geomChosen[role]; cur != nil && *cur != g {
					continue
				}
				var restore *geometry
				if geomChosen[role] == nil {
					geomChosen[role] = &g
					restore = nil
				} else {
					restore = geomChosen[role]
				}
				nt, okT := timingCheck(t, seg, &cand, opt)
				if okT {
					chosen[si] = &cand
					out[si] = dims{cand.WOFM, cand.DOFM}
					if err := rec(si+1, nt); err != nil {
						return err
					}
					chosen[si] = nil
				}
				if restore == nil {
					delete(geomChosen, role)
				}
				continue
			}
			nt, okT := timingCheck(t, seg, &cand, opt)
			if !okT {
				continue
			}
			chosen[si] = &cand
			out[si] = dims{cand.WOFM, cand.DOFM}
			if err := rec(si+1, nt); err != nil {
				return err
			}
			chosen[si] = nil
		}
		return nil
	}
	if err := rec(0, timingWindow{}); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
			errors.Is(err, ErrTooManyStructures) {
			return results, err // partial prefix
		}
		return nil, err
	}
	return results, nil
}

// inputDims derives the input dimensions of segment si from its producers'
// chosen output dims. DRAM-adjacent producers are first folded into
// concatenation units (widths equal, depths add); the resulting units then
// combine as an element-wise merge (all equal) or a further concatenated
// read (depths add) depending on the segment kind.
func inputDims(a *Analysis, si int, out []dims, inW, inD int) (dims, bool) {
	seg := &a.Segments[si]
	if len(seg.Inputs) == 0 {
		return dims{}, false
	}
	// Fold adjacent runs into units.
	var units []dims
	for _, in := range seg.Inputs {
		var d dims
		if in.Producer < 0 {
			d = dims{inW, inD}
		} else {
			d = out[in.Producer]
		}
		if in.Adjacent && len(units) > 0 {
			last := &units[len(units)-1]
			if last.W != d.W {
				return dims{}, false
			}
			last.D += d.D
			continue
		}
		units = append(units, d)
	}
	cur := units[0]
	for _, d := range units[1:] {
		if d.W != cur.W {
			return dims{}, false
		}
		if seg.Kind == SegEltwise {
			if d.D != cur.D {
				return dims{}, false
			}
		} else {
			cur.D += d.D // concatenated read
		}
	}
	return cur, true
}

// timingWindow tracks the running min/max cycles-per-MAC over the conv
// layers of a partially assembled structure.
type timingWindow struct{ lo, hi float64 }

// timingCheck folds a candidate's cycles-per-MAC into the running spread and
// reports whether the structure remains plausible. FC layers are excluded:
// they are memory-bound, and their configurations are unique anyway.
func timingCheck(t timingWindow, seg *Segment, c *LayerConfig, opt Options) (timingWindow, bool) {
	if c.FC {
		return t, true
	}
	macs := c.MACs()
	if macs <= 0 {
		return t, false
	}
	alpha := float64(seg.Cycles()) / float64(macs)
	if t.lo == 0 {
		return timingWindow{alpha, alpha}, true
	}
	lo, hi := t.lo, t.hi
	if alpha < lo {
		lo = alpha
	}
	if alpha > hi {
		hi = alpha
	}
	if hi/lo > opt.TimingSpreadMax {
		return t, false
	}
	return timingWindow{lo, hi}, true
}

// UniqueConfigs returns, for each weighted segment, the distinct
// configurations appearing across the given structures — the per-layer view
// of paper Table 4 — each segment's ordered by their String form. The
// strings are computed once per distinct configuration, not per
// comparison.
func UniqueConfigs(a *Analysis, structures []Structure) map[int][]LayerConfig {
	res := map[int][]LayerConfig{}
	seen := map[int]map[LayerConfig]bool{}
	for _, st := range structures {
		for _, l := range st.Layers {
			if l.Config == nil {
				continue
			}
			if seen[l.Segment] == nil {
				seen[l.Segment] = map[LayerConfig]bool{}
			}
			if !seen[l.Segment][*l.Config] {
				seen[l.Segment][*l.Config] = true
				res[l.Segment] = append(res[l.Segment], *l.Config)
			}
		}
	}
	for _, cfgs := range res {
		keyed := configsByString{cfgs: cfgs, keys: make([]string, len(cfgs))}
		for i := range cfgs {
			keyed.keys[i] = cfgs[i].String()
		}
		sort.Sort(keyed)
	}
	return res
}

// configsByString sorts configurations by their precomputed String forms.
// sort.Sort runs the same pdqsort as sort.Slice, so equal keys end in the
// order a sort.Slice on the strings would leave them.
type configsByString struct {
	cfgs []LayerConfig
	keys []string
}

func (c configsByString) Len() int           { return len(c.cfgs) }
func (c configsByString) Less(i, j int) bool { return c.keys[i] < c.keys[j] }
func (c configsByString) Swap(i, j int) {
	c.cfgs[i], c.cfgs[j] = c.cfgs[j], c.cfgs[i]
	c.keys[i], c.keys[j] = c.keys[j], c.keys[i]
}
