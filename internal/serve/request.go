package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"reflect"
	"sort"
	"strconv"

	"cnnrev/internal/accel"
	"cnnrev/internal/core"
	"cnnrev/internal/corrupt"
	"cnnrev/internal/defense"
	"cnnrev/internal/experiments"
	"cnnrev/internal/nn"
	"cnnrev/internal/structrev"
)

// attackRequest is one job's complete input, and the service's only request
// schema. The simulate endpoint's JSON body fills it through the json tags;
// the trace endpoint's query string fills it through the query tags
// (bindQuery), which carry each parameter's query name. validate checks it
// for both modes, the job store carries its JSON encoding (encodeRequest),
// and the result-cache key is that same encoding (cacheKey), so a knob
// added here is parsed, checked, shipped to the worker and keyed at once.
type attackRequest struct {
	// Upload is set in trace mode only: the uploaded trace and what the §3
	// adversary knows besides it. A simulate body may not name it.
	Upload *uploadParams `json:"upload,omitempty"`

	// Simulate mode: the victim to build and capture.
	Model    string  `json:"model,omitempty"`
	DepthDiv int     `json:"depth_div,omitempty"`
	Filters  int     `json:"filters,omitempty"`
	ZeroFrac float64 `json:"zero_frac,omitempty"`
	// Seed seeds the victim's weights and capture input. The simulate
	// handler writes the default 2 before decoding, so an omitted seed is
	// seed 2 while an explicit 0 stays a distinct victim.
	Seed    int64 `json:"seed,omitempty"`
	Weights bool  `json:"weights,omitempty"`

	Classes       int     `json:"classes,omitempty" query:"classes"`
	Modular       bool    `json:"modular,omitempty" query:"modular"`
	Tol           float64 `json:"tol,omitempty" query:"tol"`
	AllowStrideOK bool    `json:"allow_stride_over_kernel,omitempty" query:"allow_stride_over_kernel"`
	// MaxStructures is the request's solver cap until submit replaces it
	// with the effective cap (solverCap), which workers then take as given.
	MaxStructures int `json:"max_structures,omitempty" query:"max_structures"`
	MaxReturn     int `json:"max_return,omitempty" query:"max_return"`
	// TimeoutMS asks for a deadline below the server's -timeout; it is the
	// one field the cache key ignores.
	TimeoutMS int `json:"timeout_ms,omitempty" query:"timeout_ms"`

	// Tolerant forces the noise-tolerant analysis even on a clean trace;
	// Corrupt degrades the trace before analysis and implies Tolerant.
	Tolerant bool           `json:"tolerant,omitempty" query:"tolerant"`
	Corrupt  corrupt.Config `json:"corrupt"`
	// Defense applies a defensive transform to the trace before any
	// adversary-side stage.
	Defense defenseParams `json:"defense"`
	// Rank, when set, ranks the candidates by short training.
	Rank *rankParams `json:"rank,omitempty" query:"rank"`
	// Dataflow is the accelerator schedule: the capture backend in simulate
	// mode, the adversary's declared prior in trace mode. validate
	// canonicalizes its spelling.
	Dataflow string `json:"dataflow,omitempty" query:"dataflow"`
}

// uploadParams is the trace endpoint's input: the serialized upload, its
// SHA-256 (which stands in for the trace in the cache key), and the input
// geometry, element size and class count the adversary declares. Raw is
// the upload exactly as received, which the strict decoder accepts only
// in its canonical encoding; it travels behind the JSON in the job
// payload, and the worker decodes it once.
type uploadParams struct {
	Raw    []byte `json:"-"`
	SHA256 string `json:"sha256"`
	InW    int    `json:"inw" query:"inw"`
	InD    int    `json:"ind" query:"ind"`
	Elem   int    `json:"elem" query:"elem"`
}

// rankParams is the wire shape of core.RankConfig, which also carries the
// runner and serial switch no client sets.
type rankParams struct {
	Classes       int   `json:"classes" query:"rank_classes"`
	PerClass      int   `json:"per_class" query:"rank_per_class"`
	Epochs        int   `json:"epochs" query:"rank_epochs"`
	DepthDiv      int   `json:"depth_div" query:"rank_depth_div"`
	TopK          int   `json:"top_k"`
	Seed          int64 `json:"seed" query:"rank_seed"`
	MaxCandidates int   `json:"max_candidates" query:"rank_max_candidates"`

	// Successive-halving tournament knobs; the zero values select the flat
	// schedule.
	Halving   bool `json:"halving" query:"rank_halving"`
	Eta       int  `json:"eta" query:"rank_eta"`
	MinEpochs int  `json:"min_epochs" query:"rank_min_epochs"`
}

func (p *rankParams) config() core.RankConfig {
	return core.RankConfig{
		Classes: p.Classes, PerClass: p.PerClass, Epochs: p.Epochs, DepthDiv: p.DepthDiv,
		TopK: p.TopK, Seed: p.Seed, MaxCandidates: p.MaxCandidates,
		Halving: p.Halving, Eta: p.Eta, MinEpochs: p.MinEpochs,
	}
}

// defenseParams is the wire shape of defense.Config: the ORAM knobs are
// flattened, and the ORAM seed always inherits Seed.
type defenseParams struct {
	Kind           string  `json:"kind" query:"defense"`
	Seed           int64   `json:"seed" query:"defense_seed"`
	DummyRate      float64 `json:"dummy_rate" query:"defense_dummy_rate"`
	BucketBytes    int     `json:"bucket_bytes" query:"defense_bucket_bytes"`
	OnChipBytes    int64   `json:"onchip_bytes" query:"defense_onchip_bytes"`
	ORAMZ          int     `json:"oram_z" query:"defense_oram_z"`
	ORAMBlockBytes int     `json:"oram_block_bytes" query:"defense_oram_block"`
}

func (p *defenseParams) config() defense.Config {
	cfg := defense.Config{
		Kind: p.Kind, Seed: p.Seed, DummyRate: p.DummyRate,
		BucketBytes: p.BucketBytes, OnChipBytes: p.OnChipBytes,
	}
	cfg.ORAM.Z = p.ORAMZ
	cfg.ORAM.BlockBytes = p.ORAMBlockBytes
	return cfg
}

// submitOptions are the query parameters that steer a submission rather
// than the attack, accepted by both endpoints.
type submitOptions struct {
	// Wait (default true) blocks until the job finishes; false returns 202
	// with a job handle.
	Wait bool `query:"wait"`
	// CacheBypass skips the result-cache lookup; the fresh result still
	// refreshes the stored entry.
	CacheBypass bool `query:"cache_bypass"`
}

// mode is "trace" for an uploaded trace, "simulate" for a victim spec.
func (r *attackRequest) mode() string {
	if r.Upload != nil {
		return "trace"
	}
	return "simulate"
}

// validate checks a bound request for its mode. It is the single gate both
// endpoints pass before anything is enqueued, and it canonicalizes
// Dataflow so every spelling of one schedule shares a cache key. Every
// float must be finite: the job store and the cache key are JSON.
func (r *attackRequest) validate() error {
	if up := r.Upload; up != nil {
		switch {
		case up.InW <= 0 || up.InW > 1<<14:
			return fmt.Errorf("trace attack requires 0 < inw <= %d (input width)", 1<<14)
		case up.InD <= 0 || up.InD > 1<<12:
			return fmt.Errorf("trace attack requires 0 < ind <= %d (input channels)", 1<<12)
		case r.Classes <= 0 || r.Classes > 1<<20:
			return fmt.Errorf("trace attack requires 0 < classes <= %d", 1<<20)
		case up.Elem <= 0 || up.Elem > 64:
			return fmt.Errorf("elem must be in [1,64] bytes, got %d", up.Elem)
		}
	} else {
		if r.Model == "" {
			return fmt.Errorf("missing model")
		}
		// The §4 weight-attack victim is built from filters, zero_frac and
		// seed; see buildVictim.
		if r.Model != "prunedconv1" && !nn.IsModel(r.Model) {
			return fmt.Errorf("unknown model %q", r.Model)
		}
		if math.IsNaN(r.ZeroFrac) || math.IsInf(r.ZeroFrac, 0) {
			return fmt.Errorf("zero_frac must be finite, got %g", r.ZeroFrac)
		}
	}
	if err := nonNegative("", map[string]int{
		"classes": r.Classes, "depth_div": r.DepthDiv, "filters": r.Filters,
		"max_structures": r.MaxStructures, "max_return": r.MaxReturn, "timeout_ms": r.TimeoutMS,
	}); err != nil {
		return err
	}
	if !(r.Tol >= 0) || math.IsInf(r.Tol, 0) {
		return fmt.Errorf("tol must be a finite number >= 0, got %g", r.Tol)
	}
	if err := r.Corrupt.Validate(); err != nil {
		return err
	}
	if err := r.Defense.validate(); err != nil {
		return err
	}
	if r.Rank != nil {
		if err := r.Rank.validate(); err != nil {
			return err
		}
	}
	df, err := accel.ParseDataflow(r.Dataflow)
	if err != nil {
		return err
	}
	r.Dataflow = df.String()
	return nil
}

// nonNegative rejects the first negative count, in name order.
func nonNegative(prefix string, counts map[string]int) error {
	names := make([]string, 0, len(counts))
	for name, v := range counts {
		if v < 0 {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return nil
	}
	sort.Strings(names)
	return fmt.Errorf("%s%s must be >= 0, got %d", prefix, names[0], counts[names[0]])
}

// validate bounds the defense knobs. Knobs belonging to a defense other
// than the selected one are rejected rather than ignored: a silent no-op
// would still mint a distinct result-cache key and return an undefended
// result under defense-looking parameters.
func (p *defenseParams) validate() error {
	cfg := p.config()
	if err := cfg.Validate(); err != nil {
		return err
	}
	if !cfg.Enabled() {
		if *p != (defenseParams{Kind: p.Kind}) {
			return fmt.Errorf("defense_* knobs require a defense kind (one of %v)", defense.Kinds[1:])
		}
		return nil
	}
	switch {
	case p.DummyRate != 0 && cfg.Kind != "dummy":
		return fmt.Errorf("defense_dummy_rate applies to defense=dummy, not %q", cfg.Kind)
	case p.BucketBytes != 0 && cfg.Kind != "pad":
		return fmt.Errorf("defense_bucket_bytes applies to defense=pad, not %q", cfg.Kind)
	case p.OnChipBytes != 0 && cfg.Kind != "fuse":
		return fmt.Errorf("defense_onchip_bytes applies to defense=fuse, not %q", cfg.Kind)
	case (p.ORAMZ != 0 || p.ORAMBlockBytes != 0) && cfg.Kind != "oram":
		return fmt.Errorf("defense_oram_* apply to defense=oram, not %q", cfg.Kind)
	}
	return nil
}

// validate bounds the tournament knobs. A negative count would flow
// silently into the trainer, and eta/min_epochs without halving would be a
// silent no-op under a distinct cache key; both are rejected.
func (p *rankParams) validate() error {
	if err := nonNegative("rank ", map[string]int{
		"classes": p.Classes, "per_class": p.PerClass, "epochs": p.Epochs,
		"depth_div": p.DepthDiv, "top_k": p.TopK, "max_candidates": p.MaxCandidates,
	}); err != nil {
		return err
	}
	if p.Eta < 0 || p.Eta > 64 {
		return fmt.Errorf("rank eta must be in [0,64], got %d", p.Eta)
	}
	if p.MinEpochs < 0 || p.MinEpochs > 1<<20 {
		return fmt.Errorf("rank min_epochs must be in [0,%d], got %d", 1<<20, p.MinEpochs)
	}
	if !p.Halving && (p.Eta != 0 || p.MinEpochs != 0) {
		return fmt.Errorf("rank eta/min_epochs require halving=true")
	}
	return nil
}

// cacheKey is the content-addressed result-cache key: the canonical JSON
// of the validated request, whose upload is keyed by its SHA-256. submit
// has already resolved MaxStructures to the effective cap, so a server
// restarted with a different -max-structures never replays a result
// computed under the old bound. The timeout is left out: only complete
// results are cached, and a complete result is valid under any deadline.
func (r *attackRequest) cacheKey() string {
	k := *r
	k.TimeoutMS = 0
	b, err := json.Marshal(&k)
	if err != nil {
		panic("serve: validated request does not marshal: " + err.Error())
	}
	return "v4|" + string(b)
}

// solverOptions maps the request onto the solver's options. MaxStructures
// is the effective cap submit resolved on the frontend, taken as given so
// that every worker solves under the submitting frontend's bound.
func (r *attackRequest) solverOptions() structrev.Options {
	opt := structrev.DefaultOptions()
	opt.IdenticalModules = r.Modular
	opt.AllowStrideOverKernel = r.AllowStrideOK
	if r.Tol > 0 {
		opt.TimingSpreadMax = r.Tol
	}
	opt.MaxStructures = r.MaxStructures
	return opt
}

// dataflow returns the schedule. The error is dropped because validate has
// already parsed and canonicalized the spelling.
func (r *attackRequest) dataflow() accel.Dataflow {
	df, _ := accel.ParseDataflow(r.Dataflow)
	return df
}

// runs reports whether a worker runs stage for this request. Decode runs
// on the frontend, capture only in simulate mode, and defense and corrupt
// only when enabled.
func (r *attackRequest) runs(stage string) bool {
	switch stage {
	case "decode":
		return false
	case "capture":
		return r.Upload == nil
	case "defense":
		return r.Defense.config().Enabled()
	case "corrupt":
		return r.Corrupt.Enabled()
	}
	return true
}

// buildVictim constructs the simulate-mode victim with its weights set.
func buildVictim(r *attackRequest) (*nn.Network, error) {
	if r.Model == "prunedconv1" {
		// A first layer the corner-iteration algorithm can reach (unpooled,
		// unpadded conv), arriving with its magnitude-pruned weights set.
		zeroFrac := r.ZeroFrac
		if zeroFrac <= 0 || zeroFrac >= 1 {
			zeroFrac = 0.25
		}
		return experiments.PrunedConv1(r.Filters, zeroFrac, r.Seed), nil
	}
	net, err := nn.Model(r.Model, r.Classes, r.DepthDiv)
	if err != nil {
		return nil, err
	}
	net.InitWeights(r.Seed)
	return net, nil
}

// bindQuery fills the query-tagged fields of each dst, a pointer to a
// struct, from q. A name no dst declares is an error, as is a value its
// field's type cannot hold; an empty value keeps the field's default. A
// pointer-to-struct field with its own tag (rank) is a switch: a true value
// allocates it, and the fields inside may only be given when it is on.
func bindQuery(q url.Values, dsts ...any) error {
	known := map[string]bool{}
	for _, dst := range dsts {
		queryNames(reflect.TypeOf(dst).Elem(), known)
	}
	names := make([]string, 0, len(q))
	for name := range q {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !known[name] {
			return fmt.Errorf("unknown query parameter %q", name)
		}
	}
	for _, dst := range dsts {
		if _, err := bindStruct(reflect.ValueOf(dst).Elem(), q); err != nil {
			return err
		}
	}
	return nil
}

// queryNames adds the query names declared in struct type t to names.
func queryNames(t reflect.Type, names map[string]bool) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if name := f.Tag.Get("query"); name != "" {
			names[name] = true
		}
		ft := f.Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct && f.IsExported() {
			queryNames(ft, names)
		}
	}
}

// bindStruct binds q into struct v and returns the first query name it
// found a value for, "" if none.
func bindStruct(v reflect.Value, q url.Values) (given string, err error) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f, fv := t.Field(i), v.Field(i)
		if !f.IsExported() {
			continue
		}
		name := f.Tag.Get("query")
		var inner string
		switch {
		case fv.Kind() == reflect.Struct:
			inner, err = bindStruct(fv, q)
		case fv.Kind() == reflect.Pointer && fv.Type().Elem().Kind() == reflect.Struct:
			inner, err = bindPointer(fv, name, q)
		case name != "" && q.Get(name) != "":
			inner, err = name, parseInto(fv, name, q.Get(name))
		}
		if err != nil {
			return "", err
		}
		if given == "" {
			given = inner
		}
	}
	return given, nil
}

// bindPointer binds q into the struct fv points to. A tagged pointer is a
// switch: true allocates it, and its fields may only be given when it is
// on. An untagged one is bound in place, allocated if q gives any of its
// fields.
func bindPointer(fv reflect.Value, name string, q url.Values) (string, error) {
	on := !fv.IsNil()
	if name != "" {
		var err error
		if on, err = parseBool(name, q.Get(name)); err != nil {
			return "", err
		}
	}
	target := fv
	if fv.IsNil() {
		target = reflect.New(fv.Type().Elem())
	}
	given, err := bindStruct(target.Elem(), q)
	switch {
	case err != nil:
		return "", err
	case name != "" && !on && given != "":
		return "", fmt.Errorf("%s requires %s=true", given, name)
	case on || given != "":
		fv.Set(target)
	}
	return given, nil
}

// parseInto parses a non-empty query value into fv by its kind.
func parseInto(fv reflect.Value, name, s string) error {
	var err error
	switch fv.Kind() {
	case reflect.Bool:
		b, err := parseBool(name, s)
		fv.SetBool(b)
		return err
	case reflect.Int, reflect.Int64:
		var n int64
		if n, err = strconv.ParseInt(s, 10, fv.Type().Bits()); err == nil {
			fv.SetInt(n)
		}
	case reflect.Float64:
		var x float64
		if x, err = strconv.ParseFloat(s, 64); err == nil {
			fv.SetFloat(x)
		}
	case reflect.String:
		fv.SetString(s)
	default:
		panic("serve: unsupported query field kind " + fv.Kind().String())
	}
	if err != nil {
		return fmt.Errorf("bad %s=%q", name, s)
	}
	return nil
}

// parseBool parses a boolean query value. Values outside the vocabulary are
// an error, not false: silently coercing tolerant=ture to false would run
// the wrong attack under a 200 response.
func parseBool(name, s string) (bool, error) {
	switch s {
	case "", "0", "false", "no":
		return false, nil
	case "1", "true", "yes":
		return true, nil
	}
	return false, fmt.Errorf("bad %s=%q (want one of 0/1/true/false/yes/no)", name, s)
}
