// Package serve is the simulation-as-a-service layer: a stdlib net/http
// daemon (cmd/dwsimd) that accepts simulation and sweep jobs as validated
// JSON, deduplicates them through the singleflight report.Session,
// executes them on a bounded worker pool, and streams observability
// events and timeline samples for in-flight traced runs over SSE.
//
// Wire format. Jobs arrive as JobRequest documents whose knob vector
// (WireKnobs) mirrors report.Knobs field for field — the mirror is
// reflection-guarded by TestWireKnobsMirrorsKnobs, so a knob added to the
// simulator cannot silently become unreachable over the wire. Decoding is
// strict (unknown fields and trailing garbage rejected, schema version
// pinned) and every failure maps to a 4xx status via *Error; the decoder
// is fuzzed (FuzzJobDecode) and must never panic.
//
// Determinism. The server adds no nondeterminism of its own: job IDs are
// a logical sequence (j001, j002, ...), result keys are content digests
// of the canonical point encoding, result documents are rendered exactly
// like a local Session.Run would render them (byte-identical — the e2e
// tests diff the bytes), and the package never reads the wall clock (the
// dwslint wallclock check applies here too).
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/internal/wpu"
)

// WireSchemaVersion pins the request layout. Requests carrying any other
// version are rejected with 400 before validation, so schema skew between
// old clients and a new server fails loudly instead of misconfiguring a
// simulation.
const WireSchemaVersion = 1

// Error is a request-rejection error carrying the HTTP status it maps to.
// Every path out of DecodeJobRequest returns one, so handlers can blindly
// write e.Status without classifying error strings.
type Error struct {
	Status int // 4xx
	Msg    string
}

func (e *Error) Error() string { return e.Msg }

func badRequest(format string, args ...any) *Error {
	return &Error{Status: http.StatusBadRequest, Msg: fmt.Sprintf(format, args...)}
}

// WireKnobs is the JSON mirror of report.Knobs. Zero values select the
// same defaults the CLI flags do (Table 3), so a minimal request like
// {"bench":"Merge","knobs":{"scheme":"DWS.ReviveSplit"}} denotes exactly
// the configuration `dwsim -bench Merge -scheme DWS.ReviveSplit` runs,
// and two requests spelling the same point differently dedupe onto one
// cache key.
type WireKnobs struct {
	WPUs    int    `json:"wpus,omitempty"`
	Width   int    `json:"width,omitempty"`
	Warps   int    `json:"warps,omitempty"`
	Slots   int    `json:"slots,omitempty"`
	WST     int    `json:"wst,omitempty"`
	L1KB    int    `json:"l1kb,omitempty"`
	L1Assoc int    `json:"l1assoc,omitempty"`
	L2KB    int    `json:"l2kb,omitempty"`
	L2Lat   int    `json:"l2lat,omitempty"`
	Scheme  string `json:"scheme,omitempty"`
	Dist    string `json:"dist,omitempty"` // "", "block", or "interleave"
	Scale   int    `json:"scale,omitempty"`

	NoWaitMerge  bool `json:"no_wait_merge,omitempty"`
	NoProgSched  bool `json:"no_prog_sched,omitempty"`
	NoMemHints   bool `json:"no_mem_hints,omitempty"`
	BranchThresh int  `json:"branch_thresh,omitempty"`
}

// wireDefaults are the zero-value substitutions Knobs applies, one per
// field where 0 is not already the Table 3 default in report.Knobs
// (there, WPUs/Slots/L1Assoc/Scale/BranchThresh treat 0 as the default
// downstream).
var wireDefaults = WireKnobs{
	Width: 16, Warps: 4, WST: 16, L1KB: 32, L1Assoc: 8, L2KB: 4096, L2Lat: 30,
}

// Knobs expands the wire form into the simulator's knob vector, applying
// the CLI defaults for zero-valued fields. It does not validate — see
// (*JobRequest).Validate — so round-tripping arbitrary vectors stays
// total.
func (w WireKnobs) Knobs() report.Knobs {
	pick := func(v, def int) int {
		if v == 0 {
			return def
		}
		return v
	}
	k := report.Knobs{
		WPUs:    w.WPUs,
		Width:   pick(w.Width, wireDefaults.Width),
		Warps:   pick(w.Warps, wireDefaults.Warps),
		Slots:   w.Slots,
		WST:     pick(w.WST, wireDefaults.WST),
		L1KB:    pick(w.L1KB, wireDefaults.L1KB),
		L1Assoc: pick(w.L1Assoc, wireDefaults.L1Assoc),
		L2KB:    pick(w.L2KB, wireDefaults.L2KB),
		L2Lat:   pick(w.L2Lat, wireDefaults.L2Lat),
		Scheme:  wpu.Scheme(w.Scheme),
		Scale:   w.Scale,

		NoWaitMerge:  w.NoWaitMerge,
		NoProgSched:  w.NoProgSched,
		NoMemHints:   w.NoMemHints,
		BranchThresh: w.BranchThresh,
	}
	if w.Dist == "interleave" {
		k.Dist = sim.DistInterleave
	}
	return k
}

// FromKnobs is the inverse mirror: it renders a simulator knob vector in
// wire form such that FromKnobs(k).Knobs() == k for every valid k (the
// reflection test walks all fields).
func FromKnobs(k report.Knobs) WireKnobs {
	w := WireKnobs{
		WPUs: k.WPUs, Width: k.Width, Warps: k.Warps, Slots: k.Slots, WST: k.WST,
		L1KB: k.L1KB, L1Assoc: k.L1Assoc, L2KB: k.L2KB, L2Lat: k.L2Lat,
		Scheme: string(k.Scheme), Scale: k.Scale,
		NoWaitMerge: k.NoWaitMerge, NoProgSched: k.NoProgSched,
		NoMemHints: k.NoMemHints, BranchThresh: k.BranchThresh,
	}
	if k.Dist == sim.DistInterleave {
		w.Dist = "interleave"
	}
	return w
}

// JobRequest is the POST /v1/jobs body.
type JobRequest struct {
	SchemaVersion int `json:"schema_version"`
	// Kind selects the job shape: "run" (default) simulates Bench under
	// Knobs; "sweep" crosses Benches × Schemes over the shared Knobs.
	Kind  string    `json:"kind,omitempty"`
	Bench string    `json:"bench,omitempty"`
	Knobs WireKnobs `json:"knobs"`

	// Sweep dimensions (kind == "sweep" only).
	Benches []string `json:"benches,omitempty"`
	Schemes []string `json:"schemes,omitempty"`

	// Trace forces a live run with the observability sink attached and
	// enables GET /v1/jobs/{id}/stream for this job (single-point runs
	// only). TraceEvery is the timeline sampling interval in cycles
	// (0 = 1000, the dwsim default).
	Trace      bool   `json:"trace,omitempty"`
	TraceEvery uint64 `json:"trace_every,omitempty"`
}

// maxJobBody bounds a request body: the largest legitimate sweep (all
// benchmarks × all schemes, every knob spelled out) is well under 4 KiB.
const maxJobBody = 1 << 16

// DecodeJobRequest reads and strictly validates one job request. Any
// returned error is a *serve.Error carrying a 4xx status; the function
// never panics on malformed input (FuzzJobDecode).
func DecodeJobRequest(r io.Reader) (*JobRequest, *Error) {
	// The +1 keeps the handler's MaxBytesReader (capped at exactly
	// maxJobBody) as the component that trips first, so oversized bodies
	// surface as 413 rather than a truncated-JSON 400; for direct callers
	// (fuzzing) this still bounds how much we will ever read.
	dec := json.NewDecoder(io.LimitReader(r, maxJobBody+1))
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return nil, &Error{Status: http.StatusRequestEntityTooLarge, Msg: "request body too large"}
		}
		return nil, badRequest("malformed job request: %v", err)
	}
	// A second document in the body is as suspect as an unknown field.
	if dec.More() {
		return nil, badRequest("trailing data after job request")
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// knownScheme reports whether s names one of the 13 named configurations
// (wpu.Scheme.Apply panics on anything else, so this is a hard gate).
func knownScheme(s string) bool {
	for _, sc := range wpu.AllSchemes {
		if string(sc) == s {
			return true
		}
	}
	return false
}

// validateKnobs bounds every numeric knob to the ranges the sweeps
// exercise, with headroom. The caps are not about simulator correctness —
// it would happily build a 1 GiB L1 — but about a public endpoint not
// accepting jobs whose memory or run time is unbounded.
func (w WireKnobs) validate() *Error {
	type bound struct {
		name string
		v    int
		max  int
	}
	for _, b := range []bound{
		{"wpus", w.WPUs, 64},
		{"width", w.Width, 64},
		{"warps", w.Warps, 64},
		{"slots", w.Slots, 256},
		{"wst", w.WST, 1024},
		{"l1kb", w.L1KB, 1024},
		{"l1assoc", w.L1Assoc, 64},
		{"l2kb", w.L2KB, 65536},
		{"l2lat", w.L2Lat, 10000},
		{"scale", w.Scale, 8},
		{"branch_thresh", w.BranchThresh, 64},
	} {
		if b.v < 0 || b.v > b.max {
			return badRequest("knobs.%s = %d out of range [0, %d]", b.name, b.v, b.max)
		}
	}
	if w.Scale != 0 { // 0 means the default scale
		if err := workloads.CheckScale(w.Scale); err != nil {
			return badRequest("knobs.scale: %v", err)
		}
	}
	switch w.Dist {
	case "", "block", "interleave":
	default:
		return badRequest("knobs.dist = %q (want block or interleave)", w.Dist)
	}
	return nil
}

// Validate checks the request against the schema: version pin, job shape,
// known benchmarks and schemes, bounded knobs.
func (r *JobRequest) Validate() *Error {
	if r.SchemaVersion != WireSchemaVersion {
		return badRequest("schema_version = %d, this server speaks %d", r.SchemaVersion, WireSchemaVersion)
	}
	if err := r.Knobs.validate(); err != nil {
		return err
	}
	switch r.Kind {
	case "", "run":
		if r.Bench == "" {
			return badRequest("run job: bench required")
		}
		if len(r.Benches) > 0 || len(r.Schemes) > 0 {
			return badRequest("run job: benches/schemes are sweep fields")
		}
		if _, err := workloads.ByName(r.Bench); err != nil {
			return badRequest("unknown bench %q", r.Bench)
		}
		if r.Knobs.Scheme == "" {
			return badRequest("run job: knobs.scheme required")
		}
		if !knownScheme(r.Knobs.Scheme) {
			return badRequest("unknown scheme %q", r.Knobs.Scheme)
		}
	case "sweep":
		if r.Trace {
			return badRequest("sweep jobs cannot be traced (stream a single run instead)")
		}
		if r.Bench != "" {
			return badRequest("sweep job: use benches, not bench")
		}
		if r.Knobs.Scheme != "" {
			return badRequest("sweep job: use schemes, not knobs.scheme")
		}
		if len(r.Benches) == 0 || len(r.Schemes) == 0 {
			return badRequest("sweep job: benches and schemes both required")
		}
		if len(r.Benches)*len(r.Schemes) > 1024 {
			return badRequest("sweep of %d points exceeds the 1024-point cap", len(r.Benches)*len(r.Schemes))
		}
		for _, b := range r.Benches {
			if _, err := workloads.ByName(b); err != nil {
				return badRequest("unknown bench %q", b)
			}
		}
		for _, s := range r.Schemes {
			if !knownScheme(s) {
				return badRequest("unknown scheme %q", s)
			}
		}
	default:
		return badRequest("kind = %q (want run or sweep)", r.Kind)
	}
	if r.Trace && r.TraceEvery > 1_000_000_000 {
		return badRequest("trace_every = %d out of range", r.TraceEvery)
	}
	if !r.Trace && r.TraceEvery != 0 {
		return badRequest("trace_every without trace")
	}
	return nil
}

// Points expands a validated request into its simulation points in
// deterministic order (benches outer, schemes inner — the sweep's
// presentation order).
func (r *JobRequest) Points() []report.Job {
	if r.Kind == "" || r.Kind == "run" {
		return []report.Job{{Bench: r.Bench, Knobs: r.Knobs.Knobs()}}
	}
	pts := make([]report.Job, 0, len(r.Benches)*len(r.Schemes))
	for _, b := range r.Benches {
		for _, s := range r.Schemes {
			wk := r.Knobs
			wk.Scheme = s
			pts = append(pts, report.Job{Bench: b, Knobs: wk.Knobs()})
		}
	}
	return pts
}
