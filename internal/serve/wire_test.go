package serve

import (
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/sim"
)

// TestWireKnobsMirrorsKnobs is the reflection guard promised by the
// package comment: every field of report.Knobs must survive the wire
// round trip FromKnobs(k).Knobs() == k. It mutates each field of a base
// vector in turn, so a knob added to the simulator but forgotten in
// WireKnobs (or in either conversion) fails here by name instead of
// silently becoming unreachable over the wire.
//
// The mirror identity holds for vectors whose defaulted fields are
// nonzero (the wire form spells zero as "use the CLI default"); the base
// is the expansion of an empty WireKnobs, which has exactly that shape.
func TestWireKnobsMirrorsKnobs(t *testing.T) {
	base := WireKnobs{}.Knobs()
	rt := reflect.TypeOf(report.Knobs{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		k := base
		fv := reflect.ValueOf(&k).Elem().Field(i)
		switch {
		case f.Type == reflect.TypeOf(sim.Distribution(0)):
			fv.Set(reflect.ValueOf(sim.DistInterleave))
		case f.Type.Kind() == reflect.Int:
			fv.SetInt(fv.Int() + 1)
		case f.Type.Kind() == reflect.Bool:
			fv.SetBool(true)
		case f.Type.Kind() == reflect.String: // wpu.Scheme
			fv.SetString("DWS.ReviveSplit")
		default:
			t.Fatalf("report.Knobs.%s has kind %s: teach the wire mirror (and this test) about it", f.Name, f.Type.Kind())
		}
		if got := FromKnobs(k).Knobs(); got != k {
			t.Errorf("mutating Knobs.%s does not survive the wire round trip:\n  want %#v\n  got  %#v", f.Name, k, got)
		}
	}
}

// TestWireKnobsJSONRoundTrip checks the JSON rendering itself is lossless.
func TestWireKnobsJSONRoundTrip(t *testing.T) {
	w := FromKnobs(report.DefaultKnobs("DWS.ReviveSplit"))
	w.Dist = "interleave"
	w.NoWaitMerge = true
	w.BranchThresh = 3
	b, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var got WireKnobs
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got != w {
		t.Errorf("JSON round trip lost knobs:\n  sent %#v\n  got  %#v", w, got)
	}
}

// TestWireDefaultsMatchTable3 pins the zero-value substitutions to the
// Table 3 defaults DefaultKnobs encodes, so a minimal request denotes the
// same machine the CLI builds.
func TestWireDefaultsMatchTable3(t *testing.T) {
	got := WireKnobs{}.Knobs()
	want := report.DefaultKnobs("")
	// The wire form leaves "0 means default downstream" fields at zero.
	want.WPUs = 0
	if got != want {
		t.Errorf("empty WireKnobs expands to %#v, want the Table 3 defaults %#v", got, want)
	}
}

func TestDecodeJobRequest(t *testing.T) {
	valid := `{"schema_version":1,"bench":"Filter","knobs":{"scheme":"DWS.ReviveSplit"}}`
	cases := []struct {
		name   string
		body   string
		status int // 0 = accept
	}{
		{"minimal run", valid, 0},
		{"explicit kind", `{"schema_version":1,"kind":"run","bench":"Merge","knobs":{"scheme":"Conv"}}`, 0},
		{"sweep", `{"schema_version":1,"kind":"sweep","benches":["Filter","Merge"],"schemes":["Conv","DWS.ReviveSplit"]}`, 0},
		{"traced run", `{"schema_version":1,"bench":"Filter","knobs":{"scheme":"Conv"},"trace":true,"trace_every":500}`, 0},

		{"empty body", ``, http.StatusBadRequest},
		{"not json", `{"schema_version":`, http.StatusBadRequest},
		{"wrong type", `[1,2,3]`, http.StatusBadRequest},
		{"unknown field", `{"schema_version":1,"bench":"Filter","nobs":{}}`, http.StatusBadRequest},
		{"trailing data", valid + `{"again":true}`, http.StatusBadRequest},
		{"missing schema version", `{"bench":"Filter","knobs":{"scheme":"Conv"}}`, http.StatusBadRequest},
		{"future schema version", `{"schema_version":2,"bench":"Filter","knobs":{"scheme":"Conv"}}`, http.StatusBadRequest},
		{"unknown bench", `{"schema_version":1,"bench":"Nope","knobs":{"scheme":"Conv"}}`, http.StatusBadRequest},
		{"missing scheme", `{"schema_version":1,"bench":"Filter","knobs":{}}`, http.StatusBadRequest},
		{"unknown scheme", `{"schema_version":1,"bench":"Filter","knobs":{"scheme":"DWS.Nope"}}`, http.StatusBadRequest},
		{"unknown kind", `{"schema_version":1,"kind":"walk","bench":"Filter","knobs":{"scheme":"Conv"}}`, http.StatusBadRequest},
		{"run with sweep fields", `{"schema_version":1,"bench":"Filter","knobs":{"scheme":"Conv"},"schemes":["Conv"]}`, http.StatusBadRequest},
		{"sweep with bench", `{"schema_version":1,"kind":"sweep","bench":"Filter","benches":["Merge"],"schemes":["Conv"]}`, http.StatusBadRequest},
		{"sweep with knob scheme", `{"schema_version":1,"kind":"sweep","benches":["Merge"],"schemes":["Conv"],"knobs":{"scheme":"Conv"}}`, http.StatusBadRequest},
		{"sweep missing schemes", `{"schema_version":1,"kind":"sweep","benches":["Merge"]}`, http.StatusBadRequest},
		{"traced sweep", `{"schema_version":1,"kind":"sweep","benches":["Merge"],"schemes":["Conv"],"trace":true}`, http.StatusBadRequest},
		{"trace_every without trace", `{"schema_version":1,"bench":"Filter","knobs":{"scheme":"Conv"},"trace_every":500}`, http.StatusBadRequest},
		{"knob out of range", `{"schema_version":1,"bench":"Filter","knobs":{"scheme":"Conv","wpus":65}}`, http.StatusBadRequest},
		{"negative knob", `{"schema_version":1,"bench":"Filter","knobs":{"scheme":"Conv","l1kb":-1}}`, http.StatusBadRequest},
		{"scale 2", `{"schema_version":1,"bench":"Merge","knobs":{"scheme":"Conv","scale":2}}`, 0},
		{"scale not a power of two", `{"schema_version":1,"bench":"Merge","knobs":{"scheme":"Conv","scale":3}}`, http.StatusBadRequest},
		{"bad dist", `{"schema_version":1,"bench":"Filter","knobs":{"scheme":"Conv","dist":"diagonal"}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := DecodeJobRequest(strings.NewReader(tc.body))
			if tc.status == 0 {
				if err != nil {
					t.Fatalf("want accept, got %d: %s", err.Status, err.Msg)
				}
				if n := len(req.Points()); n == 0 {
					t.Fatal("accepted request expands to zero points")
				}
				return
			}
			if err == nil {
				t.Fatalf("want rejection with status %d, got accept: %#v", tc.status, req)
			}
			if err.Status != tc.status {
				t.Fatalf("want status %d, got %d (%s)", tc.status, err.Status, err.Msg)
			}
		})
	}
}

// TestSweepPointOrder pins the deterministic benches-outer × schemes-inner
// expansion order the job document presents.
func TestSweepPointOrder(t *testing.T) {
	req, derr := DecodeJobRequest(strings.NewReader(
		`{"schema_version":1,"kind":"sweep","benches":["Filter","Merge"],"schemes":["Conv","Slip"]}`))
	if derr != nil {
		t.Fatal(derr)
	}
	pts := req.Points()
	var got []string
	for _, p := range pts {
		got = append(got, p.Bench+"/"+string(p.Knobs.Scheme))
	}
	want := []string{"Filter/Conv", "Filter/Slip", "Merge/Conv", "Merge/Slip"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sweep order %v, want %v", got, want)
	}
}

// TestResultKeyStable pins the result-key derivation: content-addressed,
// stable across processes, and sensitive to every knob (via the session
// cache key it digests).
func TestResultKeyStable(t *testing.T) {
	k := report.DefaultKnobs("Conv")
	a, b := ResultKey("Filter", k), ResultKey("Filter", k)
	if a != b {
		t.Fatalf("ResultKey not deterministic: %s vs %s", a, b)
	}
	if len(a) != 32 {
		t.Fatalf("ResultKey %q: want 32 hex digits", a)
	}
	k2 := k
	k2.L1KB++
	if ResultKey("Filter", k2) == a {
		t.Error("ResultKey ignores L1KB")
	}
	if ResultKey("Merge", k) == a {
		t.Error("ResultKey ignores the benchmark")
	}
}
