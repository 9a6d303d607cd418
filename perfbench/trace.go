package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Times are nanoseconds
// since the recorder started; Parent is -1 for a root span, and Run names
// the point or job the span belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Run    string `json:"run"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use; a nil recorder records nothing, which is how untraced
// runs skip the bookkeeping.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent int, run string) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Name: name, Run: run, Start: now, End: -1})
	return len(r.spans) - 1
}

// end closes a span opened by begin.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// durations returns the durations in milliseconds of every closed span
// with the given name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// cpuLayers are the buckets CPU samples are attributed to, in print order.
var cpuLayers = []string{"engine", "wpu", "isa", "mem", "sim", "program", "workloads",
	"report", "serve", "obs", "gc", "net", "other"}

// layerPrefixes map function-name prefixes onto the named buckets. The
// simulator's own packages map one to one; net/http, encoding/json and
// system calls make up "net".
var layerPrefixes = []struct{ prefix, layer string }{
	{"repro/internal/engine.", "engine"},
	{"repro/internal/wpu.", "wpu"},
	{"repro/internal/isa.", "isa"},
	{"repro/internal/mem.", "mem"},
	{"repro/internal/sim.", "sim"},
	{"repro/internal/program.", "program"},
	{"repro/internal/workloads.", "workloads"},
	{"repro/internal/report.", "report"},
	{"repro/internal/serve.", "serve"},
	{"repro/internal/obs.", "obs"},
	{"net/http.", "net"},
	{"net.", "net"},
	{"encoding/json.", "net"},
	{"syscall.", "net"},
	{"internal/poll.", "net"},
	{"internal/runtime/syscall.", "net"},
}

// gcPrefixes mark a stack as garbage collection or allocation wherever
// they appear in it.
var gcPrefixes = []string{"runtime.gc", "runtime.mallocgc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.sweepone", "runtime.markroot", "runtime.scanobject", "runtime.wbBuf",
	"runtime.(*gcWork)", "runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)"}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// classify attributes one stack (leaf first) to a bucket. A stack that
// passes through the allocator or the collector counts as gc. Otherwise
// the innermost frame of a named package decides, so a runtime helper
// such as memmove counts towards the layer that called it; stacks with no
// named frame (the scheduler, the benchmark's own loop) are "other".
func classify(stack []string) string {
	for _, fn := range stack {
		if hasAnyPrefix(fn, gcPrefixes) {
			return "gc"
		}
	}
	for _, fn := range stack {
		for _, lp := range layerPrefixes {
			if strings.HasPrefix(fn, lp.prefix) {
				return lp.layer
			}
		}
	}
	return "other"
}

// cpuProfile collects a CPU profile into memory, noting the process CPU
// time at its start.
type cpuProfile struct {
	buf  bytes.Buffer
	cpu0 time.Duration
}

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{cpu0: cpuTime()}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// shares stops the profile and returns each bucket's sampled CPU time as
// a percentage of the process's CPU time over the profile (getrusage),
// keyed "cpu.<bucket>", plus the number of distinct stacks sampled. The
// buckets sum to the share of the process's CPU time the profile
// accounts for: near 100, less by whatever the profiler missed.
func (p *cpuProfile) shares() (map[string]float64, int, error) {
	pprof.StopCPUProfile()
	cpu := float64(cpuTime() - p.cpu0)
	byLayer, n, err := attributeProfile(p.buf.Bytes())
	if err != nil {
		return nil, 0, err
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		out["cpu."+l] = 100 * byLayer[l] / max(cpu, 1)
	}
	return out, n, nil
}

// profiled is the sum of the cpu.* shares: the percentage of the
// process's CPU time the profile accounts for.
func profiled(v map[string]float64) float64 {
	var sum float64
	for _, l := range cpuLayers {
		sum += v["cpu."+l]
	}
	return sum
}

// attributeProfile decodes a gzipped pprof profile (the subset of
// profile.proto a Go CPU profile uses) and sums each sample's CPU time by
// bucket.
func attributeProfile(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		strs    []string
		samples []sample
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = protoFields(raw, func(field int, v uint64, data []byte) error {
		switch field {
		case 2: // Profile.sample
			var s sample
			err := protoFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, d)
				case 2:
					s.values = appendPacked(s.values, v, d)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := protoFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Location.line
					return protoFields(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Profile.function
			var id, name uint64
			err := protoFields(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // Profile.string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]float64{}
	var stack []string
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		stack = stack[:0]
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				if i := funcs[fid]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		// The last value of a Go CPU sample is its CPU time in nanoseconds.
		out[classify(stack)] += float64(s.values[len(s.values)-1])
	}
	return out, len(samples), nil
}

var errProto = errors.New("malformed protobuf")

// protoFields walks one protobuf message, calling fn with each field's
// number and either its scalar value or its length-delimited bytes.
func protoFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field := int(key >> 3)
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked
// (one value) or packed (a run of varints in data).
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst
}
