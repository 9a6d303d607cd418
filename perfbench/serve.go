package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/wpu"
)

// The serve workload drives an in-process dwsimd (serve.New behind a
// loopback httptest listener, 2 workers, a store in a temporary
// directory) with 2 closed-loop clients, each holding one connection and
// submitting its next job only after it holds the previous result.
const (
	daemonWorkers = 2
	clients       = 2
	// jobTimeout bounds one job; a job still unfinished then has failed.
	jobTimeout = 60 * time.Second
	// rssJobs is where peak_rss_mb is read. The daemon keeps every job it
	// has seen, so its memory grows with the job count; reading the mark
	// after a fixed amount of work keeps it independent of how many jobs
	// a run's share of the host allowed.
	rssJobs = 40000
	// The first poll follows the submit at once; later ones back off from
	// pollMin to pollMax, far below the simulated jobs' run times and
	// never delaying a result that is ready when submitted.
	pollMin = 50 * time.Microsecond
	pollMax = 5 * time.Millisecond
)

// Point classes of the serve workload.
const (
	warmSession = "warm-session" // stored by a plain report.Session under report.DefaultKnobs
	warmWire    = "warm-wire"    // stored by a first daemon through the wire
	fresh       = "fresh"        // simulated and saved during the run
	traced      = "traced"       // "trace": true jobs, read to the end of their SSE stream
)

// servePoint is one simulation point of the serve workload.
type servePoint struct {
	bench string
	class string
	knobs report.Knobs // the daemon's expansion of the wire spelling
	body  []byte       // the POST /v1/jobs body
}

// servePoints returns the fixed point sets: each benchmark once per warm
// class and twice as a fresh point, each class under its own schemes,
// plus a few traced points.
func servePoints(short bool) []*servePoint {
	benches := report.BenchNames()
	tracedBenches := []string{"FFT", "Filter"}
	tracedSchemes := []wpu.Scheme{wpu.SchemeLazy, wpu.SchemeAggress}
	if short {
		benches, tracedSchemes = benches[:2], tracedSchemes[:1]
	}
	var pts []*servePoint
	add := func(b, class string, sc wpu.Scheme) {
		req := serve.JobRequest{SchemaVersion: serve.WireSchemaVersion, Bench: b,
			Knobs: serve.WireKnobs{Scheme: string(sc)}, Trace: class == traced}
		body, err := json.Marshal(req)
		if err != nil {
			panic(fmt.Sprintf("perfbench: marshal job request: %v", err)) // plain data
		}
		pts = append(pts, &servePoint{bench: b, class: class, knobs: req.Knobs.Knobs(), body: body})
	}
	for _, b := range benches {
		add(b, warmSession, wpu.SchemeConv)
		add(b, warmWire, wpu.SchemeRevive)
		add(b, fresh, wpu.SchemeSlipBranchBypass)
		add(b, fresh, wpu.SchemeBranchOnly)
	}
	for _, b := range tracedBenches {
		for _, sc := range tracedSchemes {
			add(b, traced, sc)
		}
	}
	return pts
}

func ofClass(pts []*servePoint, classes ...string) []*servePoint {
	var out []*servePoint
	for _, pt := range pts {
		for _, c := range classes {
			if pt.class == c {
				out = append(out, pt)
			}
		}
	}
	return out
}

// daemon is one in-process dwsimd over a store directory.
type daemon struct {
	dir     string
	store   *report.Store
	session *report.Session
	srv     *serve.Server
	ts      *httptest.Server
}

func startDaemon(dir string) (*daemon, error) {
	st, err := report.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	sess := report.NewSession(report.WithJobs(daemonWorkers), report.WithStore(st))
	srv := serve.New(serve.Config{Session: sess, Store: st, Workers: daemonWorkers})
	srv.Start()
	return &daemon{dir: dir, store: st, session: sess, srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

// close stops the listener, drains the workers and, when remove is set,
// deletes the store.
func (d *daemon) close(remove bool) {
	d.ts.Close()
	d.srv.Close()
	if remove {
		os.RemoveAll(d.dir)
	}
}

// warmStore is the serve set-up: a fresh store, half of the warm points
// written by a plain Session the way dwsreport and dwsweep write them,
// the other half written by a first daemon through the wire, and then the
// daemon under test started on that store. It returns the daemon and the
// plain Session's cycle count per warm-session benchmark.
func warmStore(workDir string, pts []*servePoint) (_ *daemon, _ map[string]uint64, err error) {
	dir, err := os.MkdirTemp(workDir, "store-")
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			os.RemoveAll(dir)
		}
	}()
	st, err := report.OpenStore(dir)
	if err != nil {
		return nil, nil, err
	}
	plain := report.NewSession(report.WithJobs(daemonWorkers), report.WithStore(st))
	var jobs []report.Job
	for _, pt := range ofClass(pts, warmSession) {
		jobs = append(jobs, report.Job{Bench: pt.bench, Knobs: report.DefaultKnobs(pt.knobs.Scheme)})
	}
	if err := plain.Prefetch(jobs); err != nil {
		return nil, nil, err
	}
	cycles := map[string]uint64{}
	for _, j := range jobs {
		r, err := plain.Run(j.Bench, j.Knobs)
		if err != nil {
			return nil, nil, err
		}
		cycles[j.Bench] = r.Cycles
	}

	first, err := startDaemon(dir)
	if err != nil {
		return nil, nil, err
	}
	err = warmOverWire(first, ofClass(pts, warmWire))
	first.close(false)
	if err != nil {
		return nil, nil, fmt.Errorf("warming over the wire: %w", err)
	}
	d, err := startDaemon(dir)
	return d, cycles, err
}

// warmOverWire submits the points as one sweep job, which the daemon
// fans out over its workers, and waits for every result. The sweep keys
// each point exactly as a run job spelling only its scheme does.
func warmOverWire(d *daemon, pts []*servePoint) error {
	req := serve.JobRequest{SchemaVersion: serve.WireSchemaVersion, Kind: "sweep",
		Schemes: []string{string(pts[0].knobs.Scheme)}}
	for _, pt := range pts {
		req.Benches = append(req.Benches, pt.bench)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	c := newClient(d.ts.URL, nil, nil)
	defer c.close()
	status, resp, err := c.do(http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return err
	}
	var jd serve.JobDoc
	if status != http.StatusAccepted || json.Unmarshal(resp, &jd) != nil {
		return fmt.Errorf("submit: status %d: %s", status, strings.TrimSpace(string(resp)))
	}
	for _, pd := range jd.Points {
		if _, err := c.poll(pd.ResultURL, jd.ID, -1, "warm", time.Now()); err != nil {
			return err
		}
	}
	return nil
}

// docBook holds the first result document seen per result URL; every
// later copy must be byte-identical.
type docBook struct {
	mu   sync.Mutex
	docs map[string][]byte
}

func (b *docBook) check(url string, doc []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if prev, ok := b.docs[url]; ok {
		if !bytes.Equal(prev, doc) {
			return fmt.Errorf("%s: result document differs from an earlier copy", url)
		}
		return nil
	}
	b.docs[url] = bytes.Clone(doc)
	return nil
}

// client is one closed-loop client with its own single connection.
type client struct {
	hc        *http.Client
	buf       bytes.Buffer // response body of the latest request
	base      string
	rec       *recorder
	book      *docBook
	urls      map[*servePoint]string // result URL per point, learned on submit
	lat       []float64              // per successful job, ms
	polls     int                    // result GETs
	jobs      int                    // untraced jobs
	frames    int                    // SSE frames read
	attempted int
	failed    int
	errs      []string
	firstJobs int // jobs finished by the end of the first touches
	// jobsDone counts the jobs of all clients; the one finishing job
	// number rssJobs stores the peak RSS at that point into rss.
	jobsDone *atomic.Int64
	rss      *atomic.Uint64
}

func newClient(base string, rec *recorder, book *docBook) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	// The timeout bounds any one request; a job as a whole is bounded
	// by jobTimeout from its submit.
	return &client{hc: &http.Client{Transport: tr, Timeout: jobTimeout}, base: base, rec: rec, book: book,
		urls: map[*servePoint]string{}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// record notes a finished job that started at t0.
func (c *client) record(t0 time.Time) {
	c.lat = append(c.lat, ms(time.Since(t0)))
	if c.jobsDone != nil && c.jobsDone.Add(1) == rssJobs {
		c.rss.Store(math.Float64bits(peakRSSMiB()))
	}
}

// do sends one request and returns the status and the whole body. The
// body lives in a buffer the next request reuses, so the client adds
// little garbage of its own to the daemon's.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	return resp.StatusCode, c.buf.Bytes(), err
}

// job submits one point and waits until it holds the result document:
// polling GET /v1/results/{key} for a run job, reading the SSE stream to
// its final frame for a traced one.
func (c *client) job(pt *servePoint, run string) error {
	c.attempted++
	err := c.runJob(pt, run)
	if err != nil {
		c.failed++
		if len(c.errs) < 5 {
			c.errs = append(c.errs, fmt.Sprintf("%s %s: %v", pt.bench, pt.knobs.Scheme, err))
		}
	}
	return err
}

func (c *client) runJob(pt *servePoint, run string) error {
	root := c.rec.begin("job", -1, run)
	defer c.rec.end(root)
	t0 := time.Now()
	sp := c.rec.begin("serve.submit", root, run)
	status, body, err := c.do(http.MethodPost, "/v1/jobs", pt.body)
	c.rec.end(sp)
	if err != nil {
		return err
	}
	if status != http.StatusAccepted {
		return fmt.Errorf("submit: status %d: %s", status, strings.TrimSpace(string(body)))
	}
	var jd serve.JobDoc
	if err := json.Unmarshal(body, &jd); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	if len(jd.Points) != 1 {
		return fmt.Errorf("submit: %d points in a run job", len(jd.Points))
	}
	url := jd.Points[0].ResultURL
	c.urls[pt] = url
	if pt.class == traced {
		doc, err := c.stream(jd.StreamURL, t0.Add(jobTimeout), root, run)
		if err != nil {
			return err
		}
		c.record(t0)
		// The final frame carries the result document compacted; it must
		// match the document the result endpoint serves.
		status, body, err := c.do(http.MethodGet, url, nil)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("result after stream: status %d, %v", status, err)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, body); err != nil || !bytes.Equal(compact.Bytes(), doc) {
			return fmt.Errorf("stream's final frame differs from %s", url)
		}
		return c.book.check(url, body)
	}
	c.jobs++
	doc, err := c.poll(url, jd.ID, root, run, t0)
	if err != nil {
		return err
	}
	c.record(t0)
	return c.book.check(url, doc)
}

// poll fetches a result until it is ready. Every 16th poll also reads the
// job, so a failed job ends the wait instead of the timeout.
func (c *client) poll(url, id string, parent int, run string, t0 time.Time) ([]byte, error) {
	wait := pollMin
	for n := 1; ; n++ {
		sp := c.rec.begin("serve.result_get", parent, run)
		status, body, err := c.do(http.MethodGet, url, nil)
		c.rec.end(sp)
		c.polls++
		if err != nil {
			return nil, err
		}
		if status == http.StatusOK {
			return body, nil
		}
		if status != http.StatusNotFound || !bytes.Contains(body, []byte(`"pending"`)) {
			return nil, fmt.Errorf("result: status %d: %s", status, strings.TrimSpace(string(body)))
		}
		if n%16 == 0 {
			status, body, err := c.do(http.MethodGet, "/v1/jobs/"+id, nil)
			if err != nil {
				return nil, err
			}
			var jd serve.JobDoc
			if status != http.StatusOK || json.Unmarshal(body, &jd) != nil || jd.Status == serve.StatusFailed {
				return nil, fmt.Errorf("job %s failed: status %d: %s", id, status, jd.Error)
			}
		}
		if time.Since(t0) > jobTimeout {
			return nil, errors.New("job never finished")
		}
		time.Sleep(wait)
		wait = min(2*wait, pollMax)
	}
}

// stream reads a traced job's SSE stream to its final frame and returns
// that frame's data, the compacted result document. A stream still open
// at the deadline fails the job.
func (c *client) stream(path string, deadline time.Time, parent int, run string) ([]byte, error) {
	sp := c.rec.begin("serve.stream", parent, run)
	defer c.rec.end(sp)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stream: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			c.frames++
			if event == "done" {
				data := []byte(line[len("data: "):])
				if bytes.Contains(data, []byte(`"error"`)) {
					return nil, fmt.Errorf("traced job failed: %s", data)
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
				return data, nil
			}
		}
	}
	if ctx.Err() != nil {
		return nil, errors.New("job never finished: stream open at the deadline")
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, errors.New("stream ended without a final frame")
}

// plan is one client's seeded job sequence. It opens with the client's
// share of the first touches of the warm and fresh points, so each
// simulation is caused by exactly one first touch and all of them happen
// before the clients meet. Then it repeats the wire-warmed points
// and its own warm and fresh points, with the client's traced jobs at
// seeded places among the first few hundred repeats.
type plan struct {
	rng    *rand.Rand
	first  []*servePoint
	repeat []*servePoint
	traced []*servePoint
	gap    int // repeats before the next traced job
}

// tracedGap bounds the repeats between two traced jobs.
const tracedGap = 64

func newPlans(seed int64, pts []*servePoint) []*plan {
	rng := rand.New(rand.NewSource(seed))
	order := append([]*servePoint(nil), pts...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	plans := make([]*plan, clients)
	for c := range plans {
		pl := &plan{rng: rand.New(rand.NewSource(seed*1000003 + int64(c) + 1)), repeat: ofClass(pts, warmWire)}
		pl.gap = pl.rng.Intn(tracedGap)
		plans[c] = pl
	}
	for i, pt := range order {
		pl := plans[i%clients]
		switch pt.class {
		case traced:
			pl.traced = append(pl.traced, pt)
		case warmWire:
			pl.first = append(pl.first, pt)
		default:
			pl.first = append(pl.first, pt)
			pl.repeat = append(pl.repeat, pt)
		}
	}
	return plans
}

// next returns the next job after the first touches.
func (pl *plan) next() *servePoint {
	if len(pl.traced) > 0 && pl.gap == 0 {
		pt := pl.traced[0]
		pl.traced = pl.traced[1:]
		pl.gap = pl.rng.Intn(tracedGap)
		return pt
	}
	pl.gap--
	return pl.repeat[pl.rng.Intn(len(pl.repeat))]
}

// servePhase is the outcome of one timed phase against one daemon.
type servePhase struct {
	wall      time.Duration
	cpu       time.Duration // host CPU time of the whole phase
	firstCPU  time.Duration // ... until both clients made their first touches
	cs        []*client
	book      *docBook
	cache     report.CacheStats
	saves     uint64
	allocated uint64
	gcs       uint32
	gcPause   time.Duration
	rss       atomic.Uint64 // float64 bits of the peak RSS at rssJobs jobs
}

// runPhase drives the daemon with the clients until the deadline has
// passed and each client has made all of its first touches. With no
// seconds the phase ends where the clients meet: a first-touch round.
func runPhase(d *daemon, pts []*servePoint, seed int64, seconds float64, rec *recorder) *servePhase {
	ph := &servePhase{book: &docBook{docs: map[string][]byte{}}}
	cache0, saves0 := d.session.Stats(), d.store.Stats().Saves
	plans := newPlans(seed, pts)
	meter := startAllocMeter()
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	// The clients meet after their first touches, so the simulations run
	// beside each other and the store reads rather than beside a stream of
	// hits whose share of the host would vary with the seed.
	var wg, touched sync.WaitGroup
	var firstDone sync.Once
	var jobsDone atomic.Int64
	touched.Add(len(plans))
	for i := range plans {
		c := newClient(d.ts.URL, rec, ph.book)
		c.jobsDone, c.rss = &jobsDone, &ph.rss
		ph.cs = append(ph.cs, c)
		wg.Add(1)
		go func(c *client, pl *plan, i int) {
			defer wg.Done()
			defer c.close()
			for n, pt := range pl.first {
				c.job(pt, fmt.Sprintf("c%d/first%d", i, n)) //nolint:errcheck // counted in c.failed
			}
			touched.Done()
			touched.Wait()
			firstDone.Do(func() { ph.firstCPU = cpuTime() - cpu0 })
			c.firstJobs = len(c.lat)
			if seconds == 0 {
				return
			}
			for n := 0; len(pl.traced) > 0 || time.Now().Before(deadline); n++ {
				c.job(pl.next(), fmt.Sprintf("c%d/%d", i, n)) //nolint:errcheck // counted in c.failed
			}
		}(c, plans[i], i)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.cpu = cpuTime() - cpu0
	ph.allocated, ph.gcs, ph.gcPause = meter.stop()
	cache := d.session.Stats()
	ph.cache = report.CacheStats{MemHits: cache.MemHits - cache0.MemHits, DiskHits: cache.DiskHits - cache0.DiskHits,
		Misses: cache.Misses - cache0.Misses, Traced: cache.Traced - cache0.Traced}
	ph.saves = d.store.Stats().Saves - saves0
	return ph
}

func (ph *servePhase) firstJobs() int {
	n := 0
	for _, c := range ph.cs {
		n += c.firstJobs
	}
	return n
}

func (ph *servePhase) totals() (attempted, failed, jobs int, lat []float64) {
	for _, c := range ph.cs {
		attempted += c.attempted
		failed += c.failed
		lat = append(lat, c.lat...)
	}
	return attempted, failed, len(lat), lat
}

// serveCheck is what verify finds after a phase.
type serveCheck struct {
	sims []report.Result // every point the daemon simulated
	// runSims of them, with runCycles simulated cycles in all, were
	// simulated by run jobs rather than traced ones.
	runSims   int
	runCycles uint64
	// avoidable counts points the daemon simulated although the store
	// already held a record for the same sim.Config.
	avoidable int
	ok        bool
}

// verify checks every point's document after a phase: each point was
// served, and warm-session points re-simulated under the wire spelling
// match the plain Session's cycle counts. It also tallies the points the
// daemon simulated.
func (ph *servePhase) verify(p params, d *daemon, pts []*servePoint, warmCycles map[string]uint64) serveCheck {
	chk := serveCheck{ok: true}
	for _, c := range ph.cs {
		for _, e := range c.errs {
			fmt.Fprintln(p.out, "job failed:", e)
		}
	}
	urls := map[*servePoint]string{}
	for _, c := range ph.cs {
		for pt, u := range c.urls {
			urls[pt] = u
		}
	}
	for _, pt := range pts {
		var doc report.RunDoc
		raw, served := ph.book.docs[urls[pt]]
		if !served || json.Unmarshal(raw, &doc) != nil {
			fmt.Fprintf(p.out, "no result document for %s %s\n", pt.bench, pt.knobs.Scheme)
			chk.ok = false
			continue
		}
		if want := warmCycles[pt.bench]; pt.class == warmSession && doc.Cycles != want {
			fmt.Fprintf(p.out, "%s %s: %d cycles over the wire, %d in the plain session\n", pt.bench, pt.knobs.Scheme, doc.Cycles, want)
			chk.ok = false
		}
		switch d.session.Provenance(pt.bench, pt.knobs) {
		case "simulated":
			chk.runSims++
			chk.runCycles += doc.Cycles
			if storeHeld(pt, pts) {
				chk.avoidable++
			}
		case "traced-live":
		default:
			continue
		}
		chk.sims = append(chk.sims, report.Result{Cycles: doc.Cycles, Stats: doc.WPU, L1: doc.L1, L2: doc.L2,
			XbarTransfers: doc.XbarTransfers, DRAMAccesses: doc.DRAMAccesses})
	}
	return chk
}

// storeHeld reports whether the set-up stored a record for the same
// machine configuration as pt: warm-session points are stored under
// report.DefaultKnobs, warm-wire points under their wire expansion.
func storeHeld(pt *servePoint, pts []*servePoint) bool {
	for _, w := range pts {
		if w.bench != pt.bench {
			continue
		}
		var stored report.Knobs
		switch w.class {
		case warmSession:
			stored = report.DefaultKnobs(w.knobs.Scheme)
		case warmWire:
			stored = w.knobs
		default:
			continue
		}
		if reflect.DeepEqual(stored.Config(), pt.knobs.Config()) {
			return true
		}
	}
	return false
}

func runServe(p params) (outcome, error) {
	pts := servePoints(p.short)
	var d *daemon
	var warmCycles map[string]uint64
	// Every set-up but the last also serves a first-touch round on its
	// daemon, so first_touch_s is a median like setup_s.
	var rounds outcome
	var touches []float64
	rounds.correct = true
	setup, err := measureSetup(func() error {
		var err error
		d, warmCycles, err = warmStore(p.workDir, pts)
		return err
	}, func() {
		if !p.trace {
			ph := runPhase(d, pts, p.seed, 0, nil)
			a, f, _, _ := ph.totals()
			rounds.attempted, rounds.failed = rounds.attempted+a, rounds.failed+f
			ok := ph.verify(p, d, ofClass(pts, warmSession, warmWire, fresh), warmCycles).ok
			rounds.correct = rounds.correct && ok
			touches = append(touches, ph.firstCPU.Seconds())
		}
		d.close(true)
	})
	if err != nil {
		return outcome{}, fmt.Errorf("set-up: %w", err)
	}
	if p.trace {
		return runServeTraced(p, pts, d, warmCycles)
	}
	ph := runPhase(d, pts, p.seed, p.seconds, nil)
	d.close(true)

	o := outcome{values: map[string]float64{"setup_s": setup}}
	var jobs int
	var lat []float64
	o.attempted, o.failed, jobs, lat = ph.totals()
	o.attempted, o.failed = o.attempted+rounds.attempted, o.failed+rounds.failed
	chk := ph.verify(p, d, pts, warmCycles)
	o.correct = chk.ok && rounds.correct
	// Host time is CPU time, as for the batch workloads: the simulations
	// are measured over the first touches, the jobs over the rest.
	touches = append(touches, ph.firstCPU.Seconds())
	firstCPU := median(touches)
	o.values["sims_per_s"] = float64(chk.runSims) / firstCPU
	o.values["sim_kcycles_per_s"] = float64(chk.runCycles) / 1e3 / firstCPU
	// The first touches as a whole: every simulation, store load and save
	// they cause, so an avoided simulation or a slower store shows here.
	o.values["first_touch_s"] = firstCPU
	o.values["jobs_per_s"] = float64(jobs-ph.firstJobs()) / (ph.cpu.Seconds() - ph.firstCPU.Seconds())
	o.values["job_p50_ms"] = quantile(lat, 0.50)
	o.values["alloc_kb_per_op"] = float64(ph.allocated) / 1024 / float64(max(jobs, 1))
	o.values["peak_rss_mb"] = math.Float64frombits(ph.rss.Load())
	if jobs < rssJobs {
		o.values["peak_rss_mb"] = peakRSSMiB()
		fmt.Fprintf(p.out, "only %d jobs, fewer than the %d at which peak_rss_mb is read; read at the end\n", jobs, rssJobs)
	}
	fmt.Fprintf(p.out, "serve: %d jobs in %.3f s wall (%.0f/s) and %.3f s host CPU; %d simulations by run jobs (%d avoidable)\n",
		jobs, ph.wall.Seconds(), float64(jobs)/ph.wall.Seconds(), ph.cpu.Seconds(), chk.runSims, chk.avoidable)
	fmt.Fprintf(p.out, "first touches of %d rounds: %.3f s host CPU each\n", len(touches), touches)
	fmt.Fprintf(p.out, "job latency over %d samples: p50 %.4f ms, p99 %.4f ms, p99.9 %.4f ms\n",
		len(lat), quantile(lat, 0.5), quantile(lat, 0.99), quantile(lat, 0.999))
	return o, nil
}

// runServeTraced runs an untraced phase as the overhead reference, then
// warms a fresh store and runs a traced phase with spans and the CPU
// profile on. Each phase gets half of the budget.
func runServeTraced(p params, pts []*servePoint, d *daemon, warmCycles map[string]uint64) (outcome, error) {
	ref := runPhase(d, pts, p.seed, p.seconds/2, nil)
	d.close(true)
	refAttempted, refFailed, refJobs, _ := ref.totals()
	refOK := ref.verify(p, d, pts, warmCycles).ok

	d, warmCycles, err := warmStore(p.workDir, pts)
	if err != nil {
		return outcome{}, fmt.Errorf("set-up: %w", err)
	}
	rec := newRecorder()
	prof, err := startCPUProfile()
	if err != nil {
		d.close(true)
		return outcome{}, err
	}
	ph := runPhase(d, pts, p.seed, p.seconds/2, rec)
	d.close(true)
	shares, samples, err := prof.shares()
	if err != nil {
		return outcome{}, err
	}
	if err := rec.write(filepath.Join(p.workDir, "spans-"+p.workload+".jsonl")); err != nil {
		return outcome{}, err
	}

	o := outcome{values: shares}
	attempted, failed, jobs, _ := ph.totals()
	o.attempted, o.failed = attempted+refAttempted, failed+refFailed
	chk := ph.verify(p, d, pts, warmCycles)
	o.correct = chk.ok && refOK
	v := o.values
	for _, name := range []string{"sim.new_ms", "workloads.build_ms", "sim.run_ms", "workloads.verify_ms",
		"energy.estimate_ms", "sim.host_ns_per_cycle"} {
		v[name] = 0 // inside the daemon: no public call separates them from outside
	}
	addSimCounts(v, chk.sims)
	v["serve.submit_ms_p50"] = median(rec.durations("serve.submit"))
	v["serve.result_get_ms_p50"] = median(rec.durations("serve.result_get"))
	v["serve.stream_ms"] = meanOf(rec.durations("serve.stream"))
	var polls, untraced, frames int
	for _, c := range ph.cs {
		polls, untraced, frames = polls+c.polls, untraced+c.jobs, frames+c.frames
	}
	v["serve.polls_per_job"] = float64(polls) / float64(max(untraced, 1))
	v["serve.stream_frames"] = float64(frames)
	v["report.sims_run"] = float64(ph.cache.Misses)
	v["report.mem_hits"] = float64(ph.cache.MemHits)
	v["report.disk_hits"] = float64(ph.cache.DiskHits)
	v["report.store_saves"] = float64(ph.saves)
	v["report.avoidable_sims"] = float64(chk.avoidable)
	v["go.gc_cycles"] = float64(ph.gcs)
	v["go.gc_pause_ms"] = ms(ph.gcPause)
	// Host CPU per job, traced against untraced.
	refRate := float64(refJobs) / ref.cpu.Seconds()
	rate := float64(jobs) / ph.cpu.Seconds()
	v["bench.trace_overhead_pct"] = 100 * (refRate/rate - 1)
	fmt.Fprintf(p.out, "serve traced: %d jobs (%.0f per host second; untraced reference %.0f), %d sampled stacks covering %.1f %% of process CPU, %d spans\n",
		jobs, rate, refRate, samples, profiled(v), len(rec.spans))
	printLayerTable(p, rec, "job", "serve.submit", "serve.result_get", "serve.stream")
	return o, nil
}
