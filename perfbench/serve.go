package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/ir"
	"repro/internal/outcache"
	"repro/regalloc"
	"repro/regalloc/irx"
	"repro/regalloc/service"
	"repro/regalloc/workload"
)

// serve-redundant models compile-server traffic: single-function
// "print":true requests drawn from corpora in which about four in five
// functions repeat an earlier one (alpha-renamed), so the outcome cache
// serves hits (reads) and admits misses (writes). Decode, parse,
// fingerprinting, the cache and encode dominate here and do nothing in the
// allocation workloads. One corpus's make-up varies a lot from seed to seed
// (its earliest functions are copied far more often than later ones), so
// the traffic interleaves serveCorpora independent corpora.
//
// The gated run drives the service's request path in-process (what the
// HTTP handler does, minus net/http) from one goroutine in a closed loop,
// and times it in scaled CPU time (see probe.go).
// An open loop over HTTP is what users see, but on a small shared virtual
// machine its latencies measure the machine's timer and wake-up delays
// more than the program, so it runs in the traced run (per-layer figures
// and the ladder), and the untimed HTTP pass checks the responses.
const (
	serveR       = 4
	serveCorpus  = 20_000
	serveCorpora = 100
	serveDupRate = 0.8
	serveCache   = 4096
	serveConns   = 2
	latencyLimit = 20 * time.Millisecond
	httpRequests = 4000 // requests of the untimed HTTP pass
	nominalRate  = 1000.0
)

// ladder is the traced run's offered-rate ladder (requests/s).
var ladder = []float64{500, 1000, 2000, 3000}

// traffic is the serve workload's input: the corpus as request bodies.
type traffic struct {
	bodies [][]byte
	warm   [][]byte // requests from another generator, to warm a fresh server
}

func genTraffic(seed int64) (*traffic, error) {
	tr := &traffic{}
	corpora := make([]*ir.Module, serveCorpora)
	for c := range corpora {
		corpora[c] = workload.GenDuplicated(seed*serveCorpora+int64(c), serveCorpus/serveCorpora, serveDupRate)
	}
	for i := 0; i < serveCorpus; i++ {
		f := corpora[i%serveCorpora].Funcs[i/serveCorpora]
		b, err := json.Marshal(service.Request{ID: strconv.Itoa(i), IR: f.String(), Print: true})
		if err != nil {
			return nil, err
		}
		tr.bodies = append(tr.bodies, b)
	}
	for i, f := range workload.GenerateModule(seed+1, 32).Funcs {
		b, err := json.Marshal(service.Request{ID: "warm" + strconv.Itoa(i), IR: f.String(), Print: true})
		if err != nil {
			return nil, err
		}
		tr.warm = append(tr.warm, b)
	}
	return tr, nil
}

// server is one in-process allocation server and its client.
type server struct {
	srv       *service.Server
	done      chan error
	url       string
	transport *http.Transport
	client    *http.Client
}

func startServer(conns int) (*server, error) {
	srv, err := service.New(service.Config{Registers: serveR, CacheSize: serveCache})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: srv, done: make(chan error, 1), url: "http://" + ln.Addr().String() + "/v1/allocate"}
	go func() { s.done <- srv.Serve(ln) }()
	s.transport = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	s.client = &http.Client{Transport: s.transport}
	return s, nil
}

// post sends one request and returns the response body and status.
func (s *server) post(body []byte) ([]byte, int, error) {
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// warmUp sends the warm-up requests. They come from another generator, so
// they leave the cache's hit/miss mix for the traffic as it was.
func (s *server) warmUp(tr *traffic) error {
	for _, b := range tr.warm {
		if _, code, err := s.post(b); err != nil || code != http.StatusOK {
			return fmt.Errorf("warm-up request: status %d: %v", code, err)
		}
	}
	return nil
}

func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Drain(ctx)
	if serr := <-s.done; err == nil {
		err = serr
	}
	s.transport.CloseIdleConnections()
	return err
}

// responses keeps the first response body seen for each corpus index and
// counts later responses that differ from it.
type responses struct {
	first      [][]byte
	mismatched atomic.Int64
}

func (r *responses) record(i int, body []byte) {
	if r.first[i] == nil {
		r.first[i] = body
	} else if !bytes.Equal(r.first[i], body) {
		r.mismatched.Add(1)
	}
}

// phase is the outcome of driving one fresh server.
type phase struct {
	lat      []float64 // seconds from due to done; +Inf for failed requests
	failed   int
	rejected int
	lateMax  float64 // worst oversleep of the generator, seconds
	elapsed  float64
}

// drive sends requests 0..n-1 of the corpus over conns connections. With
// rate > 0 request i is due at i/rate (open loop); with rate 0 each
// connection sends its next request as soon as the previous one returns
// (closed loop) and requests are timed from when they were sent.
func (s *server) drive(tr *traffic, n, conns int, rate float64, resp *responses) *phase {
	ph := &phase{lat: make([]float64, n)}
	var next atomic.Int64
	var failed, rejected atomic.Int64
	lates := make([]float64, conns)
	var wg sync.WaitGroup
	t0 := time.Now().Add(time.Millisecond)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := time.Now()
				if rate > 0 {
					due = t0.Add(time.Duration(float64(i) / rate * 1e9))
					if wait := time.Until(due); wait > 0 {
						time.Sleep(wait)
						lates[c] = math.Max(lates[c], time.Since(due).Seconds())
					}
				}
				body, code, err := s.post(tr.bodies[i])
				ph.lat[i] = time.Since(due).Seconds()
				switch {
				case code == http.StatusTooManyRequests:
					rejected.Add(1)
					fallthrough
				case err != nil || code != http.StatusOK:
					failed.Add(1)
					ph.lat[i] = math.Inf(1)
				default:
					resp.record(i, body)
				}
			}
		}(c)
	}
	wg.Wait()
	ph.elapsed = time.Since(t0).Seconds()
	ph.failed, ph.rejected = int(failed.Load()), int(rejected.Load())
	for _, l := range lates {
		ph.lateMax = math.Max(ph.lateMax, l)
	}
	return ph
}

// withServer runs fn against a fresh, warmed-up server.
func withServer(tr *traffic, conns int, fn func(*server) error) error {
	s, err := startServer(conns)
	if err != nil {
		return err
	}
	err = s.warmUp(tr)
	if err == nil {
		err = fn(s)
	}
	if serr := s.stop(); err == nil {
		err = serr
	}
	return err
}

// tailWindow is how many consecutive requests one tail reading covers.
const tailWindow = 500

// windowTails splits latencies, in the order the requests were due, into
// windows of tailWindow requests (one window when there are fewer) and
// returns each window's tail and the tail percentile.
func windowTails(lat []float64) (tails []float64, pct float64) {
	if len(lat) < tailWindow {
		v, p := tail(lat)
		return []float64{v}, p
	}
	for i := 0; i+tailWindow <= len(lat); i += tailWindow {
		v, p := tail(lat[i : i+tailWindow])
		tails = append(tails, v)
		pct = p
	}
	return tails, pct
}

// schedule is the order the ladder's segments run in, each on a fresh
// server for an eighth of the run. The nominal rate runs three times,
// spread over the ladder, so a disturbance of the machine lasting a few
// seconds spoils one of its segments rather than the whole reading.
var schedule = []float64{nominalRate, 500, nominalRate, 2000, nominalRate, 3000}

// openLoop runs the ladder's segments over HTTP, each segment for seconds
// on a fresh server, prints each rung, and returns the rungs by rate and
// the highest achieved rate that met the latency limit.
func openLoop(tr *traffic, seconds float64, resp *responses, rep *report) (map[float64]*rung, float64, error) {
	rungs := map[float64]*rung{}
	for _, rate := range schedule {
		n := min(int(rate*seconds), len(tr.bodies))
		err := withServer(tr, serveConns, func(s *server) error {
			ph := s.drive(tr, n, serveConns, rate, resp)
			if rungs[rate] == nil {
				rungs[rate] = &rung{}
			}
			rungs[rate].add(ph)
			return nil
		})
		if err != nil {
			return nil, 0, err
		}
		rep.attempted += n
	}
	maxRate := 0.0
	for _, rate := range ladder {
		r := rungs[rate]
		rep.failed += r.failed
		achieved := float64(len(r.lat)) / r.elapsed
		rep.notef("rung %4.0f req/s: %d requests, achieved %.0f req/s, p50 %.3f ms, tail %.3f ms (median of %d windows' p%.2f), late max %.3f ms, rejected %d, meets limit %v",
			rate, len(r.lat), achieved, median(r.lat)*1e3, r.tail()*1e3, len(r.tails), r.pct, r.lateMax*1e3, r.rejected, r.meetsLimit())
		if r.meetsLimit() {
			maxRate = achieved
		}
	}
	rep.notef("open loop: highest rate meeting the %v limit: %.0f req/s", latencyLimit, maxRate)
	return rungs, maxRate, nil
}

// rung is what the open loop measured at one offered rate, over every
// segment at that rate.
type rung struct {
	lat      []float64
	tails    []float64 // each window's tail
	pct      float64
	elapsed  float64
	backlog  bool // a segment's last tenth had a median over the limit
	lateMax  float64
	rejected int
	failed   int
}

func (r *rung) add(ph *phase) {
	tails, pct := windowTails(ph.lat)
	r.lat = append(r.lat, ph.lat...)
	r.tails = append(r.tails, tails...)
	r.pct = pct
	r.elapsed += ph.elapsed
	r.backlog = r.backlog || median(ph.lat[len(ph.lat)*9/10:]) > latencyLimit.Seconds()
	r.lateMax = math.Max(r.lateMax, ph.lateMax)
	r.rejected += ph.rejected
	r.failed += ph.failed
}

// tail is the median of the windows' tails: a stall spoils one window, not
// the reading.
func (r *rung) tail() float64 { return median(r.tails) }

// meetsLimit reports whether the rung met the latency limit without a
// growing backlog.
func (r *rung) meetsLimit() bool { return r.tail() <= latencyLimit.Seconds() && !r.backlog }

func runServeRedundant(cfg runConfig) (*report, error) {
	rep := newReport()
	var tr *traffic
	var setups []float64
	probe := newSpeedProbe()
	for i := 0; i < setupReps; i++ {
		tr = nil
		runtime.GC()
		probes := probe.block(setupProbes)
		c0 := processCPU()
		t, err := genTraffic(cfg.seed)
		if err != nil {
			return nil, err
		}
		err = withServer(t, serveConns, func(s *server) error {
			_, code, err := s.post(t.bodies[0])
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("first request: status %d", code)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		cpu := processCPU() - c0
		probes = append(probes, probe.block(setupProbes)...)
		setups = append(setups, cpu*probeNominalS/median(probes))
		tr = t
	}
	resp := &responses{first: make([][]byte, len(tr.bodies))}
	if cfg.traced {
		return rep, serveTraced(cfg, tr, resp, rep)
	}

	// The measured time: closed-loop passes over the whole traffic through
	// the service's request path in-process, each pass from a fresh engine
	// table and cache, with exact heap counts around each pass.
	var rates, cpuRates, wallRates, scaled, probes []float64
	var counts []heapCounts
	deadline := time.Now().Add(cfg.duration)
	for len(rates) < 2 || time.Now().Before(deadline) {
		runtime.GC()
		h0 := readHeap()
		ph := serveInProcess(tr, resp, probe)
		counts = append(counts, readHeap().sub(h0))
		n := float64(len(ph.cpu))
		rates = append(rates, n/ph.passScaled)
		cpuRates = append(cpuRates, n/ph.passCPU)
		wallRates = append(wallRates, n/ph.passWall)
		scaled = append(scaled, ph.scaled...)
		probes = append(probes, ph.probes...)
		rep.attempted += len(ph.cpu)
		rep.failed += ph.failed
	}
	rss := maxRSSMB()

	// The HTTP path, untimed: the same requests over loopback, whose
	// responses must match too.
	var httpRate float64
	err := withServer(tr, serveConns, func(s *server) error {
		ph := s.drive(tr, httpRequests, serveConns, 0, resp)
		rep.attempted += len(ph.lat)
		rep.failed += ph.failed
		httpRate = float64(len(ph.lat)) / ph.elapsed
		return nil
	})
	if err != nil {
		return nil, err
	}
	spill, _, err := checkResponses(resp, tr, rep)
	if err != nil {
		return nil, err
	}

	var objects, bytes []float64
	for _, c := range counts {
		objects = append(objects, float64(c.objects))
		bytes = append(bytes, float64(c.bytes))
	}
	if slices.Min(objects) != slices.Max(objects) || slices.Min(bytes) != slices.Max(bytes) {
		rep.notef("count drift over %d passes: objects %.0f..%.0f, bytes %.0f..%.0f",
			len(counts), slices.Min(objects), slices.Max(objects), slices.Min(bytes), slices.Max(bytes))
	}
	tails, pct := windowTails(scaled)
	n := float64(len(tr.bodies))
	rep.notef("%d in-process passes of %d requests; tail = median over %d windows of p%.2f (%d requests each, %d beyond)",
		len(rates), len(tr.bodies), len(tails), pct, tailWindow, tailBeyond)
	rep.notef("not gated: unscaled CPU %.0f req/s; wall clock %.0f req/s in-process, HTTP over %d connections, closed loop, first %d requests %.0f req/s; probe median %.3f ms",
		median(cpuRates), median(wallRates), serveConns, httpRequests, httpRate, median(probes)*1e3)
	rep.metrics["setup_s"] = median(setups)
	// One request allocates one function.
	rep.metrics["funcs_per_cpu_s"] = median(rates)
	rep.metrics["op_cpu_p50_ms"] = median(scaled) * 1e3
	rep.metrics["op_cpu_tail_ms"] = median(tails) * 1e3
	rep.metrics["allocs_per_func"] = median(objects) / n
	rep.metrics["bytes_per_func"] = median(bytes) / n
	rep.metrics["max_rss_mb"] = rss
	rep.metrics["spill_cost"] = spill
	return rep, nil
}

// inProcess is what one in-process pass measured: each request's CPU time
// on the serving thread, unscaled and scaled, in the traffic's order (+Inf
// for a failed request); the whole process's CPU time over the requests,
// unscaled and scaled; their wall time; and the probes.
type inProcess struct {
	cpu, scaled         []float64
	passCPU, passScaled float64
	passWall            float64
	probes              []float64
	failed              int
}

// probeEvery is how many requests run between two speed probes.
const probeEvery = 500

// serveInProcess sends every request of the traffic through the service's
// request path — JSON decode, service.Do, JSON encode, as the HTTP handler
// does — one after another from one goroutine locked to its thread,
// against a fresh engine table with a fresh outcome cache. A speed probe
// follows every probeEvery requests (probe.go).
func serveInProcess(tr *traffic, resp *responses, probe *speedProbe) *inProcess {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	engines := service.NewEngineCache(regalloc.NewCache(serveCache), 0)
	n := len(tr.bodies)
	res := &inProcess{cpu: make([]float64, n), scaled: make([]float64, n)}
	var chunks []float64 // process CPU time of each probeEvery requests
	p0, t0 := processCPU(), time.Now()
	for i, body := range tr.bodies {
		if i%probeEvery == 0 && i > 0 {
			chunks = append(chunks, processCPU()-p0)
			res.passWall += time.Since(t0).Seconds()
			res.probes = append(res.probes, probe.run())
			p0, t0 = processCPU(), time.Now()
		}
		c0 := threadCPU()
		var req service.Request
		err := json.Unmarshal(body, &req)
		r := service.Do(context.Background(), engines, req, err, serveR, "", "", "", nil)
		var buf bytes.Buffer
		err = json.NewEncoder(&buf).Encode(r)
		res.cpu[i] = threadCPU() - c0
		if err != nil || r.Error != "" {
			res.failed++
			res.cpu[i] = math.Inf(1)
			continue
		}
		resp.record(i, buf.Bytes())
	}
	chunks = append(chunks, processCPU()-p0)
	res.passWall += time.Since(t0).Seconds()
	res.probes = append(res.probes, probe.run())
	for j, c := range chunks {
		res.passCPU += c
		res.passScaled += c * scaleFactor(res.probes, j)
	}
	for i, c := range res.cpu {
		res.scaled[i] = c * scaleFactor(res.probes, i/probeEvery)
	}
	return res
}

// checkResponses compares every response with the one a cache-off engine
// gives for the same request, and checks the outcome of each distinct
// function in the traffic independently. Over those functions it returns
// the mean spill cost share (see spillMean) and the residual move cost per
// function.
func checkResponses(resp *responses, tr *traffic, rep *report) (spillShare, moves float64, err error) {
	if n := resp.mismatched.Load(); n > 0 {
		rep.fail(int(n), "%d responses differ from an earlier response to the same request", n)
	}
	engines := service.NewEngineCache(nil, 1)
	fresh, err := regalloc.New(regalloc.WithRegisters(serveR))
	if err != nil {
		return 0, 0, err
	}
	fold := fingerprint.NewConfig(serveR, "", regalloc.DefaultCostModel, true, nil, 0)
	seen := map[fingerprint.FP]bool{}
	var spill spillMean
	for i, body := range tr.bodies {
		var req service.Request
		if err := json.Unmarshal(body, &req); err != nil {
			return 0, 0, err
		}
		if got := resp.first[i]; got != nil {
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(service.Do(context.Background(), engines, req, nil, serveR, "", "", "", nil)); err != nil {
				return 0, 0, err
			}
			if !bytes.Equal(got, want.Bytes()) {
				rep.fail(1, "request %d: response differs from a cache-off engine's", i)
			}
		}
		f, err := irx.Parse(req.IR)
		if err != nil {
			return 0, 0, err
		}
		key := fingerprint.Key(f, fold)
		if seen[key] {
			continue // an alpha-renamed copy: the same output
		}
		seen[key] = true
		o, err := fresh.AllocateFunc(context.Background(), f)
		if err == nil {
			err = checkOutcome(f, o, serveR, nil)
		}
		if err != nil {
			rep.fail(1, "request %d: %v", i, err)
			continue
		}
		spill.add(o.SpillCost, o.Problem.TotalWeight())
		moves += residualMoveCost(f, o)
	}
	return spill.value(), moves / float64(len(seen)), nil
}

// stageObserver records the stage times service.Do reports, as spans.
type stageObserver struct {
	t       *tracer
	allocNS int64
}

func (o *stageObserver) ObserveStage(stage string, seconds float64) {
	ns := int64(seconds * 1e9)
	o.t.record("server."+stage, ns)
	if stage == service.StageAllocate {
		o.allocNS = ns
	}
}

func (o *stageObserver) ObserveFunc(bool, float64) {}

// serveTraced is the per-layer run of the service path. It replays the
// first requests in-process, one at a time: JSON decode, service.Do with a
// recording Observer (parse, allocate), JSON encode — untraced and traced
// in turn. It times fingerprinting and the outcome cache on the same
// functions, the HTTP round trip on a fresh server, and the open-loop
// ladder over HTTP.
func serveTraced(cfg runConfig, tr *traffic, resp *responses, rep *report) error {
	const n = 2000
	reqs := tr.bodies[:n]
	d := cfg.duration / 4

	// replay serves the requests in-process from a fresh cache. With a
	// recording observer it also splits the allocate stage into hits and
	// misses.
	replay := func(t *tracer, obs *stageObserver) (hits, misses []float64, err error) {
		cache := regalloc.NewCache(serveCache)
		engines := service.NewEngineCache(cache, 1)
		var o service.Observer
		if obs != nil {
			o = obs
		}
		var buf bytes.Buffer
		for _, body := range reqs {
			var req service.Request
			t.nextOp()
			t.begin("request")
			t.begin("server.decode")
			err := json.Unmarshal(body, &req)
			t.end()
			t.begin("server.do")
			before := cache.Stats().Hits
			r := service.Do(context.Background(), engines, req, err, serveR, "", "", "", o)
			hit := cache.Stats().Hits > before
			t.end()
			t.begin("server.encode")
			buf.Reset()
			err = json.NewEncoder(&buf).Encode(r)
			t.end()
			t.end()
			if err != nil || r.Error != "" {
				return nil, nil, fmt.Errorf("in-process request %s: %v %s", req.ID, err, r.Error)
			}
			switch {
			case obs == nil:
			case hit:
				hits = append(hits, float64(obs.allocNS))
			default:
				misses = append(misses, float64(obs.allocNS))
			}
		}
		return hits, misses, nil
	}

	// Untraced and traced replays of the same requests, in turn, until
	// their time is up.
	var plain, traced []float64
	timing, untraced := newTracer(modeTiming), newTracer(modeOff)
	var hits, misses []float64
	deadline := time.Now().Add(2 * d)
	for len(plain) == 0 || time.Now().Before(deadline) {
		t0 := time.Now()
		if _, _, err := replay(untraced, nil); err != nil {
			return err
		}
		plain = append(plain, time.Since(t0).Seconds())
		t0 = time.Now()
		h, m, err := replay(timing, &stageObserver{t: timing})
		if err != nil {
			return err
		}
		traced = append(traced, time.Since(t0).Seconds())
		hits, misses = append(hits, h...), append(misses, m...)
		rep.attempted += 2 * n
	}
	if err := timing.write(cfg.traceOut, "serve-redundant", cfg.seed); err != nil {
		return err
	}

	// Fingerprinting and the outcome cache on their own, on the same
	// requests from a fresh cache.
	funcs := make([]*ir.Func, n)
	for i, body := range reqs {
		var req service.Request
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		f, err := irx.Parse(req.IR)
		if err != nil {
			return err
		}
		funcs[i] = f
	}
	eng, err := regalloc.New(regalloc.WithRegisters(serveR))
	if err != nil {
		return err
	}
	fold := fingerprint.NewConfig(serveR, "", regalloc.DefaultCostModel, true, nil, 0)
	cache := outcache.New(serveCache)
	var keyNS, getNS, putNS []float64
	for _, f := range funcs {
		t0 := time.Now()
		key := fingerprint.Key(f, fold)
		keyNS = append(keyNS, float64(time.Since(t0).Nanoseconds()))
		t0 = time.Now()
		o := cache.Get(key, f)
		getNS = append(getNS, float64(time.Since(t0).Nanoseconds()))
		if o == nil {
			o, err := eng.AllocateFunc(context.Background(), f)
			if err != nil {
				return err
			}
			t0 = time.Now()
			cache.Put(key, o)
			putNS = append(putNS, float64(time.Since(t0).Nanoseconds()))
		}
	}
	cs := cache.Stats()

	// The HTTP round trip of the same requests, one at a time, and the
	// open-loop ladder.
	var httpLat []float64
	err = withServer(tr, 1, func(s *server) error {
		ph := s.drive(tr, n, 1, 0, resp)
		httpLat = ph.lat
		rep.attempted += n
		rep.failed += ph.failed
		return nil
	})
	if err != nil {
		return err
	}
	w := watchRuntime()
	rungs, maxRate, err := openLoop(tr, cfg.duration.Seconds()/8, resp, rep)
	if err != nil {
		return err
	}
	gcFrac, heapPeak := w.finish()
	lateMax, rejected, sent := 0.0, 0, 0
	for _, r := range rungs {
		lateMax = math.Max(lateMax, r.lateMax)
		rejected += r.rejected
		sent += len(r.lat)
	}
	_, moves, err := checkResponses(resp, tr, rep)
	if err != nil {
		return err
	}

	ops := float64(timing.stat("request").calls)
	stage := func(name string) float64 { return float64(timing.stat(name).selfNS) / ops }
	m := rep.metrics
	m["fingerprint.key_ns"] = mean(keyNS)
	m["outcache.hit_ratio"] = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
	m["outcache.get_ns"] = mean(getNS)
	m["outcache.put_ns"] = mean(putNS)
	m["outcache.evicted"] = float64(cs.Evicted)
	m["server.decode_ns"] = stage("server.decode")
	m["server.parse_ns"] = stage("server.parse")
	m["server.allocate_ns.hit"] = mean(hits)
	m["server.allocate_ns.miss"] = mean(misses)
	m["server.encode_ns"] = stage("server.encode")
	stages := stage("server.decode") + stage("server.parse") + stage("server.allocate") + stage("server.encode")
	m["server.http_ns"] = mean(httpLat)*1e9 - stages
	m["server.rejected_frac"] = float64(rejected) / float64(sent)
	m["runtime.gc_cpu_frac"] = gcFrac
	m["runtime.heap_peak_mb"] = heapPeak
	m["loadgen.late_ms_max"] = lateMax * 1e3
	m["loadgen.max_rate_rps"] = maxRate
	m["trace.overhead_frac"] = 1 - median(plain)/median(traced)
	root := timing.stat("request")
	m["trace.unattributed_frac"] = float64(root.selfNS) / float64(root.totalNS)
	m["move_cost_residual"] = moves
	m["error_frac"] = float64(rep.failed) / math.Max(1, float64(rep.attempted))
	rep.notef("in-process replay: %d requests per pass, %.1f µs/request untraced, %.1f µs traced; %d hits, %d misses",
		n, median(plain)/n*1e6, median(traced)/n*1e6, len(hits), len(misses))
	return nil
}
