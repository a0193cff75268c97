package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"microfaas/internal/cluster"
	"microfaas/internal/gateway"
	"microfaas/internal/model"
	"microfaas/internal/telemetry"
	"microfaas/internal/tsdb"
	"microfaas/internal/workload"
)

const (
	// connections is the generator's keep-alive connection count. The box
	// has 2 cores (nproc). With 2 connections, client and server kept both
	// busy, and a slow spell of the host raised p99 far more than p50: over
	// ten runs live-tiny's p99 (10–11× p50) spread by 27% against 13% for
	// inv_per_s, and live-suite's by 33% against 13% for p50. With one
	// connection, p99 moves with p50.
	connections = 1
	// liveWorkers is the cluster size, the default of microfaas-live.
	liveWorkers = 4
	// setups is how many times an untraced run brings the stack up; with
	// 21, ten set-up times lie beyond the median it reports.
	setups = 21
	// warmup is the unmeasured load before the window, so connections,
	// pools and lazily built state exist before the clock starts.
	warmup = time.Second
	// suiteRate is live-suite's fixed open-loop arrival rate, about 30% of
	// what one synchronous connection completes on the full suite on a
	// 2-core box. At higher rates the tail was set by pile-ups behind
	// heavy functions, which a busy host makes longer, and p99 did not
	// repeat from run to run; at this rate it reflects function and store
	// cost.
	suiteRate = 100.0
	// pollEvery is live-suite's operator poll cadence (GET /stats then
	// GET /metrics on the generator's connections).
	pollEvery = 300 * time.Millisecond
)

// stack is the live system under test, assembled the way microfaas-live's
// serve mode does it: cluster.StartLive with meter and telemetry, an
// embedded time-series store scraping the registry every second, and
// gateway.NewWithOptions(...).Listen. A traced stack serves the same
// gateway handler through its tap instead of Listen, and has its workers
// swapped for tapped wrappers through RemoveWorker/AddWorker.
type stack struct {
	live       *cluster.Live
	gw         *gateway.Server
	stopScrape func()
	addr       string
	tap        *tap
	srv        *http.Server
	served     chan struct{}
}

func startStack(seed int64, traced bool) (_ *stack, err error) {
	l, err := cluster.StartLive(cluster.LiveOptions{
		Workers:   liveWorkers,
		Seed:      seed,
		Meter:     true,
		Telemetry: telemetry.New(),
	})
	if err != nil {
		return nil, err
	}
	st := &stack{live: l}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	store := tsdb.New(tsdb.Config{})
	store.AddSource("", l.Telemetry.Registry())
	st.stopScrape = store.Start(l.Runtime.Now, time.Second)
	st.gw, err = gateway.NewWithOptions(l.Orch, gateway.Options{
		Timeout:   5 * time.Minute,
		Mode:      "live",
		Telemetry: l.Telemetry,
		TSDB:      store,
	})
	if err != nil {
		return nil, err
	}
	if !traced {
		st.addr, err = st.gw.Listen("127.0.0.1:0")
		return st, err
	}
	st.tap = newTap(l.Runtime)
	for _, w := range l.Workers {
		if err := l.Orch.RemoveWorker(w.ID(), nil); err != nil {
			return nil, err
		}
		if err := l.Orch.AddWorker(st.tap.worker(w)); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.addr = ln.Addr().String()
	st.srv = &http.Server{Handler: st.tap.handler(st.gw.Handler())}
	st.served = make(chan struct{})
	go func() {
		defer close(st.served)
		st.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	return st, nil
}

func (st *stack) close() {
	if st.srv != nil {
		st.srv.Close() //nolint:errcheck // shutting down
		<-st.served
	}
	if st.gw != nil {
		st.gw.Close() //nolint:errcheck // shutting down
	}
	if st.stopScrape != nil {
		st.stopScrape()
	}
	st.live.Close()
}

// bringUp starts a stack and waits for its first successful invocation
// through the gateway, returning the time from the StartLive call to that
// reply.
func bringUp(seed int64, traced bool) (*stack, time.Duration, error) {
	start := time.Now()
	st, err := startStack(seed, traced)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(st.addr)
	defer c.close()
	status, body, err := c.do(http.MethodPost, "/invoke", []byte(`{"function":"CascSHA","args":{"rounds":1,"seed":"setup"}}`), 0)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("first invoke: HTTP %d: %s", status, body)
	}
	if err != nil {
		st.close()
		return nil, 0, err
	}
	return st, time.Since(start), nil
}

// client is one keep-alive HTTP connection of the load generator.
type client struct {
	tr   *http.Transport
	hc   *http.Client
	base string
}

func newClient(addr string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{tr: tr, hc: &http.Client{Transport: tr}, base: "http://" + addr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

func (c *client) do(method, path string, body []byte, seq int64) (int, []byte, error) {
	var rd io.Reader = http.NoBody
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set(seqHeader, strconv.FormatInt(seq, 10))
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck // fully read
	return resp.StatusCode, b, err
}

// invocation is one prepared request and what its reply must carry:
// want is the reference output, or nil when any well-formed JSON output
// passes (functions whose result depends on backing-store state).
type invocation struct {
	body []byte
	want []byte
}

// prepare builds the request body and, for want, runs the function
// directly to get the reference output.
func prepare(fn string, args []byte, want bool) (invocation, error) {
	body, err := json.Marshal(gateway.InvokeRequest{Function: fn, Args: args})
	if err != nil {
		return invocation{}, err
	}
	inv := invocation{body: body}
	if want {
		if inv.want, err = workload.Invoke(nil, fn, args); err != nil {
			return invocation{}, fmt.Errorf("reference %s: %w", fn, err)
		}
	}
	return inv, nil
}

type invokeReply struct {
	JobID  int64           `json:"job_id"`
	Output json.RawMessage `json:"output"`
	Error  string          `json:"error"`
}

// check validates one /invoke reply and returns its job ID.
func (inv invocation) check(status int, body []byte, err error) (int64, error) {
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("HTTP %d: %.200s", status, body)
	}
	var r invokeReply
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, fmt.Errorf("bad reply: %w", err)
	}
	if r.Error != "" || len(r.Output) == 0 {
		return 0, fmt.Errorf("job %d failed: %q", r.JobID, r.Error)
	}
	if inv.want != nil && !sameJSON(r.Output, inv.want) {
		return 0, fmt.Errorf("job %d: output differs from the direct run", r.JobID)
	}
	return r.JobID, nil
}

// sameJSON compares two JSON documents by value (the gateway re-encodes
// outputs, so byte equality is only the fast path).
func sameJSON(a, b []byte) bool {
	if bytes.Equal(a, b) {
		return true
	}
	var x, y any
	return json.Unmarshal(a, &x) == nil && json.Unmarshal(b, &y) == nil && reflect.DeepEqual(x, y)
}

// phaseResult is what one load phase observed.
type phaseResult struct {
	attempted, failed, completed int
	elapsed                      time.Duration
	lat                          []float64    // ms per completed invocation (open loop: from its due time)
	spans                        []clientSpan // per completed invocation
	scrapes                      []float64    // ms per operator poll, from its due time
	scrapeSeqs                   [][2]int64   // request numbers of each poll's two GETs
	lags                         []float64    // ms the open-loop generator ran late
	errs                         []string     // the first few failures
}

func (r *phaseResult) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

func (r *phaseResult) merge(o phaseResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.completed += o.completed
	r.lat = append(r.lat, o.lat...)
	r.spans = append(r.spans, o.spans...)
	r.scrapes = append(r.scrapes, o.scrapes...)
	r.scrapeSeqs = append(r.scrapeSeqs, o.scrapeSeqs...)
	for _, e := range o.errs {
		if len(r.errs) < 5 {
			r.errs = append(r.errs, e)
		}
	}
}

// phase is one prepared load phase, run over the generator's connections.
type phase func(conns []*client, seq *atomic.Int64) phaseResult

// preparer builds a workload's load phase of length d. It makes every
// input and reference output from the seed and the phase number, before
// any clock starts.
type preparer func(seed int64, d time.Duration, phaseNo int64) (phase, error)

// tinyPhase is live-tiny's closed loop: each connection sends a
// synchronous CascSHA rounds:1 invocation as soon as its previous reply
// is in, drawing from a fixed set of 64 seeded arguments.
func tinyPhase(seed int64, d time.Duration, phaseNo int64) (phase, error) {
	rng := rand.New(rand.NewSource(seed))
	inputs := make([]invocation, 64)
	for i := range inputs {
		args := []byte(fmt.Sprintf(`{"rounds":1,"seed":"%016x"}`, rng.Uint64()))
		inv, err := prepare("CascSHA", args, true)
		if err != nil {
			return nil, err
		}
		inputs[i] = inv
	}
	return func(conns []*client, seq *atomic.Int64) phaseResult {
		results := make([]phaseResult, len(conns))
		var wg sync.WaitGroup
		start := time.Now()
		deadline := start.Add(d)
		for i, c := range conns {
			wg.Add(1)
			go func(r *phaseResult, c *client, rng *rand.Rand) {
				defer wg.Done()
				for {
					t0 := time.Now()
					if !t0.Before(deadline) {
						return
					}
					inv := inputs[rng.Intn(len(inputs))]
					n := seq.Add(1)
					status, body, err := c.do(http.MethodPost, "/invoke", inv.body, n)
					t1 := time.Now()
					r.attempted++
					job, err := inv.check(status, body, err)
					if err != nil {
						r.fail(err)
						continue
					}
					r.completed++
					r.lat = append(r.lat, ms(t1.Sub(t0)))
					r.spans = append(r.spans, clientSpan{seq: n, jobID: job, span: span{t0, t1}})
				}
			}(&results[i], c, rand.New(rand.NewSource(seed^(phaseNo<<8+int64(i)))))
		}
		wg.Wait()
		var out phaseResult
		out.elapsed = time.Since(start)
		for _, r := range results {
			out.merge(r)
		}
		return out
	}, nil
}

// scheduled is one open-loop operation: an invocation of fn, or an
// operator poll when fn is empty.
type scheduled struct {
	due time.Duration
	fn  string
	inv invocation
}

// suitePhase is live-suite's open loop: seeded Poisson arrivals at
// suiteRate, each an invocation of one of the 17 Table I functions with
// its own seeded GenArgs, plus an operator poll every pollEvery.
// CPU-bound functions must reply with the output of a direct run;
// network-bound ones with any non-error, well-formed JSON (their result
// depends on store state).
func suitePhase(seed int64, d time.Duration, phaseNo int64) (phase, error) {
	rng := rand.New(rand.NewSource(seed ^ phaseNo<<8))
	specs := model.Functions()
	var sched []scheduled
	var args [][]byte
	var cpu []bool
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / suiteRate * float64(time.Second))
		if t >= d {
			break
		}
		spec := specs[rng.Intn(len(specs))]
		f, err := workload.Get(spec.Name)
		if err != nil {
			return nil, err
		}
		sched = append(sched, scheduled{due: t, fn: spec.Name})
		args = append(args, f.GenArgs(rng))
		cpu = append(cpu, spec.Class == model.CPUBound)
	}
	// Reference outputs, on as many goroutines as the box has cores.
	errs := make([]error, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(sched); i = int(next.Add(1)) - 1 {
				sched[i].inv, errs[i] = prepare(sched[i].fn, args[i], cpu[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for t := pollEvery / 2; t < d; t += pollEvery {
		sched = append(sched, scheduled{due: t})
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].due < sched[j].due })
	return func(conns []*client, seq *atomic.Int64) phaseResult {
		return runOpen(conns, sched, seq)
	}, nil
}

// runOpen releases each scheduled operation at its due time to whichever
// connection is free, and times every reply from the due time, so a stall
// is charged to every operation it delays.
func runOpen(conns []*client, sched []scheduled, seq *atomic.Int64) phaseResult {
	ready := make(chan int, len(sched)) // never blocks the dispatcher
	results := make([]phaseResult, len(conns))
	lags := make([]float64, len(sched))
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(r *phaseResult, c *client) {
			defer wg.Done()
			for k := range ready {
				op := sched[k]
				due := start.Add(op.due)
				r.attempted++
				if op.fn == "" {
					s1, s2, err := poll(c, seq)
					if err != nil {
						r.fail(err)
						continue
					}
					r.scrapes = append(r.scrapes, ms(time.Since(due)))
					r.scrapeSeqs = append(r.scrapeSeqs, [2]int64{s1, s2})
					continue
				}
				n := seq.Add(1)
				t0 := time.Now()
				status, body, err := c.do(http.MethodPost, "/invoke", op.inv.body, n)
				t1 := time.Now()
				job, err := op.inv.check(status, body, err)
				if err != nil {
					r.fail(fmt.Errorf("%s: %w", op.fn, err))
					continue
				}
				r.completed++
				r.lat = append(r.lat, ms(t1.Sub(due)))
				r.spans = append(r.spans, clientSpan{seq: n, jobID: job, span: span{t0, t1}})
			}
		}(&results[i], c)
	}
	for k, op := range sched {
		due := start.Add(op.due)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lags[k] = ms(time.Since(due))
		ready <- k
	}
	close(ready)
	wg.Wait()
	out := phaseResult{elapsed: time.Since(start), lags: lags}
	for _, r := range results {
		out.merge(r)
	}
	return out
}

// poll is one operator poll: GET /stats then GET /metrics on the same
// connection. It returns the two requests' numbers.
func poll(c *client, seq *atomic.Int64) (int64, int64, error) {
	s1 := seq.Add(1)
	status, body, err := c.do(http.MethodGet, "/stats", nil, s1)
	if err == nil && (status != http.StatusOK || !json.Valid(body)) {
		err = fmt.Errorf("GET /stats: HTTP %d", status)
	}
	if err != nil {
		return 0, 0, err
	}
	s2 := seq.Add(1)
	status, body, err = c.do(http.MethodGet, "/metrics", nil, s2)
	if err == nil && (status != http.StatusOK || len(body) == 0) {
		err = fmt.Errorf("GET /metrics: HTTP %d", status)
	}
	return s1, s2, err
}

// snapshot is the process and cluster state at a phase boundary.
type snapshot struct {
	joules  float64
	records int
	mem     runtime.MemStats
}

// snap reads the meter and the invocation record, then collects garbage
// so HeapAlloc is the retained heap.
func (st *stack) snap() snapshot {
	var s snapshot
	s.joules = float64(st.live.Meter.TotalEnergy(st.live.Runtime.Now()))
	s.records = st.live.Orch.Collector().Len()
	runtime.GC()
	runtime.ReadMemStats(&s.mem)
	return s
}

// runLive runs a live workload: it prepares every phase, brings the stack
// up, warms it, then runs either the end-to-end window or, traced, an
// untraced half and a traced half.
func runLive(cfg config, prep preparer, rep *report) error {
	lengths := []time.Duration{warmup, cfg.window}
	if cfg.trace {
		lengths = []time.Duration{warmup, cfg.window / 2, cfg.window / 2}
	}
	phases := make([]phase, len(lengths))
	for i, d := range lengths {
		var err error
		if phases[i], err = prep(cfg.seed, d, int64(i)); err != nil {
			return err
		}
	}
	n := setups
	if cfg.trace {
		n = 1
	}
	var st *stack
	var setupS []float64
	for i := 0; i < n; i++ {
		if st != nil {
			st.close()
		}
		var d time.Duration
		var err error
		if st, d, err = bringUp(cfg.seed, cfg.trace); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, d.Seconds())
	}
	defer st.close()
	conns := make([]*client, connections)
	for i := range conns {
		conns[i] = newClient(st.addr)
		defer conns[i].close()
	}
	var seq atomic.Int64
	warm := phases[0](conns, &seq)
	rep.count(warm.attempted, warm.failed, warm.errs)
	s0 := st.snap()
	plain := phases[1](conns, &seq)
	s1 := st.snap()
	rep.count(plain.attempted, plain.failed, plain.errs)
	if !cfg.trace {
		rep.timing("setup_s", "s", percentile(setupS, 0.5))
		liveEndToEnd(rep, plain, s0, s1)
		return nil
	}
	st.tap.on.Store(true)
	prof, err := startProfile()
	if err != nil {
		return err
	}
	traced := phases[2](conns, &seq)
	samples, err := prof.stop()
	st.tap.on.Store(false)
	if err != nil {
		return err
	}
	rep.count(traced.attempted, traced.failed, traced.errs)
	liveLayers(rep, st.tap, plain, traced, s0, s1, samples)
	return nil
}

// liveEndToEnd reports the end-to-end metrics of an untraced window.
func liveEndToEnd(rep *report, res phaseResult, s0, s1 snapshot) {
	n := res.completed
	rep.value("inv_per_s", "1/s", float64(n)/res.elapsed.Seconds(), n)
	rep.timing("latency_p50_ms", "ms", percentile(res.lat, 0.5))
	rep.timing("latency_p99_ms", "ms", percentile(res.lat, 0.99))
	rep.value("joules_per_inv", "J", per(s1.joules-s0.joules, n), n)
	rep.value("alloc_kb_per_inv", "KiB", per(float64(s1.mem.TotalAlloc-s0.mem.TotalAlloc)/1024, n), n)
	rep.note("heap_retained_b_per_inv", "B", per(float64(s1.mem.HeapAlloc)-float64(s0.mem.HeapAlloc), n), n)
	if len(res.scrapes) > 0 {
		rep.noteTiming("scrape_p50_ms", "ms", percentile(res.scrapes, 0.5))
	}
	if len(res.lags) > 0 {
		rep.noteTiming("loadgen.lag_p99_ms", "ms", percentile(res.lags, 0.99))
	}
}

// liveLayers reports the per-layer metrics of a traced run: process and
// record counts from the untraced half, spans and CPU samples from the
// traced half, plus the tracing overhead and the span self-check.
func liveLayers(rep *report, t *tap, plain, traced phaseResult, s0, s1 snapshot, samples []profSample) {
	pn := plain.completed
	rep.value("process.allocs_per_inv", "count", per(float64(s1.mem.Mallocs-s0.mem.Mallocs), pn), pn)
	rep.value("process.alloc_b_per_inv", "B", per(float64(s1.mem.TotalAlloc-s0.mem.TotalAlloc), pn), pn)
	rep.value("process.heap_retained_b_per_inv", "B", per(float64(s1.mem.HeapAlloc)-float64(s0.mem.HeapAlloc), pn), pn)
	rep.value("trace.records_per_inv", "count", per(float64(s1.records-s0.records), pn), pn)
	if len(plain.lags) > 0 {
		rep.timing("loadgen.lag_p99_ms", "ms", percentile(plain.lags, 0.99))
	}

	lts, bad := t.layers(traced.spans)
	var client, queue, rtt, exec, httpSelf, gwSelf, transport []float64
	for _, lt := range lts {
		client = append(client, us(lt.Client))
		queue = append(queue, us(lt.Queue))
		rtt = append(rtt, us(lt.RTT))
		exec = append(exec, us(lt.Exec))
		httpSelf = append(httpSelf, us(lt.HTTP))
		gwSelf = append(gwSelf, us(lt.Gateway))
		transport = append(transport, us(lt.Transport))
	}
	n := len(lts)
	rep.value("client.span_us", "us", mean(client), n)
	rep.value("http.self_us", "us", mean(httpSelf), n)
	rep.value("gateway.self_us", "us", mean(gwSelf), n)
	rep.value("core.queue_us", "us", mean(queue), n)
	rep.value("node.rtt_us", "us", mean(rtt), n)
	rep.value("transport.self_us", "us", mean(transport), n)
	rep.value("workload.exec_us", "us", mean(exec), n)
	rep.timing("core.queue_us_p50", "us", percentile(queue, 0.5))
	rep.timing("core.queue_us_p99", "us", percentile(queue, 0.99))
	var scrape []float64
	for _, p := range traced.scrapeSeqs {
		a, okA := t.handlerSpan(p[0])
		b, okB := t.handlerSpan(p[1])
		if okA && okB {
			scrape = append(scrape, us(a.dur()+b.dur()))
		}
	}
	if len(scrape) > 0 {
		rep.timing("gateway.scrape_us", "us", percentile(scrape, 0.5))
	}

	// Self-check: every span nests in its parent, and the self times
	// telescope back to the client span.
	sum := mean(httpSelf) + mean(gwSelf) + mean(queue) + mean(transport) + mean(exec)
	gap := sum - mean(client)
	rep.check(bad == 0, fmt.Sprintf("spans nest: %d of %d invocations matched and nested (tolerance %v)", n, n+bad, tolerance))
	rep.check(n > 0 && gap < 0.01 && gap > -0.01, fmt.Sprintf("spans telescope: http+gateway+queue+transport+exec = %.3f us vs client %.3f us (tolerance 0.01 us)", sum, mean(client)))
	cpuPerInv(rep, charge(samples), traced.completed)

	// Tracing overhead: the traced half against the untraced half.
	pu, pt := percentile(plain.lat, 0.5), percentile(traced.lat, 0.5)
	ru, rt := float64(plain.completed)/plain.elapsed.Seconds(), float64(traced.completed)/traced.elapsed.Seconds()
	rep.notef("tracing overhead: inv/s %.1f untraced vs %.1f traced (%+.1f%%), latency p50 %.4f ms vs %.4f ms (%+.1f%%)",
		ru, rt, 100*(rt/ru-1), pu.Value, pt.Value, 100*(pt.Value/pu.Value-1))
}
