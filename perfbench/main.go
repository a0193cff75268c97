// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload, checks every output, and prints its metrics: human-
// readable lines with sample counts, then one JSON line.
//
//	perfbench --workload live-tiny --seed 1 --seconds 25 --trace 0
//
// Workloads:
//
//	live-tiny     closed loop of CascSHA rounds:1 over HTTP (the platform path)
//	live-suite    open-loop Poisson mix of all 17 Table I functions plus operator polls
//	sim-rack      experiments.RackScale at 10,000 SBCs vs 415 servers
//	sim-observed  experiments.PowerMgmt with prediction and the diurnal SLO rules
//	all           each of the above in turn, in its own process
//
// --trace 0 prints the end-to-end metrics, measured with tracing and
// profiling off. --trace 1 prints the per-layer metrics instead: it
// splits the window into an untraced half and a traced, CPU-profiled half,
// and reports the tracing overhead between them. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime/pprof"
	"time"
)

type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
}

// metricDef is one metric of the JSON line.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run prints, on every workload. An
// operation is one invocation on the live workloads and one seeded
// experiment run on the sim workloads, whose invocations are simulated.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"inv_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"joules_per_inv", "J"},
	{"alloc_kb_per_inv", "KiB"},
}

// perLayer are the metrics a --trace 1 run prints. A layer a workload
// does not exercise reads 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"client.span_us", "us"},
		{"http.self_us", "us"},
		{"gateway.self_us", "us"},
		{"gateway.scrape_us", "us"},
		{"core.queue_us", "us"},
		{"core.queue_us_p50", "us"},
		{"core.queue_us_p99", "us"},
		{"node.rtt_us", "us"},
		{"transport.self_us", "us"},
		{"workload.exec_us", "us"},
		{"trace.records_per_inv", "count"},
		{"process.allocs_per_inv", "count"},
		{"process.alloc_b_per_inv", "B"},
		{"process.heap_retained_b_per_inv", "B"},
		{"loadgen.lag_p99_ms", "ms"},
	}
	for _, m := range modules {
		defs = append(defs, metricDef{m + ".cpu_us_per_inv", "us"})
	}
	return defs
}

func main() {
	var cfg config
	var seconds, trace int
	var child bool
	flag.StringVar(&cfg.workload, "workload", "", "live-tiny, live-suite, sim-rack, sim-observed, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 25, "measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.BoolVar(&child, "child", false, "run one sim experiment with the experiment seed --seed and print it as JSON (used by the sim workloads)")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	if child {
		if err := simChild(cfg.workload, cfg.seed, cfg.trace); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if cfg.workload == "all" {
		os.Exit(runAll(cfg.seed, seconds, trace))
	}
	rep := newReport(cfg.workload)
	if err := run(cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer()
	}
	if err := rep.write(os.Stdout, defs, cfg.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// workloads are the named workloads, in the order --workload all runs them.
var workloads = []string{"live-tiny", "live-suite", "sim-rack", "sim-observed"}

// runAll runs every workload in its own process, one after another, so no
// run inherits another's heap or goroutines. It returns the exit code: 0
// only when every run exited 0 and reported correct outputs.
func runAll(seed int64, seconds, trace int) int {
	code := 0
	for _, w := range workloads {
		var out bytes.Buffer
		cmd := exec.Command(os.Args[0], "--workload", w, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		cmd.Stdout = io.MultiWriter(os.Stdout, &out)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w, err)
			code = 1
			continue
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var res jsonResult
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || !res.Correct {
			code = 1
		}
	}
	return code
}

func run(cfg config, rep *report) error {
	switch cfg.workload {
	case "live-tiny":
		return runLive(cfg, tinyPhase, rep)
	case "live-suite":
		return runLive(cfg, suitePhase, rep)
	case "sim-rack", "sim-observed":
		return runSim(cfg, cfg.workload, rep)
	}
	return fmt.Errorf("unknown workload %q", cfg.workload)
}

// report collects a run's metrics, counts and notes.
type report struct {
	workload          string
	attempted, failed int
	errs              []string
	checksFailed      int
	values            map[string]float64
	lines             []string
}

func newReport(workload string) *report {
	return &report{workload: workload, values: map[string]float64{}}
}

// count adds checked operations and their failures.
func (r *report) count(attempted, failed int, errs []string) {
	r.attempted += attempted
	r.failed += failed
	for _, e := range errs {
		if len(r.errs) < 5 {
			r.errs = append(r.errs, e)
		}
	}
}

// value records a metric with the number of samples behind it.
func (r *report) value(name, unit string, v float64, n int) {
	r.values[name] = v
	r.note(name, unit, v, n)
}

// timing records a percentile metric, flagging it when fewer than
// minBeyond samples lie beyond it.
func (r *report) timing(name, unit string, p pct) {
	r.values[name] = p.Value
	r.noteTiming(name, unit, p)
}

// note prints a figure without putting it in the JSON line.
func (r *report) note(name, unit string, v float64, n int) {
	r.notef("%-34s %14.6g %-5s n=%d", name, v, unit, n)
}

func (r *report) noteTiming(name, unit string, p pct) {
	support := "supported"
	if !p.Supported {
		support = fmt.Sprintf("UNSUPPORTED: fewer than %d samples beyond it", minBeyond)
	}
	r.notef("%-34s %14.6g %-5s n=%d %s", name, p.Value, unit, p.N, support)
}

func (r *report) notef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// check records a self-check; a failed one makes the run incorrect.
func (r *report) check(ok bool, what string) {
	status := "ok"
	if !ok {
		status = "FAILED"
		r.checksFailed++
	}
	r.notef("self-check %s: %s", status, what)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints the notes and then the JSON line holding exactly defs.
// Every end-to-end metric must have been measured; a per-layer metric a
// workload does not exercise reads 0.
func (r *report) write(w io.Writer, defs []metricDef, traced bool) error {
	res := jsonResult{
		Correct:   r.failed == 0 && r.checksFailed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !traced {
			return fmt.Errorf("%s: metric %s not measured", r.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", r.workload, d.name, v)
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "workload %s: %d operations, %d failed (error_ratio %.6g)\n",
		r.workload, r.attempted, r.failed, float64(r.failed)/math.Max(1, float64(r.attempted)))
	for _, e := range r.errs {
		fmt.Fprintf(&buf, "  failure: %s\n", e)
	}
	for _, l := range r.lines {
		fmt.Fprintf(&buf, "  %s\n", l)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	buf.Write(line)
	buf.WriteByte('\n')
	_, err = w.Write(buf.Bytes())
	return err
}

// per divides a total by a count, treating a zero count as one so a run
// whose every operation failed still prints finite numbers (it is already
// marked incorrect).
func per(total float64, n int) float64 {
	if n < 1 {
		n = 1
	}
	return total / float64(n)
}

// profiler holds a running CPU profile of the whole process.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

func (p *profiler) stop() ([]profSample, error) {
	pprof.StopCPUProfile()
	return parseProfile(p.buf.Bytes())
}
