package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"

	"microfaas/internal/experiments"
	"microfaas/internal/tsdb"
)

// simSeeds is how many experiment seeds the sim workloads cycle through:
// --seed picks one, and each has its report's SHA-256 pinned below.
const simSeeds = 8

func simSeed(seed int64) int64 { return 1 + ((seed%simSeeds)+simSeeds)%simSeeds }

// simOutcome is one seeded experiment run as the benchmark checks it.
type simOutcome struct {
	report       []byte  // the experiment's printed report
	invocations  int     // simulated invocations completed
	joulesPerInv float64 // the report's modelled J/function
}

// simWorkload is a sim workload: its experiment entry point and the
// pinned report digest of each experiment seed 1..simSeeds.
type simWorkload struct {
	run     func(seed int64) (simOutcome, error)
	digests [simSeeds]string
}

// rackInvocations is how many invocations RackScale simulates at 10,000
// SBCs against 415 servers × 16 VMs: at this size each of the 16,640
// workers gets one pass of the 17-function suite. It does not depend on
// the seed.
const rackInvocations = 282880

// simRack is experiments.RackScale at 10,000 SBCs vs 415 servers, serial:
// the DES kernel and the node models dominate, observability is off.
var simRack = simWorkload{
	run: func(seed int64) (simOutcome, error) {
		res, err := experiments.RackScale(experiments.RackScaleConfig{SBCs: 10000, Servers: 415, Seed: seed, Parallel: 1})
		if err != nil {
			return simOutcome{}, err
		}
		var buf bytes.Buffer
		if err := experiments.WriteRackScale(&buf, res); err != nil {
			return simOutcome{}, err
		}
		return simOutcome{report: buf.Bytes(), invocations: rackInvocations, joulesPerInv: res.SBCJoulesPerFunc}, nil
	},
	digests: [simSeeds]string{
		"ab7a29704c53132063e5953b31f78163ebe4e7eabf7896784442393875c3253f",
		"0229d3d2d70da41e99a72fa8e678fec79aa3d93bb7e00d4c34ca56155e515da0",
		"9403a9f0619e7333a291fd457f9afe79d891add37f9d537336b51fbb8789b953",
		"877e10d32ae3016fdd0cc6878f53fd5ced3c934095655c517f509a1256293898",
		"36605ad9066964ae473c88800ea5cd5d6b709229efd170171085d8168bfcec50",
		"b09de1e9a83f72f7d60f6b7e25fad20cc5b639fd37210bba8d90fa307d88d4d3",
		"a8619e109eea1f3eefe689c09376c3c4ed7b813db798799622a5921a8d944f17",
		"2481ef891d5a46694a011593e2d967627e55b97ae7da09176395e733e8709bbe",
	},
}

// observedLevels shrinks experiments.PowerMgmt to one utilization level
// over its default two-hour virtual day, so a run fits the benchmark's
// budget; the SLO scrapes every 5 virtual seconds still make the
// time-series store the dominant cost.
var observedLevels = []float64{0.3}

// simObserved is experiments.PowerMgmt with the predictive arm and the
// shipped diurnal SLO rules, serial: the cost of watching (tsdb,
// telemetry) dominates the simulation itself.
func simObserved(rules []tsdb.Rule) simWorkload {
	return simWorkload{
		run: func(seed int64) (simOutcome, error) {
			res, err := experiments.PowerMgmt(experiments.PowerMgmtConfig{
				Levels: observedLevels, Seed: seed, Parallel: 1, Predict: true, SLO: rules,
			})
			if err != nil {
				return simOutcome{}, err
			}
			var buf bytes.Buffer
			if err := experiments.WritePowerMgmt(&buf, res); err != nil {
				return simOutcome{}, err
			}
			out := simOutcome{report: buf.Bytes()}
			for _, lv := range res.Levels {
				for _, arm := range []experiments.PowerMgmtArm{lv.PerJob, lv.AlwaysOn, lv.Managed, lv.Predictive} {
					out.invocations += arm.Completed
				}
			}
			out.joulesPerInv = res.Levels[0].Predictive.JoulesPer
			return out, nil
		},
		digests: [simSeeds]string{
			"cb32e2f4285c0269a4b30e0299ab68a7655d8b966e34a9c361853b1338875c48",
			"8047c8c4cd0f50e2ee6bdd06a516a3468790a6a58201ab6e329bdb069d048692",
			"9a718d36f64662def0d208690ad0ca5f539f58bac62ed79f009d46bbd952b904",
			"71a7ae415c7fa758cb236f5f8e411c02a9708173bcbfe044c3f33e94d97f839d",
			"b9e960e4d0b2b91450ac69cdb193b5eac870db11b2c8dfdb8221718b158d98ea",
			"a4bedaf10612771057e803e1ae07c5f78113f0ccc46f57480a1c96a243a9958a",
			"e799cf7e5200172c40dae83c8f32afea30bec2414e1c82bb6e7213fd7a6e941f",
			"c59671bedcdaea4167437b0f36d3ca2628d4556802955d423ac8d7125f1923ec",
		},
	}
}

// simWorkloadNamed returns the sim workload of that name.
func simWorkloadNamed(name string) (simWorkload, error) {
	switch name {
	case "sim-rack":
		return simRack, nil
	case "sim-observed":
		rules, err := tsdb.LoadRules("examples/slo/diurnal.json")
		if err != nil {
			return simWorkload{}, err
		}
		return simObserved(rules), nil
	}
	return simWorkload{}, fmt.Errorf("unknown sim workload %q", name)
}

// simRun is one experiment run in its own child process, as the child
// reports it on its standard output.
type simRun struct {
	StartNs      int64     `json:"start_ns"` // wall clock when the experiment started
	WallNs       int64     `json:"wall_ns"`
	AllocB       uint64    `json:"alloc_b"`
	Allocs       uint64    `json:"allocs"`
	Invocations  int       `json:"invocations"`
	JoulesPerInv float64   `json:"joules_per_inv"`
	Digest       string    `json:"digest"`
	CPU          *cpuSplit `json:"cpu,omitempty"` // profiled runs only

	setup time.Duration // from starting the child to StartNs
}

// simChild is the child side of a sim run: it runs the experiment once
// in this fresh process, CPU-profiled when asked, and prints a simRun.
func simChild(name string, seed int64, profile bool) error {
	w, err := simWorkloadNamed(name)
	if err != nil {
		return err
	}
	var prof *profiler
	if profile {
		if prof, err = startProfile(); err != nil {
			return err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	out, err := w.run(seed)
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	r := simRun{
		StartNs: start.UnixNano(), WallNs: int64(wall),
		AllocB: m1.TotalAlloc - m0.TotalAlloc, Allocs: m1.Mallocs - m0.Mallocs,
		Invocations: out.invocations, JoulesPerInv: out.joulesPerInv,
	}
	if prof != nil {
		samples, err := prof.stop()
		if err != nil {
			return err
		}
		c := charge(samples)
		r.CPU = &c
	}
	sum := sha256.Sum256(out.report)
	r.Digest = hex.EncodeToString(sum[:])
	return json.NewEncoder(os.Stdout).Encode(r)
}

// simOnce runs the experiment once in a fresh child process and checks
// its report against the pinned digest want. Every run is cold, so no
// state carries from one run to the next; the set-up time covers process
// start, package initialisation and loading the experiment's inputs.
func simOnce(name string, seed int64, profile bool, want string, rep *report) (simRun, error) {
	trace := "0"
	if profile {
		trace = "1"
	}
	cmd := exec.Command(os.Args[0], "--child", "--workload", name,
		"--seed", strconv.FormatInt(seed, 10), "--trace", trace)
	cmd.Stderr = os.Stderr
	start := time.Now()
	out, err := cmd.Output()
	if err != nil {
		return simRun{}, fmt.Errorf("%s run: %w", name, err)
	}
	var r simRun
	if err := json.Unmarshal(out, &r); err != nil {
		return simRun{}, fmt.Errorf("%s run: %w", name, err)
	}
	r.setup = time.Unix(0, r.StartNs).Sub(start)
	if r.Digest != want {
		rep.count(1, 1, []string{fmt.Sprintf("experiment seed %d: report sha256 %s, pinned %s", seed, r.Digest, want)})
	} else {
		rep.count(1, 0, nil)
	}
	return r, nil
}

// minSimRuns is the fewest runs a window makes, so set-up time is a
// median.
const minSimRuns = 3

// simRuns runs the experiment back to back until d has passed, at least
// minSimRuns times.
func simRuns(name string, seed int64, d time.Duration, profile bool, rep *report) ([]simRun, error) {
	w, err := simWorkloadNamed(name)
	if err != nil {
		return nil, err
	}
	var runs []simRun
	deadline := time.Now().Add(d)
	for len(runs) < minSimRuns || time.Now().Before(deadline) {
		r, err := simOnce(name, seed, profile, w.digests[seed-1], rep)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// runSim runs a sim workload: cold runs for the window, or, traced, an
// unprofiled half and a CPU-profiled half.
func runSim(cfg config, name string, rep *report) error {
	seed := simSeed(cfg.seed)
	rep.notef("experiment seed %d", seed)
	if !cfg.trace {
		runs, err := simRuns(name, seed, cfg.window, false, rep)
		if err != nil {
			return err
		}
		var setup, wall, alloc []float64
		for _, r := range runs {
			setup = append(setup, r.setup.Seconds())
			wall = append(wall, ms(time.Duration(r.WallNs)))
			alloc = append(alloc, float64(r.AllocB))
		}
		inv := runs[0].Invocations
		med := percentile(wall, 0.5)
		rep.timing("setup_s", "s", percentile(setup, 0.5))
		rep.timing("latency_p50_ms", "ms", med)
		rep.timing("latency_p99_ms", "ms", percentile(wall, 0.99))
		rep.value("inv_per_s", "1/s", float64(inv)/(med.Value/1e3), inv)
		rep.value("joules_per_inv", "J", runs[0].JoulesPerInv, inv)
		am := percentile(alloc, 0.5)
		rep.value("alloc_kb_per_inv", "KiB", per(am.Value/1024, inv), inv)
		rep.note("sim_wall_s", "s", med.Value/1e3, len(wall))
		rep.note("sim_alloc_mb", "MB", am.Value/1e6, len(alloc))
		return nil
	}
	half := cfg.window / 2
	plain, err := simRuns(name, seed, half, false, rep)
	if err != nil {
		return err
	}
	profiled, err := simRuns(name, seed, half, true, rep)
	if err != nil {
		return err
	}
	var allocs, allocB, wallU, wallT []float64
	for _, r := range plain {
		allocs = append(allocs, float64(r.Allocs))
		allocB = append(allocB, float64(r.AllocB))
		wallU = append(wallU, ms(time.Duration(r.WallNs)))
	}
	var cpu cpuSplit
	completed := 0
	for _, r := range profiled {
		wallT = append(wallT, ms(time.Duration(r.WallNs)))
		cpu.add(*r.CPU)
		completed += r.Invocations
	}
	inv := plain[0].Invocations
	rep.value("process.allocs_per_inv", "count", per(percentile(allocs, 0.5).Value, inv), inv)
	rep.value("process.alloc_b_per_inv", "B", per(percentile(allocB, 0.5).Value, inv), inv)
	cpuPerInv(rep, cpu, completed)
	pu, pt := percentile(wallU, 0.5), percentile(wallT, 0.5)
	rep.notef("profiling overhead: run %.1f ms unprofiled vs %.1f ms profiled (%+.1f%%)", pu.Value, pt.Value, 100*(pt.Value/pu.Value-1))
	return nil
}
