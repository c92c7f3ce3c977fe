// Command huntbench is afex's end-to-end benchmark: it runs whole
// fault-injection hunts through afex's own entry points, checks every
// hunt for correctness, and reports work per second at a fixed input
// size. Run it from the repository root through run.sh:
//
//	bash huntbench/run.sh --workload model-hunt --seed 1 --seconds 50 --trace 0
//
// Workloads (see BENCHMARK.json for the layers each one loads):
//
//	model-hunt     afex.NewSession + RunLocal on the mysqld model, fitness
//	               search with feedback, 2 workers, fresh binary StateDir
//	process-sweep  exhaustive sweep of the bundled crashy fixture on the
//	               process backend (warm worker pool), no store; not in
//	               BENCHMARK.json, because its wall-clock figures follow
//	               the host's CPU steal more than the program (METRICS.md)
//	rpc-resume     persistent coordinator on loopback, two in-process
//	               managers; the budget runs in two legs, the second
//	               resuming the first's state directory
//
// Every hunt is a closed loop against a fixed scenario budget: a
// worker or manager leases its next batch only after finishing the
// previous one (a manager keeps one lease request in flight while it
// executes), with at most two executors or connections.
//
// Each hunt runs in a child process of its own, so peak RSS and CPU
// are per hunt and one hunt's heap cannot leak into the next. A run
// repeats hunts until --seconds have passed and reports medians.
// --trace 0 prints the end-to-end metrics; --trace 1 alternates traced
// and untraced hunts and prints the per-layer breakdown, the tracing
// overhead and the share of wall clock no layer span covers.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": M, "metrics": {...}}
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "model-hunt, process-sweep, rpc-resume, or all (each in turn)")
		seed     = flag.Int64("seed", 1, "run seed: hunt k explores with ExploreOptions.Seed 1000×seed+k")
		seconds  = flag.Int("seconds", 20, "measurement time of one run")
		traced   = flag.Int("trace", 0, "1 reports the per-layer breakdown")
		workdir  = flag.String("workdir", ".bench_build", "scratch directory for state dirs and fixtures")
		crashy   = flag.String("crashy", "", "built cmd/crashy fixture (process-sweep)")
		child    = flag.String("child", "", "internal: run one hunt in this mode (plain, traced, transparency)")
	)
	flag.Parse()
	names := []string{*workload}
	if *workload == "all" && *child == "" {
		names = workloadNames()
	}
	for _, name := range names {
		if _, ok := workloads[name]; !ok {
			fmt.Fprintf(os.Stderr, "huntbench: unknown workload %q (want all, %s)\n", name, strings.Join(workloadNames(), ", "))
			os.Exit(2)
		}
	}
	abs, err := filepath.Abs(*workdir)
	if err != nil {
		fatal(err)
	}
	env := &benchEnv{seed: *seed, dir: abs, crashy: *crashy}
	if *child != "" {
		os.Exit(runChild(workloads[*workload], env, *child))
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		fatal(err)
	}
	for _, name := range names {
		w := workloads[name]
		steal0 := readSteal()
		rep := measure(w, env, time.Duration(*seconds)*time.Second, *traced == 1)
		rep.stealShare = readSteal().since(steal0)
		printReport(os.Stdout, w, env, rep, *traced == 1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "huntbench:", err)
	os.Exit(1)
}

// benchEnv is what a workload needs to run: the seed and a scratch
// directory inside the checkout.
type benchEnv struct {
	seed int64
	dir  string
	// crashy is the built process-backend fixture (process-sweep only);
	// building it is preparation, outside every measurement.
	crashy string
}

// workload is one benchmark workload. hunt runs one complete hunt in
// the current process, traced when tr is non-nil; params describes the
// input size for the report.
type workload struct {
	name   string
	params map[string]any
	hunt   func(env *benchEnv, tr *tracer) *huntResult
	// unlisted keeps a workload out of BENCHMARK.json: it runs when
	// named (or with all), but no bound is held on its figures.
	unlisted bool
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// huntResult is one hunt's outcome, as a child reports it to the
// parent on its last stdout line.
type huntResult struct {
	// Attempted is the scenario budget; Executed the scenarios folded.
	Attempted int `json:"attempted"`
	Executed  int `json:"executed"`
	// Errors counts failed operations (see errorCount).
	Errors int `json:"errors"`
	// Gates lists the correctness gates the hunt failed.
	Gates []string `json:"gates,omitempty"`
	// SetupS is start-of-run to first leasable scenario, summed over
	// legs; HuntS first lease to sealed result and closed store.
	SetupS         float64 `json:"setup_s"`
	HuntS          float64 `json:"hunt_s"`
	UniqueFailures int     `json:"unique_failures"`
	UniqueCrashes  int     `json:"unique_crashes"`
	// CPUS is user+sys CPU of the process and its reaped children
	// over the hunt window.
	CPUS float64 `json:"cpu_s"`
	// Runtime holds the Go runtime's allocation and GC figures over
	// the hunt window.
	AllocBytes float64 `json:"alloc_bytes"`
	GCCPUShare float64 `json:"gc_cpu_share"`
	// Layers is the per-layer breakdown (traced hunts only).
	Layers map[string]float64 `json:"layers,omitempty"`
	// PeakRSSMB is filled by the parent from the child's rusage.
	PeakRSSMB float64 `json:"-"`
	// gcBase is the runtime CPU GCCPUShare is averaged over.
	gcBase float64
}

// runChild runs one hunt and prints its result as JSON.
func runChild(w *workload, env *benchEnv, mode string) int {
	var res *huntResult
	switch mode {
	case "plain":
		res = w.hunt(env, nil)
	case "traced":
		res = w.hunt(env, newTracer())
	case "transparency":
		res = transparencyCheck(env)
	default:
		fmt.Fprintf(os.Stderr, "huntbench: unknown child mode %q\n", mode)
		return 2
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "huntbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// spawn runs one hunt in a child process and waits for it. The
// child's peak RSS comes from its rusage, so it covers that hunt only.
// The child leads its own process group, so when ctx ends the child
// and any fixture processes it started are killed together.
func spawn(ctx context.Context, w *workload, env *benchEnv, mode string, seed int64) (*huntResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, "-child", mode, "-workload", w.name,
		"-seed", fmt.Sprint(seed), "-workdir", env.dir, "-crashy", env.crashy)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s hunt (%s): %w", w.name, mode, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	res := new(huntResult)
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		return nil, fmt.Errorf("%s hunt (%s): bad result: %w", w.name, mode, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return res, nil
}

// runReport is what one benchmark run measured.
type runReport struct {
	// stealShare is the share of the machine's CPU time the hypervisor
	// gave to other guests during the run: on a shared host, wall-clock
	// figures move with it.
	stealShare float64

	plain  []*huntResult
	traced []*huntResult
	// transparent is nil when no transparency check ran.
	transparent *huntResult
	errs        []string
}

// maxRun bounds one run, so a hung hunt cannot keep the benchmark from
// reporting within the time a run is allowed.
const maxRun = 150 * time.Second

// huntSeed is the explorer seed of a run's k-th hunt. Each hunt of a
// run searches from a seed of its own, so a run's medians cover many
// search paths rather than one; the run's seed fixes them all.
func huntSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// measure repeats hunts until d has passed and at least three untraced
// hunts (two of each kind in a traced run) have finished. Traced runs
// alternate traced and untraced hunts, a pair sharing its seed, so the
// overhead compares hunts made under the same conditions.
func measure(w *workload, env *benchEnv, d time.Duration, traced bool) *runReport {
	rep := &runReport{}
	minPlain, minTraced := 3, 0
	if traced {
		minPlain, minTraced = 2, 2
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), maxRun)
	defer cancel()
	for i := 0; ctx.Err() == nil; i++ {
		enough := len(rep.plain) >= minPlain && len(rep.traced) >= minTraced
		if enough && time.Since(start) >= d {
			break
		}
		if len(rep.errs) > 0 && i >= minPlain+minTraced {
			break
		}
		mode, k := "plain", i
		if traced {
			k = i / 2
			if i%2 == 1 {
				mode = "traced"
			}
		}
		res, err := spawn(ctx, w, env, mode, huntSeed(env.seed, k))
		if err != nil {
			rep.errs = append(rep.errs, err.Error())
			continue
		}
		if mode == "traced" {
			rep.traced = append(rep.traced, res)
		} else {
			rep.plain = append(rep.plain, res)
		}
	}
	if traced && w.name == "model-hunt" {
		res, err := spawn(ctx, w, env, "transparency", env.seed)
		if err != nil {
			rep.errs = append(rep.errs, err.Error())
		} else {
			rep.transparent = res
		}
	}
	return rep
}

func sysInfo() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"os":         runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuTimes is the machine's aggregate CPU time, total and stolen, in
// clock ticks (/proc/stat).
type cpuTimes struct{ total, steal float64 }

func readSteal() cpuTimes {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	var t cpuTimes
	for i, f := range fields[1:] {
		var v float64
		if _, err := fmt.Sscan(f, &v); err != nil {
			return cpuTimes{}
		}
		t.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			t.steal = v
		}
	}
	return t
}

func (t cpuTimes) since(prev cpuTimes) float64 {
	if d := t.total - prev.total; d > 0 {
		return (t.steal - prev.steal) / d
	}
	return 0
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
