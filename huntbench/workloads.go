package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"afex"
	"afex/internal/core"
	"afex/internal/explore"
	"afex/internal/store"
)

// Workload parameters. They fix the input size every figure is
// reported at; changing one changes the benchmark.
const (
	// mysqld's profiled space: 1147 tests × 19 functions × callNumber
	// 1–10 = 217,930 points.
	modelTarget  = "mysqld"
	modelFuncs   = 19
	modelCallLo  = 1
	modelCallHi  = 10
	modelBudget  = 10000
	modelWorkers = 2

	// crashy: 4 tests × 4 functions × callNumber 1–sweepCalls. Only
	// the first few call numbers reach an injection point, so almost
	// every scenario is a clean run through the warm worker pool.
	sweepCalls   = 2500
	sweepWorkers = 2
	sweepProcs   = 2
	// sweepTimeout is a fixed floor on the hunt: test 2's failed write
	// hangs until it expires.
	sweepTimeout = 200 * time.Millisecond

	rpcBudget   = 10000
	rpcManagers = 2

	// transparencyBudget sizes the sequential traced-vs-untraced
	// journal comparison.
	transparencyBudget = 3000
)

var workloads = map[string]*workload{
	"model-hunt": {name: "model-hunt", hunt: modelHunt, params: map[string]any{
		"target": modelTarget, "space": modelSpaceDesc(), "budget": modelBudget,
		"algorithm": "fitness", "feedback": true, "workers": modelWorkers, "journal": "binary"}},
	"process-sweep": {name: "process-sweep", hunt: processSweep, params: map[string]any{
		"target": "cmd/crashy", "space": sweepSpaceDesc(), "budget": 4 * 4 * sweepCalls,
		"algorithm": "exhaustive", "workers": sweepWorkers, "procs": sweepProcs,
		"timeout": sweepTimeout.String(), "store": "none"}, unlisted: true},
	"rpc-resume": {name: "rpc-resume", hunt: rpcResume, params: map[string]any{
		"target": modelTarget, "space": modelSpaceDesc(), "budget": rpcBudget,
		"legs": []int{rpcBudget / 2, rpcBudget - rpcBudget/2}, "algorithm": "fitness",
		"managers": rpcManagers, "concurrency": 1, "journal": "binary"}},
}

func modelSpaceDesc() string {
	return fmt.Sprintf("%s profile: %d functions × callNumber %d–%d", modelTarget, modelFuncs, modelCallLo, modelCallHi)
}

func sweepSpaceDesc() string {
	return fmt.Sprintf("testID : [ 0 , 3 ]  function : { open , read , malloc , write }  callNumber : [ 1 , %d ] ;", sweepCalls)
}

// window measures a hunt: wall clock, process CPU including reaped
// children, and the Go runtime's allocation and GC CPU.
type window struct {
	start       time.Time
	cpu         float64
	alloc       float64
	gcCPU, tCPU float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() (alloc, gcCPU, total float64) {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return val(0), val(1), val(2)
}

func processCPU() float64 {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(self.Utime) + tv(self.Stime) + tv(kids.Utime) + tv(kids.Stime)
}

func openWindow() *window {
	w := &window{cpu: processCPU()}
	w.alloc, w.gcCPU, w.tCPU = readRuntime()
	w.start = time.Now()
	return w
}

// close adds the window's figures to res.
func (w *window) close(res *huntResult) {
	res.HuntS += time.Since(w.start).Seconds()
	res.CPUS += processCPU() - w.cpu
	alloc, gc, total := readRuntime()
	res.AllocBytes += alloc - w.alloc
	if total > w.tCPU {
		// Averaged over legs by CPU time spent.
		prev := res.GCCPUShare * res.gcBase
		res.gcBase += total - w.tCPU
		res.GCCPUShare = (prev + gc - w.gcCPU) / res.gcBase
	}
}

// freshDir returns an empty state directory for one hunt.
func freshDir(env *benchEnv, name string) (string, error) {
	dir := filepath.Join(env.dir, "state", fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(filepath.Dir(dir), 0o755)
}

func (r *huntResult) gate(ok bool, format string, args ...any) {
	if !ok {
		r.Gates = append(r.Gates, fmt.Sprintf(format, args...))
	}
}

// finish computes the hunt's error count once gates are known.
func (r *huntResult) finish(harness int) *huntResult {
	r.Errors = errorCount(r.Attempted, r.Executed, harness, len(r.Gates) > 0)
	return r
}

func harnessErrors(res *afex.Result) int {
	n := 0
	for i := range res.Records {
		if isHarnessError(res.Records[i].ExitStatus) {
			n++
		}
	}
	return n
}

// tracedSession is afex.NewSession with timing wrappers on the store
// handed to the engine as Config.Store and on the explorer handed to
// core.NewEngine. It returns a nil store when opts has no StateDir.
func tracedSession(opts afex.Options, tr *tracer) (*core.Engine, *timedStore, error) {
	var ts *timedStore
	if opts.StateDir != "" {
		var st *store.Store
		var err error
		tr.timePhase("store.open_s", func() {
			st, err = store.OpenOptions(opts.StateDir, store.Options{Format: opts.JournalFormat, TailResume: opts.Resume})
			if err == nil {
				if err = st.Attach(&opts); err != nil {
					st.Close()
				}
			}
		})
		if err != nil {
			return nil, nil, err
		}
		ts = &timedStore{inner: st, t: tr}
		opts.Store = ts
	}
	ex, err := explore.New(opts.Algorithm, opts.Space, opts.Explore)
	if err == nil {
		var eng *core.Engine
		if eng, err = core.NewEngine(opts, &timedExplorer{inner: ex, t: tr}); err == nil {
			return eng, ts, nil
		}
	}
	if ts != nil {
		ts.inner.Close()
	}
	return nil, nil, err
}

// driveLocal drives eng to completion in the shape of Engine.RunWith:
// one worker leases a candidate, executes it and folds it; several
// workers lease batches, execute and precompute them, and hand them to
// one reducer that folds whatever has queued as one batch, unleasing
// what they hold once the session stops. Every call into the engine is
// timed.
func driveLocal(eng *core.Engine, tr *tracer, workers, batch int) []int32 {
	exec := &timedExecutor{inner: eng.LocalExecutor(), t: tr}
	lease := func(track int32, n int) ([]explore.Candidate, []string, int64) {
		t0 := tr.now()
		cands := eng.Lease(n)
		t1 := tr.now()
		keys := make([]string, len(cands))
		for i := range cands {
			keys[i] = cands[i].Point.Key()
		}
		s := span{name: spLease, start: t0, end: t1, track: track, n: int32(len(cands))}
		if len(keys) > 0 {
			s.key = keys[0]
		}
		tr.addBatch(s, keys)
		return cands, keys, t1
	}
	fold := func(track int32, ets []core.ExecutedTest, keys []string, leased, ready []int64) bool {
		f0 := tr.now()
		stop := eng.FoldBatch(ets)
		f1 := tr.now()
		tr.addFold(span{name: spFold, start: f0, end: f1, key: keys[0], track: track, n: int32(len(ets))}, keys, leased, ready)
		return stop
	}

	if workers <= 1 {
		life := tr.now()
		defer func() { tr.add(span{name: spWorker, start: life, end: tr.now(), track: 0}) }()
		for {
			cands, keys, leased := lease(0, 1)
			if len(cands) == 0 {
				if eng.Waiting() {
					time.Sleep(5 * time.Millisecond)
					continue
				}
				return []int32{0}
			}
			rec, out := exec.Execute(cands[0])
			et := core.ExecutedTest{C: cands[0], Rec: rec, Out: out}
			pre := tr.now()
			eng.Precompute(&et)
			ready := tr.now()
			tr.add(span{name: spPrecompute, start: pre, end: ready, key: keys[0], track: 0, n: 1})
			if fold(0, []core.ExecutedTest{et}, keys, []int64{leased}, []int64{ready}) {
				return []int32{0}
			}
		}
	}

	type item struct {
		et            core.ExecutedTest
		key           string
		leased, ready int64
	}
	// Sized like RunWith's channel: one full batch per worker.
	results := make(chan item, workers*batch)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(track int32) {
			defer wg.Done()
			life := tr.now()
			defer func() { tr.add(span{name: spWorker, start: life, end: tr.now(), track: track}) }()
			for {
				cands, keys, leased := lease(track, batch)
				if len(cands) == 0 {
					if eng.Waiting() {
						select {
						case <-done:
							return
						case <-time.After(5 * time.Millisecond):
						}
						continue
					}
					return
				}
				for i, c := range cands {
					select {
					case <-done:
						eng.Unlease(len(cands) - i)
						return
					default:
					}
					rec, out := exec.Execute(c)
					et := core.ExecutedTest{C: c, Rec: rec, Out: out}
					pre := tr.now()
					eng.Precompute(&et)
					ready := tr.now()
					results <- item{et: et, key: keys[i], leased: leased, ready: ready}
					tr.add2(span{name: spPrecompute, start: pre, end: ready, key: keys[i], track: track, n: 1},
						span{name: spHandoff, start: ready, end: tr.now(), key: keys[i], track: track, n: 1})
				}
			}
		}(int32(w))
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	reducer := int32(workers)
	life := tr.now()
	stopped := false
	pending := make([]item, 0, batch)
	ets := make([]core.ExecutedTest, 0, batch)
	for {
		w0 := tr.now()
		it, ok := <-results
		tr.add(span{name: spReducerIdle, start: w0, end: tr.now(), track: reducer})
		if !ok {
			break
		}
		pending = append(pending[:0], it)
	drain:
		for len(pending) < batch {
			select {
			case more, ok := <-results:
				if !ok {
					break drain
				}
				pending = append(pending, more)
			default:
				break drain
			}
		}
		ets = ets[:0]
		keys := make([]string, len(pending))
		leased := make([]int64, len(pending))
		ready := make([]int64, len(pending))
		for i, p := range pending {
			ets = append(ets, p.et)
			keys[i], leased[i], ready[i] = p.key, p.leased, p.ready
		}
		if fold(reducer, ets, keys, leased, ready) && !stopped {
			stopped = true
			close(done)
		}
	}
	tr.add(span{name: spReducer, start: life, end: tr.now(), track: reducer})
	tracks := make([]int32, workers+1)
	for i := range tracks {
		tracks[i] = int32(i)
	}
	return tracks
}

func modelOptions(env *benchEnv, tg *afex.System, space *afex.Space, dir string, workers int) afex.Options {
	return afex.Options{
		Target:        tg,
		Space:         space,
		Algorithm:     afex.FitnessGuided,
		Feedback:      true,
		Workers:       workers,
		Iterations:    modelBudget,
		StateDir:      dir,
		JournalFormat: afex.JournalBinary,
		Explore:       afex.ExploreOptions{Seed: env.seed},
	}
}

func profileModel(tr *tracer) (tg *afex.System, space *afex.Space, err error) {
	tr.timePhase("trace.profile_s", func() {
		if tg, err = afex.Target(modelTarget); err == nil {
			space = afex.SpaceFor(tg, modelFuncs, modelCallLo, modelCallHi)
		}
	})
	return tg, space, err
}

// modelHunt: afex's local session on the mysqld model with a fresh
// binary state directory.
func modelHunt(env *benchEnv, tr *tracer) *huntResult {
	res := &huntResult{Attempted: modelBudget}
	dir, err := freshDir(env, "model-hunt")
	if err != nil {
		res.gate(false, "state dir: %v", err)
		return res.finish(0)
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	tg, space, err := profileModel(tr)
	if err != nil {
		res.gate(false, "profile: %v", err)
		return res.finish(0)
	}
	opts := modelOptions(env, tg, space, dir, modelWorkers)
	var r *afex.Result
	var closeErr error
	if tr == nil {
		eng, cleanup, err := afex.NewSession(opts)
		if err != nil {
			res.gate(false, "session: %v", err)
			return res.finish(0)
		}
		res.SetupS = time.Since(start).Seconds()
		w := openWindow()
		r = eng.RunLocal()
		closeErr = cleanup()
		w.close(res)
	} else {
		eng, ts, err := tracedSession(opts, tr)
		if err != nil {
			res.gate(false, "session: %v", err)
			return res.finish(0)
		}
		res.SetupS = time.Since(start).Seconds()
		w := openWindow()
		tracks := driveLocal(eng, tr, modelWorkers, afex.DefaultBatch)
		r = eng.Finish()
		closeErr = ts.close()
		w.close(res)
		tr.addVal("store.journal_bytes", float64(dirBytes(dir, journalFiles...)))
		tr.addVal("store.snapshot_bytes", float64(dirBytes(dir, "snapshot.json")))
		res.Layers = tr.reduce(r.Executed, tracks)
	}
	res.Executed = r.Executed
	res.UniqueFailures, res.UniqueCrashes = r.UniqueFailures, r.UniqueCrashes
	res.gate(closeErr == nil, "store close: %v", closeErr)
	res.gate(r.Executed == modelBudget, "executed %d, budget %d", r.Executed, modelBudget)
	stats, err := afex.ReadStateStats(dir)
	res.gate(err == nil, "state stats: %v", err)
	if err == nil {
		res.gate(stats.Entries == r.Executed, "journal holds %d entries, executed %d", stats.Entries, r.Executed)
	}
	return res.finish(harnessErrors(r))
}

// processSweep: an exhaustive sweep of the crashy fixture on the
// process backend's warm worker pool; no state directory.
func processSweep(env *benchEnv, tr *tracer) *huntResult {
	want := 4 * 4 * sweepCalls
	res := &huntResult{Attempted: want}
	start := time.Now()
	var spec *afex.CommandSpec
	var space *afex.Space
	var err error
	tr.timePhase("trace.profile_s", func() {
		if spec, err = afex.ParseCommandSpec("cmd:" + env.crashy + " {test}"); err == nil {
			space, err = afex.ParseSpace(sweepSpaceDesc())
		}
	})
	if err != nil {
		res.gate(false, "space: %v", err)
		return res.finish(0)
	}
	opts := afex.Options{
		Backend:     afex.ProcessBackend,
		Command:     spec,
		Space:       space,
		Algorithm:   afex.Exhaustive,
		Workers:     sweepWorkers,
		Procs:       sweepProcs,
		ExecTimeout: sweepTimeout,
		Explore:     afex.ExploreOptions{Seed: env.seed},
	}
	var r *afex.Result
	var recycles int64
	if tr == nil {
		eng, _, err := afex.NewSession(opts)
		if err != nil {
			res.gate(false, "session: %v", err)
			return res.finish(0)
		}
		res.SetupS = time.Since(start).Seconds()
		w := openWindow()
		r = eng.RunLocal()
		w.close(res)
	} else {
		eng, _, err := tracedSession(opts, tr)
		if err != nil {
			res.gate(false, "session: %v", err)
			return res.finish(0)
		}
		res.SetupS = time.Since(start).Seconds()
		w := openWindow()
		tracks := driveLocal(eng, tr, sweepWorkers, afex.DefaultBatch)
		recycles = eng.Snapshot().PoolRecycles
		r = eng.Finish()
		w.close(res)
		tr.addVal("backend.recycles", float64(recycles))
		res.Layers = tr.reduce(r.Executed, tracks)
	}
	res.Executed = r.Executed
	res.UniqueFailures, res.UniqueCrashes = r.UniqueFailures, r.UniqueCrashes
	harness := harnessErrors(r)
	res.gate(int64(r.Executed) == space.Size() && r.Executed == want, "executed %d of %d points", r.Executed, space.Size())
	res.gate(r.UniqueFailures == 4, "%d unique failure clusters, want 4", r.UniqueFailures)
	res.gate(r.CrashIDs["crashy/unchecked-malloc"] > 0, "crash id crashy/unchecked-malloc missing (%v)", r.CrashIDs)
	res.gate(r.Hung == 1, "%d hangs, want 1", r.Hung)
	res.gate(harness == 0, "%d harness errors", harness)
	return res.finish(harness)
}

// transparencyCheck runs the same sequential model hunt untraced
// (afex.NewSession + RunLocal) and traced (timing wrappers + the
// benchmark's engine loop, driveLocal) and requires identical journals,
// entry by entry.
func transparencyCheck(env *benchEnv) *huntResult {
	res := &huntResult{Attempted: 2 * transparencyBudget}
	tg, space, err := profileModel(nil)
	if err != nil {
		res.gate(false, "profile: %v", err)
		return res.finish(0)
	}
	var journals [2][]afex.JournalEntry
	var results [2]*afex.Result
	for i, traced := range []bool{false, true} {
		dir, err := freshDir(env, fmt.Sprintf("transparency-%d", i))
		if err != nil {
			res.gate(false, "state dir: %v", err)
			return res.finish(0)
		}
		defer os.RemoveAll(dir)
		opts := modelOptions(env, tg, space, dir, 1)
		opts.Iterations = transparencyBudget
		var r *afex.Result
		var closeErr error
		if !traced {
			eng, cleanup, err := afex.NewSession(opts)
			if err != nil {
				res.gate(false, "session: %v", err)
				return res.finish(0)
			}
			r = eng.RunLocal()
			closeErr = cleanup()
		} else {
			tr := newTracer()
			eng, ts, err := tracedSession(opts, tr)
			if err != nil {
				res.gate(false, "session: %v", err)
				return res.finish(0)
			}
			driveLocal(eng, tr, 1, 1)
			r = eng.Finish()
			closeErr = ts.close()
		}
		results[i] = r
		res.Executed += r.Executed
		res.gate(closeErr == nil, "store close: %v", closeErr)
		if journals[i], err = afex.ReplayJournal(dir); err != nil {
			res.gate(false, "read journal: %v", err)
			return res.finish(0)
		}
	}
	res.gate(results[0].Algorithm == results[1].Algorithm &&
		reflect.DeepEqual(results[0].Sensitivities, results[1].Sensitivities) &&
		results[0].UniqueFailures == results[1].UniqueFailures,
		"results differ: %s %v %d vs %s %v %d", results[0].Algorithm, results[0].Sensitivities, results[0].UniqueFailures,
		results[1].Algorithm, results[1].Sensitivities, results[1].UniqueFailures)
	a, b := journals[0], journals[1]
	res.gate(len(a) == transparencyBudget && len(b) == len(a), "journals hold %d and %d entries, want %d", len(a), len(b), transparencyBudget)
	for i := 0; i < len(a) && i < len(b); i++ {
		if !reflect.DeepEqual(a[i], b[i]) {
			res.gate(false, "journals differ at entry %d: %s vs %s", i, a[i].Key(), b[i].Key())
			break
		}
	}
	res.Layers = map[string]float64{"trace.transparent_entries": float64(len(a))}
	return res.finish(0)
}
