package main

// The traced run's instrumentation. Spans are recorded in memory from
// the benchmark's own code, around calls into afex's public seams — the
// explorer handed to core.NewEngine, the Executor driveLocal calls,
// Config.Store, and the coordinator's exported RPC methods — and
// reduced to per-layer figures when the hunt ends. Nothing inside afex
// is changed or observed from within.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"afex/internal/core"
	"afex/internal/explore"
	"afex/internal/prog"
	"afex/internal/store"
)

// Span names. Batch spans (lease, fold, RPC calls) carry the key of
// their first scenario; per-scenario spans carry their scenario's
// Point.Key().
const (
	spWorker      = "core.worker"        // a worker's lifetime
	spReducer     = "core.reducer"       // the reducer's lifetime
	spLease       = "core.lease"         // Engine.Lease
	spPrecompute  = "core.precompute"    // Engine.Precompute
	spHandoff     = "core.handoff"       // worker blocked handing a test to the reducer
	spFold        = "core.fold"          // Engine.FoldBatch / Fold
	spReducerIdle = "core.reducer_idle"  // reducer waiting for executed tests
	spGenerate    = "explore.generate"   // Explorer.Next / BatchNext
	spReport      = "explore.report"     // Explorer.Report / ReportBatch
	spExecute     = "backend.execute"    // Executor.Execute
	spJournal     = "store.journal"      // Store.JournalRecord
	spSnapshot    = "store.snapshot"     // Store.SnapshotSession
	spNextBatch   = "wire.next_batch"    // Coordinator.NextBatch
	spReportBatch = "wire.report_batch"  // Coordinator.ReportBatch
	spRPCOther    = "wire.hello_or_beat" // Coordinator.Hello / Heartbeat
	spLeg         = "wire.leg"           // one rpc-resume leg, first lease to closed store
)

// parentKind names the span kind each child kind nests in.
var parentKind = map[string][]string{
	spGenerate: {spLease, spNextBatch},
	spReport:   {spFold, spReportBatch},
	spJournal:  {spFold, spReportBatch},
	spSnapshot: {spFold, spReportBatch},
}

type span struct {
	name       string
	start, end int64 // ns since the tracer's origin
	key        string
	// track is the goroutine lane (worker index, or the reducer's
	// lane); -1 when the recording code cannot know it.
	track int32
	// n counts the items a batch span carried.
	n int32
}

func (s span) iv() interval { return interval{s.start, s.end} }

// tracer collects spans and per-run values in memory. Spans recorded
// by the explorer and store wrappers, which run under the engine's own
// locks, go to a buffer with a mutex of their own, so driveLocal's
// goroutines never delay a critical section of the engine.
type tracer struct {
	origin time.Time

	imu       sync.Mutex
	inner     []span
	innerVals map[string]float64

	mu    sync.Mutex
	spans []span
	// batchOf maps a batch span kind and a scenario key to the index of
	// the batch span that carried the scenario.
	batchOf map[string]map[string]int
	// vals accumulates figures measured outside spans (set-up phases,
	// counters, latencies).
	vals    map[string]float64
	samples map[string][]float64

	snapWG sync.WaitGroup
}

func newTracer() *tracer {
	return &tracer{
		origin:    time.Now(),
		batchOf:   make(map[string]map[string]int),
		vals:      make(map[string]float64),
		innerVals: make(map[string]float64),
		samples:   make(map[string][]float64),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// addInner records a span from a wrapper that runs under an engine
// lock, adding v to the named value.
func (t *tracer) addInner(s span, name string, v float64) {
	t.imu.Lock()
	t.inner = append(t.inner, s)
	if name != "" {
		t.innerVals[name] += v
	}
	t.imu.Unlock()
}

// addBatch records a batch span and maps each of its scenario keys to
// it, so per-scenario spans can find the batch they belong to.
func (t *tracer) addBatch(s span, keys []string) {
	t.mu.Lock()
	t.addBatchLocked(s, keys)
	t.mu.Unlock()
}

func (t *tracer) addBatchLocked(s span, keys []string) {
	t.spans = append(t.spans, s)
	i := len(t.spans) - 1
	m := t.batchOf[s.name]
	if m == nil {
		m = make(map[string]int)
		t.batchOf[s.name] = m
	}
	for _, k := range keys {
		m[k] = i
	}
}

// add2 records two spans under one lock.
func (t *tracer) add2(a, b span) {
	t.mu.Lock()
	t.spans = append(t.spans, a, b)
	t.mu.Unlock()
}

// addFold records a fold batch span with each folded test's wait from
// precompute to the fold and its latency from lease to folded.
func (t *tracer) addFold(s span, keys []string, leased, ready []int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addBatchLocked(s, keys)
	for j := range keys {
		t.samples["core.fold_wait_s"] = append(t.samples["core.fold_wait_s"], float64(s.start-ready[j])/1e9)
		t.samples["core.lease_to_fold_us"] = append(t.samples["core.lease_to_fold_us"], float64(s.end-leased[j])/1e3)
	}
}

func (t *tracer) addVal(name string, v float64) {
	t.mu.Lock()
	t.vals[name] += v
	t.mu.Unlock()
}

// addSpanSample records a span and a sample under one lock.
func (t *tracer) addSpanSample(s span, name string, v float64) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// timePhase runs f and adds its wall clock, in seconds, to name.
func (t *tracer) timePhase(name string, f func()) {
	if t == nil {
		f()
		return
	}
	t0 := time.Now()
	f()
	t.addVal(name, time.Since(t0).Seconds())
}

// timedExplorer forwards every explorer capability the engine or a
// wrapping explorer may probe for, recording generate and report
// spans. Each optional method falls back exactly as the caller would
// for an explorer without it, so wrapping changes timing only (the
// transparency check proves this on the journal).
type timedExplorer struct {
	inner explore.Explorer
	t     *tracer
}

func (x *timedExplorer) gen(t0 int64, cs []explore.Candidate) {
	s := span{name: spGenerate, start: t0, end: x.t.now(), track: -1, n: int32(len(cs))}
	if len(cs) > 0 {
		s.key = cs[0].Point.Key()
	}
	x.t.addInner(s, "explore.candidates", float64(len(cs)))
}

func (x *timedExplorer) rep(t0 int64, key string, n int) {
	x.t.addInner(span{name: spReport, start: t0, end: x.t.now(), key: key, track: -1, n: int32(n)}, "", 0)
}

func (x *timedExplorer) Next() (explore.Candidate, bool) {
	t0 := x.t.now()
	c, ok := x.inner.Next()
	if ok {
		x.gen(t0, []explore.Candidate{c})
	} else {
		x.gen(t0, nil)
	}
	return c, ok
}

func (x *timedExplorer) BatchNext(n int) []explore.Candidate {
	t0 := x.t.now()
	cs := explore.BatchNext(x.inner, n)
	x.gen(t0, cs)
	return cs
}

func (x *timedExplorer) Report(c explore.Candidate, impact, fitness float64) {
	t0 := x.t.now()
	x.inner.Report(c, impact, fitness)
	x.rep(t0, c.Point.Key(), 1)
}

func (x *timedExplorer) ReportBatch(fb []explore.Feedback) {
	t0 := x.t.now()
	explore.ReportBatch(x.inner, fb)
	key := ""
	if len(fb) > 0 {
		key = fb[0].C.Point.Key()
	}
	x.rep(t0, key, len(fb))
}

func (x *timedExplorer) Name() string {
	if n, ok := x.inner.(explore.Named); ok {
		return n.Name()
	}
	return ""
}

func (x *timedExplorer) Prefetchable() bool { return explore.IsPrefetchable(x.inner) }

func (x *timedExplorer) Executed() int {
	if c, ok := x.inner.(explore.Countable); ok {
		return c.Executed()
	}
	return 0
}

func (x *timedExplorer) HistorySize() int {
	if c, ok := x.inner.(explore.Countable); ok {
		return c.HistorySize()
	}
	return 0
}

func (x *timedExplorer) Skip(c explore.Candidate) {
	if s, ok := x.inner.(explore.Skipper); ok {
		s.Skip(c)
		return
	}
	x.inner.Report(c, 0, 0)
}

func (x *timedExplorer) Sensitivities(sub int) []float64 {
	if s, ok := x.inner.(explore.Sensitive); ok {
		return s.Sensitivities(sub)
	}
	return nil
}

func (x *timedExplorer) ArmStats() []explore.ArmStat {
	if a, ok := x.inner.(explore.ArmReporter); ok {
		return a.ArmStats()
	}
	return nil
}

func (x *timedExplorer) ExportState() *explore.State {
	if s, ok := x.inner.(explore.StatefulExplorer); ok {
		return s.ExportState()
	}
	return nil
}

func (x *timedExplorer) ImportState(st *explore.State) error {
	if s, ok := x.inner.(explore.StatefulExplorer); ok {
		return s.ImportState(st)
	}
	return fmt.Errorf("huntbench: explorer has no importable state")
}

// timedExecutor records one backend.execute span per scenario and
// counts harness failures.
type timedExecutor struct {
	inner core.Executor
	t     *tracer
}

func (x *timedExecutor) Execute(c explore.Candidate) (core.Record, prog.Outcome) {
	t0 := x.t.now()
	rec, out := x.inner.Execute(c)
	t1 := x.t.now()
	x.t.addSpanSample(span{name: spExecute, start: t0, end: t1, key: c.Point.Key(), track: -1, n: 1},
		"backend.execute_us", float64(t1-t0)/1e3)
	if isHarnessError(rec.ExitStatus) {
		x.t.addVal("backend.harness_errors", 1)
	}
	return rec, out
}

// timedStore wraps the state store handed to the engine as
// Config.Store. JournalRecord and SnapshotSession only enqueue; the
// snapshot's write happens on the store's writer goroutine, so its
// latency is taken by a goroutine that waits (Store.Sync) until
// everything enqueued up to the snapshot is on disk.
type timedStore struct {
	inner *store.Store
	t     *tracer
}

func (s *timedStore) JournalRecord(c explore.Candidate, rec core.Record) {
	t0 := s.t.now()
	s.inner.JournalRecord(c, rec)
	s.t.addInner(span{name: spJournal, start: t0, end: s.t.now(), key: c.Point.Key(), track: -1, n: 1}, "", 0)
}

func (s *timedStore) SnapshotSession(st *core.SessionState) {
	t0 := s.t.now()
	s.inner.SnapshotSession(st)
	t1 := s.t.now()
	s.t.addInner(span{name: spSnapshot, start: t0, end: t1, track: -1, n: 1}, "store.snapshots", 1)
	s.t.snapWG.Add(1)
	go func() {
		defer s.t.snapWG.Done()
		_ = s.inner.Sync() // a writer error surfaces again from Close
		s.t.addVal("store.snapshot_write_s", float64(s.t.now()-t1)/1e9)
	}()
}

// close waits for pending snapshot-latency probes, then closes the
// store, timing the writer's backlog drain.
func (s *timedStore) close() error {
	s.t.snapWG.Wait()
	var err error
	s.t.timePhase("store.close_s", func() { err = s.inner.Close() })
	return err
}

// dirBytes sums the sizes of the named files in dir (missing files
// count zero).
func dirBytes(dir string, names ...string) int64 {
	var n int64
	for _, name := range names {
		if fi, err := os.Stat(filepath.Join(dir, name)); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// journalFiles are a binary state directory's journal segments and
// side index.
var journalFiles = []string{"journal.afexj", "archive.afexj", "journal.idx"}

// reduce turns the recorded spans into per-layer figures. tracks lists
// the goroutine lanes whose unattributed share is reported; nil
// reports the share of the legs' wall clock that no coordinator-side
// span covers.
func (t *tracer) reduce(executed int, tracks []int32) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.imu.Lock()
	defer t.imu.Unlock()
	m := make(map[string]float64)
	for k, v := range t.vals {
		m[k] = v
	}
	for k, v := range t.innerVals {
		m[k] += v
	}
	// Batch spans are indexed in t.spans, so wrapper spans go after.
	t.spans = append(t.spans, t.inner...)
	t.inner = nil
	// Link each child span to its batch span: by scenario key when
	// the batch registered it, else by time containment.
	parent := make([]int, len(t.spans))
	byName := make(map[string][]int)
	for i, s := range t.spans {
		byName[s.name] = append(byName[s.name], i)
		parent[i] = -1
	}
	for i, s := range t.spans {
		for _, pk := range parentKind[s.name] {
			if p, ok := t.batchOf[pk][s.key]; ok && s.key != "" {
				parent[i] = p
				break
			}
			if p := containing(t.spans, byName[pk], s); p >= 0 {
				parent[i] = p
				break
			}
		}
	}
	children := make(map[int][]interval)
	for i, p := range parent {
		if p >= 0 {
			children[p] = append(children[p], t.spans[i].iv())
		}
	}
	self := func(i int) float64 {
		return float64(selfTime(t.spans[i].iv(), children[i])) / 1e9
	}
	sum := func(name string) (total float64, n int, items int) {
		for _, i := range byName[name] {
			s := t.spans[i]
			total += float64(s.end-s.start) / 1e9
			n++
			items += int(s.n)
		}
		return
	}
	hasSnapshot := make(map[int]bool)
	for _, i := range byName[spSnapshot] {
		if parent[i] >= 0 {
			hasSnapshot[parent[i]] = true
		}
	}

	m["explore.generate_s"], _, _ = sum(spGenerate)
	m["explore.report_s"], _, _ = sum(spReport)
	if c := m["explore.candidates"]; c > 0 {
		m["explore.generate_us_per_candidate"] = m["explore.generate_s"] * 1e6 / c
	}
	_, calls, leased := sum(spLease)
	m["core.lease_calls"] = float64(calls)
	nonEmpty := 0
	for _, i := range byName[spLease] {
		m["core.lease_s"] += self(i)
		if t.spans[i].n > 0 {
			nonEmpty++
		}
	}
	if nonEmpty > 0 {
		m["core.lease_batch_mean"] = float64(leased) / float64(nonEmpty)
	}
	m["core.precompute_s"], _, _ = sum(spPrecompute)
	_, folds, folded := sum(spFold)
	m["core.fold_batches"] = float64(folds)
	if folds > 0 {
		m["core.fold_batch_mean"] = float64(folded) / float64(folds)
	}
	for _, i := range byName[spFold] {
		st := self(i)
		m["core.fold_s"] += st
		if hasSnapshot[i] {
			m["core.fold_snapshot_s"] += st
		}
	}
	m["core.snapshots"] = float64(len(byName[spSnapshot]))
	m["backend.execute_s"], _, _ = sum(spExecute)
	m["store.journal_enqueue_s"], _, _ = sum(spJournal)
	m["wire.next_batch_s"], _, _ = sum(spNextBatch)
	m["wire.report_batch_s"], _, _ = sum(spReportBatch)
	_, nb, leasedWire := sum(spNextBatch)
	_, rb, _ := sum(spReportBatch)
	_, other, _ := sum(spRPCOther)
	m["wire.round_trips"] = float64(nb + rb + other)
	nonEmpty = 0
	for _, i := range byName[spNextBatch] {
		if t.spans[i].n > 0 {
			nonEmpty++
		}
	}
	if nonEmpty > 0 {
		m["wire.lease_batch_mean"] = float64(leasedWire) / float64(nonEmpty)
	}
	for name, xs := range t.samples {
		if name == "core.fold_wait_s" {
			for _, x := range xs {
				m[name] += x
			}
			continue
		}
		putLatency(m, name, xs)
	}
	if executed > 0 {
		if b := m["wire.bytes"]; b > 0 {
			m["wire.bytes_per_scenario"] = b / float64(executed)
		}
		if b := m["store.journal_bytes"]; b > 0 {
			m["store.journal_bytes_per_scenario"] = b / float64(executed)
		}
	}
	delete(m, "wire.bytes")
	delete(m, "store.journal_bytes")
	m["trace.unattributed_share"] = t.unattributed(byName, parent, tracks)
	return m
}

// containing returns the index (among cands) of a span that contains
// s in time, or -1.
func containing(spans []span, cands []int, s span) int {
	// cands are in recording order, which is end order per goroutine;
	// a linear scan from the back finds recent parents first.
	for j := len(cands) - 1; j >= 0; j-- {
		p := spans[cands[j]]
		if p.start <= s.start && s.end <= p.end {
			return cands[j]
		}
	}
	return -1
}

// unattributed returns the share of the tracks' wall clock that no
// layer span covers. A span recorded without a track inherits its
// batch's track (an executed scenario inherits its lease's worker).
func (t *tracer) unattributed(byName map[string][]int, parent []int, tracks []int32) float64 {
	if tracks == nil {
		var ivs []interval
		for _, name := range []string{spNextBatch, spReportBatch, spRPCOther} {
			for _, i := range byName[name] {
				ivs = append(ivs, t.spans[i].iv())
			}
		}
		var total, cov int64
		for _, i := range byName[spLeg] {
			leg := t.spans[i]
			total += leg.end - leg.start
			cov += covered(leg.start, leg.end, ivs)
		}
		if total == 0 {
			return 0
		}
		return 1 - float64(cov)/float64(total)
	}
	leaseOf := t.batchOf[spLease]
	perTrack := make(map[int32][]interval)
	lifetime := make(map[int32]interval)
	for i, s := range t.spans {
		tr := s.track
		if tr < 0 {
			switch {
			case parent[i] >= 0:
				tr = t.spans[parent[i]].track
			case leaseOf != nil:
				if l, ok := leaseOf[s.key]; ok {
					tr = t.spans[l].track
				}
			}
		}
		if tr < 0 {
			continue
		}
		if s.name == spWorker || s.name == spReducer {
			lifetime[tr] = s.iv()
			continue
		}
		perTrack[tr] = append(perTrack[tr], s.iv())
	}
	var total, cov int64
	ids := append([]int32(nil), tracks...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, tr := range ids {
		life, ok := lifetime[tr]
		if !ok {
			continue
		}
		total += life.end - life.start
		cov += covered(life.start, life.end, perTrack[tr])
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(cov)/float64(total)
}

// isHarnessError reports whether an exit status is a failure of the
// execution harness rather than a finding about the target.
func isHarnessError(status string) bool {
	return status == "worker-lost" || status == "runner-closed" ||
		len(status) >= 6 && status[:6] == "spawn:"
}
