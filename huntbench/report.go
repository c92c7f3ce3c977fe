package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef names a reported metric, its unit and which direction is
// better; BENCHMARK.json lists the same (see TestBenchmarkJSON).
type metricDef struct{ name, unit, better string }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics with their units, in print
// order. error_ratio is printed but not part of the JSON metrics: it
// is zero on a healthy run, so the result carries it as
// failed/attempted and as ok_ratio (1 - error_ratio).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"scenarios_per_s", "1/s", "higher"},
	{"unique_failures", "count", "higher"},
	{"unique_crashes", "count", "higher"},
	{"cpu_us_per_scenario", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_ratio", "ratio", "higher"},
}

// perLayer lists the traced run's per-layer metrics and their units.
var perLayer = []metricDef{
	{"trace.profile_s", "s", "lower"},
	{"trace.scenarios_per_s_untraced", "1/s", "higher"},
	{"trace.scenarios_per_s_traced", "1/s", "higher"},
	{"trace.overhead_share", "ratio", "lower"},
	{"trace.unattributed_share", "ratio", "lower"},
	{"explore.generate_s", "s", "lower"},
	{"explore.generate_us_per_candidate", "us", "lower"},
	{"explore.report_s", "s", "lower"},
	{"explore.candidates", "count", "higher"},
	{"core.lease_s", "s", "lower"},
	{"core.lease_calls", "count", "lower"},
	{"core.lease_batch_mean", "count", "higher"},
	{"core.precompute_s", "s", "lower"},
	{"core.fold_s", "s", "lower"},
	{"core.fold_batches", "count", "lower"},
	{"core.fold_batch_mean", "count", "higher"},
	{"core.fold_wait_s", "s", "lower"},
	{"core.fold_snapshot_s", "s", "lower"},
	{"core.snapshots", "count", "lower"},
	{"core.lease_to_fold_us.p50", "us", "lower"},
	{"core.lease_to_fold_us.p99", "us", "lower"},
	{"core.lease_to_fold_us.n", "count", "higher"},
	{"core.lease_to_fold_us.tail_pct", "pct", "higher"},
	{"backend.execute_s", "s", "lower"},
	{"backend.execute_us.p50", "us", "lower"},
	{"backend.execute_us.p99", "us", "lower"},
	{"backend.execute_us.n", "count", "higher"},
	{"backend.execute_us.tail_pct", "pct", "higher"},
	{"backend.harness_errors", "count", "lower"},
	{"backend.recycles", "count", "lower"},
	{"store.open_s", "s", "lower"},
	{"store.journal_enqueue_s", "s", "lower"},
	{"store.snapshot_write_s", "s", "lower"},
	{"store.snapshots", "count", "lower"},
	{"store.close_s", "s", "lower"},
	{"store.journal_bytes_per_scenario", "B", "lower"},
	{"store.snapshot_bytes", "B", "lower"},
	{"wire.next_batch_s", "s", "lower"},
	{"wire.report_batch_s", "s", "lower"},
	{"wire.round_trips", "count", "lower"},
	{"wire.lease_batch_mean", "count", "higher"},
	{"wire.bytes_per_scenario", "B", "lower"},
	{"wire.manager_idle_s", "s", "lower"},
	{"runtime.alloc_bytes_per_scenario", "B", "lower"},
	{"runtime.gc_cpu_fraction", "ratio", "lower"},
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func perHunt(hs []*huntResult, f func(*huntResult) float64) float64 {
	xs := make([]float64, 0, len(hs))
	for _, h := range hs {
		xs = append(xs, f(h))
	}
	return median(xs)
}

func sps(h *huntResult) float64 {
	if h.HuntS <= 0 {
		return 0
	}
	return float64(h.Executed) / h.HuntS
}

func endToEndValues(hs []*huntResult) map[string]float64 {
	m := map[string]float64{
		"setup_s":         perHunt(hs, func(h *huntResult) float64 { return h.SetupS }),
		"scenarios_per_s": perHunt(hs, sps),
		"unique_failures": perHunt(hs, func(h *huntResult) float64 { return float64(h.UniqueFailures) }),
		"unique_crashes":  perHunt(hs, func(h *huntResult) float64 { return float64(h.UniqueCrashes) }),
		"cpu_us_per_scenario": perHunt(hs, func(h *huntResult) float64 {
			if h.Executed == 0 {
				return 0
			}
			return h.CPUS * 1e6 / float64(h.Executed)
		}),
		"peak_rss_mb": perHunt(hs, func(h *huntResult) float64 { return h.PeakRSSMB }),
	}
	attempted, failed := tally(hs)
	if attempted > 0 {
		m["ok_ratio"] = 1 - float64(failed)/float64(attempted)
	}
	return m
}

func tally(hs []*huntResult) (attempted, failed int) {
	for _, h := range hs {
		attempted += h.Attempted
		failed += h.Errors
	}
	return
}

// layerValues takes the median of each per-layer figure over the
// traced hunts; runtime figures come from the untraced hunts, whose
// allocations the tracer does not inflate.
func layerValues(traced, plain []*huntResult) map[string]float64 {
	m := make(map[string]float64)
	for _, l := range perLayer {
		xs := make([]float64, 0, len(traced))
		for _, h := range traced {
			xs = append(xs, h.Layers[l.name])
		}
		m[l.name] = median(xs)
	}
	m["trace.scenarios_per_s_untraced"] = perHunt(plain, sps)
	m["trace.scenarios_per_s_traced"] = perHunt(traced, sps)
	if u := m["trace.scenarios_per_s_untraced"]; u > 0 {
		m["trace.overhead_share"] = 1 - m["trace.scenarios_per_s_traced"]/u
	}
	m["runtime.alloc_bytes_per_scenario"] = perHunt(plain, func(h *huntResult) float64 {
		if h.Executed == 0 {
			return 0
		}
		return h.AllocBytes / float64(h.Executed)
	})
	m["runtime.gc_cpu_fraction"] = perHunt(plain, func(h *huntResult) float64 { return h.GCCPUShare })
	return m
}

// printReport prints the fingerprint, every metric with its unit, the
// gates that failed, and last the JSON result line.
func printReport(out io.Writer, w *workload, env *benchEnv, rep *runReport, traced bool) {
	all := append(append([]*huntResult(nil), rep.plain...), rep.traced...)
	if rep.transparent != nil {
		all = append(all, rep.transparent)
	}
	attempted, failed := tally(all)
	correct := len(rep.errs) == 0 && len(rep.plain) > 0 && (!traced || len(rep.traced) > 0)
	var gates []string
	for _, h := range all {
		gates = append(gates, h.Gates...)
		correct = correct && len(h.Gates) == 0
	}
	if traced && w.name == "model-hunt" {
		correct = correct && rep.transparent != nil
	}

	fp := map[string]any{"workload": w.name, "seed": env.seed, "hunt_seeds": "1000×seed + hunt index", "params": w.params,
		"hunts":       map[string]int{"untraced": len(rep.plain), "traced": len(rep.traced)},
		"steal_share": rep.stealShare}
	for k, v := range sysInfo() {
		fp[k] = v
	}
	raw, _ := json.Marshal(fp)
	fmt.Fprintf(out, "# config %s\n", raw)

	metrics := make(map[string]metric)
	var order []metricDef
	var vals map[string]float64
	if traced {
		order, vals = perLayer, layerValues(rep.traced, rep.plain)
	} else {
		order, vals = endToEnd, endToEndValues(rep.plain)
	}
	for _, m := range order {
		metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
		fmt.Fprintf(out, "%-36s %16.6g %s\n", m.name, vals[m.name], m.unit)
	}
	ratio := 0.0
	if attempted > 0 {
		ratio = float64(failed) / float64(attempted)
	}
	fmt.Fprintf(out, "%-36s %16.6g %s (%d of %d)\n", "error_ratio", ratio, "ratio", failed, attempted)
	if rep.transparent != nil {
		fmt.Fprintf(out, "%-36s %16d entries, identical=%v\n", "transparency_check",
			int(rep.transparent.Layers["trace.transparent_entries"]), len(rep.transparent.Gates) == 0)
	}
	sort.Strings(gates)
	for _, g := range gates {
		fmt.Fprintf(out, "# gate failed: %s\n", g)
	}
	for _, e := range rep.errs {
		fmt.Fprintf(out, "# error: %s\n", e)
	}
	if attempted == 0 {
		attempted = 1 // the contract wants at least one; failed then says nothing ran
		failed = 1
		correct = false
	}
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: metrics}
	line, _ := json.Marshal(res)
	fmt.Fprintln(out, string(line))
}
