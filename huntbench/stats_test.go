package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n     int
		maxP  float64
		wantP float64
		wantV float64
		ok    bool
	}{
		// 1000 samples: p99 is rank 990, ten samples beyond it.
		{1000, 99, 99, 990, true},
		// 999 samples: p99 (rank 990) has only nine beyond; p90 holds.
		{999, 99, 90, 900, true},
		// 100 samples: p90 is rank 90, exactly ten beyond.
		{100, 99, 90, 90, true},
		// 20 samples: p50 is rank 10, ten beyond; p90 has two.
		{20, 99, 50, 10, true},
		// 19 samples: even the median has only nine beyond.
		{19, 99, 0, 0, false},
		// maxP caps the ladder even when more samples would allow more.
		{100000, 99, 99, 99000, true},
		{100000, 50, 50, 50000, true},
	}
	for _, c := range cases {
		p, v, ok := tailPercentile(seq(c.n), c.maxP)
		if p != c.wantP || v != c.wantV || ok != c.ok {
			t.Errorf("n=%d maxP=%g: got p%g=%g ok=%v, want p%g=%g ok=%v", c.n, c.maxP, p, v, ok, c.wantP, c.wantV, c.ok)
		}
	}
}

func TestPutLatencyStatesCountAndPercentile(t *testing.T) {
	m := map[string]float64{}
	putLatency(m, "x", seq(500))
	if m["x.n"] != 500 || m["x.p50"] != 250 || m["x.p99"] != 450 || m["x.tail_pct"] != 90 {
		t.Fatalf("got %v", m)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"nested child inside child", []interval{{10, 60}, {20, 30}}, 50},
		{"overlapping", []interval{{10, 40}, {30, 70}}, 40},
		{"child sticking out of parent", []interval{{-10, 10}, {90, 120}}, 80},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
		{"outside entirely", []interval{{100, 110}, {-20, 0}}, 100},
		{"identical", []interval{{10, 20}, {10, 20}}, 90},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestErrorCount(t *testing.T) {
	cases := []struct {
		name                         string
		attempted, executed, harness int
		gateFailed                   bool
		want                         int
	}{
		{"clean", 100, 100, 0, false, 0},
		{"never folded", 100, 90, 0, false, 10},
		{"harness exits", 100, 100, 3, false, 3},
		{"both", 100, 95, 2, false, 7},
		{"gate failed", 100, 100, 0, true, 100},
		{"overshoot does not go negative", 100, 101, 0, false, 0},
	}
	for _, c := range cases {
		if got := errorCount(c.attempted, c.executed, c.harness, c.gateFailed); got != c.want {
			t.Errorf("%s: %d errors, want %d", c.name, got, c.want)
		}
	}
}

func TestErrorRatioOverHunts(t *testing.T) {
	hs := []*huntResult{
		{Attempted: 100, Executed: 100},
		{Attempted: 100, Executed: 100, Errors: 4},
	}
	attempted, failed := tally(hs)
	if attempted != 200 || failed != 4 {
		t.Fatalf("tally = %d, %d", attempted, failed)
	}
	if got := endToEndValues(hs)["ok_ratio"]; got != 0.98 {
		t.Fatalf("ok_ratio = %g, want 0.98", got)
	}
}

func TestIsHarnessError(t *testing.T) {
	for status, want := range map[string]bool{
		"":                  false,
		"exit:1":            false,
		"signal:killed":     false,
		"timeout":           false,
		"worker-lost":       true,
		"runner-closed":     true,
		"spawn:fork failed": true,
		"spawn":             false,
	} {
		if got := isHarnessError(status); got != want {
			t.Errorf("isHarnessError(%q) = %v, want %v", status, got, want)
		}
	}
}

// TestTracingTransparent checks that the timing wrappers and the
// benchmark's engine loop leave a sequential session bit-for-bit
// unchanged.
func TestTracingTransparent(t *testing.T) {
	res := transparencyCheck(&benchEnv{seed: 7, dir: t.TempDir()})
	if len(res.Gates) > 0 {
		t.Fatal(res.Gates)
	}
	if res.Layers["trace.transparent_entries"] != transparencyBudget {
		t.Fatalf("compared %v entries", res.Layers["trace.transparent_entries"])
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the benchmark
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark prints %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	var listed []string
	for _, n := range workloadNames() {
		if !workloads[n].unlisted {
			listed = append(listed, n)
		}
	}
	if !reflect.DeepEqual(names, listed) {
		t.Fatalf("BENCHMARK.json workloads %v, registered %v", names, listed)
	}
}
