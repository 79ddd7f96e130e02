package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if got := sortedKeys(keys); !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", got, want)
	}
	var b benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricNameCharset(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q outside [A-Za-z0-9_.-], or too long", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q outside [A-Za-z0-9_/%%.-] or too long", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, bad := range []string{"", "_x", "a b", "a/b", strings.Repeat("a", 65)} {
		if nameRE.MatchString(bad) {
			t.Errorf("name pattern accepts %q", bad)
		}
	}
}

// TestBenchmarkFileMatches holds BENCHMARK.json equal to the metric and
// workload tables the benchmark measures.
func TestBenchmarkFileMatches(t *testing.T) {
	b := loadBenchmarkFile(t)
	var e2e []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v\nwant %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the measured layer metrics")
	}
	if b.EndToEnd[0].Name != "setup_s" || b.EndToEnd[0].Unit != "s" {
		t.Errorf("setup_s must be an end-to-end metric in seconds")
	}
	for _, m := range b.EndToEnd {
		if m.Name != "setup_s" && m.Bound > b.EndToEnd[0].Bound {
			t.Errorf("%s bound %v exceeds setup_s's", m.Name, m.Bound)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads listed, %d implemented", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q not implemented", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if !reflect.DeepEqual(b.Paths, []string{"perfbench"}) || b.Command[1] != "perfbench/run.sh" {
		t.Errorf("command %v / paths %v do not name this directory", b.Command, b.Paths)
	}
}
