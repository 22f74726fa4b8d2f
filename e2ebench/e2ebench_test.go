package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the program must
// agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestShortPass runs a short pass of every workload, untraced and
// traced, and checks that each reports exactly the metrics
// BENCHMARK.json names, with their units, and passes the correctness
// gate.
func TestShortPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serving stack for about a minute")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[true][m.Name] = m.Unit
	}

	o := options{seed: 7, window: 6 * time.Second, dir: t.TempDir()}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := run(w, o, traced)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			got := map[string]string{}
			for _, m := range rep.metrics {
				got[m.name] = m.unit
			}
			for name, unit := range want[traced] {
				if u, ok := got[name]; !ok {
					t.Errorf("%s (traced %v): metric %s missing", w.name, traced, name)
				} else if u != unit {
					t.Errorf("%s (traced %v): %s in %q, BENCHMARK.json says %q", w.name, traced, name, u, unit)
				}
			}
			for name := range got {
				if _, ok := want[traced][name]; !ok {
					t.Errorf("%s (traced %v): metric %s is not in BENCHMARK.json", w.name, traced, name)
				}
			}
			if !rep.correct() {
				t.Errorf("%s (traced %v): correctness gate failed: %d of %d frames failed: %v",
					w.name, traced, rep.failed, rep.attempted, rep.failures)
			}
		}
	}
}
