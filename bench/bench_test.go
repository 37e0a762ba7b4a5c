package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// benchmarkJSON mirrors the keys of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and spec.go spelled
// identically.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) || !reflect.DeepEqual(b.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("paths %v, command %v", b.Paths, b.Command)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in JSON, %d in spec.go", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: JSON has %q, spec.go %q", i, b.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("JSON has %d+%d metrics, spec.go %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		j := b.EndToEnd[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better || j.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: JSON %+v, spec.go %+v", i, j, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range perLayer {
		j := b.PerLayer[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
			t.Errorf("per-layer metric %d: JSON %+v, spec.go %+v", i, j, m)
		}
	}
}

// TestSmoke runs every workload at tiny scale, end to end twice and traced
// once. Every metric of the tables must come out finite, no answer may be
// wrong, and on a single client with a fixed operation count the page
// and log counts repeat exactly and nothing ever waits for a lock.
func TestSmoke(t *testing.T) {
	sc := scales["tiny"]
	work := t.TempDir()
	for i := range workloads {
		spec := &workloads[i]
		var pages, logKB [2]float64
		for run := range pages {
			res, err := runOne(spec, false, sc, 1, time.Second, work, "")
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Fatalf("%s: %d of %d failed: %v", spec.Name, res.Failed, res.Attempted, res.Errors)
			}
			pages[run], logKB[run] = res.Metrics["pages_per_op"], res.Metrics["log_kb_per_op"]
		}
		if spec.Clients == 1 && (pages[0] != pages[1] || logKB[0] != logKB[1]) {
			t.Errorf("%s: pages_per_op %v then %v, log_kb_per_op %v then %v, want identical",
				spec.Name, pages[0], pages[1], logKB[0], logKB[1])
		}
		res, err := runOne(spec, true, sc, 1, time.Second, work, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Fatalf("%s traced: %d of %d failed: %v", spec.Name, res.Failed, res.Attempted, res.Errors)
		}
		if spec.Clients == 1 && res.Metrics["engine.lock_wait_share"] != 0 {
			t.Errorf("%s: engine.lock_wait_share = %v on one client, want 0", spec.Name, res.Metrics["engine.lock_wait_share"])
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
}
