package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmpc/internal/mpc"
)

// tiny returns the workload at a size that runs in well under a second.
func tiny(t *testing.T, name string) *workload {
	t.Helper()
	w, err := newWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.n, w.updates = 600, 300
	if w.window > 0 {
		w.n = 2000
	}
	return w
}

func TestTinyRunsReportEveryMetric(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			w := tiny(t, name)
			out := t.TempDir()
			r, err := run(w, 7, 0, traced, out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v failed=%d attempted=%d: %v", name, traced, r.Correct, r.Failed, r.Attempted, r.errs)
			}
			table := endToEnd
			if traced {
				table = perLayer
			}
			var buf strings.Builder
			report(&buf, name, r)
			if len(r.Metrics) != len(table) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(r.Metrics), len(table))
			}
			for _, m := range table {
				if v, ok := r.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m.Name, v, m.Unit)
				}
				if !strings.Contains(buf.String(), m.Name) || !strings.Contains(buf.String(), " "+m.Unit) {
					t.Errorf("%s traced=%v: report does not print %s with unit %s", name, traced, m.Name, m.Unit)
				}
			}
			if !strings.Contains(buf.String(), "error_rate 0\n") {
				t.Errorf("%s traced=%v: report does not show error_rate 0:\n%s", name, traced, buf.String())
			}
			if traced {
				checkSpanFile(t, filepath.Join(out, "perfbench-spans-"+name+"-seed7.jsonl"))
			}
		}
	}
}

// checkSpanFile checks that every window's self time plus its children
// is its wall time, with each child inside the window.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type rec struct {
		Run    string `json:"run"`
		ID     int32  `json:"id"`
		Parent int32  `json:"parent"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Self   int64  `json:"self_ns"`
	}
	var spans []rec
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s rec
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	children := make(map[int32]int64)
	names := map[string]bool{}
	for _, s := range spans {
		names[s.Name] = true
		if s.Run != spans[0].Run {
			t.Fatalf("span %d has run %q, span 0 %q", s.ID, s.Run, spans[0].Run)
		}
		if s.Parent >= 0 {
			p := spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				t.Fatalf("span %d %s lies outside its parent %s", s.ID, s.Name, p.Name)
			}
			children[s.Parent] += s.End - s.Start
		}
	}
	windows := 0
	for _, s := range spans {
		if s.Name != "window" {
			continue
		}
		windows++
		if s.Self < 0 || s.Self+children[s.ID] != s.End-s.Start {
			t.Fatalf("window %d: self %d + children %d != wall %d", s.ID, s.Self, children[s.ID], s.End-s.Start)
		}
	}
	if windows == 0 {
		t.Fatal("no window spans")
	}
	for _, n := range []string{"workload", "setup", "window", "dmpc.push", "replay", "sched.claims", "sched.firstwave"} {
		if !names[n] {
			t.Errorf("%s: no %s span", path, n)
		}
	}
}

// TestExactCountsRepeat checks that the exact counts repeat across two
// runs and across the sim and parallel backends.
func TestExactCountsRepeat(t *testing.T) {
	exact := []string{"rounds_per_op", "words_per_op", "latency_p50_rounds", "latency_p99_rounds"}
	for _, name := range workloadNames {
		var first *result
		var firstPass *pass
		for i, be := range []mpc.BackendKind{mpc.BackendParallel, mpc.BackendParallel, mpc.BackendSim} {
			w := tiny(t, name)
			w.backend = be
			r, err := run(w, 3, 0, false, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct {
				t.Fatalf("%s on %v: %v", name, be, r.errs)
			}
			ops, arr := w.generate(3)
			p, err := runPass(w, ops, arr, nil)
			if err != nil {
				t.Fatal(err)
			}
			if p.model.violations != 0 {
				t.Errorf("%s on %v: %d violations", name, be, p.model.violations)
			}
			if i == 0 {
				first, firstPass = r, p
				continue
			}
			for _, m := range exact {
				if r.Metrics[m] != first.Metrics[m] {
					t.Errorf("%s run %d on %v: %s = %v, first run %v", name, i, be, m, r.Metrics[m].Value, first.Metrics[m].Value)
				}
			}
			if !samePass(firstPass, p) {
				t.Errorf("%s run %d on %v: answers or model counts differ from the first run: %+v vs %+v", name, i, be, p.model, firstPass.model)
			}
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloadNames))
	}
	for i, wl := range b.Workloads {
		if wl.Name != workloadNames[i] {
			t.Errorf("workload %d = %s, want %s", i, wl.Name, workloadNames[i])
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, tables %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		j := b.EndToEnd[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better || j.Bound != m.Bound {
			t.Errorf("end_to_end[%d] = %+v, table %+v", i, j, m)
		}
	}
	for i, m := range perLayer {
		j := b.PerLayer[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
			t.Errorf("per_layer[%d] = %+v, table %+v", i, j, m)
		}
	}
}
