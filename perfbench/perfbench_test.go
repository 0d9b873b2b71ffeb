package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// declared is the part of BENCHMARK.json the self-test checks against.
type declared struct {
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

// TestSelfTest runs every workload end to end at a tiny size, with and
// without tracing, and checks that each run passes its oracle and prints
// exactly the metrics BENCHMARK.json declares, with their units.
func TestSelfTest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != 3 {
		t.Fatalf("BENCHMARK.json declares %d workloads, want steady, incident and offline", len(decl.Workloads))
	}
	wantUnits := func(ms []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) map[string]string {
		out := make(map[string]string)
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	e2e, layers := wantUnits(decl.EndToEnd), wantUnits(decl.PerLayer)
	if !sameSet(endToEndMetrics, names(e2e)) {
		t.Errorf("end-to-end metrics in code %v, BENCHMARK.json %v", endToEndMetrics, names(e2e))
	}
	for _, w := range decl.Workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w.Name, traced
			t.Run(w+map[bool]string{false: "", true: "/trace"}[traced], func(t *testing.T) {
				o := options{workload: w, seed: 7, seconds: 300 * time.Millisecond, trace: traced,
					short: true, rate: 100000, workdir: t.TempDir()}
				var buf bytes.Buffer
				if err := run(o, &buf); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var res struct {
					Correct   bool  `json:"correct"`
					Attempted int64 `json:"attempted"`
					Failed    int64 `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, buf.String())
				}
				want := e2e
				if traced {
					want = layers
				}
				var got []string
				for name, m := range res.Metrics {
					got = append(got, name)
					if u, ok := want[name]; !ok {
						t.Errorf("metric %s is not declared", name)
					} else if u != m.Unit {
						t.Errorf("metric %s has unit %q, declared %q", name, m.Unit, u)
					}
				}
				if !sameSet(got, names(want)) {
					t.Errorf("printed metrics %v, declared %v", sorted(got), names(want))
				}
			})
		}
	}
}

func names(m map[string]string) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return sorted(out)
}

func sorted(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}

func sameSet(a, b []string) bool {
	return strings.Join(sorted(a), ",") == strings.Join(sorted(b), ",")
}
