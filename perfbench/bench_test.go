package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
)

// runMainEnv makes the test binary behave as the perfbench command, so the
// self-test runs every workload in a fresh process, as the benchmark does.
const runMainEnv = "PERFBENCH_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// countMetrics must repeat exactly between two runs of the same seed.
var countMetrics = []string{"solver.queries", "core.states", "triple.theorems", "hgstore.hits", "hgstore.misses"}

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// tinyRun runs one tiny invocation in a fresh process and returns its
// result line, its printed metric lines (name → value, name → unit) and
// its full output.
func tinyRun(t *testing.T, workload string, trace int) (runResult, map[string]float64, map[string]string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "--workload", workload, "--seed", "3", "--seconds", "1",
		"--trace", strconv.Itoa(trace), "--tiny", "--workdir", t.TempDir())
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s --trace %d: %v\n%s", workload, trace, err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, out)
	}
	vals, units := map[string]float64{}, map[string]string{}
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) < 4 || f[0] != "metric" {
			continue
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			t.Fatalf("%s: metric line %q: %v", workload, l, err)
		}
		vals[f[1]], units[f[1]] = v, f[3]
	}
	return res, vals, units, string(out)
}

func TestSelfTest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"lib_cold", "coreutils_prove", "lowlevel_edit"} {
		t.Run(w, func(t *testing.T) {
			first, counts, units, out := tinyRun(t, w, 0)
			if !first.Correct || first.Failed != 0 || first.Attempted == 0 {
				t.Fatalf("correctness checks failed: correct=%v failed=%d attempted=%d\n%s",
					first.Correct, first.Failed, first.Attempted, out)
			}
			for _, m := range spec.EndToEnd {
				got, ok := first.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || units[m.Name] != m.Unit {
					t.Errorf("end-to-end metric %s: result %+v, printed unit %q, want unit %q", m.Name, got, units[m.Name], m.Unit)
				}
			}
			if w == "lib_cold" {
				// The generator labels lib_057 timeout at this size, but it
				// lifts; the mislabel must stay visible.
				if !strings.Contains(out, "mismatch lib_057:") || first.Metrics["correct_ratio"].Value >= 1 {
					t.Errorf("lib_057 mislabel not counted against correct_ratio:\n%s", out)
				}
			}

			_, again, _, _ := tinyRun(t, w, 0)
			for _, name := range countMetrics {
				if counts[name] != again[name] {
					t.Errorf("%s differs between runs: %v then %v", name, counts[name], again[name])
				}
			}

			traced, _, tunits, out := tinyRun(t, w, 1)
			if !traced.Correct {
				t.Errorf("traced run incorrect:\n%s", out)
			}
			for _, m := range spec.PerLayer {
				got, ok := traced.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || tunits[m.Name] != m.Unit {
					t.Errorf("per-layer metric %s: result %+v, printed unit %q, want unit %q", m.Name, got, tunits[m.Name], m.Unit)
				}
			}
		})
	}
}
