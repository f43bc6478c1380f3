package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"tanoq/internal/scenario"
)

// benchmarkFile is the metric part of the repository's BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// runTiny runs one tiny-scale benchmark run and decodes its last line.
func runTiny(t *testing.T, w workloadSpec, trace bool) result {
	t.Helper()
	var out bytes.Buffer
	cfg := config{w: w, seed: 7, trace: trace, tiny: true, root: t.TempDir()}
	if err := run(&out, cfg); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTinyRunEveryWorkload runs every workload untraced and traced at
// tiny scale: each must pass its checks and report exactly the metrics
// BENCHMARK.json declares, with the declared units.
func TestTinyRunEveryWorkload(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, bw := range bf.Workloads {
		w, err := workloadByName(bw.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, trace := range []bool{false, true} {
			res := runTiny(t, w, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestDigestCatchesPerturbedRow checks that changing one simulated
// column of one row changes the digest and fails the pass, while the
// wall-clock columns do not enter it.
func TestDigestCatchesPerturbedRow(t *testing.T) {
	w, _ := workloadByName("open-saturation")
	dir := t.TempDir()
	input := filepath.Join(dir, "in.json")
	blob, err := w.scenarioJSON(3, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(input, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := sweepPass(input, filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	digestOf := func(mutate func(rows []scenario.Result)) string {
		rows := append([]scenario.Result(nil), p.rows...)
		mutate(rows)
		out, err := render("open-saturation", rows)
		if err != nil {
			t.Fatal(err)
		}
		d, err := rowsDigest(out)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if d := digestOf(func([]scenario.Result) {}); d != p.digest {
		t.Fatalf("re-rendered digest %s, pass digest %s", d, p.digest)
	}
	if d := digestOf(func(rows []scenario.Result) { rows[5].Wall *= 3; rows[5].CyclesPerSec /= 3 }); d != p.digest {
		t.Errorf("wall-clock columns changed the digest")
	}
	perturbed := digestOf(func(rows []scenario.Result) { rows[5].MeanLatency += 1e-9 })
	if perturbed == p.digest {
		t.Errorf("perturbed mean latency kept the digest")
	}
	chk := newChecker(config{w: w, seed: 3, tiny: true})
	chk.pass(&p)
	bad := p
	bad.digest = perturbed
	chk.pass(&bad)
	if chk.failed != bad.cells {
		t.Errorf("checker counted %d failed cells for a perturbed pass of %d", chk.failed, bad.cells)
	}
	if d := digestOf(func(rows []scenario.Result) { rows[len(rows)-1].Delivered++ }); d == p.digest {
		t.Errorf("perturbed delivered count kept the digest")
	}
}

// TestMetricNamesAndUnits checks BENCHMARK.json's metric declarations.
func TestMetricNamesAndUnits(t *testing.T) {
	bf := readBenchmarkFile(t)
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := map[string]bool{}
	for _, m := range append(bf.EndToEnd, bf.PerLayer...) {
		if !name.MatchString(m.Name) || m.Unit == "" {
			t.Errorf("metric %q has unit %q", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %q declared twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestSelfTimes checks the self-time arithmetic: a child's coverage is
// subtracted once, also where siblings on different workers overlap,
// and a child reaching outside its parent counts only inside it.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "sweep", Parent: -1, Start: 0, End: 100},
		{Name: "execute", Parent: 0, Start: 10, End: 90},
		{Name: "cell", Parent: 1, Start: 10, End: 50, Worker: 0},
		{Name: "cell", Parent: 1, Start: 20, End: 60, Worker: 1},
		{Name: "cell", Parent: 1, Start: 70, End: 95, Worker: 0},
		{Name: "measure", Parent: 2, Start: 15, End: 45},
		{Name: "render", Parent: 0, Start: 92, End: 98},
	}
	want := []int64{100 - 80 - 6, 80 - 50 - 20, 40 - 30, 40, 25, 30, 6}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}
