package scenario

import (
	"reflect"
	"strings"
	"testing"

	"tanoq/internal/experiments"
	"tanoq/internal/qos"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

func TestParseJSONScenario(t *testing.T) {
	sc, err := Parse([]byte(`{
		"name": "demo",
		"pattern": "transpose",
		"topologies": ["mecs", "dps"],
		"qos": ["pvc", "no-qos"],
		"rates": [0.02, 0.05],
		"seeds": [1, 2, 3],
		"warmup": 500,
		"measure": 2000,
		"burst": {"mean_on": 100, "mean_off": 300}
	}`), ".json")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "demo" || !reflect.DeepEqual(sc.Patterns, []string{"transpose"}) {
		t.Errorf("name/patterns: %q %v", sc.Name, sc.Patterns)
	}
	if !reflect.DeepEqual(sc.Topologies, []topology.Kind{topology.MECS, topology.DPS}) {
		t.Errorf("topologies: %v", sc.Topologies)
	}
	if !reflect.DeepEqual(sc.Modes, []qos.Mode{qos.PVC, qos.NoQoS}) {
		t.Errorf("modes: %v", sc.Modes)
	}
	if !reflect.DeepEqual(sc.Seeds, []uint64{1, 2, 3}) || sc.Warmup != 500 || sc.Measure != 2000 {
		t.Errorf("seeds/schedule: %v %d %d", sc.Seeds, sc.Warmup, sc.Measure)
	}
	if sc.Burst != (traffic.Burst{MeanOn: 100, MeanOff: 300}) {
		t.Errorf("burst: %+v", sc.Burst)
	}
	g, err := sc.Grid()
	if err != nil {
		t.Fatal(err)
	}
	// 1 pattern x 2 topologies x 2 modes x 3 seeds x 2 rates.
	if g.Size() != 24 {
		t.Errorf("grid size %d, want 24", g.Size())
	}
}

func TestParseTOMLScenario(t *testing.T) {
	sc, err := Parse([]byte(`
# comment
name = "toml-demo"
patterns = ["uniform", "shuffle"]  # inline comment
topology = "mesh_x1"
qos = "all"
rates = [0.01, 0.03]
seed = 7
nodes = 8
warmup = 1_000
measure = 4000

[burst]
mean_on = 50
mean_off = 150
`), ".toml")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "toml-demo" || len(sc.Patterns) != 2 {
		t.Errorf("name/patterns: %q %v", sc.Name, sc.Patterns)
	}
	if !reflect.DeepEqual(sc.Topologies, []topology.Kind{topology.MeshX1}) {
		t.Errorf("topologies: %v", sc.Topologies)
	}
	if len(sc.Modes) != 3 {
		t.Errorf("qos=all expanded to %v", sc.Modes)
	}
	if sc.Warmup != 1000 || !reflect.DeepEqual(sc.Seeds, []uint64{7}) {
		t.Errorf("warmup/seeds: %d %v", sc.Warmup, sc.Seeds)
	}
	if sc.Burst != (traffic.Burst{MeanOn: 50, MeanOff: 150}) {
		t.Errorf("burst: %+v", sc.Burst)
	}
}

func TestParseTOMLFlows(t *testing.T) {
	sc, err := Parse([]byte(`
name = "flows-demo"
topology = "mecs"

[[flows]]
node = 7
injector = 0
rate = 0.2
dest = "hotspot"

[[flows]]
node = 3
injector = 2
rate = 0.1
dest = 5
stop_at = 9000
`), ".toml")
	if err != nil {
		t.Fatal(err)
	}
	want := []FlowSpec{
		{Node: 7, Injector: 0, Rate: 0.2, Dest: 0},
		{Node: 3, Injector: 2, Rate: 0.1, Dest: 5, StopAt: 9000},
	}
	if !reflect.DeepEqual(sc.Flows, want) {
		t.Errorf("flows: %+v, want %+v", sc.Flows, want)
	}
	w := sc.flowWorkload()
	if len(w.Specs) != 2 || w.Specs[0].Flow != traffic.FlowOf(7, 0) {
		t.Errorf("flow workload: %+v", w.Specs)
	}
}

func TestScenarioDefaults(t *testing.T) {
	sc, err := Parse([]byte(`{"rates": [0.05]}`), ".json")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc.Topologies, topology.Kinds()) {
		t.Errorf("default topologies: %v", sc.Topologies)
	}
	if !reflect.DeepEqual(sc.Modes, []qos.Mode{qos.PVC}) {
		t.Errorf("default modes: %v", sc.Modes)
	}
	if !reflect.DeepEqual(sc.Seeds, []uint64{42}) || !reflect.DeepEqual(sc.Patterns, []string{"uniform"}) {
		t.Errorf("default seeds/patterns: %v %v", sc.Seeds, sc.Patterns)
	}
	if sc.Nodes != topology.ColumnNodes || sc.Warmup != 20_000 || sc.Measure != 100_000 {
		t.Errorf("default nodes/schedule: %d %d %d", sc.Nodes, sc.Warmup, sc.Measure)
	}
	if sc.RequestFraction != traffic.DefaultRequestFraction {
		t.Errorf("default request fraction: %v", sc.RequestFraction)
	}
}

func TestScenarioValidationErrors(t *testing.T) {
	cases := map[string]string{
		"bad topology":      `{"rates":[0.05],"topologies":["hypercube"]}`,
		"bad qos":           `{"rates":[0.05],"qos":["besteffort"]}`,
		"bad pattern":       `{"rates":[0.05],"pattern":"nearest"}`,
		"rate over 1":       `{"rates":[1.5]}`,
		"rate zero":         `{"rates":[0]}`,
		"empty sweep":       `{"pattern":"uniform"}`,
		"unknown key":       `{"rates":[0.05],"ratess":[0.05]}`,
		"both rate forms":   `{"rate":0.05,"rates":[0.05]}`,
		"nodes too small":   `{"rates":[0.05],"nodes":1}`,
		"bad measure":       `{"rates":[0.05],"measure":0}`,
		"bit perm non-pow2": `{"rates":[0.05],"pattern":"shuffle","nodes":6}`,
		"burst peak over 1": `{"rates":[0.9],"burst":{"mean_on":10,"mean_off":90}}`,
		"burst sub-cycle":   `{"rates":[0.05],"burst":{"mean_on":0.2,"mean_off":10}}`,
		"flow bad node":     `{"flows":[{"node":12,"rate":0.1}]}`,
		"flow bad injector": `{"flows":[{"node":0,"injector":9,"rate":0.1}]}`,
		"flow bad dest":     `{"flows":[{"node":0,"rate":0.1,"dest":11}]}`,
		"flow bad rate":     `{"flows":[{"node":0,"rate":2}]}`,
		"flows and rates":   `{"rates":[0.05],"flows":[{"node":0,"rate":0.1}]}`,
		"hotspot weights":   `{"rates":[0.05],"pattern":"hotspot","hotspot_weights":[1,2]}`,
		"bad frame":         `{"rates":[0.05],"frame_cycles":1.5}`,
	}
	for name, blob := range cases {
		if _, err := Parse([]byte(blob), ".json"); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestTOMLParserErrors(t *testing.T) {
	cases := map[string]string{
		"bare value":      "rates = [0.05]\noops",
		"bad header":      "[burst\nmean_on = 5",
		"redefined key":   "rate = 0.05\nrate = 0.06",
		"redefined table": "[burst]\nmean_on = 5\n[burst]\nmean_off = 5",
		"unterminated":    `name = "x`,
		"bad number":      "rate = 0.05.5",
		"multiline array": "rates = [0.01,\n0.02]",
	}
	for name, src := range cases {
		if _, err := parseTOML(src); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestTOMLCommentsInsideStrings(t *testing.T) {
	m, err := parseTOML(`name = "a # not a comment" # real comment`)
	if err != nil {
		t.Fatal(err)
	}
	if m["name"] != "a # not a comment" {
		t.Errorf("got %q", m["name"])
	}
}

func TestTOMLEscapedStrings(t *testing.T) {
	m, err := parseTOML(`name = "say \"hi\" to a\\b"`)
	if err != nil {
		t.Fatal(err)
	}
	if want := `say "hi" to a\b`; m["name"] != want {
		t.Errorf("got %q, want %q", m["name"], want)
	}
	for name, src := range map[string]string{
		"bare quote":      `name = "a"b"`,
		"dangling escape": `name = "ab\"`,
	} {
		if _, err := parseTOML(src); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestFig4QuickScenarioBitIdentical is the subsystem's acceptance test:
// the examples/sweep/fig4-quick.json scenario must reproduce the built-in
// quick Figure 4 grid bit-identically — same workload construction, same
// RNG streams, same cell order, same numbers.
func TestFig4QuickScenarioBitIdentical(t *testing.T) {
	sc, err := Load("../../examples/sweep/fig4-quick.json")
	if err != nil {
		t.Fatal(err)
	}
	g, err := sc.Grid()
	if err != nil {
		t.Fatal(err)
	}
	got := g.Run(RunOpts{})

	p := experiments.QuickParams()
	rates := experiments.QuickFig4Rates()
	series := experiments.Fig4(experiments.Uniform, rates, p)

	if sc.Warmup != p.Warmup || sc.Measure != p.Measure {
		t.Fatalf("scenario schedule %d/%d drifted from QuickParams %d/%d",
			sc.Warmup, sc.Measure, p.Warmup, p.Measure)
	}
	if !reflect.DeepEqual(sc.Rates, rates) {
		t.Fatalf("scenario rates %v drifted from QuickFig4Rates %v", sc.Rates, rates)
	}
	if want := len(series) * len(rates); len(got) != want {
		t.Fatalf("grid has %d cells, driver grid %d", len(got), want)
	}
	for ki, s := range series {
		for ri, pt := range s.Points {
			r := got[ki*len(rates)+ri]
			if r.Topology != s.Kind || r.Rate != pt.Rate {
				t.Fatalf("cell (%d,%d) is (%v, %v), want (%v, %v)", ki, ri, r.Topology, r.Rate, s.Kind, pt.Rate)
			}
			if r.MeanLatency != pt.MeanLatency || r.P99Latency != pt.P99Latency ||
				r.Accepted != pt.Accepted || r.PreemptionPct != pt.PreemptionPct {
				t.Errorf("%v rate %v: scenario (%v, %v, %v, %v) != driver (%v, %v, %v, %v)",
					s.Kind, pt.Rate,
					r.MeanLatency, r.P99Latency, r.Accepted, r.PreemptionPct,
					pt.MeanLatency, pt.P99Latency, pt.Accepted, pt.PreemptionPct)
			}
		}
	}
}

// TestBuiltinQuickMatchesExampleFile pins the built-in registry's quick
// scenario to the shipped example file, so neither can drift alone.
func TestBuiltinQuickMatchesExampleFile(t *testing.T) {
	file, err := Load("../../examples/sweep/fig4-quick.json")
	if err != nil {
		t.Fatal(err)
	}
	builtin, err := Builtin("fig4a-quick")
	if err != nil {
		t.Fatal(err)
	}
	// Names differ (file base vs registry key) and only files carry a
	// base directory; everything else must not.
	file.Name = builtin.Name
	file.baseDir = builtin.baseDir
	if !reflect.DeepEqual(file, builtin) {
		t.Errorf("example file %+v != builtin %+v", file, builtin)
	}
}

// TestWorkloadBuiltinsMatchTrafficConstructors pins the adversarial
// built-in scenarios to the traffic package's Workload1/Workload2.
func TestWorkloadBuiltinsMatchTrafficConstructors(t *testing.T) {
	for name, ref := range map[string]traffic.Workload{
		"workload1": traffic.Workload1(topology.ColumnNodes, 0),
		"workload2": traffic.Workload2(topology.ColumnNodes, 0),
	} {
		sc, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		w := sc.flowWorkload()
		if len(w.Specs) != len(ref.Specs) {
			t.Fatalf("%s: %d specs, want %d", name, len(w.Specs), len(ref.Specs))
		}
		for i := range w.Specs {
			g, r := w.Specs[i], ref.Specs[i]
			if g.Flow != r.Flow || g.Node != r.Node || g.Rate != r.Rate ||
				g.RequestFraction != r.RequestFraction || g.StopAt != r.StopAt {
				t.Errorf("%s spec %d: %+v != %+v", name, i, g, r)
			}
		}
	}
	if _, err := Builtin("fig9"); err == nil {
		t.Error("unknown builtin accepted")
	}
}

// TestPatternsSweepCoversAllTopologiesAndModes runs the shipped
// patterns.toml example: four permutation patterns over every topology
// and QoS mode, the acceptance grid of the scenario subsystem.
func TestPatternsSweepCoversAllTopologiesAndModes(t *testing.T) {
	sc, err := Load("../../examples/sweep/patterns.toml")
	if err != nil {
		t.Fatal(err)
	}
	g, err := sc.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * 5 * 3; g.Size() != want {
		t.Fatalf("grid size %d, want %d", g.Size(), want)
	}
	results := g.Run(RunOpts{})
	seen := map[string]bool{}
	for _, r := range results {
		if r.Delivered == 0 {
			t.Errorf("%s/%v/%v delivered nothing", r.Pattern, r.Topology, r.Mode)
		}
		seen[r.Pattern+"/"+r.Topology.String()+"/"+r.Mode.String()] = true
	}
	if len(seen) != g.Size() {
		t.Errorf("only %d distinct cells", len(seen))
	}
}

// TestSweepDeterministicAcrossWorkersAndSkip runs the bursty example on
// 1 worker vs many and with idle skipping on vs off; every variant must
// be bit-identical.
func TestSweepDeterministicAcrossWorkersAndSkip(t *testing.T) {
	sc, err := Load("../../examples/sweep/bursty-hotspot.toml")
	if err != nil {
		t.Fatal(err)
	}
	g, err := sc.Grid()
	if err != nil {
		t.Fatal(err)
	}
	// Wall-clock is the one legitimately non-deterministic column; every
	// measured field must be bit-identical across the matrix.
	stripWall := func(rs []Result) {
		for i := range rs {
			rs[i].Wall, rs[i].CyclesPerSec = 0, 0
		}
	}
	base := g.Run(RunOpts{Workers: 1})
	stripWall(base)
	for _, opts := range []RunOpts{
		{Workers: 0},
		{Workers: 3},
		{Workers: 1, DisableIdleSkip: true},
		{Workers: 0, DisableIdleSkip: true},
	} {
		got := g.Run(opts)
		stripWall(got)
		if !reflect.DeepEqual(base, got) {
			t.Errorf("results diverged for %+v", opts)
		}
	}
}

func TestCSVAndJSONEmission(t *testing.T) {
	sc, err := Parse([]byte(`{"rates":[0.02],"topologies":["mesh_x1"],"warmup":500,"measure":2000}`), ".json")
	if err != nil {
		t.Fatal(err)
	}
	g, err := sc.Grid()
	if err != nil {
		t.Fatal(err)
	}
	res := g.Run(RunOpts{})
	csv := CSV("emit-test", res)
	if lines := strings.Count(csv, "\n"); lines != 2 {
		t.Errorf("CSV has %d lines, want header + 1 row:\n%s", lines, csv)
	}
	if !strings.Contains(csv, "emit-test,open,uniform,mesh_x1,pvc,42,0.0200") {
		t.Errorf("CSV row malformed:\n%s", csv)
	}
	if !strings.Contains(csv, "tput_stddev_pct_of_mean") {
		t.Errorf("CSV header missing fairness dispersion columns:\n%s", csv)
	}
	blob, err := JSONReport("emit-test", res)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"scenario": "emit-test"`, `"topology": "mesh_x1"`, `"qos": "pvc"`, `"mean_latency_cycles"`} {
		if !strings.Contains(string(blob), want) {
			t.Errorf("JSON missing %s:\n%s", want, blob)
		}
	}
	if out := Render("emit-test", res); !strings.Contains(out, "mesh_x1") {
		t.Errorf("render missing row:\n%s", out)
	}
}

func TestLoadRejectsUnknownExtension(t *testing.T) {
	if _, err := Parse([]byte("{}"), ".yaml"); err == nil {
		t.Error("yaml accepted")
	}
}
