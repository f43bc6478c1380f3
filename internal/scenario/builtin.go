package scenario

import (
	"encoding/json"
	"fmt"
	"sort"

	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

// The built-in registry re-expresses the paper's own experiment workloads
// as scenarios, proving the declarative layer carries them: the Figure 4
// load-latency sweeps map to pattern×rate grids, and the Section 5.3
// adversarial workloads map to explicit flow lists. Each entry builds the
// raw key tree a scenario file would decode to, so a built-in resolves
// through the same layer pipeline as a file (see BuiltinLayer).
var builtins = map[string]func() map[string]any{
	// Figure 4(a)/(b) at paper scale: every topology, PVC, 1–15 % rates.
	"fig4a": func() map[string]any { return fig4("fig4a", "uniform", fig4Rates(), 20_000, 100_000) },
	"fig4b": func() map[string]any { return fig4("fig4b", "tornado", fig4Rates(), 20_000, 100_000) },
	// The -quick grids used by tests and benchmarks. The rate list and
	// schedule mirror experiments.QuickFig4Rates/QuickParams; the
	// scenario tests assert they stay in lockstep.
	"fig4a-quick": func() map[string]any { return fig4("fig4a-quick", "uniform", quickRates(), 3_000, 15_000) },
	"fig4b-quick": func() map[string]any { return fig4("fig4b-quick", "tornado", quickRates(), 3_000, 15_000) },
	// Section 5.3's adversarial preemption workloads (Figures 5 and 6):
	// explicit injector lists streaming at the hotspot.
	"workload1": func() map[string]any {
		var flows []any
		for n, rate := range traffic.Workload1Rates {
			flows = append(flows, hotspotFlow(n, 0, rate))
		}
		return adversarial("workload1", flows)
	},
	"workload2": func() map[string]any {
		var flows []any
		far := topology.ColumnNodes - 1
		for i, rate := range traffic.Workload2NodeRates {
			flows = append(flows, hotspotFlow(far, i, rate))
		}
		flows = append(flows, hotspotFlow(far-1, 0, traffic.Workload2ExtraRate))
		return adversarial("workload2", flows)
	},
}

// fig4 is a Figure 4 load-latency grid over every topology. Column height
// and request fraction are the decoder's defaults.
func fig4(name, pattern string, rates []float64, warmup, measure int) map[string]any {
	return map[string]any{
		"name":       name,
		"patterns":   []string{pattern},
		"topologies": []string{"all"},
		"rates":      rates,
		"warmup":     warmup,
		"measure":    measure,
	}
}

// adversarial is a Section 5.3 workload at paper scale.
func adversarial(name string, flows []any) map[string]any {
	return map[string]any{
		"name":       name,
		"topologies": []string{"all"},
		"warmup":     20_000,
		"measure":    100_000,
		"flows":      flows,
	}
}

func hotspotFlow(node, injector int, rate float64) map[string]any {
	return map[string]any{"node": node, "injector": injector, "rate": rate, "dest": "hotspot"}
}

// fig4Rates is Figure 4's X axis: injection rates 1–15 %.
func fig4Rates() []float64 {
	var rates []float64
	for r := 1; r <= 15; r++ {
		rates = append(rates, float64(r)/100)
	}
	return rates
}

// quickRates mirrors experiments.QuickFig4Rates (pinned by test).
func quickRates() []float64 {
	return []float64{0.01, 0.02, 0.05, 0.08, 0.11, 0.14}
}

// BuiltinLayer is the root layer of a built-in scenario: its key tree
// as an in-memory JSON blob labelled "builtin:<name>" (the origin
// -explain prints), so profiles, TANOQ_SET_* and CLI overrides layer
// over a built-in exactly as over a file. Naming no built-in fails at
// resolve time, listing the names that exist.
func BuiltinLayer(name string) Layer { return builtinLayer{name} }

type builtinLayer struct{ name string }

func (l builtinLayer) apply(r *Resolution) error {
	f, ok := builtins[l.name]
	if !ok {
		return fmt.Errorf("scenario: no file and no built-in named %q (built-ins: %v)", l.name, BuiltinNames())
	}
	// Indented so each key gets its own line in -explain provenance.
	blob, err := json.MarshalIndent(f(), "", "  ")
	if err != nil {
		return err
	}
	return BlobLayer("builtin:"+l.name, blob, ".json").apply(r)
}

// BuiltinNames lists the built-in scenario names in sorted order.
func BuiltinNames() []string {
	names := make([]string, 0, len(builtins))
	for n := range builtins {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
