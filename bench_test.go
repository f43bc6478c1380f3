// Repository benchmarks: one per table and figure of the paper's
// evaluation, each regenerating its artifact through the same drivers as
// cmd/noctool, at QuickParams scale so a full -bench=. pass stays in CI
// territory. Custom metrics expose the headline number of each artifact
// (mean latency, preemption rate, fairness dispersion, ...) alongside the
// usual ns/op.
package tanoq_test

import (
	"testing"

	"tanoq/internal/experiments"
	"tanoq/internal/network"
	"tanoq/internal/qos"
	"tanoq/internal/stats"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

// BenchmarkFig3RouterArea regenerates Figure 3: router area overhead by
// component for all five shared-region topologies.
func BenchmarkFig3RouterArea(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig3()
		total = rows[len(rows)-1].Area.Total()
	}
	b.ReportMetric(total*1000, "dps-router-mm2/1000")
}

// BenchmarkFig4aUniformRandom regenerates Figure 4(a): the load-latency
// sweep on uniform random traffic (reduced rate grid).
func BenchmarkFig4aUniformRandom(b *testing.B) {
	rates := []float64{0.02, 0.08, 0.14}
	var lat float64
	for i := 0; i < b.N; i++ {
		series := experiments.Fig4(experiments.Uniform, rates, experiments.QuickParams())
		for _, s := range series {
			if s.Kind == topology.DPS {
				lat = s.Points[0].MeanLatency
			}
		}
	}
	b.ReportMetric(lat, "dps-latency-cycles")
}

// BenchmarkFig4bTornado regenerates Figure 4(b): the tornado sweep.
func BenchmarkFig4bTornado(b *testing.B) {
	rates := []float64{0.02, 0.08, 0.14}
	var lat float64
	for i := 0; i < b.N; i++ {
		series := experiments.Fig4(experiments.TornadoPattern, rates, experiments.QuickParams())
		for _, s := range series {
			if s.Kind == topology.MECS {
				lat = s.Points[0].MeanLatency
			}
		}
	}
	b.ReportMetric(lat, "mecs-latency-cycles")
}

// BenchmarkSec52SaturationPreemptions regenerates the in-text saturation
// replay rates of Section 5.2.
func BenchmarkSec52SaturationPreemptions(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.SaturationPreemptions(experiments.QuickParams()) {
			if r.PreemptionPct > worst {
				worst = r.PreemptionPct
			}
		}
	}
	b.ReportMetric(worst, "worst-preempt-%")
}

// BenchmarkTable2HotspotFairness regenerates Table 2: per-flow throughput
// dispersion under saturating hotspot traffic.
func BenchmarkTable2HotspotFairness(b *testing.B) {
	var maxDev float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2(experiments.QuickParams())
		maxDev = 0
		for _, r := range rows {
			if d := r.Summary.MaxDeviationPct(); d > maxDev {
				maxDev = d
			}
		}
	}
	b.ReportMetric(maxDev, "worst-deviation-%")
}

// BenchmarkFig5Workload1 regenerates Figure 5(a): preemption incidence
// under adversarial Workload 1.
func BenchmarkFig5Workload1(b *testing.B) {
	var meshX4 float64
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.Fig5(experiments.Workload1, experiments.QuickParams()) {
			if r.Kind == topology.MeshX4 {
				meshX4 = r.HopsPct
			}
		}
	}
	b.ReportMetric(meshX4, "meshx4-wasted-hops-%")
}

// BenchmarkFig5Workload2 regenerates Figure 5(b).
func BenchmarkFig5Workload2(b *testing.B) {
	var x1 float64
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.Fig5(experiments.Workload2, experiments.QuickParams()) {
			if r.Kind == topology.MeshX1 {
				x1 = r.HopsPct
			}
		}
	}
	b.ReportMetric(x1, "meshx1-wasted-hops-%")
}

// BenchmarkFig6SlowdownFairness regenerates Figure 6: preemption slowdown
// vs the per-flow-queueing reference and max-min deviation, Workload 1.
func BenchmarkFig6SlowdownFairness(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, r := range experiments.Fig6(experiments.Workload1, experiments.QuickParams()) {
			if r.SlowdownPct > worst {
				worst = r.SlowdownPct
			}
		}
	}
	b.ReportMetric(worst, "worst-slowdown-%")
}

// BenchmarkFig7RouterEnergy regenerates Figure 7: per-flit router energy
// by hop type.
func BenchmarkFig7RouterEnergy(b *testing.B) {
	var dps3 float64
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.Fig7() {
			if r.Kind == topology.DPS {
				dps3 = r.ThreeHops.Total()
			}
		}
	}
	b.ReportMetric(dps3, "dps-3hop-nJ")
}

// BenchmarkChipCost regenerates the Section 2 cost argument: chip-wide QoS
// hardware savings of the topology-aware architecture.
func BenchmarkChipCost(b *testing.B) {
	var saved float64
	for i := 0; i < b.N; i++ {
		saved = experiments.ChipCost().SavedAreaFraction
	}
	b.ReportMetric(100*saved, "saved-%")
}

// benchFig4 regenerates the quick Figure 4(a) grid through the experiment
// runner with the given worker-pool size.
func benchFig4(b *testing.B, workers int) {
	p := experiments.QuickParams()
	p.Workers = workers
	var lat float64
	for i := 0; i < b.N; i++ {
		series := experiments.Fig4(experiments.Uniform, experiments.QuickFig4Rates(), p)
		lat = series[0].Points[0].MeanLatency
	}
	b.ReportMetric(lat, "meshx1-latency-cycles")
}

// BenchmarkFig4Sequential is the sequential half of the runner speedup
// pair: the same cell grid as BenchmarkFig4Parallel on one worker.
func BenchmarkFig4Sequential(b *testing.B) { benchFig4(b, 1) }

// BenchmarkFig4Parallel fans the grid across one worker per CPU. The
// ns/op ratio against BenchmarkFig4Sequential is the runner's wall-clock
// speedup; results are asserted bit-identical in the experiments tests.
func BenchmarkFig4Parallel(b *testing.B) { benchFig4(b, 0) }

// BenchmarkEngineCycles measures raw simulator speed: cycles simulated
// per second for each topology at steady state, below every topology's
// saturation point so the working set stabilizes. The warmup lets the
// packet free list, event ring, source queues and scratch buffers reach
// capacity — after it, Step must be allocation-free (the CI benchmark
// smoke step fails on a nonzero allocs/op here, guarding the invariant).
func BenchmarkEngineCycles(b *testing.B) {
	for _, kind := range topology.Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			w := traffic.UniformRandom(topology.ColumnNodes, 0.04)
			n := network.MustNew(network.Config{
				Kind:     kind,
				QoS:      qos.DefaultConfig(w.TotalFlows()),
				Workload: w,
				Seed:     5,
				// Step is the tick path; skipping lives in Run and
				// would make "cycles per second" unbounded.
				DisableIdleSkip: true,
			})
			n.Run(30_000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Step()
			}
		})
	}
}

// BenchmarkLowLoadCell times one near-idle quick Fig4 cell per engine
// mode — the regime the event-driven redesign targets (ISSUE 2): skipping
// on versus the tick-driven reference.
func BenchmarkLowLoadCell(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"skip", false}, {"tick", true}} {
		b.Run(mode.name, func(b *testing.B) {
			w := traffic.UniformRandom(topology.ColumnNodes, 0.01)
			for i := 0; i < b.N; i++ {
				n := network.MustNew(network.Config{
					Kind:            topology.MeshX1,
					QoS:             qos.DefaultConfig(w.TotalFlows()),
					Workload:        w,
					Seed:            42,
					DisableIdleSkip: mode.disable,
				})
				n.WarmupAndMeasure(3_000, 15_000)
			}
		})
	}
}

// BenchmarkMaxMinShares measures the fairness expectation math used by the
// Figure 6 harness.
func BenchmarkMaxMinShares(b *testing.B) {
	demands := traffic.Workload1Rates
	var shares []float64
	for i := 0; i < b.N; i++ {
		shares = stats.MaxMinShares(demands, 1.0)
	}
	_ = shares
}
