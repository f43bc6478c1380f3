// Package network is the simulator of the QoS-enabled shared region:
// eight column routers of one of five topologies, virtual cut-through
// flow control, PVC preemptive quality-of-service with its ACK network
// and source retransmission windows, and the two reference policies
// (idealized per-flow queueing and no-QoS round-robin).
//
// The engine is packet-granular with exact flit timing: a transfer
// occupies its output port for one cycle per flit, and head/tail arrival
// cycles are tracked per hop, which under virtual cut-through (no flit
// interleaving within a VC) is equivalent to flit-level simulation for
// every metric the paper reports.
//
// # Data-oriented core
//
// The engine's state lives in flat arrays, not object graphs:
//
//   - Packets occupy a single arena ([]pkt) addressed by 32-bit
//     generation-guarded handles (pktH). Candidate lists, VC ownership,
//     source queues and events all store handles, so every hot container
//     is a dense, pointer-free array the garbage collector never scans,
//     and the free list is an index stack — recycling a packet is a
//     generation bump and a push.
//   - Router state is struct-of-arrays: ports, buffers and sources are
//     value slices indexed by ID, and each buffer's virtual-channel
//     state is parallel arrays (owner handles, release generations) with
//     a free-VC occupancy bitmap, so VC allocation and victim search are
//     word scans instead of pointer walks.
//   - PVC priorities are cached in a flat per-port per-flow array
//     (qos.FlowTable), maintained eagerly on Record and cleared on frame
//     flush, so arbitration reads one word per candidate instead of
//     re-deriving quantize-and-scale per candidate per cycle.
//   - Events are 40-byte pointer-free records in a calendar ring;
//     scheduling and firing never trigger write barriers.
//
// The layout is mechanical: results are bit-identical to the historical
// pointer-based engine (pinned by the equivalence and determinism
// suites), and a Network can be Reset to a new configuration reusing
// every backing allocation — sweep workers run whole grids on one arena.
//
// # Hybrid tick/event-driven execution
//
// Step is tick-driven — arbitration, preemption and frame logic are
// expressed per cycle, exactly as the hardware clocks them — but the cost
// of a cycle is proportional to the work in it, not to the machine size:
//
//   - Injection is sampled by inter-arrival time, not per cycle. Each
//     source carries a precomputed next-arrival cycle whose gaps are drawn
//     geometrically via inverse CDF (sim.RNG.Geometric) with the Bernoulli
//     process's per-cycle packet probability, which reproduces that
//     process exactly (memorylessness: every post-arrival cycle is an
//     independent trial) at one RNG draw per packet instead of one per
//     source per cycle.
//   - Arbitration visits only ports holding candidates: an ID-sorted
//     active-ports list maintained by candidate registration, replacing
//     the all-ports scan while preserving the canonical port order.
//
// On top of that, Run and RunUntilDrained are event-driven across idle
// stretches: when no port holds a candidate, nothing can happen until the
// earliest of (next scheduled event, next PVC frame boundary, and per
// live source, its injection VC freeing or its next arrival), so the
// clock fast-forwards there directly. Skipped cycles would have executed
// no state change, making the fast-forward provably mechanical: with
// Config.DisableIdleSkip the engine ticks through every cycle and
// produces bit-identical results (TestIdleSkipMechanicallyEquivalent).
// Low-load cells of the paper's latency-load sweeps thus cost O(packets),
// not O(cycles). Fast-forwards clamp to the end of the Run call, so a Run
// split into chunks is state-identical to one unchunked Run
// (TestChunkedRunMatchesUnchunked) — the property traced and probed runs
// rely on when they advance the engine piecewise.
//
// # Workload attachment
//
// External workload drivers (internal/workload) attach through three
// surfaces that are zero-cost and bit-identical when unused (see
// inject.go): SetDeliveryHook observes every delivery, SetGenHook
// observes every generation as a trace record, and ScheduleInjection
// generates a packet at an exact future cycle through the event ring —
// so closed-loop client wake-ups are first-class events the idle
// fast-forward accounts for exactly. Sources can also replay a
// prerecorded event stream verbatim (traffic.Spec.Replay) through the
// ordinary arrival schedule, consuming no randomness. Unlike the
// diagnostic preempt/grant hooks, none of these suppress packet
// recycling, and Reset clears them — drivers re-attach per cell.
package network

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"tanoq/internal/noc"
	"tanoq/internal/qos"
	"tanoq/internal/sim"
	"tanoq/internal/stats"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

// Config assembles one simulated shared-region network.
type Config struct {
	Kind  topology.Kind
	Nodes int // column height; defaults to topology.ColumnNodes
	QoS   qos.Config
	// Workload supplies the traffic injectors. QoS.Rates must cover the
	// workload's full flow population (active or not).
	Workload traffic.Workload
	Seed     uint64
	// DisableIdleSkip forces Run/RunUntilDrained to tick through every
	// cycle instead of fast-forwarding the clock over provably idle
	// windows. Skipping is mechanical — results are bit-identical either
	// way (TestIdleSkipMechanicallyEquivalent) — so the knob exists only
	// for that proof and for debugging.
	DisableIdleSkip bool

	// Faults schedules hardware fault injection and configures end-to-end
	// recovery (see fault.go). The zero value disables both, at zero
	// cost: a fault-free run is fingerprint-identical to an engine
	// without the subsystem.
	Faults FaultConfig
	// WatchdogCycles, when positive, arms the no-forward-progress
	// watchdog: if candidates are waiting and no arbitration grant or
	// delivery happens for this many cycles, the engine panics with a
	// *WatchdogError carrying a structured diagnostic dump and a repro
	// trace of every generation so far (see watchdog.go). Choose a window
	// comfortably above the configured protocol delays (ACK round trips,
	// retry backoff) to avoid tripping on legitimate waits.
	WatchdogCycles sim.Cycle
	// AuditEvery, when positive, runs the invariant auditor every
	// AuditEvery stepped cycles and panics on the first violation (see
	// audit.go). The TANOQ_AUDIT environment variable enables it
	// process-wide for networks that leave this at zero.
	AuditEvery sim.Cycle
}

// Network is one simulated shared-region column.
type Network struct {
	cfg   Config
	graph *topology.Graph
	mode  qos.Mode

	clock  sim.Clock
	rng    sim.RNG
	ports  []outPort
	bufs   []inBuf
	srcs   []source
	quota  *qos.ReservedQuota
	frame  *qos.FrameTimer
	events eventRing
	coll   *stats.Collector

	// parkedTables/parkedQuota/parkedFrame hold the QoS state objects
	// across a Reset into a mode that does not use them, so a sweep
	// whose qos axis interleaves NoQoS with PVC cells keeps reusing the
	// same backing arrays instead of reallocating them at every mode
	// boundary (the tables' per-flow arrays are the bulk of a port's
	// footprint).
	parkedTables []*qos.FlowTable
	parkedQuota  *qos.ReservedQuota
	parkedFrame  *qos.FrameTimer

	nextPktID  uint64
	inFlight   int // packets injected and neither delivered nor dead
	frameCount int32
	// margin is the preemption hysteresis in quantized classes.
	margin noc.Priority

	// arena holds every live packet; slot 0 is the permanent nil-handle
	// dummy. free is the stack of recycled slots (see arena.go).
	arena []pkt
	free  []pktH

	// arrivals schedules packet generation: a calendar wheel of (cycle,
	// source index) pairs with a far-future heap spillway (see arrWheel).
	// Step fires only the sources whose arrival cycle has come, so
	// generation costs O(packets), not O(sources x cycles). A source
	// leaves the schedule for good once its next arrival would land at or
	// past its StopAt deadline (see scheduleArrival).
	arrivals arrWheel
	// relw is the dedicated calendar wheel for near-future VC releases
	// (see relWheel); out-of-horizon releases still ride the event ring.
	relw relWheel
	// headw, delivw and ackw carry the three dense per-packet event kinds
	// (see pktWheel); the ring keeps system events and far-horizon spills.
	headw  pktWheel
	delivw pktWheel
	ackw   pktWheel
	// offerSrcs is the subset of sources holding an injectable packet
	// (queued or awaiting retransmission) but not yet offering one, kept
	// sorted by source index. Membership is exact: markOfferable admits
	// only sources with real pending work, and the offer pass drops a
	// source the moment its packet is offered. Step's offer scan and the
	// drain test touch only this list.
	offerSrcs []int32
	// activeW is a bitmap over port IDs marking the ports holding
	// arbitration candidates; Step arbitrates its set bits (ascending,
	// which is exactly the ID-sorted order of the historical all-ports
	// scan) instead of scanning every port. waiterCount is the total
	// candidate population across all ports — zero means no arbitration
	// work can happen this cycle, the precondition for idle
	// fast-forwarding.
	activeW     []uint64
	waiterCount int
	// bidScratch and failedScratch are reusable arbitration buffers
	// (see arbitrate); valid only within one arbitrate call.
	bidScratch    []bid
	failedScratch []int32

	// preemptHook and grantHook, when non-nil, observe every preemption
	// and grant (tests and diagnostics). Handles passed to a hook are
	// stable for the rest of the run: installing either hook suppresses
	// slot recycling.
	preemptHook func(*inBuf, pktH)
	grantHook   func(*outPort, pktH)

	// deliveryHook and genHook are the workload-attachment surface (see
	// inject.go): value-passing observers of deliveries and generations.
	// Unlike the diagnostic hooks above they never suppress recycling,
	// and Reset clears them — workload drivers re-attach per cell.
	deliveryHook func(Delivery)
	genHook      func(traffic.TraceRecord)
	// abortFlag, when non-nil, is polled at every Run/RunUntilDrained
	// iteration: a set flag aborts the run with *AbortError (see
	// abort.go). Installed per cell by deadline-armed runners; Reset
	// clears it.
	abortFlag *atomic.Bool
	// probeFn/probeEvery/markFn are the telemetry attachment surface
	// (probe.go): a periodic read-only sampling tick riding the event
	// ring and a phase-transition observer. Per-cell like the workload
	// hooks — Reset clears all three.
	probeFn    func(sim.Cycle)
	probeEvery sim.Cycle
	markFn     func(ProbeMark)
	// injPool parks externally scheduled injections between
	// ScheduleInjection and their evInject firing; injFree is its
	// recycled-slot stack. Both are lazily allocated: open-loop runs
	// never touch them.
	injPool []pendingInj
	injFree []int32

	// Fault-injection, recovery and self-check state (fault.go,
	// watchdog.go, audit.go). fltDown/fltDead are per-port bitmaps (link
	// currently unusable / permanently failed), fltStall a per-node stall
	// bitmap; all are recomputed wholesale at every scheduled fault edge.
	// sysEvents counts pending bookkeeping events (fault edges, the
	// watchdog timer) that must not keep an otherwise-drained network
	// looking busy.
	fltOn        bool
	fltHasDead   bool
	fltDown      []uint64
	fltDead      []uint64
	fltStall     []uint64
	retryTimeout sim.Cycle
	maxRetries   int32
	sysEvents    int
	// wdWindow/lastProgress drive the no-forward-progress watchdog;
	// wdRecords is its auto-captured repro trace (every generation of the
	// run, recorded only while the watchdog is armed).
	wdWindow     sim.Cycle
	lastProgress sim.Cycle
	wdRecords    []traffic.TraceRecord
	// auditEvery/auditAt pace the invariant auditor.
	auditEvery sim.Cycle
	auditAt    sim.Cycle
}

// New builds a network from the configuration. It validates that the QoS
// flow population covers the workload.
func New(cfg Config) (*Network, error) {
	n := &Network{}
	if err := n.Reset(cfg); err != nil {
		return nil, err
	}
	return n, nil
}

// Reset rebuilds the network for a fresh simulation of cfg, reusing every
// backing allocation the previous configuration left behind — the packet
// arena, the event ring, per-port candidate lists and flow tables, buffer
// VC arrays, source queues and scratch buffers. A Reset network is
// bit-identical to a freshly built one (TestResetMatchesFreshBuild): all
// randomness derives from cfg.Seed and every piece of logical state is
// re-initialized here. Sweep drivers lean on this to run a whole grid of
// cells on one allocation per worker (runner.RunCells).
//
// The measurement collector is freshly allocated — results escape to the
// caller — and diagnostic hooks are preserved. Workload attachments
// (delivery/generation hooks, pending scheduled injections) are cleared:
// they belong to the previous cell's driver, which must re-attach
// (runner.Cell.Setup runs after every Reset for exactly this).
func (n *Network) Reset(cfg Config) error {
	if cfg.Nodes == 0 {
		cfg.Nodes = topology.ColumnNodes
	}
	if err := cfg.QoS.Validate(); err != nil {
		return err
	}
	if err := cfg.Faults.validate(cfg.Kind, cfg.Nodes); err != nil {
		return err
	}
	if cfg.WatchdogCycles < 0 {
		return fmt.Errorf("network: negative watchdog window %d", cfg.WatchdogCycles)
	}
	if cfg.AuditEvery < 0 {
		return fmt.Errorf("network: negative audit interval %d", cfg.AuditEvery)
	}
	if want := cfg.Workload.TotalFlows(); len(cfg.QoS.Rates) != want {
		return fmt.Errorf("network: QoS covers %d flows, workload needs %d", len(cfg.QoS.Rates), want)
	}
	for _, s := range cfg.Workload.Specs {
		if int(s.Node) < 0 || int(s.Node) >= cfg.Nodes {
			return fmt.Errorf("network: injector flow %d at node %d outside column of %d", s.Flow, s.Node, cfg.Nodes)
		}
		if err := s.Validate(); err != nil {
			return fmt.Errorf("network: %w", err)
		}
		if s.Replay != nil {
			for i, ev := range s.Replay.Events {
				if int(ev.Dst) >= cfg.Nodes {
					return fmt.Errorf("network: replay flow %d event %d destination %d outside column of %d",
						s.Flow, i, ev.Dst, cfg.Nodes)
				}
			}
		}
	}

	n.cfg = cfg
	n.mode = cfg.QoS.Mode
	n.clock.Reset()
	n.rng.Seed(cfg.Seed ^ 0x74616e6f71) // "tanoq"
	n.coll = stats.NewCollector(cfg.Workload.TotalFlows())
	n.margin = noc.Priority(cfg.QoS.EffectiveMargin())
	if n.graph == nil || n.graph.Kind != cfg.Kind || n.graph.Nodes != cfg.Nodes {
		n.graph = topology.NewGraph(cfg.Kind, cfg.Nodes)
	}

	if cap(n.ports) < len(n.graph.Ports) {
		n.ports = make([]outPort, len(n.graph.Ports))
	}
	n.ports = n.ports[:len(n.graph.Ports)]
	for i := range n.ports {
		p := &n.ports[i]
		p.id = topology.PortID(i)
		p.spec = n.graph.Ports[i]
		p.nextArb = 0
		if p.waiters == nil {
			p.waiters = make([]pktH, 0, waitersCap)
		}
		p.waiters = p.waiters[:0]
		p.rr = qos.RoundRobin{}
		p.waitEpoch = 0
		p.scanEpoch = 0
		p.scanFrame = 0
		p.scanValid = false
		if n.mode != qos.NoQoS {
			if p.table == nil {
				if k := len(n.parkedTables); k > 0 {
					p.table = n.parkedTables[k-1]
					n.parkedTables[k-1] = nil
					n.parkedTables = n.parkedTables[:k-1]
				}
			}
			if p.table == nil {
				p.table = qos.NewFlowTableWithQuantum(cfg.QoS.Rates, cfg.QoS.EffectiveQuantum())
			} else {
				p.table.Reinit(cfg.QoS.Rates, cfg.QoS.EffectiveQuantum())
			}
		} else if p.table != nil {
			n.parkedTables = append(n.parkedTables, p.table)
			p.table = nil
		}
	}

	if cap(n.bufs) < len(n.graph.Bufs) {
		n.bufs = make([]inBuf, len(n.graph.Bufs))
	}
	n.bufs = n.bufs[:len(n.graph.Bufs)]
	for i := range n.bufs {
		n.bufs[i].reinit(topology.BufID(i), n.graph.Bufs[i], n.mode == qos.PerFlowQueue)
	}

	if n.mode == qos.PVC && !cfg.QoS.DisableReservedQuota {
		if n.quota == nil {
			n.quota, n.parkedQuota = n.parkedQuota, nil
		}
		if n.quota == nil {
			n.quota = qos.NewReservedQuota(cfg.QoS.Rates, cfg.QoS.FrameCycles)
		} else {
			n.quota.Reinit(cfg.QoS.Rates, cfg.QoS.FrameCycles)
		}
	} else if n.quota != nil {
		n.parkedQuota, n.quota = n.quota, nil
	}
	if n.mode == qos.PVC {
		if n.frame == nil {
			n.frame, n.parkedFrame = n.parkedFrame, nil
		}
		if n.frame == nil {
			n.frame = qos.NewFrameTimer(cfg.QoS.FrameCycles)
		} else {
			n.frame.Reinit(cfg.QoS.FrameCycles)
		}
	} else if n.frame != nil {
		n.parkedFrame, n.frame = n.frame, nil
	}

	n.nextPktID = 0
	n.inFlight = 0
	n.frameCount = 0
	if n.arena == nil {
		// Slot 0 is the permanent nil-handle dummy. The arena and the
		// engine's other reusable containers are pre-sized to a
		// generous working set so that steady-state operation never
		// grows them: amortized append-doubling on stochastic depth
		// spikes was the engine's last residual allocation source
		// (TestStepAllocationFreeAtSteadyState documents the history).
		n.arena = make([]pkt, 1, arenaCap)
		n.free = make([]pktH, 0, arenaCap)
		n.bidScratch = make([]bid, 0, waitersCap)
		n.failedScratch = make([]int32, 0, waitersCap)
	}
	n.arena = n.arena[:1]
	n.free = n.free[:0]
	n.deliveryHook = nil
	n.genHook = nil
	n.abortFlag = nil
	n.probeFn = nil
	n.probeEvery = 0
	n.markFn = nil
	n.injPool = n.injPool[:0]
	n.injFree = n.injFree[:0]
	n.events.reset()
	n.relw.reset()
	n.headw.reset()
	n.delivw.reset()
	n.ackw.reset()
	n.arrivals.reset(len(cfg.Workload.Specs))
	if n.offerSrcs == nil {
		n.offerSrcs = make([]int32, 0, len(cfg.Workload.Specs))
	}
	n.offerSrcs = n.offerSrcs[:0]
	if nw := (len(n.ports) + 63) / 64; cap(n.activeW) < nw {
		n.activeW = make([]uint64, nw)
	} else {
		n.activeW = n.activeW[:nw]
		for i := range n.activeW {
			n.activeW[i] = 0
		}
	}
	n.waiterCount = 0

	if cap(n.srcs) < len(cfg.Workload.Specs) {
		n.srcs = make([]source, len(cfg.Workload.Specs))
	}
	n.srcs = n.srcs[:len(cfg.Workload.Specs)]
	for i, spec := range cfg.Workload.Specs {
		s := &n.srcs[i]
		s.reinit(&n.rng, spec, int32(i))
		n.scheduleArrival(s)
	}
	n.reinitFaults(cfg)
	return nil
}

// arrivalEligible reports whether the source's precomputed next arrival
// will actually happen: an inactive sampler never emits, and an arrival
// landing at or past the injector's StopAt deadline is one the modeled
// Bernoulli process would never produce — the source is permanently done
// generating. Both the initial scheduling and Step's in-place heap
// replacement use this single predicate, so they can never drift apart.
func (n *Network) arrivalEligible(s *source) bool {
	if s.replay != nil {
		// Replay sources are scheduled while records remain; the recorded
		// stream is explicit, so StopAt does not apply.
		return int(s.replayPos) < len(s.replay.Events)
	}
	if !s.arr.Active() {
		return false
	}
	return !(s.spec.StopAt > 0 && s.nextArrival >= s.spec.StopAt)
}

// scheduleArrival (re-)enters a source into the arrival heap, unless it
// is permanently done generating (see arrivalEligible), in which case it
// leaves the schedule for good.
func (n *Network) scheduleArrival(s *source) {
	if !n.arrivalEligible(s) {
		return
	}
	n.arrivals.add(s.nextArrival, s.idx, n.clock.Now())
}

// markOfferable puts a source on the offerable list if it actually has an
// injectable packet and is not already offering or listed. The sorted
// insert keeps the list in source-index order, matching the historical
// all-sources offer scan.
func (n *Network) markOfferable(s *source) {
	if s.inOffer || s.offering != noPkt {
		return
	}
	if s.retx.empty() && s.queue.empty() {
		return
	}
	s.inOffer = true
	n.offerSrcs = append(n.offerSrcs, s.idx)
	for i := len(n.offerSrcs) - 1; i > 0 && n.offerSrcs[i-1] > s.idx; i-- {
		n.offerSrcs[i], n.offerSrcs[i-1] = n.offerSrcs[i-1], n.offerSrcs[i]
	}
}

// MustNew is New that panics on configuration errors, for tests and
// experiment drivers with static configurations.
func MustNew(cfg Config) *Network {
	n, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// Stats exposes the measurement collector.
func (n *Network) Stats() *stats.Collector { return n.coll }

// Config returns the configuration this network was last (re)built for.
// Workload drivers use it to resolve injector indices and populations.
func (n *Network) Config() Config { return n.cfg }

// Now returns the current simulation cycle.
func (n *Network) Now() sim.Cycle { return n.clock.Now() }

// Graph exposes the topology graph (read-only use).
func (n *Network) Graph() *topology.Graph { return n.graph }

// Mode returns the QoS policy in effect.
func (n *Network) Mode() qos.Mode { return n.mode }

// InFlight returns the number of packets injected but not yet delivered
// (or awaiting retransmission).
func (n *Network) InFlight() int { return n.inFlight }

// Frames returns how many PVC frame boundaries (counter flushes and quota
// refills) have fired. Zero outside PVC mode.
func (n *Network) Frames() int { return int(n.frameCount) }

// Step advances the simulation by one cycle.
func (n *Network) Step() {
	now := n.clock.Now()
	n.fireReleases(now)
	n.processEvents(now)
	n.fireDelivers(now)
	n.fireAcks(now)
	n.fireHeads(now)
	if n.frame != nil && n.frame.Expired(now) {
		for i := range n.ports {
			n.ports[i].table.Flush()
		}
		if n.quota != nil {
			n.quota.Refill()
		}
		n.frameCount++
	}
	// Fire exactly the sources whose arrival cycle has come (ties in
	// source-index order, like the historical all-sources scan) and
	// reschedule each for its next draw. The bucket is re-read every
	// iteration: a replay source can re-file itself for this same cycle
	// mid-loop (index-ordered after the entry being fired), and the
	// insert may grow the bucket's backing array.
	if len(n.arrivals.far.items) > 0 {
		n.arrivals.drainFar(now)
	}
	abi := int(uint64(now) & ringMask)
	if len(n.arrivals.buckets[abi]) > 0 {
		for k := 0; k < len(n.arrivals.buckets[abi]); k++ {
			idx := n.arrivals.buckets[abi][k]
			s := &n.srcs[idx]
			n.generate(s, now)
			if n.arrivalEligible(s) {
				n.arrivals.add(s.nextArrival, idx, now)
			}
		}
		b := n.arrivals.buckets[abi]
		n.arrivals.near -= len(b)
		n.arrivals.buckets[abi] = b[:0]
		n.arrivals.words[abi>>6] &^= 1 << uint(abi&63)
	}
	// Offer pass over the sources actually holding injectable packets, in
	// source-index order. A source whose packet just went on offer (or
	// that somehow lost its backlog) leaves the list; it re-enters
	// through markOfferable when new work appears.
	liveSrcs := n.offerSrcs[:0]
	for _, si := range n.offerSrcs {
		s := &n.srcs[si]
		n.offer(s, now)
		if s.offering == noPkt && (!s.retx.empty() || !s.queue.empty()) &&
			!n.windowCapped(s) {
			liveSrcs = append(liveSrcs, si)
		} else {
			s.inOffer = false
		}
	}
	n.offerSrcs = liveSrcs
	// Arbitrate only the ports holding candidates, clearing the bits of
	// the ones that have gone empty as they are reached. Ports emptied
	// behind the scan (an inversion preemption at a later port can
	// withdraw a waiter from an earlier, already-visited one) keep their
	// bit until the next pass, which is harmless: set bits fire in
	// ascending port-ID order, so a stale bit costs one length check and
	// can never perturb arbitration order. No bit is ever set mid-scan —
	// register runs only from the offer pass and head arrivals, both
	// earlier in the cycle — so iterating a per-word snapshot is exact.
	for wi := range n.activeW {
		for w := n.activeW[wi]; w != 0; {
			b := w & -w
			w &^= b
			pi := wi<<6 + bits.TrailingZeros64(b)
			p := &n.ports[pi]
			if len(p.waiters) > 0 {
				n.arbitrate(p, now)
			}
			if len(p.waiters) == 0 {
				n.activeW[wi] &^= b
			}
		}
	}
	if n.auditEvery > 0 && now >= n.auditAt {
		n.auditAt = now + n.auditEvery
		n.mustAudit(now)
	}
	n.clock.Tick()
}

// Run advances the simulation by the given number of cycles, fast-
// forwarding over provably idle windows unless Config.DisableIdleSkip is
// set. The clock lands on exactly the same final cycle either way.
func (n *Network) Run(cycles int) {
	end := n.clock.Now() + sim.Cycle(cycles)
	for now := n.clock.Now(); now < end; now = n.clock.Now() {
		n.checkAbort(now)
		if !n.cfg.DisableIdleSkip {
			if wake, ok := n.nextWake(now); ok {
				if wake > end {
					wake = end
				}
				n.clock.Advance(wake - now)
				continue
			}
		}
		n.Step()
	}
}

// neverCycle is effectively +infinity for next-wake computations.
const neverCycle = sim.Cycle(1) << 62

// nextWake reports the earliest future cycle at which the engine could
// have work, or ok=false when the current cycle itself may have work and
// must be stepped. The fast-forward is provably mechanical: a cycle is
// skippable only when no port holds an arbitration candidate (so neither
// allocation nor inversion preemption can fire), and the wake cycle is the
// minimum over everything that is scheduled to change that — the event
// heap (head arrivals, deliveries, VC releases, ACKs/NACKs), the next PVC
// frame boundary (counter flush + quota refill), and each live source's
// next act (injection-VC free at busyUntil, or the precomputed geometric
// arrival). Cycles in between execute no state change at all, so skipping
// them is bit-identical to ticking through them.
func (n *Network) nextWake(now sim.Cycle) (wake sim.Cycle, ok bool) {
	if n.waiterCount > 0 || n.events.dueNow(now) {
		return 0, false
	}
	wake = neverCycle
	if at, evOk := n.events.nextAt(now); evOk {
		if at <= now {
			return 0, false
		}
		wake = at
	}
	if n.frame != nil {
		if next := n.frame.Next(); next < wake {
			wake = next
		}
	}
	if n.arrivals.Len() > 0 {
		if a, aOk := n.arrivals.nextAt(now); aOk && a < wake {
			wake = a
		}
	}
	if n.relw.count > 0 {
		// A pending wheel occurrence must fire on its exact cycle (the
		// wheels have no late list), so the fast-forward never jumps one.
		if a, rOk := n.relw.nextAt(now); rOk && a < wake {
			wake = a
		}
	}
	if n.headw.count > 0 {
		if a, hOk := n.headw.nextAt(now); hOk && a < wake {
			wake = a
		}
	}
	if n.delivw.count > 0 {
		if a, dOk := n.delivw.nextAt(now); dOk && a < wake {
			wake = a
		}
	}
	if n.ackw.count > 0 {
		if a, aOk := n.ackw.nextAt(now); aOk && a < wake {
			wake = a
		}
	}
	for _, si := range n.offerSrcs {
		if w := n.nextOffer(&n.srcs[si]); w < wake {
			wake = w
		}
	}
	if wake <= now {
		return 0, false
	}
	return wake, true
}

// WarmupAndMeasure runs warmup cycles with measurement paused, resets the
// collector, then runs the measurement window.
func (n *Network) WarmupAndMeasure(warmup, measure int) {
	n.coll.Pause()
	n.Run(warmup)
	n.measureStart()
	n.Run(measure)
}

// measureStart resets the collector at the warmup/measure boundary and
// emits the phase mark — the single warmup/measure boundary, so
// telemetry re-baselines its deltas at exactly the cycle the counters
// restart.
func (n *Network) measureStart() {
	now := n.clock.Now()
	n.coll.Reset(now)
	n.mark(MarkMeasureStart, -1, now)
}

// RunUntilDrained advances until every injector is exhausted and no packet
// remains in flight, or maxCycles elapse. It returns the cycle of the last
// delivery and whether the network fully drained. Idle windows are
// fast-forwarded like Run's unless Config.DisableIdleSkip is set.
func (n *Network) RunUntilDrained(maxCycles int) (completion sim.Cycle, drained bool) {
	end := n.clock.Now() + sim.Cycle(maxCycles)
	for now := n.clock.Now(); now < end; now = n.clock.Now() {
		n.checkAbort(now)
		if !n.cfg.DisableIdleSkip {
			if n.idle() {
				// Only reachable on the first iteration (a Step that
				// empties the network returns below; a fast-forward
				// never changes state). Mirror the tick engine, which
				// always executes one no-op Step before its idle check,
				// so the final clock — and a frame flush, if that step
				// sits on a boundary — stay bit-identical.
				n.Step()
				return n.coll.LastDelivery, true
			}
			if wake, ok := n.nextWake(now); ok {
				if wake > end {
					wake = end
				}
				n.clock.Advance(wake - now)
				continue
			}
		}
		n.Step()
		if n.idle() {
			return n.coll.LastDelivery, true
		}
	}
	return n.coll.LastDelivery, n.idle()
}

// idle reports whether no work remains anywhere in the network, in O(1):
// nothing in flight, no scheduled event, no arbitration candidate, no
// future arrival (sources leave the arrival heap permanently once their
// next draw lands past StopAt), and no source holding an injectable
// backlog. A source with outstanding window slots always has a pending
// ACK/NACK somewhere in the event chain, so the event check covers
// retransmission obligations too. Pending bookkeeping events — unfired
// fault edges and the watchdog timer — act on no packet and are excluded:
// a drained network with a fault scheduled next week is still drained.
func (n *Network) idle() bool {
	return n.inFlight == 0 && n.events.Len() == n.sysEvents && n.relw.count == 0 &&
		n.headw.count == 0 && n.delivw.count == 0 && n.ackw.count == 0 &&
		n.waiterCount == 0 && n.arrivals.Len() == 0 && len(n.offerSrcs) == 0
}
