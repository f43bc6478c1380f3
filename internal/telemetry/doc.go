// Package telemetry turns one run of the engine into a deterministic
// time series. A Sampler attaches to a network as a periodic probe on
// the calendar ring (network.SetProbe) and, at every interval boundary,
// differences the stats collector's cumulative counters into
// per-interval series — injected/delivered/retried flits, preemption
// and fault counts, per-flow throughput — and snapshots instantaneous
// VC occupancy, per router for the congestion heatmap. Phase marks
// (the warmup/measure boundary, fault window edges, watchdog trips)
// annotate the series via the network's mark hook.
//
// # Why probes ride the calendar ring
//
// The obvious way to sample a simulator is from outside the engine:
// check `now % interval == 0` in the step loop, or poll from the
// driver between Run calls. Both break the properties this repository
// is built on.
//
// A modulo check in Step taxes every cycle of every run — including
// the unprobed ones — on the one path the allocation and ns/cycle
// gates pin. Polling between Run calls is worse: the idle-skip engine
// does not visit every cycle, so a wall-clock or driver-paced sampler
// observes different cycles depending on whether skipping is enabled
// and how workers interleave — the same simulation would produce
// different timelines on different machines.
//
// Scheduling the probe as a first-class event on the calendar ring —
// the same ring evFault and evWatchdog already ride — dissolves all of
// it:
//
//   - Unprobed runs pay nothing. No branch in Step, no hook check per
//     cycle; a run without a sampler has no probe event in the ring.
//   - Idle skipping stays exact. The engine's wake computation already
//     takes the earliest ring event into account, so a fast-forward
//     stops precisely on every sample boundary; probed timelines are
//     byte-identical with skipping on and off.
//   - Determinism is inherited, not re-proved. The probe fires at an
//     exact simulated cycle, in the engine's deterministic event
//     order, so the timeline is a pure function of the cell — the same
//     bytes for every worker count.
//   - Probing cannot perturb. The handler only reads engine state
//     (counter deltas and occupancy scans); it schedules nothing but
//     its own next tick, which the event census tracks as bookkeeping
//     (sysEvents) so a drained network still terminates. A probed run
//     is bit-identical to an unprobed one, pinned by fingerprint A/B
//     tests across topologies, QoS modes and skip settings.
//
// Every buffer the sampler writes during a run is preallocated at
// Attach time from the declared horizon, so an installed sampler keeps
// Step at exactly zero allocations per cycle; ticks beyond the
// preallocated capacity are counted (DroppedSamples), not stored.
package telemetry
