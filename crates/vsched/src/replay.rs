//! Trace replay: schedule a recorded metaheuristic batch stream onto a
//! simulated node.
//!
//! The engine in `metaheur` is deterministic, so the *search trajectory*
//! (and therefore the sequence of scoring-batch sizes) is identical no
//! matter which devices execute the scoring. That lets the experiment
//! harness run the search once, record its [`metaheur::RunResult::batch_trace`],
//! and then replay the same workload under every scheduling strategy to
//! obtain virtual execution times — the mechanism behind Tables 6–9.
//!
//! Replay semantics follow the paper's execution model: devices run
//! *independent* executions of their conformation shares (§3.3 "Parallel
//! runs do not incur any communication overhead"), so there is no
//! cross-device synchronization until the final reduction; the slowest
//! device determines overall time.
//!
//! Every entry point here is one loop over the shared
//! [`crate::policy`]: plan the batch, charge the plan
//! (`runtime::charge_plan`), observe the outcome. Live execution
//! ([`crate::DeviceEvaluator`]) runs the same loop, so a replay and a live
//! run of one batch trace produce bitwise the same device clocks.

use crate::oracle::CostOracle;
use crate::policy::{host_only, Policy};
use crate::runtime::charge_plan;
use crate::strategy::Strategy;
use gpusim::{EnergyModel, SimDevice, Timeline, WorkProfile};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use vstrace::Trace;

/// Outcome of replaying one workload under one strategy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScheduleReport {
    pub strategy_label: String,
    pub device_names: Vec<String>,
    /// Final virtual clock per device (seconds).
    pub device_times: Vec<f64>,
    /// Overall execution time: the slowest device's clock.
    pub makespan: f64,
    /// Normalized split or deque-seed weights in use at the end (None for
    /// CPU-only / dynamic, or while the warm-up is still running).
    pub shares: Option<Vec<f64>>,
    /// Total conformations scheduled.
    pub total_items: u64,
    /// Whole-configuration energy to solution (joules): every device in
    /// the configuration — including the host CPU — is powered for the
    /// whole makespan, busy or idle ([`gpusim::EnergyModel`]).
    pub energy_joules: f64,
}

/// Replay `trace` (batch sizes, in order) under `strategy`.
///
/// Device clocks are reset first, so the report's `makespan` is the full
/// cost of this workload, including the heterogeneous strategy's warm-up.
///
/// ```
/// use std::sync::Arc;
/// use gpusim::{catalog, SimDevice};
/// use vsched::{schedule_trace, Strategy, WarmupConfig};
///
/// let cpu = Arc::new(SimDevice::new(0, catalog::xeon_e3_1220()));
/// let gpus = vec![
///     Arc::new(SimDevice::new(1, catalog::tesla_k40c())),
///     Arc::new(SimDevice::new(2, catalog::geforce_gtx_580())),
/// ];
/// // 33 generations of 2048 conformations, 45x3264 pairs each.
/// let trace: Vec<u64> = std::iter::repeat(2048).take(33).collect();
///
/// let hom = schedule_trace(&cpu, &gpus, &trace, 45 * 3264, Strategy::HomogeneousSplit);
/// let het = schedule_trace(&cpu, &gpus, &trace, 45 * 3264,
///     Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() });
/// // Equation 1's proportional split beats the equal split on Kepler+Fermi.
/// assert!(het.makespan < hom.makespan);
/// ```
pub fn schedule_trace(
    cpu: &Arc<SimDevice>,
    gpus: &[Arc<SimDevice>],
    trace: &[u64],
    pairs_per_item: u64,
    strategy: Strategy,
) -> ScheduleReport {
    replay(cpu, gpus, trace, pairs_per_item, strategy, &[], None, &Trace::disabled(), None)
}

/// Replay a trace while recording an execution timeline (Gantt view) —
/// the introspection companion to [`schedule_trace`], with one segment
/// per launch (warm-up batches included).
pub fn schedule_trace_timeline(
    cpu: &Arc<SimDevice>,
    gpus: &[Arc<SimDevice>],
    trace: &[u64],
    pairs_per_item: u64,
    strategy: Strategy,
) -> (ScheduleReport, Timeline) {
    let tl = Timeline::new();
    let report = replay(
        cpu,
        gpus,
        trace,
        pairs_per_item,
        strategy,
        &[],
        Some(&tl),
        &Trace::disabled(),
        None,
    );
    (report, tl)
}

/// Replay `trace` under `strategy` with a mid-run degradation: at batch
/// index `onset_batch` (before it executes), each GPU's future work is
/// slowed by the matching factor in `gpu_slowdowns` (1.0 = healthy; see
/// [`gpusim::SimDevice::set_slowdown`]). This is the virtual-time model of
/// a device that throttles or degrades *after* the warm-up froze its
/// Equation 1 weight — the scenario work stealing exists to heal. A single
/// phase of [`schedule_trace_drift`].
///
/// # Panics
/// Panics if `gpu_slowdowns.len() != gpus.len()` or if a GPU strategy is
/// given no GPUs.
#[allow(clippy::too_many_arguments)]
pub fn schedule_trace_faulty(
    cpu: &Arc<SimDevice>,
    gpus: &[Arc<SimDevice>],
    trace: &[u64],
    pairs_per_item: u64,
    strategy: Strategy,
    gpu_slowdowns: &[f64],
    onset_batch: usize,
    events: &Trace,
) -> ScheduleReport {
    assert_eq!(gpu_slowdowns.len(), gpus.len(), "one slowdown factor per GPU");
    schedule_trace_drift(
        cpu,
        gpus,
        trace,
        pairs_per_item,
        strategy,
        &[(onset_batch, gpu_slowdowns.to_vec())],
        events,
        None,
    )
}

/// Replay `trace` under `strategy` through a sequence of degradation
/// *phases*: before batch `phases[k].0` executes, every GPU's slowdown is
/// set to the matching factor in `phases[k].1` (1.0 restores nominal
/// speed, so a slow-then-recover drift scenario is two phases). This is
/// the harness behind the `sched_snapshot` drift scenarios.
///
/// For [`Strategy::Oracle`], `oracle` optionally carries learned state
/// across calls (the campaign service's cross-tenant warm start): a warm
/// oracle skips the warm-up phase entirely and seeds from its fits at
/// batch 0, and every observation made here updates the caller's model.
/// Pass `None` for a self-contained run (fresh cold-start oracle). Other
/// strategies ignore the parameter.
///
/// Every launch, steal and scheduling decision is emitted to `events`
/// (`DeviceBusy`, [`vstrace::Event::JobMigrated`], `WarmupSample`,
/// `PartitionDecision`, `ModelUpdated`, the `oracle_reseed` counter); pass
/// [`Trace::disabled`] when only the report matters.
///
/// # Panics
/// Panics if any phase's factor list length differs from `gpus.len()`, if
/// a GPU strategy is given no GPUs, or if a passed-in oracle was built for
/// a different device count.
#[allow(clippy::too_many_arguments)]
pub fn schedule_trace_drift(
    cpu: &Arc<SimDevice>,
    gpus: &[Arc<SimDevice>],
    trace: &[u64],
    pairs_per_item: u64,
    strategy: Strategy,
    phases: &[(usize, Vec<f64>)],
    events: &Trace,
    oracle: Option<&mut CostOracle>,
) -> ScheduleReport {
    replay(cpu, gpus, trace, pairs_per_item, strategy, phases, None, events, oracle)
}

/// The one replay loop: policy → charge → observe, per batch.
#[allow(clippy::too_many_arguments)]
fn replay(
    cpu: &Arc<SimDevice>,
    gpus: &[Arc<SimDevice>],
    trace: &[u64],
    pairs_per_item: u64,
    strategy: Strategy,
    phases: &[(usize, Vec<f64>)],
    timeline: Option<&Timeline>,
    events: &Trace,
    oracle: Option<&mut CostOracle>,
) -> ScheduleReport {
    for (_, factors) in phases {
        assert_eq!(factors.len(), gpus.len(), "one slowdown factor per GPU per phase");
    }
    cpu.reset();
    for g in gpus {
        g.reset(); // also restores nominal slowdown from any prior replay
    }
    let devices = if host_only(&strategy) { std::slice::from_ref(cpu) } else { gpus };
    assert!(!devices.is_empty(), "GPU strategies need GPUs");
    // Replay prices every batch in the dense pair-sweep regime.
    let profile = WorkProfile::pairs(pairs_per_item);
    let mut policy = Policy::new(strategy, devices, profile, oracle.as_deref().cloned());

    for (bi, &items) in trace.iter().enumerate() {
        for (onset, factors) in phases {
            if *onset == bi {
                for (g, &f) in gpus.iter().zip(factors) {
                    if f != 1.0 || g.slowdown() != 1.0 {
                        g.set_slowdown(f);
                    }
                }
            }
        }
        let plan = policy.plan(items, events);
        let charged = charge_plan(devices, &plan, profile, timeline, events);
        policy.observe(&charged, events);
    }

    let device_times: Vec<f64> = devices.iter().map(|d| d.clock()).collect();
    let makespan = device_times.iter().cloned().fold(0.0, f64::max);
    let shares = policy.weights().map(|w| {
        let total: f64 = w.iter().sum();
        w.iter().map(|x| x / total).collect()
    });
    if let (Some(slot), Some(learned)) = (oracle, policy.into_oracle()) {
        *slot = learned;
    }
    ScheduleReport {
        strategy_label: strategy.label().into(),
        device_names: devices.iter().map(|d| d.spec().name.clone()).collect(),
        device_times,
        makespan,
        shares,
        total_items: trace.iter().sum(),
        energy_joules: config_energy(cpu, gpus, makespan),
    }
}

/// Whole-configuration energy: CPU plus every listed GPU, powered for the
/// full makespan.
fn config_energy(cpu: &Arc<SimDevice>, gpus: &[Arc<SimDevice>], makespan: f64) -> f64 {
    let model = EnergyModel::default();
    let mut e = model.device_energy(cpu, makespan).joules;
    for g in gpus {
        e += model.device_energy(g, makespan).joules;
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::OracleConfig;
    use crate::warmup::WarmupConfig;
    use gpusim::{catalog, KernelClass};
    use vstrace::Event;

    const PAIRS: u64 = 45 * 3264;

    fn hertz() -> (Arc<SimDevice>, Vec<Arc<SimDevice>>) {
        (
            Arc::new(SimDevice::new(0, catalog::xeon_e3_1220())),
            vec![
                Arc::new(SimDevice::new(1, catalog::tesla_k40c())),
                Arc::new(SimDevice::new(2, catalog::geforce_gtx_580())),
            ],
        )
    }

    /// A plausible M1-like trace: init + 32 generations of 64×32 spots —
    /// big enough per batch to put the GPUs in the saturated-occupancy
    /// regime the paper's workloads run in.
    fn trace() -> Vec<u64> {
        std::iter::repeat_n(64 * 32, 33).collect()
    }

    #[test]
    fn cpu_only_uses_cpu() {
        let (cpu, gpus) = hertz();
        let r = schedule_trace(&cpu, &gpus, &trace(), PAIRS, Strategy::CpuOnly);
        assert_eq!(r.device_times.len(), 1);
        assert!(r.makespan > 0.0);
        assert_eq!(gpus[0].clock(), 0.0);
        assert_eq!(r.total_items, 33 * 2048);
    }

    #[test]
    fn gpu_strategies_beat_cpu_by_a_lot() {
        let (cpu, gpus) = hertz();
        let t_cpu = schedule_trace(&cpu, &gpus, &trace(), PAIRS, Strategy::CpuOnly).makespan;
        let t_hom =
            schedule_trace(&cpu, &gpus, &trace(), PAIRS, Strategy::HomogeneousSplit).makespan;
        let speedup = t_cpu / t_hom;
        assert!(speedup > 10.0, "GPU speedup only {speedup}");
    }

    #[test]
    fn heterogeneous_beats_homogeneous_on_hertz() {
        // The paper's headline result: up to 1.56× on the Kepler+Fermi node.
        let (cpu, gpus) = hertz();
        let t_hom =
            schedule_trace(&cpu, &gpus, &trace(), PAIRS, Strategy::HomogeneousSplit).makespan;
        let t_het = schedule_trace(
            &cpu,
            &gpus,
            &trace(),
            PAIRS,
            Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() },
        )
        .makespan;
        let gain = t_hom / t_het;
        assert!(gain > 1.25, "heterogeneous gain only {gain}");
        assert!(gain < 2.0, "gain suspiciously large: {gain}");
    }

    #[test]
    fn homogeneous_split_bottlenecked_by_slow_gpu() {
        let (cpu, gpus) = hertz();
        let r = schedule_trace(&cpu, &gpus, &trace(), PAIRS, Strategy::HomogeneousSplit);
        // GTX 580 (index 1) is slower and determines the makespan.
        assert!(r.device_times[1] > r.device_times[0]);
        assert_eq!(r.makespan, r.device_times[1]);
    }

    #[test]
    fn heterogeneous_balances_completion_times() {
        // Long run: the warm-up's equal-split imbalance amortizes away and
        // the Equation 1 split keeps both devices finishing together.
        let (cpu, gpus) = hertz();
        let long_trace: Vec<u64> = std::iter::repeat_n(64 * 32, 200).collect();
        let r = schedule_trace(
            &cpu,
            &gpus,
            &long_trace,
            PAIRS,
            Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() },
        );
        let imbalance = (r.device_times[0] - r.device_times[1]).abs() / r.makespan;
        assert!(imbalance < 0.10, "imbalance {imbalance}: {:?}", r.device_times);
    }

    #[test]
    fn heterogeneous_shares_sum_to_one() {
        let (cpu, gpus) = hertz();
        let r = schedule_trace(
            &cpu,
            &gpus,
            &trace(),
            PAIRS,
            Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() },
        );
        let s = r.shares.unwrap();
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(s[0] > s[1], "K40c share must dominate: {s:?}");
    }

    #[test]
    fn dynamic_queue_close_to_heterogeneous() {
        let (cpu, gpus) = hertz();
        let t_het = schedule_trace(
            &cpu,
            &gpus,
            &trace(),
            PAIRS,
            Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() },
        )
        .makespan;
        let t_dyn =
            schedule_trace(&cpu, &gpus, &trace(), PAIRS, Strategy::DynamicQueue { chunk: 512 })
                .makespan;
        // Dynamic self-scheduling also balances, but pays an occupancy
        // penalty for its smaller kernels (an ablation finding: static
        // Eq. 1 splits keep launches large).
        assert!((t_dyn / t_het) < 1.4, "dynamic {t_dyn} vs het {t_het}");
    }

    #[test]
    fn replay_resets_clocks() {
        let (cpu, gpus) = hertz();
        gpus[0].advance(100.0);
        let r = schedule_trace(&cpu, &gpus, &[64], PAIRS, Strategy::HomogeneousSplit);
        assert!(r.makespan < 100.0, "stale clock leaked into report");
    }

    #[test]
    fn identical_gpus_make_strategies_equivalent() {
        // On a truly homogeneous pair the heterogeneous algorithm's split
        // converges to the equal split (paper §5: "minimal differences" on
        // near-identical Fermi cards).
        let cpu = Arc::new(SimDevice::new(0, catalog::xeon_e3_1220()));
        let gpus = vec![
            Arc::new(SimDevice::new(1, catalog::geforce_gtx_590())),
            Arc::new(SimDevice::new(2, catalog::geforce_gtx_590())),
        ];
        let t_hom =
            schedule_trace(&cpu, &gpus, &trace(), PAIRS, Strategy::HomogeneousSplit).makespan;
        let t_het = schedule_trace(
            &cpu,
            &gpus,
            &trace(),
            PAIRS,
            Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() },
        )
        .makespan;
        let gain = t_hom / t_het;
        assert!((0.95..1.05).contains(&gain), "gain {gain} should be ≈1");
    }

    #[test]
    fn energy_reported_and_sane() {
        let (cpu, gpus) = hertz();
        let r_cpu = schedule_trace(&cpu, &gpus, &trace(), PAIRS, Strategy::CpuOnly);
        let r_het = schedule_trace(
            &cpu,
            &gpus,
            &trace(),
            PAIRS,
            Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() },
        );
        assert!(r_cpu.energy_joules > 0.0 && r_het.energy_joules > 0.0);
        // The paper's energy argument: the GPU configuration finishes so
        // much sooner that whole-node energy-to-solution plummets even
        // though the GPUs burn more power while busy.
        assert!(
            r_het.energy_joules < r_cpu.energy_joules / 5.0,
            "GPU energy {} vs CPU energy {}",
            r_het.energy_joules,
            r_cpu.energy_joules
        );
    }

    #[test]
    fn heterogeneous_saves_energy_over_homogeneous() {
        let (cpu, gpus) = hertz();
        let e_hom =
            schedule_trace(&cpu, &gpus, &trace(), PAIRS, Strategy::HomogeneousSplit).energy_joules;
        let e_het = schedule_trace(
            &cpu,
            &gpus,
            &trace(),
            PAIRS,
            Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() },
        )
        .energy_joules;
        assert!(e_het < e_hom, "balanced schedule should cut idle energy: {e_het} vs {e_hom}");
    }

    #[test]
    fn timeline_replay_matches_plain_replay() {
        let (cpu, gpus) = hertz();
        let strat = Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() };
        let plain = schedule_trace(&cpu, &gpus, &trace(), PAIRS, strat).makespan;
        let (report, tl) = super::schedule_trace_timeline(&cpu, &gpus, &trace(), PAIRS, strat);
        assert!((report.makespan - plain).abs() < 1e-12 * plain, "{} vs {plain}", report.makespan);
        assert!((tl.makespan() - report.makespan).abs() < 1e-12 * plain);
        // One segment per (batch, device).
        assert_eq!(tl.segments().len(), trace().len() * 2);
    }

    #[test]
    fn timeline_shows_homogeneous_imbalance() {
        // Under the homogeneous split, the K40c idles while the GTX 580
        // finishes — visible as idle time on device 0.
        let (cpu, gpus) = hertz();
        let (_, tl) = super::schedule_trace_timeline(
            &cpu,
            &gpus,
            &trace(),
            PAIRS,
            Strategy::HomogeneousSplit,
        );
        let idle_k40 = tl.idle_time(gpus[0].id());
        let idle_580 = tl.idle_time(gpus[1].id());
        assert!(idle_k40 > idle_580, "K40c should idle more: {idle_k40} vs {idle_580}");
        assert!(idle_k40 / tl.makespan() > 0.3, "imbalance should be large");
        let chart = tl.render(60);
        assert!(chart.contains("K40c") && chart.contains('#'));
    }

    #[test]
    fn timeline_records_one_segment_per_dynamic_chunk() {
        // The greedy plan launches every chunk on its own: 64 items in
        // chunks of 8 are eight Gantt segments, matching the plain replay.
        let (cpu, gpus) = hertz();
        let strat = Strategy::DynamicQueue { chunk: 8 };
        let plain = schedule_trace(&cpu, &gpus, &[64], PAIRS, strat).makespan;
        let (report, tl) = super::schedule_trace_timeline(&cpu, &gpus, &[64], PAIRS, strat);
        assert_eq!(report.makespan.to_bits(), plain.to_bits());
        assert_eq!(tl.segments().len(), 8);
        assert_eq!(tl.segments().iter().map(|s| s.items).sum::<u64>(), 64);
    }

    #[test]
    fn empty_trace_zero_makespan_cpu() {
        let (cpu, gpus) = hertz();
        let r = schedule_trace(&cpu, &gpus, &[], PAIRS, Strategy::CpuOnly);
        assert_eq!(r.makespan, 0.0);
        assert_eq!(r.total_items, 0);
    }

    #[test]
    #[should_panic]
    fn gpu_strategy_without_gpus_panics() {
        let cpu = Arc::new(SimDevice::new(0, catalog::xeon_e3_1220()));
        schedule_trace(&cpu, &[], &[64], PAIRS, Strategy::HomogeneousSplit);
    }

    fn worksteal() -> Strategy {
        Strategy::WorkSteal { warmup: WarmupConfig::default(), divisor: 2 }
    }

    /// Straggler-scenario trace: generations far above the occupancy floor
    /// so the deques hold many whole chunks and stealing has granularity
    /// to work with.
    fn big_trace() -> Vec<u64> {
        std::iter::repeat_n(16 * 1024, 24).collect()
    }

    #[test]
    fn work_steal_healthy_within_five_percent_of_heterogeneous() {
        // Acceptance: when nothing goes wrong, the seeded deques drain as
        // whole per-device chunks — virtually identical to the frozen
        // Percent split, so stealing costs nothing to carry.
        let (cpu, gpus) = hertz();
        let t_het = schedule_trace(
            &cpu,
            &gpus,
            &trace(),
            PAIRS,
            Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() },
        )
        .makespan;
        let t_ws = schedule_trace(&cpu, &gpus, &trace(), PAIRS, worksteal()).makespan;
        let ratio = t_ws / t_het;
        assert!(
            ratio <= 1.05,
            "healthy work stealing must not lose to the Percent split: {t_ws} vs {t_het}"
        );
        // It is allowed to *win* (the drain reclaims the warm-up's
        // equal-split imbalance, which the frozen split never recovers),
        // but not by an implausible margin.
        assert!(ratio >= 0.7, "suspiciously large healthy gain: {t_ws} vs {t_het}");
    }

    #[test]
    fn work_steal_shares_favor_fast_device() {
        let (cpu, gpus) = hertz();
        let r = schedule_trace(&cpu, &gpus, &trace(), PAIRS, worksteal());
        assert_eq!(r.strategy_label, "Work stealing");
        let s = r.shares.unwrap();
        assert!(s[0] > s[1], "K40c seed share must dominate: {s:?}");
    }

    #[test]
    fn faulty_replay_with_no_faults_matches_plain_replay() {
        let (cpu, gpus) = hertz();
        for strat in [
            Strategy::HomogeneousSplit,
            Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() },
            worksteal(),
            Strategy::DynamicQueue { chunk: 512 },
        ] {
            let plain = schedule_trace(&cpu, &gpus, &trace(), PAIRS, strat).makespan;
            let faulty = schedule_trace_faulty(
                &cpu,
                &gpus,
                &trace(),
                PAIRS,
                strat,
                &[1.0, 1.0],
                0,
                &Trace::disabled(),
            )
            .makespan;
            assert_eq!(
                faulty.to_bits(),
                plain.to_bits(),
                "{}: healthy faulty replay must be bit-identical",
                strat.label()
            );
        }
    }

    #[test]
    fn work_steal_heals_midrun_straggler() {
        // Acceptance: a GPU that degrades 4x after the warm-up froze its
        // weight strands its seeded share; the runtime's steals must beat
        // the frozen Percent split by >= 1.3x on makespan.
        let (cpu, gpus) = hertz();
        let onset = WarmupConfig::default().iterations + 2;
        let faults = [1.0, 4.0];
        let t_frozen = schedule_trace_faulty(
            &cpu,
            &gpus,
            &big_trace(),
            PAIRS,
            Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() },
            &faults,
            onset,
            &Trace::disabled(),
        )
        .makespan;
        let t_steal = schedule_trace_faulty(
            &cpu,
            &gpus,
            &big_trace(),
            PAIRS,
            worksteal(),
            &faults,
            onset,
            &Trace::disabled(),
        )
        .makespan;
        let gain = t_frozen / t_steal;
        assert!(gain >= 1.3, "steal gain only {gain}: {t_steal} vs frozen {t_frozen}");
    }

    #[test]
    fn faulty_work_steal_emits_job_migrations() {
        let (cpu, gpus) = hertz();
        let events = Trace::new();
        let onset = WarmupConfig::default().iterations;
        schedule_trace_faulty(
            &cpu,
            &gpus,
            &big_trace(),
            PAIRS,
            worksteal(),
            &[1.0, 4.0],
            onset,
            &events,
        );
        let data = events.snapshot();
        let migrations =
            data.events().filter(|s| matches!(s.event, vstrace::Event::JobMigrated { .. })).count();
        assert!(migrations > 0, "straggler replay must record steals");
    }

    #[test]
    fn faulty_replay_straggler_slower_than_healthy() {
        let (cpu, gpus) = hertz();
        let healthy = schedule_trace_faulty(
            &cpu,
            &gpus,
            &trace(),
            PAIRS,
            Strategy::HomogeneousSplit,
            &[1.0, 1.0],
            0,
            &Trace::disabled(),
        )
        .makespan;
        let degraded = schedule_trace_faulty(
            &cpu,
            &gpus,
            &trace(),
            PAIRS,
            Strategy::HomogeneousSplit,
            &[1.0, 3.0],
            0,
            &Trace::disabled(),
        )
        .makespan;
        assert!(degraded > healthy * 2.0, "3x straggler must dominate: {degraded} vs {healthy}");
    }

    fn oracle() -> Strategy {
        Strategy::Oracle { warmup: WarmupConfig::default(), divisor: 2 }
    }

    #[test]
    fn oracle_replay_healthy_competitive_with_worksteal() {
        let (cpu, gpus) = hertz();
        let t_ws = schedule_trace(&cpu, &gpus, &trace(), PAIRS, worksteal()).makespan;
        let r = schedule_trace(&cpu, &gpus, &trace(), PAIRS, oracle());
        assert_eq!(r.strategy_label, "Learned oracle");
        let ratio = r.makespan / t_ws;
        assert!((0.9..=1.05).contains(&ratio), "healthy oracle {} vs worksteal {t_ws}", r.makespan);
        let s = r.shares.unwrap();
        assert!(s[0] > s[1], "fitted seed must favor the K40c: {s:?}");
    }

    #[test]
    fn oracle_replay_is_deterministic() {
        let (cpu, gpus) = hertz();
        let a = schedule_trace(&cpu, &gpus, &big_trace(), PAIRS, oracle()).makespan;
        let b = schedule_trace(&cpu, &gpus, &big_trace(), PAIRS, oracle()).makespan;
        assert_eq!(a.to_bits(), b.to_bits(), "oracle replay must be bit-identical per input");
    }

    #[test]
    fn drift_with_no_phases_matches_plain_replay() {
        let (cpu, gpus) = hertz();
        for strat in [worksteal(), Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() }]
        {
            let plain = schedule_trace(&cpu, &gpus, &trace(), PAIRS, strat).makespan;
            let drift = schedule_trace_drift(
                &cpu,
                &gpus,
                &trace(),
                PAIRS,
                strat,
                &[],
                &Trace::disabled(),
                None,
            )
            .makespan;
            assert_eq!(drift.to_bits(), plain.to_bits(), "{}", strat.label());
        }
    }

    #[test]
    fn drift_scenario_oracle_beats_frozen_percent() {
        // A device slows 4x mid-run, then recovers: the frozen Percent
        // split pays the straggler twice (too much work while slow, too
        // little after recovery); the oracle re-fits within a few batches
        // on both transitions.
        let (cpu, gpus) = hertz();
        let onset = WarmupConfig::default().iterations + 2;
        let recover = onset + 8;
        let phases = [(onset, vec![1.0, 4.0]), (recover, vec![1.0, 1.0])];
        let t_frozen = schedule_trace_drift(
            &cpu,
            &gpus,
            &big_trace(),
            PAIRS,
            Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() },
            &phases,
            &Trace::disabled(),
            None,
        )
        .makespan;
        let t_oracle = schedule_trace_drift(
            &cpu,
            &gpus,
            &big_trace(),
            PAIRS,
            oracle(),
            &phases,
            &Trace::disabled(),
            None,
        )
        .makespan;
        assert!(
            t_oracle < t_frozen,
            "oracle {t_oracle} must strictly beat frozen Percent {t_frozen} under drift"
        );
    }

    #[test]
    fn drift_scenario_oracle_steals_less_than_worksteal() {
        // Pure work stealing heals drift by migrating chunks every batch;
        // the oracle re-prices the seed so most of that traffic vanishes.
        let (cpu, gpus) = hertz();
        let onset = WarmupConfig::default().iterations + 2;
        let phases = [(onset, vec![1.0, 4.0]), (onset + 8, vec![1.0, 1.0])];
        let count_migrations = |strategy: Strategy| {
            let events = Trace::new();
            let t = schedule_trace_drift(
                &cpu,
                &gpus,
                &big_trace(),
                PAIRS,
                strategy,
                &phases,
                &events,
                None,
            )
            .makespan;
            let steals = events
                .snapshot()
                .events()
                .filter(|s| matches!(s.event, Event::JobMigrated { .. }))
                .count();
            (t, steals)
        };
        let (t_ws, steals_ws) = count_migrations(worksteal());
        let (t_or, steals_or) = count_migrations(oracle());
        assert!(steals_ws > 0, "drift must force the frozen-seed drain to steal");
        assert!(
            steals_or < steals_ws,
            "oracle re-seeding must reduce steal traffic: {steals_or} vs {steals_ws}"
        );
        assert!(
            t_or <= t_ws * 1.02,
            "oracle {t_or} must not lose to pure stealing {t_ws} under drift"
        );
    }

    #[test]
    fn warm_oracle_skips_warmup_and_stays_deterministic() {
        // Cross-campaign warm start: a second replay reusing the fitted
        // oracle skips the equal-split warm-up entirely and seeds from the
        // fits at batch 0 — and re-running from a cloned oracle is
        // bit-identical (fits consume only virtual-time measurements).
        let (cpu, gpus) = hertz();
        let mut shared = CostOracle::new(gpus.len(), OracleConfig::default());
        let cold = schedule_trace_drift(
            &cpu,
            &gpus,
            &trace(),
            PAIRS,
            oracle(),
            &[],
            &Trace::disabled(),
            Some(&mut shared),
        )
        .makespan;
        assert!(shared.is_warm(KernelClass::PairSweep));
        let mut warm_a = shared.clone();
        let mut warm_b = shared.clone();
        let warm1 = schedule_trace_drift(
            &cpu,
            &gpus,
            &trace(),
            PAIRS,
            oracle(),
            &[],
            &Trace::disabled(),
            Some(&mut warm_a),
        )
        .makespan;
        let warm2 = schedule_trace_drift(
            &cpu,
            &gpus,
            &trace(),
            PAIRS,
            oracle(),
            &[],
            &Trace::disabled(),
            Some(&mut warm_b),
        )
        .makespan;
        assert_eq!(warm1.to_bits(), warm2.to_bits(), "warm replays must be bit-identical");
        assert!(
            warm1 < cold,
            "warm start must skip the equal-split warm-up cost: {warm1} vs {cold}"
        );
    }
}
