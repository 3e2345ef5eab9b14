//! Replay/live parity: the virtual-time trace replay
//! ([`vsched::schedule_trace`], [`vsched::schedule_trace_drift`]) and the
//! live [`vsched::DeviceEvaluator`] run the same scheduling policy, so for
//! one batch trace they must agree bitwise on every device clock, the
//! makespan, the steal and migration counts, and the final weights.
//!
//! Traces are random and include batches smaller than the device count,
//! traces shorter than the warm-up, and (sometimes) a mid-run slowdown of
//! one GPU, applied to the replay as a drift phase and to the live devices
//! before the same batch. Every case covers every strategy on one of three
//! device sets (Hertz GPUs, Jupiter GPUs, two identical GPUs) with warm-up
//! `iterations` from 0 to 3.

use gpusim::{catalog, DeviceSpec, SimDevice};
use metaheur::BatchEvaluator;
use proptest::prelude::*;
use std::sync::Arc;
use vsched::{
    schedule_trace, schedule_trace_drift, DeviceEvaluator, ScheduleReport, Strategy as Sched,
    WarmupConfig,
};
use vsmath::{RigidTransform, RngStream};
use vsmol::{synth, Conformation};
use vsscore::Scorer;
use vstrace::{Event, Trace};

fn device_set(which: usize) -> Vec<DeviceSpec> {
    match which {
        0 => vec![catalog::tesla_k40c(), catalog::geforce_gtx_580()],
        1 => vec![
            catalog::geforce_gtx_590(),
            catalog::geforce_gtx_590(),
            catalog::geforce_gtx_590(),
            catalog::geforce_gtx_590(),
            catalog::tesla_c2075(),
            catalog::tesla_c2075(),
        ],
        _ => vec![catalog::geforce_gtx_590(), catalog::geforce_gtx_590()],
    }
}

fn devices(specs: &[DeviceSpec]) -> Vec<Arc<SimDevice>> {
    specs.iter().enumerate().map(|(i, s)| Arc::new(SimDevice::new(i + 1, s.clone()))).collect()
}

fn scorer() -> Arc<Scorer> {
    let rec = synth::synth_receptor("r", 60, 1);
    let lig = synth::synth_ligand("l", 8, 2);
    Arc::new(Scorer::new(&rec, &lig, Default::default()))
}

fn confs(n: u64, rng: &mut RngStream) -> Vec<Conformation> {
    (0..n)
        .map(|_| Conformation::new(RigidTransform::new(rng.rotation(), rng.in_ball(20.0)), 0))
        .collect()
}

fn migrations(trace: &Trace) -> usize {
    trace.snapshot().events().filter(|s| matches!(s.event, Event::JobMigrated { .. })).count()
}

fn strategies(iterations: usize, chunk: u64, divisor: u64) -> Vec<Sched> {
    let warmup = WarmupConfig { iterations, ..WarmupConfig::default() };
    vec![
        Sched::HomogeneousSplit,
        Sched::HeterogeneousSplit { warmup },
        Sched::DynamicQueue { chunk },
        Sched::WorkSteal { warmup, divisor },
        Sched::Oracle { warmup, divisor },
    ]
}

/// A batch-size trace: mostly real batches, some smaller than any device
/// set, some long enough for the deques to hold several claims.
fn arb_trace() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(prop_oneof![1u64..7, 32u64..600, 1500u64..4000], 0..9)
}

/// Replay `trace` under `strategy`, with the optional `(onset, gpu,
/// factor)` slowdown as a drift phase; returns the report and the number
/// of `JobMigrated` events the replay emitted.
fn replay(
    specs: &[DeviceSpec],
    trace: &[u64],
    pairs: u64,
    strategy: Sched,
    slow: Option<(usize, usize, f64)>,
) -> (ScheduleReport, usize) {
    let cpu = Arc::new(SimDevice::new(0, catalog::xeon_e3_1220()));
    let gpus = devices(specs);
    let phases: Vec<(usize, Vec<f64>)> = slow
        .map(|(onset, gpu, factor)| {
            let mut factors = vec![1.0; gpus.len()];
            factors[gpu] = factor;
            (onset, factors)
        })
        .into_iter()
        .collect();
    let events = Trace::new();
    let drift = schedule_trace_drift(&cpu, &gpus, trace, pairs, strategy, &phases, &events, None);
    // Without a slowdown the plain entry point must tell the same story.
    let report =
        if phases.is_empty() { schedule_trace(&cpu, &gpus, trace, pairs, strategy) } else { drift };
    (report, migrations(&events))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn replay_and_live_agree_bitwise(
        trace in arb_trace(),
        set in 0usize..3,
        iterations in 0usize..4,
        chunk in prop_oneof![Just(1u64), 16u64..700, Just(100_000u64)],
        divisor in 1u64..5,
        slow in (any::<bool>(), 0usize..9, 0usize..6, 1.5f64..8.0),
    ) {
        let specs = device_set(set);
        let slow = slow.0.then_some((slow.1, slow.2 % specs.len(), slow.3));
        let sc = scorer();
        let pairs = sc.work_units_per_eval();
        for strategy in strategies(iterations, chunk, divisor) {
            let (report, replay_migrations) = replay(&specs, &trace, pairs, strategy, slow);

            let devs = devices(&specs);
            let live_trace = Trace::new();
            let mut live = DeviceEvaluator::new(devs.clone(), sc.clone(), strategy)
                .with_trace(live_trace.clone());
            let mut rng = RngStream::from_seed(7);
            for (bi, &items) in trace.iter().enumerate() {
                if let Some((onset, gpu, factor)) = slow {
                    if onset == bi {
                        devs[gpu].set_slowdown(factor);
                    }
                }
                live.evaluate(&mut confs(items, &mut rng));
            }

            let label = strategy.label();
            let clocks: Vec<u64> = devs.iter().map(|d| d.clock().to_bits()).collect();
            let replayed: Vec<u64> = report.device_times.iter().map(|t| t.to_bits()).collect();
            prop_assert_eq!(
                &clocks,
                &replayed,
                "{}: live clocks {:?} vs replay {:?} on trace {:?}",
                label,
                devs.iter().map(|d| d.clock()).collect::<Vec<_>>(),
                report.device_times,
                trace
            );
            prop_assert_eq!(live.makespan().to_bits(), report.makespan.to_bits(), "{}", label);
            let steals = live.steal_stats().steals as usize;
            let live_migrations = migrations(&live_trace);
            prop_assert_eq!(
                (steals, live_migrations),
                (replay_migrations, replay_migrations),
                "{}: live steals {} / migrations {} vs replay {}",
                label,
                steals,
                live_migrations,
                replay_migrations
            );
            let live_weights = live.weights();
            let live_shares = (!live_weights.is_empty()).then(|| {
                let total: f64 = live_weights.iter().sum();
                live_weights.iter().map(|w| (w / total).to_bits()).collect::<Vec<_>>()
            });
            let replay_shares =
                report.shares.as_ref().map(|s| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
            prop_assert_eq!(
                &live_shares,
                &replay_shares,
                "{}: live shares {:?} vs replay {:?}",
                label,
                live_shares,
                replay_shares
            );
        }
    }
}
