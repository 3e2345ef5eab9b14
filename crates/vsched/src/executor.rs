//! The real-compute batch evaluator: a thin facade over the unified node
//! runtime ([`crate::runtime::NodeRuntime`]) and the scheduling
//! [`Policy`].
//!
//! The policy decides how each batch is laid out (warm-up, Equation 1,
//! deque seeds, greedy chunks) and emits the decision trace events; the
//! runtime charges that plan to the device clocks — exactly as the trace
//! replay does — and scores the resulting ranges on its persistent
//! per-device workers (DESIGN.md §10). This facade adds the `BatchScored`
//! trace event and the cumulative steal statistics.
//!
//! # Determinism
//!
//! Device shares are disjoint index ranges scored serially per worker with
//! the same kernel as [`vsscore::Scorer::score_batch`], so scores are
//! bit-identical to the serial CPU path for every strategy — including
//! work stealing, where chunk migration changes *which device is charged*,
//! never the numeric result — for whichever kernel the scorer is
//! configured with (DESIGN §7 per-kernel bit-identity).

use crate::oracle::CostOracle;
use crate::policy::{host_only, Policy};
use crate::runtime::{work_profile, NodeRuntime, StealStats};
use crate::strategy::Strategy;
use gpusim::SimDevice;
use metaheur::BatchEvaluator;
use std::sync::Arc;
use vsmol::Conformation;
use vsscore::Scorer;
use vstrace::{Event, Trace, BATCH_TRACK};

/// A [`BatchEvaluator`] that executes scoring on a set of simulated devices.
///
/// Construction spawns the runtime's persistent per-device worker threads.
/// Each `evaluate` call then routes the batch through the runtime under
/// the strategy's [`Policy`], which also runs the heterogeneous
/// strategies' warm-up on the first batches of real work (its cost lands
/// on the device clocks, as in the paper).
pub struct DeviceEvaluator {
    runtime: NodeRuntime,
    policy: Policy,
    steal_stats: StealStats,
}

impl DeviceEvaluator {
    /// Build an evaluator over `devices` using `strategy` to assign work.
    ///
    /// For the strategies with a warm-up, the first
    /// [`crate::policy::warmup_batches`] batches of real work execute under
    /// the equal split while being timed (the paper's warm-up phase,
    /// §3.3); Equation 1 then fixes the weights for the rest of the run.
    ///
    /// # Panics
    /// Panics if `devices` is empty or the strategy is [`Strategy::CpuOnly`]
    /// (use [`metaheur::CpuEvaluator`] for the baseline).
    pub fn new(
        devices: Vec<Arc<SimDevice>>,
        scorer: Arc<Scorer>,
        strategy: Strategy,
    ) -> DeviceEvaluator {
        assert!(!host_only(&strategy), "use CpuEvaluator for the CPU-only baseline");
        let runtime = NodeRuntime::new(devices, scorer);
        let policy = Policy::new(strategy, runtime.devices(), work_profile(runtime.scorer()), None);
        DeviceEvaluator { runtime, policy, steal_stats: StealStats::default() }
    }

    /// Record every device execution into `timeline` (Gantt introspection
    /// of the real-compute path).
    pub fn with_timeline(mut self, timeline: Arc<gpusim::Timeline>) -> Self {
        self.runtime.set_timeline(timeline);
        self
    }

    /// Emit structured `vstrace` events (`DeviceBusy`, `BatchScored`,
    /// `WarmupSample`, `PartitionDecision`, `JobMigrated`) for every batch
    /// from here on. Device track names are registered from the catalog
    /// names.
    pub fn with_trace(mut self, trace: Trace) -> Self {
        trace.set_track_name(BATCH_TRACK, "batches");
        self.runtime.set_trace(trace);
        self
    }

    pub fn devices(&self) -> &[Arc<SimDevice>] {
        self.runtime.devices()
    }

    /// The overall virtual execution time so far (slowest device).
    pub fn makespan(&self) -> f64 {
        self.runtime.makespan()
    }

    /// Split or deque-seed weights in use (empty while warming up or in
    /// dynamic mode).
    pub fn weights(&self) -> &[f64] {
        self.policy.weights().unwrap_or(&[])
    }

    /// Cumulative work-stealing statistics (all zeros unless the strategy
    /// is [`Strategy::WorkSteal`] or [`Strategy::Oracle`]).
    pub fn steal_stats(&self) -> StealStats {
        self.steal_stats
    }

    /// The learned cost oracle, once [`Strategy::Oracle`] finished its
    /// warm-up (`None` before that or under any other strategy).
    pub fn oracle(&self) -> Option<&CostOracle> {
        self.policy.oracle()
    }

    /// Test hook: every worker panics on the next `evaluate` call, which
    /// must re-raise on the submitter and leave the evaluator usable.
    #[cfg(test)]
    fn induce_worker_panic(&mut self) {
        self.runtime.panic_next = true;
    }
}

impl BatchEvaluator for DeviceEvaluator {
    fn evaluate(&mut self, confs: &mut [Conformation]) {
        if confs.is_empty() {
            return;
        }
        let vt_start =
            self.runtime.devices().iter().map(|d| d.clock()).fold(f64::INFINITY, f64::min);
        let stats = self.runtime.run(confs, &mut self.policy);
        self.steal_stats.merge(stats);

        let trace = self.runtime.trace();
        if trace.is_enabled() {
            // For the dense kernels `units_per_item` *is* the pair count;
            // grid/cell-list batches report their own regime's unit so the
            // trace matches what the cost model actually charged.
            trace.emit(Event::BatchScored {
                device: BATCH_TRACK,
                items: confs.len() as u64,
                pairs_per_item: work_profile(self.runtime.scorer()).units_per_item,
                vt_start,
                vt_end: self.runtime.makespan(),
            });
        }
    }

    fn pairs_per_eval(&self) -> u64 {
        self.runtime.scorer().pairs_per_eval()
    }

    /// Streamed-batch entry point for the pipelined engine: the batch was
    /// released by the host at virtual time `release`, so every device
    /// first idles forward to that instant (visible as `DeviceIdle` spans
    /// — the metric `pipeline_report.sh` gates on), then scores exactly as
    /// [`Self::evaluate`] would. Returns the node makespan, i.e. when the
    /// batch's scores are available to the selector stage.
    fn evaluate_after(&mut self, confs: &mut [Conformation], release: f64) -> f64 {
        self.runtime.release_until(release);
        self.evaluate(confs);
        self.runtime.makespan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warmup::WarmupConfig;
    use gpusim::catalog;
    use metaheur::CpuEvaluator;
    use vsmath::{RigidTransform, RngStream};
    use vsmol::synth;
    use vsscore::{Exec, ScoreBatch};

    fn scorer() -> Arc<Scorer> {
        let rec = synth::synth_receptor("r", 400, 1);
        let lig = synth::synth_ligand("l", 12, 2);
        Arc::new(Scorer::new(&rec, &lig, Default::default()))
    }

    fn hertz_devices() -> Vec<Arc<SimDevice>> {
        vec![
            Arc::new(SimDevice::new(0, catalog::tesla_k40c())),
            Arc::new(SimDevice::new(1, catalog::geforce_gtx_580())),
        ]
    }

    fn confs(n: usize, seed: u64) -> Vec<Conformation> {
        let mut rng = RngStream::from_seed(seed);
        (0..n)
            .map(|_| Conformation::new(RigidTransform::new(rng.rotation(), rng.in_ball(25.0)), 0))
            .collect()
    }

    #[test]
    fn scores_match_cpu_evaluator() {
        let sc = scorer();
        let mut dev_eval =
            DeviceEvaluator::new(hertz_devices(), sc.clone(), Strategy::HomogeneousSplit);
        let mut cpu_eval = CpuEvaluator::new((*sc).clone(), Exec::Serial);
        let mut a = confs(50, 3);
        let mut b = a.clone();
        dev_eval.evaluate(&mut a);
        cpu_eval.evaluate(&mut b);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.score, y.score, "device path must compute identical scores");
        }
    }

    #[test]
    fn repeated_evaluates_stay_bit_identical() {
        // Persistent workers must be reusable: many evaluate calls on the
        // same evaluator, every one bit-identical to the serial path.
        let sc = scorer();
        let mut dev_eval =
            DeviceEvaluator::new(hertz_devices(), sc.clone(), Strategy::HomogeneousSplit);
        for seed in 0..6 {
            let mut a = confs(10 + 7 * seed as usize, seed);
            let mut b = a.clone();
            dev_eval.evaluate(&mut a);
            let mut scratch = vsscore::PoseScratch::new();
            sc.score_batch(ScoreBatch::Confs(&mut b), &mut scratch, Exec::Serial);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "seed {seed}");
            }
        }
    }

    #[test]
    fn device_path_bit_identical_for_every_kernel() {
        // DESIGN §7: for a fixed kernel, the device path must reproduce
        // the serial path bitwise — including the run-layout kernels.
        use vsscore::scorer::{Kernel, ScorerOptions, ScoringModel};
        let rec = synth::synth_receptor("r", 400, 1);
        let lig = synth::synth_ligand("l", 12, 2);
        let model = ScoringModel::Full { dielectric: 4.0, hbond_epsilon: 1.0 };
        for kernel in [
            Kernel::Naive,
            Kernel::Tiled,
            Kernel::Run,
            Kernel::Fused,
            Kernel::CellList { cutoff: 16.0 },
            Kernel::Grid { spacing: 0.6 },
        ] {
            let sc = Arc::new(Scorer::new(&rec, &lig, ScorerOptions { model, kernel }));
            let mut ev =
                DeviceEvaluator::new(hertz_devices(), sc.clone(), Strategy::HomogeneousSplit);
            let mut a = confs(31, 17);
            let mut serial = a.clone();
            let mut scratch = vsscore::PoseScratch::new();
            sc.score_batch(ScoreBatch::Confs(&mut serial), &mut scratch, Exec::Serial);
            ev.evaluate(&mut a);
            for (c, s) in a.iter().zip(&serial) {
                assert_eq!(c.score.to_bits(), s.score.to_bits(), "kernel {kernel:?}");
            }
        }
    }

    #[test]
    fn single_conformation_batch() {
        let sc = scorer();
        let mut ev = DeviceEvaluator::new(hertz_devices(), sc.clone(), Strategy::HomogeneousSplit);
        let mut c = confs(1, 42);
        let want = sc.score(&c[0].pose);
        ev.evaluate(&mut c);
        assert_eq!(c[0].score.to_bits(), want.to_bits());
    }

    #[test]
    fn drop_joins_workers() {
        // Worker threads must not outlive the evaluator. The runtime's
        // workers own scorer clones; join-on-drop guarantees those clones
        // are released by the time drop returns, and the runtime's device
        // handles go with it.
        let devs = hertz_devices();
        let sc = scorer();
        {
            let mut ev = DeviceEvaluator::new(devs.clone(), sc.clone(), Strategy::HomogeneousSplit);
            let mut c = confs(16, 13);
            ev.evaluate(&mut c);
            // Alive: our handle + the runtime's devices vec (workers are
            // pure scorers and hold no device handles).
            assert_eq!(Arc::strong_count(&devs[0]), 2);
        }
        assert_eq!(Arc::strong_count(&devs[0]), 1, "drop must release the runtime's devices");
        assert_eq!(Arc::strong_count(&devs[1]), 1);
        assert_eq!(Arc::strong_count(&sc), 1, "drop must join all scoring workers");
    }

    #[test]
    fn clocks_advance_per_batch() {
        let devs = hertz_devices();
        let mut ev = DeviceEvaluator::new(devs.clone(), scorer(), Strategy::HomogeneousSplit);
        let mut c = confs(64, 4);
        ev.evaluate(&mut c);
        assert!(devs[0].clock() > 0.0);
        assert!(devs[1].clock() > 0.0);
        assert_eq!(ev.makespan(), devs[0].clock().max(devs[1].clock()));
    }

    #[test]
    fn heterogeneous_strategy_warms_up_then_favors_k40() {
        let devs = hertz_devices();
        let warmup = WarmupConfig { iterations: 3, ..Default::default() };
        let mut ev =
            DeviceEvaluator::new(devs.clone(), scorer(), Strategy::HeterogeneousSplit { warmup });
        // During warm-up: no static weights yet, equal split in force.
        assert!(ev.weights().is_empty());
        for i in 0..3 {
            let mut c = confs(1000, 5 + i);
            ev.evaluate(&mut c);
        }
        // Warm-up complete: Equation 1 weights favor the K40c.
        let w = ev.weights().to_vec();
        assert_eq!(w.len(), 2);
        assert!(w[0] > w[1], "K40c share must dominate: {w:?}");

        let before = (devs[0].stats().items, devs[1].stats().items);
        let mut c = confs(1000, 9);
        ev.evaluate(&mut c);
        let d0 = devs[0].stats().items - before.0;
        let d1 = devs[1].stats().items - before.1;
        assert!(d0 > d1, "post-warm-up batch split {d0}/{d1}");
    }

    #[test]
    fn work_steal_warms_up_then_seeds_deques() {
        let devs = hertz_devices();
        let warmup = WarmupConfig { iterations: 2, ..Default::default() };
        let mut ev = DeviceEvaluator::new(
            devs.clone(),
            scorer(),
            Strategy::WorkSteal { warmup, divisor: 2 },
        );
        assert!(ev.weights().is_empty(), "no weights during warm-up");
        for i in 0..2 {
            let mut c = confs(500, 40 + i);
            ev.evaluate(&mut c);
        }
        let w = ev.weights().to_vec();
        assert_eq!(w.len(), 2);
        assert!(w[0] > w[1], "Equation 1 must favor the K40c: {w:?}");

        // Healthy post-warm-up batch: claims follow the seeded shares.
        let before = (devs[0].stats().items, devs[1].stats().items);
        let mut c = confs(1000, 44);
        ev.evaluate(&mut c);
        let d0 = devs[0].stats().items - before.0;
        let d1 = devs[1].stats().items - before.1;
        assert_eq!(d0 + d1, 1000);
        assert!(d0 > d1, "seeded deques must favor the faster device: {d0}/{d1}");
    }

    #[test]
    fn work_steal_absorbs_midrun_straggler() {
        // Degrade the GTX 580 8x *after* warm-up froze the weights: the
        // stale seed strands work on the straggler, and the K40c must
        // steal it (observable in the evaluator's steal statistics).
        let devs = hertz_devices();
        let warmup = WarmupConfig { iterations: 2, ..Default::default() };
        let mut ev = DeviceEvaluator::new(
            devs.clone(),
            scorer(),
            Strategy::WorkSteal { warmup, divisor: 2 },
        );
        for i in 0..2 {
            let mut c = confs(400, 50 + i);
            ev.evaluate(&mut c);
        }
        assert_eq!(ev.steal_stats().chunks, 0, "warm-up batches run as equal splits");
        devs[1].set_slowdown(8.0);
        // Large batch so the deques hold many occupancy-floor chunks.
        let mut c = confs(12_000, 52);
        let mut serial = c.clone();
        ev.evaluate(&mut c);
        let stats = ev.steal_stats();
        assert!(stats.steals > 0, "straggler work must migrate: {stats:?}");
        // Scores still bit-identical to serial despite migration.
        let sc = scorer();
        let mut scratch = vsscore::PoseScratch::new();
        sc.score_batch(ScoreBatch::Confs(&mut serial), &mut scratch, Exec::Serial);
        for (x, y) in c.iter().zip(&serial) {
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
    }

    #[test]
    fn oracle_warms_up_then_tracks_drift() {
        // The oracle seeds from the warm-up prior, then re-prices a device
        // that slows 6x mid-run: the fits drift-reset and subsequent seeds
        // shrink the straggler's share instead of relying on steals.
        let devs = hertz_devices();
        let warmup = WarmupConfig { iterations: 2, ..Default::default() };
        let mut ev =
            DeviceEvaluator::new(devs.clone(), scorer(), Strategy::Oracle { warmup, divisor: 2 });
        assert!(ev.oracle().is_none(), "no oracle during warm-up");
        for i in 0..2 {
            let mut c = confs(500, 60 + i);
            ev.evaluate(&mut c);
        }
        let o = ev.oracle().expect("warm-up must hand off to the oracle");
        assert!(o.is_warm(gpusim::KernelClass::PairSweep), "prior must be installed");

        // Healthy batches: fits form, K40c keeps the larger share.
        let before = (devs[0].stats().items, devs[1].stats().items);
        let mut c = confs(1000, 62);
        ev.evaluate(&mut c);
        let d0 = devs[0].stats().items - before.0;
        let d1 = devs[1].stats().items - before.1;
        assert!(d0 > d1, "oracle seed must favor the faster device: {d0}/{d1}");

        // Slow the GTX 580 6x; a few batches later the *seed itself*
        // reflects the new regime (share ratio widens well past warm-up's).
        devs[1].set_slowdown(6.0);
        for i in 0..3 {
            let mut c = confs(2000, 63 + i);
            ev.evaluate(&mut c);
        }
        let before = (devs[0].stats().items, devs[1].stats().items);
        let mut c = confs(2000, 70);
        ev.evaluate(&mut c);
        let d0 = (devs[0].stats().items - before.0) as f64;
        let d1 = (devs[1].stats().items - before.1) as f64;
        let o = ev.oracle().unwrap();
        assert!(o.fits().iter().any(|(_, f)| f.refits > 0), "6x drift must refit");
        assert!(d0 / d1.max(1.0) > 4.0, "post-drift seed must starve the straggler: {d0}/{d1}");
        // Scores stay bit-identical to serial throughout.
        let sc = scorer();
        let mut serial = c.clone();
        let mut scratch = vsscore::PoseScratch::new();
        sc.score_batch(ScoreBatch::Confs(&mut serial), &mut scratch, Exec::Serial);
        for (x, y) in c.iter().zip(&serial) {
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
    }

    #[test]
    fn oracle_emits_model_updates_and_reseed_counter() {
        let devs = hertz_devices();
        let trace = Trace::new();
        let warmup = WarmupConfig { iterations: 1, ..Default::default() };
        let mut ev = DeviceEvaluator::new(devs, scorer(), Strategy::Oracle { warmup, divisor: 2 })
            .with_trace(trace.clone());
        for i in 0..3 {
            let mut c = confs(400, 80 + i);
            ev.evaluate(&mut c);
        }
        let data = trace.snapshot();
        let kinds: Vec<&str> = data.events().map(|s| s.event.kind()).collect();
        assert!(kinds.contains(&"ModelUpdated"), "{kinds:?}");
        assert!(kinds.contains(&"WarmupSample"), "{kinds:?}");
        let reseeds = data
            .events()
            .filter_map(|s| match s.event {
                Event::Counter { name: "oracle_reseed", value } => Some(value),
                _ => None,
            })
            .fold(0.0f64, f64::max);
        assert!(reseeds >= 2.0, "each post-warm-up batch re-seeds: {reseeds}");
    }

    #[test]
    fn full_metaheuristic_run_through_oracle() {
        let sc = scorer();
        let spots = vec![vsmol::Spot {
            id: 0,
            center: vsmath::Vec3::new(18.0, 0.0, 0.0),
            normal: vsmath::Vec3::X,
            radius: 4.0,
            anchor_atom: 0,
        }];
        let devs = hertz_devices();
        let mut ev = DeviceEvaluator::new(
            devs.clone(),
            sc,
            Strategy::Oracle { warmup: WarmupConfig::default(), divisor: 2 },
        );
        let params = metaheur::m3(0.5);
        let r = metaheur::run(&params, &spots, &mut ev, 11);
        assert!(r.best.is_scored());
        assert_eq!(r.evaluations, params.evals_per_spot());
        assert!(ev.oracle().is_some());
    }

    #[test]
    fn dynamic_strategy_balances_clocks() {
        let devs = hertz_devices();
        let mut ev =
            DeviceEvaluator::new(devs.clone(), scorer(), Strategy::DynamicQueue { chunk: 16 });
        let mut c = confs(512, 6);
        ev.evaluate(&mut c);
        let (t0, t1) = (devs[0].clock(), devs[1].clock());
        let imbalance = (t0 - t1).abs() / t0.max(t1);
        assert!(imbalance < 0.35, "dynamic imbalance {imbalance}: {t0} vs {t1}");
    }

    #[test]
    fn dynamic_queue_honors_chunk_parameter() {
        // A chunk at least as large as the batch is grabbed whole by the
        // first idle device; a chunk of 1 spreads work across both. The
        // old implementation ignored `chunk` entirely, so both cases split
        // identically — this pins the fix.
        let coarse_devs = hertz_devices();
        let mut coarse = DeviceEvaluator::new(
            coarse_devs.clone(),
            scorer(),
            Strategy::DynamicQueue { chunk: 10_000 },
        );
        let mut c = confs(128, 21);
        coarse.evaluate(&mut c);
        let coarse_split = (coarse_devs[0].stats().items, coarse_devs[1].stats().items);
        assert_eq!(coarse_split.0 + coarse_split.1, 128, "all items must be scheduled");
        assert!(
            coarse_split.0 == 128 || coarse_split.1 == 128,
            "oversized chunk must land on a single device: {coarse_split:?}"
        );

        let fine_devs = hertz_devices();
        let mut fine =
            DeviceEvaluator::new(fine_devs.clone(), scorer(), Strategy::DynamicQueue { chunk: 1 });
        let mut c = confs(128, 21);
        fine.evaluate(&mut c);
        let fine_split = (fine_devs[0].stats().items, fine_devs[1].stats().items);
        assert!(
            fine_split.0 > 0 && fine_split.1 > 0,
            "chunk=1 must use both devices: {fine_split:?}"
        );
        assert_ne!(coarse_split, fine_split, "chunk parameter must change the split");
    }

    #[test]
    fn empty_batch_is_noop() {
        let devs = hertz_devices();
        let mut ev = DeviceEvaluator::new(devs.clone(), scorer(), Strategy::HomogeneousSplit);
        ev.evaluate(&mut []);
        assert_eq!(devs[0].clock(), 0.0);
    }

    #[test]
    fn single_device_gets_everything() {
        let devs = vec![Arc::new(SimDevice::new(0, catalog::geforce_gtx_590()))];
        let mut ev = DeviceEvaluator::new(devs.clone(), scorer(), Strategy::HomogeneousSplit);
        let mut c = confs(33, 7);
        ev.evaluate(&mut c);
        assert_eq!(devs[0].stats().items, 33);
        assert!(c.iter().all(|x| x.is_scored()));
    }

    #[test]
    fn timeline_records_real_compute_path() {
        let devs = hertz_devices();
        let tl = Arc::new(gpusim::Timeline::new());
        let mut ev = DeviceEvaluator::new(devs.clone(), scorer(), Strategy::HomogeneousSplit)
            .with_timeline(tl.clone());
        let mut c = confs(40, 8);
        ev.evaluate(&mut c);
        ev.evaluate(&mut c);
        assert_eq!(tl.segments().len(), 4, "2 batches x 2 devices");
        assert!((tl.makespan() - ev.makespan()).abs() < 1e-15);
        let recorded: u64 = tl.segments().iter().map(|s| s.items).sum();
        assert_eq!(recorded, 80);
    }

    #[test]
    fn traced_executor_emits_structured_events() {
        let devs = hertz_devices();
        let trace = Trace::new();
        let warmup = WarmupConfig { iterations: 2, ..Default::default() };
        let mut ev =
            DeviceEvaluator::new(devs.clone(), scorer(), Strategy::HeterogeneousSplit { warmup })
                .with_trace(trace.clone());
        for i in 0..3 {
            let mut c = confs(200, 30 + i);
            ev.evaluate(&mut c);
        }
        let data = trace.snapshot();
        let kinds: Vec<&str> = data.events().map(|s| s.event.kind()).collect();
        assert!(kinds.contains(&"DeviceBusy"), "{kinds:?}");
        assert!(kinds.contains(&"BatchScored"), "{kinds:?}");
        assert!(kinds.contains(&"WarmupSample"), "{kinds:?}");
        assert!(kinds.contains(&"PartitionDecision"), "{kinds:?}");
        // Per-device traced busy totals must match the device clocks: every
        // execution was recorded.
        for d in &devs {
            let traced = data.device_busy_s(d.id() as u32);
            assert!(
                (traced - d.clock()).abs() < 1e-12,
                "device {} traced {traced} vs clock {}",
                d.id(),
                d.clock()
            );
        }
        // Track names registered from the catalog.
        assert_eq!(data.track_names.get(&0).map(String::as_str), Some("Tesla K40c"));
    }

    #[test]
    fn untraced_executor_emits_nothing() {
        let trace = Trace::disabled();
        let mut ev = DeviceEvaluator::new(hertz_devices(), scorer(), Strategy::HomogeneousSplit)
            .with_trace(trace.clone());
        let mut c = confs(32, 9);
        ev.evaluate(&mut c);
        assert!(trace.snapshot().is_empty(), "disabled sink must record zero events");
        assert!(c.iter().all(|x| x.is_scored()));
    }

    #[test]
    fn worker_panic_propagates_and_evaluator_survives() {
        let sc = scorer();
        let mut ev = DeviceEvaluator::new(hertz_devices(), sc.clone(), Strategy::HomogeneousSplit);
        ev.induce_worker_panic();
        let mut c = confs(8, 31);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ev.evaluate(&mut c);
        }));
        assert!(caught.is_err(), "worker panic must re-raise on the submitter");
        // The completion bookkeeping must have recovered: the next batch
        // runs to completion and scores correctly.
        let mut a = confs(12, 32);
        let mut b = a.clone();
        ev.evaluate(&mut a);
        let mut scratch = vsscore::PoseScratch::new();
        sc.score_batch(ScoreBatch::Confs(&mut b), &mut scratch, Exec::Serial);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
    }

    #[test]
    #[should_panic]
    fn cpu_only_strategy_rejected() {
        DeviceEvaluator::new(hertz_devices(), scorer(), Strategy::CpuOnly);
    }

    #[test]
    #[should_panic]
    fn empty_device_list_rejected() {
        DeviceEvaluator::new(Vec::new(), scorer(), Strategy::HomogeneousSplit);
    }

    #[test]
    fn full_metaheuristic_run_through_devices() {
        // End-to-end: Algorithm 1 driving the heterogeneous executor.
        let sc = scorer();
        let spots = vec![vsmol::Spot {
            id: 0,
            center: vsmath::Vec3::new(18.0, 0.0, 0.0),
            normal: vsmath::Vec3::X,
            radius: 4.0,
            anchor_atom: 0,
        }];
        let devs = hertz_devices();
        let mut ev = DeviceEvaluator::new(
            devs.clone(),
            sc,
            Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() },
        );
        let params = metaheur::m3(0.5);
        let r = metaheur::run(&params, &spots, &mut ev, 11);
        assert!(r.best.is_scored());
        assert!(ev.makespan() > 0.0);
        assert_eq!(
            r.evaluations,
            params.evals_per_spot(),
            "evaluation accounting must survive the device path"
        );
    }
}

/// Exhaustive interleaving checks of the runtime's per-device job
/// handoff, via the `vscheck` model checker (run with
/// `cargo test -p vsched --features vscheck-model model_`).
///
/// Invariants (the PR 1 review caught a clobbered job slot and a deadlock
/// on worker panic here by eyeball; these explore every interleaving
/// within the preemption bound): every conformation scored exactly once
/// with serial-identical results, `remaining` never underflows (underflow
/// aborts a schedule as a debug panic), a worker panic re-raises on the
/// submitter without wedging the handshake, and drop joins every worker.
#[cfg(all(test, feature = "vscheck-model"))]
mod model_tests {
    use super::*;
    use gpusim::catalog;
    use vscheck::{explore, Config};
    use vsmath::{RigidTransform, RngStream};
    use vsmol::synth;
    use vsscore::{Exec, ScoreBatch};

    /// Tiny scorer: immutable after construction and free of facade sync
    /// ops, so sharing one across schedules is deterministic.
    fn tiny_scorer() -> Arc<Scorer> {
        let rec = synth::synth_receptor("r", 30, 1);
        let lig = synth::synth_ligand("l", 4, 1);
        Arc::new(Scorer::new(&rec, &lig, Default::default()))
    }

    fn tiny_confs(n: usize) -> Vec<Conformation> {
        let mut rng = RngStream::from_seed(23);
        (0..n)
            .map(|_| Conformation::new(RigidTransform::new(rng.rotation(), rng.in_ball(25.0)), 0))
            .collect()
    }

    /// Devices are mutated per batch (virtual clocks), so they must be
    /// fresh per schedule — construct them inside the closure.
    fn two_devices() -> Vec<Arc<SimDevice>> {
        vec![
            Arc::new(SimDevice::new(0, catalog::tesla_k40c())),
            Arc::new(SimDevice::new(1, catalog::geforce_gtx_580())),
        ]
    }

    fn serial(s: &Scorer, confs: &[Conformation]) -> Vec<f64> {
        let mut b = confs.to_vec();
        let mut scratch = vsscore::PoseScratch::new();
        s.score_batch(ScoreBatch::Confs(&mut b), &mut scratch, Exec::Serial);
        b.iter().map(|c| c.score).collect()
    }

    #[test]
    fn model_every_conformation_scored() {
        let sc = tiny_scorer();
        let base = tiny_confs(3);
        let want = serial(&sc, &base);
        let report = explore(Config::with_bound(2), move || {
            let mut ev =
                DeviceEvaluator::new(two_devices(), Arc::clone(&sc), Strategy::HomogeneousSplit);
            let mut c = base.clone();
            ev.evaluate(&mut c);
            for (got, want) in c.iter().zip(&want) {
                assert_eq!(
                    got.score.to_bits(),
                    want.to_bits(),
                    "conformation left unscored or misscored"
                );
            }
            drop(ev); // a lost shutdown wakeup would deadlock here
        });
        report.assert_passed();
        assert!(report.complete, "bounded state space must be exhausted");
    }

    #[test]
    fn model_back_to_back_batches_reuse_workers() {
        // The generation handshake must hand each worker exactly its own
        // share each round, even when a worker from round 1 has not parked
        // yet when round 2 is published.
        let sc = tiny_scorer();
        let base = tiny_confs(2);
        let want = serial(&sc, &base);
        let report = explore(Config::with_bound(1), move || {
            let mut ev =
                DeviceEvaluator::new(two_devices(), Arc::clone(&sc), Strategy::HomogeneousSplit);
            for _ in 0..2 {
                let mut c = base.clone();
                ev.evaluate(&mut c);
                for (got, want) in c.iter().zip(&want) {
                    assert_eq!(got.score.to_bits(), want.to_bits());
                }
            }
        });
        report.assert_passed();
        assert!(report.complete);
    }

    #[test]
    fn model_steal_mode_scores_exactly_once() {
        // The work-stealing drain resolves claims on the submitter, so the
        // worker handshake sees a list of disjoint ranges per device; the
        // exactly-once property must survive every bounded interleaving of
        // the dispatch/completion protocol.
        let sc = tiny_scorer();
        let base = tiny_confs(3);
        let want = serial(&sc, &base);
        let report = explore(Config::with_bound(1), move || {
            let mut rt = NodeRuntime::new(two_devices(), Arc::clone(&sc));
            let mut c = base.clone();
            let shares = crate::partition::proportional_split(3, &[1.0, 1.0]);
            rt.run_plan(
                &mut c,
                &crate::policy::Plan::Deques {
                    shares,
                    cfg: crate::runtime::StealConfig { divisor: 2, min_chunk: 1 },
                },
            );
            for (got, want) in c.iter().zip(&want) {
                assert_eq!(got.score.to_bits(), want.to_bits());
            }
            drop(rt);
        });
        report.assert_passed();
        assert!(report.complete);
    }

    #[test]
    fn model_worker_panic_reaches_submitter_and_evaluator_survives() {
        let sc = tiny_scorer();
        let base = tiny_confs(2);
        let want = serial(&sc, &base);
        let report = explore(Config::with_bound(1), move || {
            let mut ev =
                DeviceEvaluator::new(two_devices(), Arc::clone(&sc), Strategy::HomogeneousSplit);
            ev.induce_worker_panic();
            let mut c = base.clone();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ev.evaluate(&mut c);
            }));
            assert!(caught.is_err(), "worker panic must re-raise on the submitter");
            let mut c = base.clone();
            ev.evaluate(&mut c);
            for (got, want) in c.iter().zip(&want) {
                assert_eq!(got.score.to_bits(), want.to_bits());
            }
        });
        report.assert_passed();
        assert!(report.complete);
    }

    #[test]
    fn model_idle_evaluator_drop_joins_cleanly() {
        let report = explore(Config::with_bound(2), || {
            let ev = DeviceEvaluator::new(two_devices(), tiny_scorer(), Strategy::HomogeneousSplit);
            drop(ev);
        });
        report.assert_passed();
        assert!(report.complete);
    }
}
