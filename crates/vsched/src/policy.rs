//! The scheduling policy: one state machine per [`Strategy`], shared by
//! the virtual-time trace replay ([`crate::replay`]) and live execution
//! ([`crate::DeviceEvaluator`] over [`crate::NodeRuntime`]).
//!
//! Every batch goes through the same three steps on both paths:
//!
//! 1. [`Policy::plan`] lays the batch out on the devices as a [`Plan`];
//! 2. `runtime::charge_plan` charges the plan to the device
//!    clocks and returns each device's index ranges and virtual seconds
//!    (live execution then scores those ranges on its workers);
//! 3. [`Policy::observe`] takes each device's `(seconds, units)` for the
//!    batch, which drives the warm-up, Equation 1 and the oracle's fits.
//!
//! | Strategy | Warm-up | Plan after warm-up |
//! |---|---|---|
//! | `CpuOnly` | — | the whole batch as one launch on the host CPU |
//! | `HomogeneousSplit` | — | equal contiguous shares (Algorithm 2) |
//! | `HeterogeneousSplit` | yes | Equation 1 contiguous shares, frozen (§3.3) |
//! | `WorkSteal` | yes | deques seeded with the Equation 1 weights |
//! | `Oracle` | yes, unless the oracle is already warm | deques seeded from the oracle's current fits |
//! | `DynamicQueue` | — | fixed-size greedy chunks, each to the earliest-clock device |
//!
//! Warm-up batches run under the equal split and are timed per device.
//! [`warmup_batches`] fixes how many there are: `WarmupConfig {
//! iterations: 0 }` means one, because Equation 1 needs a measurement.
//!
//! The decision trace events — `WarmupSample`, `PartitionDecision`,
//! `ModelUpdated` and the `oracle_reseed` counter — are emitted here and
//! nowhere else.

use crate::oracle::{CostOracle, OracleConfig};
use crate::partition::proportional_split;
use crate::runtime::{Charged, StealConfig};
use crate::strategy::Strategy;
use crate::warmup::shares_from_times;
use gpusim::{SimDevice, WorkProfile};
use std::sync::Arc;
use vstrace::{Event, Trace};

/// How one batch is laid out on the devices.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// One contiguous share per device, in device order; each non-empty
    /// share is one launch.
    Shares(Vec<u64>),
    /// Per-device deques seeded with contiguous `shares`, drained in
    /// virtual-time order with work stealing
    /// ([`crate::runtime::drain_deques`]).
    Deques { shares: Vec<u64>, cfg: StealConfig },
    /// `items` dealt in index order as `chunk`-sized launches, each to the
    /// device with the earliest virtual clock.
    Greedy { items: u64, chunk: u64 },
}

/// Batches a cold run of `strategy` spends in the warm-up: the
/// configured `iterations`, at least one, for the strategies that measure
/// Equation 1; zero for the rest.
pub fn warmup_batches(strategy: &Strategy) -> usize {
    match strategy {
        Strategy::HeterogeneousSplit { warmup }
        | Strategy::WorkSteal { warmup, .. }
        | Strategy::Oracle { warmup, .. } => warmup.iterations.max(1),
        Strategy::CpuOnly | Strategy::HomogeneousSplit | Strategy::DynamicQueue { .. } => 0,
    }
}

/// Whether `strategy` runs on the host CPU alone (the OpenMP baseline)
/// instead of the GPUs.
pub(crate) fn host_only(strategy: &Strategy) -> bool {
    matches!(strategy, Strategy::CpuOnly)
}

enum State {
    /// Fixed contiguous-split weights.
    Split(Vec<f64>),
    /// The warm-up in progress: `left` more equal-split batches are timed,
    /// then Equation 1 hands its weights to `then`.
    WarmingUp { left: usize, times: Vec<f64>, units: Vec<f64>, then: AfterWarmup },
    /// Deques seeded with fixed weights.
    Steal { weights: Vec<f64>, cfg: StealConfig },
    /// Deques re-seeded from the oracle's fits before every batch; `seed`
    /// is the last seed.
    Oracle { oracle: CostOracle, seed: Option<Vec<f64>>, cfg: StealConfig },
    /// Greedy self-scheduling in chunks of this size.
    Greedy(u64),
}

/// What the Equation 1 weights become once the warm-up ends.
enum AfterWarmup {
    Split,
    Steal(StealConfig),
    /// The warm-up becomes the oracle's cold-start prior.
    Oracle(CostOracle, StealConfig),
}

/// The per-run scheduling state for one [`Strategy`] on one device set.
pub struct Policy {
    state: State,
    profile: WorkProfile,
    /// Device ids, for trace events.
    ids: Vec<u32>,
    warmup_done: u32,
}

impl Policy {
    /// The policy for `strategy` on `devices`, pricing batches in
    /// `profile`. For [`Strategy::Oracle`], `oracle` carries learned state
    /// in (a warm one skips the warm-up); `None` starts a fresh cold
    /// oracle. Other strategies ignore it.
    ///
    /// # Panics
    /// Panics if `devices` is empty or a passed-in oracle was built for a
    /// different device count.
    pub fn new(
        strategy: Strategy,
        devices: &[Arc<SimDevice>],
        profile: WorkProfile,
        oracle: Option<CostOracle>,
    ) -> Policy {
        let n = devices.len();
        assert!(n > 0, "a policy needs devices");
        let warm = |then| State::WarmingUp {
            left: warmup_batches(&strategy),
            times: vec![0.0; n],
            units: vec![0.0; n],
            then,
        };
        let steal = |divisor: u64| StealConfig { divisor: divisor.max(1), min_chunk: 0 };
        let state = match strategy {
            // One device (the host CPU) takes each whole batch.
            Strategy::CpuOnly => State::Greedy(u64::MAX),
            Strategy::HomogeneousSplit => State::Split(vec![1.0; n]),
            Strategy::DynamicQueue { chunk } => State::Greedy(chunk.max(1)),
            Strategy::HeterogeneousSplit { .. } => warm(AfterWarmup::Split),
            Strategy::WorkSteal { divisor, .. } => warm(AfterWarmup::Steal(steal(divisor))),
            Strategy::Oracle { divisor, .. } => {
                let oracle = oracle.unwrap_or_else(|| CostOracle::new(n, OracleConfig::default()));
                assert_eq!(oracle.n_devices(), n, "oracle device count must match the devices");
                if oracle.is_warm(profile.class) {
                    State::Oracle { oracle, seed: None, cfg: steal(divisor) }
                } else {
                    warm(AfterWarmup::Oracle(oracle, steal(divisor)))
                }
            }
        };
        Policy {
            state,
            profile,
            ids: devices.iter().map(|d| d.id() as u32).collect(),
            warmup_done: 0,
        }
    }

    /// The split or deque-seed weights in use: `None` while warming up,
    /// before the oracle's first seed, and for greedy plans.
    pub fn weights(&self) -> Option<&[f64]> {
        match &self.state {
            State::Split(w) | State::Steal { weights: w, .. } => Some(w),
            State::Oracle { seed, .. } => seed.as_deref(),
            State::WarmingUp { .. } | State::Greedy(_) => None,
        }
    }

    /// The learned oracle, once [`Strategy::Oracle`] is past its warm-up.
    pub fn oracle(&self) -> Option<&CostOracle> {
        match &self.state {
            State::Oracle { oracle, .. } => Some(oracle),
            _ => None,
        }
    }

    /// Hand back the oracle (warm-up finished or not); `None` for other
    /// strategies.
    pub fn into_oracle(self) -> Option<CostOracle> {
        match self.state {
            State::Oracle { oracle, .. }
            | State::WarmingUp { then: AfterWarmup::Oracle(oracle, _), .. } => Some(oracle),
            _ => None,
        }
    }

    /// Lay out a batch of `items` conformations.
    pub fn plan(&mut self, items: u64, trace: &Trace) -> Plan {
        let n = self.ids.len();
        match &mut self.state {
            State::Split(weights) => Plan::Shares(proportional_split(items, weights)),
            State::WarmingUp { .. } => Plan::Shares(proportional_split(items, &vec![1.0; n])),
            State::Greedy(chunk) => Plan::Greedy { items, chunk: *chunk },
            State::Steal { weights, cfg } => seed_deques(&self.ids, items, weights, *cfg, trace),
            State::Oracle { oracle, seed, cfg } => {
                let weights =
                    oracle.seed_weights(self.profile.class).unwrap_or_else(|| vec![1.0; n]);
                if trace.is_enabled() {
                    trace.emit(Event::Counter {
                        name: "oracle_reseed",
                        value: oracle.reseeds() as f64,
                    });
                }
                let plan = seed_deques(&self.ids, items, &weights, *cfg, trace);
                *seed = Some(weights);
                plan
            }
        }
    }

    /// Take the outcome of the last planned batch: each device's virtual
    /// seconds and executed items.
    pub fn observe(&mut self, charged: &Charged, trace: &Trace) {
        let items = charged.items();
        let (class, per_item) = (self.profile.class, self.profile.units_per_item);
        match &mut self.state {
            State::Oracle { oracle, .. } => {
                for (i, (&di, &dt)) in items.iter().zip(&charged.seconds).enumerate() {
                    if di > 0 && dt > 0.0 {
                        let u = oracle.observe(i, class, (di * per_item) as f64, dt);
                        if trace.is_enabled() {
                            trace.emit(Event::ModelUpdated {
                                device: self.ids[i],
                                class: class.ordinal(),
                                predicted: u.predicted,
                                observed: u.observed,
                                residual: u.residual,
                                refit: u.refit,
                            });
                        }
                    }
                }
            }
            State::WarmingUp { left, times, units, .. } => {
                for (i, (&di, &dt)) in items.iter().zip(&charged.seconds).enumerate() {
                    times[i] += dt;
                    units[i] += (di * per_item) as f64;
                    if trace.is_enabled() {
                        trace.emit(Event::WarmupSample {
                            device: self.ids[i],
                            iteration: self.warmup_done,
                            seconds: dt,
                        });
                    }
                }
                self.warmup_done += 1;
                *left -= 1;
                if *left == 0 {
                    self.finish_warmup(trace);
                }
            }
            State::Split(_) | State::Steal { .. } | State::Greedy(_) => {}
        }
    }

    /// Equation 1 over the warm-up measurements, handed to the follow-on
    /// state.
    fn finish_warmup(&mut self, trace: &Trace) {
        let State::WarmingUp { times, units, then, .. } =
            std::mem::replace(&mut self.state, State::Greedy(1))
        else {
            return;
        };
        let measured = times.iter().all(|&t| t > 0.0);
        let weights = if measured { shares_from_times(&times) } else { vec![1.0; times.len()] };
        if trace.is_enabled() {
            let total: f64 = weights.iter().sum();
            for (&device, &w) in self.ids.iter().zip(&weights) {
                trace.emit(Event::PartitionDecision { device, share: w / total, weight: w });
            }
        }
        self.state = match then {
            AfterWarmup::Split => State::Split(weights),
            AfterWarmup::Steal(cfg) => State::Steal { weights, cfg },
            AfterWarmup::Oracle(mut oracle, cfg) => {
                if measured && units.iter().all(|&u| u > 0.0) {
                    oracle.observe_warmup(self.profile.class, &times, &units);
                }
                State::Oracle { oracle, seed: None, cfg }
            }
        };
    }
}

/// A deque plan seeded proportionally to `weights`, with one
/// `PartitionDecision` per device.
fn seed_deques(ids: &[u32], items: u64, weights: &[f64], cfg: StealConfig, trace: &Trace) -> Plan {
    let shares = proportional_split(items, weights);
    if trace.is_enabled() {
        for ((&device, &share), &weight) in ids.iter().zip(&shares).zip(weights) {
            let share = share as f64 / items.max(1) as f64;
            trace.emit(Event::PartitionDecision { device, share, weight });
        }
    }
    Plan::Deques { shares, cfg }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::charge_plan;
    use crate::warmup::WarmupConfig;
    use gpusim::catalog;

    const PAIRS: u64 = 45 * 3264;

    fn hertz_gpus() -> Vec<Arc<SimDevice>> {
        vec![
            Arc::new(SimDevice::new(0, catalog::tesla_k40c())),
            Arc::new(SimDevice::new(1, catalog::geforce_gtx_580())),
        ]
    }

    fn het(iterations: usize) -> Strategy {
        Strategy::HeterogeneousSplit { warmup: WarmupConfig { iterations, ..Default::default() } }
    }

    /// Drive `policy` through `batches` batches of `items` on `devs`.
    fn run(policy: &mut Policy, devs: &[Arc<SimDevice>], batches: usize, items: u64) {
        let trace = Trace::disabled();
        for _ in 0..batches {
            let plan = policy.plan(items, &trace);
            let charged = charge_plan(devs, &plan, WorkProfile::pairs(PAIRS), None, &trace);
            policy.observe(&charged, &trace);
        }
    }

    #[test]
    fn homogeneous_weights_are_equal() {
        let devs = hertz_gpus();
        let policy =
            Policy::new(Strategy::HomogeneousSplit, &devs, WorkProfile::pairs(PAIRS), None);
        assert_eq!(policy.weights(), Some(&[1.0, 1.0][..]));
    }

    #[test]
    fn heterogeneous_weights_favor_fast_device() {
        let devs = hertz_gpus();
        let mut policy = Policy::new(het(8), &devs, WorkProfile::pairs(PAIRS), None);
        assert_eq!(policy.weights(), None, "no weights while warming up");
        run(&mut policy, &devs, 8, 2048);
        let w = policy.weights().expect("warm-up finished");
        assert!(w[0] > w[1], "K40c should get the larger share: {w:?}");
        // Warm-up charged.
        assert!(devs[0].clock() > 0.0 && devs[1].clock() > 0.0);
    }

    #[test]
    fn cpu_and_dynamic_plans_have_no_weights() {
        let devs = hertz_gpus();
        let profile = WorkProfile::pairs(10);
        let mut dynamic = Policy::new(Strategy::DynamicQueue { chunk: 32 }, &devs, profile, None);
        assert_eq!(dynamic.weights(), None);
        assert_eq!(dynamic.plan(100, &Trace::disabled()), Plan::Greedy { items: 100, chunk: 32 });
        // CPU-only: the single host device takes each batch in one launch.
        let mut cpu = Policy::new(Strategy::CpuOnly, &devs[..1], profile, None);
        assert_eq!(cpu.weights(), None);
        let charged = charge_plan(
            &devs[..1],
            &cpu.plan(100, &Trace::disabled()),
            profile,
            None,
            &Trace::disabled(),
        );
        assert_eq!(charged.ranges, vec![vec![(0, 100)]]);
    }

    #[test]
    fn zero_warmup_iterations_mean_one_warmup_batch() {
        // The rule every path shares: Equation 1 needs a measurement, so
        // `iterations: 0` runs exactly one timed equal-split batch.
        assert_eq!(warmup_batches(&het(0)), 1);
        assert_eq!(warmup_batches(&het(3)), 3);
        let ws = Strategy::WorkSteal {
            warmup: WarmupConfig { iterations: 0, ..Default::default() },
            divisor: 2,
        };
        assert_eq!(warmup_batches(&ws), 1);
        assert_eq!(warmup_batches(&Strategy::HomogeneousSplit), 0);
        assert_eq!(warmup_batches(&Strategy::DynamicQueue { chunk: 8 }), 0);

        let devs = hertz_gpus();
        let mut policy = Policy::new(het(0), &devs, WorkProfile::pairs(PAIRS), None);
        assert_eq!(policy.plan(2048, &Trace::disabled()), Plan::Shares(vec![1024, 1024]));
        run(&mut policy, &devs, 1, 2048);
        let w = policy.weights().expect("one batch completes the warm-up");
        assert!(w[0] > w[1], "{w:?}");
    }

    #[test]
    fn warm_oracle_skips_the_warmup() {
        let devs = hertz_gpus();
        let strategy = Strategy::Oracle { warmup: WarmupConfig::default(), divisor: 2 };
        let mut cold = Policy::new(strategy, &devs, WorkProfile::pairs(PAIRS), None);
        assert!(matches!(cold.plan(2048, &Trace::disabled()), Plan::Shares(_)));
        run(&mut cold, &devs, 8, 2048);
        let learned = cold.into_oracle().expect("oracle strategy keeps its oracle");
        let mut warm = Policy::new(strategy, &devs, WorkProfile::pairs(PAIRS), Some(learned));
        assert!(matches!(warm.plan(2048, &Trace::disabled()), Plan::Deques { .. }));
        assert!(warm.oracle().is_some());
    }
}
