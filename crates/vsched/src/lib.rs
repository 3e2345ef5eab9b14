//! # vsched — heterogeneity-aware scheduling
//!
//! The paper's contribution (§3): distribute the conformations of a
//! metaheuristic-based virtual screen across a heterogeneous
//! multicore + multi-GPU node so the slowest device no longer determines
//! execution time.
//!
//! - [`partition`] — equal splits (the *homogeneous algorithm*,
//!   Algorithm 2) and proportional splits;
//! - [`warmup`] — the run-time performance-monitoring phase: 5–10
//!   metaheuristic iterations per device establish performance
//!   differences, reduced to `Percent = t_device / t_slowest` (Equation 1,
//!   the *heterogeneous algorithm*);
//! - [`strategy`] — the scheduling strategies the experiments compare:
//!   CPU-only (OpenMP baseline), homogeneous split, heterogeneous split,
//!   dynamic work queue, work stealing, learned oracle;
//! - [`policy`] — the one implementation of those strategies: per batch a
//!   [`policy::Plan`] (contiguous shares, seeded deques, or greedy chunks), then
//!   the observed per-device `(seconds, units)` that drive the warm-up,
//!   Equation 1 and the oracle. Replay and live execution both run it, so
//!   they agree bitwise on device clocks;
//! - [`replay`] — schedule a recorded metaheuristic batch trace onto a
//!   simulated node and report per-device virtual times and makespan (the
//!   mechanism behind Tables 6–9);
//! - [`runtime`] — the unified node runtime (DESIGN.md §10): one
//!   *persistent* host worker thread per device (the paper's
//!   one-OpenMP-thread-per-GPU structure; workers are spawned once, fed
//!   disjoint index ranges per batch, and joined on drop), and
//!   `charge_plan`, which charges a plan to the device clocks — including
//!   the work-stealing drain over per-device [`deque`]s;
//! - [`oracle`] — the online learned cost model (DESIGN.md §15):
//!   per-(device, kernel-class) exponentially-decayed throughput fits that
//!   turn the one-shot Equation 1 warm-up into a cold-start prior and
//!   re-price devices from live batch telemetry, with drift detection;
//! - [`executor`] — the real-compute path: a
//!   [`metaheur::BatchEvaluator`] facade over the runtime and the policy;
//! - [`spec`] — [`spec::EvaluatorSpec`], the single declarative factory
//!   for scoring backends (serial CPU / pooled CPU / device-scheduled),
//!   replacing per-call-site constructor picking;
//! - [`cooperative`] — dynamic assignment of independent metaheuristic
//!   *jobs* to devices plus cooperative solution sharing between jobs
//!   (abstract §: "A cooperative scheduling of jobs optimizes the quality
//!   of the solution and the overall performance").

#![deny(unsafe_op_in_unsafe_fn)]

pub mod cooperative;
pub mod deque;
pub mod executor;
pub mod oracle;
pub mod partition;
pub mod policy;
pub mod replay;
pub mod runtime;
pub mod spec;
pub mod strategy;
pub(crate) mod sync;
pub mod warmup;

pub use deque::ChunkDeque;
pub use executor::DeviceEvaluator;
pub use oracle::{CostOracle, FitSnapshot, ModelUpdate, OracleConfig, SharedOracle};
pub use partition::{equal_split, proportional_split};
pub use replay::{
    schedule_trace, schedule_trace_drift, schedule_trace_faulty, schedule_trace_timeline,
    ScheduleReport,
};
pub use runtime::{drain_deques, work_profile, Claim, NodeRuntime, StealConfig, StealStats};
pub use spec::EvaluatorSpec;
pub use strategy::Strategy;
pub use warmup::{percent_factors, shares_from_times, warmup_times, WarmupConfig};
