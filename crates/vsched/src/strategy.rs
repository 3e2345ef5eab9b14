//! Scheduling strategies compared in the paper's evaluation.

use crate::warmup::WarmupConfig;
use serde::{Deserialize, Serialize};

/// How conformations are assigned to devices. The behaviour of each
/// variant lives in [`crate::policy`], shared by replay and live runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Strategy {
    /// All work on the host CPU — the paper's OpenMP baseline column.
    CpuOnly,
    /// Equal split across GPUs (Algorithm 2): the *homogeneous algorithm*,
    /// blind to device differences.
    HomogeneousSplit,
    /// Warm-up + Equation 1 proportional split: the *heterogeneous
    /// algorithm* (§3.3).
    HeterogeneousSplit { warmup: WarmupConfig },
    /// Dynamic self-scheduling: conformations are dealt in chunks to
    /// whichever device has the earliest virtual clock (ablation beyond
    /// the paper's static splits).
    DynamicQueue { chunk: u64 },
    /// The unified runtime's work-stealing mode (DESIGN.md §10): warm-up +
    /// Equation 1 weights seed per-device deques each batch, owners drain
    /// their deque in guided chunks (`remaining / divisor`, floor-clamped
    /// at the device's occupancy saturation), and idle devices steal half
    /// the tail of the most-loaded victim. Heals mispredicted or degraded
    /// devices that the frozen Percent split would leave stranded.
    WorkSteal { warmup: WarmupConfig, divisor: u64 },
    /// The learned cost oracle (DESIGN.md §15): the warm-up is ingested as
    /// a cold-start prior instead of a terminal answer, every batch's
    /// `(units, virtual seconds)` refines per-(device, kernel-class)
    /// throughput fits, and the work-stealing deques are re-seeded from
    /// the *current* fitted rates before each batch. Drift (a device
    /// slowing or recovering mid-run) re-fits the model within a few
    /// batches, so seeds track reality and stealing shrinks to a safety
    /// net.
    Oracle { warmup: WarmupConfig, divisor: u64 },
}

impl Strategy {
    /// Human-readable label matching the paper's table columns.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::CpuOnly => "OpenMP",
            Strategy::HomogeneousSplit => "Homogeneous computation",
            Strategy::HeterogeneousSplit { .. } => "Heterogeneous computation",
            Strategy::DynamicQueue { .. } => "Dynamic queue",
            Strategy::WorkSteal { .. } => "Work stealing",
            Strategy::Oracle { .. } => "Learned oracle",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(Strategy::CpuOnly.label(), "OpenMP");
        assert_eq!(Strategy::HomogeneousSplit.label(), "Homogeneous computation");
        assert_eq!(
            Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() }.label(),
            "Heterogeneous computation"
        );
    }
}
