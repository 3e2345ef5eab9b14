//! The unified heterogeneous node runtime: every execution path on a node
//! — static Percent splits, warm-up batches, greedy chunks, and the
//! work-stealing mode — funnels through one [`NodeRuntime`] that owns the
//! persistent per-device worker threads, and through `charge_plan`, the
//! virtual-time accounting it shares with the trace replay.
//!
//! # Architecture
//!
//! The runtime separates *scheduling* (which device claims which chunk,
//! decided in virtual time) from *scoring* (the real numeric computation):
//!
//! 1. **Claiming** runs on the submitting thread. For the work-stealing
//!    mode, per-device [`ChunkDeque`]s are seeded with contiguous index
//!    ranges proportional to the Equation 1 warm-up weights; the drain
//!    loop then repeatedly lets the device with the *smallest virtual
//!    clock* claim next (ties broken by device index): it pops a
//!    guided-size chunk from the front of its own deque
//!    (`remaining / divisor`, floor-clamped — see [`StealConfig`]), or, if
//!    its deque is empty, steals half the tail of the most-loaded victim's
//!    deque, emitting a [`vstrace::Event::JobMigrated`] per steal. Each
//!    claim advances the claiming device's clock by the cost model's
//!    estimate immediately, so the entire claim order is a deterministic
//!    function of (batch, weights, cost model, active slowdowns).
//! 2. **Scoring** runs on one long-lived worker thread per device. Workers
//!    receive the claimed ranges and score them with the real
//!    Lennard-Jones kernels; because all ranges are disjoint and each
//!    conformation's score is independent, results are bit-identical to
//!    the serial path no matter which device claimed what.
//!
//! The deque itself is linearizable under true concurrency (model-checked
//! in [`crate::deque`]); the runtime drives it from one thread only so
//! that virtual-time claim ordering — and therefore makespans and traces —
//! are exactly reproducible (DESIGN.md §10 determinism contract).

use crate::deque::ChunkDeque;
use crate::policy::{Plan, Policy};
use crate::sync::thread::{Builder, JoinHandle};
use crate::sync::{Condvar, Mutex};
use gpusim::{KernelClass, SimDevice, Timeline, WorkProfile};
use std::sync::Arc;
use vsmol::Conformation;
use vsscore::{Exec, ScoreBatch, Scorer};
use vstrace::{Event, Trace};

/// Chunk-sizing knobs for the work-stealing drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealConfig {
    /// Guided self-scheduling divisor: an owner's claim takes
    /// `remaining_own / divisor` items (clamped below by the floor).
    pub divisor: u64,
    /// Lower bound on chunk size. `0` (the default) selects each device's
    /// occupancy floor — [`gpusim::DeviceSpec::saturation_items`] — so no
    /// claim launches a machine-starving kernel. When the remaining deque
    /// is shorter than twice the floor the claim takes everything,
    /// avoiding a sub-saturated tail launch.
    pub min_chunk: u32,
}

impl Default for StealConfig {
    fn default() -> StealConfig {
        StealConfig { divisor: 2, min_chunk: 0 }
    }
}

/// What the drain did, for tests, benches and the `runtime_steal` example.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Total chunks claimed (own pops + steals).
    pub chunks: u64,
    /// Chunks claimed from another device's deque.
    pub steals: u64,
    /// Items moved by those steals.
    pub stolen_items: u64,
}

impl StealStats {
    pub fn merge(&mut self, other: StealStats) {
        self.chunks += other.chunks;
        self.steals += other.steals;
        self.stolen_items += other.stolen_items;
    }
}

/// One resolved claim from the drain: `device` scores `[lo, hi)`;
/// `stolen_from` names the victim deque when the claim was a steal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Claim {
    pub device: usize,
    pub lo: u32,
    pub hi: u32,
    pub stolen_from: Option<usize>,
}

/// The chunk an owner claims from its own deque: guided self-scheduling
/// (`len / divisor`), clamped below by `floor`, merging short tails
/// (`len < 2 × floor`) into one claim so the last launch still saturates
/// the device.
fn chunk_size(len: u32, divisor: u64, floor: u32) -> u32 {
    debug_assert!(len > 0);
    if len < floor.saturating_mul(2) {
        len
    } else {
        let guided = (u64::from(len) / divisor.max(1)) as u32;
        guided.max(floor).min(len)
    }
}

fn floor_for(dev: &SimDevice, cfg: &StealConfig) -> u32 {
    let floor =
        if cfg.min_chunk == 0 { dev.spec().saturation_items() } else { u64::from(cfg.min_chunk) };
    floor.clamp(1, u64::from(u32::MAX)) as u32
}

/// The cost-model regime a scorer's kernel runs in: dense kernels sweep
/// ligand × receptor *pairs*, [`vsscore::Kernel::Grid`] interpolates per
/// *ligand atom*, and [`vsscore::Kernel::CellList`] visits only the
/// *shell pairs* inside its cutoff. The scheduler must price batches in
/// the kernel's own unit — charging a grid job by pair count would
/// mispredict it by orders of magnitude and wreck the Eq. 1 splits.
pub fn work_profile(scorer: &Scorer) -> WorkProfile {
    let class = match scorer.options().kernel {
        vsscore::Kernel::Grid { .. } => KernelClass::GridInterp,
        vsscore::Kernel::CellList { .. } => KernelClass::ShellPairs,
        _ => KernelClass::PairSweep,
    };
    WorkProfile::new(scorer.work_units_per_eval(), class)
}

/// Charge one claimed chunk to `dev`'s virtual clock (through the
/// timeline when one is attached, so Gantt segments are recorded) and
/// emit the `DeviceBusy` trace event when tracing without a timeline —
/// an attached *traced* timeline emits `DeviceBusy` itself.
fn charge(
    dev: &SimDevice,
    items: u64,
    profile: WorkProfile,
    timeline: Option<&Timeline>,
    trace: &Trace,
) {
    let batch = profile.batch(items);
    let vt_start = dev.clock();
    match timeline {
        Some(tl) => {
            tl.record(dev, &batch);
        }
        None => {
            dev.execute(&batch);
            if trace.is_enabled() {
                let (kernel_s, transfer_s) = dev.time_breakdown(&batch);
                trace.emit(Event::DeviceBusy {
                    device: dev.id() as u32,
                    vt_start,
                    vt_end: dev.clock(),
                    kernel_s,
                    transfer_s,
                    items,
                });
            }
        }
    }
}

/// The device with the smallest virtual clock, ties to the lowest index.
fn earliest(devices: &[Arc<SimDevice>]) -> usize {
    let mut who = 0usize;
    let mut best = f64::INFINITY;
    for (i, d) in devices.iter().enumerate() {
        let c = d.clock();
        if c < best {
            best = c;
            who = i;
        }
    }
    who
}

/// Drain seeded per-device deques in virtual-time order, charging every
/// claim to the claiming device's clock as it happens. This is the shared
/// scheduling core of [`Plan::Deques`].
///
/// # Panics
/// Panics if `devices` and `deques` lengths differ or are empty.
pub fn drain_deques(
    devices: &[Arc<SimDevice>],
    deques: &[ChunkDeque],
    cfg: &StealConfig,
    profile: WorkProfile,
    timeline: Option<&Timeline>,
    trace: &Trace,
) -> (Vec<Claim>, StealStats) {
    assert_eq!(devices.len(), deques.len(), "one deque per device");
    assert!(!devices.is_empty(), "drain needs devices");
    let mut claims = Vec::new();
    let mut stats = StealStats::default();
    loop {
        if deques.iter().all(ChunkDeque::is_empty) {
            break;
        }
        // Devices with empty deques stay eligible — they steal.
        let who = earliest(devices);
        let floor = floor_for(&devices[who], cfg);
        let own_len = deques[who].len();
        let claim =
            if own_len > 0 {
                deques[who]
                    .pop_front(chunk_size(own_len, cfg.divisor, floor))
                    .map(|(lo, hi)| Claim { device: who, lo, hi, stolen_from: None })
            } else {
                // Steal half the tail of the most-loaded victim.
                let (victim, vlen) = deques
                    .iter()
                    .map(ChunkDeque::len)
                    .enumerate()
                    .filter(|&(i, _)| i != who)
                    .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                    // PANICS: a device only claims with an empty own deque while some
                    // deque is non-empty, so another device (and a victim) exists.
                    .expect("n >= 2 when an empty-deque device claims");
                debug_assert!(vlen > 0, "non-empty victim must exist while work remains");
                deques[victim].steal_back(chunk_size(vlen, 2, floor)).map(|(lo, hi)| Claim {
                    device: who,
                    lo,
                    hi,
                    stolen_from: Some(victim),
                })
            };
        let Some(claim) = claim else { continue };
        let items = u64::from(claim.hi - claim.lo);
        stats.chunks += 1;
        if let Some(victim) = claim.stolen_from {
            stats.steals += 1;
            stats.stolen_items += items;
            if trace.is_enabled() {
                trace.emit(Event::JobMigrated {
                    job: (stats.chunks - 1) as u32,
                    from_node: devices[victim].id() as u32,
                    to_node: devices[claim.device].id() as u32,
                });
            }
        }
        charge(&devices[claim.device], items, profile, timeline, trace);
        claims.push(claim);
    }
    (claims, stats)
}

/// Index ranges `[lo, hi)` laid end to end, one per share.
fn contiguous(shares: &[u64]) -> Vec<(u32, u32)> {
    let mut offset = 0u32;
    shares
        .iter()
        .map(|&share| {
            let lo = offset;
            offset += share as u32;
            (lo, offset)
        })
        .collect()
}

/// What charging one [`Plan`] did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Charged {
    /// Per-device claimed index ranges into the batch, in claim order.
    pub ranges: Vec<Vec<(u32, u32)>>,
    /// Per-device virtual seconds the plan added to the device clock.
    pub seconds: Vec<f64>,
    /// Deque-drain statistics (zero for the other plans).
    pub stats: StealStats,
}

impl Charged {
    /// Items executed per device.
    pub fn items(&self) -> Vec<u64> {
        self.ranges.iter().map(|r| r.iter().map(|&(lo, hi)| u64::from(hi - lo)).sum()).collect()
    }
}

/// Charge `plan` to the device clocks, one launch per contiguous share,
/// deque claim or greedy chunk — through `timeline` or `trace` when
/// attached. This is the one place virtual time is charged for a batch:
/// the replay uses the clocks alone, and [`NodeRuntime`] also scores the
/// returned ranges on its workers.
///
/// # Panics
/// Panics if the plan's share count differs from `devices.len()`.
pub(crate) fn charge_plan(
    devices: &[Arc<SimDevice>],
    plan: &Plan,
    profile: WorkProfile,
    timeline: Option<&Timeline>,
    trace: &Trace,
) -> Charged {
    let before: Vec<f64> = devices.iter().map(|d| d.clock()).collect();
    let mut ranges = vec![Vec::new(); devices.len()];
    let mut stats = StealStats::default();
    match plan {
        Plan::Shares(shares) => {
            assert_eq!(shares.len(), devices.len(), "one share per device");
            for (i, (lo, hi)) in contiguous(shares).into_iter().enumerate() {
                if hi > lo {
                    ranges[i].push((lo, hi));
                    charge(&devices[i], u64::from(hi - lo), profile, timeline, trace);
                }
            }
        }
        Plan::Deques { shares, cfg } => {
            assert_eq!(shares.len(), devices.len(), "one share per device");
            let deques: Vec<ChunkDeque> =
                contiguous(shares).into_iter().map(|(lo, hi)| ChunkDeque::new(lo, hi)).collect();
            let (claims, drained) = drain_deques(devices, &deques, cfg, profile, timeline, trace);
            for c in claims {
                ranges[c.device].push((c.lo, c.hi));
            }
            stats = drained;
        }
        Plan::Greedy { items, chunk } => {
            let mut offset = 0u64;
            while offset < *items {
                let take = (*chunk).min(items - offset);
                let who = earliest(devices);
                ranges[who].push((offset as u32, (offset + take) as u32));
                charge(&devices[who], take, profile, timeline, trace);
                offset += take;
            }
        }
    }
    let seconds = devices.iter().zip(&before).map(|(d, b)| d.clock() - b).collect();
    Charged { ranges, seconds, stats }
}

/// Work descriptor consumed by one runtime worker: the claimed index
/// ranges of the caller's conformation batch.
struct RtJob {
    confs: *mut Conformation,
    len: usize,
    /// Disjoint half-open ranges into `confs`, in claim order.
    ranges: Vec<(u32, u32)>,
    /// Test hook: the worker panics instead of scoring, to pin panic
    /// propagation through the completion handshake.
    #[cfg(test)]
    induce_panic: bool,
}

// SAFETY: the pointer is only dereferenced between job publication and the
// completion signal, during which the submitting thread is blocked in
// `dispatch` keeping the `&mut [Conformation]` borrow alive; per-device
// jobs cover disjoint ranges of that slice.
unsafe impl Send for RtJob {}

struct RtState {
    generation: u64,
    shutdown: bool,
    jobs: Vec<Option<RtJob>>,
    remaining: usize,
    /// Set by any worker whose job body panicked; re-raised on the
    /// submitter once all workers have checked in (a wedged `remaining`
    /// would otherwise block the submitter forever).
    panicked: bool,
}

struct RtShared {
    state: Mutex<RtState>,
    work_cv: Condvar,
    done_cv: Condvar,
}

/// The per-node execution core: persistent per-device scoring workers plus
/// the virtual-time claim engine. [`crate::DeviceEvaluator`] is a thin
/// facade over this type and a [`Policy`]; every batch goes through
/// [`NodeRuntime::run`].
pub struct NodeRuntime {
    devices: Vec<Arc<SimDevice>>,
    scorer: Arc<Scorer>,
    timeline: Option<Arc<Timeline>>,
    trace: Trace,
    shared: Arc<RtShared>,
    workers: Vec<JoinHandle<()>>,
    /// Test hook: every worker panics on the next dispatch.
    #[cfg(test)]
    pub(crate) panic_next: bool,
}

impl NodeRuntime {
    /// Spawn one persistent scoring worker per device.
    ///
    /// # Panics
    /// Panics if `devices` is empty.
    pub fn new(devices: Vec<Arc<SimDevice>>, scorer: Arc<Scorer>) -> NodeRuntime {
        assert!(!devices.is_empty(), "need at least one device");
        let n = devices.len();
        let shared = Arc::new(RtShared {
            state: Mutex::new(RtState {
                generation: 0,
                shutdown: false,
                jobs: (0..n).map(|_| None).collect(),
                remaining: 0,
                panicked: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let workers = (0..n)
            .map(|index| {
                let shared = Arc::clone(&shared);
                let scorer = Arc::clone(&scorer);
                Builder::new()
                    .name(format!("vsched-rt-{index}"))
                    .spawn(move || runtime_worker(&shared, index, &scorer))
                    .expect("failed to spawn runtime worker")
            })
            .collect();
        NodeRuntime {
            devices,
            scorer,
            timeline: None,
            trace: Trace::disabled(),
            shared,
            workers,
            #[cfg(test)]
            panic_next: false,
        }
    }

    /// Record every device execution into `timeline` (Gantt introspection).
    pub fn set_timeline(&mut self, timeline: Arc<Timeline>) {
        self.timeline = Some(timeline);
    }

    /// Emit structured `vstrace` events from here on; device track names
    /// are registered from the catalog names.
    pub fn set_trace(&mut self, trace: Trace) {
        for dev in &self.devices {
            trace.set_track_name(dev.id() as u32, dev.name());
        }
        self.trace = trace;
    }

    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    pub fn devices(&self) -> &[Arc<SimDevice>] {
        &self.devices
    }

    pub fn scorer(&self) -> &Arc<Scorer> {
        &self.scorer
    }

    /// The overall virtual execution time so far (slowest device).
    pub fn makespan(&self) -> f64 {
        self.devices.iter().map(|d| d.clock()).fold(0.0, f64::max)
    }

    /// Advance every device clock to at least `vt`, emitting a
    /// `DeviceIdle` span for each device that was waiting. This is how a
    /// streamed batch's host-side release time (the generational engine's
    /// variation/selection work) charges the devices: a batch submitted at
    /// `vt` cannot start before `vt`, and any gap since the device's last
    /// work is genuine idleness the pipelined engine exists to remove.
    pub fn release_until(&mut self, vt: f64) {
        for dev in &self.devices {
            let clock = dev.clock();
            if clock < vt {
                self.trace.emit(Event::DeviceIdle {
                    device: dev.id() as u32,
                    vt_start: clock,
                    vt_end: vt,
                });
                dev.sync_to(vt);
            }
        }
    }

    /// Schedule and score one batch under `policy`: the policy plans it,
    /// the plan is charged and scored ([`Self::run_plan`]), and the policy
    /// observes the outcome. Returns the drain's statistics.
    pub fn run(&mut self, confs: &mut [Conformation], policy: &mut Policy) -> StealStats {
        let plan = policy.plan(confs.len() as u64, &self.trace);
        let charged = self.run_plan(confs, &plan);
        policy.observe(&charged, &self.trace);
        charged.stats
    }

    /// Charge `plan` to the device clocks (`charge_plan`) and score the
    /// resulting ranges on the persistent workers.
    pub fn run_plan(&mut self, confs: &mut [Conformation], plan: &Plan) -> Charged {
        let charged = charge_plan(
            &self.devices,
            plan,
            work_profile(&self.scorer),
            self.timeline.as_deref(),
            &self.trace,
        );
        debug_assert_eq!(
            charged.items().iter().sum::<u64>(),
            confs.len() as u64,
            "the plan must cover the batch"
        );
        self.dispatch(confs, charged.ranges.clone());
        charged
    }

    /// Publish one job per worker and block until every worker checked in;
    /// re-raises any worker panic on the calling thread.
    fn dispatch(&mut self, confs: &mut [Conformation], ranges: Vec<Vec<(u32, u32)>>) {
        {
            // PANICS: lock poisoning means a sibling thread panicked while holding it; propagating the panic is deliberate.
            let mut st = self.shared.state.lock().expect("runtime mutex poisoned");
            for (slot, ranges) in st.jobs.iter_mut().zip(ranges) {
                debug_assert!(ranges
                    .iter()
                    .all(|&(lo, hi)| lo <= hi && hi as usize <= confs.len()));
                *slot = Some(RtJob {
                    confs: confs.as_mut_ptr(),
                    len: confs.len(),
                    ranges,
                    #[cfg(test)]
                    induce_panic: self.panic_next,
                });
            }
            st.generation += 1;
            st.remaining = self.workers.len();
        }
        self.shared.work_cv.notify_all();
        #[cfg(test)]
        {
            self.panic_next = false;
        }
        let panicked = {
            // PANICS: lock poisoning means a sibling thread panicked while holding it; propagating the panic is deliberate.
            let mut st = self.shared.state.lock().expect("runtime mutex poisoned");
            while st.remaining > 0 {
                // PANICS: lock poisoning means a sibling thread panicked while holding it; propagating is deliberate.
                st = self.shared.done_cv.wait(st).expect("runtime mutex poisoned");
            }
            std::mem::take(&mut st.panicked)
        };
        if panicked {
            panic!("device worker panicked");
        }
    }
}

impl Drop for NodeRuntime {
    fn drop(&mut self) {
        {
            // PANICS: lock poisoning means a worker already panicked; propagating from drop is deliberate.
            let mut st = self.shared.state.lock().expect("runtime mutex poisoned");
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn runtime_worker(shared: &RtShared, index: usize, scorer: &Scorer) {
    let mut scratch = vsscore::PoseScratch::new();
    let mut seen_generation = 0u64;
    loop {
        let job = {
            // PANICS: lock poisoning means a sibling thread panicked while holding it; propagating the panic is deliberate.
            let mut st = shared.state.lock().expect("runtime mutex poisoned");
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen_generation {
                    seen_generation = st.generation;
                    break st.jobs[index].take();
                }
                // PANICS: lock poisoning means a sibling thread panicked while holding it; propagating the panic is deliberate.
                st = shared.work_cv.wait(st).expect("runtime mutex poisoned");
            }
        };

        // Run the claimed ranges under catch_unwind: a panicking scorer
        // must still decrement `remaining` (otherwise the submitter blocks
        // forever); the panic is recorded and re-raised on the submitter.
        let body = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(job) = &job {
                #[cfg(test)]
                {
                    if job.induce_panic {
                        panic!("induced device worker panic");
                    }
                }
                if !job.ranges.is_empty() {
                    // SAFETY: see the RtJob safety comment — the submitter
                    // blocks in `dispatch` until every worker decrements
                    // `remaining`, and jobs cover disjoint slice ranges.
                    let confs = unsafe { std::slice::from_raw_parts_mut(job.confs, job.len) };
                    for &(lo, hi) in &job.ranges {
                        let chunk = &mut confs[lo as usize..hi as usize];
                        if !chunk.is_empty() {
                            scorer.score_batch(
                                ScoreBatch::Confs(chunk),
                                &mut scratch,
                                Exec::Serial,
                            );
                        }
                    }
                }
            }
        }));

        // PANICS: lock poisoning means a sibling thread panicked while holding it; propagating the panic is deliberate.
        let mut st = shared.state.lock().expect("runtime mutex poisoned");
        if body.is_err() {
            st.panicked = true;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::catalog;
    use vsmath::{RigidTransform, RngStream};
    use vsmol::synth;

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

    /// A deque plan seeded proportionally to `weights`, guided divisor 2.
    fn deques(items: u64, weights: &[f64], min_chunk: u32) -> Plan {
        let shares = crate::partition::proportional_split(items, weights);
        Plan::Deques { shares, cfg: StealConfig { divisor: 2, min_chunk } }
    }

    fn serial_scores(sc: &Scorer, confs: &[Conformation]) -> Vec<f64> {
        let mut b = confs.to_vec();
        let mut scratch = vsscore::PoseScratch::new();
        sc.score_batch(ScoreBatch::Confs(&mut b), &mut scratch, Exec::Serial);
        b.iter().map(|c| c.score).collect()
    }

    #[test]
    fn chunk_size_guided_floor_and_tail_merge() {
        // Guided: len/divisor when comfortably above the floor.
        assert_eq!(chunk_size(4000, 2, 960), 2000);
        // Floor clamp.
        assert_eq!(chunk_size(2100, 4, 960), 960);
        // Tail merge: below 2x floor the claim takes everything, so the
        // last launch still saturates the device.
        assert_eq!(chunk_size(1919, 2, 960), 1919);
        assert_eq!(chunk_size(5, 2, 1), 2);
        assert_eq!(chunk_size(1, 2, 1), 1);
    }

    #[test]
    fn drain_healthy_matches_seeded_shares_with_whole_chunks() {
        // At paper-scale generation sizes (items < 2x the occupancy floor
        // per deque) the healthy drain claims each deque in one chunk:
        // identical device assignment — and virtual time — to the static
        // Percent split, so work stealing costs nothing when nothing
        // goes wrong.
        let devs = hertz_devices();
        let deques = [ChunkDeque::new(0, 1229), ChunkDeque::new(1229, 2048)];
        let (claims, stats) = drain_deques(
            &devs,
            &deques,
            &StealConfig::default(),
            WorkProfile::pairs(146_880),
            None,
            &Trace::disabled(),
        );
        assert_eq!(stats.steals, 0, "healthy paper-scale batch must not steal");
        assert_eq!(claims.len(), 2);
        assert_eq!(claims[0], Claim { device: 0, lo: 0, hi: 1229, stolen_from: None });
        assert_eq!(claims[1], Claim { device: 1, lo: 1229, hi: 2048, stolen_from: None });
        assert_eq!(devs[0].stats().items, 1229);
        assert_eq!(devs[1].stats().items, 819);
    }

    #[test]
    fn drain_steals_from_straggler() {
        // Device 1 degrades 8x after seeding (stale weights): its first
        // guided claim inflates its clock, and device 0 — done with its
        // own deque — steals the victim's tail.
        let devs = hertz_devices();
        devs[1].set_slowdown(8.0);
        let deques = [ChunkDeque::new(0, 12_000), ChunkDeque::new(12_000, 20_000)];
        let trace = Trace::new();
        let (claims, stats) = drain_deques(
            &devs,
            &deques,
            &StealConfig::default(),
            WorkProfile::pairs(146_880),
            None,
            &trace,
        );
        assert!(stats.steals > 0, "straggler tail must be stolen: {stats:?}");
        assert!(
            claims.iter().any(|c| c.device == 0 && c.stolen_from == Some(1)),
            "healthy device must steal from the straggler: {claims:?}"
        );
        // Every steal produced a JobMigrated event.
        let data = trace.snapshot();
        let migrations =
            data.events().filter(|s| matches!(s.event, Event::JobMigrated { .. })).count() as u64;
        assert_eq!(migrations, stats.steals);
        // All 20k items were claimed exactly once.
        let mut ranges: Vec<(u32, u32)> = claims.iter().map(|c| (c.lo, c.hi)).collect();
        ranges.sort_unstable();
        let mut next = 0;
        for (lo, hi) in ranges {
            assert_eq!(lo, next);
            next = hi;
        }
        assert_eq!(next, 20_000);
    }

    #[test]
    fn drain_is_deterministic() {
        let run = || {
            let devs = hertz_devices();
            devs[1].set_slowdown(4.0);
            let deques = [ChunkDeque::new(0, 9_000), ChunkDeque::new(9_000, 16_000)];
            let (claims, stats) = drain_deques(
                &devs,
                &deques,
                &StealConfig::default(),
                WorkProfile::pairs(4_800),
                None,
                &Trace::disabled(),
            );
            (claims, stats, devs[0].clock(), devs[1].clock())
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0, "claim sequence must be reproducible");
        assert_eq!(a.1, b.1);
        assert_eq!(a.2.to_bits(), b.2.to_bits());
        assert_eq!(a.3.to_bits(), b.3.to_bits());
    }

    #[test]
    fn run_shares_scores_bit_identical_to_serial() {
        let sc = scorer();
        let mut rt = NodeRuntime::new(hertz_devices(), Arc::clone(&sc));
        let mut c = confs(50, 3);
        let want = serial_scores(&sc, &c);
        rt.run_plan(&mut c, &Plan::Shares(vec![30, 20]));
        for (got, want) in c.iter().zip(&want) {
            assert_eq!(got.score.to_bits(), want.to_bits());
        }
        assert!(rt.makespan() > 0.0);
    }

    #[test]
    fn run_steal_scores_bit_identical_to_serial() {
        let sc = scorer();
        let mut rt = NodeRuntime::new(hertz_devices(), Arc::clone(&sc));
        // Small min_chunk forces many chunks and (with a straggler) steals
        // — the scores must not care.
        rt.devices()[1].set_slowdown(6.0);
        let mut c = confs(257, 7);
        let want = serial_scores(&sc, &c);
        let stats = rt.run_plan(&mut c, &deques(257, &[1.0, 1.0], 8)).stats;
        assert!(stats.chunks >= 2);
        assert!(stats.steals > 0, "expected steals with a 6x straggler: {stats:?}");
        for (i, (got, want)) in c.iter().zip(&want).enumerate() {
            assert_eq!(got.score.to_bits(), want.to_bits(), "conf {i}");
        }
    }

    #[test]
    fn zero_weight_device_is_seeded_empty_but_can_steal() {
        let sc = scorer();
        let mut rt = NodeRuntime::new(hertz_devices(), Arc::clone(&sc));
        let mut c = confs(64, 9);
        let stats = rt.run_plan(&mut c, &deques(64, &[0.0, 1.0], 4)).stats;
        assert!(c.iter().all(|x| x.is_scored()));
        // Device 0 starts empty; anything it executed was stolen.
        let d0 = rt.devices()[0].stats().items;
        assert!(stats.stolen_items >= d0, "{stats:?} vs device 0 items {d0}");
    }

    #[test]
    fn timeline_records_steal_claims() {
        let sc = scorer();
        let tl = Arc::new(Timeline::new());
        let mut rt = NodeRuntime::new(hertz_devices(), Arc::clone(&sc));
        rt.set_timeline(Arc::clone(&tl));
        let mut c = confs(120, 4);
        let stats = rt.run_plan(&mut c, &deques(120, &[1.0, 1.0], 16)).stats;
        assert_eq!(tl.segments().len() as u64, stats.chunks, "one Gantt segment per claim");
        let recorded: u64 = tl.segments().iter().map(|s| s.items).sum();
        assert_eq!(recorded, 120);
        assert!((tl.makespan() - rt.makespan()).abs() < 1e-15);
    }
}
