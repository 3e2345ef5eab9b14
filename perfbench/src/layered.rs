//! The traced run: the benchmark composes the layers itself, calling each
//! layer's public functions in the order `VirtualScreenBuilder::build` and
//! `VirtualScreen::run` do, and times every call from here:
//!
//! synth (vsmol) → `detect_spots` (vsmol) → `Scorer::new_traced` (vsscore)
//! → `DeviceEvaluator::new` (vsched) → `run_exec` (metaheur) with every
//! `evaluate` timed by a wrapper (vsched + kernels) → evaluator teardown.
//!
//! Nothing inside the program is instrumented. The run must reproduce the
//! public entry points' results bit for bit on the same inputs; kernel CPU
//! time comes from re-scoring every recorded batch serially afterwards.

use crate::e2e::{check_ranking, panic_message};
use crate::stats;
use crate::workload::{self, Job, Size, Workload};
use gpusim::SimNode;
use metaheur::{BatchEvaluator, EngineExec, MetaheuristicParams, RunResult};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use vsched::DeviceEvaluator;
use vscreen::library::screen_library;
use vscreen::platform;
use vsmol::{surface, Conformation, Molecule};
use vsscore::{Exec, PoseScratch, ScoreBatch, Scorer};
use vstrace::{Event, Trace};

/// What the grid layer did for one dock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GridUse {
    #[default]
    None,
    Built,
    Hit,
}

/// Per-layer self times (wall seconds) and counts of one layered dock.
#[derive(Debug, Clone, Copy, Default)]
pub struct DockLayers {
    pub grid: GridUse,
    pub synth_s: f64,
    pub spots_s: f64,
    pub scorer_new_s: f64,
    pub evaluator_new_s: f64,
    /// `run_exec` wall minus time inside `evaluate` (engine host work).
    pub host_s: f64,
    /// Wall time inside `DeviceEvaluator` batch calls.
    pub evaluate_s: f64,
    pub teardown_s: f64,
    /// Wall time of the whole composition, less the benchmark's own
    /// batch recording.
    pub wall_s: f64,
    /// Serial re-score time of every batch the dock scored.
    pub kernel_cpu_s: f64,
    pub grid_nodes: u64,
    pub grid_bytes: u64,
    pub work_units: u64,
    pub batches: u64,
    pub evaluations: u64,
    pub generations: u64,
    pub makespan: f64,
}

impl DockLayers {
    /// Sum of the layer self times; should cover `wall_s`.
    pub fn self_s(&self) -> f64 {
        self.synth_s
            + self.spots_s
            + self.scorer_new_s
            + self.evaluator_new_s
            + self.host_s
            + self.evaluate_s
            + self.teardown_s
    }
}

/// The `BatchEvaluator` wrapper that times every call into the scheduler
/// and records each scored batch for the serial kernel re-score.
struct Timed<'a> {
    inner: &'a mut DeviceEvaluator,
    evaluate_s: f64,
    record_s: f64,
    batches: Vec<Vec<Conformation>>,
}

impl Timed<'_> {
    fn timed<R>(&mut self, f: impl FnOnce(&mut DeviceEvaluator) -> R) -> R {
        let t = Instant::now();
        let r = f(self.inner);
        self.evaluate_s += t.elapsed().as_secs_f64();
        r
    }

    fn record(&mut self, confs: &[Conformation]) {
        let t = Instant::now();
        self.batches.push(confs.to_vec());
        self.record_s += t.elapsed().as_secs_f64();
    }
}

impl BatchEvaluator for Timed<'_> {
    fn evaluate(&mut self, confs: &mut [Conformation]) {
        self.timed(|ev| ev.evaluate(confs));
        self.record(confs);
    }

    fn pairs_per_eval(&self) -> u64 {
        self.inner.pairs_per_eval()
    }

    fn evaluate_with_gradients(
        &mut self,
        confs: &mut [Conformation],
    ) -> Option<Vec<vsscore::RigidGradient>> {
        let grads = self.timed(|ev| ev.evaluate_with_gradients(confs));
        if grads.is_some() {
            self.record(confs);
        }
        grads
    }

    fn evaluate_after(&mut self, confs: &mut [Conformation], release: f64) -> f64 {
        let done = self.timed(|ev| ev.evaluate_after(confs, release));
        self.record(confs);
        done
    }
}

/// One layered dock and what it produced.
pub struct LayeredDock {
    pub layers: DockLayers,
    pub run: RunResult,
    pub spots: usize,
    pub receptor: Molecule,
    pub ligand: Molecule,
}

fn timed<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *acc += t.elapsed().as_secs_f64();
    r
}

/// Compose the layers for one dock. `synth` makes the dock's inputs; its
/// time is the synthesis layer's.
pub fn layered_dock(
    synth: impl FnOnce() -> (Molecule, Molecule),
    seed: u64,
    workload: Workload,
    size: &Size,
    params: &MetaheuristicParams,
    node: &SimNode,
) -> Result<LayeredDock, String> {
    let trace = Trace::new();
    let mut l = DockLayers::default();
    let t0 = Instant::now();
    let (receptor, ligand) = timed(&mut l.synth_s, synth);
    let spots = timed(&mut l.spots_s, || surface::detect_spots(&receptor, &size.surface()));
    if spots.is_empty() {
        return Err("no surface spots detected".into());
    }
    let opts = workload.scorer_options();
    let scorer = timed(&mut l.scorer_new_s, || {
        Arc::new(Scorer::new_traced(&receptor, &ligand, opts, &trace))
    });
    let mut ev = timed(&mut l.evaluator_new_s, || {
        node.reset();
        DeviceEvaluator::new(node.gpus().to_vec(), scorer.clone(), workload::strategy())
    });
    let mut wrapped = Timed { inner: &mut ev, evaluate_s: 0.0, record_s: 0.0, batches: Vec::new() };
    let mut run_s = 0.0;
    let run = timed(&mut run_s, || {
        metaheur::run_exec(
            params,
            &spots,
            &mut wrapped,
            seed,
            &[],
            &Trace::disabled(),
            EngineExec::Lockstep,
        )
    });
    let Timed { evaluate_s, record_s, batches, .. } = wrapped;
    l.makespan = ev.makespan();
    timed(&mut l.teardown_s, || drop(ev));
    l.wall_s = t0.elapsed().as_secs_f64() - record_s;
    l.evaluate_s = evaluate_s;
    l.host_s = run_s - evaluate_s - record_s;

    for e in trace.snapshot().events() {
        if let Event::GridBuilt { nodes, bytes, cached, .. } = e.event {
            l.grid = if cached { GridUse::Hit } else { GridUse::Built };
            if !cached {
                l.grid_nodes += nodes;
                l.grid_bytes += bytes;
            }
        }
    }
    l.batches = batches.len() as u64;
    l.evaluations = run.evaluations;
    l.generations = run.generations_run as u64;
    l.work_units = run.evaluations * scorer.work_units_per_eval();
    l.kernel_cpu_s = rescore(&scorer, batches)?;

    Ok(LayeredDock { layers: l, run, spots: spots.len(), receptor, ligand })
}

/// Re-score every recorded batch serially with the dock's own scorer,
/// timing only the kernel calls. The scores must match the scheduler's
/// bit for bit: a fixed kernel is bit-identical across execution paths.
fn rescore(scorer: &Scorer, batches: Vec<Vec<Conformation>>) -> Result<f64, String> {
    let mut scratch = PoseScratch::new();
    let mut kernel_s = 0.0;
    for (b, scored) in batches.into_iter().enumerate() {
        let mut again = scored.clone();
        timed(&mut kernel_s, || {
            scorer.score_batch(ScoreBatch::Confs(&mut again), &mut scratch, Exec::Serial)
        });
        if let Some(k) =
            (0..again.len()).find(|&k| again[k].score.to_bits() != scored[k].score.to_bits())
        {
            return Err(format!(
                "batch {b} item {k}: serial re-score differs from scheduled score"
            ));
        }
    }
    Ok(kernel_s)
}

/// Result of one traced run.
pub struct Traced {
    pub docks: Vec<DockLayers>,
    /// Tracing-overhead cell: the median paired difference traced-on minus
    /// traced-off, and the base it is a share of (wall seconds).
    pub overhead: (f64, f64),
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Traced {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }
}

/// Whether a layered dock reproduces a public-entry-point dock bit for bit.
fn agree(
    layered: &RunResult,
    makespan: f64,
    score: f64,
    spot: usize,
    evaluations: u64,
    virtual_time: Option<f64>,
) -> Result<(), String> {
    let same = layered.best.score.to_bits() == score.to_bits()
        && layered.best.spot_id == spot
        && layered.evaluations == evaluations
        && virtual_time.is_none_or(|vt| vt.to_bits() == makespan.to_bits());
    if same {
        Ok(())
    } else {
        Err(format!(
            "layered run (score {:e}, spot {}, evals {}, makespan {makespan}) disagrees with entry point (score {score:e}, spot {spot}, evals {evaluations}, makespan {virtual_time:?})",
            layered.best.score, layered.best.spot_id, layered.evaluations
        ))
    }
}

/// The traced run of `workload`: a fixed set of layered docks (so every
/// count repeats exactly for a seed), each checked against the public
/// entry points, then the tracing-overhead cell.
pub fn run(workload: Workload, size: &Size, seed: u64) -> Traced {
    let params = size.params(workload);
    let node = platform::hertz();
    let mut out = Traced {
        docks: Vec::new(),
        overhead: (0.0, 0.0),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    match workload {
        Workload::DockCold | Workload::RedockGrid => {
            // Each dock synthesizes its inputs inside the layered dock;
            // re-docks synthesize the shared pair once, then clone it.
            let cold = workload == Workload::DockCold;
            let n = if cold { 2 } else { 1 + size.traced_redocks as u64 };
            let mut first: Option<Job> = None;
            for i in 0..n {
                out.attempted += 1;
                let result = catch_unwind(AssertUnwindSafe(|| -> Result<DockLayers, String> {
                    let dock_seed = if cold {
                        workload::cold_seed(seed, i)
                    } else {
                        workload::redock_seed(seed, i)
                    };
                    let synth = || match &first {
                        _ if cold => {
                            let j = workload::cold_job(size, seed, i);
                            (j.receptor, j.ligand)
                        }
                        None => workload::redock_pair(size, seed, size.setup_reps as u64 - 1),
                        Some(f) => (f.receptor.clone(), f.ligand.clone()),
                    };
                    let d = layered_dock(synth, dock_seed, workload, size, &params, &node)?;
                    let again = Job {
                        receptor: d.receptor.clone(),
                        ligand: d.ligand.clone(),
                        seed: dock_seed,
                    };
                    if i == 0 {
                        first = Some(again.clone());
                    }
                    let e2e = workload::dock(again, workload, size, &params, &node, None);
                    agree(
                        &d.run,
                        d.layers.makespan,
                        e2e.outcome.best.score,
                        e2e.outcome.best.spot_id,
                        e2e.outcome.evaluations,
                        Some(e2e.outcome.virtual_time),
                    )?;
                    workload::check_docked(&e2e, workload, &params)?;
                    Ok(d.layers)
                }));
                match result {
                    Ok(Ok(layers)) => out.docks.push(layers),
                    Ok(Err(e)) => out.fail(format!("traced dock {i}: {e}")),
                    Err(p) => out.fail(format!("traced dock {i}: panicked: {}", panic_message(&p))),
                }
            }
            // Overhead cell on the first (2BSM-shape) job, whose grid is
            // cached by now: traced on and off differ only in the search.
            // The base is that job's cold layered dock, so the fraction is
            // of the workload's own time to result.
            let Some(first) = first else { return out };
            let probe = |i: u64| Job { seed: workload::sub_seed(seed, 30, i), ..first.clone() };
            let base = out.docks.first().map(|d| d.wall_s);
            let (diff, off) = overhead_pairs(size.overhead_pairs, |p, traced| {
                let tr = Trace::new();
                workload::dock(probe(p), workload, size, &params, &node, traced.then_some(&tr))
                    .ttr_s
            });
            let base = if cold { base.unwrap_or(off) } else { off };
            out.overhead = (diff, base);
        }
        Workload::LibraryFused => {
            let receptor = workload::library_receptor(size, seed);
            let ligands = workload::library_ligands(size, seed, 0);
            let lib_seed = workload::library_seed(seed, 0);
            let mut layered = Vec::new();
            for (j, lig) in ligands.iter().enumerate() {
                out.attempted += 1;
                let result = catch_unwind(AssertUnwindSafe(|| -> Result<_, String> {
                    // The receptor's synthesis is charged to the first dock.
                    let synth = || {
                        let rec = if j == 0 {
                            workload::library_receptor(size, seed)
                        } else {
                            receptor.clone()
                        };
                        (rec, lig.clone())
                    };
                    let d = layered_dock(
                        synth,
                        lib_seed.wrapping_add(j as u64),
                        workload,
                        size,
                        &params,
                        &node,
                    )?;
                    workload::check_pose(
                        &d.receptor,
                        &d.ligand,
                        workload.scorer_options(),
                        &d.run.best,
                        d.spots,
                        d.run.evaluations,
                        &params,
                    )?;
                    Ok(d)
                }));
                match result {
                    Ok(Ok(d)) => layered.push(Some(d)),
                    Ok(Err(e)) => {
                        out.fail(format!("traced ligand {j}: {e}"));
                        layered.push(None);
                    }
                    Err(p) => {
                        out.fail(format!("traced ligand {j}: panicked: {}", panic_message(&p)));
                        layered.push(None);
                    }
                }
            }
            // Agreement: the library entry point on the same inputs.
            let spots = layered.iter().flatten().next().map_or(0, |d| d.spots);
            let ranking = catch_unwind(AssertUnwindSafe(|| {
                screen_library(
                    &receptor,
                    &ligands,
                    &params,
                    &node,
                    workload::strategy(),
                    size.spots,
                    lib_seed,
                )
            }));
            let bad = match &ranking {
                Ok(r) => check_ranking(r, ligands.len(), spots, &params),
                Err(p) => vec![format!("panicked: {}", panic_message(p))],
            };
            if !bad.is_empty() {
                // A failed ranking fails every ligand not failed already.
                out.failed += layered.iter_mut().filter_map(Option::take).count() as u64;
                out.failures.extend(bad.into_iter().map(|e| format!("library ranking: {e}")));
            }
            for h in ranking.iter().flat_map(|r| &r.hits) {
                let Some(Some(d)) = layered.get_mut(h.ligand_index) else { continue };
                match agree(&d.run, 0.0, h.best_score, h.best_spot, h.evaluations, None) {
                    Ok(()) => out.docks.push(d.layers),
                    Err(e) => out.fail(format!("traced ligand {}: {e}", h.ligand_index)),
                }
            }
            // Overhead cell on the smallest ligand's dock.
            let small =
                Job { receptor: receptor.clone(), ligand: ligands[0].clone(), seed: lib_seed };
            let (diff, off) = overhead_pairs(size.overhead_pairs, |_, traced| {
                let tr = Trace::new();
                workload::dock(small.clone(), workload, size, &params, &node, traced.then_some(&tr))
                    .ttr_s
            });
            out.overhead = (diff, off);
        }
    }
    out
}

/// Run `pairs` traced-on/off pairs of `dock(pair, traced)`, alternating
/// which side runs first. Returns the median paired difference (on - off),
/// which cancels drift between pairs, and the median traced-off time.
fn overhead_pairs(pairs: usize, mut dock: impl FnMut(u64, bool) -> f64) -> (f64, f64) {
    let (mut diffs, mut off) = (Vec::new(), Vec::new());
    for p in 0..pairs.max(1) as u64 {
        let first = dock(p, p % 2 == 0);
        let second = dock(p, p % 2 == 1);
        let (t_on, t_off) = if p % 2 == 0 { (first, second) } else { (second, first) };
        diffs.push(t_on - t_off);
        off.push(t_off);
    }
    (stats::median(&diffs), stats::median(&off))
}
