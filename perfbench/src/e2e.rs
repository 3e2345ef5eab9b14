//! The untraced run: a closed loop of docks through the public entry
//! points (`VirtualScreenBuilder::build` + `VirtualScreen::run`, or
//! `screen_library`). One caller; each request starts when the previous
//! one returns. Only the calls into the program are timed.

use crate::workload::{self, Docked, Job, Size, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use vscreen::library::{screen_library, LibraryRanking};
use vscreen::platform;
use vscreen::VirtualScreen;

/// Samples of one untraced run.
#[derive(Debug, Default)]
pub struct E2e {
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall seconds to result of each request (a dock, or a library screen).
    pub ttr_s: Vec<f64>,
    /// Ligands docked.
    pub ligands: u64,
    /// Scoring evaluations performed.
    pub evaluations: u64,
    /// Docks attempted, and docks that failed a check or panicked.
    pub attempted: u64,
    pub failed: u64,
    /// One message per failure, for the report.
    pub failures: Vec<String>,
}

impl E2e {
    fn record(&mut self, what: String, result: std::thread::Result<Result<(), String>>) {
        let err = match result {
            Ok(Ok(())) => return,
            Ok(Err(e)) => e,
            Err(panic) => format!("panicked: {}", panic_message(&panic)),
        };
        self.failed += 1;
        self.failures.push(format!("{what}: {err}"));
    }
}

pub fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Run `workload` for at least `seconds` of closed-loop requests, in whole
/// cycles (one cycle of `dock_cold` is one dock of each shape, so every
/// run sees both shapes equally often).
pub fn run(workload: Workload, size: &Size, seed: u64, seconds: f64) -> E2e {
    let budget = Duration::from_secs_f64(seconds);
    let params = size.params(workload);
    let mut out = E2e::default();
    match workload {
        Workload::DockCold => {
            let (node, first) = set_up(&mut out, size, |_| {
                let jobs = [workload::cold_job(size, seed, 0), workload::cold_job(size, seed, 1)];
                (platform::hertz(), jobs)
            });
            let mut first = Some(first);
            let start = Instant::now();
            let mut cycle = 0u64;
            // At least three cycles: the 4-entry grid cache is full from the
            // fifth dock on, so peak memory does not depend on the count.
            while cycle < 3 || start.elapsed() < budget {
                let jobs = first.take().unwrap_or_else(|| {
                    [
                        workload::cold_job(size, seed, 2 * cycle),
                        workload::cold_job(size, seed, 2 * cycle + 1),
                    ]
                });
                for (k, job) in jobs.into_iter().enumerate() {
                    let i = 2 * cycle + k as u64;
                    dock_and_check(&mut out, job, workload, size, &params, &node, i);
                }
                cycle += 1;
            }
        }
        Workload::RedockGrid => {
            // Each repetition builds the grid of a distinct pair, so every
            // one is a cache miss; the timed docks use the last pair.
            let (node, screen) = set_up(&mut out, size, |rep| {
                let (receptor, ligand) = workload::redock_pair(size, seed, rep);
                let screen = VirtualScreen::from_molecules(receptor, ligand)
                    .surface_options(size.surface())
                    .scorer_options(workload.scorer_options())
                    .build();
                (platform::hertz(), screen)
            });
            let start = Instant::now();
            let mut i = 0u64;
            while i == 0 || start.elapsed() < budget {
                let job = Job {
                    receptor: screen.receptor().clone(),
                    ligand: screen.ligand().clone(),
                    seed: workload::redock_seed(seed, i),
                };
                dock_and_check(&mut out, job, workload, size, &params, &node, i);
                i += 1;
            }
        }
        Workload::LibraryFused => {
            let (node, receptor, first) = set_up(&mut out, size, |_| {
                let receptor = workload::library_receptor(size, seed);
                (platform::hertz(), receptor, workload::library_ligands(size, seed, 0))
            });
            let spots = vsmol::surface::detect_spots(&receptor, &size.surface()).len();
            let mut first = Some(first);
            let start = Instant::now();
            let mut r = 0u64;
            while r == 0 || start.elapsed() < budget {
                let ligands =
                    first.take().unwrap_or_else(|| workload::library_ligands(size, seed, r));
                let n = ligands.len() as u64;
                out.attempted += n;
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let t = Instant::now();
                    let ranking = screen_library(
                        &receptor,
                        &ligands,
                        &params,
                        &node,
                        workload::strategy(),
                        size.spots,
                        workload::library_seed(seed, r),
                    );
                    (t.elapsed().as_secs_f64(), ranking)
                }));
                match result {
                    Ok((ttr, ranking)) => {
                        out.ttr_s.push(ttr);
                        out.ligands += n;
                        out.evaluations += ranking.evaluations;
                        // A failed ranking check fails every ligand of the request.
                        let bad = check_ranking(&ranking, n as usize, spots, &params);
                        if !bad.is_empty() {
                            out.failed += n;
                        }
                        for e in bad {
                            out.failures.push(format!("library request {r}: {e}"));
                        }
                    }
                    Err(panic) => {
                        out.failed += n;
                        out.failures.push(format!(
                            "library request {r}: panicked: {}",
                            panic_message(&panic)
                        ));
                    }
                }
                r += 1;
            }
        }
    }
    out
}

/// Time `size.setup_reps` repetitions of the set-up `f(rep)` into
/// `out.setup_s` and return the last repetition's result.
fn set_up<T>(out: &mut E2e, size: &Size, mut f: impl FnMut(u64) -> T) -> T {
    let mut last = None;
    for rep in 0..size.setup_reps as u64 {
        let t = Instant::now();
        let value = f(rep);
        out.setup_s.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    last.expect("at least one set-up repetition")
}

fn dock_and_check(
    out: &mut E2e,
    job: Job,
    workload: Workload,
    size: &Size,
    params: &metaheur::MetaheuristicParams,
    node: &gpusim::SimNode,
    i: u64,
) {
    out.attempted += 1;
    let result = catch_unwind(AssertUnwindSafe(|| {
        let d: Docked = workload::dock(job, workload, size, params, node, None);
        out.ttr_s.push(d.ttr_s);
        out.ligands += 1;
        out.evaluations += d.outcome.evaluations;
        workload::check_docked(&d, workload, params)
    }));
    out.record(format!("dock {i}"), result);
}

/// Checks on a library ranking. `screen_library` reports no poses, so the
/// pose re-score runs on the traced run's layered docks, which must match
/// these hits bit for bit. Returns one message per failed check.
pub fn check_ranking(
    ranking: &LibraryRanking,
    ligands: usize,
    spots: usize,
    params: &metaheur::MetaheuristicParams,
) -> Vec<String> {
    let mut bad = Vec::new();
    if ranking.hits.len() != ligands {
        bad.push(format!("{} hits for {ligands} ligands", ranking.hits.len()));
        return bad;
    }
    if ranking.hits.windows(2).any(|w| w[0].best_score > w[1].best_score) {
        bad.push("hits not sorted best-first".into());
    }
    let mut seen = vec![false; ligands];
    let expected = params.evals_per_spot() * spots as u64;
    for h in &ranking.hits {
        if h.ligand_index >= ligands || std::mem::replace(&mut seen[h.ligand_index], true) {
            bad.push(format!("ligand index {} missing or repeated", h.ligand_index));
        } else if h.evaluations != expected {
            bad.push(format!(
                "ligand {}: {} evaluations != {expected}",
                h.ligand_index, h.evaluations
            ));
        } else if !h.best_score.is_finite() || h.best_spot >= spots {
            bad.push(format!(
                "ligand {}: bad best {} at spot {}",
                h.ligand_index, h.best_score, h.best_spot
            ));
        }
    }
    if ranking.evaluations != ranking.hits.iter().map(|h| h.evaluations).sum::<u64>() {
        bad.push("ranking evaluations do not sum over hits".into());
    }
    bad
}
