//! Workload definitions: seeded inputs, the public dock entry point, and
//! the per-dock correctness checks shared by the untraced and traced runs.

use gpusim::SimNode;
use metaheur::{EngineExec, MetaheuristicParams};
use std::time::Instant;
use vsched::{Strategy, WarmupConfig};
use vscreen::{RunSpec, ScreenOutcome, VirtualScreen};
use vsmol::{synth, Element, Molecule, SurfaceOptions};
use vsscore::{GridOptions, Kernel, Scorer, ScorerOptions};
use vstrace::Trace;

/// The benchmark's workloads. Each stresses a different layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One-off grid docks on fresh receptors: every dock builds its grid.
    DockCold,
    /// Library screens with the default fused pair kernel: no grid at all.
    LibraryFused,
    /// Repeated searches of one pair on a warm grid cache.
    RedockGrid,
}

impl Workload {
    pub fn parse(s: &str) -> Result<Workload, String> {
        match s {
            "dock_cold" => Ok(Workload::DockCold),
            "library_fused" => Ok(Workload::LibraryFused),
            "redock_grid" => Ok(Workload::RedockGrid),
            other => {
                Err(format!("unknown workload {other:?} (dock_cold | library_fused | redock_grid)"))
            }
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::DockCold => "dock_cold",
            Workload::LibraryFused => "library_fused",
            Workload::RedockGrid => "redock_grid",
        }
    }

    /// Scoring kernel the workload docks with.
    pub fn scorer_options(self) -> ScorerOptions {
        let kernel = match self {
            Workload::LibraryFused => Kernel::Fused,
            Workload::DockCold | Workload::RedockGrid => {
                Kernel::Grid { spacing: GridOptions::default().spacing }
            }
        };
        ScorerOptions { kernel, ..ScorerOptions::default() }
    }
}

/// Input sizes. `full` is the measured configuration; `smoke` is the
/// smallest one that still runs every code path, for the smoke test.
#[derive(Debug, Clone)]
pub struct Size {
    /// M2 generation scale of the grid docks (1.0 is 17 generations,
    /// 53,248 evaluations at 16 spots).
    pub scale: f64,
    /// M2 generation scale per library ligand: a screen runs a lighter
    /// search per ligand (0.2 is 3 generations, 10,240 evaluations).
    pub library_scale: f64,
    /// Spot cap per dock.
    pub spots: usize,
    /// `(receptor atoms, ligand atoms)` of the two alternating cold-dock
    /// shapes; the first is also the library and re-dock receptor shape.
    pub shapes: [(usize, usize); 2],
    /// Ligand atom counts of one library request.
    pub library: &'static [usize],
    /// Set-up repetitions per run (the reported `setup_s` is their median).
    pub setup_reps: usize,
    /// Warm re-docks in the traced run of `redock_grid`.
    pub traced_redocks: usize,
    /// Traced-on/off pairs in the tracing-overhead cell.
    pub overhead_pairs: usize,
}

impl Size {
    pub fn parse(s: &str) -> Result<Size, String> {
        match s {
            // Table 5 shapes: 2BSM (3264/45) and 2BXG (8609/32).
            "full" => Ok(Size {
                scale: 1.0,
                library_scale: 0.2,
                spots: 16,
                shapes: [(3264, 45), (8609, 32)],
                library: &[20, 40, 60],
                setup_reps: 5,
                traced_redocks: 40,
                overhead_pairs: 5,
            }),
            "smoke" => Ok(Size {
                scale: 0.05,
                library_scale: 0.05,
                spots: 2,
                shapes: [(300, 9), (500, 7)],
                library: &[6, 10],
                setup_reps: 2,
                traced_redocks: 3,
                overhead_pairs: 1,
            }),
            other => Err(format!("unknown size {other:?} (full | smoke)")),
        }
    }

    pub fn params(&self, workload: Workload) -> MetaheuristicParams {
        match workload {
            Workload::LibraryFused => metaheur::m2(self.library_scale),
            Workload::DockCold | Workload::RedockGrid => metaheur::m2(self.scale),
        }
    }

    pub fn surface(&self) -> SurfaceOptions {
        SurfaceOptions { max_spots: self.spots, ..SurfaceOptions::default() }
    }
}

/// Every workload runs the paper's heterogeneity-aware split on Hertz: two
/// runtime workers (the two GPUs), with the caller blocked while they score.
pub fn strategy() -> Strategy {
    Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() }
}

pub const WORKERS: usize = 2;

/// Derive an independent input seed from the run seed, a stream tag and an
/// index (SplitMix64 finalizer), so every input depends only on `--seed`.
pub fn sub_seed(seed: u64, tag: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED69));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One receptor–ligand docking job.
#[derive(Debug, Clone)]
pub struct Job {
    pub receptor: Molecule,
    pub ligand: Molecule,
    pub seed: u64,
}

/// The ligand elements `vsmol::synth` draws from.
const LIGAND_ELEMENTS: [Element; 5] = [Element::C, Element::N, Element::O, Element::S, Element::Cl];

/// A grid ligand: the first seeded draw that carries all five ligand
/// elements. A grid build costs one grid per ligand element type, so fixing
/// the type count keeps seeds from changing the work; seeds still vary the
/// geometry and charges.
fn grid_ligand(name: &str, atoms: usize, seed: u64, tag: u64, i: u64) -> Molecule {
    (0..)
        .map(|k| synth::synth_ligand(name, atoms, sub_seed(seed, tag, (i << 16) + k)))
        .find(|l| LIGAND_ELEMENTS.iter().all(|e| l.elements().contains(e)))
        .expect("an unbounded search over seeds")
}

/// Cold dock `i`: a fresh receptor per dock, alternating the two shapes.
pub fn cold_job(size: &Size, seed: u64, i: u64) -> Job {
    let (rec_atoms, lig_atoms) = size.shapes[(i % 2) as usize];
    Job {
        receptor: synth::synth_receptor(&format!("cold-{i}"), rec_atoms, sub_seed(seed, 1, i)),
        ligand: grid_ligand(&format!("cold-lig-{i}"), lig_atoms, seed, 2, i),
        seed: cold_seed(seed, i),
    }
}

/// Search seed of cold dock `i`.
pub fn cold_seed(seed: u64, i: u64) -> u64 {
    sub_seed(seed, 3, i)
}

/// The library receptor (2BSM shape), shared by every library request.
pub fn library_receptor(size: &Size, seed: u64) -> Molecule {
    synth::synth_receptor("library-receptor", size.shapes[0].0, sub_seed(seed, 10, 0))
}

/// Library request `r`: distinct ligands, one per entry of `size.library`.
pub fn library_ligands(size: &Size, seed: u64, r: u64) -> Vec<Molecule> {
    size.library
        .iter()
        .enumerate()
        .map(|(j, &atoms)| {
            let idx = r * 64 + j as u64;
            synth::synth_ligand(&format!("lib-{r}-{j}"), atoms, sub_seed(seed, 11, idx))
        })
        .collect()
}

/// Root seed of library request `r` (ligand `j` docks with seed `+ j`).
pub fn library_seed(seed: u64, r: u64) -> u64 {
    sub_seed(seed, 12, r)
}

/// The re-dock pair of set-up repetition `rep` (2BSM shape). The timed
/// re-docks use the last repetition's pair, whose grid is then cached.
pub fn redock_pair(size: &Size, seed: u64, rep: u64) -> (Molecule, Molecule) {
    let (rec_atoms, lig_atoms) = size.shapes[0];
    (
        synth::synth_receptor("redock-receptor", rec_atoms, sub_seed(seed, 20, rep)),
        grid_ligand("redock-ligand", lig_atoms, seed, 21, rep),
    )
}

/// Search seed of re-dock `i`: each is an independent run, like AutoDock's
/// repeated GA runs.
pub fn redock_seed(seed: u64, i: u64) -> u64 {
    sub_seed(seed, 22, i)
}

/// A finished dock through the public entry points.
pub struct Docked {
    pub screen: VirtualScreen,
    pub outcome: ScreenOutcome,
    /// Wall seconds of `VirtualScreenBuilder::build` + `VirtualScreen::run`.
    pub ttr_s: f64,
}

/// Dock through the public entry points, timing build + run.
pub fn dock(
    job: Job,
    workload: Workload,
    size: &Size,
    params: &MetaheuristicParams,
    node: &SimNode,
    trace: Option<&Trace>,
) -> Docked {
    let t = Instant::now();
    let screen = VirtualScreen::from_molecules(job.receptor, job.ligand)
        .surface_options(size.surface())
        .scorer_options(workload.scorer_options())
        .seed(job.seed)
        .build();
    let mut spec = RunSpec::on_node(params, node, strategy()).exec(EngineExec::Lockstep);
    if let Some(trace) = trace {
        spec = spec.traced(trace);
    }
    let outcome = screen.run(spec);
    let ttr_s = t.elapsed().as_secs_f64();
    Docked { screen, outcome, ttr_s }
}

/// The per-dock correctness checks on a reported best pose: a fresh
/// same-kernel scorer must reproduce its score bit for bit (DESIGN §7),
/// a fused score must agree with the naive reference within 1e-9
/// relative, and the evaluation count must equal `evals_per_spot × spots`.
pub fn check_pose(
    receptor: &Molecule,
    ligand: &Molecule,
    opts: ScorerOptions,
    best: &vsmol::Conformation,
    spots: usize,
    evaluations: u64,
    params: &MetaheuristicParams,
) -> Result<(), String> {
    let expected = params.evals_per_spot() * spots as u64;
    if evaluations != expected {
        return Err(format!("evaluations {evaluations} != evals_per_spot x spots = {expected}"));
    }
    if !best.score.is_finite() || best.spot_id >= spots {
        return Err(format!("best pose invalid: score {} at spot {}", best.score, best.spot_id));
    }
    let fresh = Scorer::new(receptor, ligand, opts).score(&best.pose);
    if fresh.to_bits() != best.score.to_bits() {
        return Err(format!("re-score {fresh:e} differs from reported {:e}", best.score));
    }
    if opts.kernel == Kernel::Fused {
        let naive_opts = ScorerOptions { kernel: Kernel::Naive, ..opts };
        let naive = Scorer::new(receptor, ligand, naive_opts).score(&best.pose);
        if (naive - fresh).abs() > 1e-9 * naive.abs().max(1.0) {
            return Err(format!("naive re-score {naive:e} vs fused {fresh:e} beyond 1e-9"));
        }
    }
    Ok(())
}

/// [`check_pose`] on a public-entry-point dock, plus the ranking order.
pub fn check_docked(
    d: &Docked,
    workload: Workload,
    params: &MetaheuristicParams,
) -> Result<(), String> {
    let o = &d.outcome;
    if o.ranked.windows(2).any(|w| w[0].score > w[1].score) {
        return Err("per-spot ranking not sorted".into());
    }
    check_pose(
        d.screen.receptor(),
        d.screen.ligand(),
        workload.scorer_options(),
        &o.best,
        d.screen.spots().len(),
        o.evaluations,
        params,
    )
}
