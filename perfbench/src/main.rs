//! End-to-end docking benchmark.
//!
//! ```text
//! perfbench --workload <dock_cold|library_fused|redock_grid> --seed <n>
//!           --seconds <s> --trace <0|1> [--size full|smoke]
//! ```
//!
//! `--trace 0` runs a closed loop of docks through the public entry points
//! for `--seconds` and prints the end-to-end metrics. `--trace 1` runs the
//! traced layered composition (`layered`) on a fixed set of docks and
//! prints the per-layer metrics. Every input is synthesized from `--seed`;
//! every dock is checked. A human-readable report goes to stdout first; the
//! last stdout line is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! Every workload docks on the simulated Hertz node under the
//! heterogeneity-aware split with the lockstep engine: two runtime workers
//! (the two GPUs), with the caller blocked while they score.

mod e2e;
mod layered;
mod stats;
mod workload;

use layered::{DockLayers, GridUse, Traced};
use std::fmt::Write as _;
use workload::{Size, Workload, WORKERS};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut size = Size::parse("full")?;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            "--size" => size = Size::parse(&value)?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        size,
    })
}

/// Metrics in print order: `(name, value, unit)`.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <dock_cold|library_fused|redock_grid> --seed <n> \
                 --seconds <s> --trace <0|1> [--size full|smoke]"
            );
            std::process::exit(2);
        }
    };
    println!(
        "workload {} seed {} size {} trace {} | node Hertz, HeterogeneousSplit, lockstep, {} workers | {} CPUs available",
        args.workload.name(),
        args.seed,
        if args.size.scale == 1.0 { "full" } else { "smoke" },
        u8::from(args.trace),
        WORKERS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let (mut metrics, attempted, failed, failures, mut problems) = if args.trace {
        let t = layered::run(args.workload, &args.size, args.seed);
        let (metrics, problems) = traced_metrics(&t);
        (metrics, t.attempted, t.failed, t.failures, problems)
    } else {
        let r = e2e::run(args.workload, &args.size, args.seed, args.seconds);
        let (metrics, problems) = e2e_metrics(&r);
        (metrics, r.attempted, r.failed, r.failures, problems)
    };
    for f in &failures {
        println!("FAILED {f}");
    }
    println!(
        "failed_frac {} ({failed} of {attempted} docks)",
        failed as f64 / attempted.max(1) as f64
    );
    for m in metrics.iter_mut() {
        if !m.1.is_finite() {
            problems.push(format!("metric {} is not finite", m.0));
            m.1 = 0.0;
        }
    }
    for p in &problems {
        println!("PROBLEM {p}");
    }
    let correct = failed == 0 && failures.is_empty() && problems.is_empty() && attempted > 0;
    println!("{}", result_json(correct, attempted, failed, &metrics));
}

fn e2e_metrics(r: &e2e::E2e) -> (Metrics, Vec<String>) {
    let mut problems = Vec::new();
    if r.ttr_s.is_empty() {
        problems.push("no dock completed".into());
        return (Vec::new(), problems);
    }
    let busy: f64 = r.ttr_s.iter().sum();
    let (tail, rank, pct) = stats::tail(&r.ttr_s);
    let rss = stats::peak_rss_mb().unwrap_or_else(|e| {
        problems.push(e);
        f64::NAN
    });
    let m: Metrics = vec![
        ("setup_s", stats::median(&r.setup_s), "s"),
        ("ttr_p50_s", stats::median(&r.ttr_s), "s"),
        ("ttr_tail_s", tail, "s"),
        ("ligands_per_s", r.ligands as f64 / busy, "1/s"),
        ("evals_per_s", r.evaluations as f64 / busy, "1/s"),
        ("peak_rss_mb", rss, "MiB"),
    ];
    println!(
        "{} requests ({} ligands) in {busy:.3} s inside the entry points; {} set-up repetitions",
        r.ttr_s.len(),
        r.ligands,
        r.setup_s.len()
    );
    println!(
        "ttr_tail_s is rank {rank} of {} (p{pct:.1}){}",
        r.ttr_s.len(),
        if r.ttr_s.len() > 10 { "" } else { ": fewer than 11 samples, upper median" }
    );
    if r.ttr_s.len() <= 24 {
        let samples: Vec<String> = r.ttr_s.iter().map(|t| format!("{t:.3}")).collect();
        println!("time to result per request, s: {}", samples.join(" "));
    }
    for (name, v, unit) in &m {
        println!("  {name:<16} {v:>14.6} {unit}");
    }
    (m, problems)
}

/// Self-time table row: per-layer totals of a group of docks.
fn sum_layers<'a>(docks: impl Iterator<Item = &'a DockLayers>) -> (usize, DockLayers) {
    let mut n = 0;
    let mut t = DockLayers::default();
    for d in docks {
        n += 1;
        t.synth_s += d.synth_s;
        t.spots_s += d.spots_s;
        t.scorer_new_s += d.scorer_new_s;
        t.evaluator_new_s += d.evaluator_new_s;
        t.host_s += d.host_s;
        t.evaluate_s += d.evaluate_s;
        t.teardown_s += d.teardown_s;
        t.wall_s += d.wall_s;
        t.kernel_cpu_s += d.kernel_cpu_s;
        t.grid_nodes += d.grid_nodes;
        t.grid_bytes += d.grid_bytes;
        t.work_units += d.work_units;
        t.batches += d.batches;
        t.evaluations += d.evaluations;
        t.generations += d.generations;
        t.makespan += d.makespan;
    }
    (n, t)
}

/// The traced run's self-time table, one row per grid use, with the
/// evaluate time split into kernel (serial re-score / workers) and the
/// derived dispatch remainder.
fn print_layer_table(docks: &[DockLayers]) {
    println!(
        "self time per dock, ms ({WORKERS} workers; kernel = serial re-score / workers, dispatch = evaluate - kernel, derived):"
    );
    println!(
        "  {:<6} {:>5} {:>9} {:>9} {:>11} {:>11} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}  dominant",
        "grid",
        "docks",
        "synth",
        "spots",
        "scorer_new",
        "eval_new",
        "host",
        "kernel",
        "dispatch",
        "teardown",
        "wall",
        "coverage"
    );
    for (label, use_) in [("build", GridUse::Built), ("hit", GridUse::Hit), ("none", GridUse::None)]
    {
        let (n, t) = sum_layers(docks.iter().filter(|d| d.grid == use_));
        if n == 0 {
            continue;
        }
        let ms = |s: f64| 1e3 * s / n as f64;
        let kernel = t.kernel_cpu_s / WORKERS as f64;
        let dispatch = t.evaluate_s - kernel;
        let layers = [
            ("vsmol.synth", t.synth_s),
            ("vsmol.spots", t.spots_s),
            ("vsscore.scorer_new", t.scorer_new_s),
            ("vsched.evaluator_new", t.evaluator_new_s),
            ("metaheur.host", t.host_s),
            ("vsscore.kernel", kernel),
            ("vsched.dispatch", dispatch),
            ("vsched.teardown", t.teardown_s),
        ];
        let (dom, dom_s) =
            layers.iter().copied().fold(("", f64::MIN), |a, b| if b.1 > a.1 { b } else { a });
        println!(
            "  {label:<6} {n:>5} {:>9.2} {:>9.2} {:>11.2} {:>11.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>10.4}  {dom} {:.1}%",
            ms(t.synth_s),
            ms(t.spots_s),
            ms(t.scorer_new_s),
            ms(t.evaluator_new_s),
            ms(t.host_s),
            ms(kernel),
            ms(dispatch),
            ms(t.teardown_s),
            ms(t.wall_s),
            t.self_s() / t.wall_s,
            100.0 * dom_s / t.wall_s,
        );
    }
}

/// Minimum share of the traced wall time the layer self times must cover.
const MIN_COVERAGE: f64 = 0.95;

fn traced_metrics(t: &Traced) -> (Metrics, Vec<String>) {
    let mut problems = Vec::new();
    if t.docks.is_empty() {
        problems.push("no traced dock completed".into());
        return (Vec::new(), problems);
    }
    print_layer_table(&t.docks);
    let (n, s) = sum_layers(t.docks.iter());
    let count = |u: GridUse| t.docks.iter().filter(|d| d.grid == u).count() as f64;
    let coverage = s.self_s() / s.wall_s;
    if coverage < MIN_COVERAGE {
        problems.push(format!(
            "layer self times cover {coverage:.4} of traced wall, below {MIN_COVERAGE}"
        ));
    }
    let (diff, base) = t.overhead;
    let workers = WORKERS as f64;
    let m: Metrics = vec![
        ("vsmol.synth_s", s.synth_s, "s"),
        ("vsmol.spots_s", s.spots_s, "s"),
        ("vsscore.scorer_new_s", s.scorer_new_s, "s"),
        ("vsscore.grid_builds", count(GridUse::Built), "count"),
        ("vsscore.grid_cache_hits", count(GridUse::Hit), "count"),
        ("vsscore.grid_nodes", s.grid_nodes as f64, "count"),
        ("vsscore.grid_mb", s.grid_bytes as f64 / (1024.0 * 1024.0), "MiB"),
        ("vsscore.kernel_cpu_s", s.kernel_cpu_s, "s"),
        ("vsscore.work_units", s.work_units as f64, "count"),
        ("vsscore.units_per_cpu_s", s.work_units as f64 / s.kernel_cpu_s, "1/s"),
        ("vsched.evaluator_new_s", s.evaluator_new_s, "s"),
        ("vsched.evaluate_s", s.evaluate_s, "s"),
        ("vsched.worker_efficiency", s.kernel_cpu_s / (workers * s.evaluate_s), "ratio"),
        ("vsched.dispatch_s", s.evaluate_s - s.kernel_cpu_s / workers, "s"),
        ("vsched.teardown_s", s.teardown_s, "s"),
        ("metaheur.host_s", s.host_s, "s"),
        ("metaheur.batches", s.batches as f64, "count"),
        ("metaheur.batch_mean", s.evaluations as f64 / s.batches as f64, "count"),
        ("metaheur.evaluations", s.evaluations as f64, "count"),
        ("metaheur.generations", s.generations as f64, "count"),
        ("gpusim.virtual_makespan_s", s.makespan, "s"),
        ("vstrace.overhead_frac", diff / base, "ratio"),
        ("bench.self_time_coverage", coverage, "ratio"),
        ("bench.traced_wall_s", s.wall_s, "s"),
        ("bench.traced_docks", n as f64, "count"),
    ];
    println!("tracing overhead: median paired (on - off) {diff:.6} s over base {base:.6} s");
    println!("per-layer totals over {n} traced docks (vsched.dispatch_s is derived):");
    for (name, v, unit) in &m {
        println!("  {name:<26} {v:>16.6} {unit}");
    }
    (m, problems)
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    s.push_str("}}");
    s
}
