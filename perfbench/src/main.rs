//! Placement benchmark for the tvp 3D placer.
//!
//! ```text
//! tvp-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates the workload's Bookshelf designs from `--seed` in a child
//! process, loads and preflights each like `tvp place` does, then places it
//! through `Placer::place_with_options` and checks every result from the
//! outside. `--trace 0` times untraced runs for `--seconds` and reports the
//! end-to-end metrics; `--trace 1` makes one untraced and two traced runs
//! (at the workload's thread count and at the other of 1 and 2) and reports
//! the per-layer metrics, writing the spans to `.bench_out/`. The last line
//! of standard output is one JSON object; see README.md.

mod check;
mod trace;

use check::{check_result, RunFingerprint};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use trace::{json_num, SpanRecorder, Tally};
use tvp_bookshelf::synth::{self, SynthConfig};
use tvp_bookshelf::{Design, DesignBuilderOptions};
use tvp_core::{
    PlaceOptions, PlacementResult, Placer, PlacerConfig, PlacerObserver, ValidateOptions,
};
use tvp_netlist::CellId;

/// One benchmark workload: a synthetic design size and a placer config.
struct Workload {
    name: &'static str,
    cells: usize,
    alpha_temp: f64,
    partition_starts: usize,
    threads: usize,
    /// Designs generated per timed run; their quality metrics are
    /// averaged, which narrows the spread between seeds.
    designs: u64,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "wlilv-100k",
        cells: 100_000,
        alpha_temp: 0.0,
        partition_starts: 1,
        threads: 2,
        designs: 1,
    },
    Workload {
        name: "thermal-20k",
        cells: 20_000,
        alpha_temp: 1.0e-4,
        partition_starts: 1,
        threads: 2,
        designs: 2,
    },
    Workload {
        name: "multistart-30k-serial",
        cells: 30_000,
        alpha_temp: 0.0,
        partition_starts: 4,
        threads: 1,
        designs: 2,
    },
];

/// `tvp place` defaults for everything a workload does not set.
const LAYERS: usize = 4;
const ALPHA_ILV: f64 = 1.0e-5;
const PLACER_SEED: u64 = 1;
const METERS_PER_UNIT: f64 = 1.0e-6;
/// `tvp synth` default: about 5 µm² of cell area per cell.
const AREA_PER_CELL_M2: f64 = 5.0e-12;

/// Load + preflight repetitions per process; set-up time is their median.
const SETUP_REPS: usize = 11;
/// Timed runs per design, at least: the determinism check needs a repeat.
const MIN_RUNS_PER_DESIGN: usize = 2;
/// Everything the benchmark writes goes under this directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Invocation {
    Measure(Args),
    /// The generator child: write the design with synth seed `seed` into
    /// `dir` and exit.
    Generate {
        workload: &'static Workload,
        seed: u64,
        dir: PathBuf,
    },
}

fn parse_args() -> Result<Invocation, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut generate_into) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
                });
            }
            "--generate-into" => generate_into = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let seed = seed.ok_or("missing --seed")?;
    Ok(match generate_into {
        Some(dir) => Invocation::Generate {
            workload,
            seed,
            dir,
        },
        None => Invocation::Measure(Args {
            workload,
            seed,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        }),
    })
}

/// What `tvp synth NAME --cells N --seed S` writes.
fn generate(w: &Workload, seed: u64, dir: &Path) -> Result<(), String> {
    let config =
        SynthConfig::named(w.name, w.cells, w.cells as f64 * AREA_PER_CELL_M2).with_seed(seed);
    let netlist = synth::generate(&config).map_err(|e| format!("synth: {e}"))?;
    Design::from_netlist(w.name, netlist)
        .save(dir, builder_options())
        .map_err(|e| format!("writing {}: {e}", dir.display()))
}

fn builder_options() -> DesignBuilderOptions {
    DesignBuilderOptions {
        meters_per_unit: METERS_PER_UNIT,
    }
}

/// Runs the generator in a child process, so this process's peak memory
/// covers only what `tvp place` does: load, preflight and place.
fn generate_in_child(w: &Workload, synth_seed: u64, dir: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &synth_seed.to_string()])
        .arg("--generate-into")
        .arg(dir)
        .status()
        .map_err(|e| format!("spawning the generator: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("generator exited with {status}"))
    }
}

/// A loaded, preflighted design, as `tvp place` holds it before placing.
struct Loaded {
    design: Design,
    fixed: Vec<(CellId, f64, f64, u16)>,
    warnings: usize,
}

/// One `Design::load` + `validate`, recorded as two spans.
fn setup_once(w: &Workload, aux: &Path, rec: &mut SpanRecorder) -> Result<Loaded, String> {
    let t0 = rec.now();
    let design = Design::load(aux, builder_options())
        .map_err(|e| format!("loading {}: {e}", aux.display()))?;
    let t1 = rec.now();
    let fixed: Vec<(CellId, f64, f64, u16)> = design
        .netlist
        .iter_cells()
        .filter(|(_, c)| !c.is_movable())
        .filter_map(|(id, _)| {
            design
                .positions
                .get(id.index())
                .map(|&(x, y, l)| (id, x, y, l as u16))
        })
        .collect();
    let report = tvp_core::validate(
        &design.netlist,
        &ValidateOptions {
            fixed_positions: &fixed,
            rows: (!design.rows.is_empty()).then_some(design.rows.as_slice()),
            num_layers: LAYERS as u16,
            alpha_temp: w.alpha_temp,
        },
    );
    let t2 = rec.now();
    if !report.is_placeable() {
        return Err(format!("preflight rejected {}", aux.display()));
    }
    let warnings = report.warnings().count();
    rec.push(None, "bookshelf.load".to_string(), t0, t1);
    let id = rec.push(None, "validate.preflight".to_string(), t1, t2);
    rec.spans[id].attrs.push(("warnings", warnings as f64));
    Ok(Loaded {
        design,
        fixed,
        warnings,
    })
}

/// Generates design `index` of this run in a child process, then loads
/// and preflights it [`SETUP_REPS`] times. Every repetition must find the
/// same warnings; each one counts as an attempted operation. Returns the
/// design directory, its size in MB and the last loaded copy.
fn prepare(
    args: &Args,
    index: u64,
    outcome: &mut Outcome,
    rec: &mut SpanRecorder,
) -> Result<(PathBuf, f64, Loaded), String> {
    let w = args.workload;
    let synth_seed = args.seed * w.designs + index;
    let dir = Path::new(OUT_DIR).join(format!("{}-synth{synth_seed}", w.name));
    // A stale copy from an interrupted run must not be mistaken for input.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    generate_in_child(w, synth_seed, &dir)?;
    let input_mb = dir_megabytes(&dir)?;
    let aux = dir.join(format!("{}.aux", w.name));

    let mut loaded: Option<Loaded> = None;
    for rep in 0..SETUP_REPS {
        // Drop the previous copy first: peak memory should hold one design.
        let previous = loaded.take().map(|l| l.warnings);
        let next = setup_once(w, &aux, rec)?;
        outcome.record(
            &format!("set-up {rep} of design {synth_seed}"),
            match previous {
                Some(p) if p != next.warnings => Err(format!(
                    "{} preflight warnings, {p} in the previous repetition",
                    next.warnings
                )),
                _ => Ok(()),
            },
        );
        loaded = Some(next);
    }
    Ok((dir, input_mb, loaded.ok_or("no set-up ran")?))
}

/// One placement run, checked from the outside; `Err` is a failed run.
/// Returns the run's wall time alongside.
fn checked_run(
    w: &Workload,
    threads: usize,
    loaded: &Loaded,
    observer: Option<&mut dyn PlacerObserver>,
) -> (f64, Result<(PlacementResult, RunFingerprint), String>) {
    let config = PlacerConfig::new(LAYERS)
        .with_alpha_ilv(ALPHA_ILV)
        .with_alpha_temp(w.alpha_temp)
        .with_seed(PLACER_SEED)
        .with_partition_starts(w.partition_starts)
        .with_threads(threads);
    let options = PlaceOptions {
        observer,
        ..PlaceOptions::default()
    };
    let t = Instant::now();
    let result =
        Placer::new(config).place_with_options(&loaded.design.netlist, &loaded.fixed, options);
    let secs = t.elapsed().as_secs_f64();
    let checked = result.map_err(|e| e.to_string()).and_then(|r| {
        let fp = check_result(&loaded.design.netlist, &r)?;
        Ok((r, fp))
    });
    (secs, checked)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Peak resident set size of this process in MB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Counts of attempted and failed operations; each failure's reason goes
/// to standard error.
#[derive(Default)]
struct Outcome {
    attempted: usize,
    failed: usize,
}

impl Outcome {
    fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = result {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}: {reason}");
        }
    }
}

/// Metrics in output order: `(name, value, unit)`.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// `--trace 0`: untraced runs on each of the workload's designs, for an
/// equal share of `seconds` each; end-to-end metrics.
fn timed(args: &Args, epoch: Instant, outcome: &mut Outcome) -> Result<Metrics, String> {
    let w = args.workload;
    let share = Duration::from_secs_f64(args.seconds / w.designs as f64);
    let mut rec = SpanRecorder::new(epoch);
    let mut times = Vec::new();
    let mut quality = Vec::new();
    for index in 0..w.designs {
        let (dir, _, loaded) = prepare(args, index, outcome, &mut rec)?;
        let start = Instant::now();
        let mut first: Option<RunFingerprint> = None;
        let mut design_quality = None;
        for n in 1.. {
            if n > MIN_RUNS_PER_DESIGN && start.elapsed() >= share {
                break;
            }
            let (secs, checked) = checked_run(w, w.threads, &loaded, None);
            times.push(secs);
            let run = format!("run {n} of design {index} ({} threads)", w.threads);
            eprintln!("perfbench: {run}: {secs:.4} s");
            outcome.record(
                &run,
                checked.and_then(|(r, fp)| {
                    let reference = *first.get_or_insert(fp);
                    if fp != reference {
                        return Err(format!(
                            "not deterministic: {fp:?} vs first run {reference:?}"
                        ));
                    }
                    design_quality = Some(r.metrics);
                    Ok(())
                }),
            );
        }
        quality.extend(design_quality);
        drop(loaded);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let q = |f: fn(&tvp_core::PlacementMetrics) -> f64| {
        mean(&quality.iter().map(f).collect::<Vec<_>>())
    };
    let setup_s: Vec<f64> = rec
        .durations("bookshelf.load")
        .zip(rec.durations("validate.preflight"))
        .map(|(load, preflight)| load + preflight)
        .collect();
    Ok(vec![
        ("place_s", median(&times), "s"),
        ("setup_s", median(&setup_s), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
        ("objective", q(|m| m.objective), "eq3"),
        ("wirelength_m", q(|m| m.wirelength), "m"),
        ("ilv_count", q(|m| m.ilv_count), "count"),
        ("avg_temp_c", q(|m| m.avg_temperature), "C"),
        ("max_temp_c", q(|m| m.max_temperature), "C"),
    ])
}

/// Stage and thermal walls of one traced run, from its spans.
struct Walls {
    place: f64,
    global: f64,
    coarse: f64,
    detail: f64,
    thermal: f64,
    shift: f64,
}

impl Walls {
    fn of(rec: &SpanRecorder) -> Self {
        let sum = |prefix: &str| -> f64 { rec.durations(prefix).sum() };
        Self {
            place: sum("run"),
            global: sum("stage:global"),
            coarse: sum("stage:coarse"),
            detail: sum("stage:detail"),
            thermal: sum("thermal:"),
            shift: sum("shift_pass"),
        }
    }

    /// Run time not covered by a stage or thermal-solve span.
    fn other(&self) -> f64 {
        self.place - self.global - self.coarse - self.detail - self.thermal
    }
}

/// The counters that must repeat exactly across thread counts.
fn counts(t: &Tally, fp: &RunFingerprint) -> [usize; 6] {
    [
        t.shift_passes,
        t.cells_shifted,
        t.moves_improved,
        t.cg_iterations,
        t.refine_passes,
        fp.partition_retries,
    ]
}

fn degradations_of(result: &PlacementResult, kind: &str) -> f64 {
    result
        .degradations
        .iter()
        .filter(|d| d.kind() == kind)
        .count() as f64
}

/// `--trace 1`: on the run's first design, one untraced run, then traced
/// runs at the workload's thread count and at the other of 1 and 2.
/// Per-layer metrics; the spans of every traced run go to `traces`.
fn traced(
    args: &Args,
    epoch: Instant,
    outcome: &mut Outcome,
    traces: &mut Vec<(String, SpanRecorder)>,
) -> Result<Metrics, String> {
    let w = args.workload;
    let mut setup_rec = SpanRecorder::new(epoch);
    let (dir, input_mb, loaded) = prepare(args, 0, outcome, &mut setup_rec)?;
    let load_s = median(&setup_rec.durations("bookshelf.load").collect::<Vec<_>>());
    let preflight_s = median(
        &setup_rec
            .durations("validate.preflight")
            .collect::<Vec<_>>(),
    );
    traces.push((format!("{}/seed{}/setup", w.name, args.seed), setup_rec));
    let other_threads = if w.threads == 1 { 2 } else { 1 };
    let (untraced_s, untraced) = checked_run(w, w.threads, &loaded, None);
    let untraced_fp = untraced.as_ref().map(|(_, fp)| *fp).ok();
    outcome.record("untraced run", untraced.map(|_| ()));

    let mut runs = Vec::new();
    for threads in [w.threads, other_threads] {
        let mut rec = SpanRecorder::new(epoch);
        rec.begin_run(threads);
        let (_, checked) = checked_run(w, threads, &loaded, Some(&mut rec));
        rec.end_run();
        let name = format!("{}/seed{}/threads{threads}", w.name, args.seed);
        let walls = Walls::of(&rec);
        let ok = checked.and_then(|(r, fp)| {
            if walls.other() < 0.0 {
                return Err(format!("spans exceed the run: other {} s", walls.other()));
            }
            if untraced_fp.is_some_and(|u| u != fp) {
                return Err(format!(
                    "not deterministic: {fp:?} vs untraced run {untraced_fp:?}"
                ));
            }
            Ok((r, fp))
        });
        match ok {
            Ok((r, fp)) => {
                outcome.record(&name, Ok(()));
                runs.push((r, fp, rec.tally, walls));
            }
            Err(e) => outcome.record(&name, Err(e)),
        }
        traces.push((name, rec));
    }
    let warnings = loaded.warnings;
    drop(loaded);
    let _ = std::fs::remove_dir_all(&dir);
    let [(main, main_fp, tally, walls), (_, other_fp, other_tally, other_walls)] =
        <[_; 2]>::try_from(runs).map_err(|_| "a traced run failed".to_string())?;
    outcome.record(
        "determinism across thread counts",
        if main_fp.placement_hash != other_fp.placement_hash {
            Err("placement hash differs between 1 and 2 threads".to_string())
        } else if counts(&tally, &main_fp) != counts(&other_tally, &other_fp) {
            Err(format!(
                "work counters differ between thread counts: {:?} vs {:?}",
                counts(&tally, &main_fp),
                counts(&other_tally, &other_fp)
            ))
        } else {
            Ok(())
        },
    );

    // Wall at 1 thread over wall at 2 threads.
    let speedup = |main_s: f64, other_s: f64| {
        if w.threads == 1 {
            main_s / other_s
        } else {
            other_s / main_s
        }
    };
    let share = |s: f64| s / walls.place;
    Ok(vec![
        ("bookshelf.load_s", load_s, "s"),
        ("bookshelf.input_mb", input_mb, "MB"),
        ("validate.preflight_s", preflight_s, "s"),
        ("validate.warnings", warnings as f64, "count"),
        ("global.wall_s", walls.global, "s"),
        ("global.share", share(walls.global), "frac"),
        (
            "global.partition_retries",
            main_fp.partition_retries as f64,
            "count",
        ),
        (
            "global.speedup_2t",
            speedup(walls.global, other_walls.global),
            "x",
        ),
        ("coarse.wall_s", walls.coarse, "s"),
        ("coarse.share", share(walls.coarse), "frac"),
        ("coarse.shift_phases", tally.shift_phases as f64, "count"),
        ("coarse.shift_passes", tally.shift_passes as f64, "count"),
        ("coarse.shift_s", walls.shift, "s"),
        ("coarse.cells_shifted", tally.cells_shifted as f64, "count"),
        ("coarse.moves_s", walls.coarse - walls.shift, "s"),
        ("coarse.move_passes", tally.move_passes as f64, "count"),
        (
            "coarse.moves_improved",
            tally.moves_improved as f64,
            "count",
        ),
        ("coarse.final_max_density", tally.final_max_density, "ratio"),
        (
            "coarse.speedup_2t",
            speedup(walls.coarse, other_walls.coarse),
            "x",
        ),
        ("detail.wall_s", walls.detail, "s"),
        ("detail.share", share(walls.detail), "frac"),
        ("detail.rows_used", tally.rows_used as f64, "count"),
        ("detail.refine_passes", tally.refine_passes as f64, "count"),
        ("detail.refine_gain", tally.refine_gain, "eq3"),
        (
            "detail.max_displacement_m",
            main.legalize.max_displacement,
            "m",
        ),
        (
            "detail.speedup_2t",
            speedup(walls.detail, other_walls.detail),
            "x",
        ),
        ("thermal.solves", tally.thermal_solves as f64, "count"),
        ("thermal.cg_iterations", tally.cg_iterations as f64, "count"),
        ("thermal.solve_s", walls.thermal, "s"),
        (
            "thermal.degraded",
            degradations_of(&main, "thermal-degraded"),
            "count",
        ),
        (
            "degraded.partition-retried",
            degradations_of(&main, "partition-retried"),
            "count",
        ),
        (
            "degraded.checkpoint-quarantined",
            degradations_of(&main, "checkpoint-quarantined"),
            "count",
        ),
        ("pipeline.other_s", walls.other(), "s"),
        (
            "trace.overhead_frac",
            walls.place / untraced_s - 1.0,
            "frac",
        ),
    ])
}

fn dir_megabytes(dir: &Path) -> Result<f64, String> {
    let mut bytes = 0u64;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        bytes += meta.len();
    }
    Ok(bytes as f64 / 1e6)
}

fn write_spans(path: &Path, traces: &[(String, SpanRecorder)]) -> Result<(), String> {
    let mut out = String::new();
    for (name, rec) in traces {
        for span in &rec.spans {
            out.push_str(&span.to_json(name));
            out.push('\n');
        }
    }
    std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn run() -> Result<(), String> {
    let args = match parse_args()? {
        Invocation::Measure(args) => args,
        Invocation::Generate {
            workload,
            seed,
            dir,
        } => return generate(workload, seed, &dir),
    };
    let epoch = Instant::now();
    let w = args.workload;
    let mut outcome = Outcome::default();
    let metrics = if args.trace {
        let mut traces = Vec::new();
        let metrics = traced(&args, epoch, &mut outcome, &mut traces);
        let spans_path =
            Path::new(OUT_DIR).join(format!("{}-seed{}.spans.jsonl", w.name, args.seed));
        write_spans(&spans_path, &traces)?;
        println!("spans: {}", spans_path.display());
        metrics?
    } else {
        timed(&args, epoch, &mut outcome)?
    };

    let failed_frac = outcome.failed as f64 / outcome.attempted as f64;
    println!(
        "workload {} seed {} ({} cells, {} threads, {} layers)",
        w.name, args.seed, w.cells, w.threads, LAYERS
    );
    for (name, value, unit) in &metrics {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    println!("{:<34} {failed_frac:>16.6} frac", "failed_frac");
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*value)
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
