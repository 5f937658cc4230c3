//! Campaign benchmark for the Quarc NoC simulator.
//!
//! Runs one workload's campaign through the public `quarc_campaign` API
//! (`CampaignSpec::expand` + `run_campaign`, two workers, a fresh empty
//! cache each time), checks the outputs, and prints one JSON result line:
//!
//! ```text
//! cargo run --release --manifest-path campaign-bench/Cargo.toml -- \
//!     --workload fig9-curves --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` repeats the campaign for `--seconds` (at least twice) and
//! reports the end-to-end metrics: medians over repetitions, with host times
//! scaled to the quiet host speed (see `reference`). `--trace 1` runs the
//! campaign once untraced and once with spans around every public call,
//! then times each layer from outside and reports the per-layer metrics.
//! See `NOTES.md` for the workloads, metrics and known defects.

mod checks;
mod host;
mod layers;
mod reference;
mod repetition;
mod trace;
mod workloads;

use quarc_campaign::Json;
use repetition::Repetition;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::Workload;

/// Fewest campaign repetitions an end-to-end run takes, whatever
/// `--seconds` says.
const MIN_REPETITIONS: usize = 2;

/// Set-ups per thread in each `setup_s` batch, taken after every timed
/// campaign; `setup_s` is the median of all the batches' scaled medians.
const SETUP_SAMPLES_PER_THREAD: usize = 17;

/// Scratch space for caches, artifacts and results, relative to the
/// checkout root the benchmark runs from.
const WORK_DIR: &str = ".bench_work";

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

struct Args {
    /// One workload, or all of them in turn for `--workload all`.
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workloads = Vec::new();
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Workload::ALL.to_vec(),
            "--workload" => {
                let w = Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {} or all", names.join(", "))
                })?;
                workloads = vec![w];
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(Args { workloads, seed, seconds, trace })
}

/// What a run hands back for the result line.
struct RunSummary {
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    record: Vec<(&'static str, Json)>,
}

impl RunSummary {
    fn new() -> RunSummary {
        RunSummary {
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            record: Vec::new(),
        }
    }

    /// Check one repetition and count its points.
    fn check(&mut self, workload: Workload, seed: u64, rep: &Repetition, first: Option<u64>) {
        self.attempted += rep.report.results.len();
        self.failed += rep.quarantined();
        self.failures.extend(repetition::verify(workload, seed, rep, first));
    }
}

/// The per-workload protocol block of the provenance record.
fn protocol_json(rep: &Repetition) -> Json {
    let run = &rep.spec.run;
    Json::obj(vec![
        ("warmup", Json::UInt(run.warmup)),
        ("measure", Json::UInt(run.measure)),
        ("drain", Json::UInt(run.drain)),
        ("replication", Json::Str(rep.spec.policy().to_string())),
        ("workers", Json::UInt(rep.report.workers as u64)),
        ("points", Json::UInt(rep.report.results.len() as u64)),
        ("base_seed", Json::UInt(rep.spec.base_seed)),
        ("digest", Json::Str(format!("{:016x}", rep.digest))),
    ])
}

/// Offered and accepted flit load per point (the regime record).
fn loads_json(rep: &Repetition) -> Json {
    Json::Arr(
        layers::point_loads(rep)
            .into_iter()
            .map(|(label, offered, accepted)| {
                Json::obj(vec![
                    ("point", Json::Str(label)),
                    ("offered_flits_per_node_cycle", Json::Num(offered)),
                    ("accepted_flits_per_node_cycle", Json::Num(accepted)),
                ])
            })
            .collect(),
    )
}

/// End-to-end run: repeat the campaign until `--seconds` have passed (at
/// least `MIN_REPETITIONS` times) and report medians over the repetitions.
/// Host times are scaled to the quiet host speed by the reference readings
/// taken while each campaign ran (see `reference`).
fn run_untraced(args: &Args, workload: Workload, work: &Path) -> std::io::Result<RunSummary> {
    let mut summary = RunSummary::new();
    let (mut walls, mut cpus, mut rates, mut setups) = (vec![], vec![], vec![], vec![]);
    let (mut raw_walls, mut slowdowns, mut readings) = (vec![], vec![], vec![]);
    let mut first: Option<Repetition> = None;
    let mut peak_rss_mb = 0.0;
    let start = Instant::now();
    for k in 0.. {
        let rep = repetition::run(
            workload,
            args.seed,
            &work.join(format!("rep{k}")),
            &mut Tracer::off(),
        )?;
        summary.check(workload, args.seed, &rep, first.as_ref().map(|f| f.digest));
        let slowdown = reference::slowdown(&rep.readings);
        walls.push(rep.wall_s / slowdown);
        cpus.push(rep.cpu_s / slowdown);
        rates.push(rep.report.reps_simulated as f64 / (rep.wall_s / slowdown));
        raw_walls.push(rep.wall_s);
        slowdowns.push(slowdown);
        readings.push(Json::Arr(rep.readings.iter().copied().map(Json::Num).collect()));
        let _ = std::fs::remove_dir_all(&rep.dir);
        setups.extend(repetition::setup_samples(
            workload,
            args.seed,
            work,
            SETUP_SAMPLES_PER_THREAD,
        )?);
        if first.is_none() {
            // The process peak after one campaign, so the figure does not
            // depend on how many repetitions fit in the run.
            peak_rss_mb = host::peak_rss_mb();
            first = Some(rep);
        }
        // At least MIN_REPETITIONS, so the median is one; then stop once the
        // time is used up, or before a repetition that would overrun it by
        // more than half.
        let elapsed = start.elapsed().as_secs_f64();
        if walls.len() >= MIN_REPETITIONS
            && (elapsed >= args.seconds || elapsed + median(&raw_walls) > 1.5 * args.seconds)
        {
            break;
        }
    }
    let first = first.expect("at least one repetition ran");
    summary.metrics = vec![
        Metric::new("quiet_wall_s", median(&walls), "s"),
        Metric::new("quiet_reps_per_s", median(&rates), "1/s"),
        Metric::new("quiet_cpu_s", median(&cpus), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("delivered_fraction", layers::delivered_fraction(&first), "fraction"),
    ];
    let nums = |v: Vec<f64>| Json::Arr(v.into_iter().map(Json::Num).collect());
    summary.record = vec![
        ("protocol", protocol_json(&first)),
        ("repetitions", Json::UInt(walls.len() as u64)),
        ("wall_s_samples", nums(raw_walls)),
        ("slowdown_samples", nums(slowdowns)),
        ("reference_readings_s", Json::Arr(readings)),
        ("quiet_wall_s_samples", nums(walls)),
        ("quiet_setup_s_samples", nums(setups)),
        ("point_loads", loads_json(&first)),
    ];
    Ok(summary)
}

/// Traced run: one untraced campaign as the overhead baseline, one traced
/// campaign, then the per-layer measurements under spans.
fn run_traced(
    args: &Args,
    workload: Workload,
    work: &Path,
    run_id: String,
) -> std::io::Result<(RunSummary, Tracer)> {
    let mut summary = RunSummary::new();
    let base = repetition::run(workload, args.seed, &work.join("untraced"), &mut Tracer::off())?;
    summary.check(workload, args.seed, &base, None);
    let _ = std::fs::remove_dir_all(&base.dir);

    let mut tracer = Tracer::on(run_id);
    let (rep, layer_metrics) = tracer.span("bench", "traced-run", |tr| {
        let rep = repetition::run(workload, args.seed, &work.join("traced"), tr)?;
        summary.check(workload, args.seed, &rep, Some(base.digest));
        let metrics = layers::measure(workload, &rep, tr, &mut summary.failures)?;
        Ok::<_, std::io::Error>((rep, metrics))
    })?;
    summary.metrics = layer_metrics;
    let quiet_wall = |r: &Repetition| r.wall_s / reference::slowdown(&r.readings);
    summary.metrics.push(Metric::new(
        "trace.overhead",
        quiet_wall(&rep) / quiet_wall(&base),
        "ratio",
    ));
    let self_ms = tracer.self_ms_by_layer();
    for (layer, name) in [
        ("bench", "trace.self_ms.bench"),
        ("quarc-campaign", "trace.self_ms.quarc-campaign"),
        ("quarc-sim", "trace.self_ms.quarc-sim"),
        ("quarc-workloads", "trace.self_ms.quarc-workloads"),
        ("quarc-core", "trace.self_ms.quarc-core"),
        ("quarc-analytical", "trace.self_ms.quarc-analytical"),
    ] {
        summary.metrics.push(Metric::new(name, self_ms.get(layer).copied().unwrap_or(0.0), "ms"));
    }
    summary.record = vec![
        ("protocol", protocol_json(&rep)),
        ("untraced_wall_s", Json::Num(base.wall_s)),
        ("untraced_slowdown", Json::Num(reference::slowdown(&base.readings))),
        ("traced_wall_s", Json::Num(rep.wall_s)),
        ("traced_slowdown", Json::Num(reference::slowdown(&rep.readings))),
        ("point_loads", loads_json(&rep)),
    ];
    let _ = std::fs::remove_dir_all(&rep.dir);
    Ok((summary, tracer))
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let value = Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                ]);
                (m.name.to_string(), value)
            })
            .collect(),
    )
}

/// Run one workload, write its record file, and return its result.
fn run_workload(args: &Args, workload: Workload) -> Option<(bool, Json)> {
    let run_id = format!(
        "{}-seed{}-trace{}-pid{}",
        workload.name(),
        args.seed,
        u8::from(args.trace),
        std::process::id()
    );
    let work: PathBuf = Path::new(WORK_DIR).join(&run_id);
    let outcome = if args.trace {
        run_traced(args, workload, &work, run_id.clone()).map(|(s, t)| (s, Some(t)))
    } else {
        run_untraced(args, workload, &work).map(|s| (s, None))
    };
    let _ = std::fs::remove_dir_all(&work);
    let (summary, tracer) = match outcome {
        Ok(done) => done,
        Err(e) => {
            eprintln!("campaign-bench: {}: {e}", workload.name());
            return None;
        }
    };
    for failure in &summary.failures {
        eprintln!("campaign-bench: {}: CHECK FAILED: {failure}", workload.name());
    }
    let correct = summary.failures.is_empty() && summary.failed == 0;
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(summary.attempted as u64)),
        ("failed", Json::UInt(summary.failed as u64)),
        ("metrics", metrics_json(&summary.metrics)),
    ]);

    // The full record — provenance, protocol, per-point loads, failures and
    // (traced runs) every span — goes to a results file at exit.
    let mut record = vec![
        ("run_id", Json::Str(run_id.clone())),
        ("workload", Json::Str(workload.name().into())),
        ("seed", Json::UInt(args.seed)),
        ("provenance", host::provenance()),
    ];
    record.extend(summary.record);
    record.push((
        "failures",
        Json::Arr(summary.failures.iter().map(|f| Json::Str(f.clone())).collect()),
    ));
    record.push(("result", result.clone()));
    if let Some(tracer) = &tracer {
        record.push(("trace", tracer.to_json()));
    }
    let results_dir = Path::new(WORK_DIR).join("results");
    let path = results_dir.join(format!("{run_id}.json"));
    if let Err(e) = std::fs::create_dir_all(&results_dir)
        .and_then(|()| std::fs::write(&path, Json::obj(record).to_pretty()))
    {
        eprintln!("campaign-bench: could not write {}: {e}", path.display());
    }
    println!("{}: record {}", workload.name(), path.display());
    Some((correct, result))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("campaign-bench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("provenance: {}", host::provenance().to_compact());
    let mut results = Vec::new();
    for &workload in &args.workloads {
        let Some(done) = run_workload(&args, workload) else {
            return ExitCode::FAILURE;
        };
        results.push((workload, done));
    }
    let correct = results.iter().all(|(_, (ok, _))| *ok);
    let last = if let [(_, (_, result))] = results.as_slice() {
        result.clone()
    } else {
        // `--workload all`: one line per workload, then every metric under
        // `<workload>.<metric>` in a combined result.
        let field = |r: &Json, k: &str| r.get(k).and_then(Json::as_u64).unwrap_or(0);
        let mut metrics = Vec::new();
        for (workload, (_, result)) in &results {
            println!("{}: {}", workload.name(), result.to_compact());
            if let Some(Json::Obj(pairs)) = result.get("metrics") {
                for (name, value) in pairs {
                    metrics.push((format!("{}.{name}", workload.name()), value.clone()));
                }
            }
        }
        Json::obj(vec![
            ("correct", Json::Bool(correct)),
            (
                "attempted",
                Json::UInt(results.iter().map(|(_, (_, r))| field(r, "attempted")).sum()),
            ),
            ("failed", Json::UInt(results.iter().map(|(_, (_, r))| field(r, "failed")).sum())),
            ("metrics", Json::Obj(metrics)),
        ])
    };
    println!("{}", last.to_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
