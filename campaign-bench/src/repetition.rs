//! One timed campaign: set-up, `run_campaign`, artifacts, output checks.

use crate::checks;
use crate::host;
use crate::reference::{self, Reference, Sampler};
use crate::trace::Tracer;
use crate::workloads::Workload;
use quarc_campaign::hash::fnv1a64;
use quarc_campaign::{run_campaign, CampaignOptions, CampaignReport, CampaignSpec, ResultCache};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Worker threads every campaign runs with (the benchmark host's `nproc`).
const WORKERS: usize = 2;

/// What one campaign repetition measured and produced.
pub struct Repetition {
    /// First point dispatched until the artifacts are on disk, seconds.
    pub wall_s: f64,
    /// User + system CPU of the process over `wall_s`, seconds.
    pub cpu_s: f64,
    /// Reference-kernel readings taken while the campaign ran, seconds.
    pub readings: Vec<f64>,
    /// The campaign as run.
    pub spec: CampaignSpec,
    /// What `run_campaign` returned.
    pub report: CampaignReport,
    /// FNV-1a of the written `<name>.json` artifact.
    pub digest: u64,
    /// Directory holding this repetition's cache and artifacts.
    pub dir: PathBuf,
}

impl Repetition {
    /// The result cache the campaign filled.
    pub fn cache_dir(&self) -> PathBuf {
        self.dir.join("cache")
    }

    /// Points the campaign quarantined (failed, stalled or timed out).
    pub fn quarantined(&self) -> usize {
        self.report.results.iter().filter(|r| r.outcome.is_quarantined()).count()
    }
}

/// The timed set-up step: build the spec, expand it (which evaluates the
/// analytic saturation bound for `auto:` rate axes) and open an empty cache.
fn setup(
    workload: Workload,
    seed: u64,
    cache_dir: &Path,
    tracer: &mut Tracer,
) -> io::Result<(CampaignSpec, f64)> {
    let _ = std::fs::remove_dir_all(cache_dir);
    let t = Instant::now();
    let spec = tracer.span("bench", "setup", |tr| -> io::Result<CampaignSpec> {
        let spec = tr.span("quarc-campaign", "spec.build", |_| workload.spec(seed));
        tr.span("quarc-campaign", "CampaignSpec::expand", |_| spec.expand())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        tr.span("quarc-campaign", "ResultCache::open", |_| ResultCache::open(cache_dir))?;
        Ok(spec)
    })?;
    Ok((spec, t.elapsed().as_secs_f64()))
}

/// `setup_s` samples without running anything: on each of `WORKERS`
/// threads at once, a reference reading and then `per_thread` set-ups in
/// the thread's own directory under `dir`; each thread returns its median
/// set-up time scaled to the quiet host speed by its reading. Running them
/// side by side makes every CPU the campaign uses contribute equally.
pub fn setup_samples(
    workload: Workload,
    seed: u64,
    dir: &Path,
    per_thread: usize,
) -> io::Result<Vec<f64>> {
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..WORKERS)
            .map(|t| {
                let cache_dir = dir.join(format!("setup{t}")).join("cache");
                s.spawn(move || {
                    let reading = Reference::new().read();
                    let samples = (0..per_thread)
                        .map(|_| Ok(setup(workload, seed, &cache_dir, &mut Tracer::off())?.1))
                        .collect::<io::Result<Vec<f64>>>()?;
                    Ok(crate::median(&samples) / reference::slowdown(&[reading]))
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().expect("a set-up thread panicked")).collect()
    })
}

/// Run one repetition in the fresh directory `dir`.
pub fn run(
    workload: Workload,
    seed: u64,
    dir: &Path,
    tracer: &mut Tracer,
) -> io::Result<Repetition> {
    let _ = std::fs::remove_dir_all(dir);
    let cache_dir = dir.join("cache");
    let out_dir = dir.join("out");
    let (spec, _) = setup(workload, seed, &cache_dir, tracer)?;
    let opts = CampaignOptions {
        workers: WORKERS,
        cache_dir: Some(cache_dir),
        out_dir: Some(out_dir.clone()),
        quiet: true,
        ..Default::default()
    };
    let sampler = Sampler::start();
    let cpu0 = host::cpu_seconds();
    let t = Instant::now();
    let report = tracer.span("quarc-campaign", "run_campaign", |_| run_campaign(&spec, &opts));
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu0;
    let readings = sampler.finish();
    let report = report.map_err(|e| io::Error::other(e.to_string()))?;
    let artifact = std::fs::read(out_dir.join(format!("{}.json", spec.name)))?;
    Ok(Repetition {
        wall_s,
        cpu_s,
        readings,
        digest: fnv1a64(&artifact),
        spec,
        report,
        dir: dir.to_path_buf(),
    })
}

/// Every output check on one repetition: the structural checks, the
/// recorded digest where one exists for this seed, and agreement with the
/// run's first repetition (`first_digest`).
pub fn verify(
    workload: Workload,
    seed: u64,
    rep: &Repetition,
    first_digest: Option<u64>,
) -> Vec<String> {
    let mut failures = checks::structural(workload, &rep.spec, &rep.report);
    if let Some(want) = checks::expected_digest(workload, seed) {
        if rep.digest != want {
            failures.push(format!(
                "campaign JSON digest {:016x} != recorded {want:016x} for seed {seed}",
                rep.digest
            ));
        }
    }
    if let Some(first) = first_digest {
        if rep.digest != first {
            failures.push(format!(
                "campaign JSON digest {:016x} differs from this run's first repetition {first:016x}",
                rep.digest
            ));
        }
    }
    failures
}
