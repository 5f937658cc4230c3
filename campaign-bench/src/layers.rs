//! Per-layer measurements for the traced run. Each one times a layer's
//! public calls from outside, on the inputs of the campaign just run, and
//! records the deterministic work counts next to the timings.

use crate::repetition::Repetition;
use crate::trace::Tracer;
use crate::workloads::Workload;
use crate::{median, Metric};
use quarc_analytical::latency::{
    quarc_saturation_rate, quarc_unicast_latency, spidergon_saturation_rate,
    spidergon_unicast_latency,
};
use quarc_campaign::artifact::{campaign_csv, campaign_json};
use quarc_campaign::{
    merge_series, replication_seed, CampaignSpec, PointOutcomeKind, PointResult, RepOutcome,
    ResultCache,
};
use quarc_core::bits::BitSlab;
use quarc_core::config::NocConfig;
use quarc_core::flit::TrafficClass;
use quarc_core::ids::NodeId;
use quarc_core::quadrant::multicast_branches;
use quarc_core::ring::Ring;
use quarc_core::topology::TopologyKind;
use quarc_core::torus::TorusTopology;
use quarc_sim::{
    build_any, run_mono_outcome, run_point, AnyNet, NocSim, Phase, PointSpec, ProbeConfig,
    RunOutcome, RunResult, RunSpec,
};
use quarc_workloads::{Synthetic, SyntheticConfig, Workload as _};
use std::hint::black_box;
use std::io;
use std::time::Instant;

/// Repeated calls per timing of the fast campaign-layer calls; the median
/// is reported.
const CALL_SAMPLES: usize = 15;

/// Phase-profiler cadence for the profiled re-run (every 16th cycle).
const PROFILE_EVERY: u32 = 16;

/// One replication re-simulated for the simulator layer.
struct Sample {
    /// Index into the campaign's results.
    point: usize,
    /// Replication index within the point's series.
    rep: u32,
    /// What the campaign simulated for it.
    spec: PointSpec,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Nearest-rank percentile of an unsorted sample.
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Measure every per-layer metric on the campaign `rep` ran. Disagreements
/// between layers (a re-simulated replication that does not match the
/// cached one, a re-merge that differs) are pushed onto `failures`.
pub fn measure(
    workload: Workload,
    rep: &Repetition,
    tracer: &mut Tracer,
    failures: &mut Vec<String>,
) -> io::Result<Vec<Metric>> {
    let mut out = Vec::new();
    let series = campaign_layer(rep, tracer, failures, &mut out)?;
    sim_layer(workload, rep, &series, tracer, failures, &mut out);
    core_layer(rep, tracer, &mut out);
    model_accuracy(rep, tracer, &mut out);
    Ok(out)
}

/// `quarc-campaign`: expansion, executor, per-point walls, replication
/// yield, cache stores, merges and artifact rendering. Returns each rate
/// point's replication series as the campaign cached it.
fn campaign_layer(
    rep: &Repetition,
    tracer: &mut Tracer,
    failures: &mut Vec<String>,
    out: &mut Vec<Metric>,
) -> io::Result<Vec<Vec<RepOutcome>>> {
    let spec = &rep.spec;
    let report = &rep.report;
    let expand_ms = tracer.span("quarc-campaign", "CampaignSpec::expand", |_| {
        let samples: Vec<f64> = (0..CALL_SAMPLES)
            .map(|_| {
                let t = Instant::now();
                black_box(spec.expand().expect("the spec expanded during set-up"));
                ms(t)
            })
            .collect();
        median(&samples)
    });
    out.push(Metric::new("campaign.expand_ms", expand_ms, "ms"));

    let busy = report.worker_stats.iter().map(|w| w.busy_fraction()).fold(f64::INFINITY, f64::min);
    let steals: u64 = report.worker_stats.iter().map(|w| w.steals).sum();
    out.push(Metric::new("campaign.executor.busy_fraction", busy, "fraction"));
    out.push(Metric::new("campaign.executor.steals", steals as f64, "count"));

    let walls: Vec<f64> =
        report.point_telemetry.iter().map(|p| p.wall.as_secs_f64() * 1e3).collect();
    out.push(Metric::new("campaign.point_wall_p50_ms", percentile(&walls, 50.0), "ms"));
    out.push(Metric::new("campaign.point_wall_p90_ms", percentile(&walls, 90.0), "ms"));

    let reported: u64 = report
        .results
        .iter()
        .map(|r| match &r.outcome {
            PointOutcomeKind::Rate { merged, .. } => u64::from(merged.reps),
            _ => 0,
        })
        .sum();
    out.push(Metric::new("campaign.reps_simulated", report.reps_simulated as f64, "count"));
    out.push(Metric::new(
        "campaign.rep_yield",
        reported as f64 / report.reps_simulated as f64,
        "ratio",
    ));

    // Every rate point's series, as the campaign left it in its cache.
    let cache = ResultCache::open(rep.cache_dir())?;
    let mut series = Vec::with_capacity(report.results.len());
    for r in &report.results {
        let s = cache
            .load_series(r.point.merge_hash(spec), &r.point.merge_key(spec))
            .unwrap_or_default();
        if s.is_empty() {
            failures.push(format!("{}: no cached replication series", r.label));
        }
        series.push(s);
    }

    let restore = ResultCache::open(rep.dir.join("restore"))?;
    let store_us = tracer.span("quarc-campaign", "ResultCache::store_series", |_| {
        let t = Instant::now();
        for (r, s) in report.results.iter().zip(&series) {
            restore.store_series(r.point.merge_hash(spec), &r.point.merge_key(spec), s)?;
        }
        Ok::<_, io::Error>(t.elapsed().as_secs_f64() * 1e6 / series.len() as f64)
    })?;
    out.push(Metric::new("campaign.cache.store_us_per_entry", store_us, "us"));

    for (r, s) in report.results.iter().zip(&series) {
        if let PointOutcomeKind::Rate { merged, .. } = &r.outcome {
            if s.len() < merged.reps as usize
                || merge_series(s, merged.reps, merged.converged) != *merged
            {
                failures.push(format!("{}: re-merging the cached series differs", r.label));
            }
        }
    }
    let merge_us = tracer.span("quarc-campaign", "merge_series", |_| {
        let samples: Vec<f64> = (0..CALL_SAMPLES)
            .map(|_| {
                let t = Instant::now();
                for (r, s) in report.results.iter().zip(&series) {
                    if let PointOutcomeKind::Rate { merged, .. } = &r.outcome {
                        black_box(merge_series(s, merged.reps, merged.converged));
                    }
                }
                t.elapsed().as_secs_f64() * 1e6 / series.len() as f64
            })
            .collect();
        median(&samples)
    });
    out.push(Metric::new("campaign.merge_us_per_point", merge_us, "us"));

    let artifact_ms = tracer.span("quarc-campaign", "campaign_json+to_pretty+campaign_csv", |_| {
        let samples: Vec<f64> = (0..CALL_SAMPLES)
            .map(|_| {
                let t = Instant::now();
                black_box(campaign_json(spec, &report.results, &report.skipped).to_pretty());
                black_box(campaign_csv(&report.results));
                ms(t)
            })
            .collect();
        median(&samples)
    });
    out.push(Metric::new("campaign.artifact_ms", artifact_ms, "ms"));

    out.push(Metric::new(
        "campaign.failed_point_fraction",
        rep.quarantined() as f64 / report.results.len() as f64,
        "fraction",
    ));
    out.push(Metric::new(
        "campaign.undelivered_fraction",
        1.0 - delivered_fraction(rep),
        "fraction",
    ));
    Ok(series)
}

/// Mean `delivered_fraction` over the campaign's rate points.
pub fn delivered_fraction(rep: &Repetition) -> f64 {
    let fractions: Vec<f64> = rep
        .report
        .results
        .iter()
        .filter_map(|r| match &r.outcome {
            PointOutcomeKind::Rate { merged, .. } => Some(merged.delivered_fraction.mean),
            _ => None,
        })
        .collect();
    fractions.iter().sum::<f64>() / fractions.len() as f64
}

/// Offered data-flit load of a point, in flits/node/cycle: each message
/// carries `M` flits to one receiver, or to all `n - 1` others when it is a
/// broadcast.
fn offered_flit_load(n: usize, msg_len: usize, beta: f64, rate: f64) -> f64 {
    rate * msg_len as f64 * ((1.0 - beta) + beta * (n - 1) as f64)
}

/// Per-point offered and accepted flit load (flits/node/cycle) of the
/// campaign's rate points, with each point's label.
pub fn point_loads(rep: &Repetition) -> Vec<(String, f64, f64)> {
    rep.report
        .results
        .iter()
        .filter_map(|r| match &r.outcome {
            PointOutcomeKind::Rate { rate, merged } => {
                let c = &r.point.curve;
                let offered = offered_flit_load(c.n, c.msg_len, c.beta, *rate);
                Some((r.label.clone(), offered, merged.throughput.mean))
            }
            _ => None,
        })
        .collect()
}

/// Sums over a set of re-simulated replications.
#[derive(Default)]
struct SimTotals {
    run_ns: f64,
    flit_hops: u64,
    cycles: u64,
}

impl SimTotals {
    fn add(&mut self, ns: f64, hops: u64, cycles: u64) {
        self.run_ns += ns;
        self.flit_hops += hops;
        self.cycles += cycles;
    }

    fn ns_per_flit_hop(&self) -> f64 {
        self.run_ns / self.flit_hops as f64
    }
}

/// The point spec replication `rep` of rate point `r` ran with (`None` for
/// a quarantined point).
fn replication_point(spec: &CampaignSpec, r: &PointResult, rep: u32) -> Option<PointSpec> {
    let PointOutcomeKind::Rate { rate, .. } = r.outcome else {
        return None;
    };
    let c = &r.point.curve;
    let seed = replication_seed(spec.base_seed, r.point.merge_hash(spec), rep);
    Some(PointSpec { noc: c.noc(), msg_len: c.msg_len, beta: c.beta, seed, rate })
}

/// Simulate one replication exactly as the campaign did, with `probe`
/// configured (the probe observes and never changes a simulated number).
fn simulate(point: &PointSpec, run: &RunSpec, probe: ProbeConfig) -> (AnyNet, RunOutcome) {
    let mut net = build_any(point.noc);
    net.probe_mut().configure(probe);
    let cfg = SyntheticConfig::paper(point.rate, point.msg_len, point.beta, point.seed);
    let mut wl = Synthetic::new(net.num_nodes(), cfg);
    let outcome = run_mono_outcome(&mut net, &mut wl, run);
    (net, outcome)
}

/// `quarc-sim` (with its fault and recovery layers) and
/// `quarc-workloads`: re-simulate a deterministic sample of the campaign's
/// replications through `build_any` + `run_mono_outcome`, once plain and
/// once with the phase profiler on, then replay their traffic generators
/// alone over the same node × cycle schedule.
fn sim_layer(
    workload: Workload,
    rep: &Repetition,
    series: &[Vec<RepOutcome>],
    tracer: &mut Tracer,
    failures: &mut Vec<String>,
    out: &mut Vec<Metric>,
) {
    let spec = &rep.spec;
    let per_point = workload.sample_reps(spec);
    let samples: Vec<Sample> = rep
        .report
        .results
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r.outcome, PointOutcomeKind::Rate { .. }))
        .flat_map(|(i, r)| {
            (0..per_point).filter_map(move |k| {
                Some(Sample { point: i, rep: k, spec: replication_point(spec, r, k)? })
            })
        })
        .collect();

    let mut all = SimTotals::default();
    let mut recovery_on = SimTotals::default();
    let mut recovery_off = SimTotals::default();
    let (mut build_ms, mut retransmissions, mut dropped, mut drain_capped) =
        (0.0, 0u64, 0u64, 0u64);
    let (mut goodput_on, mut throughput_on) = (0.0, 0.0);
    let mut nodes = Vec::with_capacity(samples.len());
    let mut hops = Vec::with_capacity(samples.len());
    tracer.span("quarc-sim", "sim.sample", |tr| {
        for s in &samples {
            let point = s.spec;
            let label = &rep.report.results[s.point].label;
            let (mut net, build) = tr.span("quarc-sim", "build_any", |_| {
                let t = Instant::now();
                (build_any(point.noc), ms(t))
            });
            build_ms += build;
            let n = net.num_nodes();
            let mut wl = Synthetic::new(
                n,
                SyntheticConfig::paper(point.rate, point.msg_len, point.beta, point.seed),
            );
            let (outcome, ns) = tr.span("quarc-sim", "run_mono_outcome", |_| {
                let t = Instant::now();
                let outcome = run_mono_outcome(&mut net, &mut wl, &spec.run);
                (outcome, t.elapsed().as_nanos() as f64)
            });
            let (h, c) = (net.flit_hops(), net.now());
            nodes.push(n);
            hops.push(h);
            let RunOutcome::Finished(result) = outcome else {
                failures.push(format!("{label} rep {}: re-simulation did not finish", s.rep));
                continue;
            };
            if !matches_cached(&result, series[s.point].get(s.rep as usize)) {
                failures.push(format!(
                    "{label} rep {}: re-simulation disagrees with the campaign's cached outcome",
                    s.rep
                ));
            }
            all.add(ns, h, c);
            if point.noc.recovery.enabled() {
                recovery_on.add(ns, h, c);
                goodput_on += result.goodput;
                throughput_on += result.throughput;
                drain_capped += u64::from(net.recovery_pending() > 0);
                // A lost data flit must be resent; a lost ACK of a fully
                // served message may close silently.
                let data_dropped =
                    result.flits_dropped - net.metrics().flits_dropped_of(TrafficClass::Ack);
                if data_dropped > 0 && result.retransmissions == 0 {
                    failures.push(format!(
                        "{label} rep {}: {data_dropped} data flits dropped, nothing retransmitted",
                        s.rep
                    ));
                }
            } else {
                recovery_off.add(ns, h, c);
            }
            retransmissions += result.retransmissions;
            dropped += result.flits_dropped;
        }
    });
    out.push(Metric::new("sim.ns_per_flit_hop", all.ns_per_flit_hop(), "ns"));
    out.push(Metric::new("sim.ns_per_cycle", all.run_ns / all.cycles as f64, "ns"));
    out.push(Metric::new("sim.flit_hops", all.flit_hops as f64, "count"));
    out.push(Metric::new("sim.cycles", all.cycles as f64, "count"));
    out.push(Metric::new("sim.build_ms", build_ms / samples.len() as f64, "ms"));
    let loads = point_loads(rep);
    let accepted_over_offered =
        loads.iter().map(|(_, offered, accepted)| accepted / offered).sum::<f64>()
            / loads.len() as f64;
    out.push(Metric::new("sim.accepted_over_offered", accepted_over_offered, "ratio"));

    // Phase shares from a second, profiled pass over replication 0 of every
    // sampled point. The probe observes and never mutates, so every count
    // must repeat.
    let mut phase_ns = [0u64; 4];
    tracer.span("quarc-sim", "sim.profiled_sample", |_| {
        for (s, &want) in samples.iter().zip(&hops).filter(|(s, _)| s.rep == 0) {
            let probe = ProbeConfig { profile_every: PROFILE_EVERY, ..ProbeConfig::off() };
            let (net, _) = simulate(&s.spec, &spec.run, probe);
            if net.flit_hops() != want {
                failures
                    .push(format!("profiling changed the flit-hop count of sample {}", s.point));
            }
            for phase in Phase::ALL {
                phase_ns[phase as usize] += net.probe().phase_nanos(phase);
            }
        }
    });
    let phase_total: u64 = phase_ns.iter().sum();
    for phase in Phase::ALL {
        let name = match phase {
            Phase::Arrivals => "sim.phase.arrivals_share",
            Phase::Polls => "sim.phase.polls_share",
            Phase::Gather => "sim.phase.gather_share",
            Phase::Commit => "sim.phase.commit_share",
        };
        out.push(Metric::new(
            name,
            phase_ns[phase as usize] as f64 / phase_total as f64,
            "fraction",
        ));
    }

    // Recovery and fault accounting (zero where the workload has none; the
    // host-overhead ratio reads 0 when there is no recovery-off/on pair).
    let host_overhead = if recovery_on.flit_hops > 0 && recovery_off.flit_hops > 0 {
        recovery_on.ns_per_flit_hop() / recovery_off.ns_per_flit_hop()
    } else {
        0.0
    };
    let control_share = if throughput_on > 0.0 { 1.0 - goodput_on / throughput_on } else { 0.0 };
    out.push(Metric::new("recovery.host_overhead", host_overhead, "ratio"));
    out.push(Metric::new("recovery.control_flit_share", control_share, "fraction"));
    out.push(Metric::new("recovery.retransmissions", retransmissions as f64, "count"));
    out.push(Metric::new("recovery.drain_capped_reps", drain_capped as f64, "count"));
    out.push(Metric::new("fault.flits_dropped", dropped as f64, "count"));

    // The traffic generator alone, over the cycles it injects in.
    let horizon = spec.run.warmup + spec.run.measure;
    let (messages, gen_ns) =
        tracer.span("quarc-workloads", "Synthetic::poll_into+next_due", |_| {
            let (mut messages, mut ns) = (0usize, 0.0);
            let mut buf = Vec::new();
            for (s, &n) in samples.iter().zip(&nodes) {
                let point = s.spec;
                let mut wl = Synthetic::new(
                    n,
                    SyntheticConfig::paper(point.rate, point.msg_len, point.beta, point.seed),
                );
                let t = Instant::now();
                for node in (0..n).map(NodeId::new) {
                    let mut due = wl.next_due(node, 0);
                    while due < horizon {
                        wl.poll_into(node, due, &mut buf);
                        messages += buf.len();
                        buf.clear();
                        let next = wl.next_due(node, due);
                        assert!(next > due, "a poll at the due cycle schedules a later arrival");
                        due = next;
                    }
                }
                ns += t.elapsed().as_nanos() as f64;
            }
            (messages, ns)
        });
    out.push(Metric::new("workloads.ns_per_message", gen_ns / messages.max(1) as f64, "ns"));
}

/// Whether a re-simulated replication reproduces the campaign's cached
/// outcome bit for bit.
fn matches_cached(result: &RunResult, cached: Option<&RepOutcome>) -> bool {
    cached.is_some_and(|c| {
        c.throughput.to_bits() == result.throughput.to_bits()
            && c.unicast_mean.to_bits() == result.unicast_mean.to_bits()
            && c.delivered_fraction.to_bits() == result.delivered_fraction.to_bits()
            && c.retransmissions == result.retransmissions
            && c.saturated == result.saturated
    })
}

/// `quarc-core`: plan a multicast to every other node from every source,
/// into a `BitSlab`, with the Quarc quadrant planner and the torus grid
/// planner at the workload's sizes.
fn core_layer(rep: &Repetition, tracer: &mut Tracer, out: &mut Vec<Metric>) {
    let spec = &rep.spec;
    let (plans, ns) = tracer.span("quarc-core", "multicast_branches", |_| {
        let (mut plans, mut ns) = (0u64, 0.0);
        for &n in &spec.sizes {
            // About 2^19 / n² passes over every source: tens of milliseconds
            // at n = 16, one pass at n = 1024.
            let passes = (1usize << 19) / (n * n);
            let passes = passes.max(1);
            let targets: Vec<NodeId> = (0..n).map(NodeId::new).collect();
            if spec.topologies.contains(&TopologyKind::Quarc) {
                let ring = Ring::new(n);
                let mut slab = BitSlab::new(ring.quarter() + 2);
                let t = Instant::now();
                for _ in 0..passes {
                    for &src in &targets {
                        for b in multicast_branches(&ring, src, &targets, &mut slab) {
                            slab.release(b.bitstring);
                        }
                        plans += 1;
                    }
                }
                ns += t.elapsed().as_nanos() as f64;
            }
            if spec.topologies.contains(&TopologyKind::Torus) {
                let topo = TorusTopology::square(n);
                let mut slab = BitSlab::new(topo.diameter() + 1);
                let mut branches = Vec::new();
                let t = Instant::now();
                for _ in 0..passes {
                    for &src in &targets {
                        topo.multicast_branches_into(
                            src,
                            targets.iter().copied(),
                            &mut slab,
                            &mut branches,
                        );
                        for b in branches.drain(..) {
                            slab.release(b.bitstring);
                        }
                        plans += 1;
                    }
                }
                ns += t.elapsed().as_nanos() as f64;
            }
        }
        (plans, ns)
    });
    out.push(Metric::new("core.multicast_plan_ns", ns / plans.max(1) as f64, "ns"));
}

/// Model accuracy: the model has no hardware reference, so this compares
/// the simulator with the repository's analytical model at low load
/// (β = 0, n = 16, M = 16, 10% and 20% of each topology's analytic
/// saturation bound, full run protocol). Deterministic for a given seed.
fn model_accuracy(rep: &Repetition, tracer: &mut Tracer, out: &mut Vec<Metric>) {
    const N: usize = 16;
    const M: usize = 16;
    type Model = fn(usize, usize, f64) -> Option<f64>;
    let cases: [(&str, NocConfig, Model, f64); 2] = [
        ("quarc", NocConfig::quarc(N), quarc_unicast_latency, quarc_saturation_rate(N, M)),
        (
            "spidergon",
            NocConfig::spidergon(N),
            spidergon_unicast_latency,
            spidergon_saturation_rate(N, M),
        ),
    ];
    tracer.span("quarc-analytical", "model.accuracy", |tr| {
        for (name, noc, model, bound) in cases {
            for pct in [10u32, 20] {
                let rate = bound * f64::from(pct) / 100.0;
                let analytic = model(N, M, rate).expect("the model is defined below saturation");
                let point =
                    PointSpec { noc, msg_len: M, beta: 0.0, seed: rep.spec.base_seed, rate };
                let sim = tr.span("quarc-sim", "run_point", |_| {
                    run_point(&point, &RunSpec::default())
                        .expect("a stock configuration is valid")
                        .result
                        .unicast_mean
                });
                let metric = match (name, pct) {
                    ("quarc", 10) => "model.quarc_abs_rel_err_10pct",
                    ("quarc", _) => "model.quarc_abs_rel_err_20pct",
                    (_, 10) => "model.spidergon_abs_rel_err_10pct",
                    _ => "model.spidergon_abs_rel_err_20pct",
                };
                out.push(Metric::new(metric, ((sim - analytic) / analytic).abs(), "fraction"));
            }
        }
    });
}
