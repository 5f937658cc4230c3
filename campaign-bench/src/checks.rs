//! Output checks every run makes before it reports a number.

use crate::workloads::Workload;
use quarc_campaign::{CampaignReport, CampaignSpec, PointOutcomeKind, RateAxis};

/// FNV-1a digests of each workload's `campaign_json` (pretty-printed), per
/// benchmark seed, recorded from the build that introduced the benchmark.
/// The document is a pure function of the spec, so any change to a
/// simulated number, the grid or the artifact format moves the digest.
const DIGESTS: &[(&str, u64, u64)] = &[
    ("fig9-curves", 0, 0xf56e7612756add93),
    ("fig9-curves", 1, 0xd4de2fbc06f03586),
    ("fig9-curves", 2, 0x7238ae94e9b49fd7),
    ("fig9-curves", 3, 0xdd41266096424087),
    ("fig9-curves", 4, 0xe8bdc76e99d49dc8),
    ("fig9-curves", 5, 0xd5011e692b6a6f07),
    ("fig9-curves", 6, 0x6b8f15c11a2c200d),
    ("fig9-curves", 7, 0x5d58d2aa17f737ba),
    ("fig9-curves", 8, 0x29e72531ffadcd8f),
    ("fig9-curves", 9, 0x386a9d03da979ba7),
    ("fig9-curves", 10, 0xc6b58e0864a2449b),
    ("fig9-curves", 11, 0xfe41cdf94e2fcbb7),
    ("fig9-curves", 12, 0x4f38812d7aeda89f),
    ("fig9-curves", 13, 0xe36906895ed70f3d),
    ("fig9-curves", 14, 0xb92a8efb301e6283),
    ("fig9-curves", 15, 0x82fc7e242ae47320),
    ("fig9-curves", 16, 0x4707c9cc2c8318d6),
    ("fig9-curves", 17, 0x64d37b86fe5b4c33),
    ("fig9-curves", 18, 0x0ee255dc938e872d),
    ("fig9-curves", 19, 0x143ca30d27b67bc2),
    ("fig9-curves", 20, 0xe4c5f6670dabf6bc),
    ("robustness-recovery", 0, 0x248a2d29b0fb4723),
    ("robustness-recovery", 1, 0x2a0e07409b7f6a87),
    ("robustness-recovery", 2, 0xe41a910613c2b08a),
    ("robustness-recovery", 3, 0x17964a316d3e2afa),
    ("robustness-recovery", 4, 0xf96841f6ad5ed5b7),
    ("robustness-recovery", 5, 0x8bc6337761edc033),
    ("robustness-recovery", 6, 0x896fc25891e1f9b7),
    ("robustness-recovery", 7, 0xf3f7ca9d72f1852d),
    ("robustness-recovery", 8, 0xce861f10e097f57c),
    ("robustness-recovery", 9, 0x2927fd0ba0f3eb6f),
    ("robustness-recovery", 10, 0xaf062fc2bd434cdb),
    ("robustness-recovery", 11, 0xab232f7d4a1ae59d),
    ("robustness-recovery", 12, 0xabe1f34a01bea010),
    ("robustness-recovery", 13, 0x0b15105bdd3b5343),
    ("robustness-recovery", 14, 0xb1ee211a9353c1e1),
    ("robustness-recovery", 15, 0xbf9a299d2dd5b759),
    ("robustness-recovery", 16, 0x22be707221871aca),
    ("robustness-recovery", 17, 0xf60eca34965fa647),
    ("robustness-recovery", 18, 0xfb671b2778146bb7),
    ("robustness-recovery", 19, 0x17d628ebe95b0f14),
    ("robustness-recovery", 20, 0x462b27e5ba92f9d1),
    ("large-n-broadcast", 0, 0x69eb22721f5fc799),
    ("large-n-broadcast", 1, 0x62d7be0c744209ed),
    ("large-n-broadcast", 2, 0x901d4f13286bd306),
    ("large-n-broadcast", 3, 0x30d0c4c74030a2ac),
    ("large-n-broadcast", 4, 0x67680025ba1c8771),
    ("large-n-broadcast", 5, 0xcfe6c37888e98c03),
    ("large-n-broadcast", 6, 0x3227698660125d22),
    ("large-n-broadcast", 7, 0x2c01a6398dc491eb),
    ("large-n-broadcast", 8, 0xb249b01e3914a867),
    ("large-n-broadcast", 9, 0x0ebbbdeb8c416bd4),
    ("large-n-broadcast", 10, 0x3296c7a50a2c9d27),
    ("large-n-broadcast", 11, 0x2fd443a6a35eeb07),
    ("large-n-broadcast", 12, 0x9ae4fbfc8e27ac43),
    ("large-n-broadcast", 13, 0x88331e67ff636801),
    ("large-n-broadcast", 14, 0x4efa03fb6cd69f6e),
    ("large-n-broadcast", 15, 0x84941449bfabd0e8),
    ("large-n-broadcast", 16, 0x4f257832fa478868),
    ("large-n-broadcast", 17, 0x00eb27a1b7448e11),
    ("large-n-broadcast", 18, 0xe27e134c44fac0b5),
    ("large-n-broadcast", 19, 0x5c669daaf458bf7f),
    ("large-n-broadcast", 20, 0x77ec480866bc3e15),
];

/// The recorded digest for `(workload, seed)`, if one was recorded.
pub fn expected_digest(workload: Workload, seed: u64) -> Option<u64> {
    DIGESTS.iter().find(|(w, s, _)| *w == workload.name() && *s == seed).map(|&(_, _, d)| d)
}

/// Structural checks that hold at every seed. Returns one message per
/// violation; an empty list means the campaign passed.
pub fn structural(workload: Workload, spec: &CampaignSpec, report: &CampaignReport) -> Vec<String> {
    let mut failures = Vec::new();
    let rates_per_curve = match &spec.rates {
        RateAxis::Explicit(rates) => rates.len(),
        RateAxis::Geometric { steps, .. } | RateAxis::AutoGeometric { steps, .. } => *steps,
        RateAxis::Saturation { .. } => 1,
    };
    let expected = spec.topologies.len()
        * spec.sizes.len()
        * spec.msg_lens.len()
        * spec.betas.len()
        * spec.buffer_depths.len()
        * spec.link_latencies.len()
        * spec.arbs.len()
        * spec.faults.len()
        * spec.recoveries.len()
        * rates_per_curve;
    if report.results.len() != expected {
        failures
            .push(format!("{} points, but the axis product is {expected}", report.results.len()));
    }
    if !report.skipped.is_empty() {
        failures.push(format!("skipped is not empty: {:?}", report.skipped));
    }
    // (lossy points with recovery on, their retransmissions)
    let mut lossy_recovery = (0, 0);
    for r in &report.results {
        let curve = &r.point.curve;
        let PointOutcomeKind::Rate { merged, .. } = &r.outcome else {
            failures.push(format!("{}: quarantined or not a rate point: {:?}", r.label, r.outcome));
            continue;
        };
        // Healthy means fault-free and below the knee: a saturated run ends
        // its drain window with traffic still queued, by definition.
        let healthy = curve.fault.is_empty() && merged.saturated_reps == 0;
        if healthy && merged.delivered_fraction.mean != 1.0 {
            failures.push(format!(
                "{}: healthy point delivered {}",
                r.label, merged.delivered_fraction.mean
            ));
        }
        if curve.fault.lossy_links > 0 && curve.recovery.enabled() {
            lossy_recovery.0 += 1;
            lossy_recovery.1 += merged.retransmissions;
            if merged.delivered_fraction.mean != 1.0 || merged.undeliverable != 0 {
                failures.push(format!(
                    "{}: lossy point with recovery delivered {} ({} undeliverable)",
                    r.label, merged.delivered_fraction.mean, merged.undeliverable
                ));
            }
        }
        if workload.forbids_saturation() && (merged.saturated || merged.saturated_reps > 0) {
            failures.push(format!(
                "{}: saturated ({} of {} replications) on a workload that must stay below the knee",
                r.label, merged.saturated_reps, merged.reps
            ));
        }
    }
    // A lightly loaded lossy point may drop only ACK flits of windows that
    // had already closed, which needs no retransmission; across the lossy
    // points with recovery on, something must have been retransmitted.
    if lossy_recovery.0 > 0 && lossy_recovery.1 == 0 {
        failures.push("no lossy point with recovery retransmitted anything".into());
    }
    failures
}
