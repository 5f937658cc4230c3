//! The benchmark's three campaign workloads and their run protocols.

use quarc_bench::presets;
use quarc_campaign::{CampaignSpec, RateAxis};
use quarc_core::topology::TopologyKind;
use quarc_sim::RunSpec;

/// One campaign the benchmark drives through `run_campaign`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 9 grid under convergence control.
    Fig9Curves,
    /// The `robustness` preset: faults crossed with recovery off/on.
    RobustnessRecovery,
    /// Quarc and torus at n = 1024 under broadcast-dominated load.
    LargeNBroadcast,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] =
        [Workload::Fig9Curves, Workload::RobustnessRecovery, Workload::LargeNBroadcast];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig9Curves => "fig9-curves",
            Workload::RobustnessRecovery => "robustness-recovery",
            Workload::LargeNBroadcast => "large-n-broadcast",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The campaign for benchmark seed `seed`. Seed 0 is the preset's own
    /// base seed; any other seed offsets it, giving different workload
    /// streams over the same grid.
    pub fn spec(self, seed: u64) -> CampaignSpec {
        let mut spec = match self {
            Workload::Fig9Curves => {
                let mut spec = presets::fig9();
                spec.run = RunSpec::quick();
                spec
            }
            // The preset as committed, full protocol: 2 fixed replications.
            Workload::RobustnessRecovery => presets::robustness(),
            Workload::LargeNBroadcast => {
                let mut spec = presets::scale();
                spec.topologies = vec![TopologyKind::Quarc, TopologyKind::Torus];
                spec.sizes = vec![1024];
                spec.rates = RateAxis::Explicit(vec![0.0005, 0.001]);
                spec.run = RunSpec::quick();
                spec
            }
        };
        spec.name = self.name().to_string();
        spec.base_seed = spec.base_seed.wrapping_add(seed);
        spec
    }

    /// Whether the run must fail if any point saturates: the large-n
    /// workload is meant to measure broadcast traffic below the knee.
    pub fn forbids_saturation(self) -> bool {
        self == Workload::LargeNBroadcast
    }

    /// How many replications per point (indices `0..k`) the traced run
    /// re-simulates for the simulator layer. Robustness re-runs all of them
    /// so its recovery and fault counts are the campaign's own.
    pub fn sample_reps(self, spec: &CampaignSpec) -> u32 {
        match self {
            Workload::RobustnessRecovery => spec.replications,
            Workload::Fig9Curves | Workload::LargeNBroadcast => 1,
        }
    }
}
