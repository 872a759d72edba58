//! The three workloads and the points each one runs.
//!
//! Every workload is closed loop, like the paper's fio jobs: each lane
//! sends its next bio only when the previous one completed.

use cluster::{Calibration, ScenarioKind};
use fioflex::{JobSpec, RwMode};
use pcie::FaultPlan;
use simcore::SimDuration;

use crate::point::PointSpec;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Paper Fig. 10: 4 KiB random read and write at QD1 on the four
    /// stacks, one client.
    Fig10Qd1,
    /// §VI: 31 hosts share the controller, 4 KiB randrw 70/30 at QD4
    /// each — media-bound.
    Share31Qd4,
    /// 8 hosts at QD4 with the recovery ladder armed; each trial drops
    /// one CQE at a seed-derived ordinal.
    Share8CqeDrop,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Fig10Qd1,
        Workload::Share31Qd4,
        Workload::Share8CqeDrop,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig10Qd1 => "fig10-qd1",
            Workload::Share31Qd4 => "share31-qd4",
            Workload::Share8CqeDrop => "share8-cqe-drop",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How much simulated work one round holds.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Per Fig. 10 point; 150 ms is `fig10_latency`'s runtime.
    pub fig10_runtime: SimDuration,
    pub share31_runtime: SimDuration,
    pub share8_trials: usize,
}

impl Scale {
    pub fn bench() -> Scale {
        Scale {
            fig10_runtime: SimDuration::from_millis(150),
            share31_runtime: SimDuration::from_millis(40),
            share8_trials: 128,
        }
    }

    /// For the smoke test: every code path, a fraction of the work.
    pub fn tiny() -> Scale {
        Scale {
            fig10_runtime: SimDuration::from_millis(2),
            share31_runtime: SimDuration::from_millis(1),
            share8_trials: 3,
        }
    }
}

/// Seed 0 reproduces `fig10_latency`: fioflex's default job seed and
/// the paper calibration's media seed.
fn job_seed(seed: u64) -> u64 {
    0x5EED_u64.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn calib_seed(seed: u64) -> u64 {
    Calibration::paper()
        .seed
        .wrapping_add(seed.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// CQE ordinals of the share8 trials are drawn from `[0, DROP_SPAN)`:
/// at 8×QD4 (about 600 k CQEs/s) every drop lands inside the job.
const DROP_SPAN: u64 = 1024;

/// Simulated runtime of one share8 trial. Short trials, many of them:
/// one lost CQE either recovers or sets off a reset storm, and only a
/// mix of many trials gives a figure that holds from seed to seed.
const SHARE8_RUNTIME: SimDuration = SimDuration::from_millis(2);

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn drop_ordinal(seed: u64, trial: usize) -> u64 {
    splitmix(splitmix(seed) ^ trial as u64) % DROP_SPAN
}

const FIG10_KINDS: [ScenarioKind; 4] = [
    ScenarioKind::LinuxLocal,
    ScenarioKind::NvmfRemote,
    ScenarioKind::OursLocal,
    ScenarioKind::OursRemote { switches: 1 },
];

/// The eight Fig. 10 points, in `fig10_latency`'s order.
pub fn fig10_points(calib: &Calibration, runtime: SimDuration, seed: u64) -> Vec<PointSpec> {
    let mut points = Vec::new();
    for rw in [RwMode::RandRead, RwMode::RandWrite] {
        for kind in FIG10_KINDS {
            points.push(PointSpec {
                label: format!("{}/{}", kind.label(), rw.label()),
                kind,
                calib: calib.clone(),
                job: JobSpec::fig10(rw, runtime)
                    .ramp(SimDuration::from_micros(500))
                    .seed(job_seed(seed)),
                all_clients: false,
                faults: None,
            });
        }
    }
    points
}

impl Workload {
    /// The workload's calibration under `seed`.
    pub fn calibration(self, seed: u64) -> Calibration {
        match self {
            Workload::Share8CqeDrop => Calibration::fault_recovery(),
            _ => Calibration::paper(),
        }
        .with_seed(calib_seed(seed))
    }

    /// The points of one round.
    pub fn points(self, scale: &Scale, seed: u64) -> Vec<PointSpec> {
        let calib = self.calibration(seed);
        let mixed = RwMode::RandRw { read_pct: 70 };
        match self {
            Workload::Fig10Qd1 => fig10_points(&calib, scale.fig10_runtime, seed),
            Workload::Share31Qd4 => vec![PointSpec {
                label: "ours/31hosts/randrw70".into(),
                kind: ScenarioKind::OursMultihost { clients: 31 },
                calib,
                job: JobSpec::new("share31", mixed)
                    .iodepth(4)
                    .runtime(scale.share31_runtime)
                    .seed(job_seed(seed)),
                all_clients: true,
                faults: None,
            }],
            Workload::Share8CqeDrop => (0..scale.share8_trials)
                .map(|t| {
                    let nth = drop_ordinal(seed, t);
                    PointSpec {
                        label: format!("ours/8hosts/randrw70/trial{t}/drop-cqe{nth}"),
                        kind: ScenarioKind::OursMultihost { clients: 8 },
                        calib: calib.clone(),
                        job: JobSpec::new("share8", mixed)
                            .iodepth(4)
                            .runtime(SHARE8_RUNTIME)
                            .ramp(SimDuration::from_micros(200))
                            .seed(job_seed(seed).wrapping_add(t as u64)),
                        all_clients: true,
                        faults: Some(FaultPlan::drop_nth_cqe(nth)),
                    }
                })
                .collect(),
        }
    }
}
