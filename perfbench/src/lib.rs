//! # perfbench — the repository's benchmark
//!
//! Drives the simulator from outside, through public APIs only, and
//! reports two clocks: *simulated* time (the model's claim: latency,
//! throughput, recovery) and *host* time (what the Rust code costs per
//! simulated I/O). See `NOTES.md` for why each workload exists.
//!
//! A run repeats rounds of one workload until its time is up. Every
//! round runs the same seeded simulation, so `sim_*` metrics come from
//! round 0 and every later round must reproduce its trace hashes;
//! host-time metrics are medians over rounds. In a traced run, rounds
//! alternate untraced and traced so the tracing overhead is measured
//! against the same interval.

pub mod bed;
pub mod host;
pub mod metrics;
pub mod point;
pub mod probe;
pub mod trace;
pub mod workload;

use std::time::Instant;

use point::{run_point, PointRun};
pub use workload::{Scale, Workload};

/// One run's settings.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// A reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks; empty means correct.
    pub check_failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// `(point label, simcore trace hash)` of round 0.
    pub trace_hashes: Vec<(String, u64)>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
    /// Chrome trace-event JSON of the first traced round.
    pub trace_json: Option<String>,
    pub rounds: usize,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Run one workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let specs = cfg.workload.points(&cfg.scale, cfg.seed);
    let start = Instant::now();
    let mut rounds: Vec<Vec<PointRun>> = Vec::new();
    let mut peak_rss_mb = 0.0;
    // Round 0 is untraced; a traced run needs at least one of each kind.
    // After that, a round starts only if it is expected to end in time.
    let min_rounds = if cfg.trace { 2 } else { 1 };
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let n = rounds.len();
        if n >= min_rounds && elapsed + elapsed / n as f64 > cfg.seconds {
            break;
        }
        let traced = cfg.trace && rounds.len() % 2 == 1;
        rounds.push(specs.iter().map(|s| run_point(s, traced)).collect());
        if rounds.len() == 1 {
            // A dropped testbed stays resident (see NOTES.md), so later
            // rounds only add to the peak; round 0 is the workload's.
            peak_rss_mb = host::peak_rss_mb();
        }
    }
    // Every workload reports every end-to-end metric, so the share
    // workloads take the model's Fig. 10 accuracy at their seed from a
    // probe outside the timed rounds. It uses the paper
    // calibration: with deadlines armed, a 150 ms QD1 point costs several
    // times more host time (see NOTES.md).
    let probe = (cfg.workload != Workload::Fig10Qd1 && !cfg.trace).then(|| {
        let calib = Workload::Fig10Qd1.calibration(cfg.seed);
        workload::fig10_points(&calib, cfg.scale.fig10_runtime, cfg.seed)
            .iter()
            .map(|s| run_point(s, false))
            .collect()
    });
    metrics::assemble(cfg, rounds, probe, peak_rss_mb)
}

/// The final stdout line.
pub fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// JSON has no NaN or infinity; a metric that cannot be computed is a
/// bug, so it shows as `null` rather than as a plausible number.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}
