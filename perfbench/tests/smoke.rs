//! Tiny-runtime checks of the benchmark itself: every declared metric
//! is emitted, the fault plan fires, runs are deterministic, the
//! NVMe-oF testbed mirror matches `Scenario::build`, and seed 0
//! reproduces the `fig10_latency` bench.

use std::collections::BTreeSet;

use cluster::{Calibration, Scenario, ScenarioKind};
use fioflex::{JobSpec, RwMode};
use perfbench::bed::Bed;
use perfbench::point::run_point;
use perfbench::workload::fig10_points;
use perfbench::{run, Outcome, RunConfig, Scale, Workload};
use simcore::SimDuration;

/// Metric names of one section of `BENCHMARK.json`.
fn declared(section: &str) -> BTreeSet<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits next to the benchmark directory");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section} missing"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn tiny(workload: Workload, seed: u64, trace: bool) -> Outcome {
    run(&RunConfig {
        workload,
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::tiny(),
    })
}

#[test]
fn every_declared_metric_is_emitted_for_every_workload() {
    for w in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let out = tiny(w, 3, trace);
            assert!(out.correct(), "{}: {:?}", w.name(), out.check_failures);
            let names: BTreeSet<String> = out.metrics.iter().map(|m| m.name.to_string()).collect();
            assert_eq!(names, declared(section), "{} {section}", w.name());
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{} {}: {}", w.name(), m.name, m.value);
                if !trace {
                    assert!(
                        m.value > 0.0,
                        "{} {}: end-to-end metrics are never 0",
                        w.name(),
                        m.name
                    );
                }
            }
            assert!(out.attempted > 0);
        }
    }
}

#[test]
fn fault_plan_fires_on_every_trial() {
    let out = tiny(Workload::Share8CqeDrop, 5, true);
    let dropped = out.metric("pcie.fault.dropped").expect("per-layer metric");
    let panics = out.metric("sim.panics").expect("per-layer metric");
    let trials = Scale::tiny().share8_trials as f64;
    assert!(
        dropped >= trials - panics,
        "{dropped} drops over {trials} trials"
    );
    assert!(
        out.metric("dnvme.client.recoveries").unwrap() > 0.0,
        "a dropped CQE must trip a deadline"
    );
    assert_eq!(
        tiny(Workload::Fig10Qd1, 5, true).metric("pcie.fault.dropped"),
        Some(0.0)
    );
}

#[test]
fn same_seed_gives_equal_trace_hashes() {
    for w in Workload::ALL {
        let a = tiny(w, 7, false);
        let b = tiny(w, 7, false);
        assert_eq!(a.trace_hashes, b.trace_hashes, "{}", w.name());
        let sim = |o: &Outcome| -> Vec<f64> {
            o.metrics
                .iter()
                .filter(|m| m.name.starts_with("sim_"))
                .map(|m| m.value)
                .collect()
        };
        assert_eq!(sim(&a), sim(&b), "{}", w.name());
    }
    let other = tiny(Workload::Share31Qd4, 8, false);
    assert_ne!(
        other.trace_hashes,
        tiny(Workload::Share31Qd4, 7, false).trace_hashes
    );
}

#[test]
fn nvmf_bed_runs_like_the_scenario_it_mirrors() {
    let calib = Calibration::paper();
    let job = JobSpec::fig10(RwMode::RandWrite, SimDuration::from_millis(2));
    let sc = Scenario::build(ScenarioKind::NvmfRemote, &calib);
    let want = sc.run(&job).write.expect("write side").lat;
    let bed = Bed::build(&ScenarioKind::NvmfRemote, &calib);
    let (host, dev) = bed.clients()[0].clone();
    let fabric = bed.fabric().clone();
    let spec = job.clone();
    let got = bed
        .rt()
        .block_on(async move { fioflex::run_job(&fabric, host, dev, &spec).await })
        .write
        .expect("write side")
        .lat;
    assert_eq!(got, want);
    assert_eq!(bed.rt().trace_hash(), sc.rt.trace_hash());
}

#[test]
fn seed_zero_reproduces_fig10_latency() {
    // `fig10_latency` at its default runtime (150 ms per point).
    let points = fig10_points(&Calibration::paper(), SimDuration::from_millis(150), 0);
    let round: Vec<_> = points.iter().map(|s| run_point(s, false)).collect();
    let p50 = |label: &str| {
        let p = round.iter().find(|p| p.label == label).expect("point");
        let side = p.reports[0].read.or(p.reports[0].write).expect("one side");
        side.lat.p50
    };
    assert_eq!(p50("ours/remote/randread"), 17_140);
    assert_eq!(p50("ours/remote/randwrite"), 18_450);
    let (deltas, _) = perfbench::metrics::fig10_deltas(&round);
    let rounded: Vec<f64> = deltas.iter().map(|d| (d * 100.0).round() / 100.0).collect();
    assert_eq!(rounded, [7.60, 7.35, 0.91, 1.81]);
}
