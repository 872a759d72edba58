//! Teardown: dropping a `Scenario` frees its testbed. The fabric refers
//! to the devices attached to it weakly, so once the scenario (and with
//! it the runtime and every task) is gone, nothing keeps the controller,
//! its media or the client block devices alive. A leak here keeps a whole
//! testbed, its written blocks and its host memory resident for the rest
//! of the process.

use std::rc::{Rc, Weak};

use blklayer::BlockDevice;
use cluster::{Calibration, Scenario, ScenarioKind};
use fioflex::{JobSpec, RwMode};
use simcore::SimDuration;

const KINDS: [ScenarioKind; 5] = [
    ScenarioKind::LinuxLocal,
    ScenarioKind::NvmfRemote,
    ScenarioKind::OursLocal,
    ScenarioKind::OursRemote { switches: 1 },
    ScenarioKind::OursMultihost { clients: 4 },
];

/// Build every scenario kind under `calib`, run a short QD4 mixed job on
/// every client, drop the scenario, and return what survived it.
fn survivors(calib: &Calibration) -> Vec<String> {
    let job = JobSpec::new("teardown", RwMode::RandRw { read_pct: 70 })
        .iodepth(4)
        .runtime(SimDuration::from_millis(1))
        .ramp(SimDuration::from_micros(100));
    let mut leaked = Vec::new();
    for kind in KINDS {
        let sc = Scenario::build(kind, calib);
        for rep in sc.run_all(&job) {
            let ios = rep.read.map_or(0, |r| r.ios) + rep.write.map_or(0, |w| w.ios);
            assert!(ios > 0 && rep.errors == 0, "{}: {rep:?}", sc.label);
        }
        let label = sc.label.clone();
        let ctrl = Rc::downgrade(&sc.ctrl);
        let store = Rc::downgrade(sc.ctrl.store());
        let devices: Vec<Weak<dyn BlockDevice>> =
            sc.clients.iter().map(|(_, d)| Rc::downgrade(d)).collect();
        drop(sc);
        if ctrl.strong_count() != 0 {
            leaked.push(format!("{label}: controller"));
        }
        if store.strong_count() != 0 {
            leaked.push(format!("{label}: block store"));
        }
        for (i, dev) in devices.iter().enumerate() {
            if dev.strong_count() != 0 {
                leaked.push(format!("{label}: client {i} device"));
            }
        }
    }
    leaked
}

#[test]
fn dropped_scenario_frees_its_testbed() {
    let leaked = survivors(&Calibration::paper());
    assert!(leaked.is_empty(), "outlived their scenario: {leaked:?}");
}

#[test]
fn dropped_fault_recovery_scenario_frees_its_testbed() {
    let leaked = survivors(&Calibration::fault_recovery());
    assert!(leaked.is_empty(), "outlived their scenario: {leaked:?}");
}
