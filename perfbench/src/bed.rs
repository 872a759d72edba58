//! Testbeds and their named counter snapshots.
//!
//! Every testbed is a [`cluster::Scenario`] except the NVMe-oF baseline:
//! `Scenario` keeps its target and initiator private, so [`NvmfBed`]
//! assembles the same testbed from the same public calls, in the same
//! order, to reach `NvmfTarget::stats`. The smoke test checks that both
//! builds run bit-identically.

use std::collections::BTreeMap;
use std::rc::Rc;

use blklayer::BlockDevice;
use cluster::{Calibration, Scenario, ScenarioKind};
use nvme::driver::attach_local_driver;
use nvme::{BlockStore, NvmeController};
use nvmeof::{NvmfInitiator, NvmfTarget};
use pcie::{Fabric, HostId};
use rdma::IbNet;
use simcore::SimRuntime;

use crate::probe::Recorder;

/// The NVMe-oF testbed of Fig. 9a (remote), with its target in reach.
pub struct NvmfBed {
    rt: SimRuntime,
    fabric: Fabric,
    ctrl: Rc<NvmeController>,
    host: HostId,
    target: Rc<NvmfTarget>,
    init: Rc<NvmfInitiator>,
}

impl NvmfBed {
    /// Mirrors `Scenario::build(ScenarioKind::NvmfRemote, calib)` call
    /// for call.
    pub fn build(calib: &Calibration) -> NvmfBed {
        let rt = SimRuntime::new();
        let fabric = Fabric::new(rt.handle(), calib.fabric.clone());
        let store = Rc::new(BlockStore::new(
            rt.handle(),
            calib.media.clone(),
            calib.block_size,
            calib.capacity_blocks,
            calib.seed,
        ));
        let initiator_host = fabric.add_host(1 << 30);
        let target_host = fabric.add_host(1 << 30);
        let net = IbNet::new(&fabric, calib.ib.clone());
        let nic_i = net.add_nic(initiator_host);
        let nic_t = net.add_nic(target_host);
        let ctrl = NvmeController::attach(
            &fabric,
            target_host,
            fabric.rc_node(target_host),
            store,
            calib.nvme.clone(),
        );
        let (target, init) = rt.block_on({
            let fabric = fabric.clone();
            let ctrl = ctrl.clone();
            let spdk = calib.spdk_driver.clone();
            let tcfg = calib.target.clone();
            let icfg = calib.initiator.clone();
            async move {
                let drv = attach_local_driver(&fabric, target_host, &ctrl, spdk)
                    .await
                    .expect("SPDK-analog driver attaches to a fresh controller");
                let target = NvmfTarget::new(&fabric, &net, nic_t, target_host, drv, tcfg);
                let init =
                    NvmfInitiator::connect(&fabric, &net, nic_i, initiator_host, &target, icfg);
                (target, init)
            }
        });
        NvmfBed {
            rt,
            fabric,
            ctrl,
            host: initiator_host,
            target,
            init,
        }
    }
}

/// A built testbed.
pub enum Bed {
    Scenario(Scenario),
    Nvmf(NvmfBed),
}

impl Bed {
    pub fn build(kind: &ScenarioKind, calib: &Calibration) -> Bed {
        match kind {
            ScenarioKind::NvmfRemote => Bed::Nvmf(NvmfBed::build(calib)),
            k => Bed::Scenario(Scenario::build(k.clone(), calib)),
        }
    }

    pub fn rt(&self) -> &SimRuntime {
        match self {
            Bed::Scenario(sc) => &sc.rt,
            Bed::Nvmf(b) => &b.rt,
        }
    }

    pub fn fabric(&self) -> &Fabric {
        match self {
            Bed::Scenario(sc) => &sc.fabric,
            Bed::Nvmf(b) => &b.fabric,
        }
    }

    pub fn ctrl(&self) -> &Rc<NvmeController> {
        match self {
            Bed::Scenario(sc) => &sc.ctrl,
            Bed::Nvmf(b) => &b.ctrl,
        }
    }

    pub fn clients(&self) -> Vec<(HostId, Rc<dyn BlockDevice>)> {
        match self {
            Bed::Scenario(sc) => sc.clients.clone(),
            Bed::Nvmf(b) => vec![(b.host, b.init.clone() as Rc<dyn BlockDevice>)],
        }
    }

    /// Every counter the per-layer metrics are made from, under stable
    /// names.
    pub fn counters(&self, rec: &Recorder) -> Counters {
        let mut c = Counters::default();
        let rt = self.rt();
        c.set("simcore.steps", rt.steps());
        c.set("simcore.now_ns", rt.now().as_nanos());
        c.set("bio.attempted", rec.attempted());
        c.set("bio.finished", rec.finished());
        c.set("bio.ok", rec.ok());
        c.set("bio.submit_host_ns", rec.submit_host_ns());
        let db = match self {
            Bed::Scenario(sc) => sc.doorbell_totals(),
            Bed::Nvmf(b) => b.target.driver().engine_totals(),
        };
        c.set("nvme.engine.sqes_submitted", db.sqes_submitted);
        c.set("nvme.engine.sq_doorbells", db.sq_doorbells);
        c.set("nvme.engine.cq_doorbells", db.cq_doorbells);
        c.set("nvme.engine.timeout_retries", db.timeout_retries);
        c.set("nvme.engine.timeouts", db.timeouts);
        let ctrl = self.ctrl().stats();
        c.set("nvme.ctrl.commands_fetched", ctrl.commands_fetched);
        c.set("nvme.ctrl.completions_posted", ctrl.completions_posted);
        c.set("nvme.ctrl.admin_commands", ctrl.admin_commands);
        c.set("nvme.ctrl.errors_returned", ctrl.errors_returned);
        c.set("nvme.ctrl.resets", ctrl.resets);
        let faults = self.fabric().fault_stats();
        c.set("pcie.fault.dropped", faults.dropped);
        c.set("pcie.fault.refused", faults.refused);
        match self {
            Bed::Scenario(sc) => {
                for d in sc.client_drivers() {
                    let s = d.stats();
                    c.add("dnvme.client.bounce_bytes_copied", s.bounce_bytes_copied);
                    c.add("dnvme.client.recoveries", s.recoveries);
                    c.add("dnvme.client.aborts_requested", s.aborts_requested);
                    c.add("dnvme.client.qpairs_recreated", s.qpairs_recreated);
                    c.add("dnvme.client.resets_requested", s.resets_requested);
                }
                if let Some(m) = sc.manager() {
                    let s = m.stats();
                    c.set("dnvme.manager.controller_resets", s.controller_resets);
                    c.set("dnvme.manager.qpairs_reclaimed", s.qpairs_reclaimed);
                    c.set("dnvme.manager.clients_evicted", s.clients_evicted);
                    c.set("dnvme.manager.requests_rejected", s.requests_rejected);
                }
            }
            Bed::Nvmf(b) => {
                let t = b.target.stats();
                c.set("nvmeof.target.capsules", t.capsules);
                c.set("nvmeof.target.rdma_reads", t.rdma_reads);
                c.set("nvmeof.target.rdma_writes", t.rdma_writes);
                c.set("nvmeof.target.icd_writes", t.icd_writes);
                c.set("nvmeof.initiator.icd_writes", b.init.stats().icd_writes);
            }
        }
        c
    }
}

/// Named counter values; a name a testbed lacks reads as 0.
#[derive(Clone, Debug, Default)]
pub struct Counters(BTreeMap<&'static str, u64>);

impl Counters {
    fn set(&mut self, name: &'static str, v: u64) {
        self.0.insert(name, v);
    }

    fn add(&mut self, name: &'static str, v: u64) {
        *self.0.entry(name).or_insert(0) += v;
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// `self - earlier`, name by name.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(k, v)| (*k, v.saturating_sub(earlier.get(k))))
                .collect(),
        )
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.0.iter().map(|(k, v)| (*k, *v))
    }
}
