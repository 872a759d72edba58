//! Absent means zero, end to end. fioflex never fills its lane buffers,
//! so every job write carries zeros, and the media keeps no block for
//! them: after a random-write job and a stamped verify pass, the only
//! blocks the controller's store holds are the verify region's, and
//! every block the job wrote (and verify did not) reads back as zeros.

use std::cell::RefCell;
use std::rc::Rc;

use blklayer::{Bio, BioFuture, BioOp, BlockDevice};
use cluster::{Calibration, Scenario, ScenarioKind};
use fioflex::{run_job, verify_region, JobSpec, RwMode};
use simcore::SimDuration;

/// 16 KiB stamped by `verify_region`, in 4 KiB I/Os of 512 B blocks.
const VERIFY_BLOCKS: u64 = 32;
const VERIFY_IO_BLOCKS: u32 = 8;

/// A pass-through device that logs the range of every write bio.
struct WriteLog {
    inner: Rc<dyn BlockDevice>,
    writes: Rc<RefCell<Vec<(u64, u32)>>>,
}

impl BlockDevice for WriteLog {
    fn block_size(&self) -> u32 {
        self.inner.block_size()
    }

    fn capacity_blocks(&self) -> u64 {
        self.inner.capacity_blocks()
    }

    fn queue_depth(&self) -> usize {
        self.inner.queue_depth()
    }

    fn submit(&self, bio: Bio) -> BioFuture<'_> {
        if bio.op == BioOp::Write {
            self.writes.borrow_mut().push((bio.lba, bio.blocks));
        }
        self.inner.submit(bio)
    }
}

fn check(kind: ScenarioKind) {
    let sc = Scenario::build(kind, &Calibration::paper());
    // The job roams past the verify region, so verify overwrites none of
    // its blocks.
    let job = JobSpec::new("zeros", RwMode::RandWrite)
        .iodepth(4)
        .runtime(SimDuration::from_millis(1))
        .ramp(SimDuration::from_micros(100))
        .region(VERIFY_BLOCKS, 1 << 16);
    let writes = Rc::new(RefCell::new(Vec::new()));
    let fabric = sc.fabric.clone();
    let clients = sc.clients.clone();
    let log = writes.clone();
    let reports = sc.rt.block_on(async move {
        let h = fabric.handle();
        let mut joins = Vec::new();
        for (i, (host, dev)) in clients.into_iter().enumerate() {
            let dev: Rc<dyn BlockDevice> = Rc::new(WriteLog {
                inner: dev,
                writes: log.clone(),
            });
            let fabric = fabric.clone();
            let spec = job.clone().seed(job.seed.wrapping_add(i as u64));
            joins.push(h.spawn(async move { run_job(&fabric, host, dev, &spec).await }));
        }
        let mut out = Vec::new();
        for j in joins {
            out.push(j.await);
        }
        out
    });
    for rep in &reports {
        let ios = rep.write.map_or(0, |w| w.ios);
        assert!(ios > 0 && rep.errors == 0, "{}: {rep:?}", sc.label);
    }

    let (host, dev) = sc.clients[0].clone();
    let fabric = sc.fabric.clone();
    let verify = sc.rt.block_on(async move {
        verify_region(
            &fabric,
            host,
            dev,
            0,
            VERIFY_BLOCKS,
            VERIFY_IO_BLOCKS,
            0x5EED,
        )
        .await
    });
    assert!(verify.clean(), "{}: {verify:?}", sc.label);

    let store = sc.ctrl.store();
    assert_eq!(
        store.resident_blocks() as u64,
        VERIFY_BLOCKS,
        "{}: the store holds blocks besides the verify region's",
        sc.label
    );
    let writes = writes.borrow();
    assert!(!writes.is_empty(), "{}: no job write was logged", sc.label);
    let bs = store.block_size() as usize;
    for &(lba, blocks) in writes.iter() {
        let mut back = vec![0xEE; blocks as usize * bs];
        store.read_raw(lba, &mut back);
        assert!(
            pcie::is_zero(&back),
            "{}: job-written LBA {lba} does not read back zeros",
            sc.label
        );
    }
}

#[test]
fn remote_job_writes_store_no_blocks() {
    check(ScenarioKind::OursRemote { switches: 1 });
}

#[test]
fn multihost_job_writes_store_no_blocks() {
    check(ScenarioKind::OursMultihost { clients: 4 });
}
