//! One measured point: build a testbed, run a fioflex job through the
//! probes, verify the data, and snapshot counters at each phase
//! boundary. A panic inside the simulation ends the point and is
//! reported as that point's failures; it never aborts the run.

use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use blklayer::BlockDevice;
use cluster::{Calibration, ScenarioKind};
use fioflex::{run_job, verify_region, JobReport, JobSpec, VerifyReport};
use pcie::{FaultPlan, HostId};
use simcore::{Handle, LatencyRecorder, ReactorId};

use crate::bed::{Bed, Counters};
use crate::host::thread_cpu_ns;
use crate::probe::{Recorder, Span};

/// Blocks per client that the verify pass stamps and reads back
/// (16 KiB at 512 B blocks), in 4 KiB I/Os.
const VERIFY_BLOCKS: u64 = 32;
const VERIFY_IO_BLOCKS: u32 = 8;

/// What to run on one testbed.
#[derive(Clone)]
pub struct PointSpec {
    pub label: String,
    pub kind: ScenarioKind,
    pub calib: Calibration,
    pub job: JobSpec,
    /// Run the job on every client (`Scenario::run_all`'s seeding) or on
    /// client 0 only (`Scenario::run`).
    pub all_clients: bool,
    pub faults: Option<FaultPlan>,
}

/// A phase boundary: the phase that just ended and the counters there.
pub struct Boundary {
    pub phase: &'static str,
    /// On-CPU host time of the phase.
    pub host_ns: u64,
    pub counters: Counters,
}

/// Everything one point produced.
pub struct PointRun {
    pub label: String,
    /// On-CPU seconds of the build (set-up) phase.
    pub build_s: f64,
    /// On-CPU ns of the job (ramp + measure) phase.
    pub job_cpu_ns: u64,
    /// Bios that finished during the job phase.
    pub job_ios: u64,
    /// Bios attempted and succeeded over the whole point, verify included.
    pub attempted: u64,
    pub ok: u64,
    /// Verify read-backs whose data differed.
    pub mismatches: u64,
    pub panicked: Option<String>,
    pub reports: Vec<JobReport>,
    /// Per client `[read, write]` latencies inside the measure window.
    pub lat: Vec<[LatencyRecorder; 2]>,
    pub live_io_queues: usize,
    pub trace_hash: u64,
    pub ramp_ns: (u64, u64),
    pub measure_ns: (u64, u64),
    pub boundaries: Vec<Boundary>,
    pub spans: Vec<Span>,
}

impl PointRun {
    /// Counter deltas over the job phase.
    pub fn job_counters(&self) -> Counters {
        let at = |p: &str| {
            self.boundaries
                .iter()
                .find(|b| b.phase == p)
                .map(|b| &b.counters)
        };
        match (at("job"), at("build")) {
            (Some(end), Some(start)) => end.since(start),
            _ => Counters::default(),
        }
    }
}

/// One task per future, future i on reactor `i % reactors` (as
/// `Scenario::run_all` places clients), awaited in order.
async fn spawn_all<T: 'static>(
    handle: Handle,
    futs: Vec<impl Future<Output = T> + 'static>,
) -> Vec<T> {
    let reactors = handle.reactor_count();
    let joins: Vec<_> = futs
        .into_iter()
        .enumerate()
        .map(|(i, f)| handle.spawn_on(ReactorId::new(i % reactors), f))
        .collect();
    let mut out = Vec::with_capacity(joins.len());
    for j in joins {
        out.push(j.await);
    }
    out
}

fn panic_text(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

pub fn run_point(spec: &PointSpec, traced: bool) -> PointRun {
    let cpu_build0 = thread_cpu_ns();
    let bed = Bed::build(&spec.kind, &spec.calib);
    if let Some(plan) = &spec.faults {
        bed.fabric().set_fault_plan(plan.clone());
    }
    let build_ns = thread_cpu_ns() - cpu_build0;
    let live_io_queues = bed.ctrl().live_io_queues();

    let rec = Recorder::new(bed.rt().handle(), traced);
    // `Scenario::run_all` seeds client i with `seed + i·0x9E37`;
    // `Scenario::run` drives client 0 with the job as given.
    let clients = if spec.all_clients { usize::MAX } else { 1 };
    let jobs: Vec<(HostId, Rc<dyn BlockDevice>, JobSpec)> = bed
        .clients()
        .into_iter()
        .take(clients)
        .enumerate()
        .map(|(i, (host, dev))| {
            let mut s = spec.job.clone();
            if spec.all_clients {
                s.seed = s.seed.wrapping_add(i as u64 * 0x9E37);
                s.name = format!("{}-client{}", s.name, i);
            }
            (host, rec.wrap(i as u32, dev), s)
        })
        .collect();

    let mut boundaries = vec![Boundary {
        phase: "build",
        host_ns: build_ns,
        counters: bed.counters(&rec),
    }];
    let t0 = bed.rt().now();
    let ramp_end = t0 + spec.job.ramp;
    let end = ramp_end + spec.job.runtime;
    rec.set_window(ramp_end, end);

    let fabric = bed.fabric().clone();
    let cpu_job0 = thread_cpu_ns();
    let job = catch_unwind(AssertUnwindSafe(|| {
        let runs: Vec<_> = jobs
            .iter()
            .map(|(host, dev, s)| {
                let (fabric, host, dev, s) = (fabric.clone(), *host, dev.clone(), s.clone());
                async move { run_job(&fabric, host, dev, &s).await }
            })
            .collect();
        if spec.all_clients {
            bed.rt().block_on(spawn_all(bed.rt().handle(), runs))
        } else {
            let run = runs.into_iter().next().expect("one job");
            vec![bed.rt().block_on(run)]
        }
    }));
    let cpu_job1 = thread_cpu_ns();
    let job_ios = rec.finished();
    let mut panicked = None;
    let reports = match job {
        Ok(r) => r,
        Err(e) => {
            panicked = Some(panic_text(e));
            Vec::new()
        }
    };
    let snap = |bed: &Bed| catch_unwind(AssertUnwindSafe(|| bed.counters(&rec))).ok();
    if let Some(counters) = snap(&bed) {
        boundaries.push(Boundary {
            phase: "job",
            host_ns: cpu_job1 - cpu_job0,
            counters,
        });
    }

    let mut mismatches = 0;
    if panicked.is_none() {
        let cpu_v0 = thread_cpu_ns();
        let v = catch_unwind(AssertUnwindSafe(|| {
            let passes: Vec<_> = jobs
                .iter()
                .enumerate()
                .map(|(i, (host, dev, s))| {
                    let (fabric, host, dev, seed) = (fabric.clone(), *host, dev.clone(), s.seed);
                    let first = i as u64 * VERIFY_BLOCKS;
                    async move {
                        verify_region(
                            &fabric,
                            host,
                            dev,
                            first,
                            VERIFY_BLOCKS,
                            VERIFY_IO_BLOCKS,
                            seed,
                        )
                        .await
                    }
                })
                .collect();
            bed.rt().block_on(spawn_all(bed.rt().handle(), passes))
        }));
        let verify_ns = thread_cpu_ns() - cpu_v0;
        match v {
            Ok(v) => mismatches = v.iter().map(|r: &VerifyReport| r.mismatches).sum(),
            Err(e) => panicked = Some(panic_text(e)),
        }
        if let Some(counters) = snap(&bed) {
            boundaries.push(Boundary {
                phase: "verify",
                host_ns: verify_ns,
                counters,
            });
        }
    }

    let run = PointRun {
        label: spec.label.clone(),
        build_s: build_ns as f64 * 1e-9,
        job_cpu_ns: cpu_job1 - cpu_job0,
        job_ios,
        attempted: rec.attempted(),
        ok: rec.ok(),
        mismatches,
        panicked,
        reports,
        lat: rec.take_latencies(),
        live_io_queues,
        trace_hash: bed.rt().trace_hash(),
        ramp_ns: (t0.as_nanos(), ramp_end.as_nanos()),
        measure_ns: (ramp_end.as_nanos(), end.as_nanos()),
        boundaries,
        spans: rec.take_spans(),
    };
    drop(jobs);
    // Teardown after a panic may panic again on half-updated state; the
    // point is over either way.
    if catch_unwind(AssertUnwindSafe(move || drop(bed))).is_err() {
        eprintln!("perfbench: {}: testbed teardown panicked", spec.label);
    }
    run
}
