//! # fioflex — the Flexible I/O Tester analog
//!
//! The paper benchmarks with FIO 3.28 (§VI): synthetic random read/write,
//! 4 KiB, queue depth 1, 60 s. This crate reproduces that driver for any
//! [`blklayer::BlockDevice`]: job specs ([`JobSpec`]), a deterministic
//! multi-lane engine ([`run_job`]), latency/IOPS/bandwidth reports
//! ([`JobReport`]), and data verification ([`verify_region`]).
//!
//! Write content: a job write carries the lane buffer's current bytes,
//! which are zeros until the lane's first read and that read's data after
//! it. fio's default instead fills write buffers with random bytes. No
//! timing depends on content, so only the stored data differs: the media
//! keeps no block for an all-zero write. Only [`verify_region`] writes
//! distinct nonzero stamps.

pub mod engine;
pub mod report;
pub mod spec;
pub mod verify;

pub use engine::run_job;
pub use report::{JobReport, SideReport};
pub use spec::{JobSpec, RwMode};
pub use verify::{stamp, verify_region, VerifyReport};
