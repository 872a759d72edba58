//! The benchmark-side [`BlockDevice`] decorator.
//!
//! Every client device is wrapped in a [`Probe`] that counts attempted
//! and successful bios and keeps the simulated latency of each
//! successful bio inside the measurement window, per client and
//! direction. In a traced run it also records one [`Span`] per bio with
//! the host time spent inside the polls of the wrapped `submit` future
//! (the client stack's share of the host cost). The decorator adds no
//! simulated event, so a wrapped device behaves exactly like the bare one.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::Instant;

use blklayer::{Bio, BioFuture, BioOp, BlockDevice};
use simcore::{Handle, LatencyRecorder, SimTime};

/// One bio as the decorator saw it.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub client: u32,
    pub write: bool,
    /// Simulated submit and completion instants, in ns.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Host ns spent inside polls of the wrapped `submit` future.
    pub host_ns: u64,
    pub ok: bool,
}

/// Shared state of all probes of one testbed.
pub struct Recorder {
    handle: Handle,
    traced: bool,
    window: Cell<(SimTime, SimTime)>,
    attempted: Cell<u64>,
    finished: Cell<u64>,
    ok: Cell<u64>,
    submit_host_ns: Cell<u64>,
    /// Per client: `[read, write]` latencies of successful bios that
    /// started and finished inside the window (fioflex's rule).
    lat: RefCell<Vec<[LatencyRecorder; 2]>>,
    spans: RefCell<Vec<Span>>,
}

impl Recorder {
    pub fn new(handle: Handle, traced: bool) -> Rc<Recorder> {
        Rc::new(Recorder {
            handle,
            traced,
            window: Cell::new((SimTime::ZERO, SimTime::ZERO)),
            attempted: Cell::new(0),
            finished: Cell::new(0),
            ok: Cell::new(0),
            submit_host_ns: Cell::new(0),
            lat: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
        })
    }

    /// Wrap client `client`'s device.
    pub fn wrap(self: &Rc<Self>, client: u32, inner: Rc<dyn BlockDevice>) -> Rc<dyn BlockDevice> {
        let mut lat = self.lat.borrow_mut();
        while lat.len() <= client as usize {
            lat.push([LatencyRecorder::new(), LatencyRecorder::new()]);
        }
        Rc::new(Probe {
            inner,
            rec: self.clone(),
            client,
        })
    }

    /// Latencies are kept only for bios inside `[start, end]`.
    pub fn set_window(&self, start: SimTime, end: SimTime) {
        self.window.set((start, end));
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.get()
    }

    pub fn finished(&self) -> u64 {
        self.finished.get()
    }

    pub fn ok(&self) -> u64 {
        self.ok.get()
    }

    pub fn submit_host_ns(&self) -> u64 {
        self.submit_host_ns.get()
    }

    pub fn take_latencies(&self) -> Vec<[LatencyRecorder; 2]> {
        std::mem::take(&mut *self.lat.borrow_mut())
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.borrow_mut())
    }

    fn finish(&self, client: u32, write: bool, t0: SimTime, host_ns: u64, ok: bool) {
        let t1 = self.handle.now();
        self.finished.set(self.finished.get() + 1);
        let (ws, we) = self.window.get();
        if ok {
            self.ok.set(self.ok.get() + 1);
            if t0 >= ws && t1 <= we {
                self.lat.borrow_mut()[client as usize][write as usize].record(t1 - t0);
            }
        }
        if self.traced {
            self.submit_host_ns.set(self.submit_host_ns.get() + host_ns);
            self.spans.borrow_mut().push(Span {
                client,
                write,
                start_ns: t0.as_nanos(),
                end_ns: t1.as_nanos(),
                host_ns,
                ok,
            });
        }
    }
}

struct Probe {
    inner: Rc<dyn BlockDevice>,
    rec: Rc<Recorder>,
    client: u32,
}

impl BlockDevice for Probe {
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
        Box::pin(async move {
            let rec = &self.rec;
            rec.attempted.set(rec.attempted.get() + 1);
            let write = bio.op == BioOp::Write;
            let t0 = rec.handle.now();
            let (result, host_ns) = if rec.traced {
                let mut timed = PollTimed {
                    fut: self.inner.submit(bio),
                    ns: 0,
                };
                let r = (&mut timed).await;
                (r, timed.ns)
            } else {
                (self.inner.submit(bio).await, 0)
            };
            rec.finish(self.client, write, t0, host_ns, result.is_ok());
            result
        })
    }
}

/// Adds the host time of every poll of `fut` to `ns`.
struct PollTimed<'a> {
    fut: BioFuture<'a>,
    ns: u64,
}

impl Future for PollTimed<'_> {
    type Output = <BioFuture<'static> as Future>::Output;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let t0 = Instant::now();
        let r = this.fut.as_mut().poll(cx);
        this.ns += t0.elapsed().as_nanos() as u64;
        r
    }
}
