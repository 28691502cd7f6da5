//! Spans recorded from outside the program, at its public layer
//! boundaries.
//!
//! A [`Probe`] is how a workload reaches a layer: [`Off`] calls straight
//! through and leaves every driver and strategy undecorated, so the
//! end-to-end run measures the program alone; [`On`] records one
//! [`Span`] per call and wraps drivers and strategies in the
//! [`TracedDriver`] / [`TracedStrategy`] decorators.
//!
//! Each thread appends to its own in-memory log (no locks, no I/O while
//! measuring). A span's parent is the span open on the same thread when
//! it began, so children nest strictly and a span's self time is its
//! duration minus the sum of its children's. Spans carry the op id the
//! workload set on that thread; spans recorded on the threaded
//! runtime's progression thread have no op context (op 0), because an
//! op id cannot cross the submission ring from outside the program.
//!
//! A log stops growing at [`LOG_CAP`] spans (counted in
//! [`ThreadLog::dropped`]). A thread's log moves to a process-wide sink
//! when the thread exits; [`harvest`] collects the sink plus the calling
//! thread's own log.

use nmad_core::{FramePlan, NicView, Strategy, Window as EngineWindow};
use nmad_net::{
    Capabilities, Driver, EndpointStats, FaultPlan, FaultStats, LinkStats, NetResult, RxFrame,
    SendHandle,
};
use nmad_sim::NodeId;
use std::cell::RefCell;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Most spans one thread keeps (32 bytes each).
pub const LOG_CAP: usize = 2 << 20;

/// A layer boundary a span is recorded at, named after the
/// repository's module and the call (`ApiIsend` feeds `api.isend_ns`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Name {
    /// `MpiProc::isend`.
    MpiIsend,
    /// `MpiProc::irecv`.
    MpiIrecv,
    /// `MpiProc::test`; `arg` is 1 when the request had completed.
    MpiTest,
    /// `MpiProc::take`.
    MpiTake,
    /// `NmadEngine::isend`.
    ApiIsend,
    /// `NmadEngine::post_recv`.
    ApiPostRecv,
    /// `NmadEngine::try_take_recv`; `arg` is 1 on a hit.
    ApiTryTakeRecv,
    /// `NmadEngine::is_recv_done`; `arg` is 1 when done.
    ApiIsRecvDone,
    /// One engine pump (`NmadEngine::try_progress`, or
    /// `MpiProc::progress`, which pumps until idle); `arg` is 1 when
    /// something moved.
    EngineProgress,
    /// `Strategy::schedule`; `arg` is the planned entries (0 for no
    /// plan), `arg2` the window depth the strategy saw.
    StrategySchedule,
    /// `Driver::post_send`; `arg` is the frame's wire bytes.
    DriverPostSend,
    /// `Driver::poll_recv`; `arg` is the frame length, `arg2` is 1 when
    /// a frame came back.
    DriverPollRecv,
    /// `Driver::pump`.
    DriverPump,
    /// `Driver::test_send`.
    DriverTestSend,
    /// `ThreadedHandle::isend`.
    ThreadedIsend,
    /// `ThreadedHandle::post_recv`.
    ThreadedPostRecv,
    /// `ThreadedHandle::try_take_recv`; `arg` is 1 on a hit.
    ThreadedTryTakeRecv,
    /// A span around nothing: the recording cost itself.
    Empty,
}

impl Name {
    /// True for the driver-layer boundaries.
    pub fn is_driver(self) -> bool {
        matches!(
            self,
            Name::DriverPostSend | Name::DriverPollRecv | Name::DriverPump | Name::DriverTestSend
        )
    }
}

/// Marks a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Nanoseconds since the process-wide trace origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u32,
    /// Index of the enclosing span in the same thread's log, or
    /// [`NO_PARENT`].
    pub parent: u32,
    /// The op this span belongs to (0: no op context).
    pub op: u32,
    /// Call-specific value (see [`Name`]).
    pub arg: u32,
    /// Second call-specific value (see [`Name`]).
    pub arg2: u32,
    /// The boundary.
    pub name: Name,
}

/// One thread's spans, in the order they began.
#[derive(Debug, Default)]
pub struct ThreadLog {
    /// Recorded spans.
    pub spans: Vec<Span>,
    /// Spans not recorded because the log was full.
    pub dropped: u64,
    stack: Vec<u32>,
    op: u32,
}

/// The calling thread's log; hands it to the sink at thread exit.
#[derive(Default)]
struct Local(ThreadLog);

impl Drop for Local {
    fn drop(&mut self) {
        let log = std::mem::take(&mut self.0);
        if log.spans.is_empty() && log.dropped == 0 {
            return;
        }
        // A poisoned sink only loses this thread's spans; never panic
        // in drop.
        if let Ok(mut sink) = SINK.lock() {
            sink.push(log);
        }
    }
}

thread_local! {
    static LOG: RefCell<Local> = RefCell::new(Local::default());
}

static SINK: Mutex<Vec<ThreadLog>> = Mutex::new(Vec::new());
static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide trace origin.
pub fn now_ns() -> u64 {
    let origin = *ORIGIN.get_or_init(Instant::now);
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Takes every finished thread's log plus the calling thread's.
pub fn harvest() -> Vec<ThreadLog> {
    let mut logs = std::mem::take(&mut *SINK.lock().expect("trace sink poisoned"));
    LOG.with(|l| logs.push(std::mem::take(&mut l.borrow_mut().0)));
    logs
}

/// How a workload calls into a layer: straight through, or recorded.
pub trait Probe: Copy + Send + 'static {
    /// Calls `f` as the layer boundary `name`; `args` derives the
    /// span's call-specific values from the result.
    fn span_args<R>(
        self,
        name: Name,
        f: impl FnOnce() -> R,
        args: impl FnOnce(&R) -> (u32, u32),
    ) -> R;

    /// Calls `f` as the layer boundary `name`.
    fn span<R>(self, name: Name, f: impl FnOnce() -> R) -> R {
        self.span_args(name, f, |_| (0, 0))
    }

    /// Sets the op id the calling thread's next spans carry.
    fn set_op(self, op: u32);

    /// Wraps a driver for recording (or returns it unchanged).
    fn driver(self, d: Box<dyn Driver>) -> Box<dyn Driver>;

    /// Wraps a strategy for recording (or returns it unchanged).
    fn strategy(self, s: Box<dyn Strategy>) -> Box<dyn Strategy>;
}

/// No recording: the program as users run it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn span_args<R>(
        self,
        _name: Name,
        f: impl FnOnce() -> R,
        _args: impl FnOnce(&R) -> (u32, u32),
    ) -> R {
        f()
    }

    #[inline(always)]
    fn set_op(self, _op: u32) {}

    fn driver(self, d: Box<dyn Driver>) -> Box<dyn Driver> {
        d
    }

    fn strategy(self, s: Box<dyn Strategy>) -> Box<dyn Strategy> {
        s
    }
}

/// Records a span per call.
#[derive(Clone, Copy, Debug, Default)]
pub struct On;

impl Probe for On {
    fn span_args<R>(
        self,
        name: Name,
        f: impl FnOnce() -> R,
        args: impl FnOnce(&R) -> (u32, u32),
    ) -> R {
        let slot = LOG.with(|l| {
            let l = &mut l.borrow_mut().0;
            if l.spans.len() >= LOG_CAP {
                l.dropped += 1;
                return None;
            }
            let idx = l.spans.len() as u32;
            let parent = l.stack.last().copied().unwrap_or(NO_PARENT);
            let op = l.op;
            l.spans.push(Span {
                start_ns: 0,
                dur_ns: 0,
                parent,
                op,
                arg: 0,
                arg2: 0,
                name,
            });
            l.stack.push(idx);
            Some(idx)
        });
        // The clock is read again after the bookkeeping, so a span's
        // duration holds the call and one clock read, not the recording.
        let start = now_ns();
        let r = f();
        let end = now_ns();
        if let Some(idx) = slot {
            let (arg, arg2) = args(&r);
            LOG.with(|l| {
                let l = &mut l.borrow_mut().0;
                l.stack.pop();
                let s = &mut l.spans[idx as usize];
                s.start_ns = start;
                s.dur_ns = u32::try_from(end - start).unwrap_or(u32::MAX);
                s.arg = arg;
                s.arg2 = arg2;
            });
        }
        r
    }

    fn set_op(self, op: u32) {
        LOG.with(|l| l.borrow_mut().0.op = op);
    }

    fn driver(self, d: Box<dyn Driver>) -> Box<dyn Driver> {
        Box::new(TracedDriver {
            inner: d,
            probe: self,
        })
    }

    fn strategy(self, s: Box<dyn Strategy>) -> Box<dyn Strategy> {
        Box::new(TracedStrategy {
            inner: s,
            probe: self,
        })
    }
}

/// A driver decorator recording the transfer layer's calls. Every
/// trait method forwards to the inner driver, defaulted ones included,
/// so decorating changes no behaviour.
pub struct TracedDriver {
    inner: Box<dyn Driver>,
    probe: On,
}

impl Driver for TracedDriver {
    fn caps(&self) -> &Capabilities {
        self.inner.caps()
    }

    fn local_node(&self) -> NodeId {
        self.inner.local_node()
    }

    fn post_send(&mut self, dst: NodeId, iov: &[&[u8]]) -> NetResult<SendHandle> {
        let wire: usize = iov.iter().map(|s| s.len()).sum();
        let wire = u32::try_from(wire).unwrap_or(u32::MAX);
        self.probe.span_args(
            Name::DriverPostSend,
            || self.inner.post_send(dst, iov),
            |_| (wire, 0),
        )
    }

    fn test_send(&mut self, handle: SendHandle) -> NetResult<bool> {
        self.probe
            .span(Name::DriverTestSend, || self.inner.test_send(handle))
    }

    fn poll_recv(&mut self) -> NetResult<Option<RxFrame>> {
        self.probe.span_args(
            Name::DriverPollRecv,
            || self.inner.poll_recv(),
            |r| match r {
                Ok(Some(f)) => (u32::try_from(f.payload.len()).unwrap_or(u32::MAX), 1),
                _ => (0, 0),
            },
        )
    }

    fn tx_idle(&self) -> bool {
        self.inner.tx_idle()
    }

    fn pump(&mut self) -> NetResult<()> {
        self.probe.span(Name::DriverPump, || self.inner.pump())
    }

    fn link_stats(&self) -> LinkStats {
        self.inner.link_stats()
    }

    fn install_faults(&mut self, plan: FaultPlan) -> bool {
        self.inner.install_faults(plan)
    }

    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }

    fn endpoint_stats(&self) -> EndpointStats {
        self.inner.endpoint_stats()
    }

    fn set_rx_backpressure(&mut self, paused: bool) {
        self.inner.set_rx_backpressure(paused)
    }

    fn threaded_progress_safe(&self) -> bool {
        self.inner.threaded_progress_safe()
    }
}

/// A strategy decorator recording the scheduling layer's calls, with
/// the same forward-everything contract as [`TracedDriver`].
pub struct TracedStrategy {
    inner: Box<dyn Strategy>,
    probe: On,
}

impl Strategy for TracedStrategy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, nics: &[Capabilities]) {
        self.inner.init(nics)
    }

    fn schedule(&mut self, window: &mut EngineWindow, nic: &NicView<'_>) -> Option<FramePlan> {
        let depth = u32::try_from(window.depth_for(nic.index)).unwrap_or(u32::MAX);
        self.probe.span_args(
            Name::StrategySchedule,
            || self.inner.schedule(window, nic),
            |plan| {
                let entries = plan.as_ref().map_or(0, |p| p.entries.len());
                (u32::try_from(entries).unwrap_or(u32::MAX), depth)
            },
        )
    }

    fn on_rail_fault(&mut self, rail: usize) {
        self.inner.on_rail_fault(rail)
    }

    fn for_shard(&self, shard: usize, shards: usize) -> Box<dyn Strategy> {
        Box::new(TracedStrategy {
            inner: self.inner.for_shard(shard, shards),
            probe: self.probe,
        })
    }
}

/// Per-boundary totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times (see [`self_times`]), ns.
    pub self_ns: f64,
    /// Sum of `arg`.
    pub arg: u64,
    /// Sum of `arg2`.
    pub arg2: u64,
    /// Spans whose `arg` is nonzero.
    pub arg_nonzero: u64,
}

impl Totals {
    /// Adds span `s` with self time `self_ns`.
    pub fn add(&mut self, s: &Span, self_ns: f64) {
        self.count += 1;
        self.total_ns += u64::from(s.dur_ns);
        self.self_ns += self_ns;
        self.arg += u64::from(s.arg);
        self.arg2 += u64::from(s.arg2);
        self.arg_nonzero += u64::from(s.arg != 0);
    }

    /// Mean duration in ns (0 without spans).
    pub fn mean_ns(&self) -> f64 {
        ratio(self.total_ns as f64, self.count as f64)
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Self time of every span of one log: its duration minus the time
/// its children cover. Children nest strictly inside it on the same
/// thread, and each child also cost its parent `outside_ns` of
/// recording outside its own measured interval; that is taken off too.
pub fn self_times(log: &ThreadLog, outside_ns: f64) -> Vec<f64> {
    let mut child = vec![0.0f64; log.spans.len()];
    for s in &log.spans {
        if s.parent != NO_PARENT {
            child[s.parent as usize] += f64::from(s.dur_ns) + outside_ns;
        }
    }
    log.spans
        .iter()
        .zip(child)
        .map(|(s, c)| (f64::from(s.dur_ns) - c).max(0.0))
        .collect()
}

/// What one span costs: `inside_ns` of it lands in its own measured
/// duration (one clock read), `outside_ns` in its parent's, or in the
/// op's unattributed time for a root span (the bookkeeping). Measured
/// on spans around nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanCost {
    /// Mean recorded duration of an empty span.
    pub inside_ns: f64,
    /// Mean cost per empty span not inside its recorded duration.
    pub outside_ns: f64,
}

/// Times `n` empty spans on the calling thread (harvesting its log).
pub fn span_cost(n: u32) -> SpanCost {
    let p = On;
    let t0 = now_ns();
    for _ in 0..n {
        p.span(Name::Empty, || ());
    }
    let n = f64::from(n.max(1));
    let wall = (now_ns() - t0) as f64 / n;
    let recorded: u64 = (harvest().iter().flat_map(|l| &l.spans))
        .filter(|s| s.name == Name::Empty)
        .map(|s| u64::from(s.dur_ns))
        .sum();
    let inside_ns = recorded as f64 / n;
    SpanCost {
        inside_ns,
        outside_ns: (wall - inside_ns).max(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sink is process-wide; tests that harvest take turns.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn children_nest_and_self_time_excludes_them() {
        let _serial = SERIAL.lock().expect("serial");
        let p = On;
        p.set_op(7);
        p.span(Name::EngineProgress, || {
            p.span(Name::DriverPump, || std::hint::black_box(1));
            p.span(Name::DriverPollRecv, || std::hint::black_box(2));
        });
        let logs = harvest();
        let log = logs.last().expect("own log");
        assert_eq!(log.spans.len(), 3);
        assert_eq!(log.spans[0].name, Name::EngineProgress);
        assert_eq!(log.spans[0].parent, NO_PARENT);
        assert_eq!(log.spans[1].parent, 0);
        assert_eq!(log.spans[2].parent, 0);
        assert!(log.spans.iter().all(|s| s.op == 7));
        let selfs = self_times(log, 0.0);
        let children = f64::from(log.spans[1].dur_ns + log.spans[2].dur_ns);
        assert_eq!(
            selfs[0],
            (f64::from(log.spans[0].dur_ns) - children).max(0.0)
        );
    }

    #[test]
    fn exited_threads_hand_their_logs_to_the_sink() {
        let _serial = SERIAL.lock().expect("serial");
        let p = On;
        std::thread::spawn(move || p.span(Name::DriverPump, || ()))
            .join()
            .expect("tracing thread");
        let logs = harvest();
        assert!(logs
            .iter()
            .any(|l| l.spans.iter().any(|s| s.name == Name::DriverPump)));
    }
}
