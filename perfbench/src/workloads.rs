//! The four closed-loop workloads.
//!
//! Each workload builds its fixture (fabric or socket pair, engines,
//! communicators, echo thread or threaded launch) and then runs ops,
//! one at a time: an op is one round trip, one burst round trip, or one
//! streamed message. The second engine of `pingpong-mem`,
//! `burst-mpi-mem` and `stream-tcp` runs on its own thread, as a second
//! MPI process would: on a shared 2-vCPU Xeon VM a single busy thread
//! ran in fast and slow phases lasting seconds (2.5 against 4.2 µs per
//! round trip), while two busy threads measured within a few percent
//! run to run.
//!
//! Every call into the program goes through a [`Probe`], so the same
//! code serves the end-to-end run ([`crate::trace::Off`]) and the traced
//! run ([`crate::trace::On`]).

use crate::inputs::{corrupted, Inputs};
use crate::trace::{Name, Probe};
use bytes::Bytes;
use mad_mpi::{Comm, MpiProc, NmadBackend, Request};
use nmad_core::{
    EngineConfig, EngineCosts, EngineMetrics, EngineStats, MetricsSnapshot, NmadEngine, RecvDone,
    RecvReqId, StratAggreg, Tag, ThreadedEngine, ThreadedHandle,
};
use nmad_net::{mem_fabric, Driver, NullMeter, TcpDriver};
use nmad_sim::NodeId;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An op that has not completed after this long counts as failed and
/// ends the run: the engines can no longer be trusted.
pub const STUCK: Duration = Duration::from_secs(2);

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);
const TAG: Tag = Tag(1);

/// `pingpong-mem` payload: the paper's smallest §5.1 size.
const PING_LEN: usize = 16;
/// `burst-mpi-mem`: messages per burst, one per communicator.
const BURST: usize = 32;
/// `burst-mpi-mem` size range (drawn uniformly per message).
const BURST_MIN: usize = 8;
const BURST_MAX: usize = 1024;
/// `stream-tcp` size range (log-uniform, straddling the 64 KiB
/// eager/rendezvous threshold of the TCP driver).
const STREAM_MIN: usize = 8 << 10;
const STREAM_MAX: usize = 256 << 10;
/// `stream-tcp` messages kept in flight (and receives kept posted).
const STREAM_DEPTH: usize = 8;
/// `rpc-threaded-mem` request and reply size.
const RPC_LEN: usize = 64;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 16 B round trips between two inline engines over mem, one
    /// thread each.
    PingpongMem,
    /// 32-message MAD-MPI bursts over mem, echoed back by a second
    /// rank on its own thread.
    BurstMpiMem,
    /// One-way stream over TCP loopback, 8 messages in flight, the
    /// receiving engine on its own thread.
    StreamTcp,
    /// 64 B request/reply through a threaded runtime over mem.
    RpcThreadedMem,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::PingpongMem,
        Workload::BurstMpiMem,
        Workload::StreamTcp,
        Workload::RpcThreadedMem,
    ];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PingpongMem => "pingpong-mem",
            Workload::BurstMpiMem => "burst-mpi-mem",
            Workload::StreamTcp => "stream-tcp",
            Workload::RpcThreadedMem => "rpc-threaded-mem",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Application messages per op (both directions).
    pub fn msgs_per_op(self) -> u64 {
        match self {
            Workload::PingpongMem | Workload::RpcThreadedMem => 2,
            Workload::BurstMpiMem => 2 * BURST as u64,
            Workload::StreamTcp => 1,
        }
    }

    fn max_len(self) -> usize {
        match self {
            Workload::PingpongMem => PING_LEN,
            Workload::BurstMpiMem => BURST_MAX,
            Workload::StreamTcp => STREAM_MAX,
            Workload::RpcThreadedMem => RPC_LEN,
        }
    }

    /// The seeded inputs of this workload.
    pub fn inputs(self, seed: u64) -> Inputs {
        Inputs::new(seed, self.max_len())
    }

    /// Ops per session: a run is a sequence of sessions, each on a
    /// fresh fixture, about half a second each on a 2-core Xeon VM.
    ///
    /// The engine keeps every completed send id (`is_send_done` has no
    /// way to forget one), so a fixture's state grows with the ops it
    /// has run; a fixed session length makes that growth the same in
    /// every session and every run, instead of depending on how many
    /// ops fit in the time.
    pub fn session_ops(self) -> u64 {
        match self {
            Workload::PingpongMem => 100_000,
            Workload::BurstMpiMem => 3_000,
            Workload::StreamTcp => 10_000,
            Workload::RpcThreadedMem => 40_000,
        }
    }
}

/// What one op did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpResult {
    /// Wall-clock latency in ns.
    pub latency_ns: u64,
    /// Payload bytes delivered and verified (0 when `ok` is false).
    pub bytes: u64,
    /// Every payload of the op arrived byte for byte.
    pub ok: bool,
}

/// The program's own counters, summed over every engine of a fixture.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Collect- and scheduling-layer counters.
    pub engine: EngineMetrics,
    /// Wire-level counters.
    pub wire: EngineStats,
}

impl Counters {
    fn of(s: &MetricsSnapshot) -> Self {
        let mut c = Counters::default();
        c.add(s);
        c
    }

    fn add(&mut self, s: &MetricsSnapshot) {
        self.engine.absorb(&s.engine);
        self.wire.absorb(&s.wire);
    }
}

/// A set-up workload, ready to run ops.
pub trait Fixture {
    /// Runs op `op` to completion. `Err` is a transport error or a
    /// stuck op: the op failed and the fixture is unusable.
    fn op(&mut self, op: u32) -> Result<OpResult, String>;

    /// Tears the fixture down (stopping and joining its threads) and
    /// returns the program's counters, summed over its engines.
    fn finish(self: Box<Self>) -> Result<Counters, String>;
}

/// Builds workload `w`'s fixture. Every `corrupt_every`-th echo (0:
/// none) is damaged on purpose, for the benchmark's self-tests.
pub fn setup<P: Probe>(
    w: Workload,
    inputs: Inputs,
    probe: P,
    corrupt_every: u64,
) -> Result<Box<dyn Fixture>, String> {
    let corrupt = Corrupt(corrupt_every);
    Ok(match w {
        Workload::PingpongMem => {
            let (a, b) = mem_pair(probe);
            let echo = spawn("pingpong echo", move || echo_pingpong(probe, b, corrupt))?;
            Box::new(PingPong {
                probe,
                a,
                echo: Some(echo),
                inputs,
            })
        }
        Workload::BurstMpiMem => {
            let mut fabric = mem_fabric(2).into_iter();
            let mut rank = |r: usize| {
                let d = fabric.next().expect("two endpoints");
                let backend = NmadBackend::new(engine(probe, Box::new(d)));
                MpiProc::new(Box::new(backend), r, 2)
            };
            let (mut r0, mut r1) = (rank(0), rank(1));
            let world = r0.comm_world();
            let comms: Vec<Comm> = (0..BURST)
                .map(|_| {
                    let c = r0.comm_dup(world);
                    // Both ranks dup in the same order: same contexts.
                    r1.comm_dup(world);
                    c
                })
                .collect();
            let echo_comms = comms.clone();
            let echo = spawn("burst echo", move || {
                echo_burst(probe, r1, &echo_comms, corrupt)
            })?;
            Box::new(Burst {
                probe,
                r0,
                echo: Some(echo),
                comms,
                inputs,
            })
        }
        Workload::StreamTcp => {
            let (da, db) = TcpDriver::pair().map_err(|e| format!("tcp loopback pair: {e}"))?;
            let b = engine(probe, Box::new(db));
            let (tx, deliveries) = mpsc::channel();
            let expected = inputs.clone();
            let receiver = spawn("stream receiver", move || {
                receive_stream(probe, b, expected, tx)
            })?;
            Box::new(Stream {
                probe,
                a: engine(probe, Box::new(da)),
                receiver: Some(receiver),
                deliveries,
                inputs,
                corrupt,
                inflight: VecDeque::with_capacity(STREAM_DEPTH),
                submitted: 0,
            })
        }
        Workload::RpcThreadedMem => {
            let (a, mut b) = mem_pair(probe);
            let rt = ThreadedEngine::launch(a, EngineConfig::threaded());
            let h = rt.handle();
            let next_req = b.post_recv(N0, TAG, RPC_LEN);
            Box::new(Rpc {
                probe,
                rt,
                h,
                b,
                next_req,
                inputs,
                corrupt,
            })
        }
    })
}

fn engine<P: Probe>(probe: P, driver: Box<dyn Driver>) -> NmadEngine {
    NmadEngine::new(
        vec![probe.driver(driver)],
        Box::new(NullMeter),
        probe.strategy(Box::new(StratAggreg)),
        EngineCosts::zero(),
    )
}

fn mem_pair<P: Probe>(probe: P) -> (NmadEngine, NmadEngine) {
    let mut fabric = mem_fabric(2);
    let b = fabric.pop().expect("two endpoints");
    let a = fabric.pop().expect("two endpoints");
    (engine(probe, Box::new(a)), engine(probe, Box::new(b)))
}

type Echo = JoinHandle<Result<Counters, String>>;

fn spawn(
    name: &str,
    f: impl FnOnce() -> Result<Counters, String> + Send + 'static,
) -> Result<Echo, String> {
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(f)
        .map_err(|e| format!("spawn {name} thread: {e}"))
}

/// Joins an echo thread, returning its engine's counters.
fn join(echo: Option<Echo>) -> Result<Counters, String> {
    echo.ok_or("echo thread already joined")?
        .join()
        .map_err(|_| "echo thread panicked".to_string())?
}

/// Which echoes to damage.
#[derive(Clone, Copy)]
struct Corrupt(u64);

impl Corrupt {
    fn echo(self, seq: u64, data: Bytes) -> Bytes {
        if self.0 != 0 && seq.is_multiple_of(self.0) {
            corrupted(&data)
        } else {
            data
        }
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn verify(done: &RecvDone, want: &[u8]) -> bool {
    !done.truncated && done.data.as_ref() == want
}

/// Counts spins and fails once an op has waited longer than [`STUCK`].
/// The clock is read only every 4096 spins.
struct Patience {
    spins: u32,
    deadline: Option<Instant>,
}

impl Patience {
    fn new() -> Self {
        Patience {
            spins: 0,
            deadline: None,
        }
    }

    fn spin(&mut self, what: &str) -> Result<(), String> {
        self.spins = self.spins.wrapping_add(1);
        if self.spins.is_multiple_of(4096) {
            let deadline = *self.deadline.get_or_insert_with(|| Instant::now() + STUCK);
            if Instant::now() > deadline {
                return Err(format!("stuck: {what} did not complete within {STUCK:?}"));
            }
        }
        Ok(())
    }
}

/// One engine pump through the probe.
fn pump<P: Probe>(p: P, e: &mut NmadEngine) -> Result<bool, String> {
    p.span_args(
        Name::EngineProgress,
        || e.try_progress(),
        |r| (u32::from(matches!(r, Ok(true))), 0),
    )
    .map_err(|e| format!("transport error: {e}"))
}

/// Pumps until the engine has nothing left to move (a sent frame has
/// left, for the mem driver).
fn drain<P: Probe>(p: P, e: &mut NmadEngine) -> Result<(), String> {
    while pump(p, e)? {}
    Ok(())
}

/// Pumps `engines` in turn until `req` completes on `engines[at]`, then
/// takes it: the MPI test loop of an inline caller.
fn wait_take<P: Probe>(
    p: P,
    engines: &mut [&mut NmadEngine],
    at: usize,
    req: RecvReqId,
) -> Result<RecvDone, String> {
    let mut patience = Patience::new();
    loop {
        for e in engines.iter_mut() {
            pump(p, e)?;
        }
        let done = p.span_args(
            Name::ApiIsRecvDone,
            || engines[at].is_recv_done(req),
            |d| (u32::from(*d), 0),
        );
        if done {
            return p
                .span_args(
                    Name::ApiTryTakeRecv,
                    || engines[at].try_take_recv(req),
                    |r| (u32::from(r.is_some()), 0),
                )
                .ok_or_else(|| "a completed receive could not be taken".to_string());
        }
        patience.spin("receive")?;
    }
}

struct PingPong<P> {
    probe: P,
    a: NmadEngine,
    echo: Option<Echo>,
    inputs: Inputs,
}

/// The echoing peer: returns every ping until an empty one arrives.
fn echo_pingpong<P: Probe>(p: P, mut b: NmadEngine, corrupt: Corrupt) -> Result<Counters, String> {
    for seq in 1.. {
        let rb = p.span(Name::ApiPostRecv, || b.post_recv(N0, TAG, PING_LEN));
        let ping = wait_take(p, &mut [&mut b], 0, rb)?;
        if ping.data.is_empty() {
            break;
        }
        let echo = corrupt.echo(seq, ping.data);
        p.span(Name::ApiIsend, || b.isend(N0, TAG, echo));
        drain(p, &mut b)?;
    }
    Ok(Counters::of(&b.metrics()))
}

impl<P: Probe> Fixture for PingPong<P> {
    fn op(&mut self, _op: u32) -> Result<OpResult, String> {
        let p = self.probe;
        let msg = self.inputs.message(PING_LEN);
        let t0 = Instant::now();
        let ra = p.span(Name::ApiPostRecv, || self.a.post_recv(N1, TAG, PING_LEN));
        p.span(Name::ApiIsend, || self.a.isend(N1, TAG, msg.clone()));
        let pong = wait_take(p, &mut [&mut self.a], 0, ra)?;
        let ok = verify(&pong, &msg);
        Ok(OpResult {
            latency_ns: elapsed_ns(t0),
            bytes: if ok { 2 * PING_LEN as u64 } else { 0 },
            ok,
        })
    }

    fn finish(mut self: Box<Self>) -> Result<Counters, String> {
        self.a.isend(N1, TAG, Bytes::new());
        drain(self.probe, &mut self.a)?;
        let mut c = join(self.echo.take())?;
        c.add(&self.a.metrics());
        Ok(c)
    }
}

/// Tests `reqs` on `proc` in order, pumping between rounds, until all
/// completed: MPI_Testall over a progress loop.
fn wait_all<P: Probe>(p: P, proc: &mut MpiProc, reqs: &[Request]) -> Result<(), String> {
    let mut patience = Patience::new();
    let mut next = 0;
    loop {
        while next < reqs.len()
            && p.span_args(
                Name::MpiTest,
                || proc.test(reqs[next]),
                |d| (u32::from(*d), 0),
            )
        {
            next += 1;
        }
        if next == reqs.len() {
            return Ok(());
        }
        p.span_args(
            Name::EngineProgress,
            || proc.progress(),
            |m| (u32::from(*m), 0),
        );
        patience.spin("MPI request")?;
    }
}

/// Takes every completed receive of `reqs`.
fn take_all<P: Probe>(p: P, proc: &mut MpiProc, reqs: &[Request]) -> Result<Vec<Vec<u8>>, String> {
    reqs.iter()
        .map(|&r| {
            p.span(Name::MpiTake, || proc.take(r))
                .ok_or_else(|| "a tested MPI receive could not be taken".to_string())
        })
        .collect()
}

struct Burst<P> {
    probe: P,
    r0: MpiProc,
    echo: Option<Echo>,
    comms: Vec<Comm>,
    inputs: Inputs,
}

/// Rank 1: receives a burst on every communicator, echoes it, completes
/// its sends; stops at a burst of empty messages.
fn echo_burst<P: Probe>(
    p: P,
    mut r1: MpiProc,
    comms: &[Comm],
    corrupt: Corrupt,
) -> Result<Counters, String> {
    for seq in 1.. {
        let pings: Vec<Request> = (comms.iter())
            .map(|&c| p.span(Name::MpiIrecv, || r1.irecv(c, 0, 0, BURST_MAX)))
            .collect();
        wait_all(p, &mut r1, &pings)?;
        let got = take_all(p, &mut r1, &pings)?;
        if got.iter().all(Vec::is_empty) {
            break;
        }
        let sends: Vec<Request> = (comms.iter().zip(got))
            .map(|(&c, m)| {
                let echo = corrupt.echo(seq, m.into());
                p.span(Name::MpiIsend, || r1.isend(c, 0, 0, echo))
            })
            .collect();
        wait_all(p, &mut r1, &sends)?;
    }
    let metrics = r1
        .backend()
        .metrics()
        .ok_or("MAD-MPI exposes engine metrics")?;
    Ok(Counters::of(&metrics))
}

impl<P: Probe> Fixture for Burst<P> {
    fn op(&mut self, _op: u32) -> Result<OpResult, String> {
        let p = self.probe;
        let msgs: Vec<Bytes> = (0..BURST)
            .map(|_| {
                let n = self.inputs.rng().range(BURST_MIN, BURST_MAX);
                self.inputs.message(n)
            })
            .collect();
        let t0 = Instant::now();
        let r0 = &mut self.r0;
        let pongs: Vec<Request> = (self.comms.iter())
            .map(|&c| p.span(Name::MpiIrecv, || r0.irecv(c, 1, 0, BURST_MAX)))
            .collect();
        let sends: Vec<Request> = (self.comms.iter().zip(&msgs))
            .map(|(&c, m)| p.span(Name::MpiIsend, || r0.isend(c, 1, 0, m.clone())))
            .collect();
        wait_all(p, r0, &pongs)?;
        let got = take_all(p, r0, &pongs)?;
        // Senders complete their requests too, as MPI callers must.
        wait_all(p, r0, &sends)?;
        let ok = got.iter().zip(&msgs).all(|(g, m)| g[..] == m[..]);
        let bytes: u64 = msgs.iter().map(|m| 2 * m.len() as u64).sum();
        Ok(OpResult {
            latency_ns: elapsed_ns(t0),
            bytes: if ok { bytes } else { 0 },
            ok,
        })
    }

    fn finish(mut self: Box<Self>) -> Result<Counters, String> {
        let p = self.probe;
        let stops: Vec<Request> = (self.comms.iter())
            .map(|&c| self.r0.isend(c, 1, 0, Bytes::new()))
            .collect();
        wait_all(p, &mut self.r0, &stops)?;
        let mut c = join(self.echo.take())?;
        let metrics = (self.r0.backend().metrics()).ok_or("MAD-MPI exposes engine metrics")?;
        c.add(&metrics);
        Ok(c)
    }
}

/// One message the receiver got, as it reports it to the sender.
struct Delivery {
    at: Instant,
    ok: bool,
    bytes: u64,
}

struct Stream<P> {
    probe: P,
    a: NmadEngine,
    receiver: Option<Echo>,
    deliveries: mpsc::Receiver<Delivery>,
    inputs: Inputs,
    corrupt: Corrupt,
    /// Submit times of the messages in flight, oldest first.
    inflight: VecDeque<Instant>,
    submitted: u64,
}

/// The receiving engine: keeps [`STREAM_DEPTH`] receives posted, checks
/// each message against the sender's draws (its own clone of the
/// inputs) and reports it; stops at an empty message.
fn receive_stream<P: Probe>(
    p: P,
    mut b: NmadEngine,
    mut expected: Inputs,
    tx: mpsc::Sender<Delivery>,
) -> Result<Counters, String> {
    let mut posted: VecDeque<RecvReqId> = (0..STREAM_DEPTH)
        .map(|_| p.span(Name::ApiPostRecv, || b.post_recv(N0, TAG, STREAM_MAX)))
        .collect();
    while let Some(recv) = posted.pop_front() {
        let done = wait_take(p, &mut [&mut b], 0, recv)?;
        let at = Instant::now();
        if done.data.is_empty() {
            break;
        }
        let n = expected.rng().log_range(STREAM_MIN, STREAM_MAX);
        let ok = verify(&done, &expected.message(n));
        posted.push_back(p.span(Name::ApiPostRecv, || b.post_recv(N0, TAG, STREAM_MAX)));
        let delivery = Delivery {
            at,
            ok,
            bytes: n as u64,
        };
        if tx.send(delivery).is_err() {
            break;
        }
    }
    drain(p, &mut b)?;
    Ok(Counters::of(&b.metrics()))
}

impl<P: Probe> Fixture for Stream<P> {
    fn op(&mut self, _op: u32) -> Result<OpResult, String> {
        let p = self.probe;
        while self.inflight.len() < STREAM_DEPTH {
            let n = self.inputs.rng().log_range(STREAM_MIN, STREAM_MAX);
            let data = self.inputs.message(n);
            self.submitted += 1;
            let wire = self.corrupt.echo(self.submitted, data);
            self.inflight.push_back(Instant::now());
            p.span(Name::ApiIsend, || self.a.isend(N1, TAG, wire));
        }
        // The sender pumps (rendezvous grants arrive here) until the
        // receiver reports the oldest message.
        let mut patience = Patience::new();
        let d = loop {
            pump(p, &mut self.a)?;
            match self.deliveries.try_recv() {
                Ok(d) => break d,
                Err(mpsc::TryRecvError::Empty) => patience.spin("stream delivery")?,
                Err(mpsc::TryRecvError::Disconnected) => {
                    return Err(join(self.receiver.take())
                        .err()
                        .unwrap_or_else(|| "the stream receiver stopped".to_string()))
                }
            }
        };
        let sent_at = self.inflight.pop_front().expect("stream window is full");
        Ok(OpResult {
            latency_ns: u64::try_from(d.at.saturating_duration_since(sent_at).as_nanos())
                .unwrap_or(u64::MAX),
            bytes: if d.ok { d.bytes } else { 0 },
            ok: d.ok,
        })
    }

    fn finish(mut self: Box<Self>) -> Result<Counters, String> {
        let p = self.probe;
        self.a.isend(N1, TAG, Bytes::new());
        // Messages still in flight need the sender's pump to finish.
        let mut patience = Patience::new();
        while (self.receiver.as_ref()).is_some_and(|r| !r.is_finished()) {
            pump(p, &mut self.a)?;
            while self.deliveries.try_recv().is_ok() {}
            patience.spin("stream shutdown")?;
        }
        let mut c = join(self.receiver.take())?;
        c.add(&self.a.metrics());
        Ok(c)
    }
}

struct Rpc<P> {
    probe: P,
    rt: ThreadedEngine,
    h: ThreadedHandle,
    b: NmadEngine,
    /// The server's receive for the next request, posted ahead.
    next_req: RecvReqId,
    inputs: Inputs,
    corrupt: Corrupt,
}

impl<P: Probe> Fixture for Rpc<P> {
    fn op(&mut self, op: u32) -> Result<OpResult, String> {
        let p = self.probe;
        let msg = self.inputs.message(RPC_LEN);
        let t0 = Instant::now();
        let reply = p.span(Name::ThreadedPostRecv, || {
            self.h.post_recv(N1, TAG, RPC_LEN)
        });
        p.span(Name::ThreadedIsend, || self.h.isend(N1, TAG, msg.clone()));
        let req = wait_take(p, &mut [&mut self.b], 0, self.next_req)?;
        let ok = verify(&req, &msg);
        self.next_req = p.span(Name::ApiPostRecv, || self.b.post_recv(N0, TAG, RPC_LEN));
        let echo = self.corrupt.echo(u64::from(op), req.data);
        p.span(Name::ApiIsend, || self.b.isend(N0, TAG, echo));
        drain(p, &mut self.b)?;
        let mut patience = Patience::new();
        let got = loop {
            let taken = p.span_args(
                Name::ThreadedTryTakeRecv,
                || self.h.try_take_recv(reply),
                |r| (u32::from(r.is_some()), 0),
            );
            if let Some(got) = taken {
                break got;
            }
            patience.spin("threaded reply")?;
        };
        let ok = ok && verify(&got, &msg);
        Ok(OpResult {
            latency_ns: elapsed_ns(t0),
            bytes: if ok { 2 * RPC_LEN as u64 } else { 0 },
            ok,
        })
    }

    fn finish(self: Box<Self>) -> Result<Counters, String> {
        let mut c = Counters::of(&self.h.metrics());
        c.add(&self.b.metrics());
        drop(self.rt.shutdown());
        Ok(c)
    }
}
