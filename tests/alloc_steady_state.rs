//! Steady-state heap allocations of the eager message path, pinned
//! exactly.
//!
//! A counting global allocator measures warmed-up message loops
//! between two inline `StratAggreg` engines over the in-process mem
//! fabric, on one thread:
//!
//! * 16 B round trips — one eager entry per frame;
//! * 32-segment bursts on 32 tags, echoed back — one aggregated frame
//!   of 32 entries each way.
//!
//! The engine itself must allocate nothing per message. What remains is
//! the mem driver's: `MemDriver::post_send` copies the frame into a
//! fresh `Vec` and wraps it in a `Bytes` (two allocations per frame),
//! and the std channel under the fabric allocates one block per batch
//! of messages. The test measures that driver cost on its own (the same
//! frame count through bare `MemDriver`s, and the same message count
//! through a bare std channel) and requires the engine loops to cost
//! exactly as much.
//!
//! Counted are the calls that obtain memory: allocations plus
//! reallocations. The counter is process-wide, so this file holds a
//! single test.

use std::alloc::System;
use std::sync::mpsc;

use bytes::Bytes;
use newmadeleine::core::{EngineCosts, NmadEngine, RecvReqId, SendReqId, StratAggreg, Tag};
use newmadeleine::net::{mem_fabric, Driver, MemDriver, NullMeter};
use newmadeleine::sim::NodeId;
use stats_alloc::{Region, StatsAlloc, INSTRUMENTED_SYSTEM};

#[global_allocator]
static GLOBAL: &StatsAlloc<System> = &INSTRUMENTED_SYSTEM;

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);
const PING_LEN: usize = 16;
const BURST: usize = 32;
/// Round trips per measured window: a multiple of the std channel's
/// block size (31 messages), so each window sees whole blocks.
const ROUNDS: usize = 310;
/// Windows run before measuring. Hash maps keyed by ever-new request
/// ids reach their final capacity only after their tombstones first
/// force a resize, which happens within the first window of bursts.
const WARMUP_WINDOWS: usize = 2;
/// Allocations `MemDriver::post_send` makes per frame: the frame copy
/// and the `Bytes` around it.
const DRIVER_ALLOCS_PER_FRAME: usize = 2;

fn engine(driver: MemDriver) -> NmadEngine {
    NmadEngine::new(
        vec![Box::new(driver)],
        Box::new(NullMeter),
        Box::new(StratAggreg),
        EngineCosts::zero(),
    )
}

fn engine_pair() -> (NmadEngine, NmadEngine) {
    let mut fabric = mem_fabric(2);
    let b = fabric.pop().expect("two endpoints");
    let a = fabric.pop().expect("two endpoints");
    (engine(a), engine(b))
}

/// Pumps both engines until `done` holds.
fn pump_until(
    a: &mut NmadEngine,
    b: &mut NmadEngine,
    mut done: impl FnMut(&NmadEngine, &NmadEngine) -> bool,
) {
    for _ in 0..10_000 {
        if done(a, b) {
            return;
        }
        a.progress();
        b.progress();
    }
    panic!("engines did not converge");
}

/// Inline engines record every completed send until it is drained (the
/// threaded runtime drains after each pump); drain them too, so the
/// measurement sees per-message costs and not the growth of that set.
fn drain_sends(a: &mut NmadEngine, b: &mut NmadEngine, scratch: &mut Vec<SendReqId>) {
    a.drain_done_sends(scratch);
    b.drain_done_sends(scratch);
    scratch.clear();
}

/// Allocations plus reallocations since `region` opened.
fn obtained(region: &Region<'_, System>) -> usize {
    let change = region.change();
    change.allocations + change.reallocations
}

/// `rounds` 16 B round trips a → b → a; returns the heap allocations.
fn pingpong(a: &mut NmadEngine, b: &mut NmadEngine, rounds: usize, msg: &Bytes) -> usize {
    let mut sends = Vec::with_capacity(4);
    let region = Region::new(GLOBAL);
    for _ in 0..rounds {
        let rb = b.post_recv(N0, Tag(0), PING_LEN);
        let ra = a.post_recv(N1, Tag(0), PING_LEN);
        a.isend(N1, Tag(0), msg.clone());
        pump_until(a, b, |_, b| b.is_recv_done(rb));
        let ping = b.try_take_recv(rb).expect("ping landed");
        b.isend(N0, Tag(0), ping.data);
        pump_until(a, b, |a, _| a.is_recv_done(ra));
        let pong = a.try_take_recv(ra).expect("pong landed");
        assert_eq!(pong.data, *msg);
        drain_sends(a, b, &mut sends);
    }
    obtained(&region)
}

/// `rounds` bursts of `BURST` segments (one per tag) a → b, each echoed
/// back as a burst; returns the heap allocations.
fn bursts(a: &mut NmadEngine, b: &mut NmadEngine, rounds: usize, msgs: &[Bytes]) -> usize {
    let mut sends = Vec::with_capacity(2 * BURST);
    let mut ra = [RecvReqId(0); BURST];
    let mut rb = [RecvReqId(0); BURST];
    let region = Region::new(GLOBAL);
    for _ in 0..rounds {
        for (t, msg) in msgs.iter().enumerate() {
            let tag = Tag(t as u32);
            rb[t] = b.post_recv(N0, tag, msg.len());
            ra[t] = a.post_recv(N1, tag, msg.len());
        }
        for (t, msg) in msgs.iter().enumerate() {
            a.isend(N1, Tag(t as u32), msg.clone());
        }
        pump_until(a, b, |_, b| rb.iter().all(|&r| b.is_recv_done(r)));
        for (t, &r) in rb.iter().enumerate() {
            let seg = b.try_take_recv(r).expect("burst landed");
            b.isend(N0, Tag(t as u32), seg.data);
        }
        pump_until(a, b, |a, _| ra.iter().all(|&r| a.is_recv_done(r)));
        for (msg, &r) in msgs.iter().zip(&ra) {
            assert_eq!(a.try_take_recv(r).expect("echo landed").data, *msg);
        }
        drain_sends(a, b, &mut sends);
    }
    obtained(&region)
}

/// `rounds` round trips of one frame each way through bare mem drivers,
/// each frame a two-region gather like an engine frame's; returns the
/// heap allocations.
fn bare_drivers(a: &mut MemDriver, b: &mut MemDriver, rounds: usize) -> usize {
    let header = [0u8; 28];
    let payload = [0u8; PING_LEN];
    let region = Region::new(GLOBAL);
    let one_way = |tx: &mut MemDriver, rx: &mut MemDriver, dst| {
        let handle = tx.post_send(dst, &[&header, &payload]).expect("post");
        assert!(tx.test_send(handle).expect("test"));
        let frame = rx.poll_recv().expect("poll").expect("frame");
        assert_eq!(frame.payload.len(), header.len() + payload.len());
    };
    for _ in 0..rounds {
        one_way(a, b, N1);
        one_way(b, a, N0);
    }
    obtained(&region)
}

/// `messages` sends through a bare std channel, each received at once;
/// returns the heap allocations (the channel's block allocations).
fn bare_channel(messages: usize) -> usize {
    let (tx, rx) = mpsc::channel::<[usize; 4]>();
    for _ in 0..messages {
        tx.send([0; 4]).expect("send");
        rx.recv().expect("recv");
    }
    let region = Region::new(GLOBAL);
    for _ in 0..messages {
        tx.send([0; 4]).expect("send");
        rx.recv().expect("recv");
    }
    obtained(&region)
}

#[test]
fn eager_path_allocates_only_in_the_mem_driver() {
    // The driver's own cost per frame, with the channel's share.
    let frames = 2 * ROUNDS;
    let channel = bare_channel(ROUNDS);
    assert!(channel > 0, "the channel allocates blocks as it goes");
    let mut fabric = mem_fabric(2);
    let mut db = fabric.pop().expect("two endpoints");
    let mut da = fabric.pop().expect("two endpoints");
    for _ in 0..WARMUP_WINDOWS {
        bare_drivers(&mut da, &mut db, ROUNDS);
    }
    let driver = bare_drivers(&mut da, &mut db, ROUNDS);
    assert_eq!(
        driver,
        DRIVER_ALLOCS_PER_FRAME * frames + 2 * channel,
        "MemDriver: {DRIVER_ALLOCS_PER_FRAME} allocations per frame plus the \
         channel blocks of its two directions"
    );

    // (a) 16 B round trips: one frame per one-way message.
    let (mut a, mut b) = engine_pair();
    let msg = Bytes::from(vec![7u8; PING_LEN]);
    for _ in 0..WARMUP_WINDOWS {
        pingpong(&mut a, &mut b, ROUNDS, &msg);
    }
    let frames_before = a.stats().frames_sent + b.stats().frames_sent;
    let allocs = pingpong(&mut a, &mut b, ROUNDS, &msg);
    let frames_sent = a.stats().frames_sent + b.stats().frames_sent - frames_before;
    assert_eq!(frames_sent, frames as u64, "one frame per one-way message");
    assert_eq!(
        allocs,
        driver,
        "16 B round trips: the engine allocated {} times beyond the mem driver \
         over {frames} messages",
        allocs as isize - driver as isize
    );

    // (b) 32-segment bursts: one aggregated frame each way.
    let (mut a, mut b) = engine_pair();
    let msgs: Vec<Bytes> = (0..BURST)
        .map(|t| Bytes::from(vec![t as u8; 8 + 32 * t]))
        .collect();
    for _ in 0..WARMUP_WINDOWS {
        bursts(&mut a, &mut b, ROUNDS, &msgs);
    }
    let frames_before = a.stats().frames_sent + b.stats().frames_sent;
    let allocs = bursts(&mut a, &mut b, ROUNDS, &msgs);
    let frames_sent = a.stats().frames_sent + b.stats().frames_sent - frames_before;
    assert_eq!(frames_sent, frames as u64, "one frame per burst each way");
    assert_eq!(
        allocs,
        driver,
        "32-segment bursts: the engine allocated {} times beyond the mem driver \
         over {} messages",
        allocs as isize - driver as isize,
        BURST * frames
    );
}
