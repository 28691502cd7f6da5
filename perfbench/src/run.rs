//! The two kinds of run: end to end (tracing off) and traced (per
//! layer), plus the fixed-op-count run the self-tests compare.
//!
//! A run is a sequence of sessions (see [`Workload::session_ops`]):
//! each builds a fresh fixture, times its set-up, runs a fixed number
//! of ops and tears the fixture down. Latency and rate figures are taken
//! per stretch of consecutive ops (see [`STRETCHES`]) and reported as
//! the median over the run's stretches.

use crate::report::{Metric, Report};
use crate::trace::{self, harvest, now_ns, ratio, Name, Off, On, Probe, ThreadLog, Totals};
use crate::workloads::{setup, Counters, Fixture, OpResult, Workload};
use nmad_sim::host::costs_madmpi;
use std::collections::BTreeMap;

/// Extra set-up/tear-down cycles before the sessions; `setup_s` is the
/// median over these and every session's set-up.
pub const SETUPS: usize = 15;
/// Stretches per session. Latency percentiles and rates are taken over
/// stretches of consecutive ops (a few milliseconds each) and reported
/// as the median stretch, so a stall of a shared machine that lasts a
/// few milliseconds moves a few stretches, not the result. The
/// whole-run distribution is printed as context.
const STRETCHES: u64 = 100;
/// Fewest ops in a stretch, so its p99 has a sample beyond it.
const MIN_STRETCH: u64 = 100;
/// Empty spans timed to price the recording itself.
const EMPTY_SPANS: u32 = 200_000;
/// A traced session runs this share of a session's ops, which bounds
/// the spans held in memory (a busy progression thread records about
/// 60 MB of spans per second).
const TRACED_SHARE: u64 = 4;

/// One run's parameters.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds of sessions to run (the last session always completes).
    pub seconds: f64,
    /// Damage every n-th echo (0: never); self-tests only.
    pub corrupt_every: u64,
}

impl Config {
    /// The inputs of session `i`: every session draws its own.
    fn inputs(&self, i: u64) -> crate::inputs::Inputs {
        self.workload
            .inputs(self.seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// Ops attempted and failed; a fatal error ends the run.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    fatal: Option<String>,
    next_op: u32,
    sessions: u64,
}

impl Tally {
    /// Runs up to `max_ops` ops; `each` sees every completed op with
    /// its id and the wall time the op call took.
    fn run<P: Probe>(
        &mut self,
        f: &mut dyn Fixture,
        p: P,
        max_ops: u64,
        mut each: impl FnMut(u32, &OpResult, u64),
    ) {
        let mut ran = 0;
        let mut now = now_ns();
        while self.fatal.is_none() && ran < max_ops {
            self.next_op += 1;
            let op = self.next_op;
            ran += 1;
            p.set_op(op);
            self.attempted += 1;
            let result = f.op(op);
            let after = now_ns();
            match result {
                Ok(r) => {
                    self.failed += u64::from(!r.ok);
                    each(op, &r, after - now);
                }
                Err(e) => {
                    self.failed += 1;
                    self.fatal = Some(e);
                }
            }
            now = after;
        }
    }

    /// One session of `ops` ops on a fresh fixture.
    fn session<P: Probe>(
        &mut self,
        cfg: &Config,
        p: P,
        ops: u64,
        mut each: impl FnMut(u32, &OpResult, u64),
    ) -> Result<Session, String> {
        let inputs = cfg.inputs(self.sessions);
        self.sessions += 1;
        let t0 = now_ns();
        let mut f = setup(cfg.workload, inputs, p, cfg.corrupt_every)?;
        let setup_s = (now_ns() - t0) as f64 / 1e9;
        let mut lat = Vec::with_capacity(usize::try_from(ops).unwrap_or(0));
        let stretch_ops = (ops / STRETCHES).max(MIN_STRETCH);
        let mut stretches = Vec::new();
        let (mut from, mut wall_ns, mut bytes) = (0, 0u64, 0u64);
        let mut scratch = Vec::new();
        let start = now_ns();
        self.run(&mut *f, p, ops, |op, r, wall| {
            lat.push(r.latency_ns);
            (wall_ns, bytes) = (wall_ns + wall, bytes + r.bytes);
            if (lat.len() - from) as u64 == stretch_ops {
                scratch.clear();
                scratch.extend_from_slice(&lat[from..]);
                scratch.sort_unstable();
                let secs = wall_ns as f64 / 1e9;
                stretches.push(Stretch {
                    p50_us: percentile(&scratch, 0.50) as f64 / 1e3,
                    p99_us: percentile(&scratch, 0.99) as f64 / 1e3,
                    ops_per_s: stretch_ops as f64 / secs,
                    goodput_mbs: bytes as f64 / secs / 1e6,
                });
                (from, wall_ns, bytes) = (lat.len(), 0, 0);
            }
            each(op, r, wall);
        });
        let end = now_ns();
        let counters = f.finish().unwrap_or_else(|e| {
            self.failed += 1;
            self.fatal.get_or_insert(e);
            Counters::default()
        });
        lat.sort_unstable();
        Ok(Session {
            setup_s,
            lat,
            stretches,
            secs: (end - start) as f64 / 1e9,
            start_ns: start,
            end_ns: end,
            counters,
        })
    }
}

/// Figures of one stretch of consecutive ops.
#[derive(Clone, Copy, Debug)]
struct Stretch {
    p50_us: f64,
    p99_us: f64,
    ops_per_s: f64,
    goodput_mbs: f64,
}

/// What one session measured.
struct Session {
    setup_s: f64,
    /// Op latencies, sorted.
    lat: Vec<u64>,
    stretches: Vec<Stretch>,
    secs: f64,
    start_ns: u64,
    end_ns: u64,
    /// The fixture's counters at the end: the session's totals.
    counters: Counters,
}

impl Session {
    fn p50_us(&self) -> f64 {
        percentile(&self.lat, 0.50) as f64 / 1e3
    }
}

/// Median over every stretch of `sessions` of `f(stretch)`.
fn median_stretch(sessions: &[Session], f: impl Fn(&Stretch) -> f64) -> f64 {
    let mut v: Vec<f64> = (sessions.iter())
        .flat_map(|s| s.stretches.iter().map(&f))
        .collect();
    median(&mut v)
}

/// Median of `v` (sorts it); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0–1) of sorted `v`.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Runs one untimed warm-up session, then sessions of `ops` ops until
/// `seconds` have passed (at least one).
fn sessions<P: Probe>(
    cfg: &Config,
    tally: &mut Tally,
    p: P,
    ops: u64,
    seconds: f64,
) -> Result<Vec<Session>, String> {
    tally.session(cfg, p, ops, |_, _, _| {})?;
    let start = now_ns();
    let mut out = Vec::new();
    while tally.fatal.is_none() && (out.is_empty() || ((now_ns() - start) as f64) < seconds * 1e9) {
        out.push(tally.session(cfg, p, ops, |_, _, _| {})?);
    }
    Ok(out)
}

/// The end-to-end run, tracing off.
pub fn end_to_end(cfg: &Config) -> Result<Report, String> {
    let w = cfg.workload;
    let mut tally = Tally::default();
    let mut setups = Vec::with_capacity(SETUPS);
    for i in 0..SETUPS as u64 {
        let inputs = cfg.inputs(i);
        let t0 = now_ns();
        let f = setup(w, inputs, Off, cfg.corrupt_every)?;
        setups.push((now_ns() - t0) as f64 / 1e9);
        f.finish()?;
    }
    let sessions = sessions(cfg, &mut tally, Off, w.session_ops(), cfg.seconds)?;
    setups.extend(sessions.iter().map(|s| s.setup_s));

    let ops: u64 = sessions.iter().map(|s| s.lat.len() as u64).sum();
    let frames: u64 = sessions.iter().map(|s| s.counters.wire.frames_sent).sum();
    let secs: f64 = sessions.iter().map(|s| s.secs).sum();
    let mut all: Vec<u64> = sessions
        .iter()
        .flat_map(|s| s.lat.iter().copied())
        .collect();
    all.sort_unstable();
    let mut context = vec![
        format!(
            "{} seed={}: {} sessions of {} ops in {secs:.2} s; failed_ops_ratio {} ({}/{})",
            w.name(),
            cfg.seed,
            sessions.len(),
            w.session_ops(),
            ratio(tally.failed as f64, tally.attempted as f64),
            tally.failed,
            tally.attempted,
        ),
        latency_line("latency over all sessions", &all),
        // Tails move with the host's load far more than medians do
        // (burst-mpi-mem's p99 spread 29 % over ten runs on a shared
        // VM), so they are printed, not declared.
        format!(
            "latency p99 of a stretch, median over stretches: {:.2} us",
            median_stretch(&sessions, |s| s.p99_us)
        ),
        format!(
            "per-session p50 us {:?}",
            sessions
                .iter()
                .map(|s| (s.p50_us() * 100.0).round() / 100.0)
                .collect::<Vec<_>>()
        ),
        format!("setup_s is the median of {} set-ups", setups.len()),
    ];
    if let Some(e) = &tally.fatal {
        context.push(format!("fatal: {e}"));
    }
    let metrics = vec![
        Metric::new(
            "latency_p50_us",
            median_stretch(&sessions, |s| s.p50_us),
            "us",
        ),
        Metric::new(
            "ops_per_s",
            median_stretch(&sessions, |s| s.ops_per_s),
            "1/s",
        ),
        Metric::new(
            "goodput_mbs",
            median_stretch(&sessions, |s| s.goodput_mbs),
            "MB/s",
        ),
        Metric::new(
            "frames_per_msg",
            ratio(frames as f64, (ops * w.msgs_per_op()) as f64),
            "frames/msg",
        ),
        Metric::new("setup_s", median(&mut setups), "s"),
    ];
    Ok(Report {
        correct: tally.failed == 0 && tally.fatal.is_none(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        context,
    })
}

/// `p50 … max` of sorted latencies, with how many samples lie beyond
/// the highest percentile reported.
fn latency_line(what: &str, sorted: &[u64]) -> String {
    let n = sorted.len();
    let us = |q| percentile(sorted, q) as f64 / 1e3;
    let mut line = format!(
        "{what}: n={n} p50 {:.2} us, p99 {:.2} us",
        us(0.50),
        us(0.99)
    );
    // The highest of these with at least ten samples beyond it.
    for (q, label) in [(0.9999, "p99.99"), (0.999, "p99.9")] {
        let beyond = n - (q * n as f64).ceil() as usize;
        if beyond >= 10 {
            line += &format!(", {label} {:.2} us ({beyond} samples beyond)", us(q));
            break;
        }
    }
    line + &format!(", max {:.2} us", us(1.0))
}

/// The traced run: untraced sessions for 90 % of the time (their median
/// p50 prices the tracing), then one traced session; per-layer metrics
/// come from the traced session. Both use sessions of a quarter of the
/// usual length.
pub fn traced(cfg: &Config) -> Result<Report, String> {
    let w = cfg.workload;
    let ops = w.session_ops() / TRACED_SHARE;
    let mut tally = Tally::default();
    let untraced = sessions(cfg, &mut tally, Off, ops, cfg.seconds * 0.9)?;

    drop(harvest());
    let probe = On;
    let first_op = tally.next_op + 1;
    let mut traced_ops: Vec<TracedOp> = Vec::new();
    let session = tally.session(cfg, probe, ops, |_, r, wall_ns| {
        traced_ops.push(TracedOp { r: *r, wall_ns })
    })?;
    let logs = harvest();
    let cost = trace::span_cost(EMPTY_SPANS);

    let traced = Traced {
        w,
        logs: &logs,
        ops: &traced_ops,
        first_op,
        t0: session.start_ns,
        t1: session.end_ns,
        counters: session.counters.clone(),
        cost,
        p50_untraced: median_stretch(&untraced, |s| s.p50_us),
        p50_traced: median_stretch(std::slice::from_ref(&session), |s| s.p50_us),
    };
    let dropped: u64 = logs.iter().map(|l| l.dropped).sum();
    let spans: usize = logs.iter().map(|l| l.spans.len()).sum();
    let mut context = vec![
        format!(
            "{} seed={} traced: one session of {ops} ops after {} untraced; \
             {spans} spans kept, {dropped} dropped; a span costs {:.1} ns inside \
             its duration and {:.1} ns outside",
            w.name(),
            cfg.seed,
            untraced.len(),
            cost.inside_ns,
            cost.outside_ns,
        ),
        format!(
            "untraced session p50 us {:?}",
            untraced
                .iter()
                .map(|s| (s.p50_us() * 100.0).round() / 100.0)
                .collect::<Vec<_>>()
        ),
        latency_line("traced latency", &session.lat),
    ];
    if let Some(e) = &tally.fatal {
        context.push(format!("fatal: {e}"));
    }
    Ok(Report {
        correct: tally.failed == 0 && tally.fatal.is_none(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: traced.metrics(),
        context,
    })
}

/// One traced op.
struct TracedOp {
    r: OpResult,
    /// Wall time of the op call (for `stream-tcp` shorter than the
    /// message's submit-to-delivery latency).
    wall_ns: u64,
}

/// What the traced part recorded.
struct Traced<'a> {
    w: Workload,
    logs: &'a [ThreadLog],
    ops: &'a [TracedOp],
    first_op: u32,
    t0: u64,
    t1: u64,
    /// The traced session's counters.
    counters: Counters,
    cost: trace::SpanCost,
    p50_untraced: f64,
    p50_traced: f64,
}

impl Traced<'_> {
    /// The calling thread's log: the op loop's.
    fn own(&self) -> &ThreadLog {
        &self.logs[self.logs.len() - 1]
    }

    fn is_traced_op(&self, op: u32) -> bool {
        (self.first_op..self.first_op + self.ops.len() as u32).contains(&op)
    }

    /// Per-boundary totals over the traced ops: the op loop's spans by
    /// op id, other threads' spans by time.
    fn totals(&self) -> BTreeMap<Name, Totals> {
        let own = self.logs.len() - 1;
        let mut out: BTreeMap<Name, Totals> = BTreeMap::new();
        for (i, log) in self.logs.iter().enumerate() {
            let selfs = trace::self_times(log, self.cost.outside_ns);
            for (s, self_ns) in log.spans.iter().zip(selfs) {
                let keep = if i == own {
                    self.is_traced_op(s.op)
                } else {
                    (self.t0..self.t1).contains(&s.start_ns)
                };
                if keep {
                    out.entry(s.name).or_default().add(s, self_ns);
                }
            }
        }
        out
    }

    /// Op wall time not covered by a span of the op loop's thread (nor
    /// by recording cost), per op: benchmark work such as payload
    /// checks, and waiting on another thread.
    fn unattributed_ns_per_op(&self) -> f64 {
        let covered: f64 = (self.own().spans.iter())
            .filter(|s| s.parent == trace::NO_PARENT && self.is_traced_op(s.op))
            .map(|s| f64::from(s.dur_ns) + self.cost.outside_ns)
            .sum();
        let total: u64 = self.ops.iter().map(|o| o.wall_ns).sum();
        ratio(total as f64 - covered, self.ops.len() as f64)
    }

    /// Every per-layer metric. A layer the workload does not reach
    /// reads 0.
    fn metrics(&self) -> Vec<Metric> {
        let t = self.totals();
        let get = |n: Name| t.get(&n).copied().unwrap_or_default();
        let msgs = self.ops.len() as f64 * self.w.msgs_per_op() as f64;
        let bytes: f64 = self.ops.iter().map(|o| o.r.bytes as f64).sum();
        let c = &self.counters.engine;
        let (test, progress, sched) = (
            get(Name::MpiTest),
            get(Name::EngineProgress),
            get(Name::StrategySchedule),
        );
        let (polls, posts, take) = (
            get(Name::DriverPollRecv),
            get(Name::DriverPostSend),
            get(Name::ThreadedTryTakeRecv),
        );
        let driver_ns: u64 = (t.iter())
            .filter(|(n, _)| n.is_driver())
            .map(|(_, x)| x.total_ns)
            .sum();
        let (api_isend, api_recv) = (
            get(Name::ApiIsend).mean_ns(),
            get(Name::ApiPostRecv).mean_ns(),
        );

        // The simulator's cost model against the measured calls, net of
        // the clock read inside every span.
        let model = costs_madmpi();
        let modeled_schedule = model.scheduler_inspect.as_ns() as f64
            + model.per_entry.as_ns() as f64 * ratio(sched.arg as f64, sched.count as f64);
        let net = |ns: f64, modeled: f64| {
            if ns == 0.0 {
                0.0
            } else {
                (ns - self.cost.inside_ns) / modeled
            }
        };
        let per_call = |n: u64| ratio(n as f64, msgs);
        let share = |part: u64, whole: u64| ratio(part as f64, whole as f64);
        let mean = |n: Name| get(n).mean_ns();
        let m = Metric::new;
        vec![
            m("mad_mpi.isend_ns", mean(Name::MpiIsend), "ns"),
            m("mad_mpi.irecv_ns", mean(Name::MpiIrecv), "ns"),
            m("mad_mpi.test_ns", test.mean_ns(), "ns"),
            m(
                "mad_mpi.test_calls_per_msg",
                per_call(test.count),
                "calls/msg",
            ),
            m("mad_mpi.take_ns", mean(Name::MpiTake), "ns"),
            m("api.isend_ns", api_isend, "ns"),
            m("api.post_recv_ns", api_recv, "ns"),
            m("api.try_take_recv_ns", mean(Name::ApiTryTakeRecv), "ns"),
            m("api.is_recv_done_ns", mean(Name::ApiIsRecvDone), "ns"),
            m(
                "engine.progress_ns_per_msg",
                per_call(progress.total_ns),
                "ns/msg",
            ),
            m(
                "engine.progress_self_ns_per_msg",
                ratio(progress.self_ns, msgs),
                "ns/msg",
            ),
            m(
                "engine.progress_calls_per_msg",
                per_call(progress.count),
                "calls/msg",
            ),
            m(
                "engine.idle_progress_ratio",
                share(progress.count - progress.arg_nonzero, progress.count),
                "ratio",
            ),
            m(
                "engine.aggregation_ratio",
                share(c.entries_aggregated, c.frames_synthesized),
                "entries/frame",
            ),
            m(
                "engine.window_depth_hwm",
                c.window_depth_hwm as f64,
                "segments",
            ),
            m(
                "engine.pool_hit_ratio",
                share(c.pool_hits, c.pool_hits + c.pool_misses),
                "ratio",
            ),
            m(
                "engine.bytes_copied_rx_per_byte",
                ratio(c.bytes_copied_rx as f64, bytes),
                "B/B",
            ),
            m(
                "engine.rendezvous_entries_per_msg",
                per_call(c.rendezvous_entries),
                "entries/msg",
            ),
            m("strategy.schedule_ns", sched.mean_ns(), "ns"),
            m(
                "strategy.schedule_calls_per_frame",
                share(sched.count, sched.arg_nonzero),
                "calls/frame",
            ),
            m(
                "strategy.empty_schedule_ratio",
                share(sched.count - sched.arg_nonzero, sched.count),
                "ratio",
            ),
            m(
                "strategy.entries_per_plan",
                share(sched.arg, sched.arg_nonzero),
                "entries/plan",
            ),
            m(
                "strategy.window_depth_at_schedule",
                share(sched.arg2, sched.count),
                "segments",
            ),
            m("driver.post_send_ns", posts.mean_ns(), "ns"),
            m("driver.poll_recv_ns", polls.mean_ns(), "ns"),
            m(
                "driver.poll_hit_ratio",
                share(polls.arg2, polls.count),
                "ratio",
            ),
            m("driver.pump_ns", mean(Name::DriverPump), "ns"),
            m("driver.test_send_ns", mean(Name::DriverTestSend), "ns"),
            m(
                "driver.ns_per_payload_byte",
                ratio(driver_ns as f64, bytes),
                "ns/B",
            ),
            m(
                "driver.wire_bytes_per_payload_byte",
                ratio(posts.arg as f64, bytes),
                "B/B",
            ),
            m("threaded.isend_ns", mean(Name::ThreadedIsend), "ns"),
            m("threaded.post_recv_ns", mean(Name::ThreadedPostRecv), "ns"),
            m("threaded.try_take_recv_ns", take.mean_ns(), "ns"),
            m(
                "threaded.take_miss_ratio",
                share(take.count - take.arg_nonzero, take.count),
                "ratio",
            ),
            m(
                "trace.unattributed_ns_per_op",
                self.unattributed_ns_per_op(),
                "ns/op",
            ),
            m(
                "trace.overhead_pct",
                (ratio(self.p50_traced, self.p50_untraced) - 1.0) * 100.0,
                "%",
            ),
            m("trace.empty_span_ns", self.cost.inside_ns, "ns"),
            m(
                "model.per_request_ratio",
                net(api_isend, model.per_request.as_ns() as f64),
                "ratio",
            ),
            m(
                "model.per_recv_ratio",
                net(api_recv, model.per_recv.as_ns() as f64),
                "ratio",
            ),
            m(
                "model.scheduler_inspect_ratio",
                net(sched.mean_ns(), modeled_schedule),
                "ratio",
            ),
        ]
    }
}

/// Runs exactly `ops` ops on a fresh fixture, decorated or not, and
/// returns the program's counters: tracing must not change them.
pub fn fixed_ops(
    w: Workload,
    seed: u64,
    ops: u64,
    traced: bool,
    corrupt_every: u64,
) -> Result<(Counters, u64), String> {
    fn go<P: Probe>(
        w: Workload,
        seed: u64,
        ops: u64,
        p: P,
        corrupt_every: u64,
    ) -> Result<(Counters, u64), String> {
        let mut f = setup(w, w.inputs(seed), p, corrupt_every)?;
        let mut tally = Tally::default();
        tally.run(&mut *f, p, ops, |_, _, _| {});
        let c = f.finish()?;
        drop(harvest());
        match tally.fatal {
            Some(e) => Err(e),
            None => Ok((c, tally.failed)),
        }
    }
    if traced {
        go(w, seed, ops, On, corrupt_every)
    } else {
        go(w, seed, ops, Off, corrupt_every)
    }
}
