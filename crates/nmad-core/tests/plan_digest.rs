//! Pinned plan sequences of every built-in strategy.
//!
//! A fixed splitmix64 seed builds a few hundred optimization windows
//! mixing destinations, tags, all four priority lanes, lengths on both
//! sides of every eager cutoff in play, control messages and granted
//! rendezvous jobs. Each strategy drains every window under three NIC
//! configurations (one MX rail, one MX rail with an 8 KiB MTU, and an
//! MX + Quadrics pair that loses its second rail part-way through a
//! third of the windows). Every plan is folded into an FNV-1a digest:
//! destination, reorder count and each entry's kind and fields.
//!
//! The constants pin the plans each strategy makes today, so any
//! change to what a strategy plans — frame contents, entry order,
//! chunk sizes, destination choice — moves a digest. No randomness beyond the fixed seed and no timing,
//! so the test is exact. FNV-1a rather than `DefaultHasher`, whose
//! output is not stable across toolchains.

use bytes::Bytes;
use nmad_core::strategy::{
    FramePlan, NicView, PlanEntry, StratAggreg, StratAggregHol, StratDefault, StratDynamic,
    StratLanes, StratMultirail, StratReorder, Strategy, Tactic,
};
use nmad_core::{CtrlMsg, PackWrapper, Priority, RdvJob, SendReqId, SeqNo, Tag, Window};
use nmad_net::Capabilities;
use nmad_sim::{nic, NodeId};
use std::collections::HashMap;

const SEED: u64 = 0x6e6d_6164_2d70_6c61;
const WINDOWS: usize = 300;

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below((hi - lo + 1) as u64) as usize
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

enum Item {
    Seg { wrapper: PackWrapper, hint: u8 },
    Ctrl(CtrlMsg),
    Rdv(RdvJob),
}

/// One generated window, rebuilt fresh for every strategy run.
struct Scenario {
    items: Vec<Item>,
    /// Whether the two-rail run loses rail 1 after two plans.
    fault: bool,
}

fn scenarios() -> Vec<Scenario> {
    let body = Bytes::from(vec![0x5au8; 256 * 1024]);
    let mut rng = SplitMix(SEED);
    let mut seqs: HashMap<(u32, u32), u32> = HashMap::new();
    let mut req = 0u64;
    (0..WINDOWS)
        .map(|i| {
            let n = rng.range(1, 40);
            let mut order = rng.below(64);
            let items = (0..n)
                .map(|_| {
                    order += rng.below(100);
                    let dst = NodeId(1 + rng.below(3) as u32);
                    let tag = Tag(rng.below(5) as u32);
                    let seq = seqs.entry((dst.0, tag.0)).or_insert(0);
                    let this_seq = SeqNo(*seq);
                    *seq += 1;
                    req += 1;
                    let len = match rng.below(8) {
                        0 | 1 => rng.range(0, 64),
                        2 => rng.range(65, 2048),
                        3 => rng.range(2049, 5000),
                        // Both sides of each eager cutoff in play: the
                        // 8 KiB-MTU frame, Quadrics' and MX's thresholds.
                        4 => {
                            let cutoff = [8164, 16 * 1024, 32 * 1024][rng.below(3) as usize];
                            rng.range(cutoff - 48, cutoff + 48)
                        }
                        5 => rng.range(4000, 8200),
                        _ => rng.range(32 * 1024 + 1, 200 * 1024),
                    };
                    match rng.below(100) {
                        0..=7 => Item::Ctrl(CtrlMsg {
                            dst,
                            tag,
                            seq: this_seq,
                            total: len as u32,
                        }),
                        8..=15 => Item::Rdv(
                            RdvJob::new(
                                dst,
                                tag,
                                this_seq,
                                body.slice(0..len.max(1)),
                                SendReqId(req),
                            )
                            .with_order(order),
                        ),
                        _ => Item::Seg {
                            wrapper: PackWrapper {
                                dst,
                                tag,
                                seq: this_seq,
                                priority: Priority::from_lane(rng.below(4) as u8),
                                data: body.slice(0..len),
                                req: SendReqId(req),
                                order,
                            },
                            hint: rng.below(8) as u8,
                        },
                    }
                })
                .collect();
            Scenario {
                items,
                fault: i % 3 == 0,
            }
        })
        .collect()
}

fn build(scenario: &Scenario, nics: usize) -> Window {
    let mut w = Window::new(nics);
    for item in &scenario.items {
        match item {
            // One segment in eight is pinned to a rail, the rest go to
            // the common list.
            Item::Seg { wrapper, hint } => {
                let rail = (*hint < 2).then_some(usize::from(*hint) % nics);
                w.push_segment(wrapper.clone(), rail);
            }
            Item::Ctrl(msg) => w.push_ctrl(msg.clone()),
            Item::Rdv(job) => w.push_rdv(job.clone()),
        }
    }
    w
}

fn fold_wrapper(h: &mut Fnv, w: &PackWrapper) {
    h.u64(u64::from(w.dst.0));
    h.u64(u64::from(w.tag.0));
    h.u64(u64::from(w.seq.0));
    h.u64(u64::from(w.priority.lane()));
    h.u64(w.data.len() as u64);
    h.u64(w.req.0);
    h.u64(w.order);
}

fn fold_plan(h: &mut Fnv, rail: usize, plan: &FramePlan) {
    h.u64(rail as u64);
    h.u64(u64::from(plan.dst.0));
    h.u64(u64::from(plan.reordered));
    h.u64(plan.entries.len() as u64);
    for entry in &plan.entries {
        match entry {
            PlanEntry::Cts(c) => {
                h.u64(1);
                h.u64(u64::from(c.dst.0));
                h.u64(u64::from(c.tag.0));
                h.u64(u64::from(c.seq.0));
                h.u64(u64::from(c.total));
            }
            PlanEntry::Data(w) => {
                h.u64(2);
                fold_wrapper(h, w);
            }
            PlanEntry::Rts(w) => {
                h.u64(3);
                fold_wrapper(h, w);
            }
            PlanEntry::RdvChunk(c) => {
                h.u64(4);
                h.u64(u64::from(c.dst.0));
                h.u64(u64::from(c.tag.0));
                h.u64(u64::from(c.seq.0));
                h.u64(u64::from(c.offset));
                h.u64(c.data.len() as u64);
                h.u64(u64::from(c.last));
                h.u64(c.req.0);
            }
        }
    }
}

/// Drains `w` through `s` on the rails of `caps`, round-robin over the
/// live rails, until every live rail gets `None` in a row.
fn drain(h: &mut Fnv, s: &mut dyn Strategy, w: &mut Window, caps: &[Capabilities], fault: bool) {
    let mut live = caps.len();
    let mut rail = 0;
    let mut idle = 0;
    let mut plans = 0usize;
    loop {
        match s.schedule(
            w,
            &NicView {
                index: rail,
                caps: &caps[rail],
            },
        ) {
            Some(plan) => {
                fold_plan(h, rail, &plan);
                idle = 0;
                plans += 1;
                assert!(plans < 100_000, "runaway scheduling");
            }
            None => {
                idle += 1;
                if idle >= live {
                    break;
                }
            }
        }
        if fault && live == 2 && plans == 2 {
            // Rail 1 dies: the strategy re-plans over the survivor and
            // the engine moves its pinned segments to the common list.
            s.on_rail_fault(1);
            h.u64(w.reclaim_dedicated(1) as u64);
            live = 1;
        }
        rail = (rail + 1) % live;
    }
    h.u64(u64::from(w.is_empty()));
    h.u64((0..caps.len()).map(|n| w.depth_for(n)).sum::<usize>() as u64);
}

fn caps_sets() -> [Vec<Capabilities>; 3] {
    let mx = Capabilities::from_nic(&nic::mx_myri10g());
    let mut mx_8k = mx.clone();
    mx_8k.mtu = 8 * 1024;
    let quadrics = Capabilities::from_nic(&nic::quadrics_qm500());
    [vec![mx.clone()], vec![mx_8k], vec![mx, quadrics]]
}

/// Digest of `make()`'s plans over every scenario and NIC set;
/// `extra` folds strategy-specific state after each run.
fn digest<S: Strategy>(make: impl Fn() -> S, extra: impl Fn(&mut Fnv, &S)) -> u64 {
    let mut h = Fnv::new();
    for caps in caps_sets() {
        for scenario in scenarios() {
            let mut s = make();
            s.init(&caps);
            let mut w = build(&scenario, caps.len());
            drain(&mut h, &mut s, &mut w, &caps, scenario.fault);
            extra(&mut h, &s);
        }
    }
    h.0
}

fn none<S>(_: &mut Fnv, _: &S) {}

fn dynamic(forced: Option<Tactic>) -> u64 {
    digest(
        || {
            let mut s = StratDynamic::new();
            s.force(forced);
            s
        },
        |h, s| {
            let st = s.stats();
            h.u64(st.latency_picks);
            h.u64(st.aggregate_picks);
            h.u64(st.reorder_picks);
        },
    )
}

#[test]
fn plan_digests_are_pinned() {
    let actual = [
        ("default", digest(|| StratDefault, none)),
        ("aggreg", digest(|| StratAggreg, none)),
        ("reorder", digest(|| StratReorder, none)),
        ("multirail", digest(StratMultirail::default, none)),
        ("aggreg_hol", digest(StratAggregHol::new, none)),
        (
            "aggreg_hol(1024, 64)",
            digest(|| StratAggregHol::with_cap(1024, 64), none),
        ),
        ("lanes", digest(StratLanes::new, none)),
        (
            "lanes(8, 256, 64)",
            digest(|| StratLanes::with_params(8, 256, 64), none),
        ),
        ("dynamic", dynamic(None)),
        ("dynamic/latency", dynamic(Some(Tactic::Latency))),
        ("dynamic/aggregate", dynamic(Some(Tactic::Aggregate))),
        ("dynamic/reorder", dynamic(Some(Tactic::Reorder))),
    ];
    let pinned: [(&str, u64); 12] = [
        ("default", 0x94df_1aeb_ddc1_2d06),
        ("aggreg", 0x4c67_0974_4a06_d2d5),
        ("reorder", 0x55de_cc68_5fe8_8c5f),
        ("multirail", 0xb934_022b_9c0d_bbba),
        ("aggreg_hol", 0xa1be_7dc4_445d_5d1c),
        ("aggreg_hol(1024, 64)", 0xf1f0_d978_4bc5_3e09),
        ("lanes", 0x2451_a328_af13_c41f),
        ("lanes(8, 256, 64)", 0x0596_5512_12c4_0070),
        ("dynamic", 0xadd2_aa5f_8b40_fe09),
        ("dynamic/latency", 0x415d_5621_e4a8_409e),
        ("dynamic/aggregate", 0x0491_ef47_c6c7_aef3),
        ("dynamic/reorder", 0xd675_e9f4_5559_1de1),
    ];
    let moved: Vec<String> = actual
        .iter()
        .zip(&pinned)
        .filter(|((_, got), (_, want))| got != want)
        .map(|((name, got), (_, want))| format!("{name}: {got:#018x} (pinned {want:#018x})"))
        .collect();
    assert!(
        moved.is_empty(),
        "plan digests moved:\n{}",
        moved.join("\n")
    );
}

#[test]
fn scenarios_cover_every_plan_entry_kind() {
    // Guards the generator itself: a digest over windows that never
    // exercise a path would pin nothing about it.
    let caps = caps_sets();
    let mut kinds = [0usize; 4];
    let mut lanes = [0usize; 4];
    let mut reordered = 0;
    for scenario in scenarios() {
        for item in &scenario.items {
            if let Item::Seg { wrapper, .. } = item {
                lanes[usize::from(wrapper.priority.lane())] += 1;
            }
        }
        let mut s = StratReorder;
        let mut w = build(&scenario, 1);
        while let Some(plan) = s.schedule(
            &mut w,
            &NicView {
                index: 0,
                caps: &caps[1][0],
            },
        ) {
            reordered += plan.reordered;
            for e in &plan.entries {
                kinds[match e {
                    PlanEntry::Cts(_) => 0,
                    PlanEntry::Data(_) => 1,
                    PlanEntry::Rts(_) => 2,
                    PlanEntry::RdvChunk(_) => 3,
                }] += 1;
            }
        }
    }
    assert!(kinds.iter().all(|&k| k > 0), "entry kinds {kinds:?}");
    assert!(lanes.iter().all(|&l| l > 0), "lanes {lanes:?}");
    assert!(reordered > 0);
}
