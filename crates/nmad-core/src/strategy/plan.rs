//! The window planner: the one frame-synthesis path behind every
//! built-in strategy. A [`Policy`] holds a strategy's four choices as
//! a value and [`plan`] executes it against the window, so a named
//! strategy is a data-only type returning its policy ([`PlanPolicy`]).

use super::{eager_cutoff, FramePlan, NicView, PlanEntry, StratMultirail, Strategy};
use crate::idhash::IdMap;
use crate::segment::{PackWrapper, Priority, Tag, NUM_LANES};
use crate::window::Window;
use crate::wire::{ENTRY_HEADER_LEN, FRAME_HEADER_LEN};
use nmad_net::Capabilities;
use nmad_sim::NodeId;

/// Where the next frame goes. Pending grants always win: each one
/// unblocks a receiver that already pinned its buffer.
pub(super) enum Dst {
    /// The window's own urgency order ([`Window::next_dst`]).
    Front,
    /// The oldest segment of the most urgent non-empty lane. FIFO
    /// fills never skip the front segment, so an empty frame there is
    /// retried at the front's destination: multi-destination windows
    /// keep draining.
    Urgent,
    /// The oldest segment by [`effective_lane`].
    Lanes { age_step: u64 },
}

/// How large a granted rendezvous chunk may be.
pub(super) enum ChunkCap<'a> {
    /// As large as the frame allows.
    None,
    /// This rail's bandwidth share of the job.
    RailShare(&'a StratMultirail),
    /// Deadline-aware admission ([`rdv_admission_cap`]).
    Deadline(u64),
}

/// How fresh segments fill the rest of the frame.
pub(super) enum Fill {
    /// The front segment alone, and only into an otherwise empty frame.
    Single,
    /// FIFO aggregation. With a `hol_cap`, payload from lanes less
    /// urgent than the most urgent pending segment stops growing at
    /// that many bytes; the first payload entry is always admitted,
    /// since refusing the front segment would stall the window.
    Fifo { hol_cap: Option<usize> },
    /// Expedited lanes, then every RTS, then any small segment that
    /// still fits, each pass skipping what does not match.
    Reorder,
    /// Strict effective-lane service, FIFO inside a lane, at most
    /// `quantum` payload bytes per tenant (tag) per lane round.
    Lanes { age_step: u64, quantum: usize },
}

/// One strategy's choices, executed by [`plan`].
pub(super) struct Policy<'a> {
    pub dst: Dst,
    /// Grants leave in a frame of their own (minimal grant latency).
    pub ctrl_alone: bool,
    pub cap: ChunkCap<'a>,
    pub fill: Fill,
}

impl Policy<'_> {
    /// The paper's aggregation: FIFO destination, grants and granted
    /// rendezvous payload riding along with FIFO-aggregated segments.
    pub const AGGREG: Policy<'static> = Policy {
        dst: Dst::Front,
        ctrl_alone: false,
        cap: ChunkCap::None,
        fill: Fill::Fifo { hol_cap: None },
    };
}

/// A strategy that is nothing but a [`Policy`] for the planner.
pub(super) trait PlanPolicy: Clone + Send + 'static {
    /// Stable name for reports ([`Strategy::name`]).
    const NAME: &'static str;

    /// The policy planning the next frame for a NIC with `caps`.
    fn policy(&self, caps: &Capabilities) -> Policy<'_>;
}

impl<P: PlanPolicy> Strategy for P {
    fn name(&self) -> &'static str {
        P::NAME
    }

    fn for_shard(&self, _shard: usize, _shards: usize) -> Box<dyn Strategy> {
        Box::new(self.clone())
    }

    fn schedule(&mut self, window: &mut Window, nic: &NicView<'_>) -> Option<FramePlan> {
        plan(&self.policy(nic.caps), window, nic)
    }
}

/// Synthesizes the next frame for `nic` under `policy`, or `None` when
/// the window holds nothing the policy can send on this NIC. Inlined so
/// a strategy with a constant policy gets the planner specialized to it.
#[inline(always)]
pub(super) fn plan(
    policy: &Policy<'_>,
    window: &mut Window,
    nic: &NicView<'_>,
) -> Option<FramePlan> {
    let urgent = match policy.dst {
        Dst::Front => None,
        Dst::Urgent => hottest_lane(window)
            .and_then(|l| window.global_oldest_in_lane(l))
            .map(|(d, _)| d),
        Dst::Lanes { age_step } => oldest_effective(window, age_step),
    };
    let dst = (window.ctrl_ref().front().map(|c| c.dst))
        .or(urgent)
        .or_else(|| window.next_dst(nic.index))?;
    let planned = frame_towards(policy, dst, window, nic);
    if planned.is_some() || !matches!(policy.dst, Dst::Urgent) {
        return planned;
    }
    let front = window.next_dst(nic.index)?;
    if front == dst {
        return None;
    }
    frame_towards(policy, front, window, nic)
}

/// Synthesizes one frame towards `dst`; `None` when nothing for that
/// destination is admissible right now. The plan is built in an entry
/// vector recycled through the window, and an empty one goes back.
#[inline(always)]
fn frame_towards(
    policy: &Policy<'_>,
    dst: NodeId,
    window: &mut Window,
    nic: &NicView<'_>,
) -> Option<FramePlan> {
    let mut plan = FramePlan {
        dst,
        entries: window.take_plan_entries(),
        reordered: 0,
    };
    let mut budget = Budget::new(nic.caps);

    // Control entries are tiny; the budget cannot realistically
    // overflow, but keep the arithmetic honest.
    for msg in window.drain_ctrl_for(dst) {
        if !budget.fits(0, 0) {
            window.push_ctrl(msg);
            break;
        }
        budget.add(0, 0);
        plan.entries.push(PlanEntry::Cts(msg));
    }
    if policy.ctrl_alone && !plan.is_empty() {
        return Some(plan);
    }

    // Granted rendezvous payload next: the receiver is already waiting.
    // Chunks are exempt from the eager payload ceiling (they *are* the
    // large transfers it diverts) and length-prefixed with u32.
    let cap = match policy.cap {
        ChunkCap::None => usize::MAX,
        ChunkCap::RailShare(rails) => window
            .rdv_front_for(dst)
            .map_or(usize::MAX, |j| rails.quantum(nic.index, j.remaining())),
        ChunkCap::Deadline(deadline) => rdv_admission_cap(window, dst, nic.caps, deadline),
    };
    let room = (budget.frame_limit.saturating_sub(budget.frame))
        .saturating_sub(ENTRY_HEADER_LEN)
        .min(cap)
        .min(u32::MAX as usize);
    if room > 0 {
        if let Some(chunk) = window.take_rdv_chunk(dst, room) {
            budget.add(0, chunk.data.len());
            plan.entries.push(PlanEntry::RdvChunk(chunk));
        }
    }

    match policy.fill {
        Fill::Single => {
            if plan.is_empty() {
                if let Some(w) = window.take_front_if(nic.index, |w| w.dst == dst) {
                    budget.admit(&mut plan, w);
                }
            }
        }
        Fill::Fifo { hol_cap } => {
            let hol = hol_cap.and_then(|cap| hottest_lane(window).map(|hot| (hot, cap)));
            // An RTS is tiny and escapes the HOL cap, but it still
            // needs room: a segment that does not fit stays where it is
            // (FIFO place, rail pin) for the next frame.
            while let Some(w) = window.take_front_if(nic.index, |w| {
                w.dst == dst
                    && budget.admits(w)
                    && (w.len() > budget.cutoff
                        || hol.is_none_or(|(hot, cap)| {
                            hot >= w.priority.lane()
                                || budget.payload == 0
                                || budget.payload + w.len() <= cap
                        }))
            }) {
                budget.admit(&mut plan, w);
            }
        }
        Fill::Reorder => {
            // Expedited segments jump the whole queue (the RPC
            // service-id scenario of §2); every large segment then
            // contributes its RTS, so the rendezvous handshakes overlap;
            // small segments fill the rest (this is the reordering).
            reorder_pass(window, nic.index, &mut plan, &mut budget, |w, b| {
                w.priority.is_expedited() && b.admits(w)
            });
            reorder_pass(window, nic.index, &mut plan, &mut budget, |w, b| {
                w.len() > b.cutoff
            });
            reorder_pass(window, nic.index, &mut plan, &mut budget, |w, b| {
                b.fits(w.len(), w.len())
            });
        }
        Fill::Lanes { age_step, quantum } => {
            let horizon = window.order_horizon();
            for service in 0..NUM_LANES as u8 {
                let mut used: IdMap<Tag, usize> = IdMap::default();
                loop {
                    let round = plan.entries.len();
                    while let Some((w, jumped)) =
                        window.take_first_matching_tracked(nic.index, |w| {
                            w.dst == dst
                                && effective_lane(age_step, horizon, w.priority, w.order) == service
                                && budget.admits(w)
                                && used.get(&w.tag).copied().unwrap_or(0) < quantum
                        })
                    {
                        plan.reordered += u32::from(jumped);
                        *used.entry(w.tag).or_insert(0) += w.len().max(1);
                        budget.admit(&mut plan, w);
                    }
                    // Every pending tenant in this lane may have spent
                    // its quantum: grant a fresh round, but only if this
                    // one made progress (else nothing here fits).
                    if plan.entries.len() == round {
                        break;
                    }
                    used.clear();
                }
            }
        }
    }
    if plan.is_empty() {
        window.recycle_plan_entries(plan.entries);
        return None;
    }
    Some(plan)
}

/// Takes, in window order, every segment towards the frame's
/// destination that `pass` admits while the frame has room for an
/// entry (so an RTS always fits), skipping the rest.
fn reorder_pass(
    window: &mut Window,
    nic: usize,
    plan: &mut FramePlan,
    budget: &mut Budget,
    pass: impl Fn(&PackWrapper, &Budget) -> bool,
) {
    let dst = plan.dst;
    while budget.fits(0, 0) {
        let Some((w, jumped)) =
            window.take_first_matching_tracked(nic, |w| w.dst == dst && pass(w, budget))
        else {
            break;
        };
        plan.reordered += u32::from(jumped);
        budget.admit(plan, w);
    }
}

/// The most urgent lane with a segment pending anywhere in the window.
fn hottest_lane(window: &Window) -> Option<u8> {
    (0..NUM_LANES as u8).find(|&l| window.lane_depth(l) > 0)
}

/// Effective lane of a segment submitted at `order`, under the current
/// horizon: its priority lane minus one per `age_step` submissions of
/// age, clamped at `Urgent`. Aging bounds starvation: a `Bulk` segment
/// is served as `Urgent` after at most `3 * age_step` submissions.
pub(super) fn effective_lane(age_step: u64, horizon: u64, priority: Priority, order: u64) -> u8 {
    let age = horizon.saturating_sub(order);
    let promote = (age / age_step).min(u64::from(priority.lane())) as u8;
    priority.lane() - promote
}

/// Destination of the most urgent segment by effective lane, the
/// oldest first among equals: one indexed front per lane, no scan.
fn oldest_effective(window: &Window, age_step: u64) -> Option<NodeId> {
    let horizon = window.order_horizon();
    (0..NUM_LANES as u8)
        .filter_map(|lane| {
            let (dst, order) = window.global_oldest_in_lane(lane)?;
            let eff = effective_lane(age_step, horizon, Priority::from_lane(lane), order);
            Some((eff, order, dst))
        })
        .min_by_key(|&(eff, order, _)| (eff, order))
        .map(|(_, _, dst)| dst)
}

/// Deadline-aware rendezvous admission: the largest chunk a granted
/// rendezvous job towards `dst` may cut right now. While expedited
/// (Urgent/High) segments are pending anywhere in the window, chunks
/// are capped at a quarter of the MTU — but never more than the
/// rendezvous threshold, since several simulated NICs advertise an
/// unlimited MTU — so a large RTS/CTS transfer cannot monopolize the
/// rail during a burst. A job that has already waited more than
/// `deadline` submission stamps is admitted at full size again: bulk
/// transfers age out of the cap instead of starving behind a flood.
fn rdv_admission_cap(window: &Window, dst: NodeId, caps: &Capabilities, deadline: u64) -> usize {
    let contended = (0..=Priority::High.lane()).any(|l| window.lane_depth(l) > 0);
    match window.rdv_front_for(dst) {
        Some(job) if contended => {
            let age = window.order_horizon().saturating_sub(job.order());
            if age > deadline {
                usize::MAX
            } else {
                (caps.mtu / 4).min(caps.rdv_threshold).max(1)
            }
        }
        _ => usize::MAX,
    }
}

/// Per-frame budget: eager payload up to the rendezvous threshold (the
/// paper's aggregation bound), the whole frame up to the MTU, at most
/// `u16::MAX` entries.
struct Budget {
    /// Segments longer than this travel as a payload-less RTS.
    cutoff: usize,
    payload: usize,
    payload_limit: usize,
    frame: usize,
    frame_limit: usize,
    entries: usize,
}

impl Budget {
    fn new(caps: &Capabilities) -> Self {
        Budget {
            cutoff: eager_cutoff(caps),
            payload: 0,
            payload_limit: caps.rdv_threshold,
            frame: FRAME_HEADER_LEN,
            frame_limit: caps.mtu,
            entries: 0,
        }
    }

    /// Room for one more entry of `len` bytes, `payload` of them eager?
    fn fits(&self, payload: usize, len: usize) -> bool {
        self.entries < u16::MAX as usize
            && self.payload + payload <= self.payload_limit
            && (self.frame.saturating_add(ENTRY_HEADER_LEN)).saturating_add(len) <= self.frame_limit
    }

    fn add(&mut self, payload: usize, len: usize) {
        self.payload += payload;
        self.frame += ENTRY_HEADER_LEN + len;
        self.entries += 1;
    }

    /// Room for `w`: as eager data within the cutoff, else as an RTS?
    fn admits(&self, w: &PackWrapper) -> bool {
        let eager = if w.len() > self.cutoff { 0 } else { w.len() };
        self.fits(eager, eager)
    }

    fn admit(&mut self, plan: &mut FramePlan, w: PackWrapper) {
        if w.len() > self.cutoff {
            self.add(0, 0);
            plan.entries.push(PlanEntry::Rts(w));
        } else {
            self.add(w.len(), w.len());
            plan.entries.push(PlanEntry::Data(w));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::segment::{PackWrapper, Priority, SendReqId, SeqNo, Tag};
    use crate::strategy::{
        NicView, PlanEntry, StratAggreg, StratAggregHol, StratMultirail, Strategy,
    };
    use crate::window::Window;
    use nmad_net::Capabilities;
    use nmad_sim::{nic, NodeId};

    fn seg(seq: u32, len: usize) -> PackWrapper {
        PackWrapper {
            dst: NodeId(1),
            tag: Tag(0),
            seq: SeqNo(seq),
            priority: Priority::Normal,
            data: vec![0u8; len].into(),
            req: SendReqId(u64::from(seq)),
            order: u64::from(seq),
        }
    }

    fn fifo_strategies() -> Vec<Box<dyn Strategy>> {
        vec![
            Box::new(StratAggreg),
            Box::new(StratMultirail::default()),
            Box::new(StratAggregHol::new()),
        ]
    }

    fn kinds(s: &mut dyn Strategy, w: &mut Window, caps: &Capabilities) -> Vec<(char, usize)> {
        let plan = s.schedule(w, &NicView { index: 0, caps }).expect("plan");
        plan.entries
            .iter()
            .map(|e| match e {
                PlanEntry::Data(w) => ('D', w.len()),
                PlanEntry::Rts(w) => ('R', w.len()),
                _ => panic!("unexpected {e:?}"),
            })
            .collect()
    }

    /// 4096-byte MTU: the first frame fills to the MTU with the 4068 B
    /// segment (cutoff = 4096 - 28), leaving no room for the RTS behind.
    fn small_mtu() -> Capabilities {
        let mut caps = Capabilities::from_nic(&nic::mx_myri10g());
        caps.mtu = 4096;
        caps
    }

    #[test]
    fn rts_without_room_keeps_its_fifo_place() {
        let caps = small_mtu();
        for mut s in fifo_strategies() {
            s.init(std::slice::from_ref(&caps));
            let mut w = Window::new(1);
            for (seq, len) in [4068, 5000, 16].into_iter().enumerate() {
                w.push_segment(seg(seq as u32, len), None);
            }
            assert_eq!(
                kinds(s.as_mut(), &mut w, &caps),
                [('D', 4068)],
                "{}",
                s.name()
            );
            assert_eq!(
                kinds(s.as_mut(), &mut w, &caps),
                [('R', 5000), ('D', 16)],
                "{}: the RTS must not fall behind later segments",
                s.name()
            );
            assert!(w.is_empty());
        }
    }

    #[test]
    fn rts_without_room_keeps_its_rail_pin() {
        let caps = small_mtu();
        for mut s in fifo_strategies() {
            s.init(&[caps.clone(), caps.clone()]);
            let mut w = Window::new(2);
            w.push_segment(seg(0, 4068), Some(0));
            w.push_segment(seg(1, 5000), Some(0));
            assert_eq!(
                kinds(s.as_mut(), &mut w, &caps),
                [('D', 4068)],
                "{}",
                s.name()
            );
            assert_eq!(w.dedicated_ref(0).len(), 1, "{}: pin lost", s.name());
            assert!(w.common_ref().is_empty(), "{}", s.name());
            assert_eq!(
                kinds(s.as_mut(), &mut w, &caps),
                [('R', 5000)],
                "{}",
                s.name()
            );
        }
    }
}
