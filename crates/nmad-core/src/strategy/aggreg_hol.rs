//! Head-of-line-aware aggregation: the paper's aggregation strategy
//! with a cap on the aggregate whenever a more urgent packet is
//! pending on the rail.
//!
//! [`StratAggreg`](super::StratAggreg) fills each frame up to the
//! rendezvous threshold. That maximizes throughput, but a large
//! aggregate is also a head-of-line block: once handed to the NIC it
//! serializes in full before anything else — including an urgent
//! packet that arrived a microsecond later — can leave. This variant
//! keeps FIFO aggregation, but while a segment of a *strictly more
//! urgent* lane is pending, lower-lane payload stops accumulating at
//! `hol_cap` bytes (default: a quarter of the rendezvous threshold), so
//! the rail frees sooner for the urgent frame. The frame is pointed at
//! the oldest segment of the most urgent lane, and granted rendezvous
//! chunks pass the same deadline-aware admission as
//! [`StratLanes`](super::StratLanes), so bulk transfers cannot
//! monopolize the rail during an urgent burst either.
//!
//! `hol_cap` is the tail-vs-throughput knob: `usize::MAX` degenerates
//! to plain aggregation, 0 to one-urgent-era segment per frame.

use super::plan::{ChunkCap, Dst, Fill, PlanPolicy, Policy};
use nmad_net::Capabilities;

/// Default rendezvous deadline, in submission stamps.
pub const DEFAULT_HOL_RDV_DEADLINE: u64 = 2048;

/// See the module documentation.
#[derive(Clone, Debug)]
pub struct StratAggregHol {
    /// Aggregate payload cap while more urgent work is pending; when
    /// `None` it defaults to a quarter of the NIC's rendezvous
    /// threshold at schedule time.
    pub hol_cap: Option<usize>,
    /// Rendezvous ages past this admit full-size chunks even under
    /// expedited pressure.
    pub rdv_deadline: u64,
}

impl Default for StratAggregHol {
    fn default() -> Self {
        StratAggregHol {
            hol_cap: None,
            rdv_deadline: DEFAULT_HOL_RDV_DEADLINE,
        }
    }
}

impl StratAggregHol {
    /// Default tuning (cap = rendezvous threshold / 4).
    pub fn new() -> Self {
        Self::default()
    }

    /// Explicit cap in payload bytes.
    pub fn with_cap(hol_cap: usize, rdv_deadline: u64) -> Self {
        StratAggregHol {
            hol_cap: Some(hol_cap),
            rdv_deadline,
        }
    }
}

impl PlanPolicy for StratAggregHol {
    const NAME: &'static str = "aggreg_hol";

    fn policy(&self, caps: &Capabilities) -> Policy<'_> {
        Policy {
            dst: Dst::Urgent,
            cap: ChunkCap::Deadline(self.rdv_deadline),
            fill: Fill::Fifo {
                hol_cap: Some(self.hol_cap.unwrap_or((caps.rdv_threshold / 4).max(1))),
            },
            ..Policy::AGGREG
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{PackWrapper, Priority, SendReqId, SeqNo, Tag};
    use crate::strategy::{FramePlan, NicView, PlanEntry, Strategy};
    use crate::window::{RdvJob, Window};
    use bytes::Bytes;
    use nmad_net::Capabilities;
    use nmad_sim::{nic, NodeId};

    fn caps() -> Capabilities {
        Capabilities::from_nic(&nic::mx_myri10g())
    }

    fn view(caps: &Capabilities) -> NicView<'_> {
        NicView { index: 0, caps }
    }

    fn seg(tag: u32, seq: u32, len: usize, priority: Priority) -> PackWrapper {
        PackWrapper {
            dst: NodeId(1),
            tag: Tag(tag),
            seq: SeqNo(seq),
            priority,
            data: Bytes::from(vec![0u8; len]),
            req: SendReqId(0),
            order: seq as u64,
        }
    }

    fn payload_of(plan: &FramePlan) -> usize {
        plan.entries
            .iter()
            .map(|e| match e {
                PlanEntry::Data(w) => w.data.len(),
                _ => 0,
            })
            .sum()
    }

    #[test]
    fn caps_the_aggregate_while_urgent_work_is_pending() {
        let caps = caps();
        let cap = 1024;
        let mut w = Window::new(1);
        // Plenty of Normal payload, one Urgent segment queued behind.
        for seq in 0..20 {
            w.push_segment(seg(0, seq, 512, Priority::Normal), None);
        }
        w.push_segment(seg(1, 0, 64, Priority::Urgent), None);
        let mut s = StratAggregHol::with_cap(cap, DEFAULT_HOL_RDV_DEADLINE);
        let plan = s.schedule(&mut w, &view(&caps)).unwrap();
        // FIFO still: only Normal segments until the cap stops the scan.
        assert!(
            payload_of(&plan) <= cap,
            "aggregate {} exceeds HOL cap {}",
            payload_of(&plan),
            cap
        );
        assert!(plan.reordered == 0, "HOL variant never reorders");
    }

    #[test]
    fn full_threshold_when_nothing_more_urgent_waits() {
        let caps = caps();
        let mut w = Window::new(1);
        for seq in 0..20 {
            w.push_segment(seg(0, seq, 512, Priority::Normal), None);
        }
        let mut s = StratAggregHol::with_cap(1024, DEFAULT_HOL_RDV_DEADLINE);
        let plan = s.schedule(&mut w, &view(&caps)).unwrap();
        // hot == Normal itself: h < lane is false, no cap applies.
        assert!(
            payload_of(&plan) > 1024,
            "no cap without strictly more urgent work, got {}",
            payload_of(&plan)
        );
    }

    #[test]
    fn urgent_front_segments_aggregate_uncapped() {
        let caps = caps();
        let mut w = Window::new(1);
        for seq in 0..8 {
            w.push_segment(seg(1, seq, 512, Priority::Urgent), None);
        }
        let mut s = StratAggregHol::with_cap(1024, DEFAULT_HOL_RDV_DEADLINE);
        let plan = s.schedule(&mut w, &view(&caps)).unwrap();
        assert_eq!(
            plan.entries.len(),
            8,
            "urgent payload is never capped by its own lane"
        );
    }

    #[test]
    fn rdv_chunks_respect_the_contended_cap() {
        let caps = caps();
        let mut w = Window::new(1);
        w.push_segment(seg(1, 0, 64, Priority::Urgent), None);
        let body: Bytes = vec![1u8; 200_000].into();
        w.push_rdv(RdvJob::new(NodeId(1), Tag(0), SeqNo(0), body, SendReqId(1)).with_order(0));
        let mut s = StratAggregHol::new();
        let plan = s.schedule(&mut w, &view(&caps)).unwrap();
        let chunk = plan
            .entries
            .iter()
            .find_map(|e| match e {
                PlanEntry::RdvChunk(c) => Some(c.data.len()),
                _ => None,
            })
            .expect("chunk planned");
        assert!(chunk <= caps.rdv_threshold, "chunk {} over cap", chunk);
    }

    #[test]
    fn multi_destination_windows_keep_draining() {
        // The FIFO front lives at node 2 while the urgency points at
        // node 3: the strategy must fall back to the front's
        // destination instead of planning empty frames forever.
        let caps = caps();
        let mut w = Window::new(1);
        let mut normal = seg(0, 0, 512, Priority::Normal);
        normal.dst = NodeId(2);
        w.push_segment(normal, None);
        let mut urgent = seg(1, 0, 64, Priority::Urgent);
        urgent.dst = NodeId(3);
        w.push_segment(urgent, None);
        let mut s = StratAggregHol::new();
        let mut frames = 0;
        while let Some(plan) = s.schedule(&mut w, &view(&caps)) {
            assert!(!plan.is_empty());
            frames += 1;
            assert!(frames <= 4, "runaway scheduling");
        }
        assert!(w.is_empty(), "window stalled with {} frames", frames);
    }

    #[test]
    fn keeps_fifo_discipline_under_the_cap() {
        let caps = caps();
        let mut w = Window::new(1);
        w.push_segment(seg(0, 0, 900, Priority::Normal), None);
        w.push_segment(seg(0, 1, 900, Priority::Normal), None); // over cap
        w.push_segment(seg(2, 0, 16, Priority::Normal), None); // would fit
        w.push_segment(seg(1, 0, 64, Priority::Urgent), None);
        let mut s = StratAggregHol::with_cap(1024, DEFAULT_HOL_RDV_DEADLINE);
        let plan = s.schedule(&mut w, &view(&caps)).unwrap();
        // Scan stops at the first capped segment: no skipping ahead.
        let tags: Vec<u32> = plan
            .entries
            .iter()
            .filter_map(|e| match e {
                PlanEntry::Data(w) => Some(w.tag.0),
                _ => None,
            })
            .collect();
        assert_eq!(tags, vec![0], "FIFO stops at the capped segment");
    }
}
