//! Aggregation with reordering (§5.3).
//!
//! The derived-datatype experiment needs more than FIFO aggregation: a
//! large block sitting at the window front must not prevent the small
//! blocks behind it from coalescing. This strategy "aggregates all the
//! small blocks (using messages reordering) with the rendez-vous
//! requests of the large blocks": for the chosen destination it first
//! pulls high-priority segments, then turns every threshold-exceeding
//! segment into an RTS, then fills the remaining budget with any small
//! segment — skipping over segments that do not fit. The receiver
//! restores per-flow order from sequence numbers, so reordering is
//! semantically invisible.

use super::plan::{Fill, PlanPolicy, Policy};
use nmad_net::Capabilities;

/// See the module documentation.
#[derive(Clone, Copy, Debug, Default)]
pub struct StratReorder;

impl PlanPolicy for StratReorder {
    const NAME: &'static str = "reorder";

    fn policy(&self, _caps: &Capabilities) -> Policy<'_> {
        Policy {
            fill: Fill::Reorder,
            ..Policy::AGGREG
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{PackWrapper, Priority, SendReqId, SeqNo, Tag};
    use crate::strategy::{FramePlan, NicView, PlanEntry, Strategy};
    use crate::window::Window;
    use bytes::Bytes;
    use nmad_net::Capabilities;
    use nmad_sim::{nic, NodeId};

    fn caps() -> Capabilities {
        Capabilities::from_nic(&nic::mx_myri10g())
    }

    fn seg(tag: u32, seq: u32, len: usize, prio: Priority) -> PackWrapper {
        PackWrapper {
            dst: NodeId(1),
            tag: Tag(tag),
            seq: SeqNo(seq),
            priority: prio,
            data: Bytes::from(vec![0u8; len]),
            req: SendReqId(0),
            order: seq as u64,
        }
    }

    fn view(caps: &Capabilities) -> NicView<'_> {
        NicView { index: 0, caps }
    }

    fn kinds(plan: &FramePlan) -> Vec<&'static str> {
        plan.entries
            .iter()
            .map(|e| match e {
                PlanEntry::Data(_) => "data",
                PlanEntry::Rts(_) => "rts",
                PlanEntry::Cts(_) => "cts",
                PlanEntry::RdvChunk(_) => "chunk",
            })
            .collect()
    }

    #[test]
    fn datatype_pattern_coalesces_smalls_with_rts() {
        // The fig. 4 workload: alternating small (64 B) and large
        // (256 KB) blocks. One frame must carry every small block plus
        // one RTS per large block.
        let caps = caps();
        let mut w = Window::new(1);
        for i in 0..4u32 {
            w.push_segment(seg(0, 2 * i, 64, Priority::Normal), None);
            w.push_segment(seg(0, 2 * i + 1, 256 * 1024, Priority::Normal), None);
        }
        let mut s = StratReorder;
        let plan = s.schedule(&mut w, &view(&caps)).unwrap();
        assert_eq!(
            kinds(&plan),
            ["rts", "rts", "rts", "rts", "data", "data", "data", "data"],
            "all RTS first, then all small blocks, in one frame"
        );
        assert!(w.is_empty());
        assert!(
            plan.reordered > 0,
            "interleaving smalls with larges is a reordering decision"
        );
    }

    #[test]
    fn high_priority_segments_jump_the_queue() {
        let caps = caps();
        let mut w = Window::new(1);
        w.push_segment(seg(0, 0, 128, Priority::Normal), None);
        w.push_segment(seg(1, 0, 16, Priority::High), None);
        let mut s = StratReorder;
        let plan = s.schedule(&mut w, &view(&caps)).unwrap();
        match &plan.entries[0] {
            PlanEntry::Data(d) => assert_eq!(d.tag, Tag(1), "high priority first"),
            e => panic!("unexpected {e:?}"),
        }
        assert_eq!(plan.reordered, 1, "exactly one queue jump");
    }

    #[test]
    fn skips_non_fitting_segment_to_aggregate_later_ones() {
        let caps = caps();
        let big_small = caps.rdv_threshold - 10; // eager but budget-filling
        let mut w = Window::new(1);
        w.push_segment(seg(0, 0, 100, Priority::Normal), None);
        w.push_segment(seg(1, 0, big_small, Priority::Normal), None); // won't fit after #0
        w.push_segment(seg(2, 0, 100, Priority::Normal), None); // fits; must be picked
        let mut s = StratReorder;
        let plan = s.schedule(&mut w, &view(&caps)).unwrap();
        let tags: Vec<Tag> = plan
            .entries
            .iter()
            .map(|e| match e {
                PlanEntry::Data(d) => d.tag,
                e => panic!("unexpected {e:?}"),
            })
            .collect();
        assert_eq!(tags, vec![Tag(0), Tag(2)], "skipped the oversized middle");
        assert_eq!(plan.reordered, 1, "only the skip over #1 counts");
        // The skipped one goes out next, in order.
        let plan2 = s.schedule(&mut w, &view(&caps)).unwrap();
        assert_eq!(plan2.entries.len(), 1);
        assert_eq!(plan2.reordered, 0);
    }

    #[test]
    fn drains_completely_over_successive_frames() {
        let caps = caps();
        let mut w = Window::new(1);
        for seq in 0..40 {
            w.push_segment(seg(0, seq, 3000, Priority::Normal), None);
        }
        let mut s = StratReorder;
        let mut total = 0;
        while let Some(p) = s.schedule(&mut w, &view(&caps)) {
            total += p.entries.len();
        }
        assert_eq!(total, 40);
        assert!(w.is_empty());
    }
}
