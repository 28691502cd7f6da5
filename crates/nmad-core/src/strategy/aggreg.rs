//! The paper's aggregation strategy (§4).
//!
//! "An aggregation [strategy] which accumulates communication requests
//! as long as the cumulated length does not require to switch to the
//! rendez-vous protocol." Small segments towards the same destination —
//! regardless of their logical flow / MPI communicator — are coalesced
//! into one frame; segments above the rendezvous threshold contribute an
//! RTS (which is tiny and aggregates for free). The scan keeps FIFO
//! discipline: it stops at the first segment that does not fit, so
//! submission order is preserved on the wire (reordering is
//! [`StratReorder`](super::StratReorder)'s job).

use super::plan::{PlanPolicy, Policy};
use nmad_net::Capabilities;

/// See the module documentation.
#[derive(Clone, Copy, Debug, Default)]
pub struct StratAggreg;

impl PlanPolicy for StratAggreg {
    const NAME: &'static str = "aggreg";

    fn policy(&self, _caps: &Capabilities) -> Policy<'_> {
        Policy::AGGREG
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{PackWrapper, Priority, SendReqId, SeqNo, Tag};
    use crate::strategy::{NicView, PlanEntry, Strategy};
    use crate::window::CtrlMsg;
    use crate::window::Window;
    use bytes::Bytes;
    use nmad_net::Capabilities;
    use nmad_sim::{nic, NodeId};

    fn caps() -> Capabilities {
        Capabilities::from_nic(&nic::mx_myri10g())
    }

    fn seg(dst: u32, tag: u32, seq: u32, len: usize) -> PackWrapper {
        PackWrapper {
            dst: NodeId(dst),
            tag: Tag(tag),
            seq: SeqNo(seq),
            priority: Priority::Normal,
            data: Bytes::from(vec![0u8; len]),
            req: SendReqId(0),
            order: seq as u64,
        }
    }

    fn view(caps: &Capabilities) -> NicView<'_> {
        NicView { index: 0, caps }
    }

    #[test]
    fn aggregates_across_flows_to_same_destination() {
        let caps = caps();
        let mut w = Window::new(1);
        // Eight segments on eight different tags — the fig. 3 workload.
        for tag in 0..8 {
            w.push_segment(seg(1, tag, 0, 64), None);
        }
        let mut s = StratAggreg;
        let plan = s.schedule(&mut w, &view(&caps)).unwrap();
        assert_eq!(plan.entries.len(), 8, "all flows coalesced in one frame");
        assert!(w.is_empty());
    }

    #[test]
    fn stops_at_cumulated_rendezvous_threshold() {
        let caps = caps();
        let each = caps.rdv_threshold / 4;
        let mut w = Window::new(1);
        for seq in 0..6 {
            w.push_segment(seg(1, 0, seq, each), None);
        }
        let mut s = StratAggreg;
        let p1 = s.schedule(&mut w, &view(&caps)).unwrap();
        assert_eq!(p1.entries.len(), 4, "cumulated length capped at threshold");
        let p2 = s.schedule(&mut w, &view(&caps)).unwrap();
        assert_eq!(p2.entries.len(), 2);
    }

    #[test]
    fn keeps_fifo_discipline_no_skipping() {
        let caps = caps();
        let mut w = Window::new(1);
        w.push_segment(seg(1, 0, 0, caps.rdv_threshold - 10), None);
        w.push_segment(seg(1, 1, 0, 100), None); // does not fit after #0
        w.push_segment(seg(1, 2, 0, 4), None); // would fit, but FIFO stops
        let mut s = StratAggreg;
        let p1 = s.schedule(&mut w, &view(&caps)).unwrap();
        assert_eq!(p1.entries.len(), 1);
        let p2 = s.schedule(&mut w, &view(&caps)).unwrap();
        assert_eq!(p2.entries.len(), 2, "both remaining fit the next frame");
    }

    #[test]
    fn large_segments_become_rts_and_keep_aggregating() {
        let caps = caps();
        let mut w = Window::new(1);
        w.push_segment(seg(1, 0, 0, 64), None);
        w.push_segment(seg(1, 1, 0, caps.rdv_threshold + 1), None);
        w.push_segment(seg(1, 2, 0, 64), None);
        let mut s = StratAggreg;
        let plan = s.schedule(&mut w, &view(&caps)).unwrap();
        let kinds: Vec<_> = plan
            .entries
            .iter()
            .map(|e| match e {
                PlanEntry::Data(_) => "data",
                PlanEntry::Rts(_) => "rts",
                PlanEntry::Cts(_) => "cts",
                PlanEntry::RdvChunk(_) => "chunk",
            })
            .collect();
        assert_eq!(kinds, ["data", "rts", "data"]);
    }

    #[test]
    fn different_destination_stops_the_scan() {
        let caps = caps();
        let mut w = Window::new(1);
        w.push_segment(seg(1, 0, 0, 64), None);
        w.push_segment(seg(2, 0, 0, 64), None);
        w.push_segment(seg(1, 1, 0, 64), None);
        let mut s = StratAggreg;
        let plan = s.schedule(&mut w, &view(&caps)).unwrap();
        assert_eq!(plan.dst, NodeId(1));
        assert_eq!(plan.entries.len(), 1, "FIFO: dst change is a barrier");
    }

    #[test]
    fn ctrl_rides_with_data_to_same_destination() {
        let caps = caps();
        let mut w = Window::new(1);
        w.push_ctrl(CtrlMsg {
            dst: NodeId(1),
            tag: Tag(5),
            seq: SeqNo(0),
            total: 1 << 20,
        });
        w.push_segment(seg(1, 0, 0, 64), None);
        let mut s = StratAggreg;
        let plan = s.schedule(&mut w, &view(&caps)).unwrap();
        assert_eq!(plan.entries.len(), 2, "grant and data share the frame");
        assert!(matches!(plan.entries[0], PlanEntry::Cts(_)));
        assert!(matches!(plan.entries[1], PlanEntry::Data(_)));
    }

    #[test]
    fn mtu_bounds_the_frame_even_below_threshold() {
        let mut caps = caps();
        caps.mtu = 4096;
        let mut w = Window::new(1);
        for seq in 0..4 {
            w.push_segment(seg(1, 0, seq, 1500), None);
        }
        let mut s = StratAggreg;
        let plan = s.schedule(&mut w, &view(&caps)).unwrap();
        // 2 × (20 + 1500) + 8 = 3048 fits; 3 payloads would be 4568.
        assert_eq!(plan.entries.len(), 2);
    }
}
