//! FIFO strategy without optimization.
//!
//! One application segment per frame, strict submission order, no
//! cross-flow aggregation, no reordering. This mirrors what a classical
//! synchronous library does and serves two purposes: measuring the bare
//! engine overhead, and acting as the ablation baseline for every other
//! strategy.

use super::plan::{Fill, PlanPolicy, Policy};
use nmad_net::Capabilities;

/// See the module documentation.
#[derive(Clone, Copy, Debug, Default)]
pub struct StratDefault;

impl PlanPolicy for StratDefault {
    const NAME: &'static str = "default";

    // Grants ship alone to keep their latency minimal; otherwise one
    // maximal rendezvous chunk or exactly the front segment per frame.
    fn policy(&self, _caps: &Capabilities) -> Policy<'_> {
        Policy {
            ctrl_alone: true,
            fill: Fill::Single,
            ..Policy::AGGREG
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{PackWrapper, Priority, SendReqId, SeqNo, Tag};
    use crate::strategy::{NicView, PlanEntry, Strategy};
    use crate::window::Window;
    use bytes::Bytes;
    use nmad_net::Capabilities;
    use nmad_sim::{nic, NodeId};

    fn caps() -> Capabilities {
        Capabilities::from_nic(&nic::mx_myri10g())
    }

    fn seg(dst: u32, seq: u32, len: usize) -> PackWrapper {
        PackWrapper {
            dst: NodeId(dst),
            tag: Tag(1),
            seq: SeqNo(seq),
            priority: Priority::Normal,
            data: Bytes::from(vec![0u8; len]),
            req: SendReqId(0),
            order: seq as u64,
        }
    }

    #[test]
    fn sends_one_segment_per_frame_in_order() {
        let caps = caps();
        let mut w = Window::new(1);
        w.push_segment(seg(1, 0, 100), None);
        w.push_segment(seg(1, 1, 100), None);
        let mut s = StratDefault;
        let view = NicView {
            index: 0,
            caps: &caps,
        };
        let p1 = s.schedule(&mut w, &view).unwrap();
        assert_eq!(p1.entries.len(), 1, "no aggregation");
        let p2 = s.schedule(&mut w, &view).unwrap();
        assert_eq!(p2.entries.len(), 1);
        match (&p1.entries[0], &p2.entries[0]) {
            (PlanEntry::Data(a), PlanEntry::Data(b)) => {
                assert_eq!((a.seq, b.seq), (SeqNo(0), SeqNo(1)));
            }
            other => panic!("expected eager data, got {other:?}"),
        }
        assert!(s.schedule(&mut w, &view).is_none(), "window drained");
    }

    #[test]
    fn large_segment_becomes_rts() {
        let caps = caps();
        let mut w = Window::new(1);
        w.push_segment(seg(1, 0, caps.rdv_threshold + 1), None);
        let mut s = StratDefault;
        let plan = s
            .schedule(
                &mut w,
                &NicView {
                    index: 0,
                    caps: &caps,
                },
            )
            .unwrap();
        assert!(matches!(plan.entries[0], PlanEntry::Rts(_)));
    }

    #[test]
    fn ctrl_ships_alone_before_data() {
        let caps = caps();
        let mut w = Window::new(1);
        w.push_segment(seg(2, 0, 10), None);
        w.push_ctrl(crate::window::CtrlMsg {
            dst: NodeId(2),
            tag: Tag(9),
            seq: SeqNo(0),
            total: 1 << 20,
        });
        let mut s = StratDefault;
        let view = NicView {
            index: 0,
            caps: &caps,
        };
        let p1 = s.schedule(&mut w, &view).unwrap();
        assert_eq!(p1.entries.len(), 1);
        assert!(matches!(p1.entries[0], PlanEntry::Cts(_)));
        let p2 = s.schedule(&mut w, &view).unwrap();
        assert!(matches!(p2.entries[0], PlanEntry::Data(_)));
    }
}
