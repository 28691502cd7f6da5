//! The paper's multi-rails strategy (§4, §7).
//!
//! "A multi-rails [strategy] which balances the communication flow over
//! the set of available NICs, possibly by splitting messages in a
//! heterogeneous manner if necessary."
//!
//! Two mechanisms:
//!
//! * **stream balancing** — eager segments live on the common list;
//!   whichever NIC goes idle first pulls the next batch, so streams of
//!   small messages spread across rails automatically;
//! * **heterogeneous splitting** — a granted rendezvous segment is cut
//!   into per-rail chunks sized proportionally to each rail's
//!   advertised bandwidth, so a fast and a slow rail finish their shares
//!   at about the same time ("later reassembled on the receiving side",
//!   §7; reassembly is offset-based in the matching layer).

use super::plan::{plan, ChunkCap, Policy};
use super::{FramePlan, NicView, Strategy};
use crate::window::Window;
use nmad_net::Capabilities;

/// Never split below this: tiny chunks waste per-packet overhead.
const MIN_SPLIT: usize = 4 * 1024;

/// See the module documentation.
#[derive(Debug, Default)]
pub struct StratMultirail {
    total_bw: u64,
    rail_bw: Vec<u64>,
}

impl StratMultirail {
    /// Proportional share of `remaining` for rail `index`.
    pub(super) fn quantum(&self, index: usize, remaining: usize) -> usize {
        if self.total_bw == 0 || self.rail_bw.len() <= 1 {
            return remaining;
        }
        let share =
            (remaining as u128 * self.rail_bw[index] as u128 / self.total_bw as u128) as usize;
        share.clamp(MIN_SPLIT.min(remaining), remaining)
    }
}

// The one built-in strategy with per-rail state implements `Strategy`.
impl Strategy for StratMultirail {
    fn name(&self) -> &'static str {
        "multirail"
    }

    fn for_shard(&self, _shard: usize, _shards: usize) -> Box<dyn Strategy> {
        // Bandwidth shares re-derive from `init` over the shard's rails.
        Box::new(StratMultirail::default())
    }

    fn init(&mut self, nics: &[Capabilities]) {
        self.rail_bw = nics.iter().map(|c| c.bandwidth_bps).collect();
        self.total_bw = self.rail_bw.iter().sum();
    }

    fn on_rail_fault(&mut self, rail: usize) {
        // The dead rail no longer counts towards the bandwidth split:
        // survivors absorb its share of future rendezvous chunks.
        if let Some(bw) = self.rail_bw.get_mut(rail) {
            *bw = 0;
        }
        self.total_bw = self.rail_bw.iter().sum();
    }

    // Rendezvous payload is split proportionally to this rail's
    // bandwidth (the other rails pull their shares as they go idle);
    // eager traffic aggregates exactly like the aggregation strategy,
    // and the common list makes the stream balance itself.
    fn schedule(&mut self, window: &mut Window, nic: &NicView<'_>) -> Option<FramePlan> {
        let policy = Policy {
            cap: ChunkCap::RailShare(self),
            ..Policy::AGGREG
        };
        plan(&policy, window, nic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{PackWrapper, Priority, SendReqId, SeqNo, Tag};
    use crate::strategy::{NicView, PlanEntry, Strategy};
    use crate::window::RdvJob;
    use crate::window::Window;
    use bytes::Bytes;
    use nmad_sim::{nic, NodeId};

    fn two_rail_caps() -> Vec<Capabilities> {
        vec![
            Capabilities::from_nic(&nic::mx_myri10g()), // 1240 MB/s
            Capabilities::from_nic(&nic::quadrics_qm500()), // 880 MB/s
        ]
    }

    #[test]
    fn rendezvous_chunks_split_proportionally_to_bandwidth() {
        let caps = two_rail_caps();
        let mut s = StratMultirail::default();
        s.init(&caps);
        let total = 1 << 20;
        let mut w = Window::new(2);
        w.push_rdv(RdvJob::new(
            NodeId(1),
            Tag(0),
            SeqNo(0),
            Bytes::from(vec![0u8; total]),
            SendReqId(0),
        ));
        let p0 = s
            .schedule(
                &mut w,
                &NicView {
                    index: 0,
                    caps: &caps[0],
                },
            )
            .unwrap();
        let c0 = match &p0.entries[0] {
            PlanEntry::RdvChunk(c) => c.data.len(),
            e => panic!("unexpected {e:?}"),
        };
        let expected0 = total * 1240 / (1240 + 880);
        let tolerance = total / 100;
        assert!(
            c0.abs_diff(expected0) < tolerance,
            "rail 0 share {c0}, expected ≈{expected0}"
        );
        // Rail 1 then picks up (a proportional slice of) the rest.
        let p1 = s
            .schedule(
                &mut w,
                &NicView {
                    index: 1,
                    caps: &caps[1],
                },
            )
            .unwrap();
        assert!(matches!(p1.entries[0], PlanEntry::RdvChunk(_)));
    }

    #[test]
    fn chunks_cover_entire_job_across_rails() {
        let caps = two_rail_caps();
        let mut s = StratMultirail::default();
        s.init(&caps);
        let total = 256 * 1024;
        let mut w = Window::new(2);
        w.push_rdv(RdvJob::new(
            NodeId(1),
            Tag(0),
            SeqNo(0),
            Bytes::from(vec![7u8; total]),
            SendReqId(0),
        ));
        let mut covered = 0;
        let mut rail = 0;
        let mut saw_last = false;
        while w.has_rdv() {
            let view = NicView {
                index: rail,
                caps: &caps[rail],
            };
            if let Some(p) = s.schedule(&mut w, &view) {
                for e in p.entries {
                    if let PlanEntry::RdvChunk(c) = e {
                        covered += c.data.len();
                        saw_last |= c.last;
                    }
                }
            }
            rail = 1 - rail;
        }
        assert_eq!(covered, total);
        assert!(saw_last);
    }

    #[test]
    fn single_rail_degenerates_to_whole_chunks() {
        let caps = vec![Capabilities::from_nic(&nic::mx_myri10g())];
        let mut s = StratMultirail::default();
        s.init(&caps);
        let mut w = Window::new(1);
        w.push_rdv(RdvJob::new(
            NodeId(1),
            Tag(0),
            SeqNo(0),
            Bytes::from(vec![0u8; 1 << 20]),
            SendReqId(0),
        ));
        let p = s
            .schedule(
                &mut w,
                &NicView {
                    index: 0,
                    caps: &caps[0],
                },
            )
            .unwrap();
        match &p.entries[0] {
            PlanEntry::RdvChunk(c) => {
                assert_eq!(c.data.len(), 1 << 20, "no pointless splitting");
                assert!(c.last);
            }
            e => panic!("unexpected {e:?}"),
        }
    }

    #[test]
    fn rail_fault_shifts_the_whole_split_to_survivors() {
        let caps = two_rail_caps();
        let mut s = StratMultirail::default();
        s.init(&caps);
        s.on_rail_fault(0);
        let total = 1 << 20;
        let mut w = Window::new(2);
        w.push_rdv(RdvJob::new(
            NodeId(1),
            Tag(0),
            SeqNo(0),
            Bytes::from(vec![0u8; total]),
            SendReqId(0),
        ));
        let p = s
            .schedule(
                &mut w,
                &NicView {
                    index: 1,
                    caps: &caps[1],
                },
            )
            .unwrap();
        match &p.entries[0] {
            PlanEntry::RdvChunk(c) => {
                assert_eq!(c.data.len(), total, "survivor takes the whole job");
            }
            e => panic!("unexpected {e:?}"),
        }
    }

    #[test]
    fn small_streams_aggregate_like_aggreg() {
        let caps = two_rail_caps();
        let mut s = StratMultirail::default();
        s.init(&caps);
        let mut w = Window::new(2);
        for tag in 0..6 {
            w.push_segment(
                PackWrapper {
                    dst: NodeId(1),
                    tag: Tag(tag),
                    seq: SeqNo(0),
                    priority: Priority::Normal,
                    data: Bytes::from(vec![0u8; 32]),
                    req: SendReqId(0),
                    order: tag as u64,
                },
                None,
            );
        }
        let p = s
            .schedule(
                &mut w,
                &NicView {
                    index: 0,
                    caps: &caps[0],
                },
            )
            .unwrap();
        assert_eq!(p.entries.len(), 6, "common list drained into one frame");
    }
}
