//! Dynamic strategy selection (paper §3.2: "We thus propose a
//! (dynamically in the future) selectable optimization function instead
//! of a fixed optimizing heuristic").
//!
//! [`StratDynamic`] implements that future-work item: it inspects the
//! window state each time a NIC asks for work and picks the most
//! appropriate elementary tactic —
//!
//! * a lone segment at the window front → the latency-first FIFO path
//!   (no aggregation machinery on the critical path);
//! * a backlog of small segments → FIFO aggregation;
//! * a mix containing rendezvous-sized segments → reordering, so RTS
//!   handshakes overlap the small traffic.
//!
//! Applications can also force a tactic per phase via
//! [`StratDynamic::force`], modelling the paper's "hints given by the
//! application itself with respect with the packet scheduling policy".

use super::plan::{plan, PlanPolicy};
use super::{FramePlan, NicView, StratAggreg, StratDefault, StratReorder, Strategy};
use crate::window::Window;

/// The elementary tactics the selector can choose between.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tactic {
    /// FIFO, one segment per frame (latency first).
    Latency,
    /// FIFO aggregation (throughput for bursts).
    Aggregate,
    /// Aggregation with reordering (complex layouts, rendezvous mixes).
    Reorder,
}

/// Selection counters, for introspection and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DynamicStats {
    /// Times the latency-first tactic was selected.
    pub latency_picks: u64,
    /// Times the aggregation tactic was selected.
    pub aggregate_picks: u64,
    /// Times the reordering tactic was selected.
    pub reorder_picks: u64,
}

/// See the module documentation.
#[derive(Default)]
pub struct StratDynamic {
    forced: Option<Tactic>,
    stats: DynamicStats,
}

impl StratDynamic {
    /// A selector with automatic per-frame tactic choice.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins the selector to one tactic (application hint); `None`
    /// returns to automatic selection.
    pub fn force(&mut self, tactic: Option<Tactic>) {
        self.forced = tactic;
    }

    /// Selection counters so far.
    pub fn stats(&self) -> DynamicStats {
        self.stats
    }

    fn select(&self, window: &Window, nic: &NicView<'_>) -> Tactic {
        if let Some(forced) = self.forced {
            return forced;
        }
        if window.depth_for(nic.index) <= 1 && !window.has_rdv() {
            return Tactic::Latency;
        }
        // A rendezvous-sized segment in the backlog (or granted data in
        // flight) benefits from the reordering passes; a backlog of
        // uniform small segments only needs plain aggregation.
        let cutoff = super::eager_cutoff(nic.caps);
        if window.has_rdv() || window.common_ref().iter().any(|w| w.len() > cutoff) {
            Tactic::Reorder
        } else {
            Tactic::Aggregate
        }
    }
}

impl Strategy for StratDynamic {
    fn name(&self) -> &'static str {
        "dynamic"
    }

    fn for_shard(&self, _shard: usize, _shards: usize) -> Box<dyn Strategy> {
        // A forced tactic is configuration: every shard inherits it.
        Box::new(StratDynamic {
            forced: self.forced,
            ..StratDynamic::new()
        })
    }

    // Each tactic is one of the default, aggreg and reorder policies,
    // executed by the same planner.
    fn schedule(&mut self, window: &mut Window, nic: &NicView<'_>) -> Option<FramePlan> {
        let tactic = self.select(window, nic);
        let stats = &mut self.stats;
        let (picks, policy) = match tactic {
            Tactic::Latency => (&mut stats.latency_picks, StratDefault.policy(nic.caps)),
            Tactic::Aggregate => (&mut stats.aggregate_picks, StratAggreg.policy(nic.caps)),
            Tactic::Reorder => (&mut stats.reorder_picks, StratReorder.policy(nic.caps)),
        };
        *picks += 1;
        plan(&policy, window, nic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{PackWrapper, Priority, SendReqId, SeqNo, Tag};
    use crate::strategy::{NicView, Strategy};
    use crate::window::Window;
    use bytes::Bytes;
    use nmad_net::Capabilities;
    use nmad_sim::{nic, NodeId};

    fn caps() -> Capabilities {
        Capabilities::from_nic(&nic::mx_myri10g())
    }

    fn seg(seq: u32, len: usize) -> PackWrapper {
        PackWrapper {
            dst: NodeId(1),
            tag: Tag(0),
            seq: SeqNo(seq),
            priority: Priority::Normal,
            data: Bytes::from(vec![0u8; len]),
            req: SendReqId(0),
            order: seq as u64,
        }
    }

    #[test]
    fn lone_segment_takes_the_latency_path() {
        let caps = caps();
        let mut s = StratDynamic::new();
        let mut w = Window::new(1);
        w.push_segment(seg(0, 64), None);
        let view = NicView {
            index: 0,
            caps: &caps,
        };
        assert!(s.schedule(&mut w, &view).is_some());
        assert_eq!(s.stats().latency_picks, 1);
        assert_eq!(s.stats().aggregate_picks, 0);
    }

    #[test]
    fn backlog_of_smalls_selects_aggregation() {
        let caps = caps();
        let mut s = StratDynamic::new();
        let mut w = Window::new(1);
        for i in 0..8 {
            w.push_segment(seg(i, 64), None);
        }
        let view = NicView {
            index: 0,
            caps: &caps,
        };
        let plan = s.schedule(&mut w, &view).unwrap();
        assert_eq!(plan.entries.len(), 8, "backlog must coalesce");
        assert_eq!(s.stats().aggregate_picks, 1);
    }

    #[test]
    fn rendezvous_mix_selects_reordering() {
        let caps = caps();
        let mut s = StratDynamic::new();
        let mut w = Window::new(1);
        w.push_segment(seg(0, caps.rdv_threshold + 1), None);
        w.push_segment(seg(1, 64), None);
        let view = NicView {
            index: 0,
            caps: &caps,
        };
        s.schedule(&mut w, &view);
        assert_eq!(s.stats().reorder_picks, 1);
    }

    #[test]
    fn forced_tactic_overrides_selection() {
        let caps = caps();
        let mut s = StratDynamic::new();
        s.force(Some(Tactic::Latency));
        let mut w = Window::new(1);
        for i in 0..8 {
            w.push_segment(seg(i, 64), None);
        }
        let view = NicView {
            index: 0,
            caps: &caps,
        };
        let plan = s.schedule(&mut w, &view).unwrap();
        assert_eq!(plan.entries.len(), 1, "forced latency path: no coalescing");
        assert_eq!(s.stats().latency_picks, 1);
        s.force(None);
        s.schedule(&mut w, &view);
        assert_eq!(s.stats().aggregate_picks, 1, "automatic selection resumed");
    }
}
