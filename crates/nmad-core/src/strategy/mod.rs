//! Pluggable scheduling strategies.
//!
//! "We propose a (dynamically ...) selectable optimization function
//! instead of a fixed optimizing heuristic. The optimization function is
//! to be selected among an extensible and programmable set of
//! strategies" (§3.2). A [`Strategy`] is that optimization function: it
//! is called by the transfer layer whenever a NIC is idle, looks at the
//! optimization window and the NIC's capabilities, and synthesizes the
//! next ready-to-send frame.
//!
//! Built-in strategies. Each is a small data-only type whose policy
//! value one window planner (`plan::plan`) executes; they differ only
//! in these four choices:
//!
//! | strategy | destination | control | chunk cap | fill |
//! |---|---|---|---|---|
//! | [`StratDefault`] | FIFO front | alone | none | one front segment |
//! | [`StratAggreg`] | FIFO front | rides | none | FIFO aggregation |
//! | [`StratReorder`] | FIFO front | rides | none | three reorder passes |
//! | [`StratMultirail`] | FIFO front | rides | rail bandwidth share | FIFO aggregation |
//! | [`StratAggregHol`] | urgent lane, retry at front | rides | deadline admission | FIFO aggregation, HOL cap |
//! | [`StratLanes`] | oldest by effective lane | rides | deadline admission | lane service, aging, tenant quantum |
//! | [`StratDynamic`] | as selected | as selected | none | default, aggreg or reorder, chosen per frame |
//!
//! Writing a new strategy "only requires to write a few methods" (§4):
//! implement [`Strategy::schedule`] (and optionally [`Strategy::init`])
//! against the public [`Window`] API.

mod aggreg;
mod aggreg_hol;
mod default;
mod dynamic;
mod lanes;
mod multirail;
mod plan;
mod reorder;

pub use aggreg::StratAggreg;
pub use aggreg_hol::StratAggregHol;
pub use default::StratDefault;
pub use dynamic::{DynamicStats, StratDynamic, Tactic};
pub use lanes::StratLanes;
pub use multirail::StratMultirail;
pub use reorder::StratReorder;

use crate::segment::PackWrapper;
use crate::window::{CtrlMsg, RdvChunk, Window};
use crate::wire::{ENTRY_HEADER_LEN, FRAME_HEADER_LEN};
use nmad_net::Capabilities;
use nmad_sim::NodeId;

/// What the strategy sees of the NIC asking for work.
pub struct NicView<'a> {
    /// Index of the NIC within the engine (matches dedicated lists).
    pub index: usize,
    /// Facts collected from the driver at initialisation.
    pub caps: &'a Capabilities,
}

/// One planned wire entry.
#[derive(Debug)]
pub enum PlanEntry {
    /// A rendezvous grant (control).
    Cts(CtrlMsg),
    /// An eager application segment, consumed from the window.
    Data(PackWrapper),
    /// A rendezvous announcement; the engine parks the wrapper's data
    /// until the CTS returns.
    Rts(PackWrapper),
    /// A chunk of granted rendezvous payload.
    RdvChunk(RdvChunk),
}

/// A synthesized frame: every entry travels to `dst` in one driver send.
#[derive(Debug)]
pub struct FramePlan {
    /// Destination node.
    pub dst: NodeId,
    /// The planned wire entries, in frame order.
    pub entries: Vec<PlanEntry>,
    /// Entries the strategy pulled out of submission order (the
    /// reordering strategies increment this; FIFO strategies leave 0).
    pub reordered: u32,
}

impl FramePlan {
    /// An empty plan towards `dst`.
    pub fn new(dst: NodeId) -> Self {
        FramePlan {
            dst,
            entries: Vec::new(),
            reordered: 0,
        }
    }

    /// Is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The optimization function interface.
pub trait Strategy: Send {
    /// Stable name for reports.
    fn name(&self) -> &'static str;

    /// Called once with every NIC's capabilities before scheduling
    /// starts (multirail uses this to learn the total bandwidth).
    fn init(&mut self, _nics: &[Capabilities]) {}

    /// Synthesizes the next frame for an idle NIC, or `None` when the
    /// window holds nothing this NIC can send.
    fn schedule(&mut self, window: &mut Window, nic: &NicView<'_>) -> Option<FramePlan>;

    /// Notifies the strategy that `rail` refused a send and was marked
    /// dead. Strategies holding per-rail state (bandwidth shares)
    /// re-plan over the survivors; the default is a no-op.
    fn on_rail_fault(&mut self, _rail: usize) {}

    /// Builds the instance a progression shard will own when the
    /// engine splits into `shards` independent shards (this one being
    /// shard `shard`). The shard engine calls [`Strategy::init`] on
    /// the returned instance with its own rail subset, so
    /// implementations only carry over *configuration* (forced
    /// tactics, tuning knobs) — per-rail state re-derives from `init`.
    fn for_shard(&self, shard: usize, shards: usize) -> Box<dyn Strategy>;
}

/// Largest segment the eager path can carry on this NIC: the
/// rendezvous threshold, additionally capped by the MTU (a segment
/// that cannot fit in one frame must use the chunked rendezvous path
/// regardless of the driver's suggested threshold).
pub fn eager_cutoff(caps: &Capabilities) -> usize {
    caps.rdv_threshold
        .min(caps.mtu.saturating_sub(FRAME_HEADER_LEN + ENTRY_HEADER_LEN))
}
