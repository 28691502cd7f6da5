//! MPI point-to-point front-end.
//!
//! The subset the paper implements (§3.4): nonblocking posting
//! (`isend`, `irecv`) and completion (`wait`, `test`), plus
//! communicators and derived datatypes. Each [`MpiProc`] is one rank's
//! endpoint; ranks map 1:1 onto engine nodes.
//!
//! Communicator isolation is what makes the fig. 3 experiment
//! meaningful: each segment travels on its own communicator, and the
//! engine still aggregates across them because its optimization scope
//! is global, not per-flow.

use bytes::Bytes;

use crate::backend::{MpiBackend, RecvToken, SendToken};
use crate::datatype::Datatype;
use nmad_core::segment::Tag;
use nmad_core::IdMap;
use nmad_sim::NodeId;

/// A communicator handle: an isolated tag space (context id).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Comm {
    ctx: u16,
}

impl Comm {
    /// Context id 0 is reserved for library internals (collectives).
    pub(crate) const RESERVED: Comm = Comm { ctx: 0 };

    /// The raw context id backing this communicator.
    pub fn context(&self) -> u16 {
        self.ctx
    }
}

/// A nonblocking request handle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Request {
    /// A packet left a node.
    Send(SendToken),
    /// A nonblocking receive.
    Recv(RecvToken),
}

/// A reusable (persistent) communication specification
/// (MPI_Send_init / MPI_Recv_init), activated by [`MpiProc::start`].
pub struct Persistent {
    op: PersistentOp,
    active: Option<Request>,
}

enum PersistentOp {
    Send {
        comm: Comm,
        peer: usize,
        tag: u16,
        data: Bytes,
    },
    Recv {
        comm: Comm,
        peer: usize,
        tag: u16,
        max: usize,
    },
}

impl Persistent {
    /// The currently active request, if started and not yet completed.
    pub fn active(&self) -> Option<Request> {
        self.active
    }
}

/// One MPI rank.
pub struct MpiProc {
    backend: Box<dyn MpiBackend>,
    rank: usize,
    size: usize,
    next_ctx: u16,
    /// Group (global ranks, in communicator rank order) per context.
    groups: IdMap<u16, Vec<usize>>,
}

fn wire_tag(comm: Comm, tag: u16) -> Tag {
    Tag((comm.ctx as u32) << 16 | tag as u32)
}

impl MpiProc {
    /// Wraps a backend endpoint as rank `rank` of `size`.
    pub fn new(backend: Box<dyn MpiBackend>, rank: usize, size: usize) -> Self {
        assert!(rank < size, "rank out of range");
        assert_eq!(
            backend.node(),
            NodeId(rank as u32),
            "backend node must equal the MPI rank"
        );
        let mut groups = IdMap::default();
        groups.insert(1, (0..size).collect());
        MpiProc {
            backend,
            rank,
            size,
            next_ctx: 2, // 0 = internals, 1 = MPI_COMM_WORLD
            groups,
        }
    }

    /// The group (global ranks, in communicator order) of `comm`.
    pub fn comm_group(&self, comm: Comm) -> &[usize] {
        self.groups
            .get(&comm.context())
            .expect("communicator unknown to this rank")
    }

    /// Number of ranks in `comm`.
    pub fn comm_size(&self, comm: Comm) -> usize {
        self.comm_group(comm).len()
    }

    /// This process's rank within `comm` (panics if not a member).
    pub fn comm_rank(&self, comm: Comm) -> usize {
        self.comm_group(comm)
            .iter()
            .position(|&g| g == self.rank)
            .expect("not a member of this communicator")
    }

    fn translate(&self, comm: Comm, rank_in_comm: usize) -> usize {
        let group = self.comm_group(comm);
        assert!(
            rank_in_comm < group.len(),
            "rank {rank_in_comm} out of range for a {}-rank communicator",
            group.len()
        );
        group[rank_in_comm]
    }

    /// Registers a communicator with an explicit group under a fresh
    /// context (used by `CommSplitOp`; all ranks must register splits
    /// in the same order, the usual MPI collective-ordering contract).
    pub(crate) fn register_comm(&mut self, group: Vec<usize>) -> Comm {
        let ctx = self.next_ctx;
        self.next_ctx = self
            .next_ctx
            .checked_add(1)
            .expect("context space exhausted");
        self.groups.insert(ctx, group);
        Comm { ctx }
    }

    /// This process's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the job.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Backend name.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Access to the backend (tests inspect engine statistics).
    pub fn backend(&self) -> &dyn MpiBackend {
        self.backend.as_ref()
    }

    /// Installs a deterministic fault plan on rail `rail` of this
    /// rank's transport; `false` if the backend does not support
    /// injection.
    pub fn install_faults(&mut self, rail: usize, plan: nmad_net::FaultPlan) -> bool {
        self.backend.install_faults(rail, plan)
    }

    /// Fault-injection statistics for rail `rail` of this rank.
    pub fn fault_stats(&self, rail: usize) -> nmad_net::FaultStats {
        self.backend.fault_stats(rail)
    }

    /// MPI_COMM_WORLD.
    pub fn comm_world(&self) -> Comm {
        Comm { ctx: 1 }
    }

    /// Duplicates a communicator into a fresh context (deterministic
    /// local allocation: every rank calling in the same order obtains
    /// the same context ids, which is the MPI usage contract).
    pub fn comm_dup(&mut self, comm: Comm) -> Comm {
        let group = self.comm_group(comm).to_vec();
        self.register_comm(group)
    }

    /// Nonblocking contiguous standard-mode send.
    pub fn isend(&mut self, comm: Comm, dst: usize, tag: u16, data: impl Into<Bytes>) -> Request {
        let dst = self.translate(comm, dst);
        Request::Send(self.backend.isend_contig(
            NodeId(dst as u32),
            wire_tag(comm, tag),
            data.into(),
        ))
    }

    /// Nonblocking typed send of `dtype` blocks from `buf`.
    pub fn isend_typed(
        &mut self,
        comm: Comm,
        dst: usize,
        tag: u16,
        buf: &[u8],
        dtype: &Datatype,
    ) -> Request {
        let dst = self.translate(comm, dst);
        Request::Send(
            self.backend
                .isend_typed(NodeId(dst as u32), wire_tag(comm, tag), buf, dtype),
        )
    }

    /// Nonblocking contiguous receive of up to `max` bytes.
    pub fn irecv(&mut self, comm: Comm, src: usize, tag: u16, max: usize) -> Request {
        let src = self.translate(comm, src);
        Request::Recv(
            self.backend
                .irecv_contig(NodeId(src as u32), wire_tag(comm, tag), max),
        )
    }

    /// Nonblocking typed receive.
    pub fn irecv_typed(&mut self, comm: Comm, src: usize, tag: u16, dtype: &Datatype) -> Request {
        let src = self.translate(comm, src);
        Request::Recv(
            self.backend
                .irecv_typed(NodeId(src as u32), wire_tag(comm, tag), dtype),
        )
    }

    /// MPI_Test: true once the request completed (non-destructive; take
    /// receive payloads with [`take`](Self::take)).
    pub fn test(&mut self, req: Request) -> bool {
        match req {
            Request::Send(t) => self.backend.test_send(t),
            Request::Recv(t) => self.backend.test_recv(t),
        }
    }

    /// True once all requests completed.
    pub fn testall(&mut self, reqs: &[Request]) -> bool {
        reqs.iter().all(|&r| self.test(r))
    }

    /// Takes a completed receive's payload (`None` for sends or
    /// incomplete receives).
    pub fn take(&mut self, req: Request) -> Option<Vec<u8>> {
        match req {
            Request::Send(_) => None,
            Request::Recv(t) => self.backend.take_recv(t),
        }
    }

    /// One backend progress pump.
    pub fn progress(&mut self) -> bool {
        self.backend.progress()
    }

    /// MPI_Wait, spinning this rank's progress engine. Only meaningful
    /// on real transports; in simulations use a co-simulation loop.
    pub fn wait(&mut self, req: Request) {
        while !self.test(req) {
            if !self.progress() {
                std::thread::yield_now();
            }
        }
    }

    /// MPI_Waitall, with the same transport caveat as
    /// [`wait`](Self::wait).
    pub fn waitall(&mut self, reqs: &[Request]) {
        while !self.testall(reqs) {
            if !self.progress() {
                std::thread::yield_now();
            }
        }
    }

    /// MPI_Testany: index of some completed request, if any.
    pub fn testany(&mut self, reqs: &[Request]) -> Option<usize> {
        reqs.iter().position(|&r| self.test(r))
    }

    /// MPI_Waitany: spins until some request completes and returns its
    /// index (same transport caveat as [`wait`](Self::wait)). Panics on
    /// an empty slice.
    pub fn waitany(&mut self, reqs: &[Request]) -> usize {
        assert!(!reqs.is_empty(), "waitany on no requests");
        loop {
            if let Some(i) = self.testany(reqs) {
                return i;
            }
            if !self.progress() {
                std::thread::yield_now();
            }
        }
    }

    /// MPI_Iprobe: size of the next pending message on (comm, src,
    /// tag), if its data or rendezvous announcement has arrived, without
    /// receiving it.
    pub fn iprobe(&mut self, comm: Comm, src: usize, tag: u16) -> Option<usize> {
        let src = self.translate(comm, src);
        self.backend.probe(NodeId(src as u32), wire_tag(comm, tag))
    }

    /// Blocking standard-mode send (spins this rank's progress engine —
    /// real-transport convenience, see [`wait`](Self::wait)).
    pub fn send(&mut self, comm: Comm, dst: usize, tag: u16, data: impl Into<Bytes>) {
        let req = self.isend(comm, dst, tag, data);
        self.wait(req);
    }

    /// Blocking receive returning the payload (same transport caveat).
    pub fn recv(&mut self, comm: Comm, src: usize, tag: u16, max: usize) -> Vec<u8> {
        let req = self.irecv(comm, src, tag, max);
        self.wait(req);
        self.take(req).expect("receive completed by wait")
    }

    /// MPI_Sendrecv: concurrent send and receive, deadlock-free (same
    /// transport caveat).
    #[allow(clippy::too_many_arguments)] // mirrors the MPI signature
    pub fn sendrecv(
        &mut self,
        comm: Comm,
        dst: usize,
        send_tag: u16,
        data: impl Into<Bytes>,
        src: usize,
        recv_tag: u16,
        max: usize,
    ) -> Vec<u8> {
        let s = self.isend(comm, dst, send_tag, data);
        let r = self.irecv(comm, src, recv_tag, max);
        self.waitall(&[s, r]);
        self.take(r).expect("receive completed by waitall")
    }

    /// MPI_Send_init: prepares a reusable send specification. Activate
    /// it with [`start`](Self::start); each activation is a fresh
    /// nonblocking send of the same buffer.
    pub fn send_init(
        &mut self,
        comm: Comm,
        dst: usize,
        tag: u16,
        data: impl Into<Bytes>,
    ) -> Persistent {
        assert!(dst < self.size, "destination rank out of range");
        Persistent {
            op: PersistentOp::Send {
                comm,
                peer: dst,
                tag,
                data: data.into(),
            },
            active: None,
        }
    }

    /// MPI_Recv_init: prepares a reusable receive specification.
    pub fn recv_init(&mut self, comm: Comm, src: usize, tag: u16, max: usize) -> Persistent {
        assert!(src < self.size, "source rank out of range");
        Persistent {
            op: PersistentOp::Recv {
                comm,
                peer: src,
                tag,
                max,
            },
            active: None,
        }
    }

    /// MPI_Start: activates a persistent request. Panics if it is
    /// still active from a previous start (as in MPI, completing the
    /// request first is mandatory).
    pub fn start(&mut self, persistent: &mut Persistent) -> Request {
        if let Some(prev) = persistent.active {
            assert!(self.test(prev), "MPI_Start on an active persistent request");
        }
        let req = match &persistent.op {
            PersistentOp::Send {
                comm,
                peer,
                tag,
                data,
            } => self.isend(*comm, *peer, *tag, data.clone()),
            PersistentOp::Recv {
                comm,
                peer,
                tag,
                max,
            } => self.irecv(*comm, *peer, *tag, *max),
        };
        persistent.active = Some(req);
        req
    }

    pub(crate) fn internal_isend(&mut self, dst: usize, tag: u16, data: Bytes) -> Request {
        Request::Send(self.backend.isend_contig(
            NodeId(dst as u32),
            wire_tag(Comm::RESERVED, tag),
            data,
        ))
    }

    pub(crate) fn internal_irecv(&mut self, src: usize, tag: u16, max: usize) -> Request {
        Request::Recv(self.backend.irecv_contig(
            NodeId(src as u32),
            wire_tag(Comm::RESERVED, tag),
            max,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_tag_isolates_contexts() {
        let c1 = Comm { ctx: 1 };
        let c2 = Comm { ctx: 2 };
        assert_ne!(wire_tag(c1, 7), wire_tag(c2, 7));
        assert_ne!(wire_tag(c1, 7), wire_tag(c1, 8));
        assert_eq!(wire_tag(c1, 7), wire_tag(Comm { ctx: 1 }, 7));
    }

    #[test]
    fn comm_dup_allocates_fresh_deterministic_contexts() {
        // Two ranks calling dup in the same order agree on contexts.
        let mk_ctxs = || {
            let mut out = vec![];
            for next in 2u16..5 {
                out.push(next);
            }
            out
        };
        assert_eq!(mk_ctxs(), mk_ctxs());
    }
}
