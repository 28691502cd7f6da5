//! Bounded lock-free submission ring between application threads and a
//! progression thread.
//!
//! The collect layer of the threaded progression mode: application
//! threads push operations with one CAS (no engine lock, no allocation
//! beyond the op itself), the progression thread drains them between
//! pump iterations. The ring is bounded — a full ring pushes back on
//! the application instead of growing without limit, exactly like a
//! NIC submission queue.
//!
//! Wakeup protocol: when the engine is idle and the ring is empty, the
//! progression thread first backs off (a bounded
//! `crossbeam::utils::Backoff` schedule in its pump loop, pumping
//! between steps), then parks on a condvar. Producers raise the condvar
//! only when the `sleeping` flag is set, so a push that lands during
//! the backoff, or while the consumer is busy, costs the producer one
//! fence and one flag load and no notify. The flag-store /
//! emptiness-check race is closed Dekker-style with `SeqCst` fences on
//! both sides; the consumer additionally parks with a timeout, so even
//! a hypothetical missed wakeup only costs one park period. The backoff
//! lives in the caller, not in [`SubmitRing::wait_nonempty`], so the
//! park/notify handshake stays exactly the one the model suites check.

use crate::sync::{fence, spin_loop, AtomicBool, Condvar, Mutex, Ordering};
use crossbeam::queue::ArrayQueue;
use std::time::Duration;

/// A bounded MPSC (by convention; MPMC-safe) submission ring with
/// consumer parking. See the module documentation.
pub struct SubmitRing<T> {
    queue: ArrayQueue<T>,
    sleeping: AtomicBool,
    lock: Mutex<()>,
    wakeup: Condvar,
}

impl<T: Send> SubmitRing<T> {
    /// A ring holding at most `capacity` pending operations.
    pub fn new(capacity: usize) -> Self {
        SubmitRing {
            queue: ArrayQueue::new(capacity),
            sleeping: AtomicBool::new(false),
            lock: Mutex::new(()),
            wakeup: Condvar::new(),
        }
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Operations currently buffered (approximate under concurrency).
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when nothing is buffered (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Non-blocking push; a full ring returns the operation back.
    /// Wakes the consumer if it is parked.
    // HOT-PATH: submit ring
    #[inline]
    pub fn try_push(&self, op: T) -> Result<(), T> {
        self.queue.push(op)?;
        self.doorbell();
        Ok(())
    }

    /// Pushes `op`, spinning (with yields) while the ring is full —
    /// backpressure, not loss.
    // HOT-PATH: submit ring
    pub fn push(&self, mut op: T) {
        loop {
            match self.queue.push(op) {
                Ok(()) => {
                    self.doorbell();
                    return;
                }
                Err(back) => {
                    op = back;
                    spin_loop();
                }
            }
        }
    }

    /// Non-blocking push *without* ringing the doorbell. Batched
    /// producers push a run of operations quietly and ring
    /// [`doorbell`](Self::doorbell) once at the end, paying one fence +
    /// flag load (and at most one notify) per batch instead of per op.
    /// A parked consumer stays parked until the doorbell — callers must
    /// ring it before waiting on any pushed operation.
    // HOT-PATH: submit ring
    #[inline]
    pub fn try_push_quiet(&self, op: T) -> Result<(), T> {
        self.queue.push(op)
    }

    /// [`push`](Self::push) without the doorbell: spins on a full ring,
    /// never notifies. See [`try_push_quiet`](Self::try_push_quiet).
    // HOT-PATH: submit ring
    pub fn push_quiet(&self, mut op: T) {
        loop {
            match self.queue.push(op) {
                Ok(()) => return,
                Err(back) => {
                    op = back;
                    spin_loop();
                }
            }
        }
    }

    /// Consumer side: next buffered operation, if any.
    // HOT-PATH: submit ring consumer
    #[inline]
    pub fn pop(&self) -> Option<T> {
        self.queue.pop()
    }

    /// Consumer side: parks the calling thread until the ring is
    /// (probably) non-empty or `timeout` elapses. Returns whether any
    /// operation is buffered on exit.
    // HOT-PATH: consumer park/wake
    pub fn wait_nonempty(&self, timeout: Duration) -> bool {
        if !self.queue.is_empty() {
            return true;
        }
        let guard = self.lock.lock();
        self.sleeping.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        // Re-check after raising the flag: a producer that pushed
        // before our store will be seen here; one that pushes after
        // will see the flag and notify under the lock we hold.
        if !self.queue.is_empty() {
            self.sleeping.store(false, Ordering::SeqCst);
            return true;
        }
        let (guard, _) = self.wakeup.wait_timeout(guard, timeout); // BLOCKING-OK: deliberate bounded consumer park; producers never enter here
        self.sleeping.store(false, Ordering::SeqCst);
        drop(guard);
        !self.queue.is_empty()
    }

    /// Whether the consumer has raised its sleeping flag, i.e. is
    /// parked (or about to park) in
    /// [`wait_nonempty`](Self::wait_nonempty). A read-only view of the
    /// wakeup protocol's flag, for tests.
    #[cfg(test)]
    pub(crate) fn consumer_sleeping(&self) -> bool {
        self.sleeping.load(Ordering::SeqCst)
    }

    /// Producer-side half of the wakeup protocol. Must be rung after
    /// every quiet push run; the plain `push`/`try_push` ring it
    /// automatically.
    // HOT-PATH: producer doorbell
    #[inline]
    pub fn doorbell(&self) {
        fence(Ordering::SeqCst);
        if self.sleeping.load(Ordering::SeqCst) {
            // Taking the lock orders this notify after the consumer's
            // flag-store and before (or after) its wait — never between.
            let _guard = self.lock.lock();
            self.wakeup.notify_one();
        }
    }
}

/// A fixed-capacity inline run of operations carried by one ring slot.
///
/// The batched submission path pushes one `Batch` (one CAS) for up to
/// `N` operations, and the consumer drains the whole run per pop.
/// Implemented as a safe `[Option<T>; N]` — no unsafe, no allocation;
/// for the small `N` used on the hot path the `Option` tags cost a few
/// words per slot, dwarfed by the per-op CAS/doorbell traffic they
/// amortize.
#[derive(Debug)]
pub struct Batch<T, const N: usize> {
    slots: [Option<T>; N],
    len: usize,
}

impl<T, const N: usize> Default for Batch<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> Batch<T, N> {
    /// An empty batch.
    pub fn new() -> Self {
        Batch {
            slots: std::array::from_fn(|_| None),
            len: 0,
        }
    }

    /// A batch holding a single operation (the unbatched submission
    /// path reuses the batched slot format).
    pub fn of_one(op: T) -> Self {
        let mut batch = Self::new();
        let _ = batch.push(op);
        batch
    }

    /// Appends an operation; a full batch hands it back.
    // HOT-PATH: submit batch
    #[inline]
    pub fn push(&mut self, op: T) -> Result<(), T> {
        let Some(slot) = self.slots.get_mut(self.len) else {
            return Err(op);
        };
        *slot = Some(op);
        self.len += 1;
        Ok(())
    }

    /// Operations in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no operations are buffered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when another `push` would be refused.
    pub fn is_full(&self) -> bool {
        self.len == N
    }
}

impl<T, const N: usize> IntoIterator for Batch<T, N> {
    type Item = T;
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<T>, N>>;

    /// Drains the operations in push order.
    fn into_iter(self) -> Self::IntoIter {
        self.slots.into_iter().flatten()
    }
}

impl<T> std::fmt::Debug for SubmitRing<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubmitRing")
            .field("cap", &self.queue.capacity())
            .field("len", &self.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    #[test]
    fn fifo_and_capacity_bound() {
        let ring = SubmitRing::new(4);
        for i in 0..4 {
            ring.try_push(i).unwrap();
        }
        assert_eq!(ring.try_push(99), Err(99), "no loss at capacity");
        for i in 0..4 {
            assert_eq!(ring.pop(), Some(i));
        }
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn wakeup_on_nonempty() {
        let ring = Arc::new(SubmitRing::new(8));
        let consumer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                // Park for up to 5 s; the producer below must wake us
                // long before that.
                let t0 = std::time::Instant::now();
                while ring.pop().is_none() {
                    ring.wait_nonempty(Duration::from_secs(5));
                    assert!(t0.elapsed() < Duration::from_secs(30), "never woken");
                }
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        ring.push(1u32);
        consumer.join().unwrap();
    }

    #[test]
    fn batch_is_fifo_bounded_and_reusable() {
        let mut b: Batch<u32, 4> = Batch::new();
        assert!(b.is_empty());
        for i in 0..4 {
            b.push(i).unwrap();
        }
        assert!(b.is_full());
        assert_eq!(b.push(99), Err(99), "full batch hands the op back");
        assert_eq!(b.len(), 4);
        assert_eq!(b.into_iter().collect::<Vec<_>>(), [0, 1, 2, 3]);

        let one = Batch::<u32, 4>::of_one(7);
        assert_eq!(one.len(), 1);
        assert_eq!(one.into_iter().collect::<Vec<_>>(), [7]);
    }

    #[test]
    fn quiet_pushes_with_one_doorbell_wake_a_parked_consumer() {
        let ring = Arc::new(SubmitRing::new(64));
        let consumer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let t0 = std::time::Instant::now();
                let mut got = Vec::new();
                while got.len() < 32 {
                    while let Some(v) = ring.pop() {
                        got.push(v);
                    }
                    if got.len() < 32 {
                        ring.wait_nonempty(Duration::from_secs(5));
                        assert!(t0.elapsed() < Duration::from_secs(30), "never woken");
                    }
                }
                got
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        for i in 0..32u32 {
            ring.push_quiet(i);
        }
        ring.doorbell();
        let got = consumer.join().unwrap();
        assert_eq!(
            got,
            (0..32).collect::<Vec<_>>(),
            "quiet pushes lost or reordered"
        );
    }

    #[test]
    fn wait_returns_immediately_when_nonempty() {
        let ring = SubmitRing::new(2);
        ring.push(7u8);
        let t0 = std::time::Instant::now();
        assert!(ring.wait_nonempty(Duration::from_secs(10)));
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn blocking_push_applies_backpressure_not_loss() {
        let ring = Arc::new(SubmitRing::new(2));
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..1_000u32 {
                    ring.push(i);
                }
            })
        };
        let mut next = 0;
        while next < 1_000 {
            if let Some(v) = ring.pop() {
                assert_eq!(v, next, "single-producer FIFO broken");
                next += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
    }

    proptest! {
        /// Any interleaved push/pop schedule preserves FIFO order and
        /// loses nothing: values popped are exactly the longest-pushed
        /// prefix, in order, and pushes refused by a full ring are
        /// exactly the overflow beyond capacity.
        #[test]
        fn ring_is_fifo_and_lossless(ops in proptest::collection::vec(any::<bool>(), 1..200)) {
            let cap = 8;
            let ring = SubmitRing::new(cap);
            let mut next_push = 0u64;
            let mut next_pop = 0u64;
            for push in ops {
                if push {
                    match ring.try_push(next_push) {
                        Ok(()) => {
                            prop_assert!(next_push - next_pop < cap as u64,
                                "accepted a push beyond capacity");
                            next_push += 1;
                        }
                        Err(v) => {
                            prop_assert_eq!(v, next_push, "refused push must hand the value back");
                            prop_assert_eq!(next_push - next_pop, cap as u64,
                                "refused a push below capacity");
                        }
                    }
                } else {
                    match ring.pop() {
                        Some(v) => {
                            prop_assert_eq!(v, next_pop, "out-of-order pop");
                            next_pop += 1;
                        }
                        None => prop_assert_eq!(next_pop, next_push, "empty pop with values pending"),
                    }
                }
            }
            // Drain: everything pushed and not yet popped comes out in order.
            while let Some(v) = ring.pop() {
                prop_assert_eq!(v, next_pop);
                next_pop += 1;
            }
            prop_assert_eq!(next_pop, next_push, "values lost in the ring");
        }
    }
}
