//! Offline shim for the `crossbeam` crate.
//!
//! Provides `crossbeam::channel`'s unbounded MPMC channel over
//! `std::sync::mpsc` (receivers are cloneable, guarded by a mutex, to
//! keep crossbeam's multi-consumer contract), plus the two lock-free
//! building blocks the threaded progression engine needs:
//! `queue::ArrayQueue` (a bounded MPMC ring in the style of Dmitry
//! Vyukov's bounded queue, as shipped by the real crossbeam),
//! `utils::CachePadded` and `utils::Backoff`.
//!
//! This shim is the only workspace crate allowed to contain `unsafe`
//! (the engine crates all carry `#![forbid(unsafe_code)]`); every
//! unsafe site below documents its invariant with a `// SAFETY:`
//! comment, and `cargo run -p xtask -- lint` enforces both rules. The
//! queue's atomics go through [`sync`], so under the `nmad-model`
//! feature the whole ticket/sequence protocol runs on the nmad-verify
//! model checker.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod sync;

pub mod utils {
    use crate::sync::{spin_loop, yield_now};
    use std::cell::Cell;
    use std::fmt;
    use std::ops::{Deref, DerefMut};

    /// Pads and aligns a value to 128 bytes so two neighbouring cells
    /// never share a cache line (two lines, because modern prefetchers
    /// pull line pairs). Mirrors `crossbeam_utils::CachePadded`.
    #[derive(Default, Clone, Copy, PartialEq, Eq)]
    #[repr(align(128))]
    pub struct CachePadded<T> {
        value: T,
    }

    impl<T> CachePadded<T> {
        /// Pads `value`.
        pub const fn new(value: T) -> CachePadded<T> {
            CachePadded { value }
        }

        /// Unwraps the padded value.
        pub fn into_inner(self) -> T {
            self.value
        }
    }

    impl<T> Deref for CachePadded<T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.value
        }
    }

    impl<T> DerefMut for CachePadded<T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.value
        }
    }

    impl<T: fmt::Debug> fmt::Debug for CachePadded<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.value.fmt(f)
        }
    }

    impl<T> From<T> for CachePadded<T> {
        fn from(value: T) -> CachePadded<T> {
            CachePadded::new(value)
        }
    }

    /// Steps of 2^step pause hints before [`Backoff::snooze`] yields.
    const SPIN_LIMIT: u32 = 6;
    /// Steps after which [`Backoff::is_completed`] advises blocking.
    const YIELD_LIMIT: u32 = 10;

    /// Exponential backoff for spin loops. Mirrors
    /// `crossbeam_utils::Backoff` of crossbeam 0.8, constants included:
    /// [`snooze`](Self::snooze) spins 2^step pause hints for steps
    /// 0..=6, then yields the thread for steps 7..=10, and after those
    /// eleven calls [`is_completed`](Self::is_completed) says it is
    /// time to block on a real wakeup instead.
    pub struct Backoff {
        step: Cell<u32>,
    }

    impl Backoff {
        /// A backoff at the start of its schedule.
        #[inline]
        pub fn new() -> Self {
            Backoff { step: Cell::new(0) }
        }

        /// Starts the schedule again.
        #[inline]
        pub fn reset(&self) {
            self.step.set(0);
        }

        /// Backs off in a lock-free retry loop: pause hints only, never
        /// a yield, so the schedule never completes.
        #[inline]
        pub fn spin(&self) {
            for _ in 0..1u32 << self.step.get().min(SPIN_LIMIT) {
                spin_loop();
            }
            if self.step.get() <= SPIN_LIMIT {
                self.step.set(self.step.get() + 1);
            }
        }

        /// Backs off in a loop waiting for another thread: pause hints
        /// first, then thread yields.
        #[inline]
        pub fn snooze(&self) {
            if self.step.get() <= SPIN_LIMIT {
                for _ in 0..1u32 << self.step.get() {
                    spin_loop();
                }
            } else {
                yield_now();
            }
            if self.step.get() <= YIELD_LIMIT {
                self.step.set(self.step.get() + 1);
            }
        }

        /// True once the schedule is spent: the caller should block.
        #[inline]
        pub fn is_completed(&self) -> bool {
            self.step.get() > YIELD_LIMIT
        }
    }

    impl Default for Backoff {
        fn default() -> Backoff {
            Backoff::new()
        }
    }

    impl fmt::Debug for Backoff {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("Backoff")
                .field("step", &self.step.get())
                .field("is_completed", &self.is_completed())
                .finish()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn snooze_completes_after_eleven_steps() {
            let b = Backoff::new();
            for _ in 0..10 {
                b.snooze();
            }
            assert!(!b.is_completed(), "10 snoozes: 7 spin steps + 3 yields");
            b.snooze();
            assert!(b.is_completed(), "the 11th snooze ends the schedule");
            b.snooze();
            assert!(b.is_completed(), "a spent schedule stays spent");
        }

        #[test]
        fn spin_alone_never_completes() {
            let b = Backoff::new();
            for _ in 0..100 {
                b.spin();
            }
            assert!(!b.is_completed());
        }

        #[test]
        fn reset_restarts_the_schedule() {
            let b = Backoff::new();
            for _ in 0..11 {
                b.snooze();
            }
            assert!(b.is_completed());
            b.reset();
            assert!(!b.is_completed());
            for _ in 0..10 {
                b.snooze();
            }
            assert!(!b.is_completed(), "a reset schedule runs its full length");
            b.snooze();
            assert!(b.is_completed());
        }
    }
}

pub mod queue {
    use crate::sync::{AtomicUsize, Ordering};
    use crate::utils::CachePadded;
    use std::cell::UnsafeCell;
    use std::fmt;
    use std::mem::MaybeUninit;

    /// One ring slot: a sequence word plus storage.
    ///
    /// The sequence encodes the slot's lap state: `seq == pos` means
    /// free for the pusher of ticket `pos`; `seq == pos + 1` means
    /// filled, ready for the popper of ticket `pos`; after the pop the
    /// slot advances a lap (`seq = pos + cap`).
    struct Slot<T> {
        seq: AtomicUsize,
        value: UnsafeCell<MaybeUninit<T>>,
    }

    /// A bounded lock-free multi-producer multi-consumer queue —
    /// Vyukov's bounded MPMC ring, the algorithm behind crossbeam's
    /// `ArrayQueue`. Push and pop are wait-free in the common case (one
    /// CAS each) and never block; a full queue hands the value back.
    pub struct ArrayQueue<T> {
        /// Pop ticket counter (own cache line: poppers don't invalidate
        /// pushers).
        head: CachePadded<AtomicUsize>,
        /// Push ticket counter.
        tail: CachePadded<AtomicUsize>,
        slots: Box<[Slot<T>]>,
        cap: usize,
    }

    // SAFETY: sending the queue moves the buffered `T`s with it, so
    // `T: Send` suffices; no thread-affine state is held.
    unsafe impl<T: Send> Send for ArrayQueue<T> {}
    // SAFETY: the UnsafeCell slots are never accessed concurrently —
    // the seq/ticket protocol gives the claiming pusher (resp. popper)
    // exclusive access to a slot between its CAS and its seq store —
    // so sharing `&ArrayQueue` across threads only requires `T: Send`.
    unsafe impl<T: Send> Sync for ArrayQueue<T> {}

    impl<T> ArrayQueue<T> {
        /// A queue holding at most `cap` values.
        ///
        /// # Panics
        /// If `cap` is zero.
        pub fn new(cap: usize) -> ArrayQueue<T> {
            assert!(cap > 0, "ArrayQueue needs a non-zero capacity");
            ArrayQueue {
                head: CachePadded::new(AtomicUsize::new(0)),
                tail: CachePadded::new(AtomicUsize::new(0)),
                slots: (0..cap)
                    .map(|i| Slot {
                        seq: AtomicUsize::new(i),
                        value: UnsafeCell::new(MaybeUninit::uninit()),
                    })
                    .collect(),
                cap,
            }
        }

        /// The fixed capacity.
        pub fn capacity(&self) -> usize {
            self.cap
        }

        /// Attempts to enqueue `value`; a full queue returns it back.
        #[inline]
        pub fn push(&self, value: T) -> Result<(), T> {
            let mut tail = self.tail.load(Ordering::Relaxed); // ORDERING: queue protocol; the slot stamps carry the Acquire/Release pairing
            loop {
                let slot = &self.slots[tail % self.cap];
                let seq = slot.seq.load(Ordering::Acquire);
                let diff = seq.wrapping_sub(tail) as isize;
                if diff == 0 {
                    // The slot is free for ticket `tail`: claim it.
                    match self.tail.compare_exchange_weak(
                        tail,
                        tail.wrapping_add(1),
                        Ordering::Relaxed, // ORDERING: queue protocol; the slot stamps carry the Acquire/Release pairing
                        Ordering::Relaxed, // ORDERING: queue protocol; the slot stamps carry the Acquire/Release pairing
                    ) {
                        Ok(_) => {
                            // SAFETY: the tail CAS claimed ticket
                            // `tail` exclusively, and `seq == tail`
                            // showed the popper one lap behind is done
                            // with the slot; nobody else touches it
                            // until the Release store below publishes
                            // it.
                            unsafe { (*slot.value.get()).write(value) };
                            slot.seq.store(tail.wrapping_add(1), Ordering::Release);
                            return Ok(());
                        }
                        Err(current) => tail = current,
                    }
                } else if diff < 0 {
                    // The slot still holds last lap's value: full.
                    return Err(value);
                } else {
                    // Another pusher claimed this ticket; catch up.
                    tail = self.tail.load(Ordering::Relaxed); // ORDERING: queue protocol; the slot stamps carry the Acquire/Release pairing
                }
            }
        }

        /// Attempts to dequeue the oldest value.
        #[inline]
        pub fn pop(&self) -> Option<T> {
            let mut head = self.head.load(Ordering::Relaxed); // ORDERING: queue protocol; the slot stamps carry the Acquire/Release pairing
            loop {
                let slot = &self.slots[head % self.cap];
                let seq = slot.seq.load(Ordering::Acquire);
                let diff = seq.wrapping_sub(head.wrapping_add(1)) as isize;
                if diff == 0 {
                    // The slot holds ticket `head`'s value: claim it.
                    match self.head.compare_exchange_weak(
                        head,
                        head.wrapping_add(1),
                        Ordering::Relaxed, // ORDERING: queue protocol; the slot stamps carry the Acquire/Release pairing
                        Ordering::Relaxed, // ORDERING: queue protocol; the slot stamps carry the Acquire/Release pairing
                    ) {
                        Ok(_) => {
                            // SAFETY: the head CAS claimed ticket
                            // `head` exclusively, and `seq == head+1`
                            // (Acquire, pairing with the pusher's
                            // Release) proves the pusher's write to
                            // this slot is complete and visible; the
                            // value is moved out exactly once.
                            let value = unsafe { (*slot.value.get()).assume_init_read() };
                            // Free the slot for the pusher one lap ahead.
                            slot.seq
                                .store(head.wrapping_add(self.cap), Ordering::Release);
                            return Some(value);
                        }
                        Err(current) => head = current,
                    }
                } else if diff < 0 {
                    // The slot is still waiting for its pusher: empty.
                    return None;
                } else {
                    head = self.head.load(Ordering::Relaxed); // ORDERING: queue protocol; the slot stamps carry the Acquire/Release pairing
                }
            }
        }

        /// True when no value is buffered (racy, like any concurrent
        /// emptiness check — exact only when producers are quiescent).
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Approximate number of buffered values.
        pub fn len(&self) -> usize {
            let tail = self.tail.load(Ordering::SeqCst);
            let head = self.head.load(Ordering::SeqCst);
            tail.wrapping_sub(head).min(self.cap)
        }
    }

    impl<T> Drop for ArrayQueue<T> {
        fn drop(&mut self) {
            while self.pop().is_some() {}
        }
    }

    impl<T> fmt::Debug for ArrayQueue<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("ArrayQueue")
                .field("cap", &self.cap)
                .field("len", &self.len())
                .finish()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::sync::Arc;

        #[test]
        fn fifo_within_capacity() {
            let q = ArrayQueue::new(4);
            for i in 0..4 {
                q.push(i).unwrap();
            }
            assert_eq!(q.push(99), Err(99), "full queue hands the value back");
            for i in 0..4 {
                assert_eq!(q.pop(), Some(i));
            }
            assert_eq!(q.pop(), None);
        }

        #[test]
        fn wraps_laps_without_losing_values() {
            let q = ArrayQueue::new(3);
            for lap in 0..100u64 {
                q.push(lap).unwrap();
                assert_eq!(q.pop(), Some(lap));
            }
            assert!(q.is_empty());
        }

        #[test]
        fn concurrent_producers_deliver_every_value_once() {
            let q = Arc::new(ArrayQueue::new(64));
            let producers = 4;
            let per = 5_000u64;
            let handles: Vec<_> = (0..producers)
                .map(|p| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || {
                        for i in 0..per {
                            let mut v = p as u64 * per + i;
                            loop {
                                match q.push(v) {
                                    Ok(()) => break,
                                    Err(back) => {
                                        v = back;
                                        std::thread::yield_now();
                                    }
                                }
                            }
                        }
                    })
                })
                .collect();
            let mut seen = vec![false; producers * per as usize];
            let mut got = 0;
            while got < seen.len() {
                if let Some(v) = q.pop() {
                    assert!(!seen[v as usize], "value {v} delivered twice");
                    seen[v as usize] = true;
                    got += 1;
                } else {
                    std::thread::yield_now();
                }
            }
            for h in handles {
                h.join().unwrap();
            }
            assert!(seen.iter().all(|&s| s), "every value delivered");
        }

        #[test]
        fn per_producer_order_is_preserved() {
            let q = Arc::new(ArrayQueue::new(8));
            let writer = {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        while q.push(i).is_err() {
                            std::thread::yield_now();
                        }
                    }
                })
            };
            let mut next = 0u64;
            while next < 10_000 {
                if let Some(v) = q.pop() {
                    assert_eq!(v, next, "single-producer stream reordered");
                    next += 1;
                } else {
                    std::thread::yield_now();
                }
            }
            writer.join().unwrap();
        }

        #[test]
        fn drop_releases_buffered_values() {
            let v = Arc::new(());
            {
                let q = ArrayQueue::new(4);
                q.push(Arc::clone(&v)).unwrap();
                q.push(Arc::clone(&v)).unwrap();
                assert_eq!(Arc::strong_count(&v), 3);
            }
            assert_eq!(Arc::strong_count(&v), 1, "queue drop released slots");
        }
    }
}

pub mod channel {
    use std::fmt;
    use std::sync::{mpsc, Arc, Mutex};

    /// Sending half of an unbounded channel.
    pub struct Sender<T> {
        inner: mpsc::Sender<T>,
    }

    /// Receiving half of an unbounded channel (cloneable).
    pub struct Receiver<T> {
        inner: Arc<Mutex<mpsc::Receiver<T>>>,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone;
    /// carries the unsent message back.
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum TryRecvError {
        /// No message was buffered at the time of the call.
        Empty,
        /// All senders are gone and the buffer is drained.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv`] when all senders are gone.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub struct RecvError;

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (
            Sender { inner: tx },
            Receiver {
                inner: Arc::new(Mutex::new(rx)),
            },
        )
    }

    impl<T> Sender<T> {
        /// Enqueues `msg`; fails only when every receiver was dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            self.inner.send(msg).map_err(|e| SendError(e.0))
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            Sender {
                inner: self.inner.clone(),
            }
        }
    }

    impl<T> Receiver<T> {
        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let rx = self.inner.lock().unwrap_or_else(|p| p.into_inner());
            rx.try_recv().map_err(|e| match e {
                mpsc::TryRecvError::Empty => TryRecvError::Empty,
                mpsc::TryRecvError::Disconnected => TryRecvError::Disconnected,
            })
        }

        /// Blocking receive.
        pub fn recv(&self) -> Result<T, RecvError> {
            let rx = self.inner.lock().unwrap_or_else(|p| p.into_inner());
            rx.recv().map_err(|_| RecvError)
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Receiver<T> {
            Receiver {
                inner: self.inner.clone(),
            }
        }
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_try_recv_roundtrip() {
            let (tx, rx) = unbounded();
            tx.send(5u32).unwrap();
            assert_eq!(rx.try_recv(), Ok(5));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnected_after_sender_drop() {
            let (tx, rx) = unbounded::<u8>();
            tx.send(1).unwrap();
            drop(tx);
            assert_eq!(rx.try_recv(), Ok(1), "buffered frames drain first");
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn send_to_no_receiver_returns_message() {
            let (tx, rx) = unbounded::<&str>();
            drop(rx);
            let err = tx.send("lost").unwrap_err();
            assert_eq!(err.0, "lost");
        }

        #[test]
        fn cloned_receiver_shares_the_stream() {
            let (tx, rx) = unbounded();
            let rx2 = rx.clone();
            tx.send(1u8).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.try_recv(), Ok(1));
            assert_eq!(rx2.try_recv(), Ok(2));
        }
    }
}
