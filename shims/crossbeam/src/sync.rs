//! Sync facade for the shim's lock-free queue and backoff.
//!
//! The only place in this crate allowed to name raw atomics (enforced
//! by `cargo run -p xtask -- lint`). Under `cfg(nmad_model)` — mapped
//! from the `nmad-model` cargo feature by build.rs — the types route
//! to the nmad-verify model-checking runtime, so `ArrayQueue`'s
//! ticket/sequence protocol can be exhaustively model-checked; in
//! normal builds they are the std atomics, zero-cost. `Backoff` pauses
//! and yields through `spin_loop`/`yield_now` here, so a backoff loop
//! under the model is a fairness yield, not an unbounded spin.

#[cfg(nmad_model)]
pub use nmad_verify::sync::{fence, spin_loop, AtomicBool, AtomicU64, AtomicUsize, Ordering};

#[cfg(nmad_model)]
pub use nmad_verify::thread::yield_now;

#[cfg(not(nmad_model))]
pub use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};

#[cfg(not(nmad_model))]
pub use std::hint::spin_loop;

#[cfg(not(nmad_model))]
pub use std::thread::yield_now;
