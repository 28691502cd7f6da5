//! Hashing policy for the engine's bookkeeping maps.
//!
//! Most maps on the message path are keyed by ids this process
//! allocates itself: request ids, per-flow sequence numbers it stamps,
//! destinations it queues towards. Their keys are dense, predictable
//! and never chosen by a peer, so std's keyed SipHash buys nothing
//! there but its cost. [`IdMap`] and [`IdSet`] hash those keys with
//! [`IdHasher`], one multiply per word plus a folded multiply at the
//! end.
//!
//! A map into which a **remote peer can insert keys it chooses** (the
//! unexpected queue, parked RTSs, delivery records, credit accounts)
//! stays on std's [`RandomState`](std::collections::hash_map::RandomState):
//! an unkeyed hasher there would let a peer pick colliding keys and
//! degrade every lookup to a scan (HashDoS).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A [`HashMap`] keyed by ids this process allocates (see the module
/// documentation for which maps qualify).
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A [`HashSet`] of ids this process allocates.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Initial state (digits of pi), so an all-zero key does not hash to 0.
const SEED: u64 = 0x243f_6a88_85a3_08d3;
/// Per-word multiplier (odd, so each word step is a bijection).
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;
/// Finisher multiplier for the folded 64×64→128 multiply.
const FOLD: u64 = 0xa076_1d64_78bd_642f;

/// Unkeyed multiplicative hasher for process-allocated ids.
///
/// Each word is xored into the state, which is then multiplied by an
/// odd constant, so a single-word key maps to a distinct state.
/// `finish` xors the state's high half into its low half and folds the
/// high half of a 128-bit product into the low half: hashbrown takes
/// the bucket index from the low bits and the control tag from the top
/// 7, and a plain product leaves the low bits of power-of-two-strided
/// ids constant.
#[derive(Clone, Copy, Debug)]
pub struct IdHasher {
    state: u64,
}

impl Default for IdHasher {
    fn default() -> Self {
        IdHasher { state: SEED }
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            for (dst, src) in word.iter_mut().zip(chunk) {
                *dst = *src;
            }
            self.write_u64(u64::from_le_bytes(word));
        }
        // Zero padding must not make "a" and "a\0" collide.
        self.write_usize(bytes.len());
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.state = (self.state ^ n).wrapping_mul(MUL);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let full = u128::from(self.state ^ (self.state >> 32)) * u128::from(FOLD);
        (full as u64) ^ ((full >> 64) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{SeqNo, Tag};
    use nmad_sim::NodeId;
    use std::hash::{BuildHasher, Hash};

    const KEYS: u64 = 65_536;

    fn hashes<T: Hash>(keys: impl Iterator<Item = T>) -> Vec<u64> {
        let build = BuildHasherDefault::<IdHasher>::default();
        keys.map(|k| build.hash_one(k)).collect()
    }

    /// Distinct buckets an ideal uniform hash hits with `keys` keys in
    /// `buckets` buckets: m·(1 − (1 − 1/m)^n).
    fn ideal_distinct(buckets: usize, keys: usize) -> f64 {
        let m = buckets as f64;
        m * (1.0 - (1.0 - 1.0 / m).powf(keys as f64))
    }

    /// Checks one bit-slice of the hashes: at least 90% of the distinct
    /// bucket indices an ideal uniform hash would hit, and no bucket
    /// loaded past `max_load`.
    fn assert_slice_spread(
        shape: &str,
        what: &str,
        slice: &[u64],
        buckets: usize,
        max_load: usize,
    ) {
        let mut load = vec![0usize; buckets];
        for &b in slice {
            load[b as usize] += 1;
        }
        let distinct = load.iter().filter(|&&n| n > 0).count();
        let ideal = ideal_distinct(buckets, slice.len());
        assert!(
            distinct as f64 >= 0.9 * ideal,
            "{shape}: {what} hit {distinct} distinct buckets, ideal {ideal:.0}"
        );
        let worst = load.iter().copied().max().unwrap_or(0);
        assert!(
            worst <= max_load,
            "{shape}: {what} loads one bucket with {worst} keys (max {max_load})"
        );
    }

    /// hashbrown's bucket index is the low bits of the hash and its
    /// control tag the top 7; both must stay well spread, and no two
    /// keys may share a full hash.
    fn assert_spread(shape: &str, hs: &[u64]) {
        let full: std::collections::HashSet<u64> = hs.iter().copied().collect();
        assert_eq!(full.len(), hs.len(), "{shape}: full-width hash collisions");
        let low: Vec<u64> = hs.iter().map(|h| h & 0xffff).collect();
        // Poisson(1) over 65 536 buckets: the fullest holds ~8 keys.
        assert_slice_spread(shape, "low 16 bits", &low, 1 << 16, 16);
        let top: Vec<u64> = hs.iter().map(|h| h >> 57).collect();
        // 512 keys per tag on average; twice that means clustering.
        let mean = hs.len() / 128;
        assert_slice_spread(shape, "top 7 bits", &top, 128, 2 * mean);
    }

    #[test]
    fn sequential_ids_spread() {
        assert_spread("sequential u64", &hashes(0..KEYS));
        assert_spread(
            "sequential u64 from 1e9",
            &hashes(1_000_000_000..1_000_000_000 + KEYS),
        );
    }

    #[test]
    fn power_of_two_strided_ids_spread() {
        for shift in [3u32, 12, 20, 32, 47] {
            let hs = hashes((0..KEYS).map(|i| i << shift));
            assert_spread(&format!("stride 2^{shift}"), &hs);
        }
    }

    #[test]
    fn flow_tuples_spread() {
        // (node, tag, seq) as matching keys them: 256 tags × 256
        // sequence numbers, for a low and a high node id.
        for node in [1u32, 4_000] {
            let keys = (0..256u32)
                .flat_map(|tag| (0..256u32).map(move |seq| (NodeId(node), Tag(tag), SeqNo(seq))));
            let hs = hashes(keys);
            assert_eq!(hs.len() as u64, KEYS);
            assert_spread(&format!("(node {node}, tag, seq)"), &hs);
        }
    }

    #[test]
    fn byte_writes_include_the_length() {
        let build = BuildHasherDefault::<IdHasher>::default();
        let hash_bytes = |b: &[u8]| {
            let mut h = build.build_hasher();
            h.write(b);
            h.finish()
        };
        assert_ne!(hash_bytes(b"a"), hash_bytes(b"a\0"));
        assert_ne!(hash_bytes(b""), hash_bytes(&[0u8; 8]));
    }
}
