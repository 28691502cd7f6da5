//! Seeded inputs: message sizes and payload bytes.
//!
//! The program only ever sees what is generated here, so one seed gives
//! one input sequence. Payloads are zero-copy slices of one random pool,
//! so drawing a message costs a few nanoseconds inside the timed loop
//! and every delivered byte can still be compared with what was sent.

use bytes::Bytes;

/// splitmix64: small, fast, and good enough to draw sizes and offsets.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` (seeds that differ give different streams).
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo <= hi);
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Log-uniform in `lo..=hi` (each octave equally likely).
    pub fn log_range(&mut self, lo: usize, hi: usize) -> usize {
        let (l, h) = ((lo as f64).ln(), (hi as f64).ln());
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        ((l + u * (h - l)).exp() as usize).clamp(lo, hi)
    }
}

/// The input stream of one run. A clone draws the same sequence, so a
/// receiver can check what a sender sent.
#[derive(Clone)]
pub struct Inputs {
    rng: Rng,
    pool: Bytes,
}

impl Inputs {
    /// Inputs for `seed`, able to serve messages of up to `max_len`
    /// bytes.
    pub fn new(seed: u64, max_len: usize) -> Self {
        let mut rng = Rng::new(seed);
        let len = max_len * 3;
        let mut pool = Vec::with_capacity(len + 8);
        while pool.len() < len {
            pool.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        pool.truncate(len);
        Inputs {
            rng,
            pool: pool.into(),
        }
    }

    /// The generator sizes are drawn from.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// A payload of `len` bytes at a random offset of the pool.
    pub fn message(&mut self, len: usize) -> Bytes {
        let max_off = self.pool.len() - len;
        let off = self.rng.range(0, max_off);
        self.pool.slice(off..off + len)
    }
}

/// A copy of `data` with one byte flipped: the deliberately corrupted
/// echo the self-tests use to prove that verification catches damage.
pub fn corrupted(data: &[u8]) -> Bytes {
    let mut v = data.to_vec();
    if let Some(b) = v.first_mut() {
        *b ^= 0xFF;
    }
    v.into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let draw = |seed| {
            let mut i = Inputs::new(seed, 1024);
            (0..16)
                .map(|_| {
                    let n = i.rng().range(8, 1024);
                    i.message(n)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }

    #[test]
    fn log_range_stays_in_bounds() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            let v = r.log_range(8 << 10, 256 << 10);
            assert!((8 << 10..=256 << 10).contains(&v));
        }
    }
}
