//! Seeded input generation. The benchmark owns its generator so that the
//! inputs of a seed never change under it: the same seed gives the same
//! element values, op/key stream and fault schedule.

/// The splitmix64 increment.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One splitmix64 step: a stateless 64-bit mixer.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GAMMA);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hash of `(seed, stream, index)`: element `index` of input `stream`.
/// Stateless, so any thread can generate any element.
#[inline]
pub fn element(seed: u64, stream: u64, index: u64) -> u64 {
    mix64(mix64(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).wrapping_add(index))
}

/// A sequential splitmix64 stream (the per-thread op/key stream).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(element(seed, stream, 0))
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = mix64(self.0);
        self.0 = self.0.wrapping_add(GAMMA);
        out
    }

    /// A fair coin.
    #[inline]
    pub fn coin(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7, 3);
        let mut b = Rng::new(7, 3);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_eq!(element(7, 1, 99), element(7, 1, 99));
    }

    #[test]
    fn seeds_and_streams_differ() {
        assert_ne!(element(1, 0, 0), element(2, 0, 0));
        assert_ne!(element(1, 0, 0), element(1, 1, 0));
        assert_ne!(Rng::new(1, 0).next_u64(), Rng::new(1, 1).next_u64());
    }

    #[test]
    fn coin_is_roughly_fair() {
        let mut r = Rng::new(11, 0);
        let heads = (0..20_000).filter(|_| r.coin()).count();
        assert!((9_000..11_000).contains(&heads), "{heads}");
    }
}
