//! The word codec: the element types a global-memory word can be read as.
//!
//! Global memory is an array of 64-bit words ([`crate::PageData`]); typed
//! access is a bit-level reinterpretation of those words. [`Word`] is the
//! one place that reinterpretation is spelled out, for scalars and — with
//! the crate's only slice cast — for bulk buffers.

mod sealed {
    pub trait Sealed {}
    impl Sealed for u64 {}
    impl Sealed for f64 {}
}

/// An 8-byte plain-data element of global memory: `u64` or `f64`.
///
/// Sealed: the slice views below are sound only because every implementor
/// has exactly `u64`'s size and alignment and is valid for every bit
/// pattern, which the two impls here guarantee and a foreign one could not.
pub trait Word: sealed::Sealed + Copy + 'static {
    /// The word's bit pattern as stored in a page.
    fn to_bits(self) -> u64;

    /// The value a stored bit pattern denotes.
    fn from_bits(bits: u64) -> Self;

    /// View a buffer of elements as the words it is stored as.
    #[inline]
    fn as_words(data: &[Self]) -> &[u64] {
        // SAFETY: `Self` is `u64` or `f64` (sealed) — same size and
        // alignment as `u64`, every bit pattern valid — and the view
        // borrows `data` for its whole lifetime.
        unsafe { std::slice::from_raw_parts(data.as_ptr().cast(), data.len()) }
    }

    /// Mutable flavor of [`Self::as_words`]: storing any `u64` through the
    /// view leaves a valid `Self` behind.
    #[inline]
    fn as_words_mut(data: &mut [Self]) -> &mut [u64] {
        // SAFETY: as in `as_words`; the borrow is exclusive.
        unsafe { std::slice::from_raw_parts_mut(data.as_mut_ptr().cast(), data.len()) }
    }
}

impl Word for u64 {
    #[inline]
    fn to_bits(self) -> u64 {
        self
    }

    #[inline]
    fn from_bits(bits: u64) -> u64 {
        bits
    }
}

impl Word for f64 {
    #[inline]
    fn to_bits(self) -> u64 {
        f64::to_bits(self)
    }

    #[inline]
    fn from_bits(bits: u64) -> f64 {
        f64::from_bits(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_views_agree_with_the_scalar_codec() {
        let mut data = [1.5f64, -0.0, f64::NAN, f64::INFINITY];
        let bits: Vec<u64> = data.iter().map(|v| Word::to_bits(*v)).collect();
        assert_eq!(f64::as_words(&data), &bits[..]);
        f64::as_words_mut(&mut data)[1] = Word::to_bits(7.25f64);
        assert_eq!(data[1], 7.25);
        assert_eq!(<f64 as Word>::from_bits(bits[0]), 1.5);
        let mut ints = [3u64, u64::MAX];
        assert_eq!(u64::as_words(&ints), &[3, u64::MAX]);
        u64::as_words_mut(&mut ints)[0] = 9;
        assert_eq!(ints, [9, u64::MAX]);
    }
}
