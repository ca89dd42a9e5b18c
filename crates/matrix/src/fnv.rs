//! FNV-1a, 64-bit: the one unkeyed byte hash, so its values may be
//! persisted and sent (the signature table's hash is keyed, and never is).

use std::hash::Hasher;

/// FNV-1a state: a [`Hasher`], and a by-value byte fold. It folds one
/// byte at a time, so hashing pieces in sequence gives the value of
/// hashing their concatenation.
///
/// ```
/// use std::hash::Hasher;
/// use snorkel_matrix::Fnv1a;
/// assert_eq!(Fnv1a::of(b""), 0xcbf2_9ce4_8422_2325);
/// assert_eq!(Fnv1a::new().bytes(b"ab").bytes(b"c").finish(), Fnv1a::of(b"abc"));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// The empty hash.
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// The hash of `bytes`.
    #[inline]
    pub fn of(bytes: &[u8]) -> u64 {
        Fnv1a::new().bytes(bytes).finish()
    }

    /// Fold one byte in.
    #[inline]
    pub fn byte(self, b: u8) -> Self {
        Fnv1a((self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
    }

    /// Fold `bytes` in, in order.
    #[inline]
    pub fn bytes(self, bytes: &[u8]) -> Self {
        bytes.iter().fold(self, |h, &b| h.byte(b))
    }
}

impl Hasher for Fnv1a {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        *self = self.bytes(bytes);
    }
}
