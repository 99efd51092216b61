//! FNV-1a 64, the workspace's fingerprint hash.
//!
//! Fingerprints built on it are written to disk (serve journal record
//! headers, checkpoint manifests) and compared across processes, so the
//! byte-wise algorithm and its two constants must never change.

/// A streaming byte-wise FNV-1a 64 hasher.
///
/// ```
/// use lily_netlist::fnv::{fnv1a, Fnv1a};
///
/// let mut h = Fnv1a::new();
/// h.write(b"foo");
/// h.write(b"bar");
/// assert_eq!(h.finish(), fnv1a(b"foobar"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher over the empty input.
    #[must_use]
    pub const fn new() -> Self {
        Self(Self::BASIS)
    }

    /// Folds `bytes` into the hash, one byte at a time.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The hash of everything written so far.
    #[must_use]
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a 64 of `bytes`.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let mut h = Fnv1a::new();
        for chunk in [&b"fo"[..], b"", b"ob", b"ar"] {
            h.write(chunk);
        }
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }
}
