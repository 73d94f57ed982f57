//! The one key hash of every in-memory table.
//!
//! Every hash table on the replay path (`LruCache`'s map, the store's
//! Map table, the Full-Dedupe on-disk index, the allocator's refcounts)
//! is a `std::collections::HashMap` over [`KeyBuildHasher`]. Its keys
//! are one word: block numbers, or a `Fingerprint`, whose `Hash` feeds
//! only its 8-byte prefix (`Eq` still compares all 32 bytes). A word
//! goes through the SplitMix64 finaliser, so sequential block numbers
//! and raw synthetic content ids come out as uniform bits.
//!
//! The hasher is unkeyed: the same insert history gives the same
//! iteration order in every run. Nothing observable may depend on that
//! order anyway: code that reports from a table sorts first.

use core::hash::{BuildHasherDefault, Hasher};

/// SplitMix64 finaliser (Steele, Lea and Flood): a bijective 64-bit mix.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `std::hash::Hasher` for one-word keys: each word is folded into the
/// state through the SplitMix64 finaliser. A single `write_u64(v)` from
/// a fresh hasher finishes as `splitmix64(v)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    /// Folds `bytes` a little-endian word at a time; a short tail is
    /// zero-padded to one more word, so every byte counts.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = splitmix64(self.0 ^ v);
    }
}

/// Deterministic `BuildHasher` for `HashMap`/`HashSet`.
pub type KeyBuildHasher = BuildHasherDefault<KeyHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use core::hash::{BuildHasher, Hash};
    use pod_types::Fingerprint;
    use std::collections::HashMap;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        KeyBuildHasher::default().hash_one(v)
    }

    #[test]
    fn fingerprint_hashes_as_splitmix_of_its_prefix() {
        for id in [0u64, 1, 42, u64::MAX] {
            let fp = Fingerprint::from_content_id(id);
            assert_eq!(hash_of(&fp), splitmix64(fp.prefix_u64()));
        }
        assert_eq!(hash_of(&7u64), splitmix64(7));
    }

    #[test]
    fn every_byte_counts() {
        let a = Fingerprint::from_content_id(9);
        let mut bytes = *a.as_bytes();
        bytes[31] ^= 1;
        let b = Fingerprint::from_bytes(bytes);
        assert_ne!(a, b);
        // `Fingerprint`'s hash reads only the prefix; the general
        // `write` path must still see the last byte.
        assert_ne!(hash_of(a.as_bytes()), hash_of(b.as_bytes()));
        assert_ne!(hash_of(&"abcdefgh1"), hash_of(&"abcdefgh2"));
        assert_ne!(hash_of(&1u32), hash_of(&2u32));
    }

    #[test]
    fn usable_in_hashmap() {
        let mut m: HashMap<u64, u32, KeyBuildHasher> = HashMap::default();
        m.insert(1, 10);
        m.insert(2, 20);
        assert_eq!(m.get(&1), Some(&10));
        assert_eq!(m.get(&2), Some(&20));
        assert_eq!(m.get(&3), None);
    }
}
