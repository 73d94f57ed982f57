//! # pod-hash
//!
//! Hashing substrate for POD.
//!
//! * [`sha256`] — a from-scratch SHA-256 implementation (FIPS 180-4),
//!   validated against the NIST test vectors. This is the content
//!   fingerprint function of the real data path.
//! * [`key`] — [`KeyHasher`], the one key hash of every in-memory hash
//!   table: SplitMix64 over one word (a fingerprint's 8-byte prefix).
//! * [`fnv`] — one-shot FNV-1a, the journal's entry checksum.
//!
//! The simulated cost of hashing lives in `pod_core::LatencyModel`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fnv;
pub mod key;
pub mod sha256;

pub use fnv::fnv1a_64;
pub use key::{KeyBuildHasher, KeyHasher};
pub use sha256::Sha256;
