//! # pod-hash
//!
//! Hashing substrate for POD.
//!
//! * [`sha256`] — a from-scratch SHA-256 implementation (FIPS 180-4),
//!   validated against the NIST test vectors. This is the content
//!   fingerprint function of the real data path.
//! * [`fnv`] — FNV-1a, a cheap non-cryptographic hash used for internal
//!   table sharding.
//!
//! The simulated cost of hashing lives in `pod_core::LatencyModel`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fnv;
pub mod sha256;

pub use fnv::{fnv1a_64, FnvHasher};
pub use sha256::Sha256;
