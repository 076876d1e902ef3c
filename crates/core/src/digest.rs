//! Digest agility (extension EXT-3).
//!
//! The paper fingerprints parts with MD5. For cross-VM *consistency*
//! checking that is defensible even today — an attacker must produce a
//! second preimage of the clean module's parts, not a mere collision pair —
//! but hash agility costs little and removes the conversation entirely.
//! [`DigestAlgo`] selects the algorithm pool-wide; both implementations are
//! from scratch in this workspace (`mc-md5`, `mc-sha2`). Ablation ABL-6
//! measures the runtime difference.

use std::fmt;

/// Which hash fingerprints module parts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DigestAlgo {
    /// MD5 — the paper's choice (OpenSSL, 2012).
    #[default]
    Md5,
    /// SHA-256 — modern alternative.
    Sha256,
}

impl DigestAlgo {
    /// Relative per-byte cost versus MD5 for the simulated-time model
    /// (measured by the `digest` criterion bench; SHA-256 is roughly 2×
    /// slower per byte in scalar implementations).
    pub fn cost_factor(self) -> f64 {
        match self {
            DigestAlgo::Md5 => 1.0,
            DigestAlgo::Sha256 => 2.2,
        }
    }
}

impl fmt::Display for DigestAlgo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DigestAlgo::Md5 => f.write_str("md5"),
            DigestAlgo::Sha256 => f.write_str("sha256"),
        }
    }
}

/// A part fingerprint under either algorithm.
///
/// Digests of different algorithms are never equal (comparing them would
/// be a configuration bug; the pool scanner uses one algorithm for every
/// capture in a run).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PartDigest {
    /// 128-bit MD5.
    Md5(mc_md5::Digest),
    /// 256-bit SHA-256.
    Sha256(mc_sha2::Digest),
}

impl PartDigest {
    /// The algorithm this digest was produced with.
    pub fn algo(&self) -> DigestAlgo {
        match self {
            PartDigest::Md5(_) => DigestAlgo::Md5,
            PartDigest::Sha256(_) => DigestAlgo::Sha256,
        }
    }

    /// Hex rendering.
    pub fn to_hex(&self) -> String {
        match self {
            PartDigest::Md5(d) => d.to_hex(),
            PartDigest::Sha256(d) => d.to_hex(),
        }
    }
}

impl fmt::Display for PartDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Hashes `data` under `algo`.
pub fn digest(algo: DigestAlgo, data: &[u8]) -> PartDigest {
    digest_pieces(algo, |feed| feed(data))
}

/// Hashes under `algo` the pieces `pieces` hands to its callback, in order,
/// as one message.
pub(crate) fn digest_pieces(
    algo: DigestAlgo,
    pieces: impl FnOnce(&mut dyn FnMut(&[u8])),
) -> PartDigest {
    match algo {
        DigestAlgo::Md5 => {
            let mut h = mc_md5::Md5::new();
            pieces(&mut |b| h.update(b));
            PartDigest::Md5(h.finalize())
        }
        DigestAlgo::Sha256 => {
            let mut h = mc_sha2::Sha256::new();
            pieces(&mut |b| h.update(b));
            PartDigest::Sha256(h.finalize())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithms_disagree_by_construction() {
        let a = digest(DigestAlgo::Md5, b"same input");
        let b = digest(DigestAlgo::Sha256, b"same input");
        assert_ne!(a, b);
        assert_eq!(a.algo(), DigestAlgo::Md5);
        assert_eq!(b.algo(), DigestAlgo::Sha256);
    }

    #[test]
    fn equal_inputs_equal_digests_per_algo() {
        for algo in [DigestAlgo::Md5, DigestAlgo::Sha256] {
            assert_eq!(digest(algo, b"x"), digest(algo, b"x"));
            assert_ne!(digest(algo, b"x"), digest(algo, b"y"));
        }
    }

    #[test]
    fn hex_lengths_match_algorithms() {
        assert_eq!(digest(DigestAlgo::Md5, b"").to_hex().len(), 32);
        assert_eq!(digest(DigestAlgo::Sha256, b"").to_hex().len(), 64);
    }

    #[test]
    fn cost_factor_ordering() {
        assert!(DigestAlgo::Sha256.cost_factor() > DigestAlgo::Md5.cost_factor());
    }
}
