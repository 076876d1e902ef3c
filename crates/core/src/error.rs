//! ModChecker error types.

use std::fmt;

use mc_pe::PeError;
use mc_vmi::VmiError;

use crate::digest::DigestAlgo;

/// Errors from a module check.
///
/// A hostile guest controls everything ModChecker reads, so every
/// malformation surfaces as a typed error; per-VM errors during a pool scan
/// are downgraded to *discrepancies* in the report rather than aborting the
/// scan (an unreadable module list is itself suspicious and must be
/// surfaced, not crash the monitor).
#[derive(Clone, Debug)]
pub enum CheckError {
    /// Introspection failure.
    Vmi(VmiError),
    /// The module is not in this VM's loaded-module list.
    ModuleNotFound {
        /// VM that was searched.
        vm: String,
        /// Module that was requested.
        module: String,
    },
    /// The loaded-module list is corrupt (cycle without returning to the
    /// head, or absurd length — e.g. DKOM gone wrong or anti-forensics).
    ListCorrupt {
        /// VM with the corrupt list.
        vm: String,
        /// Entries walked before giving up.
        walked: usize,
    },
    /// The captured module image does not parse as a PE.
    BadImage {
        /// VM the image came from.
        vm: String,
        /// Module name.
        module: String,
        /// Underlying parse error.
        source: PeError,
    },
    /// A module reported an implausible size (guarding the copy loop
    /// against attacker-controlled `SizeOfImage`).
    ImplausibleSize {
        /// VM reporting the size.
        vm: String,
        /// Module name.
        module: String,
        /// The reported size.
        size: u64,
    },
    /// A pool check needs at least two VMs.
    PoolTooSmall(usize),
    /// A partial refresh named a page twice or past the end of the
    /// capture.
    BadPageList {
        /// The offending page index.
        page: usize,
        /// Pages in the capture.
        pages: usize,
    },
    /// Two captures were hashed under different digest algorithms — their
    /// digests are incomparable, so the pair cannot be voted on.
    AlgoMismatch {
        /// Algorithm of the left capture.
        a: DigestAlgo,
        /// Algorithm of the right capture.
        b: DigestAlgo,
    },
}

/// Cap on `SizeOfImage` we will copy out of a guest (largest real drivers
/// are tens of MB; a forged 4 GB size must not allocate unbounded memory).
pub const MAX_MODULE_SIZE: u64 = 64 * 1024 * 1024;

/// Cap on module-list length before declaring corruption.
pub const MAX_LIST_WALK: usize = 4096;

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Vmi(e) => write!(f, "introspection failed: {e}"),
            CheckError::ModuleNotFound { vm, module } => {
                write!(f, "module {module:?} not loaded in {vm}")
            }
            CheckError::ListCorrupt { vm, walked } => {
                write!(f, "module list corrupt in {vm} (walked {walked} entries)")
            }
            CheckError::BadImage { vm, module, source } => {
                write!(f, "module {module:?} from {vm} is not a valid PE: {source}")
            }
            CheckError::ImplausibleSize { vm, module, size } => {
                write!(f, "module {module:?} in {vm} claims {size} bytes")
            }
            CheckError::PoolTooSmall(n) => {
                write!(f, "cross-VM comparison needs ≥ 2 VMs, got {n}")
            }
            CheckError::BadPageList { page, pages } => {
                write!(
                    f,
                    "page refresh lists page {page} twice or past the capture's {pages} pages"
                )
            }
            CheckError::AlgoMismatch { a, b } => {
                write!(f, "digest algorithm mismatch: {a} vs {b}")
            }
        }
    }
}

impl std::error::Error for CheckError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckError::Vmi(e) => Some(e),
            CheckError::BadImage { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<VmiError> for CheckError {
    fn from(e: VmiError) -> Self {
        CheckError::Vmi(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_strings_name_the_essentials() {
        let cases: Vec<(CheckError, &[&str])> = vec![
            (
                CheckError::ModuleNotFound {
                    vm: "dom3".into(),
                    module: "hal.dll".into(),
                },
                &["hal.dll", "dom3"],
            ),
            (
                CheckError::ListCorrupt {
                    vm: "dom1".into(),
                    walked: 17,
                },
                &["dom1", "17", "corrupt"],
            ),
            (
                CheckError::ImplausibleSize {
                    vm: "dom2".into(),
                    module: "x.sys".into(),
                    size: 1 << 40,
                },
                &["x.sys", "dom2"],
            ),
            (CheckError::PoolTooSmall(1), &["2", "1"]),
            (
                CheckError::BadPageList { page: 9, pages: 4 },
                &["page 9", "4 pages"],
            ),
            (
                CheckError::AlgoMismatch {
                    a: DigestAlgo::Md5,
                    b: DigestAlgo::Sha256,
                },
                &["md5", "sha256", "mismatch"],
            ),
        ];
        for (err, needles) in cases {
            let s = err.to_string();
            for needle in needles {
                assert!(s.contains(needle), "{s:?} lacks {needle:?}");
            }
        }
    }

    #[test]
    fn vmi_errors_chain_as_sources() {
        use std::error::Error as _;
        let err = CheckError::Vmi(VmiError::VmNotFound("domX".into()));
        assert!(err.source().is_some());
        assert!(err.to_string().contains("domX"));
    }

    #[test]
    fn caps_are_sane() {
        // The copy loop must be bounded well under guest RAM, and the walk
        // bound must exceed any real system's module count. Read through
        // locals so the lint accepts the (deliberate) constant assertions.
        let max_size: u64 = MAX_MODULE_SIZE;
        let max_walk: usize = MAX_LIST_WALK;
        assert!((16 * 1024 * 1024..=1 << 30).contains(&max_size));
        assert!(max_walk >= 512);
    }
}
