//! Simulated time: cost and contention models for the performance figures.
//!
//! The paper's runtime study (Figures 7 and 8) measures wall-clock on a 2012
//! Xen testbed we cannot reproduce. What we *can* reproduce is the shape of
//! those curves, which follows from three facts the simulation preserves:
//!
//! 1. Introspection is page-granular: copying a module out of a guest costs
//!    one foreign-page map per page plus a per-byte copy
//!    ([`CostModel::read_cost`]). This is why Module-Searcher dominates.
//! 2. Parsing, hashing and diffing are linear in module bytes
//!    ([`CostModel::process_cost`]).
//! 3. The privileged VM shares physical cores with the guests: once guest
//!    demand saturates the host's virtual cores, Dom0 work slows
//!    superlinearly ([`ContentionModel::slowdown`]) — Figure 8's knee at
//!    "loaded VMs > virtual cores".
//!
//! Absolute default constants are calibrated to libVMI-era magnitudes
//! (tens of microseconds per foreign page map, ns-per-byte processing) but
//! the *claims* we make from benches are about shape, not absolutes.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimDuration(u64);

impl SimDuration {
    /// Zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// From microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Nanosecond count.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Milliseconds as a float (for plotting).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Scales by a contention factor, saturating.
    pub fn scaled(self, factor: f64) -> Self {
        debug_assert!(factor >= 0.0);
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: Self) -> Self {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: Self) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: Self) -> Self {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3} s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3} ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3} µs", ns as f64 / 1e3)
        } else {
            write!(f, "{ns} ns")
        }
    }
}

/// Per-operation costs of introspection and checking.
///
/// Units: `*_ns` are flat nanosecond charges; `*_byte_ns` are nanoseconds
/// per byte processed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// One-time cost of attaching a VMI session to a VM (handle lookup,
    /// address-space identification).
    pub vmi_attach_ns: u64,
    /// Mapping one foreign guest frame into the privileged VM. The dominant
    /// introspection cost; libVMI pays this per page via
    /// `xc_map_foreign_range`.
    pub page_map_ns: u64,
    /// Copying one byte out of a mapped frame.
    pub copy_byte_ns: f64,
    /// One guest page-table walk performed by the introspector.
    pub translate_ns: u64,
    /// Module-Parser: per byte of header/section extraction.
    pub parse_byte_ns: f64,
    /// Integrity-Checker: per byte of MD5 hashing.
    pub hash_byte_ns: f64,
    /// Integrity-Checker: per byte of Algorithm 2's pairwise scan.
    pub diff_byte_ns: f64,
    /// Resolving a kernel symbol (e.g. `PsLoadedModuleList`) from the
    /// profile.
    pub symbol_lookup_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            vmi_attach_ns: 150_000,
            page_map_ns: 30_000,
            copy_byte_ns: 1.5,
            translate_ns: 2_000,
            parse_byte_ns: 0.4,
            hash_byte_ns: 2.5,
            diff_byte_ns: 1.2,
            symbol_lookup_ns: 50_000,
        }
    }
}

impl CostModel {
    /// Cost of reading `bytes` bytes spanning `pages` guest frames
    /// (translation + map per page, copy per byte).
    pub fn read_cost(&self, pages: u64, bytes: u64) -> SimDuration {
        SimDuration::from_nanos(
            pages * (self.page_map_ns + self.translate_ns)
                + (bytes as f64 * self.copy_byte_ns).round() as u64,
        )
    }

    /// Cost of a linear per-byte processing pass.
    pub fn process_cost(&self, per_byte_ns: f64, bytes: u64) -> SimDuration {
        SimDuration::from_nanos((bytes as f64 * per_byte_ns).round() as u64)
    }
}

/// Host CPU contention model.
///
/// The privileged VM's introspection work competes with guest vCPUs for the
/// host's virtual cores. `slowdown` maps total guest demand (in cores) to a
/// multiplier on Dom0 work:
///
/// * Under-committed (`demand + 1 ≤ cores`): near 1, growing mildly with
///   utilization (cache/membus pressure).
/// * Over-committed: the scheduler time-slices Dom0 against runnable vCPUs;
///   the multiplier grows superlinearly in the over-commit ratio. This
///   produces the paper's "sudden nonlinear growth … when the number of
///   heavily loaded VMs exceeded the number of available virtual cores".
#[derive(Clone, Copy, Debug)]
pub struct ContentionModel {
    /// Host virtual cores.
    pub cores: u32,
    /// Mild sub-saturation slope.
    pub pre_knee_slope: f64,
    /// Linear over-commit coefficient.
    pub beta: f64,
    /// Quadratic over-commit coefficient (the knee's sharpness).
    pub gamma: f64,
}

impl ContentionModel {
    /// Model with default coefficients for a host with `cores` virtual
    /// cores.
    pub fn new(cores: u32) -> Self {
        ContentionModel {
            cores: cores.max(1),
            pre_knee_slope: 0.3,
            beta: 2.0,
            gamma: 6.0,
        }
    }

    /// Slowdown multiplier for Dom0 work given total guest CPU demand.
    pub fn slowdown(&self, guest_demand: f64) -> f64 {
        let total = guest_demand.max(0.0) + 1.0; // +1: Dom0 itself
        let r = total / self.cores as f64;
        if r <= 1.0 {
            1.0 + self.pre_knee_slope * r
        } else {
            let over = r - 1.0;
            1.0 + self.pre_knee_slope + self.beta * over + self.gamma * over * over
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_micros(2);
        let b = SimDuration::from_nanos(500);
        assert_eq!((a + b).as_nanos(), 2_500);
        assert_eq!((a - b).as_nanos(), 1_500);
        assert_eq!((b - a).as_nanos(), 0, "saturating");
        assert_eq!(a.scaled(2.5).as_nanos(), 5_000);
        let total: SimDuration = [a, b, b].into_iter().sum();
        assert_eq!(total.as_nanos(), 3_000);
    }

    #[test]
    fn duration_display_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12 ns");
        assert_eq!(format!("{}", SimDuration::from_nanos(1_500)), "1.500 µs");
        assert_eq!(format!("{}", SimDuration::from_millis(2)), "2.000 ms");
        assert_eq!(format!("{}", SimDuration::from_millis(2500)), "2.500 s");
    }

    #[test]
    fn read_cost_scales_with_pages_and_bytes() {
        let c = CostModel::default();
        let one_page = c.read_cost(1, 4096);
        let two_pages = c.read_cost(2, 8192);
        assert!(two_pages > one_page);
        // Page overhead dominates small reads.
        let tiny = c.read_cost(1, 8);
        assert!(tiny.as_nanos() > 8 * c.copy_byte_ns as u64);
    }

    #[test]
    fn contention_is_flat_then_superlinear() {
        let m = ContentionModel::new(8);
        let idle = m.slowdown(0.0);
        assert!(idle < 1.5);
        // Monotone non-decreasing in demand.
        let mut prev = 0.0;
        for d in 0..24 {
            let s = m.slowdown(d as f64);
            assert!(s >= prev);
            prev = s;
        }
        // Knee: the marginal slowdown per added loaded VM beyond the core
        // count clearly exceeds the marginal slowdown below it.
        let below = m.slowdown(6.0) - m.slowdown(5.0);
        let above = m.slowdown(12.0) - m.slowdown(11.0);
        assert!(
            above > 3.0 * below,
            "no knee: below {below:.3}, above {above:.3}"
        );
    }

    #[test]
    fn process_cost_rounds_to_nearest_nanosecond() {
        let c = CostModel::default();
        assert_eq!(c.process_cost(0.4, 10).as_nanos(), 4);
        assert_eq!(c.process_cost(0.4, 1).as_nanos(), 0, "0.4 ns rounds down");
        assert_eq!(c.process_cost(1.5, 1).as_nanos(), 2, "1.5 ns rounds up");
        assert_eq!(c.process_cost(2.5, 0).as_nanos(), 0);
    }

    #[test]
    fn scaled_saturates_and_zero_is_absorbing() {
        let d = SimDuration::from_millis(3);
        assert_eq!(d.scaled(0.0), SimDuration::ZERO);
        assert_eq!(SimDuration::ZERO.scaled(1e9), SimDuration::ZERO);
        assert_eq!(d.scaled(1.0), d);
    }

    #[test]
    fn seconds_and_millis_views_agree() {
        let d = SimDuration::from_millis(2500);
        assert!((d.as_secs_f64() - 2.5).abs() < 1e-12);
        assert!((d.as_millis_f64() - 2500.0).abs() < 1e-9);
    }

    #[test]
    fn contention_never_speeds_work_up() {
        let m = ContentionModel::new(8);
        for d in [0.0, 0.5, 3.0, 7.0, 8.0, 20.0] {
            assert!(m.slowdown(d) >= 1.0, "demand {d}");
        }
    }
}
