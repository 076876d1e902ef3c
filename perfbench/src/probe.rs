//! Layer calls shared by the workloads' traced runs: a mirror of the
//! uncached per-VM capture path, and the per-byte calibration probes that
//! feed `digest.md5_ns_per_byte` and the `model.*` ratios.

use mc_hypervisor::{CostModel, Hypervisor, VmId};
use mc_vmi::{RetryPolicy, VmiSession, VmiStats};
use modchecker::{
    compare_pair_with, digest::digest, CheckError, DigestAlgo, ExtractedModule, ModuleSearcher,
    PairScratch,
};

use crate::trace::Tracer;

/// One VM's capture through the public layer calls, in the order
/// `ModChecker`'s uncached extraction makes them (attach → list walk →
/// image copy → parse + header hashes), with the same simulated charges.
#[derive(Debug)]
pub struct Capture {
    pub module: Result<ExtractedModule, CheckError>,
    pub stats: VmiStats,
    /// Simulated time of attach + list walk + copy.
    pub searcher_ns: u64,
    /// Simulated parse charge.
    pub parser_ns: u64,
    /// Simulated header-hash charge.
    pub checker_ns: u64,
}

pub fn capture(t: &mut Tracer, hv: &Hypervisor, vm: VmId, module: &str) -> Capture {
    let s = t.begin("vmi.attach");
    let session = VmiSession::attach(hv, vm)
        .map(|s| s.with_retry(RetryPolicy::default()).with_fast_capture());
    t.end(s);
    let mut session = match session {
        Ok(s) => s,
        Err(e) => {
            return Capture {
                module: Err(e.into()),
                stats: VmiStats::default(),
                searcher_ns: 0,
                parser_ns: 0,
                checker_ns: 0,
            }
        }
    };
    let s = t.begin("searcher.find_ref");
    let entry = ModuleSearcher::find_ref(&mut session, module);
    t.end(s);
    let image = entry.and_then(|entry| {
        let s = t.begin("vmi.capture");
        let image = ModuleSearcher::capture(&mut session, &entry);
        t.end(s);
        image
    });
    let searcher_ns = session.take_elapsed().as_nanos();
    let image = match image {
        Ok(i) => i,
        Err(e) => {
            return Capture {
                module: Err(e),
                stats: session.stats(),
                searcher_ns,
                parser_ns: 0,
                checker_ns: 0,
            }
        }
    };
    let cost = *session.cost_model();
    session.charge_process(cost.parse_byte_ns, image.bytes.len() as u64);
    let parser_ns = session.take_elapsed().as_nanos();
    session.charge_process(cost.hash_byte_ns * DigestAlgo::Md5.cost_factor(), 4096);
    let s = t.begin("parts.extract");
    let module = ExtractedModule::with_algo(image, DigestAlgo::Md5);
    t.end(s);
    Capture {
        module,
        stats: session.stats(),
        searcher_ns,
        parser_ns,
        checker_ns: session.take_elapsed().as_nanos(),
    }
}

/// Header bytes `ExtractedModule::with_algo` hashes.
pub fn header_bytes(m: &ExtractedModule) -> u64 {
    m.parts
        .parts
        .iter()
        .filter(|p| !p.is_exec_data)
        .map(|p| p.range.len() as u64)
        .sum()
}

/// Executable-section bytes of one capture.
pub fn exec_bytes(m: &ExtractedModule) -> u64 {
    m.parts
        .exec_sections
        .iter()
        .map(|s| s.range.len() as u64)
        .sum()
}

/// Host ns and bytes per layer, accumulated by the calibration probes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Calib {
    pub md5_ns: u64,
    pub md5_bytes: u64,
    pub extract_ns: u64,
    pub extract_bytes: u64,
    pub extract_hashed: u64,
    pub compare_ns: u64,
    pub compare_bytes: u64,
}

impl Calib {
    /// One round of probes over two captures of the same module: a whole
    /// image digest, a re-extraction and a pairwise compare. Each call is
    /// a root span (outside any op), so op accounting is untouched.
    pub fn probe(&mut self, t: &mut Tracer, a: &ExtractedModule, b: &ExtractedModule) {
        let s = t.begin("probe.digest");
        std::hint::black_box(digest(
            DigestAlgo::Md5,
            std::hint::black_box(&a.image.bytes),
        ));
        t.end(s);
        self.md5_ns += t.duration_ns(s);
        self.md5_bytes += a.image.bytes.len() as u64;

        let image = a.image.clone();
        let s = t.begin("probe.extract");
        let m = ExtractedModule::with_algo(std::hint::black_box(image), DigestAlgo::Md5);
        t.end(s);
        self.extract_ns += t.duration_ns(s);
        self.extract_bytes += a.image.bytes.len() as u64;
        self.extract_hashed += header_bytes(a);
        drop(m);

        let mut scratch = PairScratch::new();
        let s = t.begin("probe.compare");
        let o = compare_pair_with(a, b, None, &mut scratch);
        t.end(s);
        std::hint::black_box(o.expect("captures share one digest algorithm"));
        self.compare_ns += t.duration_ns(s);
        self.compare_bytes += exec_bytes(a) + exec_bytes(b);
    }

    #[allow(clippy::cast_precision_loss)]
    pub fn md5_ns_per_byte(&self) -> f64 {
        self.md5_ns as f64 / self.md5_bytes.max(1) as f64
    }

    /// Parse ns/byte: re-extraction time minus its header hashing.
    #[allow(clippy::cast_precision_loss)]
    pub fn parse_ns_per_byte(&self) -> f64 {
        let hashing = self.md5_ns_per_byte() * self.extract_hashed as f64;
        ((self.extract_ns as f64 - hashing) / self.extract_bytes.max(1) as f64).max(1e-6)
    }

    /// Algorithm 2 scan ns/byte: compare time minus the digests of both
    /// adjusted buffers, per executable byte scanned.
    #[allow(clippy::cast_precision_loss)]
    pub fn diff_ns_per_byte(&self) -> f64 {
        let hashing = self.md5_ns_per_byte() * self.compare_bytes as f64;
        ((self.compare_ns as f64 - hashing) / self.compare_bytes.max(1) as f64).max(1e-6)
    }

    /// The `model.*` ratios: `CostModel` constant over measured rate.
    pub fn model_ratios(&self, cost: &CostModel) -> [(&'static str, f64); 3] {
        [
            (
                "model.hash_byte_ratio",
                cost.hash_byte_ns / self.md5_ns_per_byte(),
            ),
            (
                "model.parse_byte_ratio",
                cost.parse_byte_ns / self.parse_ns_per_byte(),
            ),
            (
                "model.diff_byte_ratio",
                cost.diff_byte_ns / self.diff_ns_per_byte(),
            ),
        ]
    }
}
