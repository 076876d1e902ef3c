//! Pool scanning: drive the three components across a cloud of VMs.
//!
//! [`ModChecker::check_one`] is the paper's primary operation: take the
//! module from one (reference) VM and compare it against the same module on
//! the other `t − 1` VMs, majority-voting the verdict. The paper's
//! prototype "accesses the virtual machines' memory in a sequence"; its
//! authors note the modular design "can support parallel access of virtual
//! machines' memory which would considerably enhance the runtime
//! performance". Here the host's cores decide: every scan stage (capture,
//! pairwise matrix, canonical forms) has one body that splits its items
//! into one contiguous chunk per worker and runs each chunk as the
//! paper's sequential loop with its own cost ledger. Uncached scans take
//! one worker per available core; cached scans, whose steady-state stages
//! are memo hits, take one. Chunk results and checker charges are
//! gathered in chunk order, so the worker count never changes a report
//! byte.
//!
//! [`ModChecker::check_pool`] extends the vote to every VM (full pairwise
//! matrix) so each VM gets a verdict in one pass — what a monitoring daemon
//! wants.
#![cfg_attr(not(test), warn(clippy::too_many_lines))]

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

use rayon::prelude::*;

use mc_hypervisor::{Hypervisor, SimDuration, VmId, PAGE_SIZE};
use mc_vmi::{RetryPolicy, VmiError, VmiSession, VmiStats};

use crate::arena::CaptureArena;
use crate::cache::{AnalysisCache, CaptureCache, CaptureOutcome, Fingerprint, Refresh};
use crate::checker::{
    canonical_form_in, compare_pair_in, compare_pair_with, CanonicalForm, ExtractedModule,
    PairOutcome, PairScratch, SectionGroups,
};
use crate::digest::{DigestAlgo, PartDigest};
use crate::error::CheckError;
use crate::parts::PartId;
use crate::report::{
    ComponentTimes, ModuleCheckReport, PoolCheckReport, QuorumStatus, VerdictError, VerdictStatus,
    VmScanStats, VmVerdict,
};
use crate::searcher::{ModuleImage, ModuleRef, ModuleSearcher};

/// How cross-VM agreement is established.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CompareStrategy {
    /// The paper's Algorithm 2: every pair of captures is diff-reconciled
    /// and hashed — O(t²) pairs. Robust (trusts no in-guest metadata) but
    /// quadratic in pool size. Every pair's outcome is exactly Algorithm
    /// 2's; the scan only skips byte work whose result it can prove. Section
    /// pairs whose `.reloc`-normalized bytes and slot lists are equal, with
    /// slots at least one address width apart, take Algorithm 2's closed
    /// form instead of a copy, scan and hash. Other section pairs are
    /// decided by their adjusted bytes rather than their digests, which
    /// differ only on a digest collision. The table only picks which bytes
    /// to normalize; the bytes decide, so a doctored table costs the fast
    /// path, not the verdict.
    #[default]
    Pairwise,
    /// Canonical-form comparison: each capture is normalized once against
    /// its own load base via its `.reloc` table and hashed; verdicts come
    /// from content-addressed bucket grouping of the fingerprints — O(t),
    /// with pairwise Algorithm 2 retained as the fallback for reloc-less
    /// modules and as a targeted cross-bucket diff between bucket
    /// representatives (so the report still names disagreeing parts).
    Canonical,
}

/// Scanner configuration.
#[derive(Clone, Copy, Debug)]
pub struct CheckConfig {
    /// Cross-VM comparison strategy (paper: pairwise; tentpole: canonical).
    pub compare: CompareStrategy,
    /// Part fingerprint algorithm (paper: MD5; ablation ABL-6).
    pub digest: DigestAlgo,
    /// Run the single-VM static lint pass (`mc-analysis`) over every
    /// captured image and attach non-clean reports. This is the "deeper
    /// analysis" the paper's §III defers to when voting is ambiguous: it
    /// needs no reference VM, so it names infected VMs even when the
    /// majority is compromised (EXT-4).
    pub static_prepass: bool,
    /// Retry policy for transient introspection faults (applies to every
    /// per-VM session the scan opens).
    pub retry: RetryPolicy,
    /// Per-VM simulated-time capture deadline. `None` — the default —
    /// lets a capture run as long as it takes.
    pub deadline: Option<SimDuration>,
    /// Minimum number of scannable VMs for the vote to carry weight. Below
    /// this the scan still completes but reports
    /// [`QuorumStatus::Lost`] and marks every surviving verdict
    /// [`VerdictStatus::Unscannable`].
    pub min_quorum: usize,
    /// Capture fast path (DESIGN.md §14): per-session translate caching
    /// plus scatter-gather stable reads for module captures and list
    /// walks. On by default — verdicts are byte-identical either way
    /// (the equivalence suite pins this); `false` restores the paper's
    /// page-by-page capture loop for ablation.
    pub fast_capture: bool,
    /// Tamper-evidence channel (DESIGN.md §16): when a cached capture's
    /// page write-generations moved but the refreshed bytes are identical
    /// to the cached ones, someone wrote to the module and then wrote the
    /// same bytes back — the scrub-race signature (infect after the scan,
    /// restore clean just before the next one). The scan records the
    /// `(vm, module)` pair on the cache ([`CaptureCache::silent_restores`])
    /// and bumps [`crate::CacheStats::silent_restores`]; verdict bytes are
    /// untouched. Off by default — a legitimate guest rewriting identical
    /// bytes (e.g. an idempotent patcher) would trip it.
    pub tamper_evidence: bool,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            compare: CompareStrategy::default(),
            digest: DigestAlgo::default(),
            static_prepass: false,
            retry: RetryPolicy::default(),
            deadline: None,
            // Pairwise voting needs at least two captures to compare.
            min_quorum: 2,
            fast_capture: true,
            tamper_evidence: false,
        }
    }
}

/// The ModChecker driver.
///
/// Uncached scans ([`Self::check_pool`], [`Self::check_one`],
/// [`Self::check_all_modules`]) draw their capture buffers from an arena
/// the checker owns and its clones share, and return them to it once the
/// report is built (DESIGN.md §14), so steady scans reuse the previous
/// scan's memory instead of faulting fresh pages in.
#[derive(Clone)]
pub struct ModChecker {
    /// Configuration.
    pub config: CheckConfig,
    arena: Arc<Mutex<CaptureArena>>,
}

impl Default for ModChecker {
    fn default() -> Self {
        Self::with_config(CheckConfig::default())
    }
}

/// Prints the configuration and the arena's counters, never its buffers.
impl fmt::Debug for ModChecker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModChecker")
            .field("config", &self.config)
            .field("arena", &self.arena().stats())
            .finish()
    }
}

/// Bytes charged for hashing a capture's headers: they fit in one page.
const HEADER_BYTES: u64 = 4096;

/// The quorum rule: fewer than `min_quorum` scanned VMs lose the vote;
/// every VM of the pool scanned is full; anything between is degraded.
fn quorum(scanned: usize, pool_size: usize, min_quorum: usize) -> QuorumStatus {
    if scanned < min_quorum {
        QuorumStatus::Lost
    } else if scanned == pool_size {
        QuorumStatus::Full
    } else {
        QuorumStatus::Degraded
    }
}

/// Workers an uncached scan fans out over: one per available core.
fn host_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Splits `items` into at most `workers` contiguous chunks, maps each chunk
/// through `f` — on its own thread when there is more than one — and
/// returns the results in chunk order.
fn per_chunk<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&[T]) -> R + Sync,
) -> Vec<R> {
    let chunk_len = items.len().div_ceil(workers.max(1)).max(1);
    let chunks: Vec<&[T]> = items.chunks(chunk_len).collect();
    chunks.par_iter().map(|chunk| f(chunk)).collect()
}

/// A comparison-stage ledger: a session on `vm` whose attach charge is
/// dropped (the capture counted it already); `None` when no capture
/// survived to charge against.
fn attach_ledger(hv: &Hypervisor, vm: Option<VmId>) -> Result<Option<VmiSession<'_>>, CheckError> {
    vm.map(|vm| {
        let mut ledger = VmiSession::attach(hv, vm)?;
        ledger.take_elapsed();
        Ok(ledger)
    })
    .transpose()
}

/// One VM's extraction product with its component times and introspection
/// counters. The module is shared (`Arc`) so the capture cache can hand the
/// same decoded capture to successive rounds without deep-copying image
/// bytes.
struct Extraction {
    /// The decoded capture, or why this VM produced none.
    result: Result<Arc<ExtractedModule>, CheckError>,
    /// The VM's name (empty when the id was unknown), times and counters.
    stats: VmScanStats,
    /// Serial of the capture-cache entry holding `result`'s capture, when
    /// it came from (or went into) the cache.
    entry: Option<u64>,
}

/// Where a scan's captures come from (DESIGN.md §14).
enum ScanState<'s> {
    /// Uncached: the checker's growing per-scan arena.
    Arena(&'s Mutex<CaptureArena>),
    /// Cached: the pool's cache (its own tight-fit arena) and the VMs the
    /// event plane vouches for.
    Cache {
        cache: &'s mut CaptureCache,
        trusted: &'s HashSet<VmId>,
    },
}

impl ScanState<'_> {
    /// The scan's capture cache; `None` when uncached.
    fn cache(&mut self) -> Option<&mut CaptureCache> {
        match self {
            ScanState::Cache { cache, .. } => Some(cache),
            ScanState::Arena(_) => None,
        }
    }

    /// A zeroed buffer of `len` bytes from the scan's arena.
    fn acquire(&mut self, len: usize) -> Vec<u8> {
        match self {
            ScanState::Arena(arena) => crate::lock(arena).acquire(len),
            ScanState::Cache { cache, .. } => cache.acquire(len),
        }
    }

    /// Returns a buffer to the scan's arena.
    fn release(&mut self, buf: Vec<u8>) {
        match self {
            ScanState::Arena(arena) => crate::lock(arena).release(buf),
            ScanState::Cache { cache, .. } => cache.release(buf),
        }
    }
}

impl ModChecker {
    /// Scanner with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scanner with full configuration.
    pub fn with_config(config: CheckConfig) -> Self {
        ModChecker {
            config,
            arena: Arc::new(Mutex::new(CaptureArena::per_scan())),
        }
    }

    /// The shared capture arena. Held only to acquire or release a
    /// buffer, never across a guest read; a panic elsewhere cannot leave
    /// the free list half-updated, so a poisoned lock is recovered.
    fn arena(&self) -> MutexGuard<'_, CaptureArena> {
        crate::lock(&self.arena)
    }

    /// Returns the image buffers of a finished scan's captures to the
    /// arena. The report holds no capture, so each `Arc` is the last.
    fn reclaim(&self, modules: impl IntoIterator<Item = Arc<ExtractedModule>>) {
        let mut arena = self.arena();
        for m in modules {
            arena.reclaim(m);
        }
    }

    /// Single-VM static lint pass over one extracted image; `Some` only
    /// when the analyzer has findings. Parse failures yield no report —
    /// structural corruption already surfaces through the extraction and
    /// hashing paths.
    fn static_scan(m: &ExtractedModule) -> Option<mc_analysis::AnalysisReport> {
        mc_analysis::Analyzer::new()
            .analyze_image(
                &m.image.vm_name,
                &m.image.name,
                m.image.base,
                &m.image.bytes,
            )
            .ok()
            .filter(|r| !r.is_clean())
    }

    /// Opens the per-VM session every extraction uses: attach, then this
    /// scanner's retry policy, deadline and capture fast path.
    fn open_session<'hv>(
        &self,
        hv: &'hv Hypervisor,
        vm: VmId,
    ) -> Result<VmiSession<'hv>, VmiError> {
        let mut session = VmiSession::attach(hv, vm)?.with_retry(self.config.retry);
        if let Some(deadline) = self.config.deadline {
            session = session.with_deadline(deadline);
        }
        if self.config.fast_capture {
            session = session.with_fast_capture();
        }
        Ok(session)
    }

    /// The one capture body of every pool scan and [`Self::check_one`]
    /// (DESIGN.md §14): attach (fault plans fire, VM loss surfaces); take
    /// a trusted pair's cached capture; else find the module and, cached
    /// only, probe its page stamps — no guest read, no fault draw, but a
    /// warmer translate cache — for the cache to decide the
    /// [`CaptureOutcome`]; run its arm; let the cache settle it.
    fn extract(
        &self,
        hv: &Hypervisor,
        vm: VmId,
        module: &str,
        state: &mut ScanState<'_>,
    ) -> Extraction {
        let (algo, tamper_evidence) = (self.config.digest, self.config.tamper_evidence);
        let mut stats = VmScanStats {
            vm_name: hv.vm(vm).map(|v| v.name.clone()).unwrap_or_default(),
            ..VmScanStats::default()
        };
        let mut session = match self.open_session(hv, vm) {
            Ok(s) => s,
            Err(e) => {
                // A dead VM's cached captures describe a guest that no
                // longer exists: settling the failure evicts them.
                let result = Err(e.into());
                if let Some(cache) = state.cache() {
                    cache.settle(vm, module, None, &result, tamper_evidence);
                }
                return Extraction {
                    result,
                    stats,
                    entry: None,
                };
            }
        };
        let trusted = match state {
            ScanState::Cache { cache, trusted } if trusted.contains(&vm) => {
                cache.trusted(vm, module, algo)
            }
            _ => None,
        };
        let decided = trusted.map_or_else(
            || {
                let entry = ModuleSearcher::find_ref(&mut session, module)?;
                Ok(match state.cache() {
                    Some(cache) => {
                        let gens = session.range_generations(entry.base, entry.size).ok();
                        cache.decide(vm, module, entry, algo, gens)
                    }
                    None => CaptureOutcome::Fresh(entry, None),
                })
            },
            Ok,
        );
        let (result, outcome) = match decided {
            Ok(outcome) => {
                let (result, outcome) =
                    self.capture(&mut session, state, outcome, &mut stats.times);
                (result, Some(outcome))
            }
            Err(e) => {
                stats.times.searcher = session.take_elapsed();
                (Err(e), None)
            }
        };
        let entry = state
            .cache()
            .and_then(|cache| cache.settle(vm, module, outcome, &result, tamper_evidence));
        (stats.vmi, stats.fault_injections) = (session.stats(), session.fault_injections());
        Extraction {
            result,
            stats,
            entry,
        }
    }

    /// Runs `outcome`'s arm; `Trusted` and `Hit` serve the cached capture.
    fn capture(
        &self,
        session: &mut VmiSession<'_>,
        state: &mut ScanState<'_>,
        outcome: CaptureOutcome,
        times: &mut ComponentTimes,
    ) -> (Result<Arc<ExtractedModule>, CheckError>, CaptureOutcome) {
        match outcome {
            CaptureOutcome::Trusted(ref m, _) | CaptureOutcome::Hit(ref m, _) => {
                times.searcher = session.take_elapsed();
                (Ok(Arc::clone(m)), outcome)
            }
            CaptureOutcome::Partial(r) | CaptureOutcome::IdenticalRefresh(r) => {
                self.refresh(session, state, r, times)
            }
            CaptureOutcome::Fresh(ref entry, _) => {
                (self.fresh(session, state, entry, times), outcome)
            }
        }
    }

    /// The fresh arm: copy the image into a buffer from the scan's arena
    /// (a failed read returns it), then charge and run the parse and the
    /// header hashes (content hashing happens pairwise).
    fn fresh(
        &self,
        session: &mut VmiSession<'_>,
        state: &mut ScanState<'_>,
        entry: &ModuleRef,
        times: &mut ComponentTimes,
    ) -> Result<Arc<ExtractedModule>, CheckError> {
        let bytes = state.acquire(entry.size as usize);
        let image = ModuleSearcher::capture_into(session, entry, bytes);
        times.searcher = session.take_elapsed();
        let image = image.map_err(|(e, bytes)| {
            state.release(bytes);
            e
        })?;
        let cost = *session.cost_model();
        session.charge_process(cost.parse_byte_ns, image.bytes.len() as u64);
        times.parser = session.take_elapsed();
        session.charge_process(
            cost.hash_byte_ns * self.config.digest.cost_factor(),
            HEADER_BYTES,
        );
        let extracted = ExtractedModule::with_algo(image, self.config.digest).map(Arc::new);
        times.checker = session.take_elapsed();
        extracted
    }

    /// The partial arm: re-read the dirty pages into a copy of the cached
    /// capture and re-parse it, charging the dirty bytes' parse (and the
    /// header hashes if page 0 moved). A copy equal to the cached bytes is
    /// an `IdenticalRefresh`: the capture stays, charged as if re-parsed.
    fn refresh(
        &self,
        session: &mut VmiSession<'_>,
        state: &mut ScanState<'_>,
        mut r: Refresh,
        times: &mut ComponentTimes,
    ) -> (Result<Arc<ExtractedModule>, CheckError>, CaptureOutcome) {
        let cached = &r.cached.module.image;
        let mut bytes = state.acquire(cached.bytes.len());
        bytes.copy_from_slice(&cached.bytes);
        let read = ModuleSearcher::refresh_pages(session, cached.base, &mut bytes, &r.dirty);
        times.searcher = session.take_elapsed();
        if let Err(e) = read {
            state.release(bytes);
            return (Err(e), CaptureOutcome::Partial(r));
        }
        r.read = true;
        let page = |i: usize| i * PAGE_SIZE..(i * PAGE_SIZE + PAGE_SIZE).min(bytes.len());
        let unchanged = r
            .dirty
            .iter()
            .all(|&i| bytes[page(i)] == cached.bytes[page(i)]);
        let dirty_bytes: u64 = r.dirty.iter().map(|&i| page(i).len() as u64).sum();
        let cost = *session.cost_model();
        session.charge_process(cost.parse_byte_ns, dirty_bytes);
        times.parser = session.take_elapsed();
        if r.dirty.contains(&0) {
            session.charge_process(
                cost.hash_byte_ns * self.config.digest.cost_factor(),
                HEADER_BYTES,
            );
        }
        if unchanged {
            state.release(bytes);
            times.checker = session.take_elapsed();
            let module = Arc::clone(&r.cached.module);
            return (Ok(module), CaptureOutcome::IdenticalRefresh(r));
        }
        let image = ModuleImage {
            vm: cached.vm,
            vm_name: cached.vm_name.clone(),
            name: cached.name.clone(),
            base: cached.base,
            bytes,
        };
        let extracted = ExtractedModule::with_algo(image, self.config.digest).map(Arc::new);
        times.checker = session.take_elapsed();
        (extracted, CaptureOutcome::Partial(r))
    }

    /// Extracts the module from every VM: one chunk of VMs per worker
    /// uncached, on the calling thread (one mutable cache) cached.
    fn extract_all(
        &self,
        hv: &Hypervisor,
        vms: &[VmId],
        module: &str,
        state: &mut ScanState<'_>,
        workers: usize,
    ) -> Vec<Extraction> {
        if let ScanState::Arena(arena) = *state {
            return per_chunk(vms, workers, |chunk| {
                let mut state = ScanState::Arena(arena);
                chunk
                    .iter()
                    .map(|&vm| self.extract(hv, vm, module, &mut state))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        }
        vms.iter()
            .map(|&vm| self.extract(hv, vm, module, state))
            .collect()
    }

    /// The paper's check: compare `module` on `reference` against the same
    /// module on `others`; clean iff it matches a majority.
    ///
    /// Integrity-signal failures on peer VMs (module missing, unreadable,
    /// corrupt) count as failed comparisons and are reported; *unreachable*
    /// peers (lost, paused out, past deadline) are excluded from the vote
    /// entirely — they say nothing about the reference module. A failure on
    /// the reference VM itself is an error (there is nothing to vote
    /// about).
    pub fn check_one(
        &self,
        hv: &Hypervisor,
        reference: VmId,
        others: &[VmId],
        module: &str,
    ) -> Result<ModuleCheckReport, CheckError> {
        if others.is_empty() {
            return Err(CheckError::PoolTooSmall(1));
        }
        let mut all = vec![reference];
        all.extend_from_slice(others);
        let mut state = ScanState::Arena(&self.arena);
        let mut extractions = self.extract_all(hv, &all, module, &mut state, host_workers());

        let reference_ex = extractions.remove(0);
        let mut vmi = reference_ex.stats.vmi;
        let mut fault_injections = reference_ex.stats.fault_injections;
        let (ref_times, ref_name) = (reference_ex.stats.times, reference_ex.stats.vm_name);
        let reference_mod = reference_ex.result?;

        let mut per_vm_times = vec![(ref_name.clone(), ref_times)];
        let mut outcomes = Vec::new();
        let mut errors = Vec::new();
        let mut static_findings = Vec::new();
        if self.config.static_prepass {
            static_findings.extend(Self::static_scan(&reference_mod));
        }

        // Pairwise comparison cost is charged via a ledger attached to the
        // reference VM (Dom0 does this work; contention applies).
        let mut ledger = VmiSession::attach(hv, reference)?;
        ledger.take_elapsed(); // drop the attach charge; counted already

        let mut scratch = PairScratch::new();
        let mut captures = Vec::with_capacity(extractions.len());
        for ex in extractions {
            per_vm_times.push((ex.stats.vm_name.clone(), ex.stats.times));
            vmi.accumulate(&ex.stats.vmi);
            fault_injections += ex.stats.fault_injections;
            let vm_name = ex.stats.vm_name;
            match ex.result {
                Ok(other) => {
                    if self.config.static_prepass {
                        static_findings.extend(Self::static_scan(&other));
                    }
                    outcomes.push(compare_pair_with(
                        &reference_mod,
                        &other,
                        Some(&mut ledger),
                        &mut scratch,
                    )?);
                    captures.push(other);
                }
                Err(e) => errors.push((vm_name, VerdictError::classify(&e))),
            }
        }
        captures.push(reference_mod);
        self.reclaim(captures);
        // Attribute pairwise checker time to the reference VM's slot.
        per_vm_times[0].1.checker += ledger.take_elapsed();

        let mut times = ComponentTimes::default();
        for (_, t) in &per_vm_times {
            times.accumulate(t);
        }

        let successes = outcomes.iter().filter(|o| o.matches()).count();
        // Integrity-signal failures are failed comparisons; unreachable
        // peers drop out of the vote.
        let suspect_errors = errors
            .iter()
            .filter(|(_, e)| !e.kind.is_unscannable())
            .count();
        let comparisons = outcomes.len() + suspect_errors;
        let scanned = 1 + outcomes.len();
        let pool_size = 1 + others.len();
        let quorum = quorum(scanned, pool_size, self.config.min_quorum);
        Ok(ModuleCheckReport {
            module: module.to_string(),
            reference: ref_name,
            outcomes,
            errors,
            successes,
            comparisons,
            clean: quorum != QuorumStatus::Lost && successes * 2 > comparisons,
            scanned,
            quorum,
            times,
            per_vm_times,
            vmi,
            fault_injections,
            static_findings,
        })
    }

    /// Full-matrix pool check: every VM gets a majority verdict.
    ///
    /// The scan *always completes*, whatever the guests do: VMs that
    /// cannot be captured are excluded from the vote (status
    /// [`VerdictStatus::Unscannable`] when unreachable,
    /// [`VerdictStatus::Suspect`] when the failure is itself an integrity
    /// signal), the survivors vote among themselves, and the report's
    /// [`QuorumStatus`] says how much the vote still means.
    pub fn check_pool(
        &self,
        hv: &Hypervisor,
        vms: &[VmId],
        module: &str,
    ) -> Result<PoolCheckReport, CheckError> {
        self.scan_pool(
            hv,
            vms,
            module,
            ScanState::Arena(&self.arena),
            host_workers(),
        )
    }

    /// [`Self::check_pool`] with a generation-guarded capture cache (see
    /// [`CaptureCache`]): unchanged modules are re-voted from their cached
    /// captures instead of being re-copied. Verdicts are identical to the
    /// uncached scan; only the capture cost changes.
    pub fn check_pool_with_cache(
        &self,
        hv: &Hypervisor,
        vms: &[VmId],
        module: &str,
        cache: &mut CaptureCache,
    ) -> Result<PoolCheckReport, CheckError> {
        self.check_pool_with_cache_trusted(hv, vms, module, cache, &HashSet::new())
    }

    /// [`Self::check_pool_with_cache`] with per-VM event-plane trust: VMs
    /// in `trusted` (armed watches, no write events since their entry was
    /// cached) are served straight from the cache with zero guest reads
    /// and zero page walks; everyone else takes the normal probe path.
    /// Verdicts are identical to the poll scan — the same capture bytes
    /// vote — only the steady-state cost changes.
    ///
    /// The whole scan runs on one worker, the calling thread: the cache is
    /// one mutable structure, and on the steady-state hit path every stage
    /// is a memo hit, cheaper than a fan-out's thread setup. In canonical
    /// mode the static pre-pass runs the lint engine once per content
    /// bucket, memoized in the cache across rounds, and replicates the
    /// findings to every bucket member with diagnostic addresses rebased:
    /// it names the same VMs with the same lint evidence as a per-VM pass.
    pub fn check_pool_with_cache_trusted(
        &self,
        hv: &Hypervisor,
        vms: &[VmId],
        module: &str,
        cache: &mut CaptureCache,
        trusted: &HashSet<VmId>,
    ) -> Result<PoolCheckReport, CheckError> {
        self.scan_pool(hv, vms, module, ScanState::Cache { cache, trusted }, 1)
    }

    /// The one pool-scan body: capture every VM through `state` at
    /// `workers`, then vote, matrix, report.
    fn scan_pool(
        &self,
        hv: &Hypervisor,
        vms: &[VmId],
        module: &str,
        mut state: ScanState<'_>,
        workers: usize,
    ) -> Result<PoolCheckReport, CheckError> {
        if vms.len() < 2 {
            return Err(CheckError::PoolTooSmall(vms.len()));
        }
        let extractions = self.extract_all(hv, vms, module, &mut state, workers);
        // The cache entries that voted, when every VM's capture is one.
        let entries: Option<Vec<u64>> = extractions
            .iter()
            .map(|ex| ex.result.as_ref().ok().and(ex.entry))
            .collect();
        let (mut times, mut vmi, mut fault_injections): (ComponentTimes, VmiStats, u64) =
            Default::default();
        let (mut per_vm, mut vm_names, mut errors) = (Vec::new(), Vec::new(), Vec::new());
        // Successes remember their position among the VMs.
        let mut extracted: Vec<(usize, Arc<ExtractedModule>)> = Vec::new();
        for (i, ex) in extractions.into_iter().enumerate() {
            times.accumulate(&ex.stats.times);
            vmi.accumulate(&ex.stats.vmi);
            fault_injections += ex.stats.fault_injections;
            vm_names.push(ex.stats.vm_name.clone());
            per_vm.push(ex.stats);
            errors.push(ex.result.as_ref().err().map(VerdictError::classify));
            if let Ok(m) = ex.result {
                extracted.push((i, m));
            }
        }
        let scanned = extracted.len();
        let quorum = quorum(scanned, vms.len(), self.config.min_quorum);

        let vote = match state {
            ScanState::Cache { cache, .. } => {
                self.memoized_vote(hv, vms, module, &extracted, entries, cache, &mut times)?
            }
            ScanState::Arena(_) => {
                let vote = self.vote(hv, &extracted, None, workers, &mut times)?;
                self.reclaim(extracted.into_iter().map(|(_, m)| m));
                vote
            }
        };
        let verdicts = verdicts(vms, &vm_names, errors, &vote, scanned, quorum);

        Ok(PoolCheckReport {
            module: module.to_string(),
            vm_names,
            verdicts,
            matrix: vote.matrix.into_iter().map(|(_, _, o)| o).collect(),
            scanned,
            quorum,
            times,
            per_vm,
            vmi,
            fault_injections,
            static_findings: vote.static_findings,
        })
    }

    /// The vote over the successful extractions: comparison matrix,
    /// canonical per-VM votes and static pre-pass findings. Charges Dom0's
    /// comparison work to `times.checker`.
    fn vote(
        &self,
        hv: &Hypervisor,
        extracted: &[(usize, Arc<ExtractedModule>)],
        analysis_cache: Option<&mut AnalysisCache>,
        workers: usize,
        times: &mut ComponentTimes,
    ) -> Result<Vote, CheckError> {
        // The pairwise ledger charges Dom0's comparison work to a session
        // against a VM that is actually reachable; with nothing extracted
        // there are no pairs and no ledger to keep.
        let ledger_vm = extracted.first().map(|(_, m)| m.image.vm);

        // Build the comparison matrix. Canonical mode normalizes each
        // capture once and groups by fingerprint; it degrades to the full
        // pairwise sweep when any capture lacks a parseable `.reloc` table
        // (the canonical path cannot vouch for a module it cannot
        // normalize, and mixing normalized with unnormalized digests would
        // compare incomparables).
        let mut canonical = None;
        let mut canonical_groups: Option<Vec<(Fingerprint, Vec<usize>)>> = None;
        let matrix: Vec<(usize, usize, PairOutcome)> =
            if self.config.compare == CompareStrategy::Canonical {
                match self.canonical_matrix(hv, extracted, ledger_vm, times)? {
                    Some((m, votes, groups)) => {
                        canonical = Some(votes);
                        canonical_groups = Some(groups);
                        m
                    }
                    None => self.pairwise_matrix(hv, extracted, ledger_vm, workers, times)?,
                }
            } else {
                self.pairwise_matrix(hv, extracted, ledger_vm, workers, times)?
            };

        // Static pre-pass. The canonical bucket structure lets the lint
        // engine run once per distinct content, not once per VM; without it
        // (pairwise strategy, reloc-less fallback, or no cache offered) the
        // scan degrades gracefully to the per-VM pass.
        let static_findings: Vec<mc_analysis::AnalysisReport> = if self.config.static_prepass {
            match (&canonical_groups, analysis_cache) {
                (Some(groups), Some(cache)) => Self::bucketed_static_scan(extracted, groups, cache),
                _ => extracted
                    .iter()
                    .filter_map(|(_, m)| Self::static_scan(m))
                    .collect(),
            }
        } else {
            Vec::new()
        };
        Ok(Vote {
            matrix,
            canonical,
            static_findings,
        })
    }

    /// [`Self::vote`] for a cached scan, reusing the unit's memoized vote
    /// when nothing it depends on moved (ROADMAP item 2, "reuse unit
    /// verdicts"). Canonical mode only, and only when every VM's capture is
    /// a cache entry (`entries`): the vote is then a pure function of those
    /// captures, their order, the config and the charge rates, which is
    /// exactly the memo key. A reuse charges the memoized checker time and
    /// counts the analysis lookups it replaces as hits, so the report and
    /// every counter read as if the vote had been recomputed.
    #[allow(clippy::too_many_arguments)]
    fn memoized_vote(
        &self,
        hv: &Hypervisor,
        vms: &[VmId],
        module: &str,
        extracted: &[(usize, Arc<ExtractedModule>)],
        entries: Option<Vec<u64>>,
        cache: &mut CaptureCache,
        times: &mut ComponentTimes,
    ) -> Result<Vote, CheckError> {
        let key = entries
            .filter(|_| self.config.compare == CompareStrategy::Canonical)
            .map(|entries| VoteKey {
                vms: vms.to_vec(),
                entries,
                slowdown: hv.dom0_slowdown().to_bits(),
                cost: hv.cost,
                static_prepass: self.config.static_prepass,
                digest: self.config.digest,
            });
        let Some(key) = key else {
            return self.vote(hv, extracted, Some(&mut cache.analysis), 1, times);
        };
        if let Some(memo) = cache.votes.get(module).filter(|m| m.key == key) {
            times.checker += memo.checker;
            cache.analysis.stats.hits += memo.analysis_lookups;
            #[cfg(test)]
            {
                cache.vote_reuses += 1;
            }
            return Ok(memo.vote.clone());
        }
        let (checker, lookups) = (times.checker, cache.analysis.stats.lookups());
        let vote = self.vote(hv, extracted, Some(&mut cache.analysis), 1, times)?;
        let memo = VoteMemo {
            key,
            vote: vote.clone(),
            checker: times.checker - checker,
            analysis_lookups: cache.analysis.stats.lookups() - lookups,
        };
        cache.votes.insert(module.to_string(), memo);
        Ok(vote)
    }

    /// The full O(t²) pairwise matrix over successful extractions (tuple
    /// indices are positions in the original `vms` slice).
    ///
    /// Before any pair runs, the scan's executable sections are grouped by
    /// normalized bytes and slot list ([`SectionGroups`]); a section pair
    /// within one group takes Algorithm 2's closed form, every other runs
    /// the full pass in place. Outcomes and charges are those of comparing
    /// every pair alone.
    fn pairwise_matrix(
        &self,
        hv: &Hypervisor,
        extracted: &[(usize, Arc<ExtractedModule>)],
        ledger_vm: Option<VmId>,
        workers: usize,
        times: &mut ComponentTimes,
    ) -> Result<Vec<(usize, usize, PairOutcome)>, CheckError> {
        let pairs: Vec<(usize, usize)> = (0..extracted.len())
            .flat_map(|i| ((i + 1)..extracted.len()).map(move |j| (i, j)))
            .collect();
        let groups = SectionGroups::build(extracted.iter().map(|(_, m)| Some(&**m)));
        // Each chunk charges Dom0's work to its own ledger on `ledger_vm`.
        let chunks = per_chunk(&pairs, workers, |chunk| {
            let mut ledger = attach_ledger(hv, ledger_vm)?;
            // One scratch arena per chunk: zero per-pair allocations after
            // the slot log reaches its longest.
            let mut scratch = PairScratch::new();
            let outcomes: Vec<Result<_, CheckError>> = chunk
                .iter()
                .map(|&(i, j)| {
                    let ((vi, a), (vj, b)) = (&extracted[i], &extracted[j]);
                    let groups = Some((&groups, i, j));
                    let o = compare_pair_in(a, b, ledger.as_mut(), &mut scratch, groups)?;
                    Ok((*vi, *vj, o))
                })
                .collect();
            let elapsed = ledger
                .as_mut()
                .map_or(SimDuration::ZERO, VmiSession::take_elapsed);
            Ok::<_, CheckError>((outcomes, elapsed))
        });
        // The chunks' checker time is summed into `times` in chunk order.
        let mut matrix = Vec::with_capacity(pairs.len());
        for chunk in chunks {
            let (outcomes, elapsed) = chunk?;
            times.checker += elapsed;
            matrix.extend(outcomes);
        }
        matrix.into_iter().collect()
    }

    /// The canonical-form path: normalize+hash once per capture, bucket by
    /// fingerprint, then run pairwise Algorithm 2 only between bucket
    /// representatives to name the disagreeing parts. Returns `None` when
    /// any capture has no parseable `.reloc` table (caller falls back to
    /// the full pairwise sweep).
    ///
    /// Captures without a memoized form are grouped ([`SectionGroups`]):
    /// each distinct executable section is hashed once per scan.
    fn canonical_matrix(
        &self,
        hv: &Hypervisor,
        extracted: &[(usize, Arc<ExtractedModule>)],
        ledger_vm: Option<VmId>,
        times: &mut ComponentTimes,
    ) -> Result<CanonicalOutcome, CheckError> {
        let fresh = extracted
            .iter()
            .map(|(_, m)| m.canonical.get().is_none().then_some(&**m));
        let sections = SectionGroups::build(fresh);
        // Normalize and hash each capture once — O(t), the whole point.
        let mut ledger = attach_ledger(hv, ledger_vm)?;
        let forms: Vec<Option<CanonicalForm>> = (0..extracted.len())
            .map(|k| canonical_form_in(&extracted[k].1, ledger.as_mut(), Some((&sections, k))))
            .collect();
        if forms.iter().any(Option::is_none) {
            if let Some(l) = &mut ledger {
                times.checker += l.take_elapsed();
            }
            return Ok(None);
        }
        let forms: Vec<CanonicalForm> = forms.into_iter().flatten().collect();

        // Content-addressed bucket grouping: equal fingerprints ⟺ the
        // captures would pairwise-match, so a member's successes are just
        // its bucket's size minus itself. Bucket order is fixed by first
        // member for deterministic reports.
        let mut buckets: HashMap<&[(PartId, PartDigest)], Vec<usize>> = HashMap::new();
        for (pos, f) in forms.iter().enumerate() {
            buckets.entry(f.fingerprint()).or_default().push(pos);
        }
        let mut groups: Vec<Vec<usize>> = buckets.into_values().collect();
        groups.sort_by_key(|g| g[0]);

        // Targeted cross-bucket diff between representatives (at most
        // buckets², and buckets ≪ t on any realistic pool) explains which
        // parts disagree without re-running all t² pairs.
        let mut scratch = PairScratch::new();
        let mut matrix = Vec::new();
        let mut rep_mismatch: Vec<Vec<PartId>> = vec![Vec::new(); groups.len()];
        for gi in 0..groups.len() {
            for gj in (gi + 1)..groups.len() {
                let (pi, pj) = (groups[gi][0], groups[gj][0]);
                let o = compare_pair_in(
                    &extracted[pi].1,
                    &extracted[pj].1,
                    ledger.as_mut(),
                    &mut scratch,
                    Some((&sections, pi, pj)),
                )?;
                if !o.matches() {
                    rep_mismatch[gi].extend(o.mismatched.iter().cloned());
                    rep_mismatch[gj].extend(o.mismatched.iter().cloned());
                }
                matrix.push((extracted[pi].0, extracted[pj].0, o));
            }
        }
        if let Some(l) = &mut ledger {
            times.checker += l.take_elapsed();
        }

        let mut votes = HashMap::new();
        for (gi, group) in groups.iter().enumerate() {
            let mut suspect_parts = rep_mismatch[gi].clone();
            suspect_parts.sort();
            suspect_parts.dedup();
            for &pos in group {
                votes.insert(
                    extracted[pos].0,
                    CanonicalVote {
                        successes: group.len() - 1,
                        suspect_parts: suspect_parts.clone(),
                    },
                );
            }
        }
        let keyed_groups = groups
            .into_iter()
            .map(|g| (forms[g[0]].fingerprint().to_vec(), g))
            .collect();
        Ok(Some((matrix, votes, keyed_groups)))
    }

    /// The per-bucket static pre-pass: one analyzer run per distinct
    /// module content, replicated to every VM carrying that content.
    ///
    /// The canonical fingerprint covers headers and reloc-normalized
    /// executable data — everything the lints decode *except* the import
    /// tables, so each fingerprint bucket is subdivided by an FNV-1a digest
    /// of the raw `.idata` bytes (an IAT-pivoted VM must not share its
    /// clean peers' verdict). Each subgroup's first member in scan order is
    /// analyzed (or its cached verdict reused); findings are cloned to the
    /// other members with `vm_name` swapped and every diagnostic address
    /// shifted by the member's load-base delta. Detail strings keep the
    /// representative's addresses — they are prose, not machine keys.
    fn bucketed_static_scan(
        extracted: &[(usize, Arc<ExtractedModule>)],
        groups: &[(Fingerprint, Vec<usize>)],
        cache: &mut AnalysisCache,
    ) -> Vec<mc_analysis::AnalysisReport> {
        let mut slotted: Vec<(usize, mc_analysis::AnalysisReport)> = Vec::new();
        for (fingerprint, group) in groups {
            // Subdivide by import-table content, preserving member order.
            let mut subgroups: Vec<(u64, Vec<usize>)> = Vec::new();
            for &pos in group {
                let aux = import_table_digest(&extracted[pos].1);
                match subgroups.iter_mut().find(|(a, _)| *a == aux) {
                    Some((_, members)) => members.push(pos),
                    None => subgroups.push((aux, vec![pos])),
                }
            }
            for (aux, members) in subgroups {
                let rep = &extracted[members[0]].1;
                let rep_base = rep.image.base;
                let verdict = cache.lookup_or_run(fingerprint, aux, || {
                    Self::static_scan(rep).map(|r| (rep_base, r))
                });
                let Some((analyzed_base, report)) = verdict else {
                    continue;
                };
                for &pos in &members {
                    let m = &extracted[pos].1;
                    let mut replica = report.clone();
                    replica.vm_name = m.image.vm_name.clone();
                    let shift = m.image.base.wrapping_sub(*analyzed_base);
                    for d in &mut replica.diagnostics {
                        d.va = d.va.wrapping_add(shift);
                    }
                    slotted.push((pos, replica));
                }
            }
        }
        // Emit in scan order, as the per-VM pass would.
        slotted.sort_by_key(|(pos, _)| *pos);
        slotted.into_iter().map(|(_, r)| r).collect()
    }
}

/// Per-VM verdicts of a pool scan. The vote ran among the scanned VMs
/// only; `errors` holds why each other VM produced no capture.
fn verdicts(
    vms: &[VmId],
    vm_names: &[String],
    errors: Vec<Option<VerdictError>>,
    vote: &Vote,
    scanned: usize,
    quorum: QuorumStatus,
) -> Vec<VmVerdict> {
    let mut verdicts = Vec::with_capacity(vms.len());
    for (idx, (vm_name, error)) in vm_names.iter().zip(errors).enumerate() {
        let (successes, mut suspect_parts) = match &vote.canonical {
            // Canonical vote: a capture agrees with every other member of
            // its bucket.
            Some(votes) => votes
                .get(&idx)
                .map(|v| (v.successes, v.suspect_parts.clone()))
                .unwrap_or_default(),
            // Pairwise vote: count this VM's matching pairs.
            None => {
                let mut successes = 0usize;
                let mut suspect_parts = Vec::new();
                for (i, j, o) in &vote.matrix {
                    if *i == idx || *j == idx {
                        if o.matches() {
                            successes += 1;
                        } else {
                            suspect_parts.extend(o.mismatched.iter().cloned());
                        }
                    }
                }
                (successes, suspect_parts)
            }
        };
        suspect_parts.sort();
        suspect_parts.dedup();
        let (status, comparisons) = match &error {
            // No capture from this VM: unreachable ⇒ no evidence either
            // way; an integrity-signal failure ⇒ suspect.
            Some(e) if e.kind.is_unscannable() => (VerdictStatus::Unscannable, 0),
            Some(_) => (VerdictStatus::Suspect, 0),
            // Captured, but the pool as a whole fell below quorum: the
            // "vote" (if any pairs exist at all) has no weight.
            None if quorum == QuorumStatus::Lost => (VerdictStatus::Unscannable, 0),
            None => {
                let comparisons = scanned - 1;
                let status = if successes * 2 > comparisons {
                    VerdictStatus::Clean
                } else {
                    VerdictStatus::Suspect
                };
                (status, comparisons)
            }
        };
        verdicts.push(VmVerdict {
            vm: vms[idx],
            vm_name: vm_name.clone(),
            status,
            successes,
            comparisons,
            clean: status == VerdictStatus::Clean,
            suspect_parts,
            error,
        });
    }
    verdicts
}

/// FNV-1a over a capture's raw `.idata` bytes — the analyzer input the
/// canonical fingerprint deliberately excludes (initialized data is outside
/// the vote's hash scope). A module without an import section digests to
/// the FNV offset basis, which is fine: all such captures in one bucket
/// genuinely share every analyzer input.
fn import_table_digest(m: &ExtractedModule) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    if let Ok(parsed) = mc_pe::parser::ParsedModule::parse_memory(&m.image.bytes) {
        if let Some(idx) = parsed.find_section(".idata") {
            for &b in &m.image.bytes[parsed.sections[idx].data_range.clone()] {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    h
}

/// What a unit's captures vote: the comparison matrix (tuple indices are
/// positions in the scanned `vms`), the canonical per-VM votes (`None` on
/// the pairwise path) and the static pre-pass findings.
#[derive(Clone, Debug)]
struct Vote {
    matrix: Vec<(usize, usize, PairOutcome)>,
    canonical: Option<HashMap<usize, CanonicalVote>>,
    static_findings: Vec<mc_analysis::AnalysisReport>,
}

/// Everything a canonical unit's [`Vote`] and its checker charge depend
/// on besides the capture bytes, which the entry serials stand for.
#[derive(Clone, Debug, PartialEq)]
struct VoteKey {
    vms: Vec<VmId>,
    /// Serial of each VM's capture-cache entry, in `vms` order.
    entries: Vec<u64>,
    /// Dom0 contention scales every checker charge (`f64` bits).
    slowdown: u64,
    cost: mc_hypervisor::CostModel,
    static_prepass: bool,
    digest: DigestAlgo,
}

/// One module's memoized vote in a [`CaptureCache`].
#[derive(Clone, Debug)]
pub(crate) struct VoteMemo {
    key: VoteKey,
    vote: Vote,
    /// Checker time the vote charged.
    checker: SimDuration,
    /// Analysis-cache lookups the vote made.
    analysis_lookups: u64,
}

/// One scanned VM's canonical-mode vote inputs, keyed by its position in
/// the original `vms` slice.
#[derive(Clone, Debug, Default)]
struct CanonicalVote {
    successes: usize,
    suspect_parts: Vec<PartId>,
}

/// `canonical_matrix` result: `None` = reloc-less fallback to pairwise.
/// The third element is the bucket structure — fingerprint plus member
/// positions (into `extracted`), ordered by first member.
type CanonicalOutcome = Option<(
    Vec<(usize, usize, PairOutcome)>,
    HashMap<usize, CanonicalVote>,
    Vec<(Fingerprint, Vec<usize>)>,
)>;

/// Per-module sweep outcomes: `(module name, result)` in consensus order.
/// One module's failure is its own entry, never the sweep's.
pub type ModuleResults = Vec<(String, Result<crate::report::PoolCheckReport, CheckError>)>;

impl ModChecker {
    /// Whole-pool sweep (extension EXT-2): cross-compare the module *lists*
    /// first ([`crate::listdiff::ListDiff`]), then content-check every
    /// consensus module across the pool. Returns the list report plus one
    /// per-module result, in name order.
    ///
    /// One module's [`CheckError`] no longer aborts the sweep: each module
    /// carries its own `Result`, so an unscannable module among clean ones
    /// costs exactly that module. The fleet scheduler
    /// ([`crate::sched::FleetScheduler`]) inherits this isolation — only
    /// the initial list scan is still a sweep-fatal error (there is no
    /// work to enumerate without it).
    pub fn check_all_modules(
        &self,
        hv: &Hypervisor,
        vms: &[VmId],
    ) -> Result<(crate::listdiff::ListDiffReport, ModuleResults), CheckError> {
        let lists = crate::listdiff::ListDiff::scan_with(hv, vms, self.config.fast_capture)?;
        let mut reports = Vec::with_capacity(lists.consensus_modules.len());
        for module in &lists.consensus_modules {
            reports.push((module.clone(), self.check_pool(hv, vms, module)));
        }
        Ok((lists, reports))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheStats;
    use crate::report::VerdictErrorKind;
    use mc_guest::{build_cloud_with_modules, GuestOs};
    use mc_hypervisor::{AddressWidth, FaultPlan};
    use mc_pe::corpus::ModuleBlueprint;

    fn cloud(n: usize) -> (Hypervisor, Vec<GuestOs>, Vec<VmId>) {
        let mut hv = Hypervisor::new();
        let width = AddressWidth::W32;
        let bps = vec![
            ModuleBlueprint::new("hal.dll", width, 12 * 1024),
            ModuleBlueprint::new("http.sys", width, 20 * 1024),
        ];
        let guests = build_cloud_with_modules(&mut hv, n, width, &bps).unwrap();
        let ids = guests.iter().map(|g| g.vm).collect();
        (hv, guests, ids)
    }

    #[test]
    fn clean_pool_votes_clean() {
        let (hv, _guests, ids) = cloud(5);
        let report = ModChecker::new()
            .check_one(&hv, ids[0], &ids[1..], "hal.dll")
            .unwrap();
        assert!(report.clean);
        assert_eq!(report.successes, 4);
        assert_eq!(report.comparisons, 4);
        assert!(report.suspect_parts().is_empty());
        assert!(report.times.total() > mc_hypervisor::SimDuration::ZERO);
        // Searcher dominates, as the paper observes.
        assert!(report.times.searcher > report.times.parser);
    }

    #[test]
    fn infected_reference_votes_suspect() {
        let (mut hv, guests, ids) = cloud(5);
        guests[0]
            .patch_module(&mut hv, "hal.dll", 0x1003, &[0xCC])
            .unwrap();
        let report = ModChecker::new()
            .check_one(&hv, ids[0], &ids[1..], "hal.dll")
            .unwrap();
        assert!(!report.clean);
        assert_eq!(report.successes, 0);
    }

    #[test]
    fn infected_peer_does_not_flip_reference_verdict() {
        let (mut hv, guests, ids) = cloud(5);
        guests[2]
            .patch_module(&mut hv, "hal.dll", 0x1003, &[0xCC])
            .unwrap();
        let report = ModChecker::new()
            .check_one(&hv, ids[0], &ids[1..], "hal.dll")
            .unwrap();
        assert!(report.clean, "3 of 4 matches is a majority");
        assert_eq!(report.successes, 3);
    }

    #[test]
    fn pool_check_pinpoints_the_infected_vm() {
        let (mut hv, guests, ids) = cloud(5);
        guests[3]
            .patch_module(&mut hv, "http.sys", 0x1005, &[0x90, 0x90])
            .unwrap();
        let report = ModChecker::new().check_pool(&hv, &ids, "http.sys").unwrap();
        assert!(!report.all_clean());
        let suspects: Vec<&str> = report.suspects().map(|v| v.vm_name.as_str()).collect();
        assert_eq!(suspects, vec!["dom4"]);
        assert!(report.any_discrepancy());
    }

    #[test]
    fn missing_module_on_peer_is_failed_comparison() {
        let (mut hv, guests, ids) = cloud(4);
        guests[2].dkom_hide(&mut hv, "hal.dll").unwrap();
        let report = ModChecker::new()
            .check_one(&hv, ids[0], &ids[1..], "hal.dll")
            .unwrap();
        assert_eq!(report.errors.len(), 1);
        assert_eq!(report.comparisons, 3);
        assert_eq!(report.successes, 2);
        assert!(report.clean, "2 of 3 still a majority");
        assert_eq!(
            report.errors[0].1.kind,
            crate::report::VerdictErrorKind::ModuleNotFound
        );
    }

    #[test]
    fn grouped_matrix_is_every_pair_alone_at_any_worker_count() {
        let (mut hv, guests, mut ids) = cloud(6);
        // A clone holds hal.dll at its source's base.
        ids.push(hv.clone_vm(ids[0], "dom-clone").unwrap());
        // A patched VM makes a second group; a VM whose `.reloc` table no
        // longer parses is in none.
        guests[2]
            .patch_module(&mut hv, "hal.dll", 0x100F, &[0xE9])
            .unwrap();
        let capture = |hv: &Hypervisor, vm: VmId| {
            let mut s = VmiSession::attach(hv, vm).unwrap();
            ExtractedModule::new(ModuleSearcher::find(&mut s, "hal.dll").unwrap()).unwrap()
        };
        let parsed =
            mc_pe::parser::ParsedModule::parse_memory(&capture(&hv, ids[4]).image.bytes).unwrap();
        let reloc = &parsed.sections[parsed.find_section(".reloc").unwrap()];
        guests[4]
            .patch_module(
                &mut hv,
                "hal.dll",
                reloc.data_range.start as u64 + 4,
                &[3, 0, 0, 0],
            )
            .unwrap();

        let captures: Vec<ExtractedModule> = ids.iter().map(|&vm| capture(&hv, vm)).collect();
        let mut scratch = PairScratch::new();
        let mut alone = Vec::new();
        for i in 0..captures.len() {
            for j in (i + 1)..captures.len() {
                let o = compare_pair_with(&captures[i], &captures[j], None, &mut scratch).unwrap();
                alone.push(format!("{o:?}"));
            }
        }
        let checker = ModChecker::new();
        for workers in [1, 2, 3, 8] {
            let report = checker
                .scan_pool(
                    &hv,
                    &ids,
                    "hal.dll",
                    ScanState::Arena(&checker.arena),
                    workers,
                )
                .unwrap();
            let matrix: Vec<String> = report.matrix.iter().map(|o| format!("{o:?}")).collect();
            assert_eq!(matrix, alone, "{workers} workers");
            let suspects: Vec<&str> = report.suspects().map(|v| v.vm_name.as_str()).collect();
            assert_eq!(suspects, vec!["dom3"], "{workers} workers");
        }
    }

    #[test]
    fn worker_count_never_changes_the_report() {
        use mc_hypervisor::FaultPlan;
        for compare in [CompareStrategy::Pairwise, CompareStrategy::Canonical] {
            for faulted in [false, true] {
                let (mut hv, guests, ids) = cloud(7);
                guests[2]
                    .patch_module(&mut hv, "hal.dll", 0x100F, &[0xE9])
                    .unwrap();
                let mut config = CheckConfig {
                    compare,
                    ..CheckConfig::default()
                };
                if faulted {
                    // Transient faults with jittered retries everywhere, and
                    // one VM lost mid-scan so an error class is reported.
                    let plan = FaultPlan::transient(0xBEEF, 0.2);
                    hv.inject_fault_plan(plan);
                    hv.set_fault_plan(ids[5], Some(plan.lose_after(3))).unwrap();
                    config.retry = RetryPolicy::with_max_retries(6).with_jitter(0.5);
                }
                let checker = ModChecker::with_config(config);
                let scan = |workers: usize| {
                    let report = checker
                        .scan_pool(
                            &hv,
                            &ids,
                            "hal.dll",
                            ScanState::Arena(&checker.arena),
                            workers,
                        )
                        .unwrap();
                    let json = serde_json::to_string(&report.to_json()).unwrap();
                    let text = format!("{json}\n{:?}", report.matrix);
                    (report, text)
                };
                let (report, one) = scan(1);
                assert_eq!(
                    report
                        .suspects()
                        .map(|v| v.vm_name.as_str())
                        .collect::<Vec<_>>(),
                    vec!["dom3"],
                    "{compare:?} faulted={faulted}"
                );
                if faulted {
                    assert!(report.vmi.retries > 0, "the fault plan never fired");
                    assert!(report.verdicts[5].error.is_some(), "dom6 was not lost");
                }
                for workers in [2, 3, 8] {
                    assert_eq!(
                        one,
                        scan(workers).1,
                        "{compare:?} faulted={faulted}: {workers} workers changed the report"
                    );
                }
            }
        }
    }

    #[test]
    fn single_vm_pool_rejected() {
        let (hv, _guests, ids) = cloud(1);
        assert!(matches!(
            ModChecker::new().check_one(&hv, ids[0], &[], "hal.dll"),
            Err(CheckError::PoolTooSmall(_))
        ));
        assert!(matches!(
            ModChecker::new().check_pool(&hv, &ids, "hal.dll"),
            Err(CheckError::PoolTooSmall(_))
        ));
    }

    #[test]
    fn sha256_scanner_agrees_with_md5_scanner() {
        let (mut hv, guests, ids) = cloud(5);
        guests[3]
            .patch_module(&mut hv, "http.sys", 0x1002, &[0x66])
            .unwrap();
        let md5 = ModChecker::new().check_pool(&hv, &ids, "http.sys").unwrap();
        let sha = ModChecker::with_config(CheckConfig {
            digest: crate::digest::DigestAlgo::Sha256,
            ..CheckConfig::default()
        })
        .check_pool(&hv, &ids, "http.sys")
        .unwrap();
        for (a, b) in md5.verdicts.iter().zip(&sha.verdicts) {
            assert_eq!(a.clean, b.clean, "{}", a.vm_name);
            assert_eq!(a.suspect_parts, b.suspect_parts);
        }
        // SHA-256's higher per-byte cost shows in the checker component.
        assert!(sha.times.checker > md5.times.checker);
    }

    #[test]
    fn check_all_modules_sweeps_the_consensus_set() {
        let (mut hv, guests, ids) = cloud(5);
        guests[4]
            .patch_module(&mut hv, "http.sys", 0x1004, &[0x0F, 0x0B])
            .unwrap();
        guests[1].dkom_hide(&mut hv, "hal.dll").unwrap();

        let (lists, reports) = ModChecker::new().check_all_modules(&hv, &ids).unwrap();
        // hal.dll hidden on dom2 shows up in the list diff...
        assert!(!lists.consistent());
        assert!(matches!(
            &lists.anomalies[0],
            crate::listdiff::ListAnomaly::MissingOn { module, .. } if module == "hal.dll"
        ));
        // ...and both consensus modules get content reports: http.sys
        // flags dom5, hal.dll flags dom2 (capture error counts against it).
        assert_eq!(reports.len(), 2);
        let by_name: std::collections::HashMap<&str, &crate::report::PoolCheckReport> = reports
            .iter()
            .map(|(n, r)| (n.as_str(), r.as_ref().expect(n)))
            .collect();
        let http_suspects: Vec<&str> = by_name["http.sys"]
            .suspects()
            .map(|v| v.vm_name.as_str())
            .collect();
        assert_eq!(http_suspects, vec!["dom5"]);
        let hal_suspects: Vec<&str> = by_name["hal.dll"]
            .suspects()
            .map(|v| v.vm_name.as_str())
            .collect();
        assert_eq!(hal_suspects, vec!["dom2"]);
    }

    #[test]
    fn one_failing_module_no_longer_aborts_the_sweep() {
        // Regression for the sweep-abort bug: check_all_modules used to
        // `?` each module's result, so one module whose check goes
        // sideways lost every other module's verdict. Wreck http.sys's
        // in-memory PE header on *every* VM — every capture of it fails
        // structurally, the unit yields no usable vote — and assert the
        // sweep still delivers full reports for the other modules.
        let (mut hv, guests, ids) = cloud(3);
        for g in &guests {
            g.patch_module(&mut hv, "http.sys", 0, &[0u8, 0u8]).unwrap();
        }
        let (lists, reports) = ModChecker::new().check_all_modules(&hv, &ids).unwrap();
        assert!(lists.consensus_modules.contains(&"http.sys".to_string()));
        assert_eq!(reports.len(), lists.consensus_modules.len());
        let mut saw_bad = false;
        for (name, result) in &reports {
            if name == "http.sys" {
                // Carried per-module: a no-vote report (or its own error),
                // never a sweep abort.
                saw_bad = true;
                if let Ok(r) = result {
                    assert!(!r.all_clean(), "a header-wrecked module cannot be clean");
                    assert_eq!(r.scanned, 0);
                }
            } else {
                let report = result.as_ref().unwrap_or_else(|e| panic!("{name}: {e}"));
                assert!(report.all_clean(), "{name}");
                assert_eq!(report.quorum, QuorumStatus::Full, "{name}");
            }
        }
        assert!(saw_bad);
    }

    #[test]
    fn worm_majority_infection_still_yields_discrepancy() {
        // §III discussion: when most VMs are infected, majority voting
        // mislabels, but discrepancies are still visible pool-wide.
        let (mut hv, guests, ids) = cloud(5);
        for g in guests.iter().take(3) {
            g.patch_module(&mut hv, "hal.dll", 0x1009, &[0xFE, 0xED])
                .unwrap();
        }
        let report = ModChecker::new().check_pool(&hv, &ids, "hal.dll").unwrap();
        assert!(report.any_discrepancy());
        // With 3 of 5 VMs identically infected, *nobody* reaches a strict
        // majority (infected: 2/4 matches; clean: 1/4) — the false-alarm
        // mode the paper discusses. The pool-wide discrepancy signal is
        // what triggers deeper analysis.
        let flagged: Vec<&str> = report.suspects().map(|v| v.vm_name.as_str()).collect();
        assert_eq!(flagged, vec!["dom1", "dom2", "dom3", "dom4", "dom5"]);
    }

    fn canonical_checker() -> ModChecker {
        ModChecker::with_config(CheckConfig {
            compare: CompareStrategy::Canonical,
            ..CheckConfig::default()
        })
    }

    #[test]
    fn canonical_mode_agrees_with_pairwise_and_is_cheaper() {
        let (mut hv, guests, ids) = cloud(8);
        guests[2]
            .patch_module(&mut hv, "hal.dll", 0x1003, &[0xCC])
            .unwrap();
        let pairwise = ModChecker::new().check_pool(&hv, &ids, "hal.dll").unwrap();
        let canonical = canonical_checker()
            .check_pool(&hv, &ids, "hal.dll")
            .unwrap();
        for (a, b) in pairwise.verdicts.iter().zip(&canonical.verdicts) {
            assert_eq!(a.clean, b.clean, "{}", a.vm_name);
            assert_eq!(a.successes, b.successes, "{}", a.vm_name);
            assert_eq!(a.comparisons, b.comparisons, "{}", a.vm_name);
            assert_eq!(a.suspect_parts, b.suspect_parts, "{}", a.vm_name);
        }
        // O(t) normalize+hash beats t(t−1)/2 pairwise diffs even at t=8.
        assert!(
            canonical.times.checker < pairwise.times.checker,
            "canonical {} !< pairwise {}",
            canonical.times.checker,
            pairwise.times.checker
        );
        // The targeted cross-bucket diff still names the disagreeing part.
        assert!(canonical.suspects().all(|v| v
            .suspect_parts
            .contains(&PartId::SectionData(".text".into()))));
    }

    #[test]
    fn canonical_clean_pool_has_one_bucket_and_empty_matrix() {
        let (hv, _guests, ids) = cloud(5);
        let report = canonical_checker()
            .check_pool(&hv, &ids, "hal.dll")
            .unwrap();
        assert!(report.all_clean());
        assert!(!report.any_discrepancy());
        assert!(
            report.matrix.is_empty(),
            "one bucket ⇒ no representative diffs to run"
        );
        for v in &report.verdicts {
            assert_eq!(v.successes, 4);
            assert_eq!(v.comparisons, 4);
        }
    }

    #[test]
    fn capture_cache_hits_steady_state_and_invalidates_on_writes() {
        let (mut hv, guests, ids) = cloud(4);
        let checker = ModChecker::new();
        let mut cache = CaptureCache::new();
        assert!(cache.is_empty());

        let first = checker
            .check_pool_with_cache(&hv, &ids, "hal.dll", &mut cache)
            .unwrap();
        assert!(first.all_clean());
        assert_eq!(cache.stats().misses, 4);
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.len(), 4);

        // Nothing changed: every capture is reused and the capture cost
        // collapses to the list walk plus metadata probes.
        let second = checker
            .check_pool_with_cache(&hv, &ids, "hal.dll", &mut cache)
            .unwrap();
        assert!(second.all_clean());
        assert_eq!(cache.stats().hits, 4);
        assert!(
            second.times.searcher < first.times.searcher,
            "cached round {} !< first round {}",
            second.times.searcher,
            first.times.searcher
        );

        // A guest write moves one page's generation: exactly that VM's
        // entry takes the page-granular refresh (one page re-read, the
        // other pages reused) and the verdict flips — identically to an
        // uncached scan. Nothing is invalidated wholesale.
        guests[1]
            .patch_module(&mut hv, "hal.dll", 0x1003, &[0xCC])
            .unwrap();
        let third = checker
            .check_pool_with_cache(&hv, &ids, "hal.dll", &mut cache)
            .unwrap();
        assert_eq!(cache.stats().invalidations, 0);
        assert_eq!(cache.stats().partial_hits, 1);
        assert_eq!(cache.stats().hits, 7);
        assert_eq!(cache.stats().misses, 4);
        // The one-byte patch dirtied exactly one page; every other page of
        // the in-memory image (7 pages after section alignment) was reused.
        assert_eq!(cache.stats().pages_refreshed, 1);
        assert_eq!(cache.stats().pages_reused, 6);
        let uncached = checker.check_pool(&hv, &ids, "hal.dll").unwrap();
        for (a, b) in third.verdicts.iter().zip(&uncached.verdicts) {
            assert_eq!(a.clean, b.clean, "{}", a.vm_name);
            assert_eq!(a.suspect_parts, b.suspect_parts);
        }
        assert_eq!(
            third
                .suspects()
                .map(|v| v.vm_name.clone())
                .collect::<Vec<_>>(),
            vec!["dom2"]
        );
    }

    #[test]
    fn capture_cache_entry_drops_when_the_module_vanishes() {
        let (mut hv, guests, ids) = cloud(3);
        let checker = ModChecker::new();
        let mut cache = CaptureCache::new();
        checker
            .check_pool_with_cache(&hv, &ids, "hal.dll", &mut cache)
            .unwrap();
        assert_eq!(cache.len(), 3);
        let recycled = cache.arena_stats().recycled_bytes;
        guests[0].dkom_hide(&mut hv, "hal.dll").unwrap();
        let report = checker
            .check_pool_with_cache(&hv, &ids, "hal.dll", &mut cache)
            .unwrap();
        assert_eq!(cache.len(), 2, "hidden module's entry is evicted");
        assert!(
            cache.arena_stats().recycled_bytes > recycled,
            "the dropped entry's buffer goes back to the arena"
        );
        assert_eq!(
            report
                .suspects()
                .map(|v| v.vm_name.clone())
                .collect::<Vec<_>>(),
            vec!["dom1"]
        );
    }

    #[test]
    fn evicted_entries_return_their_buffers_to_the_arena() {
        let (hv, _guests, ids) = cloud(4);
        let checker = ModChecker::new();
        let mut cache = CaptureCache::new();
        let scan = |cache: &mut CaptureCache| {
            for module in ["hal.dll", "http.sys"] {
                let report = checker
                    .check_pool_with_cache(&hv, &ids, module, cache)
                    .unwrap();
                assert!(report.all_clean(), "{module}");
            }
        };
        scan(&mut cache);
        let warm = cache.arena_stats();
        assert_eq!(cache.evict_vm(ids[2]), 2);
        scan(&mut cache);
        let rescanned = cache.arena_stats();
        assert_eq!(
            cache.stats().misses,
            8 + 2,
            "only the evicted VM recaptures"
        );
        assert_eq!(
            rescanned.allocs, warm.allocs,
            "the recaptures reuse the evicted buffers"
        );
        assert!(
            rescanned.reuses >= warm.reuses + 2,
            "{warm:?} → {rescanned:?}"
        );
    }

    #[test]
    fn clearing_the_cache_returns_every_buffer_to_the_arena() {
        let (hv, _guests, ids) = cloud(3);
        let checker = ModChecker::new();
        let mut cache = CaptureCache::new();
        for module in ["hal.dll", "http.sys"] {
            checker
                .check_pool_with_cache(&hv, &ids, module, &mut cache)
                .unwrap();
        }
        let retained = cache.arena_retained();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.arena_retained(), retained + 6, "2 modules × 3 VMs");
    }

    #[test]
    fn a_relocated_modules_stale_entry_returns_its_buffer_to_the_arena() {
        let (mut hv, mut guests, ids) = cloud(4);
        let checker = ModChecker::new();
        let mut cache = CaptureCache::new();
        checker
            .check_pool_with_cache(&hv, &ids, "hal.dll", &mut cache)
            .unwrap();
        let warm = cache.arena_stats();

        // dom2 unloads hal.dll and loads the same file past every module
        // it has: same bytes modulo relocation, different base.
        let end = ["hal.dll", "http.sys"]
            .iter()
            .map(|m| {
                let m = guests[1].find_module(m).unwrap();
                m.base + m.size as u64
            })
            .max()
            .unwrap();
        let pe = ModuleBlueprint::new("hal.dll", AddressWidth::W32, 12 * 1024)
            .build()
            .unwrap();
        guests[1].unload(&mut hv, "hal.dll").unwrap();
        guests[1]
            .load(&mut hv, "hal.dll", &pe, end.next_multiple_of(0x10000))
            .unwrap();

        let report = checker
            .check_pool_with_cache(&hv, &ids, "hal.dll", &mut cache)
            .unwrap();
        assert!(report.all_clean(), "{report}");
        let stats = cache.stats();
        assert_eq!((stats.invalidations, stats.misses), (1, 5));
        let after = cache.arena_stats();
        assert!(
            after.recycled_bytes > warm.recycled_bytes,
            "the stale entry's buffer goes back to the arena"
        );
        assert_eq!(after.allocs, warm.allocs, "the recapture allocates nothing");
    }

    #[test]
    fn a_failed_partial_refresh_returns_both_buffers_to_the_arena() {
        use mc_hypervisor::FaultPlan;
        // Lose dom1 after `k` reads, for the smallest `k` that lets the
        // list walk through and fails the page refresh itself.
        for k in 1..64 {
            let (mut hv, guests, ids) = cloud(3);
            let checker = ModChecker::new();
            let mut cache = CaptureCache::new();
            checker
                .check_pool_with_cache(&hv, &ids, "hal.dll", &mut cache)
                .unwrap();
            guests[0]
                .patch_module(&mut hv, "hal.dll", 0x1003, &[0xCC])
                .unwrap();
            hv.set_fault_plan(ids[0], Some(FaultPlan::none(5).lose_after(k)))
                .unwrap();
            let recycled = cache.arena_stats().recycled_bytes;
            checker
                .check_pool_with_cache(&hv, &ids, "hal.dll", &mut cache)
                .unwrap();
            if cache.stats().partial_hits == 0 {
                continue; // lost during the list walk
            }
            assert!(
                !cache.contains(ids[0], "hal.dll"),
                "k={k}: a refresh that fails must not leave the entry behind"
            );
            let image = 12 * 1024 + 4096; // hal.dll's in-memory size, page-rounded
            assert!(
                cache.arena_stats().recycled_bytes - recycled >= 2 * image as u64,
                "k={k}: the refresh buffer and the superseded capture both come back"
            );
            return;
        }
        panic!("no loss point fell inside the page refresh");
    }

    #[test]
    fn vm_loss_mid_scan_evicts_every_entry_for_that_vm() {
        use mc_hypervisor::FaultPlan;
        let (mut hv, _guests, ids) = cloud(3);
        let checker = ModChecker::new();
        let mut cache = CaptureCache::new();
        checker
            .check_pool_with_cache(&hv, &ids, "hal.dll", &mut cache)
            .unwrap();
        checker
            .check_pool_with_cache(&hv, &ids, "http.sys", &mut cache)
            .unwrap();
        assert_eq!(cache.len(), 6, "2 modules × 3 VMs");
        assert_eq!(cache.stats().evictions, 0);

        // dom2 dies: the next scan must drop BOTH of its entries, not just
        // the module that happened to be scanning when the loss surfaced.
        hv.set_fault_plan(ids[1], Some(FaultPlan::none(3).lose_after(0)))
            .unwrap();
        let report = checker
            .check_pool_with_cache(&hv, &ids, "hal.dll", &mut cache)
            .unwrap();
        assert_eq!(report.unscannable().count(), 1);
        assert_eq!(cache.len(), 4, "both of dom2's entries evicted");
        assert_eq!(cache.stats().evictions, 2);

        // The VM comes back (fault plan cleared): fresh captures, clean
        // verdicts, no stale reuse.
        hv.set_fault_plan(ids[1], None).unwrap();
        let again = checker
            .check_pool_with_cache(&hv, &ids, "hal.dll", &mut cache)
            .unwrap();
        assert!(again.all_clean());
        assert_eq!(cache.len(), 5, "hal.dll entries restored for all 3 VMs");
    }

    #[test]
    fn pool_report_carries_per_vm_introspection_stats() {
        let (hv, _guests, ids) = cloud(4);
        let report = ModChecker::new().check_pool(&hv, &ids, "hal.dll").unwrap();
        assert_eq!(report.per_vm.len(), 4);
        let mut sum = mc_vmi::VmiStats::default();
        let mut injections = 0;
        for s in &report.per_vm {
            assert!(s.vmi.reads > 0, "{} captured nothing", s.vm_name);
            assert!(s.vmi.bytes_copied > 0);
            sum.accumulate(&s.vmi);
            injections += s.fault_injections;
        }
        assert_eq!(sum, report.vmi, "aggregate equals the per-VM sum");
        assert_eq!(injections, report.fault_injections);
        assert_eq!(report.fault_injections, 0, "no fault plan, no anomalies");
        // Per-VM capture totals plus the pairwise (vote) time make up the
        // whole report: no lost or double-charged simulated time.
        let capture_total: mc_hypervisor::SimDuration = report
            .per_vm
            .iter()
            .map(|s| s.times.total())
            .fold(mc_hypervisor::SimDuration::ZERO, |acc, t| acc + t);
        assert!(report.times.total() >= capture_total);
    }

    #[test]
    fn static_prepass_names_the_infected_vms_without_a_majority() {
        // Same worm-majority shape as above, but the patch is a hook-style
        // rel32 JMP — the artifact the static pre-pass keys on. The vote
        // cannot say *who* is infected; the per-VM lint findings can.
        let (mut hv, guests, ids) = cloud(5);
        for g in guests.iter().take(3) {
            g.patch_module(&mut hv, "hal.dll", 0x1000, &[0xE9, 0x10, 0x00, 0x00, 0x00])
                .unwrap();
        }
        let config = CheckConfig {
            static_prepass: true,
            ..CheckConfig::default()
        };
        let report = ModChecker::with_config(config)
            .check_pool(&hv, &ids, "hal.dll")
            .unwrap();
        assert!(report.any_discrepancy());
        assert_eq!(
            report.statically_flagged_vms(),
            vec!["dom1", "dom2", "dom3"]
        );
        // Without the pre-pass the same scan attaches nothing.
        let plain = ModChecker::new().check_pool(&hv, &ids, "hal.dll").unwrap();
        assert!(plain.static_findings.is_empty());
    }

    #[test]
    fn bucketed_prepass_matches_the_per_vm_pass_and_amortizes_runs() {
        // Canonical mode + pre-pass: the bucket walk must name the same VMs
        // with the same evidence as the per-VM pass while invoking the lint
        // engine once per content bucket, not once per capture.
        let (mut hv, guests, ids) = cloud(5);
        for g in guests.iter().take(3) {
            g.patch_module(&mut hv, "hal.dll", 0x1000, &[0xE9, 0x10, 0x00, 0x00, 0x00])
                .unwrap();
        }
        let per_vm = ModChecker::with_config(CheckConfig {
            static_prepass: true,
            ..CheckConfig::default()
        })
        .check_pool(&hv, &ids, "hal.dll")
        .unwrap();

        let checker = ModChecker::with_config(CheckConfig {
            compare: CompareStrategy::Canonical,
            static_prepass: true,
            ..CheckConfig::default()
        });
        let mut capture = CaptureCache::new();
        let bucketed = checker
            .check_pool_with_cache(&hv, &ids, "hal.dll", &mut capture)
            .unwrap();
        assert_eq!(
            bucketed.statically_flagged_vms(),
            vec!["dom1", "dom2", "dom3"]
        );
        assert_eq!(per_vm.static_findings.len(), bucketed.static_findings.len());
        for (a, b) in per_vm.static_findings.iter().zip(&bucketed.static_findings) {
            assert_eq!(a.vm_name, b.vm_name);
            let lints = |r: &mc_analysis::AnalysisReport| -> Vec<(&'static str, u64)> {
                r.diagnostics
                    .iter()
                    .map(|d| (d.lint.code(), d.va))
                    .collect()
            };
            assert_eq!(
                lints(a),
                lints(b),
                "{}: replicated evidence diverged",
                a.vm_name
            );
        }
        // Two content buckets (three identically hooked, two clean) — the
        // analyzer ran twice for five captures.
        assert_eq!(capture.analysis_stats().runs, 2);
        assert_eq!(capture.analysis.len(), 2);

        // Round two: every verdict is served from the cache.
        let again = checker
            .check_pool_with_cache(&hv, &ids, "hal.dll", &mut capture)
            .unwrap();
        assert_eq!(again.statically_flagged_vms(), vec!["dom1", "dom2", "dom3"]);
        assert_eq!(
            capture.analysis_stats().runs,
            2,
            "steady state: zero new runs"
        );
        assert_eq!(capture.analysis_stats().hits, 2);

        // The monitor reaches the same bucketed pass through its own
        // capture cache: one canonical round names the same VMs as the
        // uncached per-VM pass.
        let monitor = crate::monitor::ContinuousMonitor::new(crate::monitor::MonitorConfig {
            modules: vec!["hal.dll".into()],
            check: checker.config,
            ..crate::monitor::MonitorConfig::default()
        });
        let round = monitor.run_round(&hv, &ids);
        let monitored = round[0].1.as_ref().unwrap();
        assert_eq!(
            monitored.statically_flagged_vms(),
            per_vm.statically_flagged_vms()
        );
        assert_eq!(
            monitored.static_findings.len(),
            per_vm.static_findings.len()
        );
    }

    #[test]
    fn vote_invisible_import_divergence_still_splits_analysis_buckets() {
        // The canonical fingerprint deliberately excludes `.idata` (the
        // paper hashes headers and code, not initialized data), so an
        // IAT-pivoted capture lands in the same bucket as its clean peers.
        // The analysis cache must key on the import-table content too — a
        // shared fingerprint alone must never let a tampered IAT inherit a
        // clean verdict.
        let mut hv = Hypervisor::new();
        let width = AddressWidth::W32;
        let bps = vec![ModuleBlueprint::new("dummy.sys", width, 12 * 1024)
            .with_imports(&[("ntoskrnl.exe", &["IoCreateDevice", "IoDeleteDevice"])])];
        let guests = build_cloud_with_modules(&mut hv, 3, width, &bps).unwrap();
        let ids: Vec<VmId> = guests.iter().map(|g| g.vm).collect();

        // Locate the in-memory `.idata` payload and flip one byte on dom1.
        let mut session = VmiSession::attach(&hv, ids[0]).unwrap();
        let image = ModuleSearcher::find(&mut session, "dummy.sys").unwrap();
        let parsed = mc_pe::parser::ParsedModule::parse_memory(&image.bytes).unwrap();
        let idx = parsed.find_section(".idata").unwrap();
        let rva = parsed.sections[idx].data_range.start as u64;
        drop(session);
        guests[0]
            .patch_module(&mut hv, "dummy.sys", rva, &[0xA5])
            .unwrap();

        let checker = ModChecker::with_config(CheckConfig {
            compare: CompareStrategy::Canonical,
            static_prepass: true,
            ..CheckConfig::default()
        });
        let mut capture = CaptureCache::new();
        let report = checker
            .check_pool_with_cache(&hv, &ids, "dummy.sys", &mut capture)
            .unwrap();
        // The vote cannot see the divergence (one bucket, all clean)…
        assert!(report.all_clean(), "import data is vote-invisible");
        // …but the pre-pass analyzed the divergent capture on its own.
        assert_eq!(
            capture.analysis_stats().runs,
            2,
            "aux digest split the bucket"
        );
        assert_eq!(capture.analysis.len(), 2);
    }

    #[test]
    fn cache_stats_add_assign_sums_every_field() {
        let a = CacheStats {
            hits: 1,
            trusted_hits: 2,
            partial_hits: 3,
            pages_refreshed: 4,
            pages_reused: 5,
            misses: 6,
            invalidations: 7,
            evictions: 8,
            silent_restores: 9,
        };
        let mut total = a;
        total += a;
        total += CacheStats::default();
        assert_eq!(
            total,
            CacheStats {
                hits: 2,
                trusted_hits: 4,
                partial_hits: 6,
                pages_refreshed: 8,
                pages_reused: 10,
                misses: 12,
                invalidations: 14,
                evictions: 16,
                silent_restores: 18,
            }
        );
    }

    /// A canonical checker with the static pre-pass, so every part of a
    /// memoized vote — matrix, bucket votes, findings, analysis hits — is
    /// live.
    fn memo_checker() -> ModChecker {
        ModChecker::with_config(CheckConfig {
            compare: CompareStrategy::Canonical,
            static_prepass: true,
            ..CheckConfig::default()
        })
    }

    /// Scans through `cache` and, from the same cache state with its vote
    /// memos dropped, through a clone: the two reports (every field, via
    /// `Debug`) and every cache counter must agree. Returns the report and
    /// whether the scan reused a memoized vote.
    fn scan_against_oracle(
        checker: &ModChecker,
        hv: &Hypervisor,
        ids: &[VmId],
        cache: &mut CaptureCache,
    ) -> (PoolCheckReport, bool) {
        let mut oracle = cache.clone();
        oracle.forget_votes();
        let want = checker
            .check_pool_with_cache(hv, ids, "hal.dll", &mut oracle)
            .unwrap();
        let reuses = cache.vote_reuses();
        let got = checker
            .check_pool_with_cache(hv, ids, "hal.dll", cache)
            .unwrap();
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        assert_eq!(cache.stats(), oracle.stats());
        assert_eq!(cache.analysis_stats(), oracle.analysis_stats());
        (got, cache.vote_reuses() > reuses)
    }

    fn suspect_names(r: &PoolCheckReport) -> Vec<String> {
        r.suspects().map(|v| v.vm_name.clone()).collect()
    }

    #[test]
    fn a_one_byte_text_write_between_scans_is_flagged_by_the_next() {
        let (mut hv, guests, ids) = cloud(4);
        let checker = memo_checker();
        let mut cache = CaptureCache::new();
        let (cold, reused) = scan_against_oracle(&checker, &hv, &ids, &mut cache);
        assert!(cold.all_clean() && !reused);
        let (steady, reused) = scan_against_oracle(&checker, &hv, &ids, &mut cache);
        assert!(steady.all_clean());
        assert!(reused, "an unchanged unit reuses its vote");

        guests[1]
            .patch_module(&mut hv, "hal.dll", 0x1003, &[0xCC])
            .unwrap();
        let (patched, reused) = scan_against_oracle(&checker, &hv, &ids, &mut cache);
        assert!(!reused, "a refreshed capture is a new entry");
        assert_eq!(suspect_names(&patched), vec!["dom2"]);
        // The new vote is memoized in turn, and still flags the write.
        let (again, reused) = scan_against_oracle(&checker, &hv, &ids, &mut cache);
        assert!(reused);
        assert_eq!(suspect_names(&again), vec!["dom2"]);
    }

    #[test]
    fn a_scan_with_a_failed_extraction_never_reuses() {
        let (mut hv, _guests, ids) = cloud(4);
        let checker = memo_checker();
        let mut cache = CaptureCache::new();
        // Transient faults the retries ride out change no capture: the
        // vote is reused, and still matches the oracle.
        hv.inject_fault_plan(FaultPlan::transient(9, 0.05));
        scan_against_oracle(&checker, &hv, &ids, &mut cache);
        let (steady, reused) = scan_against_oracle(&checker, &hv, &ids, &mut cache);
        assert!(reused && steady.all_clean());
        assert!(steady.vmi.retries > 0, "the plan injected faults");

        // Every read of one VM faults: its extraction fails, so the vote
        // runs afresh among the survivors.
        hv.set_fault_plan(ids[2], Some(FaultPlan::transient(9, 1.0)))
            .unwrap();
        let (faulted, reused) = scan_against_oracle(&checker, &hv, &ids, &mut cache);
        assert!(!reused, "a failed extraction must not reuse");
        assert_eq!(faulted.scanned, 3);
        assert_eq!(faulted.verdicts[2].status, VerdictStatus::Unscannable);

        // The fault clears: that VM recaptures (a new entry), then the
        // steady state reuses again.
        hv.set_fault_plan(ids[2], None).unwrap();
        let (recovered, reused) = scan_against_oracle(&checker, &hv, &ids, &mut cache);
        assert!(!reused && recovered.all_clean());
        let (_, reused) = scan_against_oracle(&checker, &hv, &ids, &mut cache);
        assert!(reused);
    }

    #[test]
    fn a_changed_dom0_load_recharges_the_checker() {
        let (mut hv, _guests, ids) = cloud(4);
        let checker = memo_checker();
        let mut cache = CaptureCache::new();
        scan_against_oracle(&checker, &hv, &ids, &mut cache);
        let (idle, reused) = scan_against_oracle(&checker, &hv, &ids, &mut cache);
        assert!(reused);
        for &id in &ids {
            hv.vm_mut(id).unwrap().cpu_demand = 8.0;
        }
        let (loaded, reused) = scan_against_oracle(&checker, &hv, &ids, &mut cache);
        assert!(!reused, "a new slowdown re-derives the charge");
        assert!(
            loaded.times.checker > idle.times.checker,
            "loaded {} vs idle {}",
            loaded.times.checker,
            idle.times.checker
        );
        let (_, reused) = scan_against_oracle(&checker, &hv, &ids, &mut cache);
        assert!(reused, "the loaded vote is memoized in turn");
    }

    /// The cached capture of `module` on `vm`, and its entry serial.
    fn cached(cache: &CaptureCache, vm: VmId, module: &str) -> (Arc<ExtractedModule>, u64) {
        let e = cache.entry(vm, module).expect("cached");
        (Arc::clone(&e.module), e.serial)
    }

    /// Writes `len` bytes of `guest`'s hal.dll at `offset` back over
    /// themselves: the page's write-generation moves, its bytes do not.
    fn rewrite_in_place(
        hv: &mut Hypervisor,
        guest: &GuestOs,
        cache: &CaptureCache,
        offset: usize,
        len: usize,
    ) {
        let (m, _) = cached(cache, guest.vm, "hal.dll");
        let same = m.image.bytes[offset..offset + len].to_vec();
        guest
            .patch_module(hv, "hal.dll", offset as u64, &same)
            .unwrap();
    }

    #[test]
    fn an_identical_page_rewrite_keeps_the_cached_capture() {
        let (mut hv, guests, ids) = cloud(4);
        let checker = memo_checker();
        let mut cache = CaptureCache::new();
        scan_against_oracle(&checker, &hv, &ids, &mut cache);
        let (before, serial) = cached(&cache, ids[1], "hal.dll");
        // A `.text` page, then page 0 (the headers).
        for offset in [0x1003, 0x10] {
            rewrite_in_place(&mut hv, &guests[1], &cache, offset, 2);
            // The same pages written with different bytes, on a copy: the
            // refresh it takes re-parses, and must charge the same.
            let (mut hv_changed, mut cache_changed) = (hv.clone(), cache.clone());
            guests[1]
                .patch_module(&mut hv_changed, "hal.dll", offset as u64, &[0xCC, 0xCC])
                .unwrap();
            let changed = checker
                .check_pool_with_cache(&hv_changed, &ids, "hal.dll", &mut cache_changed)
                .unwrap();

            let stats = cache.stats();
            let (report, reused) = scan_against_oracle(&checker, &hv, &ids, &mut cache);
            assert_eq!(cache.stats().partial_hits, stats.partial_hits + 1);
            assert_eq!(cache.stats().pages_refreshed, stats.pages_refreshed + 1);
            let (after, kept_serial) = cached(&cache, ids[1], "hal.dll");
            assert!(
                Arc::ptr_eq(&before, &after),
                "{offset:#x}: capture replaced"
            );
            assert_eq!(
                kept_serial, serial,
                "{offset:#x}: the serial names the capture"
            );
            assert!(reused, "{offset:#x}: unchanged captures reuse their vote");
            assert!(report.all_clean());
            assert_eq!(
                format!("{:?}", report.per_vm[1]),
                format!("{:?}", changed.per_vm[1]),
                "{offset:#x}: the kept capture is charged like a re-parsed one"
            );
            assert_eq!(suspect_names(&changed), vec!["dom2"]);
        }
        let uncached = checker.check_pool(&hv, &ids, "hal.dll").unwrap();
        assert!(uncached.all_clean());
    }

    #[test]
    fn an_identical_rewrite_still_records_the_silent_restore() {
        let (mut hv, guests, ids) = cloud(4);
        let checker = ModChecker::with_config(CheckConfig {
            tamper_evidence: true,
            ..memo_checker().config
        });
        let mut cache = CaptureCache::new();
        scan_against_oracle(&checker, &hv, &ids, &mut cache);
        let (before, _) = cached(&cache, ids[1], "hal.dll");
        rewrite_in_place(&mut hv, &guests[1], &cache, 0x1003, 2);
        let (report, _) = scan_against_oracle(&checker, &hv, &ids, &mut cache);
        assert!(report.all_clean());
        assert!(Arc::ptr_eq(&before, &cached(&cache, ids[1], "hal.dll").0));
        assert_eq!(cache.stats().silent_restores, 1);
        assert_eq!(
            cache.silent_restores(),
            vec![(ids[1], "hal.dll".to_string())]
        );
    }

    #[test]
    fn one_changed_page_among_identical_ones_re_parses_and_flags() {
        let (mut hv, guests, ids) = cloud(4);
        let checker = memo_checker();
        let mut cache = CaptureCache::new();
        scan_against_oracle(&checker, &hv, &ids, &mut cache);
        let (before, serial) = cached(&cache, ids[1], "hal.dll");
        // Page 0 rewritten with its own bytes, page 1 (`.text`) changed:
        // the identical page comes first in the refresh.
        rewrite_in_place(&mut hv, &guests[1], &cache, 0x10, 2);
        guests[1]
            .patch_module(&mut hv, "hal.dll", 0x1003, &[0xCC])
            .unwrap();
        let stats = cache.stats();
        let (report, reused) = scan_against_oracle(&checker, &hv, &ids, &mut cache);
        assert_eq!(cache.stats().partial_hits, stats.partial_hits + 1);
        assert_eq!(cache.stats().pages_refreshed, stats.pages_refreshed + 2);
        let (after, new_serial) = cached(&cache, ids[1], "hal.dll");
        assert!(
            !Arc::ptr_eq(&before, &after),
            "a changed byte must re-parse"
        );
        assert_ne!(new_serial, serial);
        assert!(!reused);
        assert_eq!(suspect_names(&report), vec!["dom2"]);
        let uncached = checker.check_pool(&hv, &ids, "hal.dll").unwrap();
        for (a, b) in report.verdicts.iter().zip(&uncached.verdicts) {
            assert_eq!(a.status, b.status, "{}", a.vm_name);
            assert_eq!(a.suspect_parts, b.suspect_parts, "{}", a.vm_name);
        }
    }

    /// Scans `module` through `cache` (every VM in `trusted` served from
    /// its entry) and checks each cached capture's canonical form — filled
    /// in by the scan, which hashes each distinct section once — against
    /// the copy-and-hash reference. Returns the forms of the cached
    /// captures, in `ids` order.
    fn per_scan_forms_match(
        checker: &ModChecker,
        hv: &Hypervisor,
        ids: &[VmId],
        module: &str,
        cache: &mut CaptureCache,
        trusted: &HashSet<VmId>,
    ) -> Vec<Option<CanonicalForm>> {
        checker
            .check_pool_with_cache_trusted(hv, ids, module, cache, trusted)
            .unwrap();
        let mut forms = Vec::new();
        for &vm in ids {
            let Some(e) = cache.entry(vm, module) else {
                continue;
            };
            let per_scan = crate::checker::canonical_form(&e.module, None);
            let reference =
                crate::checker::tests::copy_and_hash_canonical(&e.module).map(|(f, _)| f);
            assert_eq!(per_scan, reference, "{module} on {vm:?}");
            forms.push(per_scan);
        }
        forms
    }

    #[test]
    fn per_scan_section_dedup_matches_per_capture_forms() {
        let sha = ModChecker::with_config(CheckConfig {
            digest: crate::digest::DigestAlgo::Sha256,
            ..canonical_checker().config
        });
        let none = HashSet::new();
        for checker in [canonical_checker(), sha] {
            let (mut hv, guests, ids) = cloud(6);
            let distinct = |hv: &Hypervisor| {
                let forms = per_scan_forms_match(
                    &checker,
                    hv,
                    &ids,
                    "hal.dll",
                    &mut CaptureCache::new(),
                    &none,
                );
                assert_eq!(forms.len(), ids.len());
                let fingerprints: std::collections::BTreeSet<_> = forms
                    .into_iter()
                    .map(|f| f.expect("corpus modules carry .reloc").part_digests)
                    .collect();
                fingerprints.len()
            };
            assert_eq!(distinct(&hv), 1, "clean pool");
            guests[2]
                .patch_module(&mut hv, "hal.dll", 0x1003, &[0xCC])
                .unwrap();
            assert_eq!(distinct(&hv), 2, "single infection");
            for g in &guests[3..] {
                g.patch_module(&mut hv, "hal.dll", 0x1009, &[0xFE, 0xED])
                    .unwrap();
            }
            assert_eq!(distinct(&hv), 3, "worm majority");
        }
    }

    #[test]
    fn duplicate_named_exec_sections_dedup_within_one_capture() {
        let (hv, _guests, ids) = cloud(4);
        let checker = canonical_checker();
        let mut cache = CaptureCache::new();
        checker
            .check_pool_with_cache(&hv, &ids, "hal.dll", &mut cache)
            .unwrap();
        // Every capture, then one, carries a second `.text` byte-identical
        // to its first; the scan serves them from the cache on trust.
        let trusted: HashSet<VmId> = ids.iter().copied().collect();
        for targets in [&ids[..], &ids[1..2]] {
            let mut scan_cache = cache.clone();
            for &vm in targets {
                let e = scan_cache.entry_mut(vm, "hal.dll").unwrap();
                let mut m = ExtractedModule::clone(&e.module);
                let dup = m.parts.exec_sections[0].clone();
                m.parts.exec_sections.push(dup);
                e.module = Arc::new(m);
                // A serial no entry has had, so the vote is recomputed.
                e.serial += 1000;
            }
            let forms =
                per_scan_forms_match(&checker, &hv, &ids, "hal.dll", &mut scan_cache, &trusted);
            let text = PartId::SectionData(".text".into());
            for &vm in targets {
                let pos = ids.iter().position(|&id| id == vm).unwrap();
                let f = forms[pos].as_ref().unwrap();
                let texts: Vec<_> = f
                    .part_digests
                    .iter()
                    .filter(|(id, _)| *id == text)
                    .collect();
                assert_eq!(texts.len(), 2);
                assert_eq!(texts[0].1, texts[1].1);
            }
        }
    }

    #[test]
    fn per_scan_section_dedup_matches_on_mutant_units() {
        use rand::rngs::StdRng;
        use rand::{RngCore, RngExt, SeedableRng};
        let checker = canonical_checker();
        let none = HashSet::new();
        let mut mutant_forms = 0;
        for seed in 0..6u64 {
            let (mut hv, guests, ids) = cloud(8);
            // VMs 0 and 1 stay clean; VMs 2..8 take mutants in pairs, each
            // pair the same corruption of its own bytes (truncation cannot
            // be planted in guest memory, so `.text` flips stand in for it).
            for (pair, vms) in guests[2..].chunks(2).enumerate() {
                let mut rng = StdRng::seed_from_u64(seed * 16 + pair as u64);
                let kind = rng.random_range(0..3u32);
                let draws: Vec<(u64, u8)> = (0..8)
                    .map(|_| (rng.next_u64(), rng.random_range(0..256u32) as u8))
                    .collect();
                for g in vms {
                    let mut session = VmiSession::attach(&hv, g.vm).unwrap();
                    let mut bytes = ModuleSearcher::find(&mut session, "http.sys")
                        .unwrap()
                        .bytes;
                    drop(session);
                    let parsed = mc_pe::parser::ParsedModule::parse_memory(&bytes).unwrap();
                    let range = |name: &str| {
                        let i = parsed.find_section(name).unwrap();
                        parsed.sections[i].data_range.clone()
                    };
                    let region = match kind {
                        0 => 0..0x600,
                        1 => range(".reloc"),
                        _ => range(".text"),
                    };
                    for &(at, value) in &draws {
                        let off = region.start + (at % region.len() as u64) as usize;
                        if kind == 1 {
                            bytes[off] = value;
                        } else {
                            bytes[off] ^= 1 << (value % 8);
                        }
                    }
                    g.patch_module(&mut hv, "http.sys", 0, &bytes).unwrap();
                }
            }
            let forms = per_scan_forms_match(
                &checker,
                &hv,
                &ids,
                "http.sys",
                &mut CaptureCache::new(),
                &none,
            );
            let clean = forms[0].clone();
            mutant_forms += forms.iter().filter(|f| f.is_some() && **f != clean).count();
        }
        assert!(
            mutant_forms > 0,
            "no mutant reached a canonical form of its own"
        );
    }

    /// An infected 15-VM pool holding the corpus's largest and smallest
    /// modules, `ntoskrnl.exe` and `helloworld.sys` (dom3 inline-patched
    /// in both).
    fn arena_pool() -> (Hypervisor, Vec<GuestOs>, Vec<VmId>) {
        let mut hv = Hypervisor::new();
        let width = AddressWidth::W32;
        let bps: Vec<ModuleBlueprint> = mc_pe::corpus::standard_corpus(width)
            .into_iter()
            .filter(|b| ["ntoskrnl.exe", "helloworld.sys"].contains(&b.name.as_str()))
            .collect();
        let guests = build_cloud_with_modules(&mut hv, 15, width, &bps).unwrap();
        for module in ["ntoskrnl.exe", "helloworld.sys"] {
            guests[2]
                .patch_module(&mut hv, module, 0x1003, &[0xCC])
                .unwrap();
        }
        let ids = guests.iter().map(|g| g.vm).collect();
        (hv, guests, ids)
    }

    /// Step `step` of the arena sequence — `ntoskrnl.exe`, then
    /// `helloworld.sys`, then a `check_one` of `ntoskrnl.exe`, then
    /// `ntoskrnl.exe` again, pool scans at `workers` — as `Debug` text.
    fn arena_step(
        checker: &ModChecker,
        hv: &Hypervisor,
        ids: &[VmId],
        workers: usize,
        step: usize,
    ) -> String {
        match step {
            1 => format!(
                "{:?}",
                checker.scan_pool(
                    hv,
                    ids,
                    "helloworld.sys",
                    ScanState::Arena(&checker.arena),
                    workers
                )
            ),
            2 => format!(
                "{:?}",
                checker.check_one(hv, ids[0], &ids[1..], "ntoskrnl.exe")
            ),
            _ => format!(
                "{:?}",
                checker.scan_pool(
                    hv,
                    ids,
                    "ntoskrnl.exe",
                    ScanState::Arena(&checker.arena),
                    workers
                )
            ),
        }
    }

    /// One checker runs the arena sequence at 1, 2, 3 and 8 workers; each
    /// report must equal a fresh checker's for the same step. Returns the
    /// reused checker's arena counters.
    fn assert_reuse_is_invisible(
        config: CheckConfig,
        hv: &Hypervisor,
        ids: &[VmId],
    ) -> crate::arena::ArenaStats {
        let reused = ModChecker::with_config(config);
        for workers in [1, 2, 3, 8] {
            for step in 0..4 {
                let fresh = ModChecker::with_config(config);
                assert_eq!(
                    arena_step(&reused, hv, ids, workers, step),
                    arena_step(&fresh, hv, ids, workers, step),
                    "{workers} workers, step {step}"
                );
            }
        }
        // The first scan is the largest, so no buffer was ever grown: every
        // allocation is a buffer, and each must be back.
        let stats = reused.arena().stats();
        assert_eq!(reused.arena().retained() as u64, stats.allocs, "{stats:?}");
        stats
    }

    #[test]
    fn arena_reuse_never_changes_a_report() {
        let (hv, _guests, ids) = arena_pool();
        let stats = assert_reuse_is_invisible(CheckConfig::default(), &hv, &ids);
        assert!(stats.reuses > stats.allocs, "{stats:?}");
    }

    #[test]
    fn arena_reuse_never_changes_a_faulted_report() {
        let (mut hv, _guests, ids) = arena_pool();
        let mut plan = FaultPlan::none(0xA7E4);
        plan.torn_rate = 0.1;
        plan.paged_out_rate = 0.1;
        hv.inject_fault_plan(plan);
        // Lost at the image read, after its buffer is drawn.
        hv.set_fault_plan(ids[6], Some(plan.lose_after(3))).unwrap();
        let config = CheckConfig {
            retry: RetryPolicy::with_max_retries(6),
            ..CheckConfig::default()
        };
        let checker = ModChecker::with_config(config);
        let report = checker.check_pool(&hv, &ids, "ntoskrnl.exe").unwrap();
        assert!(report.fault_injections > 0, "the fault plan never fired");
        assert!(report.verdicts[6].error.is_some(), "dom7 was not lost");
        let allocs = checker.arena().stats().allocs;
        assert_eq!(
            checker.arena().retained() as u64,
            allocs,
            "dom7's buffer came back"
        );
        let stats = assert_reuse_is_invisible(config, &hv, &ids);
        assert!(stats.reuses > 0, "{stats:?}");
    }

    #[test]
    fn arena_reuse_never_changes_a_report_with_a_forged_size_of_image() {
        let (mut hv, guests, ids) = arena_pool();
        // Plausible but past the mapped image: the size check passes, an
        // arena buffer is drawn, and the read fails into it.
        let offs = mc_guest::ldr::LdrOffsets::for_width(AddressWidth::W32);
        let nt = guests[4].find_module("ntoskrnl.exe").unwrap();
        let forged = nt.size + 64 * PAGE_SIZE as u32;
        hv.vm_mut(ids[4])
            .unwrap()
            .write_virt(nt.ldr_entry_va + offs.size_of_image, &forged.to_le_bytes())
            .unwrap();
        let checker = ModChecker::new();
        let report = checker.check_pool(&hv, &ids, "ntoskrnl.exe").unwrap();
        assert_eq!(
            report.verdicts[4].error.as_ref().map(|e| e.kind),
            Some(VerdictErrorKind::CaptureFailed),
            "{:?}",
            report.verdicts[4]
        );
        let allocs = checker.arena().stats().allocs;
        assert_eq!(
            checker.arena().retained() as u64,
            allocs,
            "dom5's buffer came back"
        );
        let stats = assert_reuse_is_invisible(CheckConfig::default(), &hv, &ids);
        assert!(stats.reuses > stats.allocs, "{stats:?}");
    }

    /// A cold and then a warm cached scan vote exactly like the uncached
    /// scan at 1 and 3 workers, under both strategies, with the static
    /// pre-pass on, with and without faults. Canonical mode rebases
    /// static findings per bucket (DESIGN.md §12), so only pairwise
    /// compares them. Under faults the cached scan's generation probe
    /// warms the translate cache, so its counters and simulated time may
    /// differ; fault-free cold scans charge the same time.
    #[test]
    fn cached_scans_vote_like_the_uncached_scan() {
        for faults in [false, true] {
            let (mut hv, _guests, ids) = arena_pool();
            let mut retry = RetryPolicy::default();
            if faults {
                let mut plan = FaultPlan::none(0xA7E4);
                plan.torn_rate = 0.1;
                plan.paged_out_rate = 0.1;
                hv.inject_fault_plan(plan);
                hv.set_fault_plan(ids[6], Some(plan.lose_after(3))).unwrap();
                retry = RetryPolicy::with_max_retries(6);
            }
            for compare in [CompareStrategy::Pairwise, CompareStrategy::Canonical] {
                let checker = ModChecker::with_config(CheckConfig {
                    compare,
                    static_prepass: true,
                    retry,
                    ..CheckConfig::default()
                });
                for workers in [1, 3] {
                    let uncached = ScanState::Arena(&checker.arena);
                    let want = checker
                        .scan_pool(&hv, &ids, "ntoskrnl.exe", uncached, workers)
                        .unwrap();
                    assert_eq!(want.verdicts[6].error.is_some(), faults);
                    let mut cache = CaptureCache::new();
                    for round in ["cold", "warm"] {
                        let got = checker
                            .check_pool_with_cache(&hv, &ids, "ntoskrnl.exe", &mut cache)
                            .unwrap();
                        let at =
                            format!("{compare:?}, faults {faults}, {workers} workers, {round}");
                        assert_eq!(
                            format!("{:?}", got.verdicts),
                            format!("{:?}", want.verdicts),
                            "{at}"
                        );
                        assert_eq!(
                            format!("{:?}", got.matrix),
                            format!("{:?}", want.matrix),
                            "{at}"
                        );
                        assert_eq!(got.scanned, want.scanned, "{at}");
                        assert_eq!(got.quorum, want.quorum, "{at}");
                        if compare == CompareStrategy::Pairwise {
                            assert_eq!(
                                format!("{:?}", got.static_findings),
                                format!("{:?}", want.static_findings),
                                "{at}"
                            );
                        }
                        if !faults && round == "cold" {
                            assert_eq!(got.times.total(), want.times.total(), "{at}");
                        }
                    }
                    let stats = cache.stats();
                    assert!(stats.hits > 0 && stats.misses > 0, "{stats:?}");
                }
            }
        }
    }

    #[test]
    fn checker_debug_prints_arena_counters_not_buffers() {
        let (hv, _guests, ids) = cloud(4);
        let checker = ModChecker::new();
        let before = format!("{checker:?}").len();
        checker.check_pool(&hv, &ids, "http.sys").unwrap();
        let stats = checker.arena().stats();
        assert!(stats.recycled_bytes >= 4 * 20 * 1024, "{stats:?}");
        let after = format!("{checker:?}");
        // Only the three counters' digits may grow.
        assert!(
            after.len() <= before + 3 * u64::MAX.to_string().len(),
            "{after}"
        );
        assert!(after.contains(&format!("{stats:?}")), "{after}");
    }

    #[test]
    fn a_poisoned_arena_lock_is_recovered() {
        let (hv, _guests, ids) = cloud(4);
        let checker = ModChecker::new();
        let holder = checker.clone();
        let poisoner = std::thread::spawn(move || {
            let _guard = holder.arena.lock();
            panic!("poison the arena lock");
        });
        assert!(poisoner.join().is_err());
        assert!(checker.arena.is_poisoned());
        let got = checker.check_pool(&hv, &ids, "hal.dll").unwrap();
        let want = ModChecker::new().check_pool(&hv, &ids, "hal.dll").unwrap();
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        assert!(
            checker.arena().retained() > 0,
            "the scan's buffers came back"
        );
    }

    #[test]
    fn a_forged_64_bit_size_of_image_is_a_verdict_not_an_abort() {
        let mut hv = Hypervisor::new();
        let width = AddressWidth::W64;
        let bps = vec![ModuleBlueprint::new("hal.dll", width, 12 * 1024)];
        let guests = build_cloud_with_modules(&mut hv, 4, width, &bps).unwrap();
        let ids: Vec<VmId> = guests.iter().map(|g| g.vm).collect();
        let offs = mc_guest::ldr::LdrOffsets::for_width(width);
        let entry = guests[1].find_module("hal.dll").unwrap().ldr_entry_va;
        hv.vm_mut(ids[1])
            .unwrap()
            .write_virt(entry + offs.size_of_image, &u64::MAX.to_le_bytes())
            .unwrap();

        let checker = ModChecker::new();
        let uncached = checker.check_pool(&hv, &ids, "hal.dll").unwrap();
        let mut cache = CaptureCache::new();
        let cached = checker
            .check_pool_with_cache(&hv, &ids, "hal.dll", &mut cache)
            .unwrap();
        let error = |r: &PoolCheckReport| r.verdicts[1].error.clone().expect("dom2 fails");
        assert_eq!(error(&uncached).kind, VerdictErrorKind::CaptureFailed);
        assert!(error(&uncached).detail.contains(&u64::MAX.to_string()));
        assert_eq!(error(&cached), error(&uncached));
        assert_eq!(cached.verdicts[1].status, uncached.verdicts[1].status);
        assert!(!cache.contains(ids[1], "hal.dll"));

        let mut plane = crate::events::EventPlane::new();
        assert!(matches!(
            plane.arm_pair(&mut hv, ids[1], "hal.dll", true),
            Err(CheckError::ImplausibleSize { size: u64::MAX, .. })
        ));
        assert!(plane.arm_pair(&mut hv, ids[0], "hal.dll", true).is_ok());
    }
}
