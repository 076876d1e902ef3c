//! Capture cache: per-(VM, module) captures kept across scans, guarded by
//! page write-generations (DESIGN.md §14). The cache decides each cached
//! capture's [`CaptureOutcome`] and settles it — counters, entry table,
//! arena, tamper evidence — in one place ([`CaptureCache::settle`]).
#![cfg_attr(not(test), warn(clippy::too_many_lines))]

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use mc_hypervisor::{PageGeneration, VmId, PAGE_SIZE};

use crate::arena::CaptureArena;
use crate::checker::ExtractedModule;
use crate::digest::{DigestAlgo, PartDigest};
use crate::error::CheckError;
use crate::parts::PartId;
use crate::pool::VoteMemo;
use crate::searcher::ModuleRef;

/// A canonical fingerprint, owned: the bucket key the analysis cache and
/// the per-bucket static pre-pass share with the O(t) vote.
pub(crate) type Fingerprint = Vec<(PartId, PartDigest)>;

/// How a scan obtained one VM's capture (DESIGN.md §14, "Capture
/// outcomes"). An uncached scan always captures `Fresh`; a partial refresh
/// that reads back the cached bytes ends as `IdenticalRefresh`.
pub(crate) enum CaptureOutcome {
    /// The cached capture and its serial, on event-plane trust alone.
    Trusted(Arc<ExtractedModule>, u64),
    /// The cached capture and its serial: every page stamp unchanged.
    Hit(Arc<ExtractedModule>, u64),
    /// Only the pages whose stamp moved are re-read, then re-parsed.
    Partial(Refresh),
    /// The re-read pages equal the cached ones: the capture stays.
    IdenticalRefresh(Refresh),
    /// A full capture of the entry, with the stamps probed before the copy
    /// (`None` uncached or when the probe failed): a write racing the copy
    /// reads as a mismatch next scan.
    Fresh(ModuleRef, Option<Vec<PageGeneration>>),
}

/// A cached capture being refreshed, out of the table until settled.
pub(crate) struct Refresh {
    pub(crate) cached: CacheEntry,
    generations: Vec<PageGeneration>,
    /// Indices of the pages whose stamp moved (never empty).
    pub(crate) dirty: Vec<usize>,
    /// Set once the dirty pages were re-read: a failed read counts none.
    pub(crate) read: bool,
}

/// Run/hit accounting for a capture cache's static-analysis memo.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnalysisCacheStats {
    /// Analyzer invocations — one per distinct (fingerprint, import-table)
    /// content ever seen by this cache.
    pub runs: u64,
    /// Bucket verdicts served from the cache without running the analyzer.
    pub hits: u64,
}

impl AnalysisCacheStats {
    /// Every lookup, run or hit.
    pub(crate) fn lookups(self) -> u64 {
        self.runs + self.hits
    }
}

/// Per-content static analysis cache for the canonical-mode pre-pass.
///
/// Keyed by (canonical fingerprint, import-table digest): together these
/// cover every input the lint engine reads, so two captures with equal keys
/// provably yield the same findings up to the load-base shift applied at
/// replication time. Each [`CaptureCache`] owns one, so it lives as long as
/// the pool's captures and the steady-state cost of the static pre-pass is
/// zero analyzer runs per round.
#[derive(Clone, Debug, Default)]
pub(crate) struct AnalysisCache {
    /// `None` = analyzed and clean (or unparseable); `Some((base, report))`
    /// = findings as seen from a capture loaded at `base`.
    entries: HashMap<(Fingerprint, u64), Option<(u64, mc_analysis::AnalysisReport)>>,
    pub(crate) stats: AnalysisCacheStats,
}

impl AnalysisCache {
    /// Returns the cached verdict for `(fingerprint, aux)`, running `scan`
    /// (and counting a run) only on first sight.
    pub(crate) fn lookup_or_run(
        &mut self,
        fingerprint: &Fingerprint,
        aux: u64,
        scan: impl FnOnce() -> Option<(u64, mc_analysis::AnalysisReport)>,
    ) -> &Option<(u64, mc_analysis::AnalysisReport)> {
        let key = (fingerprint.clone(), aux);
        if self.entries.contains_key(&key) {
            self.stats.hits += 1;
        } else {
            self.stats.runs += 1;
            self.entries.insert(key.clone(), scan());
        }
        &self.entries[&key]
    }
}

/// Hit/miss accounting for a [`CaptureCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Rounds that reused a cached capture (generations unchanged).
    pub hits: u64,
    /// The subset of `hits` served on event-plane trust alone — no list
    /// walk, no generation probes, zero guest reads (push mode; the trap
    /// subscriber proved the watched frames quiet).
    pub trusted_hits: u64,
    /// Rounds that refreshed only the pages whose write-generation moved
    /// and reused every other page of the cached capture (page-granular
    /// partial invalidation, DESIGN.md §14).
    pub partial_hits: u64,
    /// Pages re-read by partial hits.
    pub pages_refreshed: u64,
    /// Pages whose cached bytes were reused by partial hits without
    /// touching guest memory.
    pub pages_reused: u64,
    /// Rounds that captured afresh (first sight or invalidated).
    pub misses: u64,
    /// Cached entries discarded wholesale: the module relocated, resized,
    /// the digest algorithm changed, or the stamp probe itself failed —
    /// shapes a page-granular refresh cannot bridge. (A moved generation
    /// alone is a partial hit, not an invalidation.)
    pub invalidations: u64,
    /// Cached entries discarded for VM-lifecycle reasons rather than
    /// content change: the VM was lost mid-scan, quarantined by the
    /// monitor's circuit breaker, or reverted to a snapshot. Counted per
    /// entry removed (a VM caching three modules evicts three).
    pub evictions: u64,
    /// Partial hits whose refreshed pages read back byte-identical to the
    /// cached capture while their write-generations moved — the
    /// scrubbed-then-restored signature
    /// ([`crate::CheckConfig::tamper_evidence`]).
    pub silent_restores: u64,
}

impl std::ops::AddAssign for CacheStats {
    /// Field-wise sum, for aggregating several caches. The destructure is
    /// exhaustive, so a new counter cannot be silently left out.
    fn add_assign(&mut self, other: CacheStats) {
        let CacheStats {
            hits,
            trusted_hits,
            partial_hits,
            pages_refreshed,
            pages_reused,
            misses,
            invalidations,
            evictions,
            silent_restores,
        } = other;
        self.hits += hits;
        self.trusted_hits += trusted_hits;
        self.partial_hits += partial_hits;
        self.pages_refreshed += pages_refreshed;
        self.pages_reused += pages_reused;
        self.misses += misses;
        self.invalidations += invalidations;
        self.evictions += evictions;
        self.silent_restores += silent_restores;
    }
}

/// Per-(VM, module) capture cache keyed by page write-generations.
///
/// An entry stores the decoded capture ([`ExtractedModule`], shared via
/// `Arc`) together with the write-generation stamp of every page it was
/// copied from. A later round probes the stamps (metadata-only, no page
/// mapping) and reuses the capture iff every stamp — and the load base and
/// digest algorithm — is unchanged; any moved generation invalidates just
/// that (VM, module) entry. This is the incremental-rescanning half of the
/// canonical-comparison tentpole: steady-state clean rounds cost O(pages
/// probed), not O(module bytes · VMs).
#[derive(Clone, Debug, Default)]
pub struct CaptureCache {
    /// Entries by module name, then VM: a lookup builds no key.
    entries: HashMap<String, HashMap<VmId, CacheEntry>>,
    stats: CacheStats,
    /// Recycled backing storage for captures and partial refreshes,
    /// tight-fit: a steady-state sweep stops allocating once every module
    /// size has passed through once.
    arena: CaptureArena,
    /// `(vm, module)` pairs flagged by the tamper-evidence channel:
    /// write-generations moved, bytes did not. Accumulates across rounds
    /// (evidence log, not per-round state).
    silent_restores: BTreeSet<(VmId, String)>,
    /// The canonical-mode static pre-pass memo for this cache's pool.
    /// Content-addressed, so it never goes stale: [`CaptureCache::clear`]
    /// and evictions leave it alone.
    pub(crate) analysis: AnalysisCache,
    /// Last vote per module, keyed by the entry serials that voted: an
    /// entry replaced, refreshed or dropped takes its serial with it, so
    /// a memo can only match captures it was computed from.
    pub(crate) votes: HashMap<String, VoteMemo>,
    /// Serial for the next inserted entry.
    next_serial: u64,
    /// Votes served from `votes` (test instrumentation).
    #[cfg(test)]
    pub(crate) vote_reuses: u64,
}

#[derive(Clone, Debug)]
pub(crate) struct CacheEntry {
    /// The stamp of every page the capture was copied from.
    generations: Vec<PageGeneration>,
    /// The capture; its load base and digest algorithm guard reuse.
    pub(crate) module: Arc<ExtractedModule>,
    /// Unique per insert within this cache: identifies the capture
    /// without holding it.
    pub(crate) serial: u64,
}

impl CaptureCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative hit/miss/invalidation counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Run/hit counters of the static pre-pass memo.
    pub(crate) fn analysis_stats(&self) -> AnalysisCacheStats {
        self.analysis.stats
    }

    /// Allocation/reuse counters of the cache's capture arena.
    pub fn arena_stats(&self) -> crate::arena::ArenaStats {
        self.arena.stats()
    }

    /// `(vm, module)` pairs the tamper-evidence channel has flagged as
    /// scrubbed-then-restored, sorted (BTreeSet order). Empty unless
    /// [`crate::CheckConfig::tamper_evidence`] is on.
    pub fn silent_restores(&self) -> Vec<(VmId, String)> {
        self.silent_restores.iter().cloned().collect()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.values().map(HashMap::len).sum()
    }

    /// True when no captures are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.values().all(HashMap::is_empty)
    }

    /// Drops every cached capture and memoized vote (counters survive).
    pub fn clear(&mut self) {
        for (_, vms) in self.entries.drain() {
            for (_, gone) in vms {
                self.arena.reclaim(gone.module);
            }
        }
        self.votes.clear();
    }

    /// Drops every entry belonging to one VM — called when the VM's
    /// lifecycle invalidates its captures wholesale (lost mid-scan,
    /// quarantined, snapshot-reverted). Returns how many entries went;
    /// each is counted in [`CacheStats::evictions`].
    pub fn evict_vm(&mut self, vm: VmId) -> usize {
        let mut evicted = 0;
        for vms in self.entries.values_mut() {
            if let Some(gone) = vms.remove(&vm) {
                self.arena.reclaim(gone.module);
                evicted += 1;
            }
        }
        self.stats.evictions += evicted as u64;
        evicted
    }

    /// Records the cumulative counters as gauges (`cache_*`). Gauges — not
    /// counter adds — because the stats are already lifetime-cumulative;
    /// re-recording each round must not double-count.
    pub fn record_metrics(&self, reg: &mut mc_obs::MetricsRegistry) {
        #[allow(clippy::cast_precision_loss)]
        {
            let s = self.stats;
            reg.gauge_set("cache_hits", s.hits as f64);
            reg.gauge_set("cache_trusted_hits", s.trusted_hits as f64);
            reg.gauge_set("cache_partial_hits", s.partial_hits as f64);
            reg.gauge_set("cache_pages_refreshed", s.pages_refreshed as f64);
            reg.gauge_set("cache_pages_reused", s.pages_reused as f64);
            reg.gauge_set("cache_misses", s.misses as f64);
            reg.gauge_set("cache_invalidations", s.invalidations as f64);
            reg.gauge_set("cache_evictions", s.evictions as f64);
            reg.gauge_set("cache_entries", self.len() as f64);
            reg.gauge_set("adversary_silent_restores", s.silent_restores as f64);
            let a = self.arena.stats();
            reg.gauge_set("capture_arena_allocs", a.allocs as f64);
            reg.gauge_set("capture_arena_reuses", a.reuses as f64);
            reg.gauge_set("capture_arena_recycled_bytes", a.recycled_bytes as f64);
        }
    }

    /// A zeroed buffer of `len` bytes from the cache's arena.
    pub(crate) fn acquire(&mut self, len: usize) -> Vec<u8> {
        self.arena.acquire(len)
    }

    /// Returns a buffer to the cache's arena.
    pub(crate) fn release(&mut self, buf: Vec<u8>) {
        self.arena.release(buf);
    }

    /// `Trusted` for a vouched-for pair with a capture under `algo`. With
    /// none (cold, evicted, reverted) the pair is probed like any other,
    /// which keeps trust safe against event-free changes like a revert.
    pub(crate) fn trusted(
        &self,
        vm: VmId,
        module: &str,
        algo: DigestAlgo,
    ) -> Option<CaptureOutcome> {
        let hit = self.entries.get(module)?.get(&vm)?;
        (hit.module.algo == algo)
            .then(|| CaptureOutcome::Trusted(Arc::clone(&hit.module), hit.serial))
    }

    /// Decides the outcome for `module` on `vm`, found at `entry`, from the
    /// stamps probed this scan: `Hit` when base, algorithm and stamps match;
    /// `Partial` when only stamps moved on a same-shaped capture; else
    /// `Fresh`, any stale entry discarded first.
    pub(crate) fn decide(
        &mut self,
        vm: VmId,
        module: &str,
        entry: ModuleRef,
        algo: DigestAlgo,
        generations: Option<Vec<PageGeneration>>,
    ) -> CaptureOutcome {
        let Some(Entry::Occupied(slot)) = self.entries.get_mut(module).map(|vms| vms.entry(vm))
        else {
            return CaptureOutcome::Fresh(entry, generations);
        };
        let hit = slot.get();
        let same = hit.module.image.base == entry.base && hit.module.algo == algo;
        match generations {
            Some(gens) if same && hit.generations == gens => {
                CaptureOutcome::Hit(Arc::clone(&hit.module), hit.serial)
            }
            Some(gens)
                if same
                    && hit.generations.len() == gens.len()
                    && hit.module.image.bytes.len() == entry.size as usize =>
            {
                let cached = slot.remove();
                let dirty = (0..gens.len())
                    .filter(|&i| gens[i] != cached.generations[i])
                    .collect();
                CaptureOutcome::Partial(Refresh {
                    cached,
                    generations: gens,
                    dirty,
                    read: false,
                })
            }
            generations => {
                self.stats.invalidations += 1;
                self.arena.reclaim(slot.remove().module);
                CaptureOutcome::Fresh(entry, generations)
            }
        }
    }

    /// Settles `module` on `vm`: counts `outcome`, stores or keeps the
    /// capture and returns its entry's serial. A failure drops what it
    /// made stale: a lost VM's every entry, else this pair's. With
    /// `tamper_evidence` an identical refresh is a silent restore (§16).
    pub(crate) fn settle(
        &mut self,
        vm: VmId,
        module: &str,
        outcome: Option<CaptureOutcome>,
        result: &Result<Arc<ExtractedModule>, CheckError>,
        tamper_evidence: bool,
    ) -> Option<u64> {
        let s = &mut self.stats;
        match &outcome {
            Some(CaptureOutcome::Trusted(..)) => {
                s.hits += 1;
                s.trusted_hits += 1;
            }
            Some(CaptureOutcome::Hit(..)) => s.hits += 1,
            Some(CaptureOutcome::Partial(r) | CaptureOutcome::IdenticalRefresh(r)) => {
                s.partial_hits += 1;
                if r.read {
                    let pages = r.cached.module.image.bytes.len().div_ceil(PAGE_SIZE);
                    s.pages_refreshed += r.dirty.len() as u64;
                    s.pages_reused += (pages - r.dirty.len()) as u64;
                }
            }
            Some(CaptureOutcome::Fresh(..)) => s.misses += 1,
            None => {}
        }
        let captured = match result {
            Ok(m) => m,
            Err(e) => {
                if let Some(CaptureOutcome::Partial(r)) = outcome {
                    self.arena.reclaim(r.cached.module);
                }
                match e {
                    CheckError::Vmi(ve) if ve.is_fatal_to_vm() => {
                        self.evict_vm(vm);
                    }
                    _ => {
                        if let Some(gone) = self.entries.get_mut(module).and_then(|v| v.remove(&vm))
                        {
                            self.arena.reclaim(gone.module);
                        }
                    }
                }
                return None;
            }
        };
        match outcome? {
            CaptureOutcome::Trusted(_, serial) | CaptureOutcome::Hit(_, serial) => Some(serial),
            CaptureOutcome::IdenticalRefresh(r) => {
                if tamper_evidence {
                    self.stats.silent_restores += 1;
                    self.silent_restores.insert((vm, module.to_string()));
                }
                // Same bytes: the serial still names exactly this capture.
                let serial = r.cached.serial;
                self.put(
                    vm,
                    module,
                    r.generations,
                    Arc::clone(captured),
                    Some(serial),
                );
                Some(serial)
            }
            CaptureOutcome::Partial(r) => {
                let serial = self.put(vm, module, r.generations, Arc::clone(captured), None);
                // The superseded capture's buffer comes back if this scan
                // held the last reference.
                self.arena.reclaim(r.cached.module);
                Some(serial)
            }
            CaptureOutcome::Fresh(_, gens) => {
                gens.map(|gens| self.put(vm, module, gens, Arc::clone(captured), None))
            }
        }
    }

    /// Stores a capture under `serial` (or a new one) and returns it; a
    /// replaced entry's buffer goes back to the arena.
    fn put(
        &mut self,
        vm: VmId,
        module: &str,
        generations: Vec<PageGeneration>,
        capture: Arc<ExtractedModule>,
        serial: Option<u64>,
    ) -> u64 {
        let serial = serial.unwrap_or_else(|| {
            self.next_serial += 1;
            self.next_serial - 1
        });
        let entry = CacheEntry {
            generations,
            module: capture,
            serial,
        };
        let vms = self.entries.entry(module.to_string()).or_default();
        if let Some(old) = vms.insert(vm, entry) {
            self.arena.reclaim(old.module);
        }
        serial
    }
}

#[cfg(test)]
impl CaptureCache {
    /// Votes served from the memo so far.
    pub(crate) fn vote_reuses(&self) -> u64 {
        self.vote_reuses
    }

    /// Drops every memoized vote, leaving captures cached: a cache in
    /// this state recomputes every vote, which makes it the oracle a
    /// memoized scan must match.
    pub(crate) fn forget_votes(&mut self) {
        self.votes.clear();
    }

    /// The cached entry of `module` on `vm`.
    pub(crate) fn entry(&self, vm: VmId, module: &str) -> Option<&CacheEntry> {
        self.entries.get(module)?.get(&vm)
    }

    /// The cached entry of `module` on `vm`, to doctor.
    pub(crate) fn entry_mut(&mut self, vm: VmId, module: &str) -> Option<&mut CacheEntry> {
        self.entries.get_mut(module)?.get_mut(&vm)
    }

    /// True when a capture of `module` on `vm` is cached.
    pub(crate) fn contains(&self, vm: VmId, module: &str) -> bool {
        self.entry(vm, module).is_some()
    }

    /// Buffers parked on the cache arena's free list.
    pub(crate) fn arena_retained(&self) -> usize {
        self.arena.retained()
    }
}

#[cfg(test)]
impl AnalysisCache {
    /// Distinct contents analyzed.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}
