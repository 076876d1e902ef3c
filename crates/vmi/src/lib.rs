//! Virtual machine introspection — the reproduction's libVMI.
//!
//! The paper introspects guests with libvmi-0.6: from the privileged VM it
//! resolves kernel symbols, translates guest virtual addresses by walking
//! the guest's page tables, maps foreign frames, and copies memory out.
//! [`VmiSession`] provides that surface over the simulated hypervisor with
//! two properties the reproduction depends on:
//!
//! * **Read-only.** There is deliberately no write API. ModChecker "performs
//!   read-only operations of the memory of guest VMs"; the type system
//!   enforces it (a session borrows the hypervisor immutably, so guests
//!   cannot change under it, and parallel sessions are safe).
//! * **Cost-accounted.** Every read charges simulated time to the session's
//!   ledger: per-page translation + foreign-map cost plus per-byte copy
//!   cost, scaled by the host contention factor captured at attach time.
//!   The performance figures (Fig. 7/8) are integrals of this ledger.
//!
//! Processing costs (parsing, hashing, diffing) are charged by the checker
//! via [`VmiSession::charge_process`], so one ledger carries a whole
//! per-VM check and can be split per component.
//!
//! **One read path.** The four public reads ([`VmiSession::read_va`],
//! [`VmiSession::read_va_stable`] and their scatter-gather twins) are one
//! private batch read; a scalar read is a one-request batch. Each attempt
//! consults the fault layer once for the whole batch. A fast session
//! ([`VmiSession::with_fast_capture`]) plans every request against its
//! translate cache; a legacy session reads request by request with the
//! paper's per-page charge.
//!
//! **Chaos-readiness.** When the introspected VM carries a
//! [`mc_hypervisor::FaultPlan`], the session transparently rides out
//! transient faults with a bounded exponential-backoff retry
//! ([`RetryPolicy`]), every backoff charged to the simulated-time ledger so
//! the performance figures stay honest. Captures go through the stable
//! reads, which detect torn pages by reading the batch twice. A
//! per-session [deadline](VmiSession::with_deadline) bounds how much
//! simulated time a misbehaving guest can consume.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::too_many_lines))]

use std::collections::hash_map::{Entry, RandomState};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

use mc_hypervisor::{
    AddressWidth, FaultDecision, FaultState, HvError, Hypervisor, SimDuration, Vm, VmId, PAGE_SHIFT,
};
use rand::SeedableRng;

#[cfg(test)]
mod reference;

/// Introspection errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VmiError {
    /// Underlying guest-memory/translation failure (e.g. unmapped page —
    /// possibly a hostile guest pointing us into the void).
    Hv(HvError),
    /// No VM with this name exists on the host.
    VmNotFound(String),
    /// The requested symbol is not in the VM's profile.
    UnknownSymbol(String),
    /// A transient fault persisted past the retry budget.
    RetriesExhausted {
        /// Virtual address of the failing read.
        va: u64,
        /// Total attempts made (initial try + retries).
        attempts: u32,
        /// The last transient error observed.
        last: HvError,
    },
    /// A bulk read never produced two consecutive identical snapshots
    /// within the retry budget — the guest is dirtying the page faster
    /// than we can copy it.
    TornRead {
        /// Virtual address of the unstable read.
        va: u64,
    },
    /// The session's simulated-time deadline elapsed before the read.
    DeadlineExceeded {
        /// Simulated time consumed by the session so far.
        elapsed: SimDuration,
        /// The configured deadline.
        deadline: SimDuration,
    },
}

impl fmt::Display for VmiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmiError::Hv(e) => write!(f, "guest access failed: {e}"),
            VmiError::VmNotFound(n) => write!(f, "no VM named {n:?}"),
            VmiError::UnknownSymbol(s) => write!(f, "symbol {s:?} not in profile"),
            VmiError::RetriesExhausted { va, attempts, last } => {
                write!(
                    f,
                    "read at {va:#x} still failing after {attempts} attempts: {last}"
                )
            }
            VmiError::TornRead { va } => {
                write!(f, "read at {va:#x} unstable: guest keeps dirtying the page")
            }
            VmiError::DeadlineExceeded { elapsed, deadline } => {
                write!(
                    f,
                    "session deadline {deadline} exceeded ({elapsed} consumed)"
                )
            }
        }
    }
}

impl std::error::Error for VmiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VmiError::Hv(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HvError> for VmiError {
    fn from(e: HvError) -> Self {
        VmiError::Hv(e)
    }
}

impl VmiError {
    /// True when the error means the VM itself is gone or out of time —
    /// conditions where continuing the scan on this VM is pointless.
    pub fn is_fatal_to_vm(&self) -> bool {
        matches!(
            self,
            VmiError::Hv(HvError::VmLost(_))
                | VmiError::VmNotFound(_)
                | VmiError::RetriesExhausted { .. }
                | VmiError::DeadlineExceeded { .. }
        )
    }
}

/// Bounded exponential-backoff retry for transient introspection faults.
///
/// Attempt `k` (0-based) that fails transiently waits
/// `backoff_base * backoff_factor^k` of simulated time before the next
/// try; after `max_retries` retries the read surfaces
/// [`VmiError::RetriesExhausted`]. Backoff is charged to the session
/// ledger *unscaled* by host contention: it models the introspector
/// sleeping, not competing for CPU.
///
/// With `jitter > 0` each wait is additionally scaled by a uniform draw
/// from `[1 − jitter/2, 1 + jitter/2]`, desynchronizing the retry storm
/// when many VMs fault in the same round. The draws come from a per-VM
/// stream seeded by the VM's id (see [`VmiSession::attach`]), so each
/// VM's schedule is distinct yet fully deterministic — sequential and
/// parallel scans stay byte-identical. `jitter: 0.0` (the default) takes
/// no draw at all, reproducing the unjittered schedule exactly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (0 = fail fast).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub backoff_base: SimDuration,
    /// Multiplier applied per subsequent retry.
    pub backoff_factor: f64,
    /// Width of the uniform jitter band around each backoff, as a
    /// fraction of the wait (clamped to `[0, 1]`; `0.4` means ±20%).
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            backoff_base: SimDuration::from_micros(50),
            backoff_factor: 2.0,
            jitter: 0.0,
        }
    }
}

impl RetryPolicy {
    /// Fail-fast policy: no retries, no backoff.
    pub const NONE: RetryPolicy = RetryPolicy {
        max_retries: 0,
        backoff_base: SimDuration::ZERO,
        backoff_factor: 1.0,
        jitter: 0.0,
    };

    /// A policy with `max_retries` retries and default backoff.
    pub fn with_max_retries(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            ..RetryPolicy::default()
        }
    }

    /// The same policy with a jitter band of `jitter` (clamped to
    /// `[0, 1]`).
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter.clamp(0.0, 1.0);
        self
    }

    /// Backoff to wait after failed attempt `attempt` (0-based), without
    /// jitter.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        self.backoff_base
            .scaled(self.backoff_factor.powi(attempt.min(62) as i32))
    }

    /// Backoff with the policy's jitter applied from `rng`. With
    /// `jitter == 0` no draw is taken — the stream, and therefore every
    /// downstream schedule, is untouched.
    pub fn jittered_backoff<R: rand::RngCore>(&self, attempt: u32, rng: &mut R) -> SimDuration {
        let base = self.backoff(attempt);
        if self.jitter <= 0.0 {
            return base;
        }
        // 53 uniform mantissa bits give a uniform float in [0, 1).
        #[allow(clippy::cast_precision_loss)]
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let band = self.jitter.clamp(0.0, 1.0);
        base.scaled(1.0 + band * (unit - 0.5))
    }
}

/// Access statistics for one session (used by benches and tests to verify
/// the page-granular access pattern).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VmiStats {
    /// Number of `read_va` calls.
    pub reads: u64,
    /// Guest frames mapped (one per page crossed per read; no map cache, as
    /// in the paper's sequential prototype).
    pub pages_mapped: u64,
    /// Bytes copied out of the guest.
    pub bytes_copied: u64,
    /// Page-table walks charged to the ledger. On the legacy path every
    /// chargeable page is a walk (translation is bundled into
    /// [`mc_hypervisor::CostModel::read_cost`]); on the fast path
    /// ([`VmiSession::with_fast_capture`]) only translate-cache *misses*
    /// walk, so this counter is how tests prove header parsing stopped
    /// paying a walk per field.
    pub page_walks: u64,
    /// Translations answered by the per-session translate cache instead of
    /// a page-table walk (fast path only; free of simulated time).
    pub translate_cache_hits: u64,
    /// Scatter-gather calls ([`VmiSession::read_va_vectored`] and its
    /// stable variant). Each one plans all its requests against the
    /// translate cache and charges one foreign-map per contiguous
    /// physical run.
    pub vectored_reads: u64,
    /// Retry attempts spent riding out transient faults.
    pub retries: u64,
    /// Transient faults observed (each consumed a retry or ended the read).
    pub transient_faults: u64,
    /// Torn reads detected by the stable reads' double-read.
    pub torn_detected: u64,
    /// Requests re-read by the stable reads' verification passes.
    /// These re-read memory that was already copied, so they are *not*
    /// counted in `reads`/`pages_mapped`/`bytes_copied` — overhead
    /// attribution would otherwise double-charge every stable read.
    pub stability_rereads: u64,
}

impl VmiStats {
    /// Adds another session's counters into this one (used to aggregate a
    /// pool scan's per-VM sessions into one report-level figure).
    pub fn accumulate(&mut self, other: &VmiStats) {
        self.reads += other.reads;
        self.pages_mapped += other.pages_mapped;
        self.bytes_copied += other.bytes_copied;
        self.page_walks += other.page_walks;
        self.translate_cache_hits += other.translate_cache_hits;
        self.vectored_reads += other.vectored_reads;
        self.retries += other.retries;
        self.transient_faults += other.transient_faults;
        self.torn_detected += other.torn_detected;
        self.stability_rereads += other.stability_rereads;
    }

    /// Registers the counters into a [`mc_obs::MetricsRegistry`] under the
    /// `vmi_*_total` names the README documents.
    pub fn record_into(&self, reg: &mut mc_obs::MetricsRegistry) {
        reg.counter_add("vmi_reads_total", self.reads);
        reg.counter_add("vmi_pages_mapped_total", self.pages_mapped);
        reg.counter_add("vmi_bytes_copied_total", self.bytes_copied);
        reg.counter_add("vmi_page_walks_total", self.page_walks);
        reg.counter_add("vmi_translate_cache_hits_total", self.translate_cache_hits);
        reg.counter_add("vmi_vectored_reads_total", self.vectored_reads);
        reg.counter_add("vmi_retries_total", self.retries);
        reg.counter_add("vmi_transient_faults_total", self.transient_faults);
        reg.counter_add("vmi_torn_detected_total", self.torn_detected);
        reg.counter_add("vmi_stability_rereads_total", self.stability_rereads);
    }
}

/// One request of a scatter-gather read: fill `buf` from guest-virtual
/// `va`. Build a slice of these and hand it to
/// [`VmiSession::read_va_vectored`] so the session can plan every page
/// walk and foreign map for the whole batch at once.
#[derive(Debug)]
pub struct VectoredRead<'a> {
    /// Guest-virtual address to read from.
    pub va: u64,
    /// Destination buffer; its length is the read length.
    pub buf: &'a mut [u8],
}

/// A memory-resident PE image located by
/// [`VmiSession::sweep_image_headers`]: a page-aligned base whose DOS/PE
/// header chain is coherent, with the `SizeOfImage` the header advertises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ImageHit {
    /// Page-aligned guest-virtual base of the image.
    pub base: u64,
    /// `SizeOfImage` from the optional header.
    pub size_of_image: u64,
}

/// Hasher for guest-address keys (page VAs, LDR entry VAs): one folded
/// 64×64→128-bit multiply per key instead of SipHash. Page-aligned keys
/// have twelve zero low bits; folding the product's high half into its
/// low half spreads the significant bits over the bits a hash table
/// indexes by. The guest chooses some of these addresses (list links),
/// so the multiply is keyed with a per-process random seed
/// ([`VaBuildHasher`]): colliding addresses cannot be precomputed.
#[derive(Clone, Copy, Debug)]
pub struct VaHasher(u64);

impl Hasher for VaHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let p = u128::from(self.0 ^ x) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }
}

/// Builds [`VaHasher`]s seeded once per process from the standard
/// library's random hash keys. Hash values only place keys in buckets;
/// no map keyed this way is iterated, so the seed never reaches output.
#[derive(Clone, Copy, Debug)]
pub struct VaBuildHasher(u64);

impl Default for VaBuildHasher {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        VaBuildHasher(*SEED.get_or_init(|| RandomState::new().hash_one(0u64)))
    }
}

impl BuildHasher for VaBuildHasher {
    type Hasher = VaHasher;

    fn build_hasher(&self) -> VaHasher {
        VaHasher(self.0)
    }
}

/// A set of guest addresses keyed by [`VaHasher`].
pub type VaSet = HashSet<u64, VaBuildHasher>;

/// Preallocation cap for per-page result vectors: a range's page count
/// comes from guest memory (`SizeOfImage`), so it bounds nothing until
/// each page has actually translated.
const PREALLOC_PAGES: u64 = 256;

/// Per-session fast-path state (see [`VmiSession::with_fast_capture`]).
///
/// Caching VA→PA translations for the lifetime of a session is sound
/// because the session borrows the [`Vm`] immutably: guest page tables
/// cannot be remapped under it. The `mapped` set plays the role of the
/// legacy page cache, but map charges are per contiguous *physical* run,
/// not per page.
#[derive(Debug, Default)]
struct FastPathState {
    /// Page-aligned guest VA → guest PA of the backing frame.
    translate: HashMap<u64, u64, VaBuildHasher>,
    /// Page-aligned guest VAs already foreign-mapped this session.
    mapped: VaSet,
    /// The current read's plan: `(page VA, frame PA)` for every page it
    /// crosses, sorted by VA and deduplicated. Reused by every read, so a
    /// warm session plans without allocating.
    plan: Vec<(u64, u64)>,
}

impl FastPathState {
    /// Resolves page-aligned `pva` through the translate cache, walking
    /// the page tables on a miss. Returns the frame address and whether
    /// the cache answered.
    fn resolve(&mut self, vm: &Vm, pva: u64) -> Result<(u64, bool), HvError> {
        match self.translate.entry(pva) {
            Entry::Occupied(e) => Ok((*e.get(), true)),
            Entry::Vacant(e) => Ok((*e.insert(vm.translate(pva)?), false)),
        }
    }

    /// Adds the pages a `len`-byte read at `va` crosses to the plan (not
    /// yet sorted or deduplicated).
    fn add_range(&mut self, va: u64, len: u64) {
        let first = va & !((1u64 << PAGE_SHIFT) - 1);
        self.plan
            .extend((0..Vm::pages_crossed(va, len)).map(|i| (first + (i << PAGE_SHIFT), 0)));
    }

    /// The frame address the plan resolved for the page holding `va`, or
    /// `None` when the plan does not cross that page.
    fn planned_frame(&self, va: u64) -> Option<u64> {
        let pva = va & !((1u64 << PAGE_SHIFT) - 1);
        let i = self.plan.binary_search_by_key(&pva, |&(p, _)| p).ok()?;
        Some(self.plan[i].1)
    }
}

/// An introspection session against one guest VM.
///
/// Not `derive`d `Debug`: dumping the borrowed [`Vm`] (and with it the whole
/// guest memory image) would be useless noise, so the manual impl below
/// prints only the session-level state.
pub struct VmiSession<'hv> {
    vm: &'hv Vm,
    cost: mc_hypervisor::CostModel,
    slowdown: f64,
    elapsed: SimDuration,
    /// Total simulated time ever charged — unlike `elapsed`, never reset by
    /// [`VmiSession::take_elapsed`], so the deadline measures the whole
    /// session even when the checker splits the ledger per component.
    consumed: SimDuration,
    stats: VmiStats,
    /// Scatter-gather fast path: translate cache + run-batched foreign
    /// maps. `None` (the default) keeps the legacy bundled
    /// `read_cost(pages, bytes)` ledger for ablation and goldens.
    fast: Option<FastPathState>,
    /// Injected-fault state, present iff the VM carries a fault plan. The
    /// state lives in the session (not the shared `Vm`), keeping parallel
    /// scans data-race free and deterministic per (seed, VM id).
    fault: Option<FaultState>,
    retry: RetryPolicy,
    /// Per-VM jitter stream for [`RetryPolicy::jittered_backoff`]: seeded
    /// from the VM id at attach, so every VM desynchronizes differently
    /// while sequential and parallel scans stay byte-identical.
    jitter_rng: rand::rngs::StdRng,
    deadline: Option<SimDuration>,
    /// Routes fast-path reads through the pre-planner implementation
    /// (differential tests only).
    #[cfg(test)]
    reference: bool,
}

impl fmt::Debug for VmiSession<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VmiSession")
            .field("vm", &self.vm.name)
            .field("slowdown", &self.slowdown)
            .field("elapsed", &self.elapsed)
            .field("consumed", &self.consumed)
            .field("stats", &self.stats)
            .field("fast", &self.fast.is_some())
            .field("faulty", &self.fault.is_some())
            .field("retry", &self.retry)
            .field("deadline", &self.deadline)
            .finish()
    }
}

impl<'hv> VmiSession<'hv> {
    /// Attaches to a VM by id. Charges the attach cost. Fails with
    /// [`HvError::VmLost`] if the VM's fault plan lost it before any read.
    pub fn attach(hv: &'hv Hypervisor, id: VmId) -> Result<Self, VmiError> {
        let vm = hv.vm(id)?;
        let fault = match vm.fault_plan {
            Some(plan) => {
                let state = FaultState::new(id, plan);
                state.on_attach()?;
                Some(state)
            }
            None => None,
        };
        let slowdown = hv.dom0_slowdown();
        let mut s = VmiSession {
            vm,
            cost: hv.cost,
            slowdown,
            elapsed: SimDuration::ZERO,
            consumed: SimDuration::ZERO,
            stats: VmiStats::default(),
            fast: None,
            fault,
            retry: RetryPolicy::default(),
            jitter_rng: rand::rngs::StdRng::seed_from_u64(
                0x6A17_7E12_u64 ^ (u64::from(id.0) << 17),
            ),
            deadline: None,
            #[cfg(test)]
            reference: false,
        };
        s.charge(SimDuration::from_nanos(s.cost.vmi_attach_ns));
        Ok(s)
    }

    /// Enables the capture fast path: a per-session translate cache (one
    /// page-table walk per distinct page, ever), first-touch foreign maps,
    /// and scatter-gather planning for [`VmiSession::read_va_vectored`]
    /// that charges one map per contiguous *physical* run. The ledger
    /// splits [`mc_hypervisor::CostModel::translate_ns`] (per walk) from
    /// [`mc_hypervisor::CostModel::page_map_ns`] (per run) instead of
    /// bundling both per page, so the win shows up in simulated time.
    /// Off by default — the legacy ledger is the ablation baseline.
    pub fn with_fast_capture(mut self) -> Self {
        self.fast = Some(FastPathState::default());
        self
    }

    /// True when [`VmiSession::with_fast_capture`] is enabled.
    pub fn fast_capture(&self) -> bool {
        self.fast.is_some()
    }

    /// Sets the retry policy for transient faults (default:
    /// [`RetryPolicy::default`]; [`RetryPolicy::NONE`] fails fast).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Bounds the *total* simulated time this session may consume. Once
    /// exceeded, every further read fails with
    /// [`VmiError::DeadlineExceeded`]. The budget survives
    /// [`VmiSession::take_elapsed`] — it measures the session, not one
    /// ledger split.
    pub fn with_deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches to a VM by domain name.
    pub fn attach_by_name(hv: &'hv Hypervisor, name: &str) -> Result<Self, VmiError> {
        let vm = hv
            .vm_by_name(name)
            .ok_or_else(|| VmiError::VmNotFound(name.to_string()))?;
        Self::attach(hv, vm.id)
    }

    /// The introspected VM's name.
    pub fn vm_name(&self) -> &str {
        &self.vm.name
    }

    /// The introspected VM's id.
    pub fn vm_id(&self) -> VmId {
        self.vm.id
    }

    /// Guest pointer width (from the profile).
    pub fn width(&self) -> AddressWidth {
        self.vm.width()
    }

    /// Resolves a kernel symbol from the VM's profile (libVMI's
    /// `vmi_translate_ksym2v`).
    pub fn symbol(&mut self, name: &str) -> Result<u64, VmiError> {
        self.charge(SimDuration::from_nanos(self.cost.symbol_lookup_ns));
        self.vm
            .symbols
            .get(name)
            .copied()
            .ok_or_else(|| VmiError::UnknownSymbol(name.to_string()))
    }

    /// Reads guest-virtual memory into `buf`, charging per-page map +
    /// per-byte copy costs (libVMI's `vmi_read_va`).
    ///
    /// Transient injected faults ([`HvError::is_transient`]) are retried up
    /// to the session's [`RetryPolicy`], each retry charging its
    /// exponential backoff to the ledger; persistent transience surfaces
    /// as [`VmiError::RetriesExhausted`]. Fatal faults
    /// ([`HvError::VmLost`]) and structural errors (unmapped VAs) are
    /// never retried.
    pub fn read_va(&mut self, va: u64, buf: &mut [u8]) -> Result<(), VmiError> {
        self.read_batch(&mut [VectoredRead { va, buf }], false)
    }

    /// Reads guest memory like [`VmiSession::read_va`], then verifies the
    /// snapshot is *stable* — two consecutive reads agree — before
    /// returning it. This is how a real introspector defends against torn
    /// pages (the guest dirtying memory between the copy's page visits).
    ///
    /// On a VM without a fault plan the verification read is skipped and
    /// nothing extra is charged: the simulator's read-only borrow proves
    /// guest memory cannot change under the scan, and skipping keeps the
    /// baseline Fig. 7/8 cost ledger identical to the fault-free build.
    ///
    /// If no two consecutive snapshots agree within the retry budget the
    /// read fails with [`VmiError::TornRead`]. Each detected tear bumps
    /// [`VmiStats::torn_detected`].
    pub fn read_va_stable(&mut self, va: u64, buf: &mut [u8]) -> Result<(), VmiError> {
        self.read_stable(&mut [VectoredRead { va, buf }], false)
    }

    /// Scatter-gather read: fills every request in `requests` from one
    /// plan. Every requested page resolves through the session translate
    /// cache (one page-table walk per never-seen page), newly touched
    /// pages are foreign-mapped once per contiguous physical run, and the
    /// per-byte copy cost covers the total — the capture fast path.
    ///
    /// Requires [`VmiSession::with_fast_capture`]; without it the call
    /// degrades to one `read_va` per request, so callers can stay
    /// path-agnostic. The fault layer is consulted once per attempt, and a
    /// transient fault retries the whole batch under the [`RetryPolicy`].
    pub fn read_va_vectored(&mut self, requests: &mut [VectoredRead<'_>]) -> Result<(), VmiError> {
        self.read_batch(requests, true)
    }

    /// Scatter-gather equivalent of [`VmiSession::read_va_stable`]: reads
    /// the batch, then (only on VMs carrying a fault plan) re-reads and
    /// compares until two consecutive snapshots of every request agree.
    /// A tear names the first request that differed.
    pub fn read_va_vectored_stable(
        &mut self,
        requests: &mut [VectoredRead<'_>],
    ) -> Result<(), VmiError> {
        self.read_stable(requests, true)
    }

    /// The one guest read behind the four public ones; a scalar read is a
    /// one-request batch. `vectored` marks a scatter-gather call, which
    /// counts in [`VmiStats::vectored_reads`] on a fast session.
    ///
    /// A fast session attempts the whole batch under the session
    /// [`RetryPolicy`]; errors name the batch's lowest VA. A legacy
    /// session reads request by request, each with its own retries.
    fn read_batch(
        &mut self,
        reqs: &mut [VectoredRead<'_>],
        vectored: bool,
    ) -> Result<(), VmiError> {
        if self.fast.is_none() && reqs.len() > 1 {
            return reqs
                .chunks_mut(1)
                .try_for_each(|one| self.read_batch(one, vectored));
        }
        let Some(va) = reqs.iter().map(|r| r.va).min() else {
            return Ok(());
        };
        let mut attempt: u32 = 0;
        loop {
            self.check_deadline()?;
            match self.read_attempt(va, reqs, vectored) {
                Ok(()) => return Ok(()),
                Err(VmiError::Hv(e)) if e.is_transient() => {
                    self.stats.transient_faults += 1;
                    if attempt >= self.retry.max_retries {
                        return Err(VmiError::RetriesExhausted {
                            va,
                            attempts: attempt + 1,
                            last: e,
                        });
                    }
                    // Backoff models a sleep, not contended CPU work: flat.
                    let wait = self.retry.jittered_backoff(attempt, &mut self.jitter_rng);
                    self.charge_flat(wait);
                    self.stats.retries += 1;
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One attempt at a batch whose lowest VA is `va`: one fault-layer
    /// consultation for the whole batch, then the read. Failed attempts
    /// charge one page-map worth of time (the failed hypercall) but never
    /// touch the translate cache or the byte/page statistics, so the
    /// performance figures count only useful work.
    fn read_attempt(
        &mut self,
        va: u64,
        reqs: &mut [VectoredRead<'_>],
        vectored: bool,
    ) -> Result<(), VmiError> {
        #[cfg(test)]
        if self.reference {
            return self.reference_read_attempt(reqs, vectored);
        }
        let total: usize = reqs.iter().map(|r| r.buf.len()).sum();
        let torn_byte = match self.fault.as_mut().map(|f| f.on_read(va, total)) {
            None => None,
            Some(FaultDecision::Fail { error, extra_ns }) => {
                self.charge(self.cost.read_cost(1, 0));
                self.charge_flat(SimDuration::from_nanos(extra_ns));
                return Err(error.into());
            }
            Some(FaultDecision::Proceed {
                torn_byte,
                extra_ns,
            }) => {
                self.charge_flat(SimDuration::from_nanos(extra_ns));
                torn_byte
            }
        };
        // Fast path: translate via the session cache (walks charged per
        // miss), map first-touch pages per contiguous physical run, then
        // pay per-byte copy only — straight from the frames the plan
        // resolved.
        let planned = self.with_fast(|s, fast| {
            fast.plan.clear();
            for r in reqs.iter() {
                fast.add_range(r.va, r.buf.len() as u64);
            }
            fast.plan.sort_unstable();
            fast.plan.dedup();
            s.fast_plan(fast)?;
            s.stats.reads += reqs.len() as u64;
            s.stats.vectored_reads += u64::from(vectored);
            s.stats.bytes_copied += total as u64;
            s.charge(s.cost.read_cost(0, total as u64));
            reqs.iter_mut()
                .try_for_each(|r| s.copy_planned(fast, r.va, r.buf))
                .map_err(VmiError::from)
        });
        match planned {
            Some(read) => read?,
            // The paper's prototype: every page crossed pays its
            // translation and foreign map.
            None => {
                for r in reqs.iter_mut() {
                    let len = r.buf.len() as u64;
                    let pages = Vm::pages_crossed(r.va, len);
                    self.stats.reads += 1;
                    self.stats.pages_mapped += pages;
                    self.stats.bytes_copied += len;
                    self.stats.page_walks += pages;
                    self.charge(self.cost.read_cost(pages, len));
                    self.vm.read_virt(r.va, r.buf)?;
                }
            }
        }
        if let Some(mut off) = torn_byte {
            // A concurrent guest write landed mid-copy: one byte of the
            // concatenated batch is stale. Silent by design — only the
            // stable reads' double-read can notice.
            for r in reqs.iter_mut() {
                if off < r.buf.len() {
                    r.buf[off] ^= 0xFF;
                    break;
                }
                off -= r.buf.len();
            }
        }
        Ok(())
    }

    /// Fast-path planning over the session's plan (page-aligned VAs,
    /// sorted and deduplicated): resolves each page through the translate
    /// cache (charging one page-table walk per miss) and records its frame
    /// in the plan, then charges one foreign map per contiguous physical
    /// run of not-yet-mapped pages. The `mapped` set is only updated once
    /// every translation has succeeded, so a hostile unmapped VA cannot
    /// leave charged-for state behind.
    fn fast_plan(&mut self, fast: &mut FastPathState) -> Result<(), VmiError> {
        let vm = self.vm;
        let mut walks = 0u64;
        for i in 0..fast.plan.len() {
            let (pa, hit) = fast.resolve(vm, fast.plan[i].0)?;
            fast.plan[i].1 = pa;
            walks += u64::from(!hit);
        }
        let hits = fast.plan.len() as u64 - walks;
        // Contiguous physical runs among the newly mapped pages: virtually
        // consecutive *and* physically adjacent pages share one
        // `xc_map_foreign_range`-style call.
        let page = 1u64 << PAGE_SHIFT;
        let (mut new_pages, mut runs) = (0u64, 0u64);
        let mut prev: Option<(u64, u64)> = None;
        for &(pva, pa) in &fast.plan {
            if !fast.mapped.insert(pva) {
                continue;
            }
            new_pages += 1;
            if !prev.is_some_and(|(pva0, pa0)| pva == pva0 + page && pa == pa0 + page) {
                runs += 1;
            }
            prev = Some((pva, pa));
        }
        self.stats.page_walks += walks;
        self.stats.translate_cache_hits += hits;
        self.stats.pages_mapped += new_pages;
        self.charge(SimDuration::from_nanos(
            walks * self.cost.translate_ns + runs * self.cost.page_map_ns,
        ));
        Ok(())
    }

    /// Copies `buf.len()` bytes at `va` out of the frames the current plan
    /// resolved — the same page-by-page copy as [`Vm::read_virt`], without
    /// walking the page tables a second time. A page the plan does not
    /// cross reads as unmapped.
    fn copy_planned(&self, fast: &FastPathState, va: u64, buf: &mut [u8]) -> Result<(), HvError> {
        let page_mask = (1u64 << PAGE_SHIFT) - 1;
        let mut at = va;
        let mut done = 0usize;
        while done < buf.len() {
            let off = at & page_mask;
            let take = ((page_mask + 1 - off) as usize).min(buf.len() - done);
            let pa = fast.planned_frame(at).ok_or(HvError::UnmappedVa(at))? + off;
            self.vm.mem.read_phys(pa, &mut buf[done..done + take])?;
            done += take;
            at += take as u64;
        }
        Ok(())
    }

    /// [`VmiSession::read_batch`] plus, on a VM carrying a fault plan, the
    /// double-read: the batch is re-read into one check buffer until two
    /// consecutive snapshots agree on every request.
    fn read_stable(
        &mut self,
        reqs: &mut [VectoredRead<'_>],
        vectored: bool,
    ) -> Result<(), VmiError> {
        self.read_batch(reqs, vectored)?;
        if self.fault.is_none() || reqs.is_empty() {
            return Ok(());
        }
        let mut check = vec![0u8; reqs.iter().map(|r| r.buf.len()).sum()];
        // The verification batch reads the same VAs back to back into
        // `check`; a one-request batch (every scalar read) keeps it on the
        // stack.
        let mut rest = check.as_mut_slice();
        let mut split = |r: &VectoredRead<'_>| {
            let (buf, tail) = std::mem::take(&mut rest).split_at_mut(r.buf.len());
            rest = tail;
            VectoredRead { va: r.va, buf }
        };
        let (mut one, mut many);
        let verify: &mut [VectoredRead<'_>] = if let [r] = &*reqs {
            one = [split(r)];
            &mut one
        } else {
            many = reqs.iter().map(split).collect::<Vec<_>>();
            &mut many
        };
        let mut torn_va = reqs[0].va;
        for _ in 0..=self.retry.max_retries {
            let before = self.stats;
            self.read_batch(verify, vectored)?;
            // The verification pass re-reads bytes already copied: reclassify
            // it under `stability_rereads` so `reads`/`pages_mapped`/
            // `bytes_copied` keep measuring useful work only. Simulated time
            // stays charged (the double-read really costs it), and
            // retries/transient_faults keep accruing (those are genuine).
            self.stats = VmiStats {
                stability_rereads: self.stats.stability_rereads + self.stats.reads - before.reads,
                retries: self.stats.retries,
                transient_faults: self.stats.transient_faults,
                ..before
            };
            let Some(i) = reqs
                .iter()
                .zip(verify.iter())
                .position(|(r, c)| r.buf != c.buf)
            else {
                return Ok(());
            };
            self.stats.torn_detected += 1;
            torn_va = reqs[i].va;
            for (r, c) in reqs.iter_mut().zip(verify.iter()) {
                r.buf.copy_from_slice(c.buf);
            }
        }
        Err(VmiError::TornRead { va: torn_va })
    }

    /// Reads a guest pointer (4/8 bytes by width).
    pub fn read_ptr(&mut self, va: u64) -> Result<u64, VmiError> {
        let mut b = [0u8; 8];
        let len = match self.width() {
            AddressWidth::W32 => 4,
            AddressWidth::W64 => 8,
        };
        self.read_va(va, &mut b[..len])?;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a `u16`.
    pub fn read_u16(&mut self, va: u64) -> Result<u16, VmiError> {
        let mut b = [0u8; 2];
        self.read_va(va, &mut b)?;
        Ok(u16::from_le_bytes(b))
    }

    /// Reads a `u32`.
    pub fn read_u32(&mut self, va: u64) -> Result<u32, VmiError> {
        let mut b = [0u8; 4];
        self.read_va(va, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Sweeps `[lo, hi)` for memory-resident PE images: every page-aligned
    /// candidate whose first bytes form a coherent `MZ` → `e_lfanew` →
    /// `PE\0\0` chain is reported with its advertised `SizeOfImage`.
    ///
    /// This is the *physical* half of a cross-view scan: the loaded-module
    /// list says what the guest claims is mapped, the header sweep says
    /// what actually is. A module unlinked from the list (DKOM) or a list
    /// entry whose `DllBase` was redirected at a decoy (checker blinding)
    /// leaves an image here that no list entry accounts for.
    ///
    /// Unmapped or unreadable candidates are skipped, not errors — pool
    /// and module regions are sparse by construction. Bounds are clamped
    /// to page alignment; a `SizeOfImage` outside `[1 page, 512 MiB)` is
    /// rejected as header garbage.
    pub fn sweep_image_headers(&mut self, lo: u64, hi: u64) -> Vec<ImageHit> {
        const DOS_MAGIC: [u8; 2] = *b"MZ";
        const PE_MAGIC: [u8; 4] = *b"PE\0\0";
        const E_LFANEW: u64 = 0x3C;
        // SizeOfImage lives at OptionalHeader+0x38; the OptionalHeader
        // starts 0x18 past the PE signature for PE32 and PE32+ alike.
        const SIZE_OF_IMAGE: u64 = 0x18 + 0x38;
        let page = 1u64 << PAGE_SHIFT;
        let mut out = Vec::new();
        let mut candidate = lo & !(page - 1);
        let end = hi & !(page - 1);
        while candidate < end {
            let base = candidate;
            candidate += page;
            let mut magic = [0u8; 2];
            if self.read_va(base, &mut magic).is_err() || magic != DOS_MAGIC {
                continue;
            }
            let Ok(e_lfanew) = self.read_u32(base + E_LFANEW) else {
                continue;
            };
            // The PE header of a loadable image sits inside the first page.
            if u64::from(e_lfanew) < 0x40 || u64::from(e_lfanew) >= page {
                continue;
            }
            let mut sig = [0u8; 4];
            if self.read_va(base + u64::from(e_lfanew), &mut sig).is_err() || sig != PE_MAGIC {
                continue;
            }
            let Ok(size) = self.read_u32(base + u64::from(e_lfanew) + SIZE_OF_IMAGE) else {
                continue;
            };
            let size = u64::from(size);
            if size < page || size >= 512 * 1024 * 1024 {
                continue;
            }
            out.push(ImageHit {
                base,
                size_of_image: size,
            });
        }
        out
    }

    /// The write-generation of the page backing `va`: the frame it resolves
    /// to plus the stamp of the last guest write that touched that frame.
    ///
    /// This is a hypervisor *metadata* query — no guest bytes are mapped or
    /// copied — so it charges only the page-table translation
    /// ([`mc_hypervisor::CostModel::translate_ns`]), an order of magnitude
    /// cheaper than a mapped read. That gap is what makes incremental
    /// rescanning pay: a monitor can prove a page unchanged for ~2 µs
    /// instead of re-capturing it for ~30 µs + copy. The fault layer does
    /// not apply (nothing guest-controlled is dereferenced); the session
    /// deadline does.
    pub fn page_generation(&mut self, va: u64) -> Result<mc_hypervisor::PageGeneration, VmiError> {
        self.check_deadline()?;
        let pa = self.translate_page(va)?;
        Ok(self.vm.mem.page_generation(pa)?)
    }

    /// Write-generations for every page a `len`-byte range at `va` crosses,
    /// in address order. Cost: one translation per page.
    pub fn range_generations(
        &mut self,
        va: u64,
        len: u64,
    ) -> Result<Vec<mc_hypervisor::PageGeneration>, VmiError> {
        let pages = Vm::pages_crossed(va, len);
        let first_page_va = va & !((1u64 << PAGE_SHIFT) - 1);
        let mut out = Vec::with_capacity(pages.min(PREALLOC_PAGES) as usize);
        for i in 0..pages {
            out.push(self.page_generation(first_page_va + (i << PAGE_SHIFT))?);
        }
        Ok(out)
    }

    /// Plans write-protection watches over a `len`-byte range at `va`
    /// (typically a captured module's page span): translates every page —
    /// riding the fast-capture translate cache when armed, so a watch over
    /// a just-captured module costs no extra page walks — and returns a
    /// [`mc_hypervisor::WatchPlan`] naming the backing frames.
    ///
    /// The session borrows the VM immutably, so it can only *plan*; the
    /// caller arms the plan with
    /// [`mc_hypervisor::Hypervisor::apply_watch_plan`] (which takes `&mut`,
    /// like every other guest-state mutation). Cost: one
    /// [`mc_hypervisor::CostModel::translate_ns`] per translate-cache miss.
    /// The fault layer does not apply — like
    /// [`VmiSession::page_generation`], nothing guest-controlled is
    /// dereferenced; the session deadline does.
    pub fn arm_watches(&mut self, va: u64, len: u64) -> Result<mc_hypervisor::WatchPlan, VmiError> {
        let pages = Vm::pages_crossed(va, len);
        let first_page_va = va & !((1u64 << PAGE_SHIFT) - 1);
        let mut frames = Vec::with_capacity(pages.min(PREALLOC_PAGES) as usize);
        for i in 0..pages {
            self.check_deadline()?;
            frames.push(self.translate_page(first_page_va + (i << PAGE_SHIFT))? >> PAGE_SHIFT);
        }
        Ok(mc_hypervisor::WatchPlan {
            vm: self.vm.id,
            va,
            len,
            frames,
        })
    }

    /// The address of the frame backing the page of `va`, for metadata
    /// queries that map no guest bytes. A fast session answers repeat
    /// pages from its translate cache (free), and a miss warms the cache
    /// for the capture that usually follows. Every other translation walks
    /// the page tables and charges
    /// [`mc_hypervisor::CostModel::translate_ns`] — on a legacy session
    /// even when the walk finds nothing mapped.
    fn translate_page(&mut self, va: u64) -> Result<u64, VmiError> {
        let page_mask = (1u64 << PAGE_SHIFT) - 1;
        let (pa, hit) = match &mut self.fast {
            Some(fast) => {
                let (pa, hit) = fast.resolve(self.vm, va & !page_mask)?;
                (Ok(pa), hit)
            }
            None => (self.vm.translate(va), false),
        };
        if hit {
            self.stats.translate_cache_hits += 1;
        } else {
            self.stats.page_walks += 1;
            self.charge(SimDuration::from_nanos(self.cost.translate_ns));
        }
        Ok(pa? & !page_mask)
    }

    /// Runs `f` with the fast-path state lent out of the session, or
    /// returns `None` when the fast path is off. The state is back in the
    /// session when `f` returns.
    fn with_fast<R>(&mut self, f: impl FnOnce(&mut Self, &mut FastPathState) -> R) -> Option<R> {
        let mut fast = self.fast.take()?;
        let out = f(self, &mut fast);
        self.fast = Some(fast);
        Some(out)
    }

    /// Charges non-introspection processing time (parser/hasher/differ) to
    /// this session's ledger, scaled by host contention.
    pub fn charge_process(&mut self, per_byte_ns: f64, bytes: u64) {
        self.charge(self.cost.process_cost(per_byte_ns, bytes));
    }

    /// The session's cost model (so callers use consistent constants).
    pub fn cost_model(&self) -> &mc_hypervisor::CostModel {
        &self.cost
    }

    /// Simulated time consumed so far.
    pub fn elapsed(&self) -> SimDuration {
        self.elapsed
    }

    /// Returns and resets the ledger (used to split time per component).
    pub fn take_elapsed(&mut self) -> SimDuration {
        std::mem::take(&mut self.elapsed)
    }

    /// Access statistics.
    pub fn stats(&self) -> VmiStats {
        self.stats
    }

    /// Anomalies the fault layer injected into this session (zero when the
    /// VM carries no fault plan). See [`FaultState::injections`].
    pub fn fault_injections(&self) -> u64 {
        self.fault.as_ref().map_or(0, FaultState::injections)
    }

    /// Total simulated time charged over the session's whole lifetime
    /// (never reset by [`VmiSession::take_elapsed`]).
    pub fn consumed(&self) -> SimDuration {
        self.consumed
    }

    fn check_deadline(&self) -> Result<(), VmiError> {
        match self.deadline {
            Some(deadline) if self.consumed > deadline => Err(VmiError::DeadlineExceeded {
                elapsed: self.consumed,
                deadline,
            }),
            _ => Ok(()),
        }
    }

    fn charge(&mut self, base: SimDuration) {
        let scaled = base.scaled(self.slowdown);
        self.elapsed += scaled;
        self.consumed += scaled;
    }

    /// Charges simulated time unscaled by host contention (sleeps and
    /// scheduler-induced delays happen in wall time regardless of load).
    fn charge_flat(&mut self, d: SimDuration) {
        self.elapsed += d;
        self.consumed += d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_hypervisor::PAGE_SIZE;

    fn host_with_vm() -> (Hypervisor, VmId) {
        let mut hv = Hypervisor::new();
        let id = hv.create_vm("dom1", AddressWidth::W32).unwrap();
        let vm = hv.vm_mut(id).unwrap();
        vm.map_range(0x8000_0000, 4 * PAGE_SIZE as u64).unwrap();
        vm.write_virt(0x8000_0000, b"introspect me").unwrap();
        vm.write_ptr(0x8000_0100, 0xF7AB_0000).unwrap();
        vm.symbols.insert("PsLoadedModuleList".into(), 0x8000_0100);
        (hv, id)
    }

    #[test]
    fn read_va_returns_guest_bytes() {
        let (hv, id) = host_with_vm();
        let mut s = VmiSession::attach(&hv, id).unwrap();
        let mut buf = [0u8; 13];
        s.read_va(0x8000_0000, &mut buf).unwrap();
        assert_eq!(&buf, b"introspect me");
        assert_eq!(s.stats().reads, 1);
        assert_eq!(s.stats().bytes_copied, 13);
        assert_eq!(s.stats().pages_mapped, 1);
    }

    #[test]
    fn symbol_resolution_and_ptr_read() {
        let (hv, id) = host_with_vm();
        let mut s = VmiSession::attach(&hv, id).unwrap();
        let head = s.symbol("PsLoadedModuleList").unwrap();
        assert_eq!(s.read_ptr(head).unwrap(), 0xF7AB_0000);
        assert!(matches!(
            s.symbol("NoSuchSymbol"),
            Err(VmiError::UnknownSymbol(_))
        ));
    }

    #[test]
    fn costs_accrue_per_page() {
        let (hv, id) = host_with_vm();
        let mut s = VmiSession::attach(&hv, id).unwrap();
        let after_attach = s.elapsed();
        assert!(after_attach > SimDuration::ZERO, "attach itself is charged");

        let mut small = [0u8; 16];
        s.read_va(0x8000_0000, &mut small).unwrap();
        let one_page_read = s.elapsed() - after_attach;

        let mut big = vec![0u8; 3 * PAGE_SIZE];
        let before = s.elapsed();
        s.read_va(0x8000_0000, &mut big).unwrap();
        let three_page_read = s.elapsed() - before;
        assert!(three_page_read.as_nanos() > 2 * one_page_read.as_nanos());
        assert_eq!(s.stats().pages_mapped, 1 + 3);
    }

    #[test]
    fn contention_scales_charges() {
        let (mut hv, id) = host_with_vm();
        let idle_cost = {
            let mut s = VmiSession::attach(&hv, id).unwrap();
            let mut buf = vec![0u8; 2 * PAGE_SIZE];
            s.read_va(0x8000_0000, &mut buf).unwrap();
            s.elapsed()
        };
        // Load the host far past its cores.
        for i in 0..20 {
            let v = hv.create_vm(&format!("ld{i}"), AddressWidth::W32).unwrap();
            hv.vm_mut(v).unwrap().cpu_demand = 1.0;
        }
        let loaded_cost = {
            let mut s = VmiSession::attach(&hv, id).unwrap();
            let mut buf = vec![0u8; 2 * PAGE_SIZE];
            s.read_va(0x8000_0000, &mut buf).unwrap();
            s.elapsed()
        };
        assert!(
            loaded_cost.as_nanos() > 2 * idle_cost.as_nanos(),
            "loaded {loaded_cost} vs idle {idle_cost}"
        );
    }

    #[test]
    fn take_elapsed_splits_ledger() {
        let (hv, id) = host_with_vm();
        let mut s = VmiSession::attach(&hv, id).unwrap();
        let phase1 = s.take_elapsed();
        assert!(phase1 > SimDuration::ZERO);
        assert_eq!(s.elapsed(), SimDuration::ZERO);
        s.charge_process(2.0, 1000);
        // 2000 ns scaled by the near-idle slowdown (~1.04).
        let ns = s.elapsed().as_nanos();
        assert!((2000..=2400).contains(&ns), "unexpected charge {ns}");
    }

    #[test]
    fn read_of_unmapped_guest_memory_is_typed_error() {
        let (hv, id) = host_with_vm();
        let mut s = VmiSession::attach(&hv, id).unwrap();
        let mut buf = [0u8; 4];
        assert!(matches!(
            s.read_va(0xDEAD_0000, &mut buf),
            Err(VmiError::Hv(HvError::UnmappedVa(_)))
        ));
    }

    #[test]
    fn attach_by_name() {
        let (hv, _id) = host_with_vm();
        assert!(VmiSession::attach_by_name(&hv, "dom1").is_ok());
        assert!(matches!(
            VmiSession::attach_by_name(&hv, "nope"),
            Err(VmiError::VmNotFound(_))
        ));
    }

    use mc_hypervisor::FaultPlan;

    fn faulty_host(plan: FaultPlan) -> (Hypervisor, VmId) {
        let (mut hv, id) = host_with_vm();
        hv.set_fault_plan(id, Some(plan)).unwrap();
        (hv, id)
    }

    #[test]
    fn transient_faults_are_retried_transparently() {
        let (hv, id) = faulty_host(FaultPlan::transient(21, 0.3));
        let mut s = VmiSession::attach(&hv, id).unwrap();
        let mut buf = [0u8; 13];
        for _ in 0..50 {
            s.read_va(0x8000_0000, &mut buf).unwrap();
            assert_eq!(&buf, b"introspect me");
        }
        let st = s.stats();
        assert!(st.transient_faults > 0, "plan injected nothing");
        assert_eq!(st.retries, st.transient_faults, "every fault was retried");
        assert_eq!(st.reads, 50, "failed attempts don't count as reads");
    }

    #[test]
    fn retry_backoff_is_charged_to_the_ledger() {
        let (hv, id) = faulty_host(FaultPlan::transient(21, 0.3));
        let mut faulty = VmiSession::attach(&hv, id).unwrap();
        let mut clean = VmiSession::attach(&hv, id).unwrap();
        clean.fault = None; // same host/slowdown, no faults
        let mut buf = [0u8; 64];
        for _ in 0..50 {
            faulty.read_va(0x8000_0000, &mut buf).unwrap();
            clean.read_va(0x8000_0000, &mut buf).unwrap();
        }
        assert!(
            faulty.elapsed() > clean.elapsed(),
            "retries cost time: faulty {} vs clean {}",
            faulty.elapsed(),
            clean.elapsed()
        );
    }

    #[test]
    fn persistent_transience_exhausts_retries() {
        let (hv, id) = faulty_host(FaultPlan::transient(3, 1.0));
        let mut s = VmiSession::attach(&hv, id).unwrap();
        let mut buf = [0u8; 8];
        match s.read_va(0x8000_0000, &mut buf) {
            Err(VmiError::RetriesExhausted { attempts, last, .. }) => {
                assert_eq!(attempts, RetryPolicy::default().max_retries + 1);
                assert!(last.is_transient());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(s.stats().retries == u64::from(RetryPolicy::default().max_retries));
    }

    #[test]
    fn fail_fast_policy_does_not_retry() {
        let (hv, id) = faulty_host(FaultPlan::transient(3, 1.0));
        let mut s = VmiSession::attach(&hv, id)
            .unwrap()
            .with_retry(RetryPolicy::NONE);
        let mut buf = [0u8; 8];
        assert!(matches!(
            s.read_va(0x8000_0000, &mut buf),
            Err(VmiError::RetriesExhausted { attempts: 1, .. })
        ));
        assert_eq!(s.stats().retries, 0);
    }

    #[test]
    fn vm_loss_is_fatal_not_retried() {
        let (hv, id) = faulty_host(FaultPlan::none(1).lose_after(2));
        let mut s = VmiSession::attach(&hv, id).unwrap();
        let mut buf = [0u8; 8];
        s.read_va(0x8000_0000, &mut buf).unwrap();
        s.read_va(0x8000_0000, &mut buf).unwrap();
        let err = s.read_va(0x8000_0000, &mut buf).unwrap_err();
        assert!(matches!(err, VmiError::Hv(HvError::VmLost(_))));
        assert!(err.is_fatal_to_vm());
        assert_eq!(s.stats().retries, 0, "loss must not burn the retry budget");
    }

    #[test]
    fn vm_lost_before_first_read_fails_attach() {
        let (hv, id) = faulty_host(FaultPlan::none(1).lose_after(0));
        assert!(matches!(
            VmiSession::attach(&hv, id),
            Err(VmiError::Hv(HvError::VmLost(_)))
        ));
    }

    #[test]
    fn paused_vm_rides_out_within_retry_budget() {
        // Pause window (3 attempts) < default retry budget (4), so the
        // read after the pause trigger succeeds transparently.
        let (hv, id) = faulty_host(FaultPlan::none(1).pause_after(1, 3));
        let mut s = VmiSession::attach(&hv, id).unwrap();
        let mut buf = [0u8; 13];
        s.read_va(0x8000_0000, &mut buf).unwrap();
        s.read_va(0x8000_0000, &mut buf).unwrap();
        assert_eq!(&buf, b"introspect me");
        assert_eq!(s.stats().retries, 3);
    }

    #[test]
    fn deadline_bounds_the_session() {
        let (hv, id) = host_with_vm();
        let mut s = VmiSession::attach(&hv, id)
            .unwrap()
            .with_deadline(s_attach_cost(&hv));
        let mut buf = [0u8; 8];
        s.read_va(0x8000_0000, &mut buf).unwrap(); // pushes past the budget
        assert!(matches!(
            s.read_va(0x8000_0000, &mut buf),
            Err(VmiError::DeadlineExceeded { .. })
        ));
    }

    /// Roughly the attach cost on an otherwise idle host.
    fn s_attach_cost(hv: &Hypervisor) -> SimDuration {
        SimDuration::from_nanos(hv.cost.vmi_attach_ns).scaled(hv.dom0_slowdown() + 0.01)
    }

    #[test]
    fn deadline_survives_ledger_splits() {
        let (hv, id) = host_with_vm();
        let mut s = VmiSession::attach(&hv, id)
            .unwrap()
            .with_deadline(s_attach_cost(&hv));
        let mut buf = [0u8; 8];
        s.read_va(0x8000_0000, &mut buf).unwrap();
        s.take_elapsed(); // resets `elapsed`, must not reset the budget
        assert!(matches!(
            s.read_va(0x8000_0000, &mut buf),
            Err(VmiError::DeadlineExceeded { .. })
        ));
        assert!(s.consumed() > SimDuration::ZERO);
    }

    #[test]
    fn stable_read_recovers_the_true_bytes_under_torn_pages() {
        let (mut hv, id) = host_with_vm();
        let truth: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        hv.vm_mut(id)
            .unwrap()
            .write_virt(0x8000_1000, &truth)
            .unwrap();
        hv.set_fault_plan(id, Some(FaultPlan::none(5).with_torn_rate(0.4)))
            .unwrap();
        let mut s = VmiSession::attach(&hv, id)
            .unwrap()
            .with_retry(RetryPolicy::with_max_retries(16));
        let mut tears = 0;
        for _ in 0..30 {
            let mut buf = vec![0u8; 4096];
            s.read_va_stable(0x8000_1000, &mut buf).unwrap();
            assert_eq!(buf, truth, "stable read returned torn bytes");
            tears = s.stats().torn_detected;
        }
        assert!(
            tears > 0,
            "seed 5 @ 40% should tear at least once in 30 reads"
        );
    }

    #[test]
    fn hopelessly_torn_page_is_a_typed_error() {
        let (hv, id) = faulty_host(FaultPlan::none(7).with_torn_rate(1.0));
        let mut s = VmiSession::attach(&hv, id).unwrap();
        let mut buf = vec![0u8; 4096];
        // Every read corrupts a random byte; two snapshots agreeing would
        // need the same offset twice in a row — seed 7 never does.
        assert!(matches!(
            s.read_va_stable(0x8000_0000, &mut buf),
            Err(VmiError::TornRead { .. })
        ));
        assert!(s.stats().torn_detected > 0);
    }

    #[test]
    fn small_reads_are_never_torn() {
        let (hv, id) = faulty_host(FaultPlan::none(7).with_torn_rate(1.0));
        let mut s = VmiSession::attach(&hv, id).unwrap();
        let mut buf = [0u8; 13];
        s.read_va_stable(0x8000_0000, &mut buf).unwrap();
        assert_eq!(&buf, b"introspect me");
    }

    #[test]
    fn stable_read_is_free_without_a_fault_plan() {
        let (hv, id) = host_with_vm();
        let mut plain = VmiSession::attach(&hv, id).unwrap();
        let mut stable = VmiSession::attach(&hv, id).unwrap();
        let mut a = vec![0u8; 4096];
        let mut b = vec![0u8; 4096];
        plain.read_va(0x8000_0000, &mut a).unwrap();
        stable.read_va_stable(0x8000_0000, &mut b).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            plain.elapsed(),
            stable.elapsed(),
            "verification read must not distort the baseline figures"
        );
        assert_eq!(plain.stats(), stable.stats());
    }

    #[test]
    fn stability_rereads_do_not_inflate_the_useful_work_counters() {
        // Clean stable read under a (no-op) fault plan: the verification
        // pass runs once and must land in `stability_rereads`, leaving the
        // useful-work counters identical to a plain read.
        let (mut hv, id) = host_with_vm();
        hv.set_fault_plan(id, Some(FaultPlan::none(1))).unwrap();
        let mut s = VmiSession::attach(&hv, id).unwrap();
        let mut buf = vec![0u8; 4096];
        s.read_va_stable(0x8000_0000, &mut buf).unwrap();
        assert_eq!(
            s.stats(),
            VmiStats {
                reads: 1,
                pages_mapped: 1,
                bytes_copied: 4096,
                page_walks: 1,
                translate_cache_hits: 0,
                vectored_reads: 0,
                retries: 0,
                transient_faults: 0,
                torn_detected: 0,
                stability_rereads: 1,
            }
        );

        // Torn-then-retried reads: every successful stable read costs one
        // verification pass plus one more per detected tear, and none of
        // them may leak into reads/pages_mapped/bytes_copied.
        let (mut hv, id) = host_with_vm();
        let truth: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        hv.vm_mut(id)
            .unwrap()
            .write_virt(0x8000_1000, &truth)
            .unwrap();
        hv.set_fault_plan(id, Some(FaultPlan::none(5).with_torn_rate(0.4)))
            .unwrap();
        let mut s = VmiSession::attach(&hv, id)
            .unwrap()
            .with_retry(RetryPolicy::with_max_retries(16));
        for _ in 0..30 {
            let mut buf = vec![0u8; 4096];
            s.read_va_stable(0x8000_1000, &mut buf).unwrap();
        }
        let st = s.stats();
        assert!(st.torn_detected > 0, "seed 5 @ 40% must tear in 30 reads");
        assert_eq!(st.reads, 30);
        assert_eq!(st.pages_mapped, 30);
        assert_eq!(st.bytes_copied, 30 * 4096);
        assert_eq!(st.stability_rereads, 30 + st.torn_detected);
        // One torn buffer can mismatch two consecutive comparisons, so
        // torn_detected may exceed injections; both must be non-zero here.
        assert!(s.fault_injections() > 0);
    }

    #[test]
    fn page_generation_moves_only_when_the_guest_writes() {
        let (mut hv, id) = host_with_vm();
        let g0 = {
            let mut s = VmiSession::attach(&hv, id).unwrap();
            s.range_generations(0x8000_0000, 2 * PAGE_SIZE as u64)
                .unwrap()
        };
        assert_eq!(g0.len(), 2);
        // Re-read without any guest write: identical stamps.
        let g1 = {
            let mut s = VmiSession::attach(&hv, id).unwrap();
            s.range_generations(0x8000_0000, 2 * PAGE_SIZE as u64)
                .unwrap()
        };
        assert_eq!(g0, g1);
        // Dirty the second page only.
        hv.vm_mut(id)
            .unwrap()
            .write_virt(0x8000_0000 + PAGE_SIZE as u64, b"dirty")
            .unwrap();
        let g2 = {
            let mut s = VmiSession::attach(&hv, id).unwrap();
            s.range_generations(0x8000_0000, 2 * PAGE_SIZE as u64)
                .unwrap()
        };
        assert_eq!(g2[0], g0[0], "untouched page keeps its generation");
        assert_ne!(g2[1], g0[1], "dirtied page moved");
    }

    #[test]
    fn generation_reads_are_much_cheaper_than_mapped_reads() {
        let (hv, id) = host_with_vm();
        let mut s = VmiSession::attach(&hv, id).unwrap();
        s.take_elapsed();
        s.range_generations(0x8000_0000, 4 * PAGE_SIZE as u64)
            .unwrap();
        let gen_cost = s.take_elapsed();
        let mut buf = vec![0u8; 4 * PAGE_SIZE];
        s.read_va(0x8000_0000, &mut buf).unwrap();
        let read_cost = s.take_elapsed();
        assert!(
            gen_cost.as_nanos() * 10 < read_cost.as_nanos(),
            "generation probe {gen_cost} should be ≫ cheaper than read {read_cost}"
        );
    }

    #[test]
    fn generation_reads_respect_the_deadline() {
        let (hv, id) = host_with_vm();
        let mut s = VmiSession::attach(&hv, id)
            .unwrap()
            .with_deadline(s_attach_cost(&hv));
        let mut buf = [0u8; 8];
        s.read_va(0x8000_0000, &mut buf).unwrap(); // burn the budget
        assert!(matches!(
            s.page_generation(0x8000_0000),
            Err(VmiError::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn backoff_schedule_is_exponential() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(0), SimDuration::from_micros(50));
        assert_eq!(p.backoff(1), SimDuration::from_micros(100));
        assert_eq!(p.backoff(3), SimDuration::from_micros(400));
        assert_eq!(RetryPolicy::NONE.backoff(0), SimDuration::ZERO);
    }

    #[test]
    fn jittered_backoff_is_bounded_seeded_and_off_by_default() {
        use rand::{rngs::StdRng, SeedableRng};
        let p = RetryPolicy::default().with_jitter(0.4);
        // Same seed, same schedule — twice over.
        let schedule = |seed: u64| -> Vec<SimDuration> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..4).map(|k| p.jittered_backoff(k, &mut rng)).collect()
        };
        assert_eq!(schedule(7), schedule(7), "deterministic per stream");
        assert_ne!(schedule(7), schedule(8), "distinct across streams");
        // Every wait stays inside the ±jitter/2 band around the pure
        // exponential value.
        let mut rng = StdRng::seed_from_u64(9);
        for k in 0..6 {
            let pure = p.backoff(k).as_nanos() as f64;
            let jittered = p.jittered_backoff(k, &mut rng).as_nanos() as f64;
            assert!(
                (jittered - pure).abs() <= pure * 0.2 + 1.0,
                "attempt {k}: {jittered} vs {pure}"
            );
        }
        // jitter == 0 takes no draw: the stream is untouched and the
        // schedule is exactly the unjittered one.
        let plain = RetryPolicy::default();
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        for k in 0..4 {
            assert_eq!(plain.jittered_backoff(k, &mut a), plain.backoff(k));
        }
        use rand::RngCore;
        assert_eq!(a.next_u64(), b.next_u64(), "no hidden draws at jitter 0");
    }

    #[test]
    fn fast_scalar_reads_walk_each_page_once() {
        let (hv, id) = host_with_vm();
        // Legacy: every header-field-sized read pays a full walk + map.
        let mut legacy = VmiSession::attach(&hv, id).unwrap();
        let mut b = [0u8; 4];
        for i in 0..8 {
            legacy.read_va(0x8000_0000 + i * 4, &mut b).unwrap();
        }
        assert_eq!(legacy.stats().page_walks, 8);
        assert_eq!(legacy.stats().translate_cache_hits, 0);

        // Fast: one walk for the page, every later field is a cache hit.
        let mut fast = VmiSession::attach(&hv, id).unwrap().with_fast_capture();
        for i in 0..8 {
            fast.read_va(0x8000_0000 + i * 4, &mut b).unwrap();
        }
        let st = fast.stats();
        assert_eq!(st.page_walks, 1, "one walk for one distinct page");
        assert_eq!(st.translate_cache_hits, 7);
        assert_eq!(st.pages_mapped, 1, "mapped once, first touch");
        assert!(
            fast.elapsed() < legacy.elapsed(),
            "fast {} vs legacy {}",
            fast.elapsed(),
            legacy.elapsed()
        );
    }

    #[test]
    fn vectored_read_batches_walks_and_maps() {
        let (mut hv, id) = host_with_vm();
        let truth: Vec<u8> = (0..3 * PAGE_SIZE).map(|i| (i % 249) as u8).collect();
        hv.vm_mut(id)
            .unwrap()
            .write_virt(0x8000_0000, &truth)
            .unwrap();

        // Legacy loop: 3 reads, 3 walks, 3 maps.
        let mut legacy = VmiSession::attach(&hv, id).unwrap();
        let mut bufs = vec![vec![0u8; PAGE_SIZE]; 3];
        for (i, b) in bufs.iter_mut().enumerate() {
            legacy
                .read_va(0x8000_0000 + (i * PAGE_SIZE) as u64, b)
                .unwrap();
        }

        // Vectored: one plan — 3 walks, but one contiguous physical run.
        let mut fast = VmiSession::attach(&hv, id).unwrap().with_fast_capture();
        let mut vbufs = vec![vec![0u8; PAGE_SIZE]; 3];
        let mut reqs: Vec<VectoredRead<'_>> = vbufs
            .iter_mut()
            .enumerate()
            .map(|(i, b)| VectoredRead {
                va: 0x8000_0000 + (i * PAGE_SIZE) as u64,
                buf: b.as_mut_slice(),
            })
            .collect();
        fast.read_va_vectored(&mut reqs).unwrap();
        drop(reqs);
        assert_eq!(vbufs.concat(), truth);
        assert_eq!(bufs.concat(), truth);
        let st = fast.stats();
        assert_eq!(st.vectored_reads, 1);
        assert_eq!(st.reads, 3, "each request is a logical read");
        assert_eq!(st.page_walks, 3);
        assert_eq!(st.pages_mapped, 3);
        assert_eq!(st.bytes_copied, 3 * PAGE_SIZE as u64);
        assert!(
            fast.elapsed() < legacy.elapsed(),
            "run-batched maps must beat per-page maps: fast {} vs legacy {}",
            fast.elapsed(),
            legacy.elapsed()
        );
    }

    #[test]
    fn vectored_read_without_fast_capture_degrades_to_scalar() {
        let (hv, id) = host_with_vm();
        let mut s = VmiSession::attach(&hv, id).unwrap();
        let mut a = [0u8; 6];
        let mut b = [0u8; 7];
        let mut reqs = [
            VectoredRead {
                va: 0x8000_0000,
                buf: &mut a,
            },
            VectoredRead {
                va: 0x8000_0006,
                buf: &mut b,
            },
        ];
        s.read_va_vectored(&mut reqs).unwrap();
        assert_eq!(&a, b"intros");
        assert_eq!(&b, b"pect me");
        assert_eq!(s.stats().vectored_reads, 0, "legacy path takes no credit");
        assert_eq!(s.stats().reads, 2);
    }

    #[test]
    fn vectored_read_of_unmapped_page_is_typed_error() {
        let (hv, id) = host_with_vm();
        let mut s = VmiSession::attach(&hv, id).unwrap().with_fast_capture();
        let mut good = [0u8; 8];
        let mut bad = [0u8; 8];
        let mut reqs = [
            VectoredRead {
                va: 0x8000_0000,
                buf: &mut good,
            },
            VectoredRead {
                va: 0xDEAD_0000,
                buf: &mut bad,
            },
        ];
        assert!(matches!(
            s.read_va_vectored(&mut reqs),
            Err(VmiError::Hv(HvError::UnmappedVa(_)))
        ));
        assert_eq!(s.stats().pages_mapped, 0, "failed plan maps nothing");
    }

    #[test]
    fn vectored_stable_recovers_truth_under_torn_pages() {
        let (mut hv, id) = host_with_vm();
        let truth: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        hv.vm_mut(id)
            .unwrap()
            .write_virt(0x8000_1000, &truth)
            .unwrap();
        hv.set_fault_plan(id, Some(FaultPlan::none(5).with_torn_rate(0.4)))
            .unwrap();
        let mut s = VmiSession::attach(&hv, id)
            .unwrap()
            .with_fast_capture()
            .with_retry(RetryPolicy::with_max_retries(16));
        let mut tears = 0;
        for _ in 0..30 {
            let (mut lo, mut hi) = ([0u8; 2048], [0u8; 2048]);
            let mut reqs = [
                VectoredRead {
                    va: 0x8000_1000,
                    buf: &mut lo,
                },
                VectoredRead {
                    va: 0x8000_1800,
                    buf: &mut hi,
                },
            ];
            s.read_va_vectored_stable(&mut reqs).unwrap();
            assert_eq!(&lo[..], &truth[..2048], "stable batch returned torn bytes");
            assert_eq!(&hi[..], &truth[2048..], "stable batch returned torn bytes");
            tears = s.stats().torn_detected;
        }
        assert!(tears > 0, "seed 5 @ 40% should tear in 30 batches");
        let st = s.stats();
        assert_eq!(st.reads, 60, "verification passes reclassified");
        assert_eq!(st.vectored_reads, 30);
        assert_eq!(st.bytes_copied, 30 * 4096);
        assert!(st.stability_rereads >= 60);
    }

    #[test]
    fn generation_probe_warms_the_translate_cache() {
        let (hv, id) = host_with_vm();
        let mut s = VmiSession::attach(&hv, id).unwrap().with_fast_capture();
        s.page_generation(0x8000_0000).unwrap();
        assert_eq!(s.stats().page_walks, 1);
        // The capture that follows the probe re-uses its walk.
        let mut buf = [0u8; 64];
        s.read_va(0x8000_0000, &mut buf).unwrap();
        let st = s.stats();
        assert_eq!(st.page_walks, 1, "probe already walked this page");
        assert_eq!(st.translate_cache_hits, 1);
        // Repeat probes are free.
        let before = s.elapsed();
        s.page_generation(0x8000_0000).unwrap();
        assert_eq!(s.elapsed(), before, "cached probe charges nothing");
        assert_eq!(s.stats().translate_cache_hits, 2);
    }

    #[test]
    fn arm_watches_plans_frames_and_rides_the_translate_cache() {
        let (mut hv, id) = host_with_vm();
        let plan = {
            let mut s = VmiSession::attach(&hv, id).unwrap().with_fast_capture();
            // A capture warms the cache; the watch plan that follows it
            // costs zero extra page walks.
            let mut buf = vec![0u8; 2 * PAGE_SIZE];
            s.read_va(0x8000_0000, &mut buf).unwrap();
            let walks = s.stats().page_walks;
            let plan = s.arm_watches(0x8000_0000, 2 * PAGE_SIZE as u64).unwrap();
            assert_eq!(s.stats().page_walks, walks, "rode the cache");
            assert_eq!(s.stats().translate_cache_hits, 2);
            assert_eq!(plan.frames.len(), 2);
            plan
        };
        assert_eq!(hv.apply_watch_plan(&plan).unwrap(), 2);

        // The armed watch traps the next guest write in the span.
        hv.vm_mut(id)
            .unwrap()
            .write_virt(0x8000_0000, b"!")
            .unwrap();
        let mut cur = mc_hypervisor::EventCursor::new();
        let evs = hv.drain_write_events(&mut cur);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].frame, plan.frames[0]);
    }

    #[test]
    fn arm_watches_without_fast_capture_charges_one_walk_per_page() {
        let (hv, id) = host_with_vm();
        let mut s = VmiSession::attach(&hv, id).unwrap();
        s.take_elapsed();
        let plan = s.arm_watches(0x8000_0000, 3 * PAGE_SIZE as u64).unwrap();
        assert_eq!(plan.frames.len(), 3);
        assert_eq!(s.stats().page_walks, 3);
        assert!(s.arm_watches(0xDEAD_0000, 16).is_err(), "unmapped span");
    }
}
