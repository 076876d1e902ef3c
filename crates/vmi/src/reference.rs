//! The fast path as it read memory before the allocation-free planner:
//! a fresh page list per read, a `Vec` of resolved pages per plan, and a
//! second page-table walk per copy ([`Vm::read_virt`]). Kept as the
//! oracle for the differential test below, which drives a planner session
//! and a reference session through the same random read sequences and
//! requires identical bytes, errors, counters, ledgers and fault draws
//! after every call.

use mc_hypervisor::{FaultDecision, SimDuration, Vm, PAGE_SHIFT};

use crate::{FastPathState, VectoredRead, VmiError, VmiSession};

impl VmiSession<'_> {
    /// Routes this session's reads through the reference implementation.
    pub(crate) fn into_reference(mut self) -> Self {
        self.reference = true;
        self
    }

    /// The reference for one attempt of the session's batch read: a
    /// vectored batch on a fast session takes the vectored shape; every
    /// other batch holds one request and takes the scalar shape, whose
    /// legacy branch is the paper's per-page read.
    pub(crate) fn reference_read_attempt(
        &mut self,
        requests: &mut [VectoredRead<'_>],
        vectored: bool,
    ) -> Result<(), VmiError> {
        if vectored {
            if let Some(read) =
                self.with_fast(|s, fast| s.reference_read_va_vectored_attempt(fast, requests))
            {
                return read;
            }
        }
        let [r] = requests else {
            panic!("a scalar attempt holds one request");
        };
        self.reference_read_va_attempt(r.va, r.buf)
    }

    /// The fault-layer consultation both attempt shapes start with.
    fn reference_decide(&mut self, va: u64, len: usize) -> Result<Option<usize>, VmiError> {
        let decision = match &mut self.fault {
            Some(state) => state.on_read(va, len),
            None => FaultDecision::Proceed {
                torn_byte: None,
                extra_ns: 0,
            },
        };
        match decision {
            FaultDecision::Fail { error, extra_ns } => {
                self.charge(self.cost.read_cost(1, 0));
                self.charge_flat(SimDuration::from_nanos(extra_ns));
                Err(error.into())
            }
            FaultDecision::Proceed {
                torn_byte,
                extra_ns,
            } => {
                self.charge_flat(SimDuration::from_nanos(extra_ns));
                Ok(torn_byte)
            }
        }
    }

    fn reference_read_va_attempt(&mut self, va: u64, buf: &mut [u8]) -> Result<(), VmiError> {
        let torn_byte = self.reference_decide(va, buf.len())?;
        let planned = self.with_fast(|s, fast| {
            let pages = Self::page_vas(va, buf.len() as u64);
            s.fast_plan_pages(fast, &pages)?;
            s.stats.reads += 1;
            s.stats.bytes_copied += buf.len() as u64;
            s.charge(s.cost.read_cost(0, buf.len() as u64));
            Ok::<_, VmiError>(())
        });
        if let Some(planned) = planned {
            planned?;
        } else {
            let pages = Vm::pages_crossed(va, buf.len() as u64);
            self.stats.reads += 1;
            self.stats.pages_mapped += pages;
            self.stats.bytes_copied += buf.len() as u64;
            self.stats.page_walks += pages;
            self.charge(self.cost.read_cost(pages, buf.len() as u64));
        }
        self.vm.read_virt(va, buf)?;
        if let Some(off) = torn_byte {
            buf[off] ^= 0xFF;
        }
        Ok(())
    }

    fn reference_read_va_vectored_attempt(
        &mut self,
        fast: &mut FastPathState,
        requests: &mut [VectoredRead<'_>],
    ) -> Result<(), VmiError> {
        let total: usize = requests.iter().map(|r| r.buf.len()).sum();
        let first_va = requests.iter().map(|r| r.va).min().unwrap_or(0);
        let torn_byte = self.reference_decide(first_va, total)?;
        let mut pages = Vec::new();
        for r in requests.iter() {
            pages.extend(Self::page_vas(r.va, r.buf.len() as u64));
        }
        pages.sort_unstable();
        pages.dedup();
        self.fast_plan_pages(fast, &pages)?;
        self.stats.reads += requests.len() as u64;
        self.stats.vectored_reads += 1;
        self.stats.bytes_copied += total as u64;
        self.charge(self.cost.read_cost(0, total as u64));
        for r in requests.iter_mut() {
            self.vm.read_virt(r.va, r.buf)?;
        }
        if let Some(mut off) = torn_byte {
            for r in requests.iter_mut() {
                if off < r.buf.len() {
                    r.buf[off] ^= 0xFF;
                    break;
                }
                off -= r.buf.len();
            }
        }
        Ok(())
    }

    /// Page-aligned VAs of every page a `len`-byte read at `va` crosses.
    fn page_vas(va: u64, len: u64) -> Vec<u64> {
        let pages = Vm::pages_crossed(va, len);
        let first = va & !((1u64 << PAGE_SHIFT) - 1);
        (0..pages).map(|i| first + (i << PAGE_SHIFT)).collect()
    }

    fn fast_plan_pages(
        &mut self,
        fast: &mut FastPathState,
        page_vas: &[u64],
    ) -> Result<(), VmiError> {
        let vm = self.vm;
        let (walks, hits, new_pages) = {
            let mut walks = 0u64;
            let mut hits = 0u64;
            let mut resolved = Vec::with_capacity(page_vas.len());
            for &pva in page_vas {
                match fast.translate.get(&pva).copied() {
                    Some(pa) => {
                        hits += 1;
                        resolved.push((pva, pa));
                    }
                    None => {
                        let pa = vm.translate(pva)?;
                        fast.translate.insert(pva, pa);
                        walks += 1;
                        resolved.push((pva, pa));
                    }
                }
            }
            let new_pages: Vec<(u64, u64)> = resolved
                .into_iter()
                .filter(|&(pva, _)| fast.mapped.insert(pva))
                .collect();
            (walks, hits, new_pages)
        };
        let page = 1u64 << PAGE_SHIFT;
        let mut runs = 0u64;
        let mut prev: Option<(u64, u64)> = None;
        for &(pva, pa) in &new_pages {
            let contiguous = prev.is_some_and(|(pva0, pa0)| pva == pva0 + page && pa == pa0 + page);
            if !contiguous {
                runs += 1;
            }
            prev = Some((pva, pa));
        }
        self.stats.page_walks += walks;
        self.stats.translate_cache_hits += hits;
        self.stats.pages_mapped += new_pages.len() as u64;
        self.charge(SimDuration::from_nanos(
            walks * self.cost.translate_ns + runs * self.cost.page_map_ns,
        ));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use mc_hypervisor::{AddressWidth, FaultPlan, Hypervisor, VmId, PAGE_SHIFT, PAGE_SIZE};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    use crate::{RetryPolicy, VectoredRead, VmiError, VmiSession};

    const BASE: u64 = 0x8000_0000;
    /// Pages of the window reads draw from; the unmapped ones are holes.
    const WINDOW_PAGES: u64 = 24;
    const HOLES: [u64; 4] = [5, 6, 13, 21];

    /// One VM whose window is mapped page by page (so neighbouring pages
    /// land on scattered frames) except for the holes, filled with
    /// seeded bytes, under `plan`.
    fn bed(width: AddressWidth, seed: u64, plan: Option<FaultPlan>) -> (Hypervisor, VmId) {
        let mut hv = Hypervisor::new();
        let id = hv.create_vm("diff", width).unwrap();
        let vm = hv.vm_mut(id).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for p in 0..WINDOW_PAGES {
            if HOLES.contains(&p) {
                continue;
            }
            // A skipped frame now and then breaks physical adjacency.
            if rng.random_bool(0.3) {
                vm.mem.alloc_frame();
            }
            let va = BASE + (p << PAGE_SHIFT);
            vm.map_range(va, PAGE_SIZE as u64).unwrap();
            let bytes: Vec<u8> = (0..PAGE_SIZE).map(|_| rng.random::<u8>()).collect();
            vm.write_virt(va, &bytes).unwrap();
        }
        hv.set_fault_plan(id, plan).unwrap();
        (hv, id)
    }

    /// A read address and length inside (or straddling the end of) the
    /// window: page-crossing bulk reads, header-field-sized reads, and
    /// the odd zero-length read.
    fn draw_range(rng: &mut StdRng) -> (u64, usize) {
        let va = BASE + rng.random_range(0..WINDOW_PAGES * PAGE_SIZE as u64);
        let len = match rng.random_range(0..6u32) {
            0 => 0,
            1 | 2 => rng.random_range(1..=16usize),
            3 => rng.random_range(17..=PAGE_SIZE),
            _ => rng.random_range(1024..=3 * PAGE_SIZE),
        };
        (va, len)
    }

    /// Everything a caller can observe about a session.
    fn observe(s: &VmiSession<'_>) -> impl PartialEq + std::fmt::Debug {
        (s.stats(), s.elapsed(), s.consumed(), s.fault_injections())
    }

    type Outcome = (Result<(), VmiError>, Vec<Vec<u8>>);

    fn scalar(s: &mut VmiSession<'_>, va: u64, len: usize, stable: bool) -> Outcome {
        let mut buf = vec![0u8; len];
        let r = if stable {
            s.read_va_stable(va, &mut buf)
        } else {
            s.read_va(va, &mut buf)
        };
        (r, vec![buf])
    }

    fn vectored(s: &mut VmiSession<'_>, ranges: &[(u64, usize)], stable: bool) -> Outcome {
        let mut bufs: Vec<Vec<u8>> = ranges.iter().map(|&(_, len)| vec![0u8; len]).collect();
        let mut reqs: Vec<VectoredRead<'_>> = ranges
            .iter()
            .zip(bufs.iter_mut())
            .map(|(&(va, _), buf)| VectoredRead {
                va,
                buf: buf.as_mut_slice(),
            })
            .collect();
        let r = if stable {
            s.read_va_vectored_stable(&mut reqs)
        } else {
            s.read_va_vectored(&mut reqs)
        };
        drop(reqs);
        (r, bufs)
    }

    /// For random read sequences — scalar, vectored and their stable
    /// variants, page-crossing, into unmapped holes, under transient,
    /// torn-page and paged-out fault plans, on both widths, on fast and
    /// legacy sessions — the session's read path and the reference agree
    /// on every byte, error, counter, ledger and fault draw after every
    /// call.
    #[test]
    fn planner_matches_the_reference_read_path() {
        let plans = [
            None,
            Some(FaultPlan::transient(3, 0.2)),
            Some(FaultPlan::none(4).with_torn_rate(0.4)),
            Some({
                let mut p = FaultPlan::none(5);
                p.paged_out_rate = 0.3;
                p
            }),
            Some(FaultPlan::chaos(6, 0.15)),
        ];
        // Coverage: the sequences must reach holes, retries and tears.
        let (mut unmapped, mut retries, mut tears) = (0u32, 0u64, 0u64);
        for case in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(0xD1FF ^ case);
            let width = if case % 2 == 0 {
                AddressWidth::W32
            } else {
                AddressWidth::W64
            };
            let plan = plans[(case % plans.len() as u64) as usize];
            let (hv, id) = bed(width, case, plan);
            let retry = RetryPolicy::with_max_retries(rng.random_range(0..6u32));
            // Half the cases run legacy sessions: the paper's per-page
            // read, with vectored calls degraded to one read per request.
            let fast = case % 4 < 2;
            let open = || {
                let s = VmiSession::attach(&hv, id).unwrap().with_retry(retry);
                if fast {
                    s.with_fast_capture()
                } else {
                    s
                }
            };
            let mut planner = open();
            let mut reference = open().into_reference();
            for step in 0..60 {
                let (want, got) = match rng.random_range(0..5u32) {
                    0 | 1 => {
                        let (va, len) = draw_range(&mut rng);
                        let stable = rng.random_bool(0.5);
                        (
                            scalar(&mut reference, va, len, stable),
                            scalar(&mut planner, va, len, stable),
                        )
                    }
                    2 | 3 => {
                        let ranges: Vec<(u64, usize)> = (0..rng.random_range(1..=4usize))
                            .map(|_| draw_range(&mut rng))
                            .collect();
                        let stable = rng.random_bool(0.5);
                        (
                            vectored(&mut reference, &ranges, stable),
                            vectored(&mut planner, &ranges, stable),
                        )
                    }
                    _ => {
                        let (va, len) = draw_range(&mut rng);
                        let want = reference.range_generations(va, len as u64);
                        let got = planner.range_generations(va, len as u64);
                        assert_eq!(want, got, "case {case} step {step}: generations");
                        ((Ok(()), Vec::new()), (Ok(()), Vec::new()))
                    }
                };
                assert_eq!(want, got, "case {case} step {step}: bytes or error");
                if let Err(VmiError::Hv(mc_hypervisor::HvError::UnmappedVa(_))) = got.0 {
                    unmapped += 1;
                }
                assert_eq!(
                    observe(&reference),
                    observe(&planner),
                    "case {case} step {step}: counters, ledger or fault draws"
                );
            }
            retries += planner.stats().retries;
            tears += planner.stats().torn_detected;
        }
        assert!(
            unmapped > 0 && retries > 0 && tears > 0,
            "coverage: {unmapped} hole errors, {retries} retries, {tears} tears"
        );
    }
}
