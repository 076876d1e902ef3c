//! Golden trace of `mc-vmi`'s four public guest reads.
//!
//! Fixed seeded sequences of `read_va`, `read_va_stable`,
//! `read_va_vectored` and `read_va_vectored_stable` run on fast-capture
//! and legacy sessions, on both address widths, with no fault plan and
//! under transient, torn-page, paged-out and chaos plans. After every call
//! the trace records the result, an MD5 of the returned bytes, every
//! `VmiStats` counter, the ledger (`elapsed`, `consumed`) and the fault
//! layer's injection count, one JSON object per line. The whole trace is
//! pinned in `tests/golden/vmi_read_trace.json`, so a change to the retry
//! loop, the attempt body or the stability double-read that moves any
//! byte, counter, charge or fault draw fails here. Refresh the snapshot
//! after an intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test vmi_read_trace
//! ```

use std::fs;
use std::path::PathBuf;

use mc_hypervisor::{
    AddressWidth, FaultPlan, Hypervisor, SimDuration, VmId, PAGE_SHIFT, PAGE_SIZE,
};
use mc_vmi::{RetryPolicy, VectoredRead, VmiError, VmiSession};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde_json::{json, Value};

const GOLDEN: &str = "vmi_read_trace.json";
const BASE: u64 = 0x8000_0000;
/// Pages of the window reads draw from; the unmapped ones are holes.
const WINDOW_PAGES: u64 = 16;
const HOLES: [u64; 3] = [4, 9, 10];
const STEPS: usize = 24;

fn check_golden(actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(GOLDEN);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\nrun `UPDATE_GOLDEN=1 cargo test --test vmi_read_trace` to create it",
            path.display()
        )
    });
    if let Some((line, (want, got))) = expected
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (want, got))| want != got)
    {
        panic!(
            "golden mismatch at line {}\nwant {want}\n got {got}\nif the change is intentional, refresh with `UPDATE_GOLDEN=1 cargo test --test vmi_read_trace`",
            line + 1
        );
    }
    assert_eq!(expected, actual, "golden trace length differs");
}

/// One VM whose window is mapped page by page (neighbouring pages land on
/// scattered frames) except for the holes, filled with seeded bytes.
fn bed(width: AddressWidth, seed: u64, plan: Option<FaultPlan>) -> (Hypervisor, VmId) {
    let mut hv = Hypervisor::new();
    let id = hv.create_vm("trace", width).unwrap();
    let vm = hv.vm_mut(id).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    for p in 0..WINDOW_PAGES {
        if HOLES.contains(&p) {
            continue;
        }
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

/// A read inside (or straddling the end of) the window: header-field
/// reads, sub-page reads, page-crossing bulk reads and the odd empty one.
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

/// Runs one public read over `ranges` and returns its result with the
/// bytes every buffer holds afterwards, concatenated.
fn run(
    s: &mut VmiSession<'_>,
    op: &str,
    ranges: &[(u64, usize)],
) -> (Result<(), VmiError>, Vec<u8>) {
    let mut bufs: Vec<Vec<u8>> = ranges.iter().map(|&(_, len)| vec![0u8; len]).collect();
    let r = match op {
        "read_va" => s.read_va(ranges[0].0, &mut bufs[0]),
        "read_va_stable" => s.read_va_stable(ranges[0].0, &mut bufs[0]),
        _ => {
            let mut reqs: Vec<VectoredRead<'_>> = ranges
                .iter()
                .zip(bufs.iter_mut())
                .map(|(&(va, _), buf)| VectoredRead {
                    va,
                    buf: buf.as_mut_slice(),
                })
                .collect();
            if op == "read_va_vectored" {
                s.read_va_vectored(&mut reqs)
            } else {
                s.read_va_vectored_stable(&mut reqs)
            }
        }
    };
    (r, bufs.concat())
}

/// One trace line: the call, what it returned and everything a caller can
/// observe about the session afterwards.
fn record(
    case: usize,
    step: usize,
    op: &str,
    ranges: &[(u64, usize)],
    result: &Result<(), VmiError>,
    bytes: &[u8],
    s: &VmiSession<'_>,
) -> Value {
    let st = s.stats();
    let reqs: Vec<Value> = ranges.iter().map(|&(va, len)| json!([va, len])).collect();
    json!({
        "case": case,
        "step": step,
        "op": op,
        "reqs": reqs,
        "result": format!("{result:?}"),
        "md5": mc_md5::md5(bytes).to_hex(),
        "stats": {
            "reads": st.reads,
            "pages_mapped": st.pages_mapped,
            "bytes_copied": st.bytes_copied,
            "page_walks": st.page_walks,
            "translate_cache_hits": st.translate_cache_hits,
            "vectored_reads": st.vectored_reads,
            "retries": st.retries,
            "transient_faults": st.transient_faults,
            "torn_detected": st.torn_detected,
            "stability_rereads": st.stability_rereads
        },
        "elapsed_ns": s.elapsed().as_nanos(),
        "consumed_ns": s.consumed().as_nanos(),
        "fault_injections": s.fault_injections()
    })
}

#[test]
fn public_reads_match_the_pinned_trace() {
    let mut paged_out = FaultPlan::none(5);
    paged_out.paged_out_rate = 0.3;
    let plans = [
        ("none", None),
        ("transient", Some(FaultPlan::transient(3, 0.2))),
        ("torn", Some(FaultPlan::none(4).with_torn_rate(0.4))),
        ("paged_out", Some(paged_out)),
        ("chaos", Some(FaultPlan::chaos(6, 0.15))),
    ];
    let mut lines = Vec::new();
    let (mut errors, mut retries, mut tears) = (0u32, 0u64, 0u64);
    let mut case = 0usize;
    for (plan_name, plan) in plans {
        for fast in [false, true] {
            for width in [AddressWidth::W32, AddressWidth::W64] {
                let mut rng = StdRng::seed_from_u64(0x7ACE ^ case as u64);
                let (hv, id) = bed(width, case as u64, plan);
                let mut retry = RetryPolicy::with_max_retries(rng.random_range(0..6u32));
                if rng.random_bool(0.5) {
                    retry = retry.with_jitter(0.4);
                }
                // Every fourth case runs out of simulated time part-way.
                let deadline = (case % 4 == 3).then(|| SimDuration::from_micros(900));
                let mut s = VmiSession::attach(&hv, id).unwrap().with_retry(retry);
                if fast {
                    s = s.with_fast_capture();
                }
                if let Some(d) = deadline {
                    s = s.with_deadline(d);
                }
                lines.push(json!({
                    "case": case,
                    "plan": plan_name,
                    "fast": fast,
                    "width": format!("{width:?}"),
                    "max_retries": retry.max_retries,
                    "jitter": retry.jitter,
                    "deadline_ns": deadline.map(SimDuration::as_nanos)
                }));
                for step in 0..STEPS {
                    let (op, ranges) = match rng.random_range(0..9u32) {
                        0 | 1 => ("read_va", vec![draw_range(&mut rng)]),
                        2 | 3 => ("read_va_stable", vec![draw_range(&mut rng)]),
                        k @ (4..=7) => {
                            let n = rng.random_range(1..=4usize);
                            let ranges = (0..n).map(|_| draw_range(&mut rng)).collect();
                            let op = if k < 6 {
                                "read_va_vectored"
                            } else {
                                "read_va_vectored_stable"
                            };
                            (op, ranges)
                        }
                        _ if rng.random_bool(0.5) => ("read_va_vectored", Vec::new()),
                        _ => ("read_va_vectored_stable", Vec::new()),
                    };
                    let (result, bytes) = run(&mut s, op, &ranges);
                    errors += u32::from(result.is_err());
                    lines.push(record(case, step, op, &ranges, &result, &bytes, &s));
                }
                retries += s.stats().retries;
                tears += s.stats().torn_detected;
                case += 1;
            }
        }
    }
    // Coverage: the sequences must reach errors, retries and tears.
    assert!(
        errors > 0 && retries > 0 && tears > 0,
        "coverage: {errors} errors, {retries} retries, {tears} tears"
    );
    let rendered: Vec<String> = lines
        .iter()
        .map(|l| serde_json::to_string(l).expect("serializes"))
        .collect();
    check_golden(&(rendered.join("\n") + "\n"));
}
