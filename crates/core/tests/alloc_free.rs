//! Pins the tentpole guarantee of the allocation-free sampling fast path:
//! once the collector's reusable buffers and per-site tables have warmed
//! up, `Collector::on_sample` performs **zero heap allocations** — for
//! cycles samples (with and without in-transaction LBR reconstruction),
//! commit samples, abort samples, and memory samples alike. The same holds
//! for the runtime side of a profiled thread: its per-site ledger's
//! completion, CM and mix booking hooks.
//!
//! Lives in its own integration-test binary because the counting global
//! allocator is process-wide: sharing a process with other tests would make
//! the measured window noisy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use rtm_runtime::{CmEvent, FallbackKind, ThreadState, TmLib};
use txsampler::{Collector, ContentionMap};
use txsim_htm::HtmDomain;
use txsim_mem::CacheGeometry;
use txsim_pmu::{
    AbortClass, BranchKind, EventKind, Frame, FuncId, Ip, LbrEntry, Sample, SampleSink,
    SamplingConfig,
};

/// Counts every allocation and reallocation routed through the global
/// allocator — but only on threads that opted in via `TRACK`, and per
/// thread. Frees are irrelevant: the fast path must not *acquire* memory.
/// The thread gate matters because the allocator is process-wide: the
/// libtest harness's main thread prints progress concurrently with the
/// measured loop, and the other test of this binary runs alongside. The
/// TLS cells are const-initialized, so touching them never allocates (no
/// recursion).
struct CountingAlloc;

thread_local! {
    static TRACK: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    if TRACK.with(Cell::get) {
        ALLOCS.with(|a| a.set(a.get() + 1));
    }
}

/// Allocations this thread made while tracked.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Start counting this thread's allocations, after proving the counter
/// observes it (a real allocation must register).
fn start_tracking() {
    TRACK.with(|t| t.set(true));
    let canary = allocs();
    std::hint::black_box(Vec::<u64>::with_capacity(8));
    assert!(
        allocs() > canary,
        "counting allocator is not observing this thread"
    );
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn stack(depth: u32) -> Vec<Frame> {
    (0..depth)
        .map(|i| Frame {
            func: FuncId(i + 1),
            callsite: Ip::new(FuncId(i), 2 * i + 1),
        })
        .collect()
}

fn in_tx_lbr() -> Vec<LbrEntry> {
    // Two in-tx calls ending in the sampling interrupt: exercises the LBR
    // reconstruction (anchor = deepest stack frame, FuncId(3)).
    vec![
        LbrEntry {
            from: Ip::new(FuncId(3), 7),
            to: Ip::new(FuncId(20), 0),
            kind: BranchKind::Call,
            in_tsx: true,
            abort: false,
        },
        LbrEntry {
            from: Ip::new(FuncId(20), 4),
            to: Ip::new(FuncId(21), 0),
            kind: BranchKind::Call,
            in_tsx: true,
            abort: false,
        },
        LbrEntry {
            from: Ip::new(FuncId(21), 9),
            to: Ip::new(FuncId(21), 9),
            kind: BranchKind::Interrupt,
            in_tsx: false,
            abort: true,
        },
    ]
}

fn base_sample(event: EventKind, tsc: u64) -> Sample {
    Sample {
        event,
        ip: Ip::new(FuncId(3), 40),
        tid: 0,
        in_tx: false,
        caused_abort: false,
        addr: None,
        weight: 0,
        abort_class: None,
        tsc,
        lbr: Vec::new(),
    }
}

#[test]
fn steady_state_sample_path_is_allocation_free() {
    let contention = Arc::new(ContentionMap::with_defaults(CacheGeometry::default()));
    let (mut collector, handle) = Collector::new(
        0,
        ThreadState::new(),
        contention,
        &SamplingConfig::txsampler_default(),
    );

    let deep_stack = stack(3);
    let mut workload: Vec<(Sample, Vec<Frame>)> = Vec::new();
    // Plain cycles sample.
    workload.push((base_sample(EventKind::Cycles, 100), deep_stack.clone()));
    // In-transaction cycles sample: LBR path reconstruction runs.
    let mut in_tx = base_sample(EventKind::Cycles, 200);
    in_tx.in_tx = true;
    in_tx.caused_abort = true;
    in_tx.lbr = in_tx_lbr();
    workload.push((in_tx, deep_stack.clone()));
    // Commit sample (per-site commit counter).
    workload.push((base_sample(EventKind::TxCommit, 300), deep_stack.clone()));
    // Abort sample (per-class metrics + per-site abort counter + LBR).
    let mut abort = base_sample(EventKind::TxAbort, 400);
    abort.weight = 1234;
    abort.abort_class = Some(AbortClass::Conflict);
    abort.lbr = in_tx_lbr();
    workload.push((abort, deep_stack.clone()));
    // Memory samples on two fixed addresses from two threads: the shadow
    // map classifies sharing on warmed per-line/per-word entries.
    for (tid, addr) in [(0u64, 0x1000u64), (1, 0x1000), (0, 0x2040), (1, 0x2048)] {
        let mut mem = base_sample(
            if addr % 2 == 0 {
                EventKind::MemStore
            } else {
                EventKind::MemLoad
            },
            500 + addr,
        );
        mem.tid = tid as usize;
        mem.addr = Some(addr);
        workload.push((mem, deep_stack.clone()));
    }

    // Warm-up: create every CCT node, per-site table entry, and shadow-map
    // entry the workload will ever touch, and let the scratch buffers reach
    // their steady capacity.
    for round in 0..3u64 {
        for (sample, frames) in &workload {
            let mut s = sample.clone();
            s.tsc += round * 10_000;
            collector.on_sample(&s, frames);
        }
    }

    // Measure: replaying the same contexts must not allocate at all.
    start_tracking();
    let before = allocs();
    for round in 0..50u64 {
        for (sample, frames) in &workload {
            collector.on_sample(sample, frames);
            let _ = round;
        }
    }
    let during = allocs() - before;
    TRACK.with(|t| t.set(false));
    assert_eq!(
        during, 0,
        "steady-state on_sample performed {during} heap allocations"
    );

    // Sanity: the collector actually recorded everything.
    collector.flush();
    let profile = handle.take();
    assert_eq!(profile.samples, 53 * workload.len() as u64);
    assert!(profile.cct.len() > 1);
}

/// Run a profiled-thread workload on a fresh adaptive domain: one site
/// commits in HTM, the other aborts on a syscall every time and completes
/// through the adaptive dispatcher (which books its mix). Returns the
/// allocations the measured rounds made (after a warm-up) and the drained
/// ledger.
fn runtime_rounds(ledger: bool) -> (u64, Vec<(Ip, rtm_runtime::SiteStats)>) {
    let domain = HtmDomain::with_defaults();
    let lib = TmLib::with_backend(&domain, FallbackKind::Adaptive);
    let counter = domain.heap.alloc_words(1);
    let mut cpu = domain.spawn_cpu(SamplingConfig::disabled());
    let mut tm = lib.thread();
    if ledger {
        tm.enable_ledger();
    }
    let mut round = || {
        tm.critical_section(&mut cpu, 10, |cpu| {
            cpu.rmw(11, counter, |v| v + 1)?;
            Ok(())
        });
        tm.critical_section(&mut cpu, 20, |cpu| {
            cpu.syscall(21)?;
            cpu.rmw(22, counter, |v| v + 1)?;
            Ok(())
        });
    };
    for _ in 0..20 {
        round();
    }
    start_tracking();
    let before = allocs();
    for _ in 0..200 {
        round();
    }
    let during = allocs() - before;
    TRACK.with(|t| t.set(false));
    (during, tm.ledger.take_delta())
}

#[test]
fn steady_state_ledger_hooks_are_allocation_free() {
    // The hooks themselves, on a full ledger: completion records, CM
    // bookings and mix bookings never allocate — neither for seated sites
    // nor for sites that overflow (those are counted instead).
    let mut ledger = rtm_runtime::SiteLedger::new();
    let capacity = rtm_runtime::SITE_CAPACITY as u32;
    let sites: Vec<Ip> = (0..capacity + 8)
        .map(|n| Ip::new(FuncId(100 + n), 1))
        .collect();
    let book = |ledger: &mut rtm_runtime::SiteLedger, i: u64| {
        for site in &sites {
            ledger.record_completion(*site, 100 * i, 1 + i as u32 % 5, Some(i));
            ledger.book_cm(*site, CmEvent::Stall);
            ledger.book_mix(*site, FallbackKind::Stm, i.is_multiple_of(7));
        }
    };
    book(&mut ledger, 0);
    start_tracking();
    let before = allocs();
    for i in 0..50 {
        book(&mut ledger, i);
    }
    let during = allocs() - before;
    TRACK.with(|t| t.set(false));
    assert_eq!(
        during, 0,
        "steady-state ledger hooks performed {during} heap allocations"
    );
    assert_eq!(
        ledger.overflowed(),
        51 * 8 * 3,
        "every dropped record counted"
    );
    assert_eq!(ledger.take_delta().len(), capacity as usize);

    // Inside the runtime: a profiled thread (live ledger) makes exactly
    // the allocations an unprofiled one does — the simulator's own — so
    // the completion and mix-booking hooks on its path add none.
    let (plain, empty) = runtime_rounds(false);
    let (profiled, delta) = runtime_rounds(true);
    assert!(empty.is_empty(), "detached ledger records nothing");
    assert_eq!(
        profiled,
        plain,
        "the live ledger added {} heap allocations",
        profiled as i64 - plain as i64
    );
    // Sanity: the hooks recorded into one record per site.
    assert_eq!(delta.len(), 2);
    let completions: u64 = delta.iter().map(|(_, s)| s.hists.tx_cycles.count).sum();
    assert_eq!(completions, 2 * 220);
    let fallbacks: u64 = delta
        .iter()
        .filter(|(site, _)| site.line == 20)
        .map(|(_, s)| s.mix.total())
        .sum();
    assert_eq!(fallbacks, 220, "every syscall section fell back");
}
