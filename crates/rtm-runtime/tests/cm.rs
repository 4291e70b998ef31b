//! Contention-manager contracts at the runtime layer: every policy keeps
//! contended counters exact, and none of them perturbs an uncontended
//! single-threaded run by so much as a cycle.

use std::sync::Arc;

use rtm_runtime::{CmKind, FallbackKind, TmLib};
use txsim_htm::{DomainConfig, HtmDomain, SamplingConfig};

#[test]
fn every_cm_keeps_contended_counter_exact() {
    // Zero retries push every conflicting section straight into the STM,
    // so the contention manager is in the loop for every commit: yields,
    // stalls and escalations all happen while six threads race on one
    // line. The counter staying exact is the proof that no intervention
    // loses or double-applies a transaction.
    for cm in CmKind::ALL {
        let d = HtmDomain::new(DomainConfig::default().cooperative());
        let lib = TmLib::with_cm(&d, 0, FallbackKind::Stm, cm);
        let counter = d.heap.alloc_words(1);
        const THREADS: usize = 6;
        const ITERS: u64 = 1_000;

        let barrier = std::sync::Barrier::new(THREADS);
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let d = Arc::clone(&d);
                    let lib = Arc::clone(&lib);
                    let barrier = &barrier;
                    s.spawn(move || {
                        let mut cpu = d.spawn_cpu(SamplingConfig::disabled());
                        let mut tm = lib.thread();
                        barrier.wait();
                        for _ in 0..ITERS {
                            tm.critical_section(&mut cpu, 10, |cpu| {
                                cpu.rmw(11, counter, |v| v + 1).map(|_| ())
                            });
                        }
                        tm.truth
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        assert_eq!(
            d.mem.load(counter),
            THREADS as u64 * ITERS,
            "lost updates under --cm {cm}"
        );
        assert_eq!(d.mem.load(lib.lock_addr()), 0, "gate must drain ({cm})");
        let mut total = rtm_runtime::Truth::default();
        for truth in &results {
            total.merge(truth);
        }
        let t = total.totals();
        assert_eq!(
            t.htm_commits + t.fallbacks,
            THREADS as u64 * ITERS,
            "completion count under --cm {cm}"
        );
        assert!(
            t.stm_commits > 0,
            "contention must drive sections into STM ({cm})"
        );
    }
}

#[test]
fn single_thread_runs_are_cycle_identical_across_policies() {
    // The CM only acts on contention. With one thread there is none, so
    // every policy must execute the exact same simulated cycle count as
    // the backoff default and book zero interventions — the subsystem's
    // "free when idle" contract.
    let mut cycles_by_cm = Vec::new();
    for cm in CmKind::ALL {
        let d = HtmDomain::new(DomainConfig::default().cooperative());
        let lib = TmLib::with_cm(&d, 0, FallbackKind::Stm, cm);
        let counter = d.heap.alloc_words(1);
        let mut cpu = d.spawn_cpu(SamplingConfig::disabled());
        let mut tm = lib.thread();
        tm.enable_ledger();
        for _ in 0..500 {
            tm.critical_section(&mut cpu, 10, |cpu| {
                cpu.rmw(11, counter, |v| v + 1)?;
                cpu.compute(12, 25)
            });
        }
        assert_eq!(d.mem.load(counter), 500);
        assert!(
            tm.ledger.take_delta().iter().all(|(_, s)| s.cm.is_zero()),
            "--cm {cm} must not intervene uncontended"
        );
        cycles_by_cm.push((cm, cpu.cycles()));
    }
    let (_, baseline) = cycles_by_cm[0];
    for (cm, cycles) in &cycles_by_cm {
        assert_eq!(
            *cycles, baseline,
            "--cm {cm} must be cycle-identical to backoff single-threaded"
        );
    }
}
