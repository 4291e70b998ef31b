//! The runtime's per-site ledger has a fixed capacity and counts what it
//! cannot seat. Every registered workload — original and optimized — runs
//! profiled under the adaptive backend and the karma contention manager
//! (so the fallback-mix, histogram and CM components are all booked), and
//! no thread's ledger may drop a single record: the capacity covers every
//! site the suite has.

use htmbench::harness::{RunConfig, RunOutcome};
use htmbench::registry;
use rtm_runtime::{CmKind, FallbackKind, SiteStats};

#[test]
fn no_registry_workload_overflows_the_ledger() {
    let cfg = RunConfig::quick()
        .with_threads(2)
        .with_scale(3)
        .with_fallback(FallbackKind::Adaptive)
        .with_cm(CmKind::Karma);
    let mut runs: Vec<(String, RunOutcome)> = registry::all()
        .into_iter()
        .map(|spec| (spec.name.to_string(), (spec.run)(&cfg)))
        .collect();
    for pair in registry::optimization_pairs() {
        runs.push((format!("{} (optimized)", pair.code), (pair.optimized)(&cfg)));
    }
    for (name, out) in &runs {
        assert_eq!(out.ledger_overflow, 0, "{name} overflowed its ledger");
    }
    // Sanity: the ledgers were live and recorded every component.
    let totals = runs.iter().fold(SiteStats::default(), |mut acc, (_, out)| {
        acc.merge(&out.profile.as_ref().expect("profiled run").site_totals());
        acc
    });
    assert!(totals.hists.tx_cycles.count > 0);
    assert!(totals.mix.total() > 0);
    assert!(totals.cm.total() > 0);
}
