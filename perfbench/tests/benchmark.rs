//! The benchmark's own checks: its metric names agree with
//! `BENCHMARK.json`, every workload runs clean at a tiny size, and a wrong
//! output identity fails the run.

use std::sync::Mutex;
use std::time::Duration;

use perfbench::checks::{identity_for, Program};
use perfbench::metrics::{valid_name, END_TO_END, PER_LAYER};
use perfbench::tally::Tally;
use perfbench::workloads::{self, Params, Workload};

/// Workload runs share the process-wide `obs` switches and each holds a
/// full simulated memory: run them one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn tiny(seed: u64, trace: bool) -> Params {
    Params {
        seed,
        budget: Duration::ZERO,
        trace,
        scale_pct: 5,
    }
}

fn run_tiny(workload: Workload, trace: bool) -> Tally {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    workloads::run(workload, &tiny(7, trace))
}

/// `(name, unit)` of every entry in one array of `BENCHMARK.json`.
fn json_entries(section: &str) -> Vec<(String, Option<String>)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("{section} missing"));
    let body = &text[start..];
    let body = &body[body.find('[').expect("array")..=body.find(']').expect("array end")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\""))?;
        let rest = &entry[at + key.len() + 2..];
        let open = rest.find('"')? + 1;
        let close = open + rest[open..].find('"')?;
        Some(rest[open..close].to_string())
    };
    body.split('{')
        .skip(1)
        .map(|entry| {
            (
                field(entry, "name").expect("every entry has a name"),
                field(entry, "unit"),
            )
        })
        .collect()
}

fn declared(list: &[(&str, &str)]) -> Vec<(String, Option<String>)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), Some(u.to_string())))
        .collect()
}

#[test]
fn metric_names_and_units_match_benchmark_json() {
    assert_eq!(json_entries("end_to_end"), declared(END_TO_END));
    assert_eq!(json_entries("per_layer"), declared(PER_LAYER));
    let workloads: Vec<String> = json_entries("workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn printed_metrics_are_exactly_the_declared_ones() {
    let tally = Tally::default();
    let names = |ms: Vec<(&'static str, f64)>| ms.into_iter().map(|(n, _)| n).collect::<Vec<_>>();
    let e2e = names(tally.end_to_end(1.0));
    let layers = names(tally.per_layer());
    assert_eq!(e2e, END_TO_END.iter().map(|(n, _)| *n).collect::<Vec<_>>());
    assert_eq!(
        layers,
        PER_LAYER.iter().map(|(n, _)| *n).collect::<Vec<_>>()
    );
    for name in e2e.iter().chain(&layers) {
        assert!(valid_name(name), "{name}");
    }
}

fn assert_clean(workload: Workload, tally: &Tally) {
    assert_eq!(tally.failed, 0, "{}: {:?}", workload.name(), tally.failures);
    assert!(
        tally.rounds >= 2,
        "{}: {} rounds",
        workload.name(),
        tally.rounds
    );
    for (name, value) in tally.end_to_end(1.0) {
        assert!(value.is_finite() && value > 0.0, "{name} = {value}");
    }
}

#[test]
fn contended_stm_smoke_run_passes_its_checks() {
    let tally = run_tiny(Workload::ContendedStm, false);
    assert_clean(Workload::ContendedStm, &tally);
}

#[test]
fn solo_overhead_smoke_run_passes_its_checks() {
    let tally = run_tiny(Workload::SoloOverhead, false);
    assert_clean(Workload::SoloOverhead, &tally);
    // Every round after the first was compared with it.
    assert!(tally.compared >= 2 * 3, "compared {}", tally.compared);
}

#[test]
fn serve_fleet_smoke_run_passes_its_checks() {
    let tally = run_tiny(Workload::ServeFleet, false);
    assert_clean(Workload::ServeFleet, &tally);
    // The open loop sent at least its minimum of scrapes, each with a
    // poll, and every one was counted.
    assert!(tally.samples["scrape_ms"].len() >= 100);
    assert!(tally.samples["poll_ms"].len() >= 100);
}

#[test]
fn traced_smoke_run_reports_layers() {
    let tally = run_tiny(Workload::ContendedStm, true);
    assert_eq!(tally.failed, 0, "{:?}", tally.failures);
    assert!(tally.traced_rounds >= 1);
    let layers: std::collections::HashMap<_, _> = tally.per_layer().into_iter().collect();
    for busy in [
        "txsim-mem.domain_new_ms",
        "txsim-htm.sched.syncs",
        "txsim-htm.directory.checks",
        "txsim-htm.engine.tx_begins",
        "txsim-pmu.samples",
        "rtm-runtime.htm_attempts",
        "core.collector.on_sample_us",
        "core.store.save_ms",
        "live.prometheus.render_ms",
        "htmbench.harness.worker_ms",
        "obs.trace_overhead_x",
    ] {
        assert!(layers[busy] > 0.0, "{busy} = {}", layers[busy]);
    }
}

#[test]
fn wrong_expected_identity_fails_the_run() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let workload = Workload::SoloOverhead;
    let mix = workload.mix();
    // Check leveldb's output against nested_calls' identity.
    let programs = mix
        .programs
        .iter()
        .map(|&(name, _)| {
            let mut p = Program::named(name).expect("known program");
            if name == "leveldb" {
                p.identity = identity_for("micro/nested_calls").expect("known identity");
            }
            p
        })
        .collect();
    let tally = workloads::run_with(workload, &mix, programs, &tiny(7, false));
    assert!(tally.failed > 0, "a wrong identity must fail");
    assert!(
        tally.failures.iter().any(|f| f.starts_with("leveldb")),
        "{:?}",
        tally.failures
    );
}
