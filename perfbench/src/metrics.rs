//! The benchmark's metric names and units, and its result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the
//! crate's tests hold the two in step.

use std::fmt::Write as _;

/// End-to-end metrics, reported by untraced runs: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("run_s", "s"),
    ("setup_s", "s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("sim_makespan_mcycles", "Mcycles"),
    ("profile_overhead_x", "ratio"),
    ("peak_rss_mb", "MB"),
    ("scrape_p50_ms", "ms"),
    ("scrape_p90_ms", "ms"),
    ("agg_poll_p50_ms", "ms"),
    ("agg_poll_p90_ms", "ms"),
];

/// Per-layer metrics, reported by traced runs: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("txsim-mem.domain_new_ms", "ms"),
    ("txsim-htm.sched.syncs", "count"),
    ("txsim-htm.sched.blocks", "count"),
    ("txsim-htm.sched.block_wait_share", "ratio"),
    ("txsim-htm.directory.checks", "count"),
    ("txsim-htm.directory.dooms", "count"),
    ("txsim-htm.engine.tx_begins", "count"),
    ("txsim-htm.engine.commit_ratio", "ratio"),
    ("txsim-htm.engine.wasted_mcycles", "Mcycles"),
    ("txsim-pmu.samples", "count"),
    ("txsim-pmu.samples_dropped", "count"),
    ("txsim-pmu.lbr_truncated", "count"),
    ("rtm-runtime.htm_attempts", "count"),
    ("rtm-runtime.retries", "count"),
    ("rtm-runtime.fallbacks", "count"),
    ("rtm-runtime.lock_waits", "count"),
    ("rtm-runtime.fallback_ms", "ms"),
    ("txstm.begins", "count"),
    ("txstm.commit_ratio", "ratio"),
    ("txstm.validation_aborts", "count"),
    ("txstm.lock_busy", "count"),
    ("txstm.tl2_commit_ms", "ms"),
    ("core.collector.on_sample_us", "us"),
    ("core.cct.nodes_created", "count"),
    ("core.cct.nodes_hit", "count"),
    ("core.store.save_ms", "ms"),
    ("core.store.load_ms", "ms"),
    ("core.store.kb", "KB"),
    ("core.store.reordered_share", "ratio"),
    ("core.report.render_ms", "ms"),
    ("core.diff.ms", "ms"),
    ("core.hub.publishes", "count"),
    ("core.hub.latest_ms", "ms"),
    ("core.hub.delta_since_ms", "ms"),
    ("live.prometheus.render_ms", "ms"),
    ("live.metrics_kb", "KB"),
    ("live.agg.delta_kb", "KB"),
    ("live.agg.fleet_ms", "ms"),
    ("htmbench.harness.setup_ms", "ms"),
    ("htmbench.harness.worker_ms", "ms"),
    ("htmbench.harness.verify_ms", "ms"),
    ("obs.spans_dropped", "count"),
    ("obs.trace_overhead_x", "ratio"),
    ("bench.gen_late_p90_ms", "ms"),
    ("bench.rounds_late", "count"),
];

/// Whether `name` is a valid metric name: a leading letter or digit, then
/// at most 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .expect("every reported metric is declared")
}

/// The result line: one JSON object with the run's verdict and metrics.
/// Non-finite values are written as 0 so the line stays valid JSON.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            unit_of(name)
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_are_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate metric names");
        assert!(!valid_name("-lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(""));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(true, 3, 0, &[("run_s", 1.5), ("setup_s", f64::NAN)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"run_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
    }
}
