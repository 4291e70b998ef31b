//! What a run measured, and the metrics derived from it.
//!
//! A workload works in *rounds*: one round runs each of its programs once
//! profiled and once native, a *pair*. End-to-end figures combine
//! per-program medians over rounds, so one slow run cannot move them;
//! latency figures are percentiles over individual requests. Per-layer
//! figures come from traced rounds: the `obs` counters and spans the
//! crates already export, harvested and reset after every traced round,
//! plus the benchmark's own timings of calls into each layer.

use std::collections::BTreeMap;

use obs::{Counter, Subsystem};

use crate::stats::{median, percentile, windowed_percentile, Summary};

/// One program's native run and profiled flow within a round.
#[derive(Debug, Clone, Default)]
pub struct Pair {
    /// The round the pair ran in.
    pub round: u64,
    /// Whether counters and spans were on during the round.
    pub traced: bool,
    /// Profiled flow (run + save + render), seconds.
    pub flow_s: f64,
    /// Set-up time (`Spec::run` call time minus parallel phase) of the
    /// native and the profiled run, seconds.
    pub setup_s: [f64; 2],
    /// Parallel-phase wall time of the profiled run, seconds.
    pub profiled_wall_s: f64,
    /// Parallel-phase wall time of the native run, seconds.
    pub native_wall_s: f64,
    /// Simulated cycles of the profiled run, summed over threads.
    pub cycles: u64,
    /// Simulated makespan of the profiled run.
    pub makespan: u64,
    /// Wasted (aborted) simulated cycles of the profiled run.
    pub wasted_cycles: u64,
}

/// Everything one benchmark run measured.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted: runs, HTTP requests and aggregator polls.
    pub attempted: u64,
    /// Operations that failed their check, errored or panicked.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Rounds whose pairs all passed their checks.
    pub rounds: u64,
    /// Of those, the traced ones.
    pub traced_rounds: u64,
    /// Pairs of the completed rounds.
    pub pairs: Vec<Pair>,
    /// Individual samples by kind (`scrape_ms`, `core.store.save_ms`, …).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Paced rounds that overran their slot.
    pub rounds_late: u64,
    /// Saved profiles compared with an earlier text of the same content.
    pub compared: u64,
    /// Of those, the ones equal in records but not in bytes.
    pub reordered: u64,
    /// `obs` counters summed over traced rounds.
    counters: BTreeMap<&'static str, u64>,
    /// `obs` spans over traced rounds: (count, total ns) by (subsystem, label).
    spans: BTreeMap<(&'static str, &'static str), (u64, u64)>,
    /// Span events lost to ring wraparound.
    spans_dropped: u64,
}

/// Latency tails are p90s of windows of this many consecutive requests
/// (so each has 10 samples beyond it), reported at the lower quartile
/// over windows. On a shared host a run's worst stretches say more about
/// the neighbours than about the program; a regression that slows more
/// than three quarters of the windows moves the metric.
pub const WINDOW: usize = 100;
const OVER_WINDOWS: f64 = 25.0;

/// Keep at most this many failure messages.
const MAX_FAILURES: usize = 8;

impl Tally {
    /// Count one attempted operation and its outcome.
    pub fn outcome(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = result {
            self.fail(msg);
        }
    }

    /// Count a failure of an operation already counted as attempted.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < MAX_FAILURES {
            self.failures.push(msg);
        }
    }

    /// Record one sample of kind `key`.
    pub fn sample(&mut self, key: &'static str, value: f64) {
        self.samples.entry(key).or_default().push(value);
    }

    fn samples_of(&self, key: &str) -> &[f64] {
        self.samples.get(key).map_or(&[], Vec::as_slice)
    }

    /// Fold the process-wide `obs` counters and finished spans into the
    /// tally, then reset the counters so the next round starts from zero.
    pub fn harvest_obs(&mut self) {
        let registry = obs::registry();
        for &c in Counter::ALL {
            *self.counters.entry(c.name()).or_default() += registry.get(c);
        }
        registry.reset();
        self.harvest_spans();
    }

    /// Fold every finished span (and the calling thread's live ones) in.
    pub fn harvest_spans(&mut self) {
        let traces = obs::take_traces();
        self.spans_dropped += traces.iter().map(|t| t.dropped).sum::<u64>();
        for agg in obs::aggregate_spans(&traces) {
            let e = self
                .spans
                .entry((agg.subsystem.label(), agg.label))
                .or_default();
            e.0 += agg.count;
            e.1 += agg.total_ns;
        }
    }

    /// Absorb a tally kept by another thread.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(MAX_FAILURES);
        self.rounds += other.rounds;
        self.traced_rounds += other.traced_rounds;
        self.pairs.extend(other.pairs);
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
        self.rounds_late += other.rounds_late;
        self.compared += other.compared;
        self.reordered += other.reordered;
        for (k, v) in other.counters {
            *self.counters.entry(k).or_default() += v;
        }
        for (k, (n, ns)) in other.spans {
            let e = self.spans.entry(k).or_default();
            e.0 += n;
            e.1 += ns;
        }
        self.spans_dropped += other.spans_dropped;
    }

    /// Count a completed round and keep its pairs.
    pub fn round(&mut self, traced: bool, pairs: Vec<Pair>) {
        self.rounds += 1;
        self.traced_rounds += u64::from(traced);
        self.pairs.extend(pairs);
    }

    fn pairs_where(&self, traced: bool) -> impl Iterator<Item = &Pair> {
        self.pairs.iter().filter(move |p| p.traced == traced)
    }

    /// Median over rounds of `num / den`, each summed over the round's
    /// pairs (a `den` of 1 makes it the round's mean per pair).
    fn round_median(
        &self,
        traced: bool,
        num: impl Fn(&Pair) -> f64,
        den: impl Fn(&Pair) -> f64,
    ) -> f64 {
        let mut sums: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
        for p in self.pairs_where(traced) {
            let e = sums.entry(p.round).or_default();
            e.0 += num(p);
            e.1 += den(p);
        }
        let xs: Vec<f64> = sums.values().map(|&(n, d)| ratio(n, d)).collect();
        median(&xs)
    }

    /// Seconds per profiled flow, median over rounds.
    fn run_s(&self, traced: bool) -> f64 {
        self.round_median(traced, |p| p.flow_s, |_| 1.0)
    }

    /// The end-to-end metrics, from untraced rounds only.
    pub fn end_to_end(&self, peak_rss_mb: f64) -> Vec<(&'static str, f64)> {
        let scrape = self.samples_of("scrape_ms");
        let poll = self.samples_of("poll_ms");
        let setups: Vec<f64> = self.pairs_where(false).flat_map(|p| p.setup_s).collect();
        let overheads: Vec<f64> = self
            .pairs_where(false)
            .map(|p| ratio(p.profiled_wall_s, p.native_wall_s))
            .collect();
        vec![
            ("run_s", self.run_s(false)),
            ("setup_s", median(&setups)),
            (
                "sim_mcycles_per_s",
                self.round_median(false, |p| p.cycles as f64 / 1e6, |p| p.profiled_wall_s),
            ),
            (
                "sim_makespan_mcycles",
                self.round_median(false, |p| p.makespan as f64 / 1e6, |_| 1.0),
            ),
            ("profile_overhead_x", median(&overheads)),
            ("peak_rss_mb", peak_rss_mb),
            ("scrape_p50_ms", median(scrape)),
            (
                "scrape_p90_ms",
                windowed_percentile(scrape, WINDOW, 90.0, OVER_WINDOWS),
            ),
            ("agg_poll_p50_ms", median(poll)),
            (
                "agg_poll_p90_ms",
                windowed_percentile(poll, WINDOW, 90.0, OVER_WINDOWS),
            ),
        ]
    }

    fn counter(&self, c: Counter) -> f64 {
        self.counters.get(c.name()).copied().unwrap_or(0) as f64
    }

    fn span(&self, subsystem: Subsystem, label: &str) -> (f64, f64) {
        self.spans
            .get(&(subsystem.label(), label))
            .map_or((0.0, 0.0), |&(n, ns)| (n as f64, ns as f64))
    }

    /// Mean span duration in milliseconds.
    fn span_mean_ms(&self, subsystem: Subsystem, label: &str) -> f64 {
        let (n, ns) = self.span(subsystem, label);
        ratio(ns / 1e6, n)
    }

    /// The per-layer metrics, from traced rounds. Counts and span totals
    /// are per traced round; timings are medians per call.
    pub fn per_layer(&self) -> Vec<(&'static str, f64)> {
        let rounds = self.traced_rounds.max(1) as f64;
        let per_round = |c: Counter| self.counter(c) / rounds;
        let span_ms_per_round = |s: Subsystem, l: &str| self.span(s, l).1 / 1e6 / rounds;
        let med = |key: &str| median(self.samples_of(key));
        let wasted: u64 = self.pairs_where(true).map(|p| p.wasted_cycles).sum();
        vec![
            ("txsim-mem.domain_new_ms", med("txsim-mem.domain_new_ms")),
            ("txsim-htm.sched.syncs", per_round(Counter::SchedSyncs)),
            ("txsim-htm.sched.blocks", per_round(Counter::SchedBlocks)),
            (
                "txsim-htm.sched.block_wait_share",
                ratio(
                    self.span(Subsystem::Sched, "block_wait").1,
                    self.span(Subsystem::Harness, "worker").1,
                ),
            ),
            (
                "txsim-htm.directory.checks",
                per_round(Counter::DirectoryConflictChecks),
            ),
            (
                "txsim-htm.directory.dooms",
                per_round(Counter::DirectoryDooms),
            ),
            ("txsim-htm.engine.tx_begins", per_round(Counter::TxBegins)),
            (
                "txsim-htm.engine.commit_ratio",
                ratio(
                    self.counter(Counter::TxCommits),
                    self.counter(Counter::TxBegins),
                ),
            ),
            (
                "txsim-htm.engine.wasted_mcycles",
                wasted as f64 / 1e6 / rounds,
            ),
            ("txsim-pmu.samples", per_round(Counter::SamplesTaken)),
            (
                "txsim-pmu.samples_dropped",
                per_round(Counter::SamplesDropped),
            ),
            (
                "txsim-pmu.lbr_truncated",
                per_round(Counter::LbrWindowsTruncated),
            ),
            (
                "rtm-runtime.htm_attempts",
                per_round(Counter::RtmHtmAttempts),
            ),
            ("rtm-runtime.retries", per_round(Counter::RtmRetries)),
            ("rtm-runtime.fallbacks", per_round(Counter::RtmFallbacks)),
            ("rtm-runtime.lock_waits", per_round(Counter::RtmLockWaits)),
            (
                "rtm-runtime.fallback_ms",
                span_ms_per_round(Subsystem::Runtime, "fallback"),
            ),
            ("txstm.begins", per_round(Counter::StmBegins)),
            (
                "txstm.commit_ratio",
                ratio(
                    self.counter(Counter::StmCommits),
                    self.counter(Counter::StmBegins),
                ),
            ),
            (
                "txstm.validation_aborts",
                per_round(Counter::StmValidationAborts),
            ),
            ("txstm.lock_busy", per_round(Counter::StmLockBusy)),
            (
                "txstm.tl2_commit_ms",
                span_ms_per_round(Subsystem::Stm, "tl2_commit"),
            ),
            (
                "core.collector.on_sample_us",
                self.span_mean_ms(Subsystem::Collector, "on_sample") * 1e3,
            ),
            (
                "core.cct.nodes_created",
                per_round(Counter::CctNodesCreated),
            ),
            ("core.cct.nodes_hit", per_round(Counter::CctNodesHit)),
            ("core.store.save_ms", med("core.store.save_ms")),
            ("core.store.load_ms", med("core.store.load_ms")),
            ("core.store.kb", med("core.store.kb")),
            (
                "core.store.reordered_share",
                ratio(self.reordered as f64, self.compared as f64),
            ),
            ("core.report.render_ms", med("core.report.render_ms")),
            ("core.diff.ms", med("core.diff.ms")),
            ("core.hub.publishes", per_round(Counter::SnapshotsMerged)),
            ("core.hub.latest_ms", med("core.hub.latest_ms")),
            ("core.hub.delta_since_ms", med("core.hub.delta_since_ms")),
            (
                "live.prometheus.render_ms",
                med("live.prometheus.render_ms"),
            ),
            ("live.metrics_kb", med("live.metrics_kb")),
            ("live.agg.delta_kb", med("live.agg.delta_kb")),
            ("live.agg.fleet_ms", med("live.agg.fleet_ms")),
            (
                "htmbench.harness.setup_ms",
                self.span_mean_ms(Subsystem::Harness, "setup"),
            ),
            (
                "htmbench.harness.worker_ms",
                self.span_mean_ms(Subsystem::Harness, "worker"),
            ),
            (
                "htmbench.harness.verify_ms",
                self.span_mean_ms(Subsystem::Harness, "verify"),
            ),
            ("obs.spans_dropped", self.spans_dropped as f64),
            (
                "obs.trace_overhead_x",
                ratio(self.run_s(true), self.run_s(false)),
            ),
            (
                "bench.gen_late_p90_ms",
                percentile(self.samples_of("gen_late_ms"), 90.0),
            ),
            ("bench.rounds_late", self.rounds_late as f64),
        ]
    }

    /// Human-readable distribution lines for the run's log.
    pub fn distributions(&self) -> Vec<String> {
        ["scrape_ms", "poll_ms", "gen_late_ms"]
            .iter()
            .map(|k| format!("{k}: {}", Summary::of(self.samples_of(k)).render("ms")))
            .collect()
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
