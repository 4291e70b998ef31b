//! The three workloads and the loops that drive them.
//!
//! * `contended-stm` — 2 threads on the STM fallback, closed loop of long
//!   profiled runs with native twins; the scheduler, directory, HTM engine,
//!   retry loop and TL2 commit do the work.
//! * `solo-overhead` — 1 thread, alternating native/profiled pairs of short
//!   runs; the PMU, collector and CCT carry the profiler's cost, and every
//!   run must repeat the first round exactly.
//! * `serve-fleet` — paced single-thread rounds publish into a snapshot hub
//!   served over HTTP while an open loop scrapes `/metrics` and polls the
//!   hub through a fleet aggregator.
//!
//! The first two scrape a quiescent hub, filled by one profiled run, in a
//! short burst after every round, so every workload reports every
//! end-to-end metric.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use htmbench::harness::{RunConfig, RunOutcome};
use live::{Aggregator, LiveServer};
use obs::Subsystem;
use rtm_runtime::FallbackKind;
use txsampler::collect::{SnapshotHub, SnapshotPolicy};
use txsampler::report::{render_report, ReportOptions};
use txsampler::{diff_profiles, Profile, ProfileView, Thresholds};
use txsim_htm::{DomainConfig, FuncRegistry, HtmDomain, SamplingConfig};

use crate::checks::{self, Program, Sameness};
use crate::pacing::Schedule;
use crate::tally::{Pair, Tally, WINDOW};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two threads, STM fallback, long profiled runs.
    ContendedStm,
    /// One thread, native/profiled pairs of short runs.
    SoloOverhead,
    /// Paced rounds publishing into a scraped, aggregated hub.
    ServeFleet,
}

/// What a workload runs: its programs and the configuration they share.
#[derive(Debug, Clone)]
pub struct Mix {
    /// Simulated threads per run.
    pub threads: usize,
    /// Fallback backend.
    pub fallback: FallbackKind,
    /// Sampling preset of profiled runs.
    pub sampling: SamplingConfig,
    /// Name of `sampling`.
    pub sampling_name: &'static str,
    /// Registry programs with their scale (100 = nominal input size).
    pub programs: Vec<(&'static str, u64)>,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::ContendedStm,
        Workload::SoloOverhead,
        Workload::ServeFleet,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ContendedStm => "contended-stm",
            Workload::SoloOverhead => "solo-overhead",
            Workload::ServeFleet => "serve-fleet",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's programs and configuration.
    pub fn mix(self) -> Mix {
        match self {
            Workload::ContendedStm => Mix {
                threads: 2,
                fallback: FallbackKind::Stm,
                sampling: SamplingConfig::txsampler_default(),
                sampling_name: "paper-default",
                programs: vec![("micro/starved_writer", 50), ("stamp/vacation", 200)],
            },
            Workload::SoloOverhead => Mix {
                threads: 1,
                fallback: FallbackKind::Lock,
                sampling: SamplingConfig::dense(),
                sampling_name: "dense",
                programs: vec![
                    ("micro/nested_calls", 500),
                    ("stamp/intruder", 500),
                    ("leveldb", 500),
                ],
            },
            Workload::ServeFleet => Mix {
                threads: 1,
                fallback: FallbackKind::Lock,
                sampling: SamplingConfig::dense(),
                sampling_name: "dense",
                programs: vec![("micro/nested_calls", 100), ("leveldb", 100)],
            },
        }
    }
}

impl Mix {
    /// The profiled run configuration for one program.
    pub fn config(&self, scale: u64, seed: u64) -> RunConfig {
        let mut cfg = RunConfig::paper_default()
            .with_threads(self.threads)
            .with_scale(scale)
            .with_seed(seed)
            .with_fallback(self.fallback);
        cfg.sampling = self.sampling.clone();
        cfg
    }
}

/// How long and how hard one benchmark run works.
#[derive(Debug, Clone)]
pub struct Params {
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget.
    pub budget: Duration,
    /// Traced run: alternate traced and untraced rounds.
    pub trace: bool,
    /// Percent applied to every program's scale (100 = as defined).
    pub scale_pct: u64,
}

impl Params {
    /// Full-size parameters for a `seconds`-long run.
    pub fn new(seed: u64, seconds: u64, trace: bool) -> Params {
        Params {
            seed,
            budget: Duration::from_secs(seconds),
            trace,
            scale_pct: 100,
        }
    }
}

/// Rounds to run even when the budget is spent.
const MIN_ROUNDS: u64 = 3;
/// Scrapes `serve-fleet`'s open loop sends at least: one latency window.
const MIN_SCRAPES: u64 = WINDOW as u64;
/// Open-loop scrape period of `serve-fleet`.
const SCRAPE_PERIOD: Duration = Duration::from_millis(10);
/// Scrape period of the closed-loop workloads' bursts.
const BURST_PERIOD: Duration = Duration::from_millis(2);
/// Scrapes per burst, one burst after every closed-loop round: one
/// latency window.
const BURST_SCRAPES: u64 = WINDOW as u64;
/// Round period of `serve-fleet`'s paced load.
const ROUND_PERIOD: Duration = Duration::from_millis(1000);
/// Collectors flush a delta to the hub every this many samples.
const SNAPSHOT_SAMPLES: u64 = 50;
/// Direct `HtmDomain::new` calls timed by a traced run.
const DOMAIN_PROBES: usize = 3;

/// Run `workload` and return what it measured.
pub fn run(workload: Workload, params: &Params) -> Tally {
    let mix = workload.mix();
    let programs = mix
        .programs
        .iter()
        .map(|&(name, _)| Program::named(name).expect("workload programs have identities"))
        .collect();
    run_with(workload, &mix, programs, params)
}

/// Run `workload` with explicit programs (one per entry of
/// `mix.programs`, in order); tests inject wrong identities here.
pub fn run_with(workload: Workload, mix: &Mix, programs: Vec<Program>, params: &Params) -> Tally {
    assert_eq!(
        programs.len(),
        mix.programs.len(),
        "one program per mix entry"
    );
    let scales: Vec<u64> = mix
        .programs
        .iter()
        .map(|&(_, s)| (s * params.scale_pct / 100).max(1))
        .collect();
    let programs: Vec<(Program, u64)> = programs.into_iter().zip(scales).collect();
    if params.trace {
        obs::spans::set_span_capacity(1 << 16);
        obs::registry().reset();
        let _ = obs::take_traces();
    }
    let mut tally = Tally::default();
    let start = Instant::now();
    match workload {
        Workload::ServeFleet => serve_fleet(mix, &programs, params, start, &mut tally),
        Workload::ContendedStm | Workload::SoloOverhead => {
            let deterministic = workload == Workload::SoloOverhead;
            if let Some(mut plane) = quiet_plane(mix, &programs[0], params, &mut tally) {
                closed_rounds(
                    mix,
                    &programs,
                    params,
                    start,
                    deterministic,
                    &mut plane,
                    &mut tally,
                );
                plane.settle(&mut tally);
            }
        }
    }
    set_obs(false);
    if params.trace {
        tally.harvest_spans();
        time_domain_new(mix, &mut tally);
    }
    tally
}

fn set_obs(on: bool) {
    obs::set_enabled(on);
    obs::set_tracing(on);
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn kb(bytes: usize) -> f64 {
    bytes as f64 / 1024.0
}

/// Call `f` inside a benchmark span and time it.
fn timed<T>(subsystem: Subsystem, label: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    let _span = obs::span(subsystem, label);
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// One `Spec::run` call whose output passed its identity; the call time.
fn run_checked(prog: &Program, cfg: &RunConfig) -> Result<(RunOutcome, Duration), String> {
    let (out, call) = timed(Subsystem::Harness, "bench.run", || {
        catch_unwind(AssertUnwindSafe(|| (prog.spec.run)(cfg)))
    });
    let out = out.map_err(|_| format!("{}: run panicked", prog.name()))?;
    (prog.identity)(&out, cfg).map_err(|e| format!("{}: {e}", prog.name()))?;
    Ok((out, call))
}

/// A run's set-up time: the call minus its parallel phase.
fn setup_of(out: &RunOutcome, call: Duration) -> f64 {
    call.saturating_sub(out.wall).as_secs_f64()
}

/// A checked profiled flow — the `repro profile --out` path.
struct Flow {
    out: RunOutcome,
    text: String,
    call: Duration,
    flow: Duration,
}

/// `Spec::run` + `store::save_with_funcs` + `report::render_report`, then
/// the store round trip (timed apart from the flow).
fn profile_flow(prog: &Program, cfg: &RunConfig, tally: &mut Tally) -> Result<Flow, String> {
    let (out, call) = run_checked(prog, cfg)?;
    let profile = out
        .profile
        .as_ref()
        .ok_or_else(|| format!("{}: profiled run has no profile", prog.name()))?;
    let (text, save) = timed(Subsystem::Harness, "bench.store.save", || {
        txsampler::store::save_with_funcs(profile, &out.funcs)
    });
    let (_, render) = timed(Subsystem::Harness, "bench.report.render", || {
        render_report(
            &ProfileView::from_registry(profile, &out.funcs),
            &ReportOptions::default(),
        )
    });
    tally.sample("core.store.save_ms", ms(save));
    tally.sample("core.report.render_ms", ms(render));
    tally.sample("core.store.kb", kb(text.len()));

    let (loaded, load) = timed(Subsystem::Harness, "bench.store.load", || {
        txsampler::store::load_with_funcs(&text)
    });
    tally.sample("core.store.load_ms", ms(load));
    let (again, names) =
        loaded.map_err(|e| format!("{}: saved profile does not load: {e}", prog.name()))?;
    note_sameness(tally, &text, &checks::resave(&again, &names))
        .map_err(|e| format!("{}: load -> save {e}", prog.name()))?;
    Ok(Flow {
        out,
        text,
        call,
        flow: call + save + render,
    })
}

/// Compare a saved profile with an earlier text that must hold the same
/// records; byte-level differences are counted, not failed.
fn note_sameness(tally: &mut Tally, a: &str, b: &str) -> Result<(), String> {
    match checks::compare(a, b) {
        Sameness::Different => Err("changed the profile's records".into()),
        same => {
            tally.compared += 1;
            tally.reordered += u64::from(same == Sameness::RecordsOnly);
            Ok(())
        }
    }
}

/// What the first round of a deterministic workload produced, per program.
struct Reference {
    native: (u64, u64, u64),
    profiled: (u64, u64, u64),
    text: String,
}

fn sim_key(out: &RunOutcome) -> (u64, u64, u64) {
    (out.makespan_cycles, out.total_cycles, out.checksum)
}

/// One program's native twin and profiled flow, in the given order.
/// Returns both on success.
fn pair(
    prog: &Program,
    cfg: &RunConfig,
    native_cfg: &RunConfig,
    native_first: bool,
    tally: &mut Tally,
) -> Option<((RunOutcome, Duration), Flow)> {
    let mut native = None;
    let mut flow = None;
    for step in 0..2 {
        if (step == 0) == native_first {
            let result = run_checked(prog, native_cfg);
            tally.outcome(result.as_ref().map(|_| ()).map_err(Clone::clone));
            native = result.ok();
        } else {
            let result = profile_flow(prog, cfg, tally);
            tally.outcome(result.as_ref().map(|_| ()).map_err(Clone::clone));
            flow = result.ok();
        }
    }
    Some((native?, flow?))
}

/// One round's pair, as the tally keeps it.
fn pair_record(round: u64, traced: bool, native: &(RunOutcome, Duration), flow: &Flow) -> Pair {
    Pair {
        round,
        traced,
        flow_s: flow.flow.as_secs_f64(),
        setup_s: [
            setup_of(&native.0, native.1),
            setup_of(&flow.out, flow.call),
        ],
        profiled_wall_s: flow.out.wall.as_secs_f64(),
        native_wall_s: native.0.wall.as_secs_f64(),
        cycles: flow.out.total_cycles,
        makespan: flow.out.makespan_cycles,
        wasted_cycles: flow.out.stats.wasted_cycles,
    }
}

/// Time `diff_profiles` of a program's previous profile against this one.
fn time_diff(prev: &mut Option<Profile>, flow: &Flow, tally: &mut Tally) {
    let profile = flow.out.profile.as_ref().expect("flows carry a profile");
    if let Some(before) = prev.as_ref() {
        let (_, d) = timed(Subsystem::Harness, "bench.diff", || {
            diff_profiles(before, profile, &Thresholds::default())
        });
        tally.sample("core.diff.ms", ms(d));
    }
    *prev = Some(profile.clone());
}

/// Closed loop of rounds until the budget is spent, each followed by a
/// scrape burst. With `deterministic`, every round must repeat the first
/// exactly.
fn closed_rounds(
    mix: &Mix,
    programs: &[(Program, u64)],
    params: &Params,
    start: Instant,
    deterministic: bool,
    plane: &mut Plane,
    tally: &mut Tally,
) {
    let deadline = start + params.budget;
    let mut refs: Vec<Option<Reference>> = programs.iter().map(|_| None).collect();
    let mut prev: Vec<Option<Profile>> = programs.iter().map(|_| None).collect();
    let mut i = 0u64;
    // Start a round only if a round as long as the longest so far still
    // ends within the budget.
    let mut longest = Duration::ZERO;
    while i < MIN_ROUNDS || Instant::now() + longest <= deadline {
        let round_start = Instant::now();
        let traced = params.trace && i % 2 == 1;
        set_obs(traced);
        let mut pairs = Vec::new();
        let mut complete = true;
        for (k, (prog, scale)) in programs.iter().enumerate() {
            let cfg = mix.config(*scale, params.seed);
            let native_cfg = cfg.clone().native();
            let native_first = (i + k as u64).is_multiple_of(2);
            let Some((native, flow)) = pair(prog, &cfg, &native_cfg, native_first, tally) else {
                complete = false;
                continue;
            };
            if deterministic {
                if let Err(e) = repeat_check(&mut refs[k], &native.0, &flow, tally) {
                    tally.fail(format!("{}: round {i}: {e}", prog.name()));
                    complete = false;
                    continue;
                }
            }
            time_diff(&mut prev[k], &flow, tally);
            pairs.push(pair_record(i, traced, &native, &flow));
        }
        let burst = Schedule::new(Instant::now(), BURST_PERIOD);
        for j in 0..BURST_SCRAPES {
            plane.tick(&burst, j, traced, tally);
        }
        set_obs(false);
        if traced {
            tally.harvest_obs();
        }
        if complete {
            tally.round(traced, pairs);
        }
        longest = longest.max(round_start.elapsed());
        i += 1;
    }
}

/// Single-thread runs are deterministic: simulated cycles, checksums and
/// saved profiles must repeat, and native and profiled runs agree.
fn repeat_check(
    reference: &mut Option<Reference>,
    native: &RunOutcome,
    flow: &Flow,
    tally: &mut Tally,
) -> Result<(), String> {
    if native.checksum != flow.out.checksum {
        return Err(format!(
            "native checksum {} != profiled checksum {}",
            native.checksum, flow.out.checksum
        ));
    }
    let Some(r) = reference else {
        *reference = Some(Reference {
            native: sim_key(native),
            profiled: sim_key(&flow.out),
            text: flow.text.clone(),
        });
        return Ok(());
    };
    if sim_key(native) != r.native || sim_key(&flow.out) != r.profiled {
        return Err(format!(
            "(makespan, cycles, checksum) changed: native {:?} vs {:?}, profiled {:?} vs {:?}",
            sim_key(native),
            r.native,
            sim_key(&flow.out),
            r.profiled
        ));
    }
    note_sameness(tally, &r.text, &flow.text).map_err(|e| format!("saved profile {e}"))
}

/// The live plane: an HTTP server over a hub and an aggregator following it.
struct Plane {
    hub: Arc<SnapshotHub>,
    server: LiveServer,
    agg: Aggregator,
    last_epoch: u64,
}

impl Plane {
    fn start(hub: Arc<SnapshotHub>, funcs: FuncRegistry) -> Result<Plane, String> {
        let server = LiveServer::start(Arc::clone(&hub), funcs, 0)
            .map_err(|e| format!("live server: {e}"))?;
        let agg = Aggregator::new(&[server.addr().to_string()])
            .map_err(|e| format!("aggregator: {e}"))?;
        Ok(Plane {
            hub,
            server,
            agg,
            last_epoch: 0,
        })
    }

    fn status(&self) -> live::agg::InstanceStatus {
        self.agg.statuses().remove(0)
    }

    /// One poll of every follower; fails when the poll errored.
    fn poll(&self) -> Result<(Duration, u64), String> {
        let before = self.status();
        let (_, took) = timed(Subsystem::Live, "bench.agg.poll_all", || {
            self.agg.poll_all()
        });
        let after = self.status();
        if after.errors > before.errors {
            return Err(format!(
                "poll failed: {}",
                after.last_error.unwrap_or_default()
            ));
        }
        Ok((took, after.delta_bytes - before.delta_bytes))
    }

    /// Open-loop tick `i`: GET `/metrics` timed from its due time, then
    /// one aggregator poll. Traced runs also time the layers directly.
    fn tick(&mut self, sched: &Schedule, i: u64, trace: bool, tally: &mut Tally) {
        tally.sample("gen_late_ms", ms(sched.wait_for(i)));
        let got = timed(Subsystem::Live, "bench.http.metrics", || {
            live::http_get(self.server.addr(), "/metrics")
        })
        .0;
        let done = Instant::now();
        let scrape = match got {
            Ok((status, body)) if status.contains(" 200") => {
                tally.sample("scrape_ms", ms(sched.latency(i, done)));
                tally.sample("live.metrics_kb", kb(body.len()));
                Ok(())
            }
            Ok((status, _)) => Err(format!("/metrics returned {status}")),
            Err(e) => Err(format!("/metrics: {e}")),
        };
        tally.outcome(scrape);
        let poll = self.poll().map(|(took, bytes)| {
            tally.sample("poll_ms", ms(took));
            tally.sample("live.agg.delta_kb", kb(bytes as usize));
        });
        tally.outcome(poll);
        if trace {
            self.time_layers(tally);
        }
    }

    /// Direct calls into the hub, the Prometheus renderer and the fleet merge.
    fn time_layers(&mut self, tally: &mut Tally) {
        let (view, d) = timed(Subsystem::Live, "bench.hub.latest", || self.hub.latest());
        tally.sample("core.hub.latest_ms", ms(d));
        let since = self.last_epoch;
        let (_, d) = timed(Subsystem::Live, "bench.hub.delta_since", || {
            self.hub.delta_since(since)
        });
        tally.sample("core.hub.delta_since_ms", ms(d));
        self.last_epoch = view.epoch;
        let window = self.hub.window();
        let (_, d) = timed(Subsystem::Live, "bench.prometheus.render", || {
            live::prometheus::render(&view, window.as_ref(), &obs::registry().snapshot())
        });
        tally.sample("live.prometheus.render_ms", ms(d));
        let (_, d) = timed(Subsystem::Live, "bench.agg.fleet", || self.agg.fleet());
        tally.sample("live.agg.fleet_ms", ms(d));
    }

    /// After the load stops: one final poll, then the fleet's totals must
    /// equal the hub's cumulative totals.
    fn settle(&self, tally: &mut Tally) {
        let result = self.poll().and_then(|_| {
            let (fleet, _) = self.agg.fleet();
            let hub = self.hub.latest().profile;
            if fleet.samples == hub.samples && fleet.totals() == hub.totals() {
                Ok(())
            } else {
                Err(format!(
                    "fleet totals differ from the hub's: {} vs {} samples",
                    fleet.samples, hub.samples
                ))
            }
        });
        tally.outcome(result);
    }
}

/// The closed-loop workloads' live plane: a hub filled by one profiled run
/// of the first program, quiet while it is scraped.
fn quiet_plane(
    mix: &Mix,
    (prog, scale): &(Program, u64),
    params: &Params,
    tally: &mut Tally,
) -> Option<Plane> {
    let funcs = FuncRegistry::new();
    let hub = SnapshotHub::new(SnapshotPolicy::EverySamples(SNAPSHOT_SAMPLES));
    let cfg = mix
        .config(*scale, params.seed)
        .with_funcs(funcs.clone())
        .with_hub(Arc::clone(&hub));
    let filled = run_checked(prog, &cfg).map(|_| ());
    tally.outcome(filled);
    match Plane::start(hub, funcs) {
        Ok(p) => Some(p),
        Err(e) => {
            tally.outcome(Err(e));
            None
        }
    }
}

/// `serve-fleet`: a writer thread runs paced rounds into the hub while this
/// thread scrapes and polls on an open loop.
fn serve_fleet(
    mix: &Mix,
    programs: &[(Program, u64)],
    params: &Params,
    start: Instant,
    tally: &mut Tally,
) {
    let funcs = FuncRegistry::new();
    let hub = SnapshotHub::new(SnapshotPolicy::EverySamples(SNAPSHOT_SAMPLES));
    let mut plane = match Plane::start(Arc::clone(&hub), funcs.clone()) {
        Ok(p) => p,
        Err(e) => return tally.outcome(Err(e)),
    };
    let deadline = start + params.budget;
    let rounds = Schedule::new(start, ROUND_PERIOD);
    let writer_tally = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut t = Tally::default();
            paced_rounds(
                mix, programs, params, &rounds, deadline, &hub, &funcs, &mut t,
            );
            t
        });
        let sched = Schedule::new(start, SCRAPE_PERIOD);
        let mut i = 0;
        while i < MIN_SCRAPES || (Instant::now() < deadline && !writer.is_finished()) {
            plane.tick(&sched, i, params.trace, tally);
            i += 1;
        }
        writer.join().expect("serve writer thread panicked")
    });
    tally.merge(writer_tally);
    plane.settle(tally);
}

/// Round `i` starts at its due time and runs every program once; a round
/// still running when the next falls due is late.
#[allow(clippy::too_many_arguments)]
fn paced_rounds(
    mix: &Mix,
    programs: &[(Program, u64)],
    params: &Params,
    sched: &Schedule,
    deadline: Instant,
    hub: &Arc<SnapshotHub>,
    funcs: &FuncRegistry,
    tally: &mut Tally,
) {
    let mut prev: Vec<Option<Profile>> = programs.iter().map(|_| None).collect();
    let mut i = 0u64;
    while i < MIN_ROUNDS || sched.due(i + 1) <= deadline {
        sched.wait_for(i);
        let traced = params.trace && i % 2 == 1;
        set_obs(traced);
        let mut pairs = Vec::new();
        let mut complete = true;
        // A fresh, well-spread seed per round, as `run_sustained` does.
        let seed = params.seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for (k, (prog, scale)) in programs.iter().enumerate() {
            let native_cfg = mix.config(*scale, seed).native();
            let cfg = mix
                .config(*scale, seed)
                .with_funcs(funcs.clone())
                .with_hub(Arc::clone(hub));
            match pair(
                prog,
                &cfg,
                &native_cfg,
                (i + k as u64).is_multiple_of(2),
                tally,
            ) {
                Some((native, flow)) => {
                    time_diff(&mut prev[k], &flow, tally);
                    pairs.push(pair_record(i, traced, &native, &flow));
                }
                None => complete = false,
            }
        }
        set_obs(false);
        if traced {
            tally.harvest_obs();
        }
        if complete {
            tally.round(traced, pairs);
        }
        tally.rounds_late += u64::from(sched.overran(i, Instant::now()));
        i += 1;
    }
}

/// Time `HtmDomain::new` directly, as the harness calls it.
fn time_domain_new(mix: &Mix, tally: &mut Tally) {
    for _ in 0..DOMAIN_PROBES {
        let cfg = DomainConfig {
            cooperative: mix.threads > 1,
            ..DomainConfig::default()
        };
        let (domain, d) = timed(Subsystem::Harness, "bench.domain_new", || {
            HtmDomain::new(cfg)
        });
        drop(domain);
        tally.sample("txsim-mem.domain_new_ms", ms(d));
    }
}
