//! `txbench ablate` — ablation benchmarks for the allocation-free sampling
//! fast path and the sharded conflict directory.
//!
//! Two sections, both emitted as TSV on stdout:
//!
//! * `collector` — per-sample collector cost across thread counts, two
//!   variants: `arena_owned` (reused scratch + arena CCT + thread-owned
//!   profile) and `collector_e2e` (the real `Collector::on_sample`,
//!   classification and shadow memory included).
//! * `directory` — wall time and dooms for the `true_sharing` microbench
//!   with the conflict directory collapsed to 1 shard vs. the default 128.
//!
//! ```text
//! ablate [--threads 1,2,4,8,16,32] [--samples N] [--scale S] [--seed S]
//! ```

use std::sync::Arc;
use std::time::Instant;

use htmbench::harness::RunConfig;
use rtm_runtime::ThreadState;
use txsampler::cct::NodeKey;
use txsampler::{Cct, Collector, ContentionMap};
use txsim_htm::DomainConfig;
use txsim_mem::CacheGeometry;
use txsim_pmu::{
    BranchKind, EventKind, Frame, FuncId, Ip, LbrEntry, Sample, SampleSink, SamplingConfig,
};

fn usage() -> ! {
    eprintln!(
        "usage: ablate [--threads LIST] [--samples N] [--scale S] [--seed SEED]\n\
         \n\
         --threads LIST   comma-separated thread counts (default 1,2,4,8,16,32)\n\
         --samples N      synthetic samples per thread in the collector section\n\
         \u{20}                (default 200000)\n\
         --scale S        workload scale for the directory section (default 10)\n\
         --seed SEED      workload seed (default 0x7c5)"
    );
    std::process::exit(2);
}

fn parse_flag<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> T {
    let Some(raw) = args.get(i) else {
        eprintln!("missing value for {flag}");
        usage();
    };
    raw.parse().unwrap_or_else(|_| {
        eprintln!("bad value for {flag}: {raw}");
        usage();
    })
}

/// One synthetic sample with its unwound stack, cycling over a converged
/// context set (the steady state both designs optimize for).
struct SyntheticLoad {
    samples: Vec<(Sample, Vec<Frame>)>,
}

impl SyntheticLoad {
    fn new(contexts: usize) -> Self {
        let samples = (0..contexts)
            .map(|c| {
                let c = c as u32;
                let stack: Vec<Frame> = (0..4)
                    .map(|d| Frame {
                        func: FuncId(d + 1),
                        callsite: Ip::new(FuncId(d), 2 * d + 1 + (c % 7)),
                    })
                    .collect();
                let in_tx = c.is_multiple_of(3);
                let lbr = if in_tx {
                    vec![
                        LbrEntry {
                            from: Ip::new(FuncId(4), 7 + c % 5),
                            to: Ip::new(FuncId(40 + c % 4), 0),
                            kind: BranchKind::Call,
                            in_tsx: true,
                            abort: false,
                        },
                        LbrEntry {
                            from: Ip::new(FuncId(40 + c % 4), 9),
                            to: Ip::new(FuncId(40 + c % 4), 9),
                            kind: BranchKind::Interrupt,
                            in_tsx: false,
                            abort: true,
                        },
                    ]
                } else {
                    Vec::new()
                };
                let sample = Sample {
                    event: EventKind::Cycles,
                    ip: Ip::new(FuncId(4), 100 + c % 11),
                    tid: 0,
                    in_tx,
                    caused_abort: in_tx,
                    addr: None,
                    weight: 0,
                    abort_class: None,
                    tsc: c as u64,
                    lbr,
                };
                (sample, stack)
            })
            .collect();
        SyntheticLoad { samples }
    }
}

/// The collector's per-sample shape without classification: reused
/// scratch, arena tree, owned state.
fn run_arena_owned(load: &SyntheticLoad, samples: u64) -> u64 {
    let mut cct = Cct::new();
    let mut scratch: Vec<NodeKey> = Vec::with_capacity(256);
    let mut tx_scratch: Vec<Frame> = Vec::with_capacity(256);
    let mut count = 0u64;
    for i in 0..samples {
        let (sample, stack) = &load.samples[(i as usize) % load.samples.len()];
        scratch.clear();
        for f in stack {
            scratch.push(NodeKey::Frame {
                func: f.func,
                callsite: f.callsite,
                speculative: false,
            });
        }
        if sample.in_tx {
            let anchor = stack.last().map(|f| f.func).unwrap_or(FuncId::UNKNOWN);
            txsampler::reconstruct_tx_path_into(&sample.lbr, anchor, &mut tx_scratch);
            for f in &tx_scratch {
                scratch.push(NodeKey::Frame {
                    func: f.func,
                    callsite: f.callsite,
                    speculative: true,
                });
            }
        }
        scratch.push(NodeKey::Stmt {
            ip: sample.ip,
            speculative: sample.in_tx,
        });
        let node = cct.path(scratch.iter().copied());
        cct.metrics_mut(node).w += 1;
        count += 1;
    }
    count
}

/// The real collector, end to end (classification + shadow memory).
fn run_collector_e2e(load: &SyntheticLoad, samples: u64) -> u64 {
    let contention = Arc::new(ContentionMap::with_defaults(CacheGeometry::default()));
    let (mut collector, handle) = Collector::new(
        0,
        ThreadState::new(),
        contention,
        &SamplingConfig::txsampler_default(),
    );
    for i in 0..samples {
        let (sample, stack) = &load.samples[(i as usize) % load.samples.len()];
        collector.on_sample(sample, stack);
    }
    collector.flush();
    handle.take().samples
}

type Variant = fn(&SyntheticLoad, u64) -> u64;

fn bench_collector(threads: usize, samples: u64) -> Vec<(String, f64)> {
    let variants: Vec<(&str, Variant)> = vec![
        ("arena_owned", run_arena_owned),
        ("collector_e2e", run_collector_e2e),
    ];
    variants
        .into_iter()
        .map(|(name, run)| {
            // Warm-up pass on one thread so first-touch costs (context
            // creation, allocator pools) don't pollute the measurement.
            let load = SyntheticLoad::new(64);
            let _ = run(&load, samples / 10);
            let started = Instant::now();
            let total: u64 = std::thread::scope(|s| {
                (0..threads)
                    .map(|_| {
                        s.spawn(|| {
                            let load = SyntheticLoad::new(64);
                            run(&load, samples)
                        })
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().expect("bench worker"))
                    .sum()
            });
            let elapsed = started.elapsed();
            assert!(total >= samples * threads as u64 / 2, "work disappeared");
            let ns_per_sample = elapsed.as_nanos() as f64 / (samples * threads as u64) as f64;
            (name.to_string(), ns_per_sample)
        })
        .collect()
}

fn bench_directory(threads: usize, scale: u64, seed: u64) -> Vec<(usize, f64, u64)> {
    [1usize, 128]
        .into_iter()
        .map(|shards| {
            let mut cfg = RunConfig::quick()
                .with_threads(threads)
                .with_scale(scale)
                .with_seed(seed)
                .native();
            cfg.domain = DomainConfig::default().with_directory_shards(shards);
            let out = htmbench::micro::true_sharing(&cfg);
            (
                shards,
                out.wall.as_secs_f64() * 1e3,
                out.stats.aborts_conflict,
            )
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut threads: Vec<usize> = vec![1, 2, 4, 8, 16, 32];
    let mut samples: u64 = 200_000;
    let mut scale: u64 = 10;
    let mut seed: u64 = 0x7c5;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                let list: String = parse_flag(&args, i + 1, "--threads");
                threads = list
                    .split(',')
                    .map(|t| {
                        t.trim().parse().unwrap_or_else(|_| {
                            eprintln!("bad thread count: {t}");
                            usage();
                        })
                    })
                    .collect();
                if threads.is_empty() {
                    usage();
                }
                i += 2;
            }
            "--samples" => {
                samples = parse_flag(&args, i + 1, "--samples");
                i += 2;
            }
            "--scale" => {
                scale = parse_flag(&args, i + 1, "--scale");
                i += 2;
            }
            "--seed" => {
                seed = parse_flag(&args, i + 1, "--seed");
                i += 2;
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }

    println!("section\tthreads\tvariant\tns_per_sample");
    for &t in &threads {
        for (variant, ns) in bench_collector(t, samples) {
            println!("collector\t{t}\t{variant}\t{ns:.1}");
        }
    }
    println!("section\tthreads\tshards\twall_ms\tconflict_aborts");
    for &t in &threads {
        for (shards, wall_ms, aborts) in bench_directory(t, scale, seed) {
            println!("directory\t{t}\t{shards}\t{wall_ms:.1}\t{aborts}");
        }
    }
}
