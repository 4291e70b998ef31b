//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`

use std::process::ExitCode;

use perfbench::metrics::result_json;
use perfbench::workloads::{self, Params, Workload};

const USAGE: &str = "usage: perfbench --workload <contended-stm|solo-overhead|serve-fleet> \
                     --seed <n> --seconds <1-600> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 600)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// The revision under test, when run from the root of a git checkout.
fn git_revision() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn print_header(args: &Args) {
    let mix = args.workload.mix();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} rev={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_revision()
    );
    let programs: Vec<String> = mix
        .programs
        .iter()
        .map(|(name, scale)| format!("{name}@scale={scale}"))
        .collect();
    println!(
        "config threads={} fallback={} cm=backoff sampling={} programs={}",
        mix.threads,
        mix.fallback.label(),
        mix.sampling_name,
        programs.join(",")
    );
    println!(
        "limits: simulated caches start empty on every run; the timing model is not \
         validated against TSX hardware. Its accuracy reference is the runtime's exact \
         Truth (paper section 7.2), so no hardware-error figure is given."
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    print_header(&args);
    let params = Params::new(args.seed, args.seconds, args.trace);
    let tally = workloads::run(args.workload, &params);
    for line in tally.distributions() {
        println!("{line}");
    }
    println!(
        "rounds={} attempted={} failed={} error_rate={}",
        tally.rounds,
        tally.attempted,
        tally.failed,
        perfbench::tally::ratio(tally.failed as f64, tally.attempted as f64)
    );
    for f in &tally.failures {
        println!("FAILED: {f}");
    }
    let metrics = if args.trace {
        tally.per_layer()
    } else {
        tally.end_to_end(peak_rss_mb())
    };
    let correct = tally.failed == 0 && tally.rounds > 0;
    println!(
        "{}",
        result_json(correct, tally.attempted.max(1), tally.failed, &metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload serve-fleet --seed 42 --seconds 30 --trace 1",
        ))
        .expect("valid");
        assert_eq!(a.workload, Workload::ServeFleet);
        assert_eq!((a.seed, a.seconds, a.trace), (42, 30, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload solo-overhead --seed x",
            "--workload solo-overhead --trace 2",
            "--workload solo-overhead --seed",
            "--workload solo-overhead --bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }
}
