//! Output checks that hold under any thread interleaving.
//!
//! Each program's checksum obeys an exact identity against the runtime's
//! ground truth (`Truth`), the same identities its crate tests assert.
//! None of them compares abort counts, profiles or makespans across
//! multi-thread runs: those depend on the schedule.

use htmbench::harness::{RunConfig, RunOutcome};
use htmbench::registry::Spec;

/// Checks one run's outcome against its program's identity.
pub type Identity = fn(&RunOutcome, &RunConfig) -> Result<(), String>;

/// A registry program paired with the identity its output must satisfy.
pub struct Program {
    /// The registry entry.
    pub spec: Spec,
    /// The output identity.
    pub identity: Identity,
}

impl Program {
    /// Look `name` up in the registry; `None` for unknown programs or
    /// programs without a known identity.
    pub fn named(name: &str) -> Option<Program> {
        let identity = identity_for(name)?;
        let spec = htmbench::registry::all()
            .into_iter()
            .find(|s| s.name == name)?;
        Some(Program { spec, identity })
    }

    /// Registry name.
    pub fn name(&self) -> &'static str {
        self.spec.name
    }
}

/// The identity for a registry program, if the benchmark knows one.
pub fn identity_for(name: &str) -> Option<Identity> {
    Some(match name {
        "micro/true_sharing" => true_sharing,
        "micro/starved_writer" => starved_writer,
        "micro/nested_calls" => nested_calls,
        "stamp/vacation" => vacation,
        "stamp/intruder" => intruder,
        "leveldb" => leveldb,
        _ => return None,
    })
}

/// `Worker::scaled`: `n · scale / 100`, at least 1.
fn scaled(cfg: &RunConfig, n: u64) -> u64 {
    (n * cfg.scale / 100).max(1)
}

/// Critical sections completed, on hardware or on the fallback path.
fn completions(out: &RunOutcome) -> u64 {
    let t = out.truth.totals();
    t.htm_commits + t.fallbacks
}

fn expect_eq(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got}, want {want}"))
    }
}

/// Every completion increments the shared counter once.
fn true_sharing(out: &RunOutcome, _: &RunConfig) -> Result<(), String> {
    expect_eq(
        "checksum = commits + fallbacks",
        out.checksum,
        completions(out),
    )
}

/// Each small completion bumps one slot, each big one bumps every slot.
fn starved_writer(out: &RunOutcome, cfg: &RunConfig) -> Result<(), String> {
    // The big writer's critical section is the one at line 81.
    let big = out
        .truth
        .iter()
        .filter(|(ip, _)| ip.line == 81)
        .map(|(_, s)| s.htm_commits + s.fallbacks)
        .sum::<u64>();
    let small = completions(out) - big;
    let slots = (cfg.threads as u64).max(2);
    expect_eq("big completions", big, scaled(cfg, 2_000))?;
    expect_eq(
        "small completions",
        small,
        (cfg.threads as u64 - 1) * scaled(cfg, 40_000),
    )?;
    expect_eq(
        "checksum = small + slots x big",
        out.checksum,
        small + slots * big,
    )
}

/// Every reservation completes and books six seats.
fn vacation(out: &RunOutcome, cfg: &RunConfig) -> Result<(), String> {
    let done = completions(out);
    expect_eq(
        "completions = threads x scaled(3000)",
        done,
        cfg.threads as u64 * scaled(cfg, 3_000),
    )?;
    expect_eq("checksum = 6 x completions + 1", out.checksum, 6 * done + 1)
}

/// Every call-chain iteration increments the counter once.
fn nested_calls(out: &RunOutcome, cfg: &RunConfig) -> Result<(), String> {
    let want = cfg.threads as u64 * scaled(cfg, 20_000);
    expect_eq("completions", completions(out), want)?;
    expect_eq("checksum = completions", out.checksum, want)
}

/// Every fragment is popped and accounted once; each worker's final pop
/// finds the queue empty.
fn intruder(out: &RunOutcome, cfg: &RunConfig) -> Result<(), String> {
    let fragments = 20_000 * cfg.scale.max(1) / 100;
    expect_eq("checksum = fragments", out.checksum, fragments)?;
    expect_eq(
        "completions = 2 x fragments + threads",
        completions(out),
        2 * fragments + cfg.threads as u64,
    )
}

/// Reference counts return to zero; every get runs two sections.
fn leveldb(out: &RunOutcome, cfg: &RunConfig) -> Result<(), String> {
    expect_eq("checksum", out.checksum, 1)?;
    expect_eq(
        "completions = 2 x threads x scaled(4000)",
        completions(out),
        2 * cfg.threads as u64 * scaled(cfg, 4_000),
    )
}

/// How two saved profiles compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sameness {
    /// Byte for byte.
    Bytes,
    /// The same records, written in a different order.
    RecordsOnly,
    /// Different content.
    Different,
}

/// Compare two saved profiles record by record and byte by byte.
pub fn compare(a: &str, b: &str) -> Sameness {
    if a == b {
        return Sameness::Bytes;
    }
    let mut la: Vec<&str> = a.lines().collect();
    let mut lb: Vec<&str> = b.lines().collect();
    la.sort_unstable();
    lb.sort_unstable();
    if la == lb {
        Sameness::RecordsOnly
    } else {
        Sameness::Different
    }
}

/// Save a loaded profile again under its loaded names; a faithful store
/// reproduces the text it loaded.
pub fn resave(profile: &txsampler::Profile, names: &txsampler::store::FuncNames) -> String {
    txsampler::store::save_with_names(profile, &|f| names.get(&f.0).cloned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_order_is_told_apart_from_content() {
        assert_eq!(compare("h\na\nb\n", "h\na\nb\n"), Sameness::Bytes);
        assert_eq!(compare("h\na\nb\n", "h\nb\na\n"), Sameness::RecordsOnly);
        assert_eq!(compare("h\na\nb\n", "h\na\nc\n"), Sameness::Different);
    }

    #[test]
    fn every_benchmarked_program_has_an_identity() {
        for name in [
            "micro/true_sharing",
            "micro/starved_writer",
            "micro/nested_calls",
            "stamp/vacation",
            "stamp/intruder",
            "leveldb",
        ] {
            assert!(Program::named(name).is_some(), "{name}");
        }
        assert!(Program::named("micro/capacity").is_none());
    }
}
