//! Profile persistence (§6: the analyzer "records all the insights into
//! files and passes them to TxSampler's GUI").
//!
//! Profiles serialize to a small line-oriented text format (one record per
//! line, tab-separated, with a header) rather than JSON: it diffs cleanly,
//! greps cleanly, and needs no external dependencies. The CCT serializes
//! in id order — parents always precede children — so loading is a single
//! forward pass.

use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;

use rtm_runtime::{BackendMix, CmStats, Hist32, HIST_BUCKETS};
use txsim_pmu::{FuncId, FuncRegistry, Ip};

use crate::cct::{NodeKey, ROOT};
use crate::metrics::Metrics;
use crate::profile::{Periods, Profile, RunMeta, ThreadSummary};

/// Format version written into the header.
///
/// - v1–v4 (no longer loaded): header + periods/func/node/thread/site
///   records, the optional `meta` provenance record (`workload=`,
///   `threads=`, `period=`, `fallback=`, `mix=` keys), 21-field metric
///   records, and the per-site `backend` mix record
///   (`func line lock stm hle switches`).
/// - v5: a new `hist` record carries one per-site log-bucketed histogram
///   (`func line kind count sum b0..b31`, kind ∈ `tx_cycles` /
///   `retry_depth` / `fb_dwell`). Everything else is unchanged from v4.
/// - v6: `meta` learns the `cm=` key (contention manager the run's
///   software transactions used), and a new `cm` record carries the
///   per-site intervention counters
///   (`func line yields stalls escalations priority_aborts`).
///
/// The loader accepts v5 and v6; v5 files load with no CM provenance. The
/// `backend`, `hist` and `cm` records are the three components of one
/// per-site [`rtm_runtime::SiteStats`]; a component that is all zero is
/// never written, and a record that would carry one is rejected.
pub const FORMAT_VERSION: u32 = 6;

/// Oldest format version the loader still accepts.
pub const MIN_FORMAT_VERSION: u32 = 5;

/// Function names carried alongside a profile: serialized func id → name.
/// Optional in the format (`func` records); when present they make the
/// profile self-describing, so offline renderers (e.g. `repro flamegraph`)
/// produce the same labels as the live endpoints that had the run's
/// [`FuncRegistry`] in hand.
pub type FuncNames = HashMap<u32, String>;

/// Serialize a profile to the text format (no function names).
pub fn save(profile: &Profile) -> String {
    save_with_names(profile, &|_| None)
}

/// Serialize a profile with `func` records resolved from `registry`.
pub fn save_with_funcs(profile: &Profile, registry: &FuncRegistry) -> String {
    save_with_names(profile, &|id| registry.resolve(id).map(|f| f.name))
}

/// Every function id referenced by the profile's CCT and site tables.
fn referenced_funcs(profile: &Profile) -> BTreeSet<u32> {
    let mut ids = BTreeSet::new();
    for node in profile.cct.preorder() {
        match profile.cct.key(node) {
            None => {}
            Some(NodeKey::Frame { func, callsite, .. }) => {
                ids.insert(func.0);
                ids.insert(callsite.func.0);
            }
            Some(NodeKey::Stmt { ip, .. }) => {
                ids.insert(ip.func.0);
            }
        }
    }
    for t in &profile.threads {
        for site in t.sites.keys() {
            ids.insert(site.func.0);
        }
    }
    for site in profile.site_stats.keys() {
        ids.insert(site.func.0);
    }
    ids
}

/// Serialize a profile, attaching a `func` record for every referenced
/// function id that `name_of` can resolve.
pub fn save_with_names(profile: &Profile, name_of: &dyn Fn(FuncId) -> Option<String>) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "txsampler-profile\tv{FORMAT_VERSION}\tsamples={}\ttruncated={}\tinterrupt_aborts={}",
        profile.samples, profile.truncated_paths, profile.interrupt_abort_samples
    )
    .unwrap();
    write_records(&mut out, profile, name_of);
    out
}

/// Write every record after the header line — the body grammar shared by
/// whole-profile files and delta chunks (the streamable extension).
fn write_records(out: &mut String, profile: &Profile, name_of: &dyn Fn(FuncId) -> Option<String>) {
    if !profile.meta.is_empty() {
        out.push_str("meta");
        if let Some(workload) = &profile.meta.workload {
            let _ = write!(out, "\tworkload={workload}");
        }
        if let Some(threads) = profile.meta.threads {
            let _ = write!(out, "\tthreads={threads}");
        }
        if let Some(period) = profile.meta.sample_period {
            let _ = write!(out, "\tperiod={period}");
        }
        if let Some(fallback) = &profile.meta.fallback {
            let _ = write!(out, "\tfallback={fallback}");
        }
        if let Some(mix) = &profile.meta.mix {
            let _ = write!(
                out,
                "\tmix={}:{}:{}:{}",
                mix.lock, mix.stm, mix.hle, mix.switches
            );
        }
        if let Some(cm) = &profile.meta.cm {
            let _ = write!(out, "\tcm={cm}");
        }
        out.push('\n');
    }
    writeln!(
        out,
        "periods\t{}\t{}\t{}\t{}",
        profile.periods.cycles, profile.periods.commit, profile.periods.abort, profile.periods.mem
    )
    .unwrap();
    for id in referenced_funcs(profile) {
        if let Some(name) = name_of(FuncId(id)) {
            writeln!(out, "func\t{id}\t{name}").unwrap();
        }
    }

    // Nodes, preorder: id, parent, key, metrics. Node ids are re-mapped to
    // visit order so the loader can rebuild with a single pass.
    let order = profile.cct.preorder();
    let mut remap = std::collections::HashMap::new();
    for (new_id, &node) in order.iter().enumerate() {
        remap.insert(node, new_id);
        let parent = *remap.get(&profile.cct.parent(node)).unwrap_or(&0);
        let key = match profile.cct.key(node) {
            None => "root".to_string(),
            Some(NodeKey::Frame {
                func,
                callsite,
                speculative,
            }) => format!(
                "frame:{}:{}:{}:{}",
                func.0, callsite.func.0, callsite.line, speculative as u8
            ),
            Some(NodeKey::Stmt { ip, speculative }) => {
                format!("stmt:{}:{}:{}", ip.func.0, ip.line, speculative as u8)
            }
        };
        let m = profile.cct.metrics(node);
        writeln!(
            out,
            "node\t{new_id}\t{parent}\t{key}\t{}",
            metrics_fields(m)
        )
        .unwrap();
    }

    for t in &profile.threads {
        writeln!(out, "thread\t{}\t{}", t.tid, metrics_fields(&t.totals)).unwrap();
        let mut sites: Vec<_> = t.sites.iter().collect();
        sites.sort_by_key(|(site, _)| (site.func.0, site.line));
        for (site, (c, a)) in sites {
            writeln!(
                out,
                "site\t{}\t{}\t{}\t{}\t{}",
                t.tid, site.func.0, site.line, c, a
            )
            .unwrap();
        }
    }

    // Per-site records, one component per record kind, sorted for
    // byte-stable output; zero components are skipped entirely.
    for (site, mix) in profile.sites_with(|s| &s.mix) {
        writeln!(
            out,
            "backend\t{}\t{}\t{}\t{}\t{}\t{}",
            site.func.0, site.line, mix.lock, mix.stm, mix.hle, mix.switches
        )
        .unwrap();
    }
    for (site, h) in profile.sites_with(|s| &s.hists) {
        for (kind, hist) in [
            ("tx_cycles", &h.tx_cycles),
            ("retry_depth", &h.retry_depth),
            ("fb_dwell", &h.fb_dwell),
        ] {
            if hist.is_zero() {
                continue;
            }
            let buckets: Vec<String> = hist.buckets.iter().map(u64::to_string).collect();
            writeln!(
                out,
                "hist\t{}\t{}\t{kind}\t{}\t{}\t{}",
                site.func.0,
                site.line,
                hist.count,
                hist.sum,
                buckets.join(" ")
            )
            .unwrap();
        }
    }
    for (site, s) in profile.sites_with(|s| &s.cm) {
        writeln!(
            out,
            "cm\t{}\t{}\t{}\t{}\t{}\t{}",
            site.func.0, site.line, s.yields, s.stalls, s.escalations, s.priority_aborts
        )
        .unwrap();
    }
}

fn metrics_fields(m: &Metrics) -> String {
    format!(
        "{} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
        m.w,
        m.t,
        m.t_tx,
        m.t_fb,
        m.t_wait,
        m.t_oh,
        m.commit_samples,
        m.abort_samples,
        m.abort_weight,
        m.aborts_conflict,
        m.aborts_capacity,
        m.aborts_sync,
        m.aborts_explicit,
        m.conflict_weight,
        m.capacity_weight,
        m.sync_weight,
        m.true_sharing,
        m.false_sharing,
        m.t_fb_stm,
        m.aborts_validation,
        m.validation_weight,
    )
}

fn parse_metrics(s: &str) -> Result<Metrics, LoadError> {
    let v: Vec<u64> = s
        .split(' ')
        .map(|f| f.parse().map_err(|_| LoadError::bad("metric field")))
        .collect::<Result<_, _>>()?;
    if v.len() != 21 {
        return Err(LoadError::bad("metric arity"));
    }
    Ok(Metrics {
        w: v[0],
        t: v[1],
        t_tx: v[2],
        t_fb: v[3],
        t_wait: v[4],
        t_oh: v[5],
        commit_samples: v[6],
        abort_samples: v[7],
        abort_weight: v[8],
        aborts_conflict: v[9],
        aborts_capacity: v[10],
        aborts_sync: v[11],
        aborts_explicit: v[12],
        conflict_weight: v[13],
        capacity_weight: v[14],
        sync_weight: v[15],
        true_sharing: v[16],
        false_sharing: v[17],
        t_fb_stm: v[18],
        aborts_validation: v[19],
        validation_weight: v[20],
    })
}

/// A malformed profile file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadError {
    /// What failed to parse.
    pub what: String,
}

impl LoadError {
    fn bad(what: &str) -> Self {
        LoadError {
            what: what.to_string(),
        }
    }
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed profile: {}", self.what)
    }
}

impl std::error::Error for LoadError {}

fn parse_key(s: &str) -> Result<Option<NodeKey>, LoadError> {
    let parts: Vec<&str> = s.split(':').collect();
    match parts.as_slice() {
        ["root"] => Ok(None),
        ["frame", f, cf, cl, spec] => Ok(Some(NodeKey::Frame {
            func: FuncId(f.parse().map_err(|_| LoadError::bad("frame func"))?),
            callsite: Ip::new(
                FuncId(cf.parse().map_err(|_| LoadError::bad("callsite func"))?),
                cl.parse().map_err(|_| LoadError::bad("callsite line"))?,
            ),
            speculative: *spec == "1",
        })),
        ["stmt", f, l, spec] => Ok(Some(NodeKey::Stmt {
            ip: Ip::new(
                FuncId(f.parse().map_err(|_| LoadError::bad("stmt func"))?),
                l.parse().map_err(|_| LoadError::bad("stmt line"))?,
            ),
            speculative: *spec == "1",
        })),
        _ => Err(LoadError::bad("node key")),
    }
}

/// Load a profile previously produced by [`save`] (function names, if
/// present, are discarded).
pub fn load(text: &str) -> Result<Profile, LoadError> {
    load_with_funcs(text).map(|(profile, _)| profile)
}

/// Load a profile plus any `func` name records it carries.
pub fn load_with_funcs(text: &str) -> Result<(Profile, FuncNames), LoadError> {
    let mut funcs = FuncNames::new();
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| LoadError::bad("empty file"))?;
    let hfields: Vec<&str> = header.split('\t').collect();
    if hfields.first() != Some(&"txsampler-profile") {
        return Err(LoadError::bad("magic"));
    }
    let version: u32 = hfields
        .get(1)
        .and_then(|v| v.strip_prefix('v'))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| LoadError::bad("version"))?;
    if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(LoadError::bad("version"));
    }
    let header_num = |prefix: &str| -> Result<u64, LoadError> {
        hfields
            .iter()
            .find_map(|f| f.strip_prefix(prefix))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| LoadError::bad(prefix))
    };
    let samples = header_num("samples=")?;
    let truncated_paths = header_num("truncated=")?;
    let interrupt_abort_samples = header_num("interrupt_aborts=")?;

    let mut profile = Profile {
        samples,
        truncated_paths,
        interrupt_abort_samples,
        ..Profile::default()
    };
    parse_records(lines, version, &mut profile, &mut funcs)?;
    Ok((profile, funcs))
}

/// Parse every record after the header line into `profile`/`funcs` — the
/// body grammar shared by whole-profile files and delta chunks. `version`
/// gates the v6 additions (`cm` records and the `cm=` meta key).
fn parse_records<'a>(
    lines: impl Iterator<Item = &'a str>,
    version: u32,
    profile: &mut Profile,
    funcs: &mut FuncNames,
) -> Result<(), LoadError> {
    // Map from serialized node id to live node id.
    let mut ids: Vec<u32> = Vec::new();
    for line in lines {
        let mut fields = line.split('\t');
        match fields.next() {
            Some("periods") => {
                let vals: Vec<u64> = fields
                    .map(|f| f.parse().map_err(|_| LoadError::bad("period")))
                    .collect::<Result<_, _>>()?;
                if vals.len() != 4 {
                    return Err(LoadError::bad("period arity"));
                }
                profile.periods = Periods {
                    cycles: vals[0],
                    commit: vals[1],
                    abort: vals[2],
                    mem: vals[3],
                };
            }
            Some("meta") => {
                if !profile.meta.is_empty() {
                    return Err(LoadError::bad("duplicate meta record"));
                }
                let mut meta = RunMeta::default();
                for field in fields {
                    let (key, value) = field
                        .split_once('=')
                        .ok_or_else(|| LoadError::bad("meta field"))?;
                    match key {
                        "workload" if !value.is_empty() && meta.workload.is_none() => {
                            meta.workload = Some(value.to_string());
                        }
                        "threads" if meta.threads.is_none() => {
                            meta.threads =
                                Some(value.parse().map_err(|_| LoadError::bad("meta threads"))?);
                        }
                        "period" if meta.sample_period.is_none() => {
                            meta.sample_period =
                                Some(value.parse().map_err(|_| LoadError::bad("meta period"))?);
                        }
                        "fallback" if !value.is_empty() && meta.fallback.is_none() => {
                            meta.fallback = Some(value.to_string());
                        }
                        "mix" if meta.mix.is_none() => {
                            let vals: Vec<u64> = value
                                .split(':')
                                .map(|f| f.parse().map_err(|_| LoadError::bad("meta mix")))
                                .collect::<Result<_, _>>()?;
                            if vals.len() != 4 {
                                return Err(LoadError::bad("meta mix arity"));
                            }
                            meta.mix = Some(BackendMix {
                                lock: vals[0],
                                stm: vals[1],
                                hle: vals[2],
                                switches: vals[3],
                            });
                        }
                        "cm" if version >= 6 && !value.is_empty() && meta.cm.is_none() => {
                            meta.cm = Some(value.to_string());
                        }
                        _ => return Err(LoadError::bad("meta field")),
                    }
                }
                if meta.is_empty() {
                    return Err(LoadError::bad("empty meta record"));
                }
                profile.meta = meta;
            }
            Some("func") => {
                let id: u32 = fields
                    .next()
                    .and_then(|f| f.parse().ok())
                    .ok_or_else(|| LoadError::bad("func id"))?;
                let name = fields.next().ok_or_else(|| LoadError::bad("func name"))?;
                if funcs.insert(id, name.to_string()).is_some() {
                    return Err(LoadError::bad("duplicate func id"));
                }
            }
            Some("node") => {
                let id: usize = fields
                    .next()
                    .and_then(|f| f.parse().ok())
                    .ok_or_else(|| LoadError::bad("node id"))?;
                // Ids are the writer's visit order: strictly sequential.
                // Anything else (duplicates, gaps, reordering) means the
                // file was corrupted or hand-edited.
                if id != ids.len() {
                    return Err(LoadError::bad("node id out of sequence"));
                }
                let parent: usize = fields
                    .next()
                    .and_then(|f| f.parse().ok())
                    .ok_or_else(|| LoadError::bad("node parent"))?;
                let key = parse_key(fields.next().ok_or_else(|| LoadError::bad("node key"))?)?;
                let metrics = parse_metrics(
                    fields
                        .next()
                        .ok_or_else(|| LoadError::bad("node metrics"))?,
                )?;
                let live = match key {
                    None => ROOT,
                    Some(key) => {
                        let parent_live = *ids
                            .get(parent)
                            .ok_or_else(|| LoadError::bad("forward parent reference"))?;
                        profile.cct.child(parent_live, key)
                    }
                };
                *profile.cct.metrics_mut(live) = metrics;
                ids.push(live);
            }
            Some("thread") => {
                let tid: usize = fields
                    .next()
                    .and_then(|f| f.parse().ok())
                    .ok_or_else(|| LoadError::bad("thread id"))?;
                let totals = parse_metrics(
                    fields
                        .next()
                        .ok_or_else(|| LoadError::bad("thread totals"))?,
                )?;
                profile.threads.push(ThreadSummary {
                    tid,
                    totals,
                    sites: Default::default(),
                });
            }
            Some("site") => {
                let vals: Vec<u64> = fields
                    .map(|f| f.parse().map_err(|_| LoadError::bad("site field")))
                    .collect::<Result<_, _>>()?;
                if vals.len() != 5 {
                    return Err(LoadError::bad("site arity"));
                }
                let t = profile
                    .threads
                    .iter_mut()
                    .find(|t| t.tid == vals[0] as usize)
                    .ok_or_else(|| LoadError::bad("site before thread"))?;
                t.sites.insert(
                    Ip::new(FuncId(vals[1] as u32), vals[2] as u32),
                    (vals[3], vals[4]),
                );
            }
            Some("backend") => {
                let vals: Vec<u64> = fields
                    .map(|f| f.parse().map_err(|_| LoadError::bad("backend field")))
                    .collect::<Result<_, _>>()?;
                if vals.len() != 6 {
                    return Err(LoadError::bad("backend arity"));
                }
                let mix = BackendMix {
                    lock: vals[2],
                    stm: vals[3],
                    hle: vals[4],
                    switches: vals[5],
                };
                if mix.is_zero() {
                    return Err(LoadError::bad("empty backend record"));
                }
                let site = Ip::new(FuncId(vals[0] as u32), vals[1] as u32);
                let entry = profile.site_stats.entry(site).or_default();
                if !entry.mix.is_zero() {
                    return Err(LoadError::bad("duplicate backend record"));
                }
                entry.mix = mix;
            }
            Some("hist") => {
                let func: u32 = fields
                    .next()
                    .and_then(|f| f.parse().ok())
                    .ok_or_else(|| LoadError::bad("hist func"))?;
                let line_no: u32 = fields
                    .next()
                    .and_then(|f| f.parse().ok())
                    .ok_or_else(|| LoadError::bad("hist line"))?;
                let kind = fields.next().ok_or_else(|| LoadError::bad("hist kind"))?;
                let count: u64 = fields
                    .next()
                    .and_then(|f| f.parse().ok())
                    .ok_or_else(|| LoadError::bad("hist count"))?;
                let sum: u64 = fields
                    .next()
                    .and_then(|f| f.parse().ok())
                    .ok_or_else(|| LoadError::bad("hist sum"))?;
                let buckets: Vec<u64> = fields
                    .next()
                    .ok_or_else(|| LoadError::bad("hist buckets"))?
                    .split(' ')
                    .map(|f| f.parse().map_err(|_| LoadError::bad("hist bucket")))
                    .collect::<Result<_, _>>()?;
                if fields.next().is_some() {
                    return Err(LoadError::bad("hist arity"));
                }
                let buckets: [u64; HIST_BUCKETS] = buckets
                    .try_into()
                    .map_err(|_| LoadError::bad("hist bucket arity"))?;
                if buckets.iter().sum::<u64>() != count {
                    return Err(LoadError::bad("hist count mismatch"));
                }
                let hist = Hist32 {
                    buckets,
                    sum,
                    count,
                };
                if hist.is_zero() {
                    return Err(LoadError::bad("empty hist record"));
                }
                let site = Ip::new(FuncId(func), line_no);
                let entry = &mut profile.site_stats.entry(site).or_default().hists;
                let slot = match kind {
                    "tx_cycles" => &mut entry.tx_cycles,
                    "retry_depth" => &mut entry.retry_depth,
                    "fb_dwell" => &mut entry.fb_dwell,
                    _ => return Err(LoadError::bad("hist kind")),
                };
                if !slot.is_zero() {
                    return Err(LoadError::bad("duplicate hist record"));
                }
                *slot = hist;
            }
            Some("cm") if version >= 6 => {
                let vals: Vec<u64> = fields
                    .map(|f| f.parse().map_err(|_| LoadError::bad("cm field")))
                    .collect::<Result<_, _>>()?;
                if vals.len() != 6 {
                    return Err(LoadError::bad("cm arity"));
                }
                let stats = CmStats {
                    yields: vals[2],
                    stalls: vals[3],
                    escalations: vals[4],
                    priority_aborts: vals[5],
                };
                if stats.is_zero() {
                    return Err(LoadError::bad("empty cm record"));
                }
                let site = Ip::new(FuncId(vals[0] as u32), vals[1] as u32);
                let entry = profile.site_stats.entry(site).or_default();
                if !entry.cm.is_zero() {
                    return Err(LoadError::bad("duplicate cm record"));
                }
                entry.cm = stats;
            }
            Some("") | None => {}
            Some(other) => return Err(LoadError::bad(other)),
        }
    }
    Ok(())
}

/// Version of the `txsampler-delta` chunk header — the *streamable*
/// extension of the store format. A delta stream is a sequence of
/// self-contained chunks, each carrying only the profile records (and
/// func-name records) for activity inside one epoch range; applying the
/// chunks in order reproduces the cumulative profile. Chunk bodies use the
/// exact v[`FORMAT_VERSION`] record grammar, so every body parser is
/// shared with whole-profile files.
pub const DELTA_FORMAT_VERSION: u32 = 1;

/// One parsed delta chunk (see [`DELTA_FORMAT_VERSION`]).
#[derive(Debug, Clone)]
pub struct DeltaChunk {
    /// Epoch this chunk's activity starts after (0 for a full resync).
    pub since: u64,
    /// Epoch this chunk's activity runs up to.
    pub to: u64,
    /// Whether the chunk is a full resync (replace, don't accumulate).
    pub full: bool,
    /// The profile fragment covering `(since, to]` — or the whole
    /// cumulative profile when `full`.
    pub profile: Profile,
    /// Func-name records referenced by this chunk's fragment.
    pub funcs: FuncNames,
}

/// Serialize one delta chunk. `full` marks a resync chunk whose `profile`
/// is the entire cumulative snapshot. Only functions referenced by the
/// fragment (and resolvable through `name_of`) get `func` records — a
/// steady-state delta therefore re-ships only the names its own new
/// activity touches, not the whole symbol table.
pub fn save_delta_with_names(
    profile: &Profile,
    since: u64,
    to: u64,
    full: bool,
    name_of: &dyn Fn(FuncId) -> Option<String>,
) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "txsampler-delta\tv{DELTA_FORMAT_VERSION}\tsince={since}\tto={to}\tkind={}\tsamples={}\ttruncated={}\tinterrupt_aborts={}",
        if full { "full" } else { "delta" },
        profile.samples,
        profile.truncated_paths,
        profile.interrupt_abort_samples
    )
    .unwrap();
    write_records(&mut out, profile, name_of);
    out
}

/// [`save_delta_with_names`] resolving names from a live [`FuncRegistry`].
pub fn save_delta_with_funcs(
    profile: &Profile,
    since: u64,
    to: u64,
    full: bool,
    registry: &FuncRegistry,
) -> String {
    save_delta_with_names(profile, since, to, full, &|id| {
        registry.resolve(id).map(|f| f.name)
    })
}

/// Parse one delta chunk produced by [`save_delta_with_names`].
pub fn load_delta(text: &str) -> Result<DeltaChunk, LoadError> {
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| LoadError::bad("empty chunk"))?;
    let hfields: Vec<&str> = header.split('\t').collect();
    if hfields.first() != Some(&"txsampler-delta") {
        return Err(LoadError::bad("delta magic"));
    }
    let version: u32 = hfields
        .get(1)
        .and_then(|v| v.strip_prefix('v'))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| LoadError::bad("delta version"))?;
    if version != DELTA_FORMAT_VERSION {
        return Err(LoadError::bad("delta version"));
    }
    let header_num = |prefix: &str| -> Result<u64, LoadError> {
        hfields
            .iter()
            .find_map(|f| f.strip_prefix(prefix))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| LoadError::bad(prefix))
    };
    let since = header_num("since=")?;
    let to = header_num("to=")?;
    let full = match hfields.iter().find_map(|f| f.strip_prefix("kind=")) {
        Some("full") => true,
        Some("delta") => false,
        _ => return Err(LoadError::bad("delta kind")),
    };
    if since > to {
        return Err(LoadError::bad("delta range"));
    }
    let mut profile = Profile {
        samples: header_num("samples=")?,
        truncated_paths: header_num("truncated=")?,
        interrupt_abort_samples: header_num("interrupt_aborts=")?,
        ..Profile::default()
    };
    let mut funcs = FuncNames::new();
    parse_records(lines, FORMAT_VERSION, &mut profile, &mut funcs)?;
    Ok(DeltaChunk {
        since,
        to,
        full,
        profile,
        funcs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::TimeComponent;

    fn sample_profile() -> Profile {
        let mut p = Profile {
            samples: 123,
            truncated_paths: 4,
            interrupt_abort_samples: 7,
            periods: Periods {
                cycles: 50_000,
                commit: 1009,
                abort: 13,
                mem: 5003,
            },
            ..Profile::default()
        };
        let frame = p.cct.child(
            ROOT,
            NodeKey::Frame {
                func: FuncId(3),
                callsite: Ip::new(FuncId(1), 42),
                speculative: false,
            },
        );
        let spec = p.cct.child(
            frame,
            NodeKey::Frame {
                func: FuncId(9),
                callsite: Ip::new(FuncId(3), 50),
                speculative: true,
            },
        );
        let leaf = p.cct.child(
            spec,
            NodeKey::Stmt {
                ip: Ip::new(FuncId(9), 55),
                speculative: true,
            },
        );
        for _ in 0..11 {
            p.cct.metrics_mut(leaf).add_cycles_sample(TimeComponent::Tx);
        }
        p.cct.metrics_mut(leaf).abort_samples = 3;
        p.cct.metrics_mut(leaf).abort_weight = 999;
        p.cct.metrics_mut(leaf).aborts_capacity = 3;
        p.cct.metrics_mut(leaf).capacity_weight = 999;
        p.threads.push(ThreadSummary {
            tid: 0,
            totals: *p.cct.metrics(leaf),
            sites: [(Ip::new(FuncId(1), 42), (10, 2))].into_iter().collect(),
        });
        p.threads.push(ThreadSummary {
            tid: 5,
            totals: Metrics::default(),
            sites: Default::default(),
        });
        p
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let p = sample_profile();
        let text = save(&p);
        let q = load(&text).expect("roundtrip");
        assert_eq!(q.samples, p.samples);
        assert_eq!(q.truncated_paths, p.truncated_paths);
        assert_eq!(q.interrupt_abort_samples, p.interrupt_abort_samples);
        assert_eq!(q.periods, p.periods);
        assert_eq!(q.cct.len(), p.cct.len());
        assert_eq!(q.totals(), p.totals());
        assert_eq!(q.threads.len(), 2);
        assert_eq!(q.threads[0].sites, p.threads[0].sites);
        // Structure: the speculative chain survives.
        let leaf = q
            .cct
            .find(|k| matches!(k, NodeKey::Stmt { ip, .. } if ip.line == 55))
            .expect("leaf survives");
        assert_eq!(q.cct.path_to(leaf).len(), 3);
    }

    #[test]
    fn save_is_stable_under_roundtrip() {
        let p = sample_profile();
        let text = save(&p);
        let text2 = save(&load(&text).unwrap());
        assert_eq!(text, text2, "save∘load must be idempotent");
    }

    #[test]
    fn rejects_garbage() {
        assert!(load("").is_err());
        assert!(load("not-a-profile\tv1").is_err());
        assert!(
            load("txsampler-profile\tv99\tsamples=0\ttruncated=0\tinterrupt_aborts=0").is_err()
        );
        let p = sample_profile();
        let mut text = save(&p);
        text.push_str("\ngibberish\tline\n");
        assert!(load(&text).is_err());
    }

    #[test]
    fn empty_profile_roundtrips() {
        let p = Profile::default();
        let q = load(&save(&p)).unwrap();
        assert_eq!(q.cct.len(), 1);
        assert_eq!(q.samples, 0);
    }

    #[test]
    fn rejects_truncated_input() {
        let text = save(&sample_profile());
        // Chopping the file anywhere inside a record must fail, never
        // silently load a partial profile.
        let cut = text.len() - 7;
        assert!(load(&text[..cut]).is_err(), "truncated tail must error");
        let first_node = text.find("\nnode").unwrap() + 20;
        assert!(load(&text[..first_node]).is_err());
        // A metric record one field short is rejected, not zero-filled.
        let chopped: String = text
            .lines()
            .map(|l| match l.strip_prefix("thread\t0\t") {
                Some(_) => format!("{}\n", l.rsplit_once(' ').unwrap().0),
                None => format!("{l}\n"),
            })
            .collect();
        assert_eq!(load(&chopped).unwrap_err().what, "metric arity");
    }

    #[test]
    fn save_is_independent_of_insertion_order() {
        let sites: Vec<Ip> = (0..40).map(|n| Ip::new(FuncId(n % 7), n)).collect();
        let build = |order: &mut dyn Iterator<Item = &Ip>| {
            let mut p = sample_profile();
            for site in order {
                p.threads[0].sites.insert(*site, (site.line as u64, 1));
                let s = p.site_stats.entry(*site).or_default();
                s.mix.lock = 1 + site.line as u64;
                s.hists.record_completion(10 * site.line as u64, 1, None);
                s.cm.yields = 2;
            }
            p
        };
        let forward = save(&build(&mut sites.iter()));
        let backward = save(&build(&mut sites.iter().rev()));
        assert_eq!(forward, backward);
        let forward = save_delta_with_names(&build(&mut sites.iter()), 0, 1, false, &|_| None);
        let backward =
            save_delta_with_names(&build(&mut sites.iter().rev()), 0, 1, false, &|_| None);
        assert_eq!(forward, backward, "delta chunks share the writer");
    }

    #[test]
    fn rejects_out_of_sequence_node_ids() {
        let text = save(&sample_profile());
        // Duplicate a node line: its id repeats, which the loader must
        // reject instead of double-counting metrics.
        let node_line = text
            .lines()
            .find(|l| l.starts_with("node\t1\t"))
            .unwrap()
            .to_string();
        let dup = text.replace(&node_line, &format!("{node_line}\n{node_line}"));
        let err = load(&dup).unwrap_err();
        assert!(err.what.contains("node id"), "got: {err}");
        // A gap (skipped id) is equally malformed.
        let gapped = text.replace("node\t1\t", "node\t5\t");
        assert!(load(&gapped).is_err());
    }

    #[test]
    fn meta_roundtrips() {
        let mut p = sample_profile();
        p.meta = RunMeta {
            workload: Some("histo".to_string()),
            threads: Some(14),
            sample_period: Some(1000),
            fallback: Some("stm".to_string()),
            mix: None,
            cm: None,
        };
        let text = save(&p);
        assert!(text.contains("meta\tworkload=histo\tthreads=14\tperiod=1000\tfallback=stm"));
        let q = load(&text).expect("meta roundtrip");
        assert_eq!(q.meta, p.meta);
        // save∘load stays byte-stable with meta present.
        assert_eq!(save(&q), text);

        // Partial provenance: absent fields are simply omitted.
        let mut partial = sample_profile();
        partial.threads.clear();
        partial.meta.threads = Some(8);
        let text = save(&partial);
        assert!(text.contains("meta\tthreads=8\n"));
        assert_eq!(load(&text).unwrap().meta, partial.meta);

        // No provenance → no meta record at all (and none comes back).
        let bare = save(&sample_profile());
        assert!(!bare.contains("\nmeta"));
        assert!(load(&bare).unwrap().meta.is_empty());
    }

    #[test]
    fn fallback_meta_alone_roundtrips() {
        let mut p = sample_profile();
        p.meta.fallback = Some("lock".to_string());
        let text = save(&p);
        assert!(text.contains("meta\tfallback=lock\n"));
        let q = load(&text).expect("fallback-only meta");
        assert_eq!(q.meta.fallback.as_deref(), Some("lock"));
        // Duplicate or empty values are malformed.
        assert!(load(&text.replace("fallback=lock", "fallback=")).is_err());
        assert!(load(&text.replace("fallback=lock", "fallback=lock\tfallback=stm")).is_err());
    }

    #[test]
    fn rejects_truncated_or_garbage_meta() {
        let mut p = sample_profile();
        p.meta.workload = Some("histo".to_string());
        p.meta.threads = Some(14);
        let text = save(&p);
        // Truncated mid-value: `threads=1` still parses as a number, but
        // chopping into the key must fail.
        let cut = text.find("\tthreads=14").unwrap();
        let truncated = format!(
            "{}\tthr\n{}",
            &text[..cut],
            text.split_once('\n').unwrap().1
        );
        assert!(load(&truncated).is_err(), "truncated meta key must error");
        // Garbage values and unknown keys are rejected, not ignored.
        assert!(load(&text.replace("threads=14", "threads=lots")).is_err());
        assert!(load(&text.replace("threads=14", "cores=14")).is_err());
        assert!(load(&text.replace("threads=14", "threads")).is_err());
        // Duplicate meta records (or duplicate keys) are malformed.
        let meta_line = "meta\tworkload=histo\tthreads=14";
        let dup = text.replace(meta_line, &format!("{meta_line}\n{meta_line}"));
        assert!(load(&dup).is_err());
        assert!(load(&text.replace("\tthreads=14", "\tthreads=14\tthreads=14")).is_err());
        // An empty meta record carries nothing and is rejected.
        assert!(load(&text.replace(meta_line, "meta")).is_err());
    }

    #[test]
    fn v4_mix_and_backend_records_roundtrip() {
        let mut p = sample_profile();
        p.meta.fallback = Some("adaptive".to_string());
        p.meta.mix = Some(BackendMix {
            lock: 7,
            stm: 5,
            hle: 3,
            switches: 2,
        });
        p.site_stats.entry(Ip::new(FuncId(1), 42)).or_default().mix = BackendMix {
            lock: 7,
            stm: 0,
            hle: 0,
            switches: 0,
        };
        p.site_stats.entry(Ip::new(FuncId(9), 55)).or_default().mix = BackendMix {
            lock: 0,
            stm: 5,
            hle: 3,
            switches: 2,
        };
        let text = save(&p);
        assert!(text.contains("fallback=adaptive\tmix=7:5:3:2"));
        assert!(text.contains("backend\t1\t42\t7\t0\t0\t0\n"));
        assert!(text.contains("backend\t9\t55\t0\t5\t3\t2\n"));
        let q = load(&text).expect("mix roundtrip");
        assert_eq!(q.meta.mix, p.meta.mix);
        assert_eq!(q.site_stats, p.site_stats);
        assert_eq!(q.site_totals().mix.total(), 15);
        // save∘load stays byte-stable with mix records present.
        assert_eq!(save(&q), text);
        // Func records cover backend-only sites.
        let names: FuncNames = [(9, "hot".to_string())].into_iter().collect();
        assert!(save_with_names(&p, &|id| names.get(&id.0).cloned()).contains("func\t9\thot"));
    }

    #[test]
    fn rejects_malformed_mix_and_backend_records() {
        let mut p = sample_profile();
        p.meta.mix = Some(BackendMix {
            lock: 1,
            stm: 2,
            hle: 3,
            switches: 4,
        });
        p.site_stats
            .entry(Ip::new(FuncId(1), 42))
            .or_default()
            .mix
            .lock = 5;
        let text = save(&p);
        assert!(load(&text.replace("mix=1:2:3:4", "mix=1:2:3")).is_err());
        assert!(load(&text.replace("mix=1:2:3:4", "mix=1:2:3:x")).is_err());
        assert!(load(&text.replace("mix=1:2:3:4", "mix=1:2:3:4\tmix=1:2:3:4")).is_err());
        let backend_line = "backend\t1\t42\t5\t0\t0\t0";
        assert!(load(&text.replace(backend_line, "backend\t1\t42\t5\t0\t0")).is_err());
        assert!(load(&text.replace(backend_line, "backend\t1\t42\t5\t0\t0\tx")).is_err());
        let dup = text.replace(backend_line, &format!("{backend_line}\n{backend_line}"));
        assert!(load(&dup).is_err(), "duplicate site must be rejected");
        // Zero means absent: an all-zero record is malformed.
        let zero = load(&text.replace(backend_line, "backend\t1\t42\t0\t0\t0\t0"));
        assert_eq!(zero.unwrap_err().what, "empty backend record");
    }

    #[test]
    fn v5_hist_records_roundtrip() {
        let mut p = sample_profile();
        let site = Ip::new(FuncId(9), 55);
        let h = &mut p.site_stats.entry(site).or_default().hists;
        h.record_completion(100, 1, None);
        h.record_completion(9000, 7, Some(4000));
        let other = Ip::new(FuncId(1), 42);
        let h = &mut p.site_stats.entry(other).or_default().hists;
        h.record_completion(64, 2, None);
        let text = save(&p);
        assert!(text.contains("hist\t1\t42\ttx_cycles\t1\t64\t"));
        assert!(text.contains("hist\t9\t55\tretry_depth\t2\t8\t"));
        assert!(text.contains("hist\t9\t55\tfb_dwell\t1\t4000\t"));
        // fb_dwell never recorded for the other site → no record at all.
        assert!(!text.contains("hist\t1\t42\tfb_dwell"));
        let q = load(&text).expect("v5 roundtrip");
        assert_eq!(q.site_stats, p.site_stats);
        assert_eq!(q.site_stats[&site].hists.tx_cycles.count, 2);
        assert_eq!(q.site_stats[&site].hists.tx_cycles.sum, 9100);
        // save∘load stays byte-stable with hist records present.
        assert_eq!(save(&q), text);
        // Func records cover hist-only sites.
        let mut bare = sample_profile();
        bare.cct = Default::default();
        bare.threads.clear();
        bare.site_stats
            .insert(Ip::new(FuncId(77), 1), p.site_stats[&site]);
        let names: FuncNames = [(77, "starved".to_string())].into_iter().collect();
        assert!(
            save_with_names(&bare, &|id| names.get(&id.0).cloned()).contains("func\t77\tstarved")
        );
        // Hist records ride delta chunks through the shared body grammar.
        let chunk = load_delta(&save_delta_with_names(&p, 0, 3, false, &|_| None))
            .expect("delta with hists");
        assert_eq!(chunk.profile.site_stats, p.site_stats);
    }

    #[test]
    fn pre_v5_headers_are_rejected() {
        let text = save(&sample_profile());
        for old in 1..MIN_FORMAT_VERSION {
            let downgraded = text.replacen("\tv6\t", &format!("\tv{old}\t"), 1);
            assert_eq!(load(&downgraded).unwrap_err().what, "version", "v{old}");
        }
        assert!(load(&text.replacen("\tv6\t", "\tv5\t", 1)).is_ok());
    }

    #[test]
    fn rejects_malformed_hist_records() {
        let mut p = sample_profile();
        p.site_stats
            .entry(Ip::new(FuncId(9), 55))
            .or_default()
            .hists
            .record_completion(2, 1, None);
        let text = save(&p);
        let line = text
            .lines()
            .find(|l| l.starts_with("hist\t9\t55\ttx_cycles"))
            .unwrap()
            .to_string();
        // Unknown kind, bad bucket arity, count/bucket mismatch, garbage
        // values, duplicates — all rejected.
        assert!(load(&text.replace("\ttx_cycles\t", "\tbananas\t")).is_err());
        assert!(load(&text.replace(&line, line.trim_end_matches(" 0"))).is_err());
        assert!(load(&text.replace(&line, &format!("{line} 0"))).is_err());
        assert!(load(&text.replace("tx_cycles\t1\t2", "tx_cycles\t9\t2")).is_err());
        assert!(load(&text.replace("tx_cycles\t1\t2", "tx_cycles\tx\t2")).is_err());
        let dup = text.replace(&line, &format!("{line}\n{line}"));
        assert!(load(&dup).is_err(), "duplicate hist must be rejected");
    }

    #[test]
    fn v6_cm_records_roundtrip() {
        let mut p = sample_profile();
        p.meta.fallback = Some("stm".to_string());
        p.meta.cm = Some("karma".to_string());
        p.site_stats.entry(Ip::new(FuncId(9), 55)).or_default().cm = CmStats {
            yields: 11,
            stalls: 4,
            escalations: 0,
            priority_aborts: 2,
        };
        p.site_stats
            .entry(Ip::new(FuncId(1), 42))
            .or_default()
            .cm
            .escalations = 3;
        // All-zero entries are skipped on save, like empty histograms.
        p.site_stats
            .insert(Ip::new(FuncId(2), 1), Default::default());
        let text = save(&p);
        assert!(text.contains("fallback=stm\tcm=karma"));
        assert!(text.contains("cm\t1\t42\t0\t0\t3\t0\n"));
        assert!(text.contains("cm\t9\t55\t11\t4\t0\t2\n"));
        assert!(!text.contains("cm\t2\t1\t"));
        let q = load(&text).expect("v6 roundtrip");
        assert_eq!(q.meta.cm.as_deref(), Some("karma"));
        assert_eq!(q.site_stats[&Ip::new(FuncId(9), 55)].cm.yields, 11);
        assert_eq!(q.site_totals().cm.total(), 20);
        // save∘load stays byte-stable with cm records present.
        assert_eq!(save(&q), text);
        // Func records cover cm-only sites.
        let mut bare = sample_profile();
        bare.cct = Default::default();
        bare.threads.clear();
        bare.site_stats
            .entry(Ip::new(FuncId(88), 1))
            .or_default()
            .cm
            .yields = 1;
        let names: FuncNames = [(88, "writer".to_string())].into_iter().collect();
        assert!(
            save_with_names(&bare, &|id| names.get(&id.0).cloned()).contains("func\t88\twriter")
        );
        // Cm records ride delta chunks through the shared body grammar.
        let chunk =
            load_delta(&save_delta_with_names(&p, 0, 3, false, &|_| None)).expect("delta with cm");
        assert_eq!(chunk.profile.site_stats.len(), 2, "zero entry dropped");
        assert_eq!(chunk.profile.meta.cm.as_deref(), Some("karma"));
    }

    #[test]
    fn pre_v6_files_reject_cm_records() {
        let mut p = sample_profile();
        p.meta.fallback = Some("stm".to_string());
        p.meta.cm = Some("escalate".to_string());
        p.site_stats
            .entry(Ip::new(FuncId(9), 55))
            .or_default()
            .cm
            .escalations = 7;
        let text = save(&p);
        // A file claiming v5 may not carry v6 records or the cm= meta key.
        let downgraded = text.replacen("\tv6\t", "\tv5\t", 1);
        assert!(load(&downgraded).is_err());
        // The same v5 file without the cm records/key loads fine.
        let cleaned: String = downgraded
            .lines()
            .filter(|l| !l.starts_with("cm\t"))
            .map(|l| {
                if l.starts_with("meta\t") {
                    l.split('\t')
                        .filter(|f| !f.starts_with("cm="))
                        .collect::<Vec<_>>()
                        .join("\t")
                        + "\n"
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        let q = load(&cleaned).expect("v5 without cm records loads");
        assert!(q.site_stats.is_empty());
        assert_eq!(q.meta.cm, None);
    }

    #[test]
    fn rejects_malformed_cm_records() {
        let mut p = sample_profile();
        p.meta.cm = Some("karma".to_string());
        p.site_stats
            .entry(Ip::new(FuncId(9), 55))
            .or_default()
            .cm
            .yields = 5;
        let text = save(&p);
        let line = "cm\t9\t55\t5\t0\t0\t0";
        assert!(load(&text.replace(line, "cm\t9\t55\t5\t0\t0")).is_err());
        assert!(load(&text.replace(line, "cm\t9\t55\t5\t0\t0\t0\t0")).is_err());
        assert!(load(&text.replace(line, "cm\t9\t55\t5\t0\tx\t0")).is_err());
        assert!(load(&text.replace(line, "cm\t9\t55\t0\t0\t0\t0")).is_err());
        let dup = text.replace(line, &format!("{line}\n{line}"));
        assert!(load(&dup).is_err(), "duplicate cm site must be rejected");
        // Empty or duplicate cm= meta values are malformed.
        assert!(load(&text.replace("cm=karma", "cm=")).is_err());
        assert!(load(&text.replace("cm=karma", "cm=karma\tcm=karma")).is_err());
    }

    #[test]
    fn rejects_unknown_versions() {
        let text = save(&sample_profile());
        assert!(load(&text.replacen("\tv6\t", "\tv99\t", 1)).is_err());
        assert!(load(&text.replacen("\tv6\t", "\tv0\t", 1)).is_err());
        assert!(load(&text.replacen("\tv6\t", "\tsomething\t", 1)).is_err());
    }

    #[test]
    fn delta_chunks_roundtrip_and_validate() {
        let p = sample_profile();
        let names: FuncNames = [(1, "main".to_string()), (3, "work".to_string())]
            .into_iter()
            .collect();
        let text = save_delta_with_names(&p, 4, 9, false, &|id| names.get(&id.0).cloned());
        assert!(text.starts_with("txsampler-delta\tv1\tsince=4\tto=9\tkind=delta\t"));
        let chunk = load_delta(&text).expect("delta roundtrip");
        assert_eq!((chunk.since, chunk.to, chunk.full), (4, 9, false));
        assert_eq!(chunk.profile.totals(), p.totals());
        assert_eq!(chunk.profile.samples, p.samples);
        assert_eq!(chunk.funcs, names);
        // Full-resync chunks carry the flag through.
        let full = load_delta(&save_delta_with_names(&p, 0, 9, true, &|_| None)).unwrap();
        assert!(full.full && full.funcs.is_empty());
        // A delta chunk is not a profile file and vice versa.
        assert!(load(&text).is_err());
        assert!(load_delta(&save(&p)).is_err());
        // Malformed headers are rejected: bad kind, inverted range,
        // unknown version, truncated body.
        assert!(load_delta(&text.replace("kind=delta", "kind=banana")).is_err());
        assert!(load_delta(&text.replace("since=4", "since=99")).is_err());
        assert!(load_delta(&text.replace("\tv1\t", "\tv9\t")).is_err());
        assert!(load_delta(&text[..text.len() - 5]).is_err());
    }

    #[test]
    fn func_records_roundtrip_and_stay_optional() {
        let p = sample_profile();
        let names: FuncNames = [(1, "main".to_string()), (3, "work".to_string())]
            .into_iter()
            .collect();
        let text = save_with_names(&p, &|id| names.get(&id.0).cloned());
        assert!(text.contains("func\t1\tmain"));
        let (q, loaded) = load_with_funcs(&text).expect("roundtrip");
        assert_eq!(q.totals(), p.totals());
        assert_eq!(loaded, names);
        // Saving the loaded copy with the loaded names is byte-stable.
        let text2 = save_with_names(&q, &|id| loaded.get(&id.0).cloned());
        assert_eq!(text, text2);
        // Plain save never emits func records (legacy shape preserved).
        assert!(!save(&p).contains("func\t"));
        // Duplicate func ids are rejected.
        let dup = text.replace("func\t1\tmain", "func\t1\tmain\nfunc\t1\tother");
        assert!(load(&dup).is_err());
    }
}
