//! Pluggable fallback backends.
//!
//! When a critical section exhausts its hardware retry budget the runtime
//! takes a *fallback path*. Historically that path was hard-wired: acquire
//! the global lock, run serially. This module turns the policy into a
//! [`FallbackBackend`] trait with three implementations:
//!
//! * [`GlobalLock`] — the classic single-global-lock fallback (default).
//!   Serializes all fallback executions and, via elision subscription,
//!   aborts every concurrent hardware transaction.
//! * [`Tl2Stm`] — run the fallback as a TL2-style *software* transaction
//!   ([`txstm`]). Independent fallback sections commit concurrently;
//!   commit-time read-set validation failures surface as a new
//!   [`AbortClass::Validation`] abort cause. Repeated validation failures
//!   or irrevocable actions (a syscall in the body) escalate to serial
//!   execution under the exclusive gate.
//! * [`SingleGlobalLockElided`] — HLE-style: one more *elided* acquisition
//!   of the global lock (transactional attempt subscribed to the lock
//!   word), then a real acquisition. Mirrors [`crate::hle`], but on the
//!   runtime's global lock.
//!
//! ## The shared lock word
//!
//! All backends arbitrate through the `TmLib`'s single global lock word so
//! that hardware elision ("lock free?" means "word == 0") keeps working
//! unmodified: `0` is free, [`GATE_EXCLUSIVE`] marks an exclusive holder
//! (serial fallback, [`crate::TmThread::locked_section`], irrevocable STM),
//! and the low bits count active software transactions. Any non-zero value
//! makes hardware attempts wait and dooms subscribed speculators, so
//! hardware and software transactions never overlap — the STM only has to
//! arbitrate software peers, which is exactly what TL2 does.

use std::sync::Arc;

use obs::Counter;
use txsim_htm::{AbortInfo, Addr, Ip, SimCpu, TxResult, XABORT_LOCK_HELD};
use txsim_pmu::AbortClass;
use txstm::cm::{make_cm, CmDecision, CmKind, ContentionManager};
use txstm::{CommitFail, Tl2};

pub use txstm::GATE_EXCLUSIVE;

use crate::cm_stats::CmEvent;
use crate::state::{IN_CS, IN_FALLBACK, IN_HTM, IN_LOCK_WAITING, IN_OVERHEAD, IN_STM};
use crate::TmThread;

/// Which fallback backend a [`crate::TmLib`] uses — the name that appears
/// on the CLI (`--fallback=`), in store metadata, and in diff provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FallbackKind {
    /// Serialize under the global lock (the paper's runtime; default).
    #[default]
    Lock,
    /// Run fallbacks as TL2 software transactions.
    Stm,
    /// One elided (HLE-style) global-lock acquisition, then a real one.
    Hle,
    /// Pick lock/STM/HLE (and a retry budget) *per site* from live abort
    /// statistics — the profiler's decision tree acted on at runtime.
    Adaptive,
}

impl FallbackKind {
    /// Every valid kind, in CLI presentation order.
    pub const ALL: [FallbackKind; 4] = [
        FallbackKind::Lock,
        FallbackKind::Stm,
        FallbackKind::Hle,
        FallbackKind::Adaptive,
    ];

    /// The canonical lowercase name (CLI value, store meta value).
    pub fn label(self) -> &'static str {
        match self {
            FallbackKind::Lock => "lock",
            FallbackKind::Stm => "stm",
            FallbackKind::Hle => "hle",
            FallbackKind::Adaptive => "adaptive",
        }
    }

    /// Parse a CLI/meta name. Returns `None` for unknown values — callers
    /// must reject, not default (silent defaulting hides typos).
    pub fn parse(s: &str) -> Option<FallbackKind> {
        FallbackKind::ALL.iter().copied().find(|k| k.label() == s)
    }
}

impl std::fmt::Display for FallbackKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A fallback execution policy: how to complete a critical section once the
/// hardware path has given up. Implementations must leave the global lock
/// word at 0, record exactly one [`crate::Truth::fallback`] for the
/// completion, and run `body` to completion (fallbacks cannot fail).
pub trait FallbackBackend {
    /// This backend's CLI-facing kind.
    fn kind(&self) -> FallbackKind;

    /// Complete one critical-section execution on the fallback path.
    fn execute<T>(
        &self,
        tm: &mut TmThread,
        cpu: &mut SimCpu,
        line: u32,
        lock: Addr,
        site: Ip,
        body: &mut dyn FnMut(&mut SimCpu) -> TxResult<T>,
    ) -> T;
}

/// The dispatchable set of backends. `FallbackBackend::execute` is generic
/// (not object-safe), so [`crate::TmLib`] holds this enum and matches.
pub enum Backend {
    /// See [`GlobalLock`].
    Lock(GlobalLock),
    /// See [`Tl2Stm`].
    Stm(Tl2Stm),
    /// See [`SingleGlobalLockElided`].
    Hle(SingleGlobalLockElided),
    /// See [`AdaptiveBackend`].
    Adaptive(AdaptiveBackend),
}

impl Backend {
    /// The backend's kind.
    pub fn kind(&self) -> FallbackKind {
        match self {
            Backend::Lock(b) => b.kind(),
            Backend::Stm(b) => b.kind(),
            Backend::Hle(b) => b.kind(),
            Backend::Adaptive(b) => b.kind(),
        }
    }

    pub(crate) fn execute<T>(
        &self,
        tm: &mut TmThread,
        cpu: &mut SimCpu,
        line: u32,
        lock: Addr,
        site: Ip,
        body: &mut dyn FnMut(&mut SimCpu) -> TxResult<T>,
    ) -> T {
        match self {
            Backend::Lock(b) => b.execute(tm, cpu, line, lock, site, body),
            Backend::Stm(b) => b.execute(tm, cpu, line, lock, site, body),
            Backend::Hle(b) => b.execute(tm, cpu, line, lock, site, body),
            Backend::Adaptive(b) => b.execute(tm, cpu, line, lock, site, body),
        }
    }
}

/// Acquire the global lock exclusively, run `body` plainly, release. The
/// common serial tail every backend eventually reaches; also the whole of
/// [`GlobalLock`] and the body of [`crate::TmThread::locked_section`].
pub(crate) fn exclusive_section<T>(
    tm: &mut TmThread,
    cpu: &mut SimCpu,
    line: u32,
    lock: Addr,
    site: Ip,
    body: &mut dyn FnMut(&mut SimCpu) -> TxResult<T>,
) -> T {
    tm.state.set(IN_CS | IN_LOCK_WAITING);
    loop {
        // The snooping CAS dooms every speculator subscribed to the word.
        match cpu
            .cas(line, lock, 0, GATE_EXCLUSIVE)
            .expect("plain CAS cannot abort")
        {
            Ok(_) => break,
            Err(_) => cpu.spin(line).expect("spin outside tx cannot abort"),
        }
    }
    tm.state.set(IN_CS | IN_FALLBACK);
    let v = body(cpu).expect("fallback instructions cannot abort");
    tm.state.set(IN_CS | IN_OVERHEAD);
    cpu.store_forced(line, lock, 0)
        .expect("plain store cannot abort");
    tm.truth.fallback(site);
    v
}

/// The classic fallback: serialize under the global lock.
#[derive(Debug, Default, Clone, Copy)]
pub struct GlobalLock;

impl FallbackBackend for GlobalLock {
    fn kind(&self) -> FallbackKind {
        FallbackKind::Lock
    }

    fn execute<T>(
        &self,
        tm: &mut TmThread,
        cpu: &mut SimCpu,
        line: u32,
        lock: Addr,
        site: Ip,
        body: &mut dyn FnMut(&mut SimCpu) -> TxResult<T>,
    ) -> T {
        exclusive_section(tm, cpu, line, lock, site, body)
    }
}

/// HLE-style fallback: one elided acquisition of the global lock (a
/// hardware transaction subscribed to the word), then a real acquisition.
/// Useful when the retry budget was exhausted by transient conflicts — the
/// extra attempt often commits without serializing anyone.
#[derive(Debug, Default, Clone, Copy)]
pub struct SingleGlobalLockElided;

impl FallbackBackend for SingleGlobalLockElided {
    fn kind(&self) -> FallbackKind {
        FallbackKind::Hle
    }

    fn execute<T>(
        &self,
        tm: &mut TmThread,
        cpu: &mut SimCpu,
        line: u32,
        lock: Addr,
        site: Ip,
        body: &mut dyn FnMut(&mut SimCpu) -> TxResult<T>,
    ) -> T {
        // Elided attempt, exactly like `hle_section` but on the global
        // lock word.
        let attempt: TxResult<T> = (|| {
            cpu.xbegin(line)?;
            tm.state.set(IN_CS | IN_HTM);
            if cpu.load(line, lock)? != 0 {
                cpu.xabort(line, XABORT_LOCK_HELD)?;
            }
            let v = body(cpu)?;
            cpu.xend(line)?;
            Ok(v)
        })();
        match attempt {
            Ok(v) => {
                tm.state.set(IN_CS | IN_OVERHEAD);
                // Still a fallback-path completion for the checksum
                // invariant, even though it committed speculatively.
                tm.truth.fallback(site);
                tm.truth.hle_commit(site);
                v
            }
            Err(_) => {
                tm.state.set(IN_CS | IN_OVERHEAD);
                let info = cpu.last_abort().expect("abort must record status");
                tm.record_abort(site, info);
                exclusive_section(tm, cpu, line, lock, site, body)
            }
        }
    }
}

/// TL2 software-transaction fallback: fallbacks speculate in software and
/// commit via versioned write-locks, so independent sections proceed
/// concurrently instead of convoying on the global lock.
pub struct Tl2Stm {
    tl2: Tl2,
    /// The contention manager consulted after every failed commit (and at
    /// every software-transaction begin). See [`txstm::cm`].
    cm: Arc<dyn ContentionManager>,
}

impl Tl2Stm {
    /// Wrap a TL2 engine (gated on the runtime's global lock word) with
    /// the default [`CmKind::Backoff`] contention manager.
    pub fn new(tl2: Tl2) -> Tl2Stm {
        Tl2Stm::with_cm(tl2, make_cm(CmKind::Backoff))
    }

    /// Same, with an explicit contention manager.
    pub fn with_cm(tl2: Tl2, cm: Arc<dyn ContentionManager>) -> Tl2Stm {
        Tl2Stm { tl2, cm }
    }

    /// The underlying engine (tests and diagnostics).
    pub fn engine(&self) -> &Tl2 {
        &self.tl2
    }
}

impl FallbackBackend for Tl2Stm {
    fn kind(&self) -> FallbackKind {
        FallbackKind::Stm
    }

    fn execute<T>(
        &self,
        tm: &mut TmThread,
        cpu: &mut SimCpu,
        line: u32,
        _lock: Addr,
        site: Ip,
        body: &mut dyn FnMut(&mut SimCpu) -> TxResult<T>,
    ) -> T {
        // The gate *is* the global lock word (`Tl2` holds its address).
        let tl2 = &self.tl2;
        tm.state.set(IN_CS | IN_LOCK_WAITING);
        tl2.gate_enter(cpu, line);

        let mut attempt = 0u32;
        loop {
            // Consult the contention manager before (re)opening the read
            // window: an outranked transaction spends its politeness window
            // here instead of racing a starving peer's validation.
            if let Some(iv) = self.cm.on_begin(cpu, line, &mut tm.cm_tx) {
                tm.ledger.book_cm(site, CmEvent::from(iv));
            }
            let rv = tl2.begin(cpu, line);
            tm.state.set(IN_CS | IN_FALLBACK | IN_STM);
            match body(cpu) {
                Ok(v) => match tl2.commit(cpu, line, rv) {
                    Ok(()) => {
                        tm.state.set(IN_CS | IN_OVERHEAD | IN_STM);
                        cpu.stm_report_commit(line);
                        tm.truth.fallback(site);
                        tm.truth.stm_commit(site);
                        tm.fb_attempts = attempt + 1;
                        tl2.gate_exit(cpu, line);
                        return v;
                    }
                    Err(abort) => {
                        tm.state.set(IN_CS | IN_OVERHEAD | IN_STM);
                        cpu.stm_report_abort(abort.ip, abort.weight);
                        tm.record_abort(
                            site,
                            AbortInfo::new(AbortClass::Validation, 0, abort.weight),
                        );
                        attempt += 1;
                        // The contention manager decides the reaction; the
                        // engine's `max_attempts` stays the escape hatch
                        // every policy must respect (the progress bound).
                        let max = tl2.config().max_attempts;
                        let res = match abort.cause {
                            CommitFail::LockBusy => {
                                self.cm
                                    .on_lock_conflict(&mut tm.cm_tx, abort.work, attempt, max)
                            }
                            CommitFail::Validation => self.cm.on_validation_failure(
                                &mut tm.cm_tx,
                                abort.work,
                                attempt,
                                max,
                            ),
                        };
                        if res.priority_abort {
                            tm.ledger.book_cm(site, CmEvent::PriorityAbort);
                        }
                        match res.decision {
                            CmDecision::Backoff => tl2.backoff(cpu, line, attempt),
                            CmDecision::Stall { spins } => {
                                tm.ledger.book_cm(site, CmEvent::Stall);
                                for _ in 0..spins {
                                    cpu.spin(line).expect("spin outside tx cannot abort");
                                }
                            }
                            CmDecision::Escalate => {
                                // Forced commit: give up on optimism and
                                // take the exclusive gate below.
                                tm.ledger.book_cm(site, CmEvent::Escalation);
                                break;
                            }
                        }
                    }
                },
                Err(_) => {
                    // Only irrevocable actions (syscall/page fault) abort a
                    // software transaction; roll back and run serially. The
                    // hardware attempts already recorded the sync abort, so
                    // truth is not double-charged here.
                    cpu.stm_cancel();
                    break;
                }
            }
        }

        // Irrevocable escalation. Drop our own gate share *first*: two
        // escalating threads that both kept their shares would each wait
        // forever for the other's to drain.
        tm.fb_attempts = attempt + 1;
        tl2.gate_exit(cpu, line);
        tm.state.set(IN_CS | IN_LOCK_WAITING);
        obs::count(Counter::RtmLockWaits);
        tl2.gate_lock_exclusive(cpu, line);
        tm.state.set(IN_CS | IN_FALLBACK);
        let v = body(cpu).expect("fallback instructions cannot abort");
        tm.state.set(IN_CS | IN_OVERHEAD);
        tl2.gate_unlock_exclusive(cpu, line);
        tm.truth.fallback(site);
        v
    }
}

/// Per-site dispatch driven by the profiler's own evidence: each site's
/// abort-class / validation / fallback-rate EWMAs (kept thread-privately in
/// [`crate::SiteTable`]) select which of the three concrete backends
/// completes that site's fallbacks, with hysteresis so sites don't flap.
/// The policy mapping is [`crate::AdaptivePolicy::classify`] — the same
/// function the decision tree's `SwitchBackend` suggestion evaluates, so
/// report advice and runtime behavior agree by construction.
pub struct AdaptiveBackend {
    lock: GlobalLock,
    stm: Tl2Stm,
    hle: SingleGlobalLockElided,
}

impl AdaptiveBackend {
    /// Build the adaptive dispatcher over a TL2 engine (gated on the
    /// runtime's global lock word, exactly like the static STM backend),
    /// with the default [`CmKind::Backoff`] contention manager.
    pub fn new(tl2: Tl2) -> AdaptiveBackend {
        AdaptiveBackend::with_cm(tl2, make_cm(CmKind::Backoff))
    }

    /// Same, with an explicit contention manager for the STM flavor.
    pub fn with_cm(tl2: Tl2, cm: Arc<dyn ContentionManager>) -> AdaptiveBackend {
        AdaptiveBackend {
            lock: GlobalLock,
            stm: Tl2Stm::with_cm(tl2, cm),
            hle: SingleGlobalLockElided,
        }
    }

    /// The underlying TL2 engine (tests and diagnostics).
    pub fn engine(&self) -> &Tl2 {
        self.stm.engine()
    }
}

impl FallbackBackend for AdaptiveBackend {
    fn kind(&self) -> FallbackKind {
        FallbackKind::Adaptive
    }

    fn execute<T>(
        &self,
        tm: &mut TmThread,
        cpu: &mut SimCpu,
        line: u32,
        lock: Addr,
        site: Ip,
        body: &mut dyn FnMut(&mut SimCpu) -> TxResult<T>,
    ) -> T {
        let (flavor, switched) = tm.sites.choose(site);
        if switched {
            obs::count(Counter::RtmBackendSwitches);
            tm.truth.backend_switch(site);
        }
        let v = match flavor {
            FallbackKind::Lock => self.lock.execute(tm, cpu, line, lock, site, body),
            FallbackKind::Stm => self.stm.execute(tm, cpu, line, lock, site, body),
            FallbackKind::Hle => self.hle.execute(tm, cpu, line, lock, site, body),
            FallbackKind::Adaptive => unreachable!("per-site choice is always concrete"),
        };
        tm.sites.note_fallback(site);
        tm.ledger.book_mix(site, flavor, switched);
        v
    }
}
