//! The per-site evidence record: one [`SiteStats`] per critical-section
//! site, kept by each thread in its [`SiteLedger`].
//!
//! Everything the runtime reports about a site — how its fallbacks were
//! dispatched ([`BackendMix`]), how long and how many attempts its sections
//! took ([`SiteHists`]), and what the contention manager did there
//! ([`CmStats`]) — lands in one slot of one thread-private, fixed-capacity
//! table (see [`crate::slots`] for the layout contract). Profiling harnesses
//! enable the ledger and drain it with [`SiteLedger::take_delta`]; the
//! profile then carries the same record per site end to end. Unprofiled
//! threads keep the detached ledger: every hook is one branch.

use txsim_htm::Ip;

use obs::Counter;

use crate::backend::FallbackKind;
use crate::cm_stats::{CmEvent, CmStats};
use crate::hist::SiteHists;
use crate::slots::SiteSlots;

/// Per-site fallback dispatch of the adaptive backend: how many fallback
/// completions each concrete flavor served, plus how many times the policy
/// switched the site's backend. Static backends never book a mix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendMix {
    /// Fallback completions serialized under the global lock.
    pub lock: u64,
    /// Fallback completions dispatched to the software TM.
    pub stm: u64,
    /// Fallback completions dispatched to the elided lock.
    pub hle: u64,
    /// Backend switches performed by the adaptive policy.
    pub switches: u64,
}

impl BackendMix {
    /// Total fallback completions across flavors.
    pub fn total(&self) -> u64 {
        self.lock + self.stm + self.hle
    }

    /// Whether every count is zero.
    pub fn is_zero(&self) -> bool {
        *self == BackendMix::default()
    }

    /// Add another mix's counts into this one.
    pub fn merge(&mut self, o: &BackendMix) {
        self.lock += o.lock;
        self.stm += o.stm;
        self.hle += o.hle;
        self.switches += o.switches;
    }

    /// Book one fallback completion on `flavor`, and the switch that chose
    /// it, if any.
    pub fn book(&mut self, flavor: FallbackKind, switched: bool) {
        match flavor {
            FallbackKind::Lock => self.lock += 1,
            FallbackKind::Stm => self.stm += 1,
            FallbackKind::Hle => self.hle += 1,
            FallbackKind::Adaptive => {
                unreachable!("adaptive dispatch resolves to a concrete flavor")
            }
        }
        self.switches += switched as u64;
    }

    /// The dominant flavor by completion count (`None` when nothing ran on
    /// the fallback path). Ties resolve in lock → stm → hle order, matching
    /// the runtime's own default-first preference.
    pub fn choice(&self) -> Option<&'static str> {
        if self.total() == 0 {
            return None;
        }
        let mut best = ("lock", self.lock);
        for (label, n) in [("stm", self.stm), ("hle", self.hle)] {
            if n > best.1 {
                best = (label, n);
            }
        }
        Some(best.0)
    }
}

/// Everything recorded about one critical-section site. Every component is
/// a set of monotone counters, so records merge by addition and a zero
/// component means "nothing happened" — absent and all-zero are the same.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteStats {
    /// Fallback dispatch (adaptive backend only).
    pub mix: BackendMix,
    /// Completion latency, retry-depth and fallback-dwell histograms.
    pub hists: SiteHists,
    /// Contention-management interventions.
    pub cm: CmStats,
}

impl SiteStats {
    /// Additive merge of every component.
    pub fn merge(&mut self, other: &SiteStats) {
        self.mix.merge(&other.mix);
        self.hists.merge(&other.hists);
        self.cm.merge(&other.cm);
    }

    /// Whether every component is zero.
    pub fn is_zero(&self) -> bool {
        self.mix.is_zero() && self.hists.is_zero() && self.cm.is_zero()
    }
}

/// Thread-private, fixed-capacity per-site [`SiteStats`] table. Detached
/// (zero capacity) until a profiling harness calls
/// [`crate::TmThread::enable_ledger`].
#[derive(Debug)]
pub struct SiteLedger {
    slots: SiteSlots<SiteStats>,
}

impl SiteLedger {
    /// A live ledger of [`crate::SITE_CAPACITY`] slots.
    pub fn new() -> SiteLedger {
        SiteLedger {
            slots: SiteSlots::new(),
        }
    }

    /// The zero-capacity ledger: every hook returns after one branch.
    pub fn detached() -> SiteLedger {
        SiteLedger {
            slots: SiteSlots::detached(),
        }
    }

    /// Records dropped because every slot was taken by another site.
    pub fn overflowed(&self) -> u64 {
        self.slots.overflowed()
    }

    /// Completion hook: record one finished critical section.
    #[inline]
    pub fn record_completion(
        &mut self,
        site: Ip,
        duration: u64,
        attempts: u32,
        fb_dwell: Option<u64>,
    ) {
        if let Some(s) = self.slots.seat(site) {
            s.hists.record_completion(duration, attempts, fb_dwell);
            obs::count(Counter::RtmHistStores);
        }
    }

    /// Book one contention-management intervention.
    pub fn book_cm(&mut self, site: Ip, event: CmEvent) {
        if let Some(s) = self.slots.seat(site) {
            s.cm.note(event);
        }
    }

    /// Book one adaptive fallback completion (and its switch, if any).
    pub fn book_mix(&mut self, site: Ip, flavor: FallbackKind, switched: bool) {
        if let Some(s) = self.slots.seat(site) {
            s.mix.book(flavor, switched);
        }
    }

    /// Drain every non-zero record accumulated since the last call. Sites
    /// stay seated, so re-recording needs no re-probing.
    pub fn take_delta(&mut self) -> Vec<(Ip, SiteStats)> {
        self.slots
            .iter_mut()
            .filter(|(_, s)| !s.is_zero())
            .map(|(site, s)| (site, std::mem::take(s)))
            .collect()
    }
}

impl Default for SiteLedger {
    fn default() -> Self {
        SiteLedger::detached()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SITE_CAPACITY;
    use txsim_htm::FuncId;

    fn site(n: u32) -> Ip {
        Ip::new(FuncId(n), 10 + n)
    }

    #[test]
    fn records_and_books_land_in_one_record_per_site() {
        let mut l = SiteLedger::new();
        l.record_completion(site(1), 100, 1, None);
        l.record_completion(site(1), 900, 3, Some(400));
        l.book_cm(site(1), CmEvent::Stall);
        l.book_mix(site(1), FallbackKind::Stm, true);
        l.book_mix(site(2), FallbackKind::Lock, false);
        l.book_cm(site(3), CmEvent::Yield);

        let mut delta = l.take_delta();
        delta.sort_by_key(|(s, _)| s.func.0);
        assert_eq!(delta.len(), 3);
        let (s1, a) = delta[0];
        assert_eq!(s1, site(1));
        assert_eq!(a.hists.tx_cycles.count, 2);
        assert_eq!(a.hists.retry_depth.sum, 4);
        assert_eq!(a.hists.fb_dwell.count, 1);
        assert_eq!(a.cm.stalls, 1);
        assert_eq!(
            a.mix,
            BackendMix {
                stm: 1,
                switches: 1,
                ..BackendMix::default()
            }
        );
        assert_eq!(delta[1].1.mix.lock, 1);
        assert!(delta[1].1.hists.is_zero() && delta[1].1.cm.is_zero());
        assert_eq!(delta[2].1.cm.yields, 1);
    }

    #[test]
    fn take_delta_drains_and_sites_stay_seated() {
        let mut l = SiteLedger::new();
        l.record_completion(site(1), 50, 1, None);
        assert_eq!(l.take_delta().len(), 1);
        assert!(l.take_delta().is_empty(), "drained");
        l.book_cm(site(1), CmEvent::Escalation);
        let delta = l.take_delta();
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].1.cm.escalations, 1);
        assert!(delta[0].1.hists.is_zero(), "old histogram was drained");
    }

    #[test]
    fn detached_ledger_is_inert() {
        let mut l = SiteLedger::detached();
        l.record_completion(site(1), 100, 1, None);
        l.book_cm(site(1), CmEvent::Yield);
        l.book_mix(site(1), FallbackKind::Hle, false);
        assert!(l.take_delta().is_empty());
        assert_eq!(l.overflowed(), 0, "detached drops are not overflow");
    }

    #[test]
    fn overflow_is_counted_and_capacity_never_grows() {
        let mut l = SiteLedger::new();
        let extra = 8u32;
        for n in 0..SITE_CAPACITY as u32 + extra {
            l.record_completion(site(n), 10, 1, None);
        }
        assert_eq!(l.overflowed(), extra as u64);
        // Seated sites keep recording; unseated ones keep counting.
        l.record_completion(site(0), 10, 1, None);
        l.book_cm(site(SITE_CAPACITY as u32 + 1), CmEvent::Yield);
        assert_eq!(l.overflowed(), extra as u64 + 1);
        assert_eq!(l.take_delta().len(), SITE_CAPACITY);
    }

    #[test]
    fn site_stats_merge_and_zero_cover_every_component() {
        let mut a = SiteStats::default();
        assert!(a.is_zero());
        let mut b = SiteStats::default();
        b.mix.book(FallbackKind::Lock, false);
        b.hists.record_completion(7, 2, None);
        b.cm.note(CmEvent::PriorityAbort);
        a.merge(&b);
        a.merge(&b);
        assert!(!a.is_zero());
        assert_eq!(a.mix.lock, 2);
        assert_eq!(a.hists.retry_depth.sum, 4);
        assert_eq!(a.cm.priority_aborts, 2);
        for only in [
            SiteStats {
                mix: b.mix,
                ..SiteStats::default()
            },
            SiteStats {
                hists: b.hists,
                ..SiteStats::default()
            },
            SiteStats {
                cm: b.cm,
                ..SiteStats::default()
            },
        ] {
            assert!(!only.is_zero(), "each component alone is non-zero");
        }
    }

    #[test]
    fn mix_totals_and_choice() {
        let mut a = BackendMix {
            lock: 2,
            stm: 10,
            hle: 1,
            switches: 1,
        };
        a.merge(&BackendMix {
            lock: 1,
            stm: 0,
            hle: 8,
            switches: 2,
        });
        assert_eq!(a.total(), 22);
        assert_eq!(a.switches, 3);
        assert_eq!(a.choice(), Some("stm"));
        assert_eq!(BackendMix::default().choice(), None);
        let tie = BackendMix {
            lock: 3,
            stm: 3,
            hle: 3,
            switches: 0,
        };
        assert_eq!(tie.choice(), Some("lock"), "ties prefer the default");
    }
}
