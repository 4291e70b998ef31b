//! Per-site contention-management counters.
//!
//! Every intervention a [`txstm::cm::ContentionManager`] makes — a yield at
//! begin, a stall instead of backoff, an escalation to the exclusive gate, a
//! priority abort — is counted against the critical-section site that paid
//! for it, in the `cm` component of that site's [`crate::SiteStats`]. Like
//! the rest of the record it lives in the thread's private
//! [`crate::SiteLedger`] and is drained by profiling harnesses.
//! Interventions only happen on the contended slow path (a failed commit or
//! a non-empty karma board), so an uncontended run never books one.

/// Contention-management interventions at one site. The counters mirror the
/// [`txstm::cm`] hook contract: `yields` and `stalls` are waiting the policy
/// injected, `escalations` are forced serial commits, `priority_aborts` are
/// aborts attributed to losing karma arbitration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CmStats {
    /// Begin-time deferrals to a higher-karma peer.
    pub yields: u64,
    /// Brief fixed stalls taken (by the top-karma transaction) instead of
    /// exponential backoff.
    pub stalls: u64,
    /// Escalations to the exclusive gate (forced/irrevocable commits) the
    /// policy decided — including the backoff policy's `max_attempts`
    /// escape hatch.
    pub escalations: u64,
    /// Aborts a transaction took because a higher-karma peer had priority.
    pub priority_aborts: u64,
}

impl CmStats {
    /// Total interventions of any kind.
    pub fn total(&self) -> u64 {
        self.yields + self.stalls + self.escalations + self.priority_aborts
    }

    /// Whether nothing was booked.
    pub fn is_zero(&self) -> bool {
        self.total() == 0
    }

    /// Add `other` in (profile merge).
    pub fn merge(&mut self, other: &CmStats) {
        self.yields += other.yields;
        self.stalls += other.stalls;
        self.escalations += other.escalations;
        self.priority_aborts += other.priority_aborts;
    }

    /// Book one event.
    pub fn note(&mut self, event: CmEvent) {
        match event {
            CmEvent::Yield => self.yields += 1,
            CmEvent::Stall => self.stalls += 1,
            CmEvent::Escalation => self.escalations += 1,
            CmEvent::PriorityAbort => self.priority_aborts += 1,
        }
    }
}

/// One contention-management intervention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmEvent {
    /// Deferred at begin to a higher-karma peer.
    Yield,
    /// Stalled briefly instead of backing off.
    Stall,
    /// Escalated to the exclusive gate.
    Escalation,
    /// Aborted in deference to a higher-karma peer.
    PriorityAbort,
}

impl From<txstm::cm::CmIntervention> for CmEvent {
    fn from(iv: txstm::cm::CmIntervention) -> CmEvent {
        match iv {
            txstm::cm::CmIntervention::Yielded => CmEvent::Yield,
            txstm::cm::CmIntervention::Stalled => CmEvent::Stall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn note_and_merge_count_every_kind() {
        let mut a = CmStats::default();
        assert!(a.is_zero());
        for e in [
            CmEvent::Yield,
            CmEvent::Stall,
            CmEvent::Stall,
            CmEvent::Escalation,
            CmEvent::PriorityAbort,
        ] {
            a.note(e);
        }
        assert_eq!((a.yields, a.stalls), (1, 2));
        assert_eq!(a.total(), 5);
        let mut merged = a;
        merged.merge(&a);
        assert_eq!(merged.total(), 10);
        assert_eq!(merged.escalations, 2);
    }
}
