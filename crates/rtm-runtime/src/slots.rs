//! The fixed-capacity, open-addressed slot array behind both per-site
//! tables of a [`crate::TmThread`]: the adaptive policy's
//! [`crate::SiteTable`] and the evidence [`crate::SiteLedger`].
//!
//! * **Thread-private.** Only the owning thread touches its slots, so a
//!   hot-path update writes no shared cache line.
//! * **No allocation after construction.** Sites are seated by linear
//!   probing from one hash; a site that finds no free slot is not stored,
//!   and the drop is counted (each table's `overflowed()`) rather than
//!   allocated for.
//! * **Pay-for-use.** The zero-capacity detached form makes every hook one
//!   `is_empty` branch.

use txsim_htm::Ip;

/// Slot capacity of a live per-site table.
pub const SITE_CAPACITY: usize = 128;

// The probe wraps with a mask.
const _: () = assert!(SITE_CAPACITY.is_power_of_two());

/// Fixed-capacity per-site slots (see the module docs).
#[derive(Debug)]
pub(crate) struct SiteSlots<T> {
    slots: Box<[Option<(Ip, T)>]>,
    overflow: u64,
}

impl<T: Default> SiteSlots<T> {
    /// A live table of [`SITE_CAPACITY`] slots.
    pub(crate) fn new() -> SiteSlots<T> {
        SiteSlots {
            slots: (0..SITE_CAPACITY).map(|_| None).collect(),
            overflow: 0,
        }
    }

    /// The zero-capacity table: seats nothing, counts nothing.
    pub(crate) fn detached() -> SiteSlots<T> {
        SiteSlots {
            slots: Box::new([]),
            overflow: 0,
        }
    }

    #[inline]
    pub(crate) fn is_detached(&self) -> bool {
        self.slots.is_empty()
    }

    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records dropped because the table was full.
    pub(crate) fn overflowed(&self) -> u64 {
        self.overflow
    }

    /// Index of `site`'s slot, or of the first free slot on its probe
    /// path; `None` when the table is detached or full.
    #[inline]
    fn probe(&self, site: Ip) -> Option<usize> {
        let mask = self.slots.len().wrapping_sub(1);
        let h = ((site.func.0 as u64) << 32 | site.line as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let start = (h >> 32) as usize;
        (0..self.slots.len())
            .map(|i| (start + i) & mask)
            .find(|&i| self.slots[i].as_ref().is_none_or(|(s, _)| *s == site))
    }

    /// `site`'s entry if it is already seated (never seats).
    #[inline]
    pub(crate) fn get_mut(&mut self, site: Ip) -> Option<&mut T> {
        let i = self.probe(site)?;
        self.slots[i].as_mut().map(|(_, v)| v)
    }

    /// `site`'s entry, seated with `T::default()` on first use. A full
    /// table returns `None` and counts the drop; a detached one returns
    /// `None` after one branch.
    #[inline]
    pub(crate) fn seat(&mut self, site: Ip) -> Option<&mut T> {
        if self.slots.is_empty() {
            return None;
        }
        let Some(i) = self.probe(site) else {
            self.overflow += 1;
            return None;
        };
        Some(&mut self.slots[i].get_or_insert_with(|| (site, T::default())).1)
    }

    /// Every seated site, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Ip, &T)> {
        self.slots.iter().flatten().map(|(s, v)| (*s, v))
    }

    /// Every seated site, mutably, in slot order.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (Ip, &mut T)> {
        self.slots.iter_mut().flatten().map(|(s, v)| (*s, v))
    }
}
