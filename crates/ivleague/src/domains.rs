//! The IV Domain Controller: runtime TreeLing ↔ domain management
//! (paper §VI-D1, Figure 5).
//!
//! Two on-chip structures steer inter-TreeLing management:
//!
//! * the **Unassigned TreeLing FIFO** of currently free TreeLings, and
//! * the **Assignment Table** mapping each live domain to its TreeLings.
//!
//! A new TreeLing is pulled from the FIFO only when every TreeLing already
//! owned by the domain is exhausted; destroying a domain returns all of its
//! TreeLings to the FIFO. *TreeLing starvation* (paper §VI-D2) is the state
//! where the FIFO is empty while a domain still needs coverage — the
//! controller reports it so callers can account failures (Figure 22).
//!
//! The FIFO is a plain `VecDeque`: recycled TreeLings join the back and are
//! re-assigned oldest-first. That order decides forest layout, so it is
//! pinned by a unit test below.

use std::collections::VecDeque;

use ivl_sim_core::domain::DomainId;

use crate::geometry::TreeLingId;

/// Error returned when no TreeLing can be assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StarvationError {
    /// The domain whose request failed.
    pub domain: DomainId,
}

impl std::fmt::Display for StarvationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TreeLing starvation: no unassigned TreeLing for {}",
            self.domain
        )
    }
}

impl std::error::Error for StarvationError {}

/// The domain controller.
///
/// # Examples
///
/// ```
/// use ivleague::domains::DomainController;
/// use ivl_sim_core::domain::DomainId;
///
/// let mut ctl = DomainController::new(4);
/// let d = DomainId::new_unchecked(0);
/// let t = ctl.assign(d).unwrap();
/// assert_eq!(ctl.treelings_of(d), &[t]);
/// ctl.destroy(d);
/// assert_eq!(ctl.unassigned(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct DomainController {
    unassigned: VecDeque<TreeLingId>,
    /// The assignment table, indexed by [`DomainId::index`]: `None` for a
    /// domain that never held a TreeLing or was destroyed. Every map and
    /// unmap reads it, so it is a dense table rather than a hash map.
    assignment: Vec<Option<Vec<TreeLingId>>>,
    starvation_events: u64,
}

impl DomainController {
    /// Creates a controller over `treeling_count` TreeLings, all unassigned.
    pub fn new(treeling_count: u32) -> Self {
        DomainController {
            unassigned: (0..treeling_count).map(TreeLingId).collect(),
            assignment: Vec::new(),
            starvation_events: 0,
        }
    }

    /// Assigns the next unassigned TreeLing to `domain`.
    ///
    /// # Errors
    ///
    /// Returns [`StarvationError`] when the FIFO is empty.
    pub fn assign(&mut self, domain: DomainId) -> Result<TreeLingId, StarvationError> {
        match self.unassigned.pop_front() {
            Some(t) => {
                let di = domain.index();
                if di >= self.assignment.len() {
                    self.assignment.resize_with(di + 1, || None);
                }
                self.assignment[di].get_or_insert_with(Vec::new).push(t);
                Ok(t)
            }
            None => {
                self.starvation_events += 1;
                Err(StarvationError { domain })
            }
        }
    }

    /// TreeLings currently assigned to `domain`, in assignment order.
    pub fn treelings_of(&self, domain: DomainId) -> &[TreeLingId] {
        self.assignment
            .get(domain.index())
            .and_then(Option::as_deref)
            .unwrap_or(&[])
    }

    /// Detaches one TreeLing from a domain (e.g. after it drained), putting
    /// it back on the FIFO. Returns whether it was assigned to the domain.
    pub fn detach(&mut self, domain: DomainId, treeling: TreeLingId) -> bool {
        if let Some(Some(list)) = self.assignment.get_mut(domain.index()) {
            if let Some(pos) = list.iter().position(|t| *t == treeling) {
                list.remove(pos);
                self.unassigned.push_back(treeling);
                return true;
            }
        }
        false
    }

    /// Destroys a domain, recycling all of its TreeLings.
    pub fn destroy(&mut self, domain: DomainId) {
        if let Some(list) = self
            .assignment
            .get_mut(domain.index())
            .and_then(Option::take)
        {
            self.unassigned.extend(list);
        }
    }

    /// Number of unassigned TreeLings.
    pub fn unassigned(&self) -> usize {
        self.unassigned.len()
    }

    /// Number of live domains.
    pub fn live_domains(&self) -> usize {
        self.assignment.iter().filter(|a| a.is_some()).count()
    }

    /// Total starvation events observed.
    pub fn starvation_events(&self) -> u64 {
        self.starvation_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: u16) -> DomainId {
        DomainId::new_unchecked(i)
    }

    #[test]
    fn fifo_order_assignment() {
        let mut c = DomainController::new(3);
        assert_eq!(c.assign(d(0)).unwrap(), TreeLingId(0));
        assert_eq!(c.assign(d(1)).unwrap(), TreeLingId(1));
        assert_eq!(c.assign(d(0)).unwrap(), TreeLingId(2));
        assert_eq!(c.treelings_of(d(0)), &[TreeLingId(0), TreeLingId(2)]);
    }

    #[test]
    fn starvation_reported_and_counted() {
        let mut c = DomainController::new(1);
        c.assign(d(0)).unwrap();
        assert!(c.assign(d(1)).is_err());
        assert_eq!(c.starvation_events(), 1);
    }

    #[test]
    fn destroy_recycles_treelings() {
        let mut c = DomainController::new(2);
        c.assign(d(0)).unwrap();
        c.assign(d(0)).unwrap();
        c.destroy(d(0));
        assert_eq!(c.unassigned(), 2);
        assert_eq!(c.live_domains(), 0);
        // Recycled TreeLings are assignable again.
        assert!(c.assign(d(1)).is_ok());
    }

    #[test]
    fn detach_single_treeling() {
        let mut c = DomainController::new(2);
        let t = c.assign(d(0)).unwrap();
        assert!(c.detach(d(0), t));
        assert!(!c.detach(d(0), t));
        assert_eq!(c.unassigned(), 2);
    }

    #[test]
    fn isolation_no_treeling_shared() {
        let mut c = DomainController::new(8);
        let mut all = Vec::new();
        for i in 0..4 {
            all.push(c.assign(d(i)).unwrap());
            all.push(c.assign(d(i)).unwrap());
        }
        let unique: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len(), "TreeLings must never be shared");
    }

    #[test]
    fn recycled_treelings_are_reassigned_oldest_first() {
        // Forest layout (and so every figure) depends on this: detach and
        // destroy append to the back of the FIFO, assign pops the front.
        let mut c = DomainController::new(5);
        for t in 0..5 {
            assert_eq!(c.assign(d(t % 2)).unwrap(), TreeLingId(t as u32));
        }
        // d0 holds 0, 2, 4; d1 holds 1, 3.
        assert!(c.detach(d(0), TreeLingId(2)));
        c.destroy(d(1));
        assert!(c.detach(d(0), TreeLingId(4)));
        c.destroy(d(0));
        let order: Vec<TreeLingId> = (0..5).map(|_| c.assign(d(7)).unwrap()).collect();
        assert_eq!(
            order,
            [2, 1, 3, 4, 0].map(TreeLingId),
            "recycling must be FIFO across detach and destroy"
        );
        assert!(c.assign(d(7)).is_err());
    }
}
