//! Pruning state accumulated across lattice levels.
//!
//! The driver's three candidate-pruning rules all key off facts discovered
//! at lower levels:
//!
//! * **R2 (context implication)** — a valid OC in a sub-context implies
//!   every super-context one: swaps within a finer partition class are
//!   swaps within the coarser class, so minimal removal sets only shrink
//!   as contexts grow;
//! * **R3 (constancy implication)** — if `Y: [] |-> A` holds (w.r.t. ε)
//!   for `Y ⊆ X\{A,B}`, removing its removal set leaves `A` constant per
//!   class, so no swap survives: the OC is implied;
//! * **R4 (key pruning)** — a keyed context has only singleton classes,
//!   hence no swaps: the OC holds trivially and carries no information.
//!
//! [`PruneState`] records the found-OC contexts per pair and the constant
//! contexts per attribute, and answers the implication queries the engine
//! issues per candidate. R4 and node deletion read keys off the cached
//! partitions instead.
//!
//! ## Candidates answered from a sub-context
//!
//! It also records the lattice sets that are not *free*. A set `S` is free
//! when every one-smaller subset has fewer classes:
//! `|Π_{S∖c}| < |Π_S|` for every `c ∈ S`. Otherwise `S∖C → C` holds
//! exactly for some `C ∈ S`, and since `Π_S` refines `Π_{S∖C}`, the two
//! partitions are equal. `Frontier::seed` compares each singleton with
//! `Π_∅`, and `Frontier::advance` compares each child with its parents,
//! when the partition is built.
//!
//! An OC candidate `Y: A ~ B` that survives R2–R4 and whose context `Y`
//! is not free is invalid, and the engine reports it so without calling
//! the backend. Take `C ∈ Y` with `Π_Y = Π_W` for `W = Y∖{C}`, at node
//! `N = Y ∪ {A, B}` on level `ℓ ≥ 3`:
//!
//! * The prefix join keeps a node only if all its subsets were retained,
//!   so `W ∪ {A, B}` was a level-`ℓ−1` node and `W: A ~ B` was evaluated
//!   there. A level cut short by cancel, timeout or `top_k` ends the
//!   session, so that level ran in full.
//! * Had R2, R3 or R4 pruned `W: A ~ B`, the same rule would prune
//!   `Y: A ~ B`: R2 and R3 test subsets of the context, and a partition
//!   equal to a key is a key. Had `W: A ~ B` been valid, it would have
//!   been recorded, and R2 would prune `Y: A ~ B`. So `W: A ~ B` was
//!   rejected: by the backend, or by this rule, which by induction on the
//!   level answers only candidates the backend rejects.
//! * A backend's verdict depends only on the context's classes as row
//!   sets, the two rank slices and the budget (the
//!   [`OcValidatorBackend`](aod_validate::OcValidatorBackend) contract),
//!   and all of these are the same for `Y: A ~ B`. It would reject it too.
//!
//! The check therefore runs only when R2 is on: with R2 off, a valid
//! `W: A ~ B` is not pruned one level up, and `Y: A ~ B` must reach the
//! backend. It runs last, after R4 and right before the backend call, so
//! every R2–R4 prune and its `Pruned` event stay where they are. The
//! candidate still counts as validated and emits no event, so no output
//! changes.

use aod_partition::{AttrSet, AttrSetSet};

/// Which pruning rule skipped a candidate (reported in
/// [`DiscoveryEvent::Pruned`](crate::DiscoveryEvent::Pruned)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneRule {
    /// R2 — implied by a valid OC found in a sub-context.
    ContextImplication,
    /// R3 — implied by an (approximately) constant attribute.
    ConstancyImplication,
    /// R4 — the context partition is a key, so the OC holds trivially.
    KeyPruning,
}

/// Cross-level pruning facts: found-OC contexts, constant attributes and
/// sets that are not free.
#[derive(Debug)]
pub(crate) struct PruneState {
    n_attrs: usize,
    /// R2 state: contexts of found OCs per attribute pair (`a*n+b`, `a<b`).
    oc_found: Vec<Vec<AttrSet>>,
    /// R3 state: contexts where each attribute is (approximately) constant.
    const_found: Vec<Vec<AttrSet>>,
    /// Sets whose partition equals a one-smaller subset's (see the module
    /// docs).
    non_free: AttrSetSet,
}

impl PruneState {
    /// Fresh state for an `n_attrs`-column table.
    pub fn new(n_attrs: usize) -> PruneState {
        PruneState {
            n_attrs,
            oc_found: vec![Vec::new(); n_attrs * n_attrs],
            const_found: vec![Vec::new(); n_attrs],
            non_free: AttrSetSet::default(),
        }
    }

    /// Records a valid OC `ctx: a ~ b` (`a < b`) for R2 lookups.
    pub fn record_oc(&mut self, a: usize, b: usize, ctx: AttrSet) {
        self.oc_found[a * self.n_attrs + b].push(ctx);
    }

    /// Records a valid OFD `ctx: [] |-> a` for R3 lookups.
    pub fn record_constant(&mut self, a: usize, ctx: AttrSet) {
        self.const_found[a].push(ctx);
    }

    /// Records that `Π_set` equals the partition of a one-smaller subset.
    pub fn record_non_free(&mut self, set: AttrSet) {
        self.non_free.insert(set);
    }

    /// Does `Π_ctx` equal the partition of a one-smaller subset? Then an
    /// OC candidate in context `ctx` that survives R2–R4 is invalid (see
    /// the module docs).
    pub fn is_non_free(&self, ctx: AttrSet) -> bool {
        self.non_free.contains(&ctx)
    }

    /// R2: is `ctx: a ~ b` implied by an OC found in a sub-context?
    pub fn oc_implied(&self, a: usize, b: usize, ctx: AttrSet) -> bool {
        self.oc_found[a * self.n_attrs + b]
            .iter()
            .any(|y| y.is_subset_of(ctx))
    }

    /// R3: is either attribute (approximately) constant in a sub-context?
    pub fn constancy_implied(&self, a: usize, b: usize, ctx: AttrSet) -> bool {
        self.const_found[a].iter().any(|y| y.is_subset_of(ctx))
            || self.const_found[b].iter().any(|y| y.is_subset_of(ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implication_queries_respect_subsets() {
        let mut p = PruneState::new(4);
        p.record_oc(0, 1, AttrSet::singleton(2));
        assert!(p.oc_implied(0, 1, AttrSet::from_attrs([2, 3])));
        assert!(p.oc_implied(0, 1, AttrSet::singleton(2)));
        assert!(!p.oc_implied(0, 1, AttrSet::singleton(3)));
        assert!(!p.oc_implied(1, 2, AttrSet::from_attrs([2, 3])));

        p.record_constant(3, AttrSet::EMPTY);
        assert!(p.constancy_implied(0, 3, AttrSet::singleton(1)));
        assert!(p.constancy_implied(3, 1, AttrSet::EMPTY));
        assert!(!p.constancy_implied(0, 1, AttrSet::singleton(3)));
    }
}
