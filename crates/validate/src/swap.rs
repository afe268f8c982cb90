//! Swap predicates and packed `(A, B)` pair utilities.
//!
//! A *swap* w.r.t. the OC `A ~ B` is a pair of tuples `s, t` with
//! `s ≺_A t` but `t ≺_B s` (Definition 2.5). All validators work within one
//! context equivalence class at a time on the rank pairs
//! `(rank_A(row), rank_B(row))`.
//!
//! Pairs are packed into a single `u64` (`A` in the high half) so that an
//! unstable `u64` sort realises the `[A ASC, B ASC]` order of Algorithm 1/2
//! line 3 — measurably faster than sorting `(u32, u32)` tuples and free of
//! per-element comparisons. For the OD variant (`B` descending tie-break,
//! Section 3.3) the low half stores `!B`.

/// Packs `(a, b)` so that `u64` order is `[A ASC, B ASC]`.
#[inline]
pub fn pack_asc(a: u32, b: u32) -> u64 {
    ((a as u64) << 32) | b as u64
}

/// Packs `(a, b)` so that `u64` order is `[A ASC, B DESC]`
/// (the tie-break used to validate ODs, which must also remove splits).
#[inline]
pub fn pack_desc_b(a: u32, b: u32) -> u64 {
    ((a as u64) << 32) | (!b) as u64
}

/// Extracts `a` from a packed pair (either packing).
#[inline]
pub fn unpack_a(key: u64) -> u32 {
    (key >> 32) as u32
}

/// Extracts `b` from an [`pack_asc`]-packed pair.
#[inline]
pub fn unpack_b_asc(key: u64) -> u32 {
    key as u32
}

/// Extracts `b` from a [`pack_desc_b`]-packed pair.
#[inline]
pub fn unpack_b_desc(key: u64) -> u32 {
    !(key as u32)
}

/// The swap predicate on two rank pairs: strictly ordered one way on `A`,
/// strictly the other way on `B`.
#[inline]
pub fn is_swap(s: (u32, u32), t: (u32, u32)) -> bool {
    (s.0 < t.0 && t.1 < s.1) || (t.0 < s.0 && s.1 < t.1)
}

/// The split predicate on two rank pairs w.r.t. the FD `A -> B`:
/// equal on `A`, different on `B` (Definition 2.6).
#[inline]
pub fn is_split(s: (u32, u32), t: (u32, u32)) -> bool {
    s.0 == t.0 && s.1 != t.1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_round_trips() {
        for &(a, b) in &[(0u32, 0u32), (1, 2), (u32::MAX, 7), (3, u32::MAX)] {
            assert_eq!(unpack_a(pack_asc(a, b)), a);
            assert_eq!(unpack_b_asc(pack_asc(a, b)), b);
            assert_eq!(unpack_a(pack_desc_b(a, b)), a);
            assert_eq!(unpack_b_desc(pack_desc_b(a, b)), b);
        }
    }

    #[test]
    fn asc_packing_orders_lexicographically() {
        let mut keys = [
            pack_asc(1, 5),
            pack_asc(0, 9),
            pack_asc(1, 2),
            pack_asc(0, 0),
        ];
        keys.sort_unstable();
        let pairs: Vec<(u32, u32)> = keys
            .iter()
            .map(|&k| (unpack_a(k), unpack_b_asc(k)))
            .collect();
        assert_eq!(pairs, vec![(0, 0), (0, 9), (1, 2), (1, 5)]);
    }

    #[test]
    fn desc_packing_reverses_b_ties() {
        let mut keys = [pack_desc_b(1, 2), pack_desc_b(1, 9), pack_desc_b(0, 3)];
        keys.sort_unstable();
        let pairs: Vec<(u32, u32)> = keys
            .iter()
            .map(|&k| (unpack_a(k), unpack_b_desc(k)))
            .collect();
        assert_eq!(pairs, vec![(0, 3), (1, 9), (1, 2)]);
    }

    #[test]
    fn swap_predicate() {
        assert!(is_swap((0, 1), (1, 0)));
        assert!(is_swap((1, 0), (0, 1))); // symmetric
        assert!(!is_swap((0, 0), (1, 1))); // co-ordered
        assert!(!is_swap((0, 5), (0, 1))); // equal A: a split, not a swap
        assert!(!is_swap((0, 1), (1, 1))); // equal B: not a swap
        assert!(!is_swap((2, 2), (2, 2)));
    }

    #[test]
    fn split_predicate() {
        assert!(is_split((0, 1), (0, 2)));
        assert!(!is_split((0, 1), (1, 2)));
        assert!(!is_split((0, 1), (0, 1)));
    }
}
