//! Attribute sets as 64-bit bitsets.
//!
//! The set-based discovery framework works over the lattice of attribute
//! *sets* (contexts). With at most 64 attributes (the paper evaluates up to
//! 35) a `u64` bitset gives O(1) set algebra, `popcnt` levels, and a perfect
//! hash key for partition caching.

use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A set of attribute indices (column positions), stored as a `u64` bitmask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct AttrSet(u64);

/// Maximum number of attributes representable.
pub const MAX_ATTRS: usize = 64;

impl AttrSet {
    /// The empty set.
    pub const EMPTY: AttrSet = AttrSet(0);

    /// A singleton set `{attr}`.
    ///
    /// # Panics
    /// If `attr >= 64`.
    pub fn singleton(attr: usize) -> AttrSet {
        assert!(attr < MAX_ATTRS, "attribute index {attr} out of range");
        AttrSet(1u64 << attr)
    }

    /// A set containing all attributes `0..n`.
    pub fn full(n: usize) -> AttrSet {
        assert!(n <= MAX_ATTRS, "attribute count {n} out of range");
        if n == MAX_ATTRS {
            AttrSet(u64::MAX)
        } else {
            AttrSet((1u64 << n) - 1)
        }
    }

    /// Builds a set from attribute indices.
    pub fn from_attrs<I: IntoIterator<Item = usize>>(attrs: I) -> AttrSet {
        attrs.into_iter().fold(AttrSet::EMPTY, |s, a| s.with(a))
    }

    /// The raw bitmask.
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Number of attributes in the set (the lattice *level*).
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// `true` when empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Membership test.
    pub fn contains(self, attr: usize) -> bool {
        attr < MAX_ATTRS && self.0 & (1u64 << attr) != 0
    }

    /// The set with `attr` added.
    pub fn with(self, attr: usize) -> AttrSet {
        assert!(attr < MAX_ATTRS, "attribute index {attr} out of range");
        AttrSet(self.0 | (1u64 << attr))
    }

    /// The set with `attr` removed.
    pub fn without(self, attr: usize) -> AttrSet {
        AttrSet(self.0 & !(1u64 << (attr as u32 & 63)))
    }

    /// Set union.
    pub fn union(self, other: AttrSet) -> AttrSet {
        AttrSet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersect(self, other: AttrSet) -> AttrSet {
        AttrSet(self.0 & other.0)
    }

    /// Set difference `self \ other`.
    pub fn difference(self, other: AttrSet) -> AttrSet {
        AttrSet(self.0 & !other.0)
    }

    /// `true` when `self ⊆ other`.
    pub fn is_subset_of(self, other: AttrSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Iterates over member attribute indices in ascending order.
    pub fn iter(self) -> AttrIter {
        AttrIter(self.0)
    }

    /// The lowest attribute index, if non-empty.
    pub fn first(self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            Some(self.0.trailing_zeros() as usize)
        }
    }

    /// Formats with column names from a name table.
    pub fn display_with<'a>(self, names: &'a [&'a str]) -> DisplayAttrSet<'a> {
        DisplayAttrSet { set: self, names }
    }
}

/// Iterator over the attribute indices of an [`AttrSet`].
#[derive(Debug, Clone)]
pub struct AttrIter(u64);

impl Iterator for AttrIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            let a = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(a)
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for AttrIter {}

impl fmt::Display for AttrSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, a) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "}}")
    }
}

/// Display adaptor printing attribute names instead of indices.
pub struct DisplayAttrSet<'a> {
    set: AttrSet,
    names: &'a [&'a str],
}

impl fmt::Display for DisplayAttrSet<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, a) in self.set.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            match self.names.get(a) {
                Some(n) => write!(f, "{n}")?,
                None => write!(f, "#{a}")?,
            }
        }
        write!(f, "}}")
    }
}

/// A fast, non-cryptographic hasher for `AttrSet`/`u64` hash-map keys.
///
/// The default SipHash is needlessly slow for 8-byte keys on the discovery
/// hot path (candidate-set and partition-cache lookups); this is the usual
/// Fibonacci-multiply finalizer. HashDoS is not a concern: keys come from
/// the lattice traversal, not from untrusted input.
#[derive(Default)]
pub struct AttrSetHasher {
    hash: u64,
}

impl Hasher for AttrSetHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback: fold 8-byte chunks.
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.hash = (self.hash ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        // xor-fold so the high (well-mixed) bits influence table index bits.
        self.hash ^ (self.hash >> 32)
    }
}

/// `BuildHasher` for [`AttrSetHasher`].
pub type AttrSetBuildHasher = BuildHasherDefault<AttrSetHasher>;

/// A hash map keyed by [`AttrSet`] using the fast hasher.
pub type AttrSetMap<V> = std::collections::HashMap<AttrSet, V, AttrSetBuildHasher>;

/// A hash set of [`AttrSet`] using the fast hasher.
pub type AttrSetSet = std::collections::HashSet<AttrSet, AttrSetBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_membership() {
        let s = AttrSet::from_attrs([0, 3, 5]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(0) && s.contains(3) && s.contains(5));
        assert!(!s.contains(1));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 3, 5]);
    }

    #[test]
    fn algebra() {
        let a = AttrSet::from_attrs([0, 1, 2]);
        let b = AttrSet::from_attrs([2, 3]);
        assert_eq!(a.union(b), AttrSet::from_attrs([0, 1, 2, 3]));
        assert_eq!(a.intersect(b), AttrSet::singleton(2));
        assert_eq!(a.difference(b), AttrSet::from_attrs([0, 1]));
        assert!(AttrSet::from_attrs([0, 2]).is_subset_of(a));
        assert!(!a.is_subset_of(b));
        assert!(AttrSet::EMPTY.is_subset_of(b));
    }

    #[test]
    fn with_without() {
        let s = AttrSet::singleton(4).with(7);
        assert_eq!(s.without(4), AttrSet::singleton(7));
        assert_eq!(s.without(9), s); // removing a non-member is a no-op
    }

    #[test]
    fn full_sets() {
        assert_eq!(AttrSet::full(3).iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(AttrSet::full(64).len(), 64);
        assert_eq!(AttrSet::full(0), AttrSet::EMPTY);
    }

    #[test]
    fn display_with_names() {
        let s = AttrSet::from_attrs([0, 2]);
        let names = ["pos", "exp", "sal"];
        assert_eq!(s.display_with(&names).to_string(), "{pos,sal}");
        assert_eq!(s.to_string(), "{0,2}");
        assert_eq!(AttrSet::EMPTY.to_string(), "{}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_large_indices() {
        AttrSet::singleton(64);
    }

    #[test]
    fn fast_hash_map_works() {
        let mut m: AttrSetMap<u32> = AttrSetMap::default();
        for i in 0..64 {
            m.insert(AttrSet::singleton(i), i as u32);
        }
        assert_eq!(m.len(), 64);
        assert_eq!(m[&AttrSet::singleton(17)], 17);
    }

    #[test]
    fn first_and_empty() {
        assert_eq!(AttrSet::EMPTY.first(), None);
        assert_eq!(AttrSet::from_attrs([5, 9]).first(), Some(5));
        assert!(AttrSet::EMPTY.is_empty());
    }
}
