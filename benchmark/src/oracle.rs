//! The exact per-operation oracle.
//!
//! Every value is a fixed function of its key, and every key has exactly one
//! writer: worker `id` of `n` is the only thread that ever inserts or removes
//! keys with `key % n == id`, and it mirrors their membership in a private
//! [`Bitset`].  So the worker knows, without any synchronisation, the exact
//! return value of each of its own inserts and removes, the exact answer of a
//! `get` on a key it owns, and — because range queries are linearizable and
//! nobody else touches its keys — exactly which of its keys a range over any
//! interval must contain.  Foreign keys are checked for value integrity.

/// The value stored under `key`, everywhere and always.
#[inline]
pub fn value_of(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}

/// Membership of one worker's keys, indexed by key over the whole universe
/// (bits of keys the worker does not own stay 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitset {
    words: Vec<u64>,
}

impl Bitset {
    /// All-absent set over keys `0..universe`.
    pub fn new(universe: u64) -> Self {
        Self {
            words: vec![0; (universe as usize).div_ceil(64)],
        }
    }

    /// Is `key` present?
    #[inline]
    pub fn get(&self, key: u64) -> bool {
        self.words[(key / 64) as usize] >> (key % 64) & 1 == 1
    }

    /// Record `key` as present or absent.
    #[inline]
    pub fn set(&mut self, key: u64, present: bool) {
        let word = &mut self.words[(key / 64) as usize];
        let bit = 1u64 << (key % 64);
        if present {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// Number of present keys in `lo..hi`.
    pub fn count_range(&self, lo: u64, hi: u64) -> u64 {
        if lo >= hi {
            return 0;
        }
        let (first, last) = ((lo / 64) as usize, ((hi - 1) / 64) as usize);
        let head = !0u64 << (lo % 64);
        let tail = !0u64 >> (63 - (hi - 1) % 64);
        if first == last {
            return u64::from((self.words[first] & head & tail).count_ones());
        }
        let mut n = u64::from((self.words[first] & head).count_ones());
        n += self.words[first + 1..last]
            .iter()
            .map(|w| u64::from(w.count_ones()))
            .sum::<u64>();
        n + u64::from((self.words[last] & tail).count_ones())
    }

    /// Number of present keys.
    pub fn count(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Present keys, ascending.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            (0..64u64)
                .filter(move |b| w >> b & 1 == 1)
                .map(move |b| i as u64 * 64 + b)
        })
    }

    /// Number of keys whose membership differs between `self` and `other`.
    pub fn differing(&self, other: &Bitset) -> u64 {
        assert_eq!(self.words.len(), other.words.len());
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| u64::from((a ^ b).count_ones()))
            .sum()
    }

    /// Union with `other` (same universe): the whole map's expected contents
    /// from the workers' private sets.
    pub fn union_with(&mut self, other: &Bitset) {
        assert_eq!(self.words.len(), other.words.len());
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }
}

/// Which keys a worker owns: `key % workers == id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ownership {
    /// Number of workers sharing the universe.
    pub workers: u64,
    /// This worker's residue.
    pub id: u64,
}

impl Ownership {
    /// Does this worker own `key`?
    #[inline]
    pub fn owns(&self, key: u64) -> bool {
        key % self.workers == self.id
    }
}

/// Check the answer to `get(key)`: exact for an owned key, value integrity
/// for a foreign one.
#[inline]
pub fn check_get(own: &Bitset, who: Ownership, key: u64, got: Option<u64>) -> bool {
    match got {
        Some(v) if v != value_of(key) => false,
        _ if who.owns(key) => got.is_some() == own.get(key),
        _ => true,
    }
}

/// Check the answer to a range query over `lo..hi`: strictly ascending, in
/// bounds, every value correct, every owned key in the answer really present
/// and none missing (so an interval of never-touched owned keys is checked
/// for completeness exactly).
pub fn check_range(own: &Bitset, who: Ownership, lo: u64, hi: u64, pairs: &[(u64, u64)]) -> bool {
    let mut prev = None;
    let mut owned_seen = 0;
    for &(k, v) in pairs {
        if k < lo || k >= hi || prev.is_some_and(|p| k <= p) || v != value_of(k) {
            return false;
        }
        prev = Some(k);
        if who.owns(k) {
            if !own.get(k) {
                return false;
            }
            owned_seen += 1;
        }
    }
    owned_seen == own.count_range(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(keys: &[u64]) -> Vec<(u64, u64)> {
        keys.iter().map(|&k| (k, value_of(k))).collect()
    }

    #[test]
    fn bitset_counts_ranges_across_word_edges() {
        let mut b = Bitset::new(300);
        for k in [0, 63, 64, 65, 127, 128, 200, 299] {
            b.set(k, true);
        }
        assert_eq!(b.count(), 8);
        assert_eq!(b.count_range(0, 300), 8);
        assert_eq!(b.count_range(63, 65), 2);
        assert_eq!(b.count_range(64, 64), 0);
        assert_eq!(b.count_range(65, 128), 2);
        assert_eq!(b.count_range(129, 299), 1);
        b.set(64, false);
        assert!(!b.get(64));
        assert_eq!(
            b.keys().collect::<Vec<_>>(),
            [0, 63, 65, 127, 128, 200, 299]
        );
    }

    #[test]
    fn get_is_exact_on_owned_keys_only() {
        let who = Ownership { workers: 2, id: 0 };
        let mut own = Bitset::new(16);
        own.set(4, true);
        assert!(check_get(&own, who, 4, Some(value_of(4))));
        assert!(!check_get(&own, who, 4, None), "lost an owned key");
        assert!(
            !check_get(&own, who, 6, Some(value_of(6))),
            "phantom owned key"
        );
        assert!(check_get(&own, who, 5, None), "foreign: either answer");
        assert!(check_get(&own, who, 5, Some(value_of(5))));
        assert!(
            !check_get(&own, who, 5, Some(1)),
            "foreign: value still checked"
        );
    }

    #[test]
    fn range_must_be_sorted_bounded_valued_and_complete() {
        let who = Ownership { workers: 2, id: 0 };
        let mut own = Bitset::new(32);
        for k in [10, 12, 14] {
            own.set(k, true);
        }
        assert!(check_range(
            &own,
            who,
            10,
            16,
            &pairs(&[10, 11, 12, 14, 15])
        ));
        assert!(check_range(&own, who, 10, 16, &pairs(&[10, 12, 14])));
        assert!(
            !check_range(&own, who, 10, 16, &pairs(&[10, 14])),
            "owned key missing"
        );
        assert!(
            !check_range(&own, who, 10, 16, &pairs(&[10, 12, 14, 16])),
            "past hi"
        );
        assert!(
            !check_range(&own, who, 11, 16, &pairs(&[10, 12, 14])),
            "before lo"
        );
        assert!(
            !check_range(&own, who, 10, 16, &pairs(&[12, 10, 14])),
            "unsorted"
        );
        assert!(
            !check_range(&own, who, 10, 16, &pairs(&[10, 12, 12, 14])),
            "duplicate"
        );
        assert!(
            !check_range(&own, who, 8, 16, &pairs(&[8, 10, 12, 14])),
            "phantom owned key"
        );
        let mut wrong = pairs(&[10, 12, 14]);
        wrong[1].1 ^= 2;
        assert!(!check_range(&own, who, 10, 16, &wrong), "wrong value");
    }
}
