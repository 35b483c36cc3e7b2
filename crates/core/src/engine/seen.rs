//! The serial seen-set: exact duplicate detection over packed keys.
//!
//! [`SignatureSet`] copies each new key's packed words into a row of a
//! chunked slab and finds rows through an open-addressing index of
//! `(hash tag, row)` entries.  A tag match is confirmed by comparing the
//! row's words with the key's, so the set is exact.  The layout follows the
//! flat tables that fast A\* code uses for its closed list (Burns, Hatem,
//! Leighton & Ruml, "Implementing Fast Heuristic Search Code", SoCS 2012):
//!
//! * **Rows.**  Chunks of [`CHUNK_ROWS`] rows are allocated at full size and
//!   never reallocated, so a row never moves, the slab never grows by
//!   copying, and dropping the set frees one block per chunk instead of one
//!   box per key.
//! * **Index.**  The top [`PART_BITS`] bits of the key hash pick one of 64
//!   parts, each a linear-probing table of 8-byte entries that doubles on
//!   its own when three quarters full.  A growth step therefore moves about
//!   1/64 of the set, and it reads only the entries: a slot's position
//!   comes from its stored tag, so no row is touched or rehashed.
//!
//! Each of the two key forms (see [`StateSignature`]) has its own store; a
//! key's form follows from its content, so equal keys always meet in the
//! same store.
//! At v = 12 a short key costs 24 bytes of row plus about 15 bytes of index
//! (an 8-byte entry at a load between 3/8 and 3/4).

use std::fmt;

use optsched_taskgraph::Cost;

use super::DuplicateFilter;
use crate::state::{KeyWords, StateSignature};
use crate::stats::SearchStats;

/// Rows per slab chunk.
const CHUNK_ROWS: usize = 4096;

/// The index is split into `2^PART_BITS` parts by the top bits of the key
/// hash.
const PART_BITS: u32 = 6;

/// Slots of a part's first table.
const MIN_PART_SLOTS: usize = 8;

/// The serial CLOSED ∪ OPEN seen-set: exact duplicate detection over
/// packed [`StateSignature`] words (see the module documentation).
#[derive(Default)]
pub struct SignatureSet {
    short: KeyStore<u16>,
    wide: KeyStore<[u64; 2]>,
}

impl fmt::Debug for SignatureSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SignatureSet").field("len", &self.len()).finish()
    }
}

impl SignatureSet {
    /// An empty set.
    pub fn new() -> SignatureSet {
        SignatureSet::default()
    }

    /// Number of distinct signatures seen.
    pub fn len(&self) -> usize {
        self.short.len + self.wide.len
    }

    /// True if no signature has been admitted yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forgets `sig`, so a later [`DuplicateFilter::admit`] of it counts as
    /// new; returns whether it was present.
    pub fn remove(&mut self, sig: &StateSignature) -> bool {
        match sig.words() {
            KeyWords::Short(words) => self.short.remove(sig.key_hash(), words.as_slice()),
            KeyWords::Wide(words) => self.wide.remove(sig.key_hash(), words),
        }
    }
}

impl DuplicateFilter for SignatureSet {
    fn admit(&mut self, sig: StateSignature, _g: Cost, stats: &mut SearchStats) -> bool {
        let fresh = match sig.words() {
            KeyWords::Short(words) => self.short.insert(sig.key_hash(), words.as_slice()),
            KeyWords::Wide(words) => self.wide.insert(sig.key_hash(), words),
        };
        if !fresh {
            stats.duplicates += 1;
        }
        fresh
    }
}

/// The keys of one form: the row slab and the index over it.
#[derive(Default)]
struct KeyStore<T> {
    rows: Rows<T>,
    /// `2^PART_BITS` parts once the first key arrives.
    parts: Vec<Part>,
    len: usize,
}

impl<T: Copy + Eq> KeyStore<T> {
    /// Adds the key `words` with hash `hash`; false if it is present.
    fn insert(&mut self, hash: u64, words: &[T]) -> bool {
        if self.parts.is_empty() {
            self.parts.resize_with(1 << PART_BITS, Part::default);
            self.rows.width = words.len();
        }
        assert_eq!(words.len(), self.rows.width, "every key of a set has the same length");
        let KeyStore { rows, parts, len } = self;
        let part = &mut parts[part_of(hash)];
        if (part.len + 1) * 4 > part.slots.len() * 3 {
            part.grow();
        }
        match part.probe(hash as u32, |row| rows.get(row) == words) {
            Probe::Found(_) => false,
            Probe::Vacant(slot) => {
                part.slots[slot] = entry(hash as u32, rows.push(words));
                part.len += 1;
                *len += 1;
                true
            }
        }
    }

    /// Removes the key `words` with hash `hash`; false if it is absent.
    fn remove(&mut self, hash: u64, words: &[T]) -> bool {
        let KeyStore { rows, parts, len } = self;
        let Some(part) = parts.get_mut(part_of(hash)).filter(|p| p.len > 0) else {
            return false;
        };
        match part.probe(hash as u32, |row| rows.get(row) == words) {
            Probe::Vacant(_) => false,
            Probe::Found(slot) => {
                rows.vacated.push(row_of(part.slots[slot]));
                part.delete(slot);
                *len -= 1;
                true
            }
        }
    }
}

/// The part of the index that holds keys with hash `hash`.
#[inline]
fn part_of(hash: u64) -> usize {
    (hash >> (64 - PART_BITS)) as usize
}

/// An index entry: the hash tag above, the row plus one below (so an empty
/// slot is 0).
#[inline]
fn entry(tag: u32, row: u32) -> u64 {
    (u64::from(tag) << 32) | (u64::from(row) + 1)
}

#[inline]
fn row_of(entry: u64) -> u32 {
    entry as u32 - 1
}

#[inline]
fn tag_of(entry: u64) -> u32 {
    (entry >> 32) as u32
}

/// Fixed-width rows in chunks that are allocated at full size and never
/// reallocated.
#[derive(Default)]
struct Rows<T> {
    /// Words per row, fixed by the first key.
    width: usize,
    chunks: Vec<Vec<T>>,
    /// Rows handed out so far, vacated ones included.
    count: usize,
    /// Rows vacated by [`KeyStore::remove`], reused first.
    vacated: Vec<u32>,
}

impl<T: Copy> Rows<T> {
    #[inline]
    fn span(&self, row: u32) -> (usize, std::ops::Range<usize>) {
        let row = row as usize;
        let start = (row % CHUNK_ROWS) * self.width;
        (row / CHUNK_ROWS, start..start + self.width)
    }

    #[inline]
    fn get(&self, row: u32) -> &[T] {
        let (chunk, words) = self.span(row);
        &self.chunks[chunk][words]
    }

    /// Stores `words` in a free row and returns its number.
    fn push(&mut self, words: &[T]) -> u32 {
        if let Some(row) = self.vacated.pop() {
            let (chunk, span) = self.span(row);
            self.chunks[chunk][span].copy_from_slice(words);
            return row;
        }
        let row = u32::try_from(self.count)
            .ok()
            .filter(|&r| r < u32::MAX)
            .expect("a seen-set holds fewer than 2^32 - 1 keys");
        if self.count % CHUNK_ROWS == 0 {
            self.chunks.push(Vec::with_capacity(CHUNK_ROWS * self.width));
        }
        let chunk = self.chunks.last_mut().expect("a chunk was just ensured");
        debug_assert!(chunk.len() + words.len() <= chunk.capacity(), "a chunk never reallocates");
        chunk.extend_from_slice(words);
        self.count += 1;
        row
    }
}

/// One part of the index: a linear-probing table of [`entry`] words whose
/// length is 0 or a power of two.
#[derive(Default)]
struct Part {
    slots: Box<[u64]>,
    len: usize,
}

enum Probe {
    /// The key is in this slot.
    Found(usize),
    /// The key is absent; this empty slot ends its probe sequence.
    Vacant(usize),
}

impl Part {
    /// Walks the probe sequence of `tag`; `matches` confirms a tag match by
    /// comparing the row's words.  The table must have an empty slot.
    #[inline]
    fn probe(&self, tag: u32, mut matches: impl FnMut(u32) -> bool) -> Probe {
        let mask = self.slots.len() - 1;
        let mut slot = tag as usize & mask;
        loop {
            let e = self.slots[slot];
            if e == 0 {
                return Probe::Vacant(slot);
            }
            if tag_of(e) == tag && matches(row_of(e)) {
                return Probe::Found(slot);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Doubles the table.  An entry's home slot is its tag masked by the
    /// table size, so only the entries move.
    #[cold]
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(MIN_PART_SLOTS);
        let mask = len - 1;
        let mut slots = vec![0u64; len].into_boxed_slice();
        for &e in self.slots.iter().filter(|&&e| e != 0) {
            let mut slot = tag_of(e) as usize & mask;
            while slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            slots[slot] = e;
        }
        self.slots = slots;
    }

    /// Empties `hole` and shifts later entries of its probe run back, so no
    /// tombstone is left behind.
    fn delete(&mut self, mut hole: usize) {
        let mask = self.slots.len() - 1;
        let mut slot = hole;
        loop {
            slot = (slot + 1) & mask;
            let e = self.slots[slot];
            if e == 0 {
                break;
            }
            let home = tag_of(e) as usize & mask;
            // The entry may fill the hole iff the hole lies on its probe
            // path, i.e. cyclically within [home, slot).
            if slot.wrapping_sub(home) & mask >= slot.wrapping_sub(hole) & mask {
                self.slots[hole] = e;
                hole = slot;
            }
        }
        self.slots[hole] = 0;
        self.len -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::SchedulingProblem;
    use crate::state::SearchState;
    use optsched_procnet::{ProcId, ProcNetwork};
    use optsched_taskgraph::{paper_example_dag, NodeId};

    fn base() -> StateSignature {
        let problem = SchedulingProblem::new(paper_example_dag(), ProcNetwork::ring(3));
        SearchState::initial(&problem).signature()
    }

    /// `n` distinct short-form keys: one assignment each, spread over
    /// nodes, processors and starts so the hashes cover every part.
    fn keys(n: usize) -> Vec<StateSignature> {
        let base = base();
        (0..n as u64)
            .map(|i| {
                let proc = ProcId(((i / 6) % 14) as u32);
                base.with_assignment(NodeId((i % 6) as u32), proc, i / 84)
            })
            .collect()
    }

    /// Start 2^48 on processor 0 and start 0 on processor 1 are two keys
    /// (a 48-bit start field would alias them).
    #[test]
    fn wide_keys_with_equal_low_bits_are_distinct() {
        let base = base();
        let far = base.with_assignment(NodeId(0), ProcId(0), 1 << 48);
        let near = base.with_assignment(NodeId(0), ProcId(1), 0);
        let mut stats = SearchStats::default();
        let mut set = SignatureSet::new();
        assert!(set.admit(far.clone(), 0, &mut stats));
        assert!(set.admit(near.clone(), 0, &mut stats));
        assert!(!set.admit(far, 0, &mut stats));
        assert!(!set.admit(near, 0, &mut stats));
        assert_eq!((set.len(), stats.duplicates), (2, 2));
    }

    /// Every part grows several times, rows stay put while the slab and the
    /// index grow, and removal leaves the remaining keys findable.
    #[test]
    fn growth_keeps_rows_in_place_and_removal_keeps_probe_runs() {
        let keys = keys(20_000);
        let mut stats = SearchStats::default();
        let mut set = SignatureSet::new();
        assert!(set.admit(keys[0].clone(), 0, &mut stats));
        let first_row = set.short.rows.get(0).as_ptr();
        for k in &keys[1..] {
            assert!(set.admit(k.clone(), 0, &mut stats));
        }
        assert_eq!(set.short.rows.get(0).as_ptr(), first_row, "a row moved");
        assert_eq!(set.len(), keys.len());
        assert!(set.short.parts.iter().all(|p| p.slots.len() >= 8 * MIN_PART_SLOTS));
        for p in &set.short.parts {
            assert!(p.len * 4 <= p.slots.len() * 3);
        }
        for k in keys.iter().step_by(2) {
            assert!(set.remove(k));
            assert!(!set.remove(k));
        }
        assert_eq!(set.len(), keys.len() / 2);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(set.admit(k.clone(), 0, &mut stats), i % 2 == 0, "key {i}");
        }
        assert_eq!(set.len(), keys.len());
        assert_eq!(set.short.rows.count, keys.len(), "vacated rows are reused");
    }
}
