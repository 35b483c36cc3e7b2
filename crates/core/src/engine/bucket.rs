//! OPEN as an exact integer bucket queue.
//!
//! Costs are integers, so OPEN can group its entries by key instead of
//! ordering them with comparisons (Dial 1969, CACM Algorithm 360; Burns,
//! Hatem, Leighton & Ruml, "Implementing Fast Heuristic Search Code", SoCS
//! 2012).  [`BucketQueue`] groups entries by a key of two [`Cost`]s and keeps
//! each group a FIFO list, so it pops in `(key, push order)` order.  The
//! search engine pushes with an increasing insertion counter (`seq`), which
//! makes that exactly the `(key, seq)` order of a binary heap over the same
//! entries.
//!
//! * **Groups.**  A `BTreeMap` from key to the group's first and last node
//!   finds the smallest key and the group a push joins.  It holds one small
//!   record per distinct key present, and nothing sized by the range of the
//!   costs, so the queue is exact for every `u64` cost.
//! * **Nodes.**  All groups share one pool of nodes, each linked to the
//!   next node of its group; popped nodes are reused through a free list.
//!   A node holds the arena id, `seq` and whatever the key does not imply
//!   (`E`): 16 bytes when that is nothing, as under A\*, whose `(f, h)` key
//!   implies every cost of an entry.  Dropping the queue frees the pool in
//!   one piece and the map in one block per handful of keys.

use std::collections::btree_map::{BTreeMap, Entry};

use optsched_taskgraph::Cost;

use super::arena::StateId;

/// End of a group's list, and of the free list.
const NIL: u32 = u32::MAX;

/// An entry of a [`BucketQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Queued<E = ()> {
    /// The group key; smaller keys pop first.
    pub key: (Cost, Cost),
    /// Arena id of the state.
    pub id: StateId,
    /// Insertion sequence number.  Within a group, entries pop in push
    /// order, which is `seq` order when pushes carry increasing `seq`.
    pub seq: u64,
    /// What the entry carries besides its key, id and `seq`.
    pub extra: E,
}

/// First and last node of one group's list.
#[derive(Debug, Clone, Copy)]
struct Group {
    head: u32,
    tail: u32,
}

/// A pooled entry: everything but the key, plus the link to the next node
/// of its group (or of the free list).
#[derive(Debug, Clone, Copy)]
struct Node<E> {
    seq: u64,
    id: StateId,
    next: u32,
    extra: E,
}

impl<E> Node<E> {
    fn entry(self, key: (Cost, Cost)) -> Queued<E> {
        Queued { key, id: self.id, seq: self.seq, extra: self.extra }
    }
}

/// The node pool shared by all groups.
#[derive(Debug)]
struct Pool<E> {
    nodes: Vec<Node<E>>,
    /// Head of the list of released nodes.
    free: u32,
    /// Nodes in use.
    live: usize,
}

impl<E: Copy> Pool<E> {
    /// Stores `entry` in a node that ends its group; returns the node.
    fn alloc(&mut self, entry: &Queued<E>) -> u32 {
        let node = Node { seq: entry.seq, id: entry.id, next: NIL, extra: entry.extra };
        self.live += 1;
        if self.free == NIL {
            let at = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&at| at != NIL)
                .expect("OPEN holds fewer than 2^32 - 1 entries");
            self.nodes.push(node);
            at
        } else {
            let at = self.free;
            self.free = self.nodes[at as usize].next;
            self.nodes[at as usize] = node;
            at
        }
    }

    /// Returns node `at` to the free list, along with its entry under `key`
    /// and the next node of its group.
    fn release(&mut self, key: (Cost, Cost), at: u32) -> (Queued<E>, u32) {
        let node = self.nodes[at as usize];
        self.nodes[at as usize].next = self.free;
        self.free = at;
        self.live -= 1;
        (node.entry(key), node.next)
    }
}

/// OPEN as groups of equal `(Cost, Cost)` keys, each a FIFO list of pooled
/// nodes (see the module documentation).  `E` is what an entry carries
/// besides its key, arena id and `seq`.
#[derive(Debug)]
pub struct BucketQueue<E = ()> {
    groups: BTreeMap<(Cost, Cost), Group>,
    pool: Pool<E>,
}

impl<E: Copy> Default for BucketQueue<E> {
    fn default() -> Self {
        BucketQueue::new()
    }
}

impl<E: Copy> BucketQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        let pool = Pool { nodes: Vec::new(), free: NIL, live: 0 };
        BucketQueue { groups: BTreeMap::new(), pool }
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.pool.live
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.pool.live == 0
    }

    /// Appends `entry` to the back of its key's group.
    pub fn push(&mut self, entry: Queued<E>) {
        let at = self.pool.alloc(&entry);
        match self.groups.entry(entry.key) {
            Entry::Vacant(group) => {
                group.insert(Group { head: at, tail: at });
            }
            Entry::Occupied(mut group) => {
                let group = group.get_mut();
                debug_assert!(
                    self.pool.nodes[group.tail as usize].seq < entry.seq,
                    "pushes carry increasing seq"
                );
                self.pool.nodes[group.tail as usize].next = at;
                group.tail = at;
            }
        }
    }

    /// The entry [`BucketQueue::pop`] would return.
    pub fn peek(&self) -> Option<Queued<E>> {
        let (&key, group) = self.groups.first_key_value()?;
        Some(self.pool.nodes[group.head as usize].entry(key))
    }

    /// Removes and returns the front entry of the smallest key's group,
    /// dropping the group once it is empty.
    pub fn pop(&mut self) -> Option<Queued<E>> {
        let mut group = self.groups.first_entry()?;
        let (entry, next) = self.pool.release(*group.key(), group.get().head);
        if next == NIL {
            group.remove();
        } else {
            group.get_mut().head = next;
        }
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(key: (Cost, Cost), id: StateId, seq: u64) -> Queued {
        Queued { key, id, seq, extra: () }
    }

    fn drain<E: Copy>(open: &mut BucketQueue<E>) -> Vec<Queued<E>> {
        std::iter::from_fn(|| open.pop()).collect()
    }

    #[test]
    fn an_entry_without_extra_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Node<()>>(), 16);
        assert_eq!(std::mem::size_of::<Node<Cost>>(), 24);
    }

    #[test]
    fn pops_in_key_then_push_order_and_returns_what_was_pushed() {
        let mut open = BucketQueue::new();
        let pushed = [q((5, 3), 0, 0), q((4, 9), 1, 1), q((4, 2), 2, 2), q((4, 2), 3, 3)];
        for e in pushed {
            open.push(e);
        }
        assert_eq!(open.len(), 4);
        assert_eq!(open.peek(), Some(pushed[2]));
        assert_eq!(drain(&mut open), [pushed[2], pushed[3], pushed[1], pushed[0]]);
        assert!(open.is_empty() && open.peek().is_none() && open.pop().is_none());
    }

    #[test]
    fn keys_stay_exact_across_the_whole_u64_range() {
        let big = 1u64 << 53;
        let keys =
            [(u64::MAX, 0), (big + 1, 0), (big, u64::MAX), (big, u64::MAX - 1), (u64::MAX - 1, 7)];
        let mut open = BucketQueue::new();
        for (seq, &key) in keys.iter().enumerate() {
            open.push(q(key, seq as StateId, seq as u64));
        }
        let popped: Vec<_> = drain(&mut open).into_iter().map(|e| e.key).collect();
        assert_eq!(
            popped,
            [(big, u64::MAX - 1), (big, u64::MAX), (big + 1, 0), (u64::MAX - 1, 7), (u64::MAX, 0)]
        );
    }

    #[test]
    fn released_nodes_are_reused() {
        let mut open: BucketQueue<Cost> = BucketQueue::new();
        for seq in 0..100u64 {
            open.push(Queued { key: (seq % 7, 0), id: seq as StateId, seq, extra: seq * 3 });
            if seq % 2 == 1 {
                let e = open.pop().unwrap();
                assert_eq!(e.extra, 3 * u64::from(e.id));
            }
        }
        assert_eq!(open.len(), 50);
        for seq in 100..150u64 {
            open.pop();
            open.push(Queued { key: (0, 0), id: 0, seq, extra: 0 });
        }
        assert_eq!(open.pool.nodes.len(), 51, "a pop frees a node the next push takes");
    }
}
