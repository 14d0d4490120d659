//! Hybrid per-vertex adjacency storage (GraphTango-style).
//!
//! Streaming graphs are heavy-tailed: most vertices keep a handful of
//! neighbors, many keep a few dozen, and a few hubs accumulate thousands.
//! One map for all of them pays pointer-chasing and per-node allocation
//! where a flat array would do. [`HybridAdjacency`] switches the
//! representation *per vertex* between three tiers:
//!
//! * **Inline** — up to [`HybridAdjacency::INLINE_CAP`] entries live in
//!   the struct: the neighbor ids in one array (one cache line), the
//!   payloads in a second array beside it, both sorted by neighbor id.
//!   An id carries no `Option` tag; a payload slot's tag is one byte for
//!   `()` (the eight fill what would be padding beside the count) and
//!   none for a payload with a niche (a `State`, a shared handle). Inserts
//!   allocate nothing.
//! * **Sorted** — up to [`HybridAdjacency::SORTED_CAP`] entries live in
//!   one `Vec` of `(neighbor, payload)` pairs, found by binary search:
//!   one allocation for the whole list, no per-entry node.
//! * **Tree** — above that, a `BTreeMap`, so an insert into a hub of
//!   thousands does not shift thousands of entries.
//!
//! Promotion happens on the insert that would overflow a tier; demotion
//! when a list shrinks to [`HybridAdjacency::DEMOTE_AT`] (sorted → inline)
//! or [`HybridAdjacency::TREE_DEMOTE_AT`] (tree → sorted). Each demotion
//! threshold sits well below its promotion threshold (hysteresis), so a
//! vertex oscillating around a boundary does not thrash between tiers. A
//! sorted list that shrinks to a quarter of its capacity gives half of it
//! back, and a list shrunk to empty is inline again: it holds no heap.
//!
//! Every tier iterates in **ascending neighbor-id order**, so the
//! deterministic-iteration guarantee of the evolving graph (and with it
//! the `StateDigest` canonicalization of the differential oracle and the
//! rank engine's share order) is independent of the tier a vertex is in.
//! That is why the top tier is an ordered tree and not GraphTango's hash
//! table.

use std::collections::btree_map::{self, BTreeMap, Entry};
use std::fmt;
use std::{mem, slice};

use gt_core::prelude::VertexId;

/// Entries held inline before promotion to the sorted tier.
const INLINE_CAP: usize = 8;

/// Sorted-list length at (or below) which it demotes back to inline.
const DEMOTE_AT: usize = 4;

/// Entries held in the sorted tier before promotion to the tree.
const SORTED_CAP: usize = 1024;

/// Tree size at (or below) which it demotes back to the sorted tier.
const TREE_DEMOTE_AT: usize = 512;

/// Per-vertex adjacency that switches representation with degree.
///
/// Maps neighbor [`VertexId`]s to a per-edge payload `T` (edge state,
/// weight, or `()` for plain neighbor sets). See the module docs for the
/// representation-switching rules.
#[derive(Clone)]
pub struct HybridAdjacency<T> {
    repr: Repr<T>,
}

#[derive(Clone)]
enum Repr<T> {
    Inline(Inline<T>),
    Sorted(Vec<(VertexId, T)>),
    Tree(BTreeMap<VertexId, T>),
}

/// Which representation a [`HybridAdjacency`] is in; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Up to [`HybridAdjacency::INLINE_CAP`] entries inside the struct.
    Inline,
    /// One sorted `Vec`, searched by binary search.
    Sorted,
    /// A `BTreeMap`, for hubs past [`HybridAdjacency::SORTED_CAP`].
    Tree,
}

impl<T> HybridAdjacency<T> {
    /// Maximum entries held in the inline tier.
    pub const INLINE_CAP: usize = INLINE_CAP;

    /// Sorted-list length at or below which [`remove`](Self::remove)
    /// demotes back to the inline tier.
    pub const DEMOTE_AT: usize = DEMOTE_AT;

    /// Maximum entries held in the sorted tier.
    pub const SORTED_CAP: usize = SORTED_CAP;

    /// Tree size at or below which [`remove`](Self::remove) demotes back to
    /// the sorted tier.
    pub const TREE_DEMOTE_AT: usize = TREE_DEMOTE_AT;

    /// Creates an empty adjacency (inline tier).
    pub fn new() -> Self {
        Self {
            repr: Repr::Inline(Inline::new()),
        }
    }

    /// Number of neighbors.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline(inline) => inline.len(),
            Repr::Sorted(list) => list.len(),
            Repr::Tree(map) => map.len(),
        }
    }

    /// Whether there are no neighbors.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The tier the adjacency is in. Exposed so tests and benches can pin
    /// the promotion and demotion boundaries.
    pub fn tier(&self) -> Tier {
        match self.repr {
            Repr::Inline(_) => Tier::Inline,
            Repr::Sorted(_) => Tier::Sorted,
            Repr::Tree(_) => Tier::Tree,
        }
    }

    /// Whether `id` is a neighbor.
    pub fn contains(&self, id: VertexId) -> bool {
        self.get(id).is_some()
    }

    /// The payload stored for neighbor `id`, if present.
    pub fn get(&self, id: VertexId) -> Option<&T> {
        match &self.repr {
            Repr::Inline(inline) => {
                let pos = inline.ids().binary_search(&id).ok()?;
                Some(inline.value(pos))
            }
            Repr::Sorted(list) => {
                let pos = sorted_position(list, id).ok()?;
                Some(&list[pos].1)
            }
            Repr::Tree(map) => map.get(&id),
        }
    }

    /// Mutable access to the payload stored for neighbor `id`.
    pub fn get_mut(&mut self, id: VertexId) -> Option<&mut T> {
        match &mut self.repr {
            Repr::Inline(inline) => {
                let pos = inline.ids().binary_search(&id).ok()?;
                Some(inline.value_mut(pos))
            }
            Repr::Sorted(list) => {
                let pos = sorted_position(list, id).ok()?;
                Some(&mut list[pos].1)
            }
            Repr::Tree(map) => map.get_mut(&id),
        }
    }

    /// Inserts (or replaces) the payload for neighbor `id`, returning the
    /// previous payload if one existed. Promotes to the next tier when the
    /// insert would overflow this one.
    pub fn insert(&mut self, id: VertexId, value: T) -> Option<T> {
        match &mut self.repr {
            Repr::Inline(inline) => match inline.ids().binary_search(&id) {
                Ok(pos) => Some(mem::replace(inline.value_mut(pos), value)),
                Err(pos) => {
                    self.insert_new(pos, id, value);
                    None
                }
            },
            Repr::Sorted(list) => match sorted_position(list, id) {
                Ok(pos) => Some(mem::replace(&mut list[pos].1, value)),
                Err(pos) => {
                    self.insert_new(pos, id, value);
                    None
                }
            },
            Repr::Tree(map) => map.insert(id, value),
        }
    }

    /// Inserts `value()` for neighbor `id` only if `id` is absent, and
    /// says whether it did — one search where `contains` + `insert` takes
    /// two, and no payload is built for a neighbor that is already there.
    pub fn insert_if_absent(&mut self, id: VertexId, value: impl FnOnce() -> T) -> bool {
        let pos = match &mut self.repr {
            Repr::Inline(inline) => inline.ids().binary_search(&id),
            Repr::Sorted(list) => sorted_position(list, id),
            Repr::Tree(map) => {
                return match map.entry(id) {
                    Entry::Vacant(slot) => {
                        slot.insert(value());
                        true
                    }
                    Entry::Occupied(_) => false,
                };
            }
        };
        match pos {
            Ok(_) => false,
            Err(pos) => {
                self.insert_new(pos, id, value());
                true
            }
        }
    }

    /// Puts an absent `id` at its sorted position `pos` of the inline
    /// array or the sorted list, promoting when the tier is full.
    fn insert_new(&mut self, pos: usize, id: VertexId, value: T) {
        match &mut self.repr {
            Repr::Inline(inline) if inline.len() < INLINE_CAP => inline.insert(pos, id, value),
            Repr::Inline(inline) => {
                // Twice the inline capacity: room to grow before the
                // first reallocation.
                let mut list = Vec::with_capacity(2 * INLINE_CAP);
                list.extend(inline.take_all());
                list.insert(pos, (id, value));
                self.repr = Repr::Sorted(list);
            }
            Repr::Sorted(list) if list.len() < SORTED_CAP => list.insert(pos, (id, value)),
            Repr::Sorted(list) => {
                // The list is sorted, so the tree is bulk-built.
                let mut map: BTreeMap<_, _> = mem::take(list).into_iter().collect();
                map.insert(id, value);
                self.repr = Repr::Tree(map);
            }
            Repr::Tree(_) => unreachable!("the tree tier inserts through its own entry"),
        }
    }

    /// Removes neighbor `id`, returning its payload. Demotes a sorted list
    /// back to inline once it shrinks to [`DEMOTE_AT`](Self::DEMOTE_AT)
    /// entries and a tree back to a sorted list at
    /// [`TREE_DEMOTE_AT`](Self::TREE_DEMOTE_AT); a sorted list down to a
    /// quarter of its capacity gives half of it back.
    pub fn remove(&mut self, id: VertexId) -> Option<T> {
        match &mut self.repr {
            Repr::Inline(inline) => {
                let pos = inline.ids().binary_search(&id).ok()?;
                Some(inline.remove(pos))
            }
            Repr::Sorted(list) => {
                let pos = sorted_position(list, id).ok()?;
                let (_, old) = list.remove(pos);
                if list.len() <= DEMOTE_AT {
                    let mut inline = Inline::new();
                    for (k, v) in mem::take(list) {
                        inline.insert(inline.len(), k, v);
                    }
                    self.repr = Repr::Inline(inline);
                } else if list.len() * 4 <= list.capacity() {
                    list.shrink_to(list.len() * 2);
                }
                Some(old)
            }
            Repr::Tree(map) => {
                let old = map.remove(&id)?;
                if map.len() <= TREE_DEMOTE_AT {
                    // BTreeMap iterates ascending, so the list is sorted.
                    self.repr = Repr::Sorted(mem::take(map).into_iter().collect());
                }
                Some(old)
            }
        }
    }

    /// Removes all neighbors, resetting to the inline tier.
    pub fn clear(&mut self) {
        *self = Self::new();
    }

    /// Iterates `(neighbor, &payload)` in ascending neighbor-id order.
    pub fn iter(&self) -> Iter<'_, T> {
        match &self.repr {
            Repr::Inline(inline) => Iter::Inline(inline.ids().iter().zip(&inline.values)),
            Repr::Sorted(list) => Iter::Sorted(list.iter()),
            Repr::Tree(map) => Iter::Tree(map.iter()),
        }
    }

    /// Iterates neighbor ids in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// Iterates payloads in ascending neighbor-id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.iter().map(|(_, v)| v)
    }
}

/// Where `id` sits in a sorted list (`Ok`), or where it would go (`Err`).
fn sorted_position<T>(list: &[(VertexId, T)], id: VertexId) -> Result<usize, usize> {
    list.binary_search_by_key(&id, |&(k, _)| k)
}

const OCCUPIED: &str = "inline slots below len are occupied";

/// The inline tier: `ids[..len]` ascending, each paired by position with
/// the payload in `values`, which is `Some` exactly below `len`.
#[derive(Clone)]
struct Inline<T> {
    len: u8,
    ids: [VertexId; INLINE_CAP],
    values: [Option<T>; INLINE_CAP],
}

impl<T> Inline<T> {
    fn new() -> Self {
        Inline {
            len: 0,
            ids: [VertexId(0); INLINE_CAP],
            values: [const { None }; INLINE_CAP],
        }
    }

    fn len(&self) -> usize {
        usize::from(self.len)
    }

    fn ids(&self) -> &[VertexId] {
        &self.ids[..self.len()]
    }

    fn value(&self, pos: usize) -> &T {
        self.values[pos].as_ref().expect(OCCUPIED)
    }

    fn value_mut(&mut self, pos: usize) -> &mut T {
        self.values[pos].as_mut().expect(OCCUPIED)
    }

    /// Puts `(id, value)` at `pos ≤ len`, shifting the tail right. The
    /// caller keeps the ids sorted and the array not full.
    fn insert(&mut self, pos: usize, id: VertexId, value: T) {
        let len = self.len();
        self.ids.copy_within(pos..len, pos + 1);
        self.ids[pos] = id;
        // The empty slot at `len` comes round to `pos`.
        self.values[pos..=len].rotate_right(1);
        self.values[pos] = Some(value);
        self.len += 1;
    }

    /// Takes the entry at `pos < len` out, shifting the tail left.
    fn remove(&mut self, pos: usize) -> T {
        let len = self.len();
        let value = self.values[pos].take().expect(OCCUPIED);
        self.values[pos..len].rotate_left(1);
        self.ids.copy_within(pos + 1..len, pos);
        self.len -= 1;
        value
    }

    /// Moves every entry out in ascending order, leaving the array empty.
    fn take_all(&mut self) -> impl Iterator<Item = (VertexId, T)> + '_ {
        let len = usize::from(mem::take(&mut self.len));
        let values = self.values[..len].iter_mut();
        let ids = self.ids[..len].iter().copied();
        ids.zip(values.map(|v| v.take().expect(OCCUPIED)))
    }
}

/// Ascending-order iterator over a [`HybridAdjacency`].
pub enum Iter<'a, T> {
    /// Iterating the inline arrays.
    Inline(std::iter::Zip<slice::Iter<'a, VertexId>, slice::Iter<'a, Option<T>>>),
    /// Iterating the sorted list.
    Sorted(slice::Iter<'a, (VertexId, T)>),
    /// Iterating the tree.
    Tree(btree_map::Iter<'a, VertexId, T>),
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = (VertexId, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            Iter::Inline(it) => it.next().map(|(k, v)| (*k, v.as_ref().expect(OCCUPIED))),
            Iter::Sorted(it) => it.next().map(|(k, v)| (*k, v)),
            Iter::Tree(it) => it.next().map(|(k, v)| (*k, v)),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Iter::Inline(it) => it.size_hint(),
            Iter::Sorted(it) => it.size_hint(),
            Iter::Tree(it) => it.size_hint(),
        }
    }
}

impl<T> Default for HybridAdjacency<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: fmt::Debug> fmt::Debug for HybridAdjacency<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Equality is on logical contents, independent of representation: an
/// inline adjacency equals a sorted list or a tree holding the same
/// `(id, payload)` pairs.
impl<T: PartialEq> PartialEq for HybridAdjacency<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<T: Eq> Eq for HybridAdjacency<T> {}

impl<T> FromIterator<(VertexId, T)> for HybridAdjacency<T> {
    fn from_iter<I: IntoIterator<Item = (VertexId, T)>>(iter: I) -> Self {
        let mut adj = Self::new();
        for (id, value) in iter {
            adj.insert(id, value);
        }
        adj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids<T>(adj: &HybridAdjacency<T>) -> Vec<u64> {
        adj.keys().map(|v| v.0).collect()
    }

    fn filled(n: u64) -> HybridAdjacency<u32> {
        (0..n).map(|i| (VertexId(i), i as u32)).collect()
    }

    #[test]
    fn insert_get_remove_small() {
        let mut adj = HybridAdjacency::new();
        assert!(adj.is_empty());
        assert_eq!(adj.insert(VertexId(5), 50), None);
        assert_eq!(adj.insert(VertexId(1), 10), None);
        assert_eq!(adj.insert(VertexId(3), 30), None);
        assert_eq!(adj.tier(), Tier::Inline);
        assert_eq!(adj.len(), 3);
        assert_eq!(adj.get(VertexId(3)), Some(&30));
        assert_eq!(adj.get(VertexId(4)), None);
        assert_eq!(ids(&adj), [1, 3, 5]);
        assert_eq!(adj.remove(VertexId(3)), Some(30));
        assert_eq!(adj.remove(VertexId(3)), None);
        assert_eq!(ids(&adj), [1, 5]);
    }

    #[test]
    fn insert_replaces_and_returns_old_in_every_tier() {
        for n in [1u64, 100, 2000] {
            let mut adj = filled(n);
            assert_eq!(adj.insert(VertexId(0), 11), Some(0));
            assert_eq!(adj.len(), n as usize);
            assert_eq!(adj.get(VertexId(0)), Some(&11));
            *adj.get_mut(VertexId(0)).unwrap() = 12;
            assert_eq!(adj.get(VertexId(0)), Some(&12));
            assert_eq!(adj.get_mut(VertexId(n)), None);
        }
    }

    #[test]
    fn insert_if_absent_never_replaces_and_builds_no_payload_for_a_present_id() {
        for (n, tier) in [(3u64, Tier::Inline), (20, Tier::Sorted), (1500, Tier::Tree)] {
            let mut adj: HybridAdjacency<u32> = (0..n).map(|i| (VertexId(2 * i), 0)).collect();
            assert_eq!(adj.tier(), tier);
            assert!(!adj.insert_if_absent(VertexId(2), || panic!("2 is present")));
            assert!(adj.insert_if_absent(VertexId(3), || 33));
            assert!(!adj.insert_if_absent(VertexId(3), || 34));
            assert_eq!(adj.get(VertexId(3)), Some(&33));
            assert_eq!(adj.len(), n as usize + 1);
            assert!(adj.keys().map(|k| k.0).is_sorted());
        }
        // The ninth and the 1 025th distinct neighbor promote, exactly as
        // `insert` does.
        for (n, before, after) in [
            (INLINE_CAP, Tier::Inline, Tier::Sorted),
            (SORTED_CAP, Tier::Sorted, Tier::Tree),
        ] {
            let mut adj = filled(n as u64);
            assert_eq!(adj.tier(), before);
            assert!(adj.insert_if_absent(VertexId(5000), || 1));
            assert_eq!(adj.tier(), after);
            assert_eq!(adj.len(), n + 1);
        }
    }

    #[test]
    fn promotes_at_each_tier_cap() {
        let mut adj = HybridAdjacency::new();
        for i in 0..=SORTED_CAP as u64 {
            // Insert from the top down, so every insert shifts the list.
            adj.insert(VertexId(SORTED_CAP as u64 - i), i as u32);
            let tier = match adj.len() {
                n if n <= INLINE_CAP => Tier::Inline,
                n if n <= SORTED_CAP => Tier::Sorted,
                _ => Tier::Tree,
            };
            assert_eq!(adj.tier(), tier, "at {} entries", adj.len());
        }
        // All entries survive both promotions, in order.
        assert_eq!(ids(&adj), (0..=SORTED_CAP as u64).collect::<Vec<_>>());
        assert_eq!(adj.get(VertexId(0)), Some(&(SORTED_CAP as u32)));
    }

    #[test]
    fn demotes_with_hysteresis() {
        let mut adj = filled(SORTED_CAP as u64 + 1);
        assert_eq!(adj.tier(), Tier::Tree);
        let drop_first = |adj: &mut HybridAdjacency<u32>| {
            let first = adj.keys().next().unwrap();
            adj.remove(first).unwrap();
        };
        // Shrinking to one above each threshold keeps the tier (the
        // hysteresis band); one more removal demotes.
        for (at, below) in [(TREE_DEMOTE_AT, Tier::Sorted), (DEMOTE_AT, Tier::Inline)] {
            let before = adj.tier();
            while adj.len() > at + 1 {
                drop_first(&mut adj);
            }
            assert_eq!(adj.tier(), before);
            drop_first(&mut adj);
            assert_eq!(adj.tier(), below);
            assert_eq!(adj.len(), at);
        }
        let top = SORTED_CAP as u64;
        assert_eq!(ids(&adj), [top - 3, top - 2, top - 1, top]);
    }

    #[test]
    fn a_shrinking_sorted_list_gives_capacity_back() {
        let mut adj = filled(600);
        let capacity = |adj: &HybridAdjacency<u32>| match &adj.repr {
            Repr::Sorted(list) => list.capacity(),
            _ => panic!("not sorted"),
        };
        for i in 0..580 {
            adj.remove(VertexId(i));
            let (slots, len) = (capacity(&adj), adj.len());
            assert!(slots < 4 * len, "{slots} slots for {len}");
        }
        assert_eq!(adj.len(), 20);
    }

    #[test]
    fn ascending_iteration_in_every_tier() {
        for n in [4u64, 100, 2000] {
            // A scrambled insert order over the ids `0..n`.
            let adj: HybridAdjacency<u32> = (0..n).map(|i| (VertexId(i * 7919 % n), 0)).collect();
            assert_eq!(adj.len(), n as usize);
            assert_eq!(ids(&adj), (0..n).collect::<Vec<_>>());
            assert_eq!(adj.iter().size_hint(), (n as usize, Some(n as usize)));
        }
    }

    #[test]
    fn equality_ignores_representation() {
        let inline: HybridAdjacency<u32> = filled(4);
        let mut shrunk = filled(2000);
        for i in 4..2000u64 {
            shrunk.remove(VertexId(i));
        }
        assert_eq!(inline, shrunk);
        let sorted = filled(600);
        let mut tree = filled(1100);
        assert_eq!(tree.tier(), Tier::Tree);
        for i in 600..700u64 {
            tree.remove(VertexId(i));
        }
        assert_eq!(tree.tier(), Tier::Tree);
        assert_ne!(sorted, tree);
        for i in 700..1100u64 {
            tree.remove(VertexId(i));
        }
        assert_eq!(sorted, tree);
    }

    #[test]
    fn duplicate_inserts_never_promote() {
        let mut adj = HybridAdjacency::new();
        for _ in 0..100 {
            adj.insert(VertexId(1), 1u32);
            adj.insert(VertexId(2), 2u32);
        }
        assert_eq!(adj.tier(), Tier::Inline);
        assert_eq!(adj.len(), 2);
    }

    #[test]
    fn clear_resets_to_inline() {
        for n in [20u64, 2000] {
            let mut adj = filled(n);
            assert_ne!(adj.tier(), Tier::Inline);
            adj.clear();
            assert_eq!(adj.tier(), Tier::Inline);
            assert!(adj.is_empty());
        }
    }
}
