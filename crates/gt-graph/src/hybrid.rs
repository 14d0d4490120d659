//! Hybrid per-vertex adjacency storage (GraphTango-style).
//!
//! Streaming graphs are heavy-tailed: the overwhelming majority of
//! vertices keep a handful of neighbors while a few hubs accumulate
//! thousands. A one-size-fits-all map pays pointer-chasing and per-node
//! allocation for the common small case. [`HybridAdjacency`] switches the
//! representation *per vertex*:
//!
//! * **Inline** — up to [`HybridAdjacency::INLINE_CAP`] entries live in a
//!   fixed-size array embedded in the struct, kept sorted by neighbor id.
//!   Lookups are a short linear scan over hot cache lines and inserts
//!   allocate nothing.
//! * **Hub** — past the inline capacity the entries are promoted into a
//!   `BTreeMap`, trading the scan for logarithmic operations on high
//!   degrees.
//!
//! Promotion happens transparently on the insert that would overflow the
//! inline array; demotion happens when a hub shrinks back to
//! [`HybridAdjacency::DEMOTE_AT`] entries. The demotion threshold sits
//! well below the promotion threshold (hysteresis) so a vertex oscillating
//! around the boundary does not thrash between representations.
//!
//! Both representations iterate in **ascending neighbor-id order**, so the
//! deterministic-iteration guarantee of the evolving graph (and with it
//! the `StateDigest` canonicalization of the differential oracle) is
//! independent of which representation a vertex happens to be in.

use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt;

use gt_core::prelude::VertexId;

/// Entries held inline before promotion to a map.
const INLINE_CAP: usize = 8;

/// Hub entry count at (or below) which a hub demotes back to inline.
const DEMOTE_AT: usize = 4;

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
    Inline {
        len: usize,
        slots: [Option<(VertexId, T)>; INLINE_CAP],
    },
    Hub(BTreeMap<VertexId, T>),
}

impl<T> HybridAdjacency<T> {
    /// Maximum entries held in the inline representation.
    pub const INLINE_CAP: usize = INLINE_CAP;

    /// Hub size at or below which [`remove`](Self::remove) demotes back to
    /// the inline representation.
    pub const DEMOTE_AT: usize = DEMOTE_AT;

    /// Creates an empty adjacency (inline representation).
    pub fn new() -> Self {
        Self {
            repr: Repr::Inline {
                len: 0,
                slots: std::array::from_fn(|_| None),
            },
        }
    }

    /// Number of neighbors.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len,
            Repr::Hub(map) => map.len(),
        }
    }

    /// Whether there are no neighbors.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the inline (small-degree) representation is active.
    /// Exposed so tests and benches can pin the promotion boundary.
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline { .. })
    }

    /// Whether `id` is a neighbor.
    pub fn contains(&self, id: VertexId) -> bool {
        self.get(id).is_some()
    }

    /// The payload stored for neighbor `id`, if present.
    pub fn get(&self, id: VertexId) -> Option<&T> {
        match &self.repr {
            Repr::Inline { len, slots } => slots[..*len].iter().find_map(|slot| {
                let (k, v) = slot.as_ref().expect("slot below len is occupied");
                (*k == id).then_some(v)
            }),
            Repr::Hub(map) => map.get(&id),
        }
    }

    /// Mutable access to the payload stored for neighbor `id`.
    pub fn get_mut(&mut self, id: VertexId) -> Option<&mut T> {
        match &mut self.repr {
            Repr::Inline { len, slots } => slots[..*len].iter_mut().find_map(|slot| {
                let (k, v) = slot.as_mut().expect("slot below len is occupied");
                (*k == id).then_some(v)
            }),
            Repr::Hub(map) => map.get_mut(&id),
        }
    }

    /// Inserts (or replaces) the payload for neighbor `id`, returning the
    /// previous payload if one existed. Promotes to the hub representation
    /// when the insert would overflow the inline array.
    pub fn insert(&mut self, id: VertexId, value: T) -> Option<T> {
        match &mut self.repr {
            Repr::Inline { len, slots } => match inline_position(&slots[..*len], id) {
                Ok(pos) => {
                    let (_, old) = slots[pos].replace((id, value)).expect("occupied");
                    Some(old)
                }
                Err(pos) => {
                    self.insert_new_inline(pos, id, value);
                    None
                }
            },
            Repr::Hub(map) => map.insert(id, value),
        }
    }

    /// Inserts `value()` for neighbor `id` only if `id` is absent, and
    /// says whether it did — one search where `contains` + `insert` takes
    /// two, and no payload is built for a neighbor that is already there.
    pub(crate) fn insert_if_absent(&mut self, id: VertexId, value: impl FnOnce() -> T) -> bool {
        match &mut self.repr {
            Repr::Inline { len, slots } => match inline_position(&slots[..*len], id) {
                Ok(_) => false,
                Err(pos) => {
                    self.insert_new_inline(pos, id, value());
                    true
                }
            },
            Repr::Hub(map) => match map.entry(id) {
                Entry::Vacant(slot) => {
                    slot.insert(value());
                    true
                }
                Entry::Occupied(_) => false,
            },
        }
    }

    /// Puts an absent `id` at its sorted position `pos` of the inline
    /// array, promoting to a hub when the array is full.
    fn insert_new_inline(&mut self, pos: usize, id: VertexId, value: T) {
        let Repr::Inline { len, slots } = &mut self.repr else {
            unreachable!("caller matched the inline representation");
        };
        if *len < INLINE_CAP {
            // Shift the tail one slot right, insert in order.
            for j in (pos..*len).rev() {
                slots[j + 1] = slots[j].take();
            }
            slots[pos] = Some((id, value));
            *len += 1;
        } else {
            // Promote: drain the inline array into a map.
            let mut map = BTreeMap::new();
            for slot in slots.iter_mut() {
                let (k, v) = slot.take().expect("full inline array");
                map.insert(k, v);
            }
            map.insert(id, value);
            self.repr = Repr::Hub(map);
        }
    }

    /// Removes neighbor `id`, returning its payload. Demotes a hub back to
    /// the inline representation once it shrinks to
    /// [`DEMOTE_AT`](Self::DEMOTE_AT) entries.
    pub fn remove(&mut self, id: VertexId) -> Option<T> {
        match &mut self.repr {
            Repr::Inline { len, slots } => {
                let pos = slots[..*len]
                    .iter()
                    .position(|slot| slot.as_ref().expect("slot below len is occupied").0 == id)?;
                let (_, old) = slots[pos].take().expect("position found above");
                for j in pos..*len - 1 {
                    slots[j] = slots[j + 1].take();
                }
                *len -= 1;
                Some(old)
            }
            Repr::Hub(map) => {
                let old = map.remove(&id);
                if old.is_some() && map.len() <= DEMOTE_AT {
                    let map = std::mem::take(map);
                    let mut slots: [Option<(VertexId, T)>; INLINE_CAP] =
                        std::array::from_fn(|_| None);
                    let mut len = 0;
                    // BTreeMap iterates ascending, so the array stays sorted.
                    for (k, v) in map {
                        slots[len] = Some((k, v));
                        len += 1;
                    }
                    self.repr = Repr::Inline { len, slots };
                }
                old
            }
        }
    }

    /// Removes all neighbors, resetting to the inline representation.
    pub fn clear(&mut self) {
        *self = Self::new();
    }

    /// Iterates `(neighbor, &payload)` in ascending neighbor-id order.
    pub fn iter(&self) -> Iter<'_, T> {
        match &self.repr {
            Repr::Inline { len, slots } => Iter::Inline(slots[..*len].iter()),
            Repr::Hub(map) => Iter::Hub(map.iter()),
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

/// Where `id` sits in a sorted inline array (`Ok`), or where it would go
/// (`Err`: the first slot holding a larger id).
fn inline_position<T>(occupied: &[Option<(VertexId, T)>], id: VertexId) -> Result<usize, usize> {
    for (pos, slot) in occupied.iter().enumerate() {
        let (k, _) = slot.as_ref().expect("slot below len is occupied");
        match (*k).cmp(&id) {
            std::cmp::Ordering::Less => {}
            std::cmp::Ordering::Equal => return Ok(pos),
            std::cmp::Ordering::Greater => return Err(pos),
        }
    }
    Err(occupied.len())
}

/// Ascending-order iterator over a [`HybridAdjacency`].
pub enum Iter<'a, T> {
    /// Iterating the inline sorted array.
    Inline(std::slice::Iter<'a, Option<(VertexId, T)>>),
    /// Iterating the hub map.
    Hub(std::collections::btree_map::Iter<'a, VertexId, T>),
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = (VertexId, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            Iter::Inline(it) => it.next().map(|slot| {
                let (k, v) = slot.as_ref().expect("slot below len is occupied");
                (*k, v)
            }),
            Iter::Hub(it) => it.next().map(|(k, v)| (*k, v)),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Iter::Inline(it) => it.size_hint(),
            Iter::Hub(it) => it.size_hint(),
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
/// inline adjacency equals a hub holding the same `(id, payload)` pairs.
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

    fn ids(adj: &HybridAdjacency<u32>) -> Vec<u64> {
        adj.keys().map(|v| v.0).collect()
    }

    #[test]
    fn insert_get_remove_small() {
        let mut adj = HybridAdjacency::new();
        assert!(adj.is_empty());
        assert_eq!(adj.insert(VertexId(5), 50), None);
        assert_eq!(adj.insert(VertexId(1), 10), None);
        assert_eq!(adj.insert(VertexId(3), 30), None);
        assert!(adj.is_inline());
        assert_eq!(adj.len(), 3);
        assert_eq!(adj.get(VertexId(3)), Some(&30));
        assert_eq!(adj.get(VertexId(4)), None);
        assert_eq!(ids(&adj), [1, 3, 5]);
        assert_eq!(adj.remove(VertexId(3)), Some(30));
        assert_eq!(adj.remove(VertexId(3)), None);
        assert_eq!(ids(&adj), [1, 5]);
    }

    #[test]
    fn insert_replaces_and_returns_old() {
        let mut adj = HybridAdjacency::new();
        adj.insert(VertexId(1), 10);
        assert_eq!(adj.insert(VertexId(1), 11), Some(10));
        assert_eq!(adj.len(), 1);
        assert_eq!(adj.get(VertexId(1)), Some(&11));
        *adj.get_mut(VertexId(1)).unwrap() = 12;
        assert_eq!(adj.get(VertexId(1)), Some(&12));
    }

    #[test]
    fn insert_if_absent_never_replaces_and_builds_no_payload_for_a_present_id() {
        for n in [3u64, 20] {
            let mut adj: HybridAdjacency<u32> = (0..n).map(|i| (VertexId(2 * i), 0)).collect();
            assert_eq!(adj.is_inline(), n == 3);
            assert!(!adj.insert_if_absent(VertexId(2), || panic!("2 is present")));
            assert!(adj.insert_if_absent(VertexId(3), || 33));
            assert!(!adj.insert_if_absent(VertexId(3), || 34));
            assert_eq!(adj.get(VertexId(3)), Some(&33));
            assert_eq!(adj.len(), n as usize + 1);
            assert!(adj.keys().map(|k| k.0).is_sorted());
        }
        // The ninth distinct neighbor promotes, exactly as `insert` does.
        let mut adj: HybridAdjacency<u32> = (0..8u64).map(|i| (VertexId(i), 0)).collect();
        assert!(adj.is_inline());
        assert!(adj.insert_if_absent(VertexId(99), || 1));
        assert!(!adj.is_inline());
        assert_eq!(adj.len(), 9);
    }

    #[test]
    fn promotes_past_inline_cap() {
        let mut adj = HybridAdjacency::new();
        for i in 0..HybridAdjacency::<u32>::INLINE_CAP as u64 {
            adj.insert(VertexId(i), i as u32);
            assert!(adj.is_inline());
        }
        adj.insert(VertexId(99), 99);
        assert!(!adj.is_inline());
        assert_eq!(adj.len(), INLINE_CAP + 1);
        // All entries survive the promotion, in order.
        let mut expect: Vec<u64> = (0..INLINE_CAP as u64).collect();
        expect.push(99);
        assert_eq!(ids(&adj), expect);
    }

    #[test]
    fn demotes_with_hysteresis() {
        let mut adj = HybridAdjacency::new();
        for i in 0..12u64 {
            adj.insert(VertexId(i), i as u32);
        }
        assert!(!adj.is_inline());
        // Shrinking to DEMOTE_AT + 1 keeps the hub (hysteresis band).
        while adj.len() > HybridAdjacency::<u32>::DEMOTE_AT + 1 {
            let first = adj.keys().next().unwrap();
            adj.remove(first);
        }
        assert!(!adj.is_inline());
        // One more removal crosses the threshold and demotes.
        let first = adj.keys().next().unwrap();
        adj.remove(first);
        assert!(adj.is_inline());
        assert_eq!(adj.len(), HybridAdjacency::<u32>::DEMOTE_AT);
        assert_eq!(ids(&adj), [8, 9, 10, 11]);
    }

    #[test]
    fn ascending_iteration_in_both_representations() {
        let mut inline: HybridAdjacency<u32> = HybridAdjacency::new();
        for i in [7u64, 2, 9, 4] {
            inline.insert(VertexId(i), 0);
        }
        assert!(inline.is_inline());
        assert_eq!(ids(&inline), [2, 4, 7, 9]);

        let mut hub: HybridAdjacency<u32> = HybridAdjacency::new();
        for i in [20u64, 3, 15, 8, 1, 12, 6, 18, 10, 4] {
            hub.insert(VertexId(i), 0);
        }
        assert!(!hub.is_inline());
        assert_eq!(ids(&hub), [1, 3, 4, 6, 8, 10, 12, 15, 18, 20]);
    }

    #[test]
    fn equality_ignores_representation() {
        let inline: HybridAdjacency<u32> = (0..4u64).map(|i| (VertexId(i), i as u32)).collect();
        let mut hub: HybridAdjacency<u32> = (0..12u64).map(|i| (VertexId(i), i as u32)).collect();
        for i in 4..12u64 {
            hub.remove(VertexId(i));
        }
        // hub demoted on the way down, but force the comparison anyway —
        // equality must hold whatever the internal representation.
        assert_eq!(inline, hub);
        assert_eq!(inline.len(), hub.len());
    }

    #[test]
    fn duplicate_inserts_never_promote() {
        let mut adj = HybridAdjacency::new();
        for _ in 0..100 {
            adj.insert(VertexId(1), 1u32);
            adj.insert(VertexId(2), 2u32);
        }
        assert!(adj.is_inline());
        assert_eq!(adj.len(), 2);
    }

    #[test]
    fn clear_resets_to_inline() {
        let mut adj: HybridAdjacency<u32> = (0..20u64).map(|i| (VertexId(i), 0)).collect();
        assert!(!adj.is_inline());
        adj.clear();
        assert!(adj.is_inline());
        assert!(adj.is_empty());
    }
}
