//! The one-multiply hasher for maps keyed by the experimenter's own ids.
//!
//! Vertex ids come out of the workload generator, not off an untrusted
//! wire, so maps keyed by them need spreading, not DoS resistance:
//! [`VertexHasher`] replaces SipHash with one multiply and a fold.
//! Both platforms' partition assignment, [`shard_of`], shares the
//! multiplier, so neither function may change — partition
//! assignment (and with it floating-point summation order in the rank
//! engine) depends on it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::ids::VertexId;

/// The multiplier (2^64 / φ) that spreads vertex ids.
const VERTEX_HASH_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// The shard, of `shards`, that owns vertex `id`: the high half of its
/// Fibonacci product, modulo `shards` — an even spread of sequential ids.
/// Both platforms place each event on the shard of its
/// [`GraphEvent::home`](crate::GraphEvent::home) vertex with it: a pure
/// function of the entity, the same on either, which is what lets the
/// differential harness compare them shard for shard.
pub fn shard_of(id: VertexId, shards: usize) -> usize {
    ((id.0.wrapping_mul(VERTEX_HASH_MULTIPLIER) >> 32) % shards as u64) as usize
}

/// `BuildHasher` for maps keyed by [`VertexId`] or [`crate::EdgeId`].
pub type VertexBuildHasher = BuildHasherDefault<VertexHasher>;

/// A `HashMap` keyed by [`VertexId`] behind one multiply instead of
/// SipHash. Iteration order is unspecified, as for any `HashMap`: use it
/// for point lookups and keep order elsewhere.
pub type VertexMap<V> = HashMap<VertexId, V, VertexBuildHasher>;

/// The [`VertexMap`] hasher. The high half of the product is folded onto
/// the low half because the table indexes with the low bits, where a
/// bare product only reflects the low bits of the id.
#[derive(Debug, Default, Clone, Copy)]
pub struct VertexHasher(u64);

impl Hasher for VertexHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, id: u64) {
        let h = (self.0 ^ id).wrapping_mul(VERTEX_HASH_MULTIPLIER);
        self.0 = h ^ (h >> 32);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::EdgeId;
    use std::hash::{BuildHasher, Hash};

    /// The function is part of `tide-graph`'s routing contract: pin it.
    #[test]
    fn hash_values_are_pinned() {
        let hash = |id: u64| VertexBuildHasher::default().hash_one(VertexId(id));
        let expect = |id: u64| {
            let h = id.wrapping_mul(VERTEX_HASH_MULTIPLIER);
            h ^ (h >> 32)
        };
        for id in [0, 1, 2, 1 << 32, u64::MAX] {
            assert_eq!(hash(id), expect(id));
        }
        assert_eq!(hash(1), 0x9E37_79B9_E17D_05AC);
    }

    /// Partition assignment orders the rank engine's summation: pin it.
    #[test]
    fn shard_assignment_is_pinned() {
        let shards: Vec<usize> = (0..12).map(|id| shard_of(VertexId(id), 4)).collect();
        assert_eq!(shards, [0, 1, 2, 0, 1, 3, 0, 2, 3, 1, 2, 0]);
        assert_eq!(shard_of(VertexId(u64::MAX), 7), 0x61C8_8646 % 7);
    }

    #[test]
    fn an_edge_hash_depends_on_both_endpoints_and_their_order() {
        let hash = |e: EdgeId| {
            let mut h = VertexHasher::default();
            e.hash(&mut h);
            h.finish()
        };
        let e = EdgeId::from((3, 9));
        assert_ne!(hash(e), hash(e.reversed()));
        assert_ne!(hash(e), hash(EdgeId::from((3, 10))));
        assert_ne!(hash(e), hash(EdgeId::from((4, 9))));
    }

    #[test]
    fn low_bits_spread_for_dense_ids() {
        // The table indexes with the low bits: 1024 consecutive ids must
        // not pile into a few of 1024 buckets.
        let mut buckets = [0u32; 1024];
        for id in 0..1024u64 {
            let h = VertexBuildHasher::default().hash_one(VertexId(id));
            buckets[(h & 1023) as usize] += 1;
        }
        assert!(buckets.iter().all(|&n| n <= 8), "{buckets:?}");
    }
}
