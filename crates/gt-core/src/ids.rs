//! Entity identifiers.
//!
//! Vertices are identified by a unique numeric ID. Edges are identified by
//! the concatenation of their source and destination vertex identifiers,
//! separated by a dash (`src-dst`), exactly as in the GraphTides stream
//! format. The graph model is directed, without self loops or parallel
//! edges.

use std::fmt;
use std::str::FromStr;

use crate::error::ParseError;

/// A unique vertex identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VertexId(pub u64);

impl VertexId {
    /// Returns the raw numeric value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for VertexId {
    fn from(v: u64) -> Self {
        VertexId(v)
    }
}

impl FromStr for VertexId {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.trim()
            .parse::<u64>()
            .map(VertexId)
            .map_err(|_| ParseError::invalid_entity(s))
    }
}

/// A directed edge identifier: the pair of source and destination vertex.
///
/// Serialized as `src-dst` in the stream format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EdgeId {
    /// Source vertex of the directed edge.
    pub src: VertexId,
    /// Destination vertex of the directed edge.
    pub dst: VertexId,
}

impl EdgeId {
    /// Creates an edge identifier from source to destination.
    #[inline]
    pub const fn new(src: VertexId, dst: VertexId) -> Self {
        EdgeId { src, dst }
    }

    /// The edge with source and destination swapped.
    #[inline]
    pub const fn reversed(self) -> Self {
        EdgeId {
            src: self.dst,
            dst: self.src,
        }
    }

    /// Whether this edge would be a self loop (disallowed by the model,
    /// but representable so that validators can report it).
    #[inline]
    pub const fn is_self_loop(self) -> bool {
        self.src.0 == self.dst.0
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.src.0, self.dst.0)
    }
}

impl From<(u64, u64)> for EdgeId {
    fn from((s, d): (u64, u64)) -> Self {
        EdgeId::new(VertexId(s), VertexId(d))
    }
}

impl FromStr for EdgeId {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let trimmed = s.trim();
        let (src, dst) = trimmed
            .split_once('-')
            .ok_or_else(|| ParseError::invalid_entity(s))?;
        Ok(EdgeId::new(src.parse()?, dst.parse()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_id_display_roundtrip() {
        let v = VertexId(42);
        assert_eq!(v.to_string(), "42");
        assert_eq!("42".parse::<VertexId>().unwrap(), v);
        assert_eq!(" 7 ".parse::<VertexId>().unwrap(), VertexId(7));
    }

    #[test]
    fn vertex_id_parse_rejects_garbage() {
        assert!("".parse::<VertexId>().is_err());
        assert!("abc".parse::<VertexId>().is_err());
        assert!("-1".parse::<VertexId>().is_err());
        assert!("1.5".parse::<VertexId>().is_err());
    }

    #[test]
    fn edge_id_display_roundtrip() {
        let e = EdgeId::from((3, 9));
        assert_eq!(e.to_string(), "3-9");
        assert_eq!("3-9".parse::<EdgeId>().unwrap(), e);
    }

    #[test]
    fn edge_id_parse_rejects_malformed() {
        assert!("3".parse::<EdgeId>().is_err());
        assert!("3-".parse::<EdgeId>().is_err());
        assert!("-3".parse::<EdgeId>().is_err());
        assert!("a-b".parse::<EdgeId>().is_err());
    }

    #[test]
    fn edge_reversal_and_self_loop() {
        let e = EdgeId::from((1, 2));
        assert_eq!(e.reversed(), EdgeId::from((2, 1)));
        assert!(!e.is_self_loop());
        assert!(EdgeId::from((5, 5)).is_self_loop());
    }

    #[test]
    fn ordering_is_lexicographic_on_src_then_dst() {
        let a = EdgeId::from((1, 9));
        let b = EdgeId::from((2, 0));
        assert!(a < b);
        assert!(EdgeId::from((1, 1)) < EdgeId::from((1, 2)));
    }
}
