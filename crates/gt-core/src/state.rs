//! Vertex and edge state payloads.
//!
//! GraphTides treats states as user-defined strings (the paper suggests
//! stringified JSON). [`State`] holds that string and adds a few typed
//! helpers that the built-in workloads use (numeric weights, key/value
//! pairs) without imposing a schema on user payloads.
//!
//! Every payload the built-in workloads and the generator emit is short
//! (`knows`, `person=17`, `v=3`, a formatted `f64`), so a state of at most
//! [`State::INLINE_CAP`] bytes lives inside the 24-byte struct — building,
//! cloning and dropping it never touches the heap. Longer payloads sit in
//! a `Box<str>` and cost one allocation, as a `String` would.

use std::cmp::Ordering;
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};

/// An opaque, user-defined state payload attached to a vertex or edge.
///
/// Equality, ordering, hashing and both formatting traits are those of
/// [`State::as_str`]; which representation holds the bytes is not
/// observable.
#[derive(Clone)]
pub struct State(Repr);

#[derive(Clone)]
enum Repr {
    /// `buf[..len]` is the payload; always whole `&str`s copied in, so
    /// always valid UTF-8.
    Inline {
        len: u8,
        buf: [u8; State::INLINE_CAP],
    },
    Heap(Box<str>),
}

impl State {
    /// Longest payload, in bytes, kept inline: the 24-byte struct minus
    /// the variant tag and the length byte.
    pub const INLINE_CAP: usize = 22;

    /// The empty state.
    pub const fn empty() -> Self {
        State(Repr::Inline {
            len: 0,
            buf: [0; Self::INLINE_CAP],
        })
    }

    /// Creates a state from a string payload.
    pub fn new(s: impl AsRef<str>) -> Self {
        let s = s.as_ref();
        let mut state = State::empty();
        if !state.push_inline(s) {
            state.0 = Repr::Heap(s.into());
        }
        state
    }

    /// Creates a state holding a numeric weight (e.g. an edge weight),
    /// without trailing-zero noise (`1`, not `1.0`) and with `f64`'s
    /// shortest round-trip representation.
    pub fn weight(w: f64) -> Self {
        // `-0.0` would print as `-0`.
        let w = if w == 0.0 { 0.0 } else { w };
        let mut out = Builder::default();
        // Formatting into a `Builder` cannot fail.
        let _ = write!(out, "{w}");
        out.finish()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.as_str().is_empty()
    }

    /// Borrow the raw payload.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, buf } => {
                // SAFETY: `push_inline` is the only writer of `buf`/`len`;
                // it appends whole `&str`s, so `buf[..len]` is a
                // concatenation of valid UTF-8 strings.
                unsafe { std::str::from_utf8_unchecked(&buf[..usize::from(*len)]) }
            }
            Repr::Heap(s) => s,
        }
    }

    /// Parses the payload as an `f64` weight, if it is one.
    pub fn as_weight(&self) -> Option<f64> {
        self.as_str().trim().parse().ok()
    }

    /// Interprets the payload as `key=value;key=value` pairs and returns the
    /// value for `key`, if present. This is the convention the built-in
    /// workloads use for structured payloads.
    pub fn get_field<'a>(&'a self, key: &str) -> Option<&'a str> {
        self.as_str().split(';').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }

    /// Builds a `key=value;...` state from pairs.
    pub fn from_fields<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> Self {
        let mut out = Builder::default();
        for (i, (k, v)) in fields.into_iter().enumerate() {
            if i > 0 {
                out.push_str(";");
            }
            out.push_str(k);
            out.push_str("=");
            out.push_str(&v);
        }
        out.finish()
    }

    /// Appends `s` to an inline payload if the result still fits inline;
    /// otherwise leaves the state untouched and returns `false`.
    fn push_inline(&mut self, s: &str) -> bool {
        let Repr::Inline { len, buf } = &mut self.0 else {
            return false;
        };
        let start = usize::from(*len);
        let Some(dst) = buf.get_mut(start..start + s.len()) else {
            return false;
        };
        dst.copy_from_slice(s.as_bytes());
        *len += s.len() as u8; // ≤ INLINE_CAP: `dst` exists
        true
    }
}

/// Accumulates a payload piece by piece: inline while it fits, in one
/// growing `String` once it does not.
#[derive(Default)]
struct Builder {
    inline: State,
    spilled: Option<String>,
}

impl Builder {
    fn push_str(&mut self, s: &str) {
        match &mut self.spilled {
            Some(out) => out.push_str(s),
            None if self.inline.push_inline(s) => {}
            None => self.spilled = Some([self.inline.as_str(), s].concat()),
        }
    }

    fn finish(self) -> State {
        match self.spilled {
            Some(out) => State(Repr::Heap(out.into_boxed_str())),
            None => self.inline,
        }
    }
}

impl fmt::Write for Builder {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.push_str(s);
        Ok(())
    }
}

impl Default for State {
    fn default() -> Self {
        State::empty()
    }
}

impl PartialEq for State {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for State {}

impl PartialOrd for State {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for State {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for State {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // What `#[derive(Debug)]` printed for the `State(String)` tuple.
        f.debug_tuple("State").field(&self.as_str()).finish()
    }
}

impl fmt::Display for State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for State {
    fn from(s: &str) -> Self {
        State::new(s)
    }
}

impl From<String> for State {
    fn from(s: String) -> Self {
        if s.len() <= State::INLINE_CAP {
            State::new(&s)
        } else {
            State(Repr::Heap(s.into_boxed_str()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{GraphEvent, StreamEntry};

    #[test]
    fn empty_state() {
        assert!(State::empty().is_empty());
        assert_eq!(State::empty().as_str(), "");
    }

    #[test]
    fn weight_roundtrip() {
        for w in [0.0, 1.0, -2.5, 0.1, 1e10, f64::MIN_POSITIVE] {
            assert_eq!(State::weight(w).as_weight(), Some(w), "weight {w}");
        }
    }

    #[test]
    fn weight_of_non_numeric_is_none() {
        assert_eq!(State::new("hello").as_weight(), None);
        assert_eq!(State::empty().as_weight(), None);
    }

    #[test]
    fn field_access() {
        let s = State::from_fields([("name", "ada".to_owned()), ("rank", "3".to_owned())]);
        assert_eq!(s.as_str(), "name=ada;rank=3");
        assert_eq!(s.get_field("name"), Some("ada"));
        assert_eq!(s.get_field("rank"), Some("3"));
        assert_eq!(s.get_field("missing"), None);
    }

    #[test]
    fn negative_zero_weight_normalized() {
        assert_eq!(State::weight(-0.0).as_str(), "0");
    }

    #[test]
    fn sizes_are_pinned() {
        assert_eq!(std::mem::size_of::<State>(), 24);
        assert_eq!(std::mem::size_of::<GraphEvent>(), 48);
        assert_eq!(std::mem::size_of::<StreamEntry>(), 48);
    }

    #[test]
    fn fields_longer_than_the_inline_buffer_spill_to_the_heap() {
        let long = "x".repeat(40);
        let s = State::from_fields([("a", "1".to_owned()), ("blob", long.clone())]);
        assert_eq!(s.as_str(), format!("a=1;blob={long}"));
        assert_eq!(s.get_field("blob"), Some(long.as_str()));
        // f64::MIN_POSITIVE prints 300+ digits.
        assert!(State::weight(f64::MIN_POSITIVE).as_str().len() > State::INLINE_CAP);
    }
}
