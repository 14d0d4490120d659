//! Shared series names.
//!
//! A result log holds one record per sample but only a handful of distinct
//! `source` and `metric` texts. [`Name`] is that text behind an `Arc<str>`:
//! whoever emits a series builds its names once and every record of the
//! series carries a 16-byte handle to them instead of two owned `String`s.

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use gt_core::Interner;

/// A `source` or `metric` name. Reads as a `&str` (`Deref`), compares,
/// orders and hashes by its text, and clones by bumping a reference count.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Name(Arc<str>);

impl Name {
    /// The text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl From<&str> for Name {
    fn from(text: &str) -> Self {
        Name(Arc::from(text))
    }
}

impl From<String> for Name {
    fn from(text: String) -> Self {
        Name(Arc::from(text))
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        *self.0 == *other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        *self.0 == **other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        *self.0 == **other
    }
}

/// One shared [`Name`] per distinct text — what a sampler or a log parser
/// keeps so that a series it meets again costs a lookup, not an
/// allocation. A [`gt_core::Interner`] of its own, not the process-wide
/// one: the names go when the table's owner and its records do.
#[derive(Debug, Default)]
pub struct NameTable(Interner);

impl NameTable {
    /// The shared name for `text`, allocated on first sight only.
    pub fn get(&self, text: &str) -> Name {
        Name(self.0.intern(text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashSet};

    #[test]
    fn reads_and_compares_as_its_text() {
        let name = Name::from("worker-2");
        assert_eq!(name, "worker-2");
        assert_eq!(name, *"worker-2");
        assert_eq!(name, "worker-2".to_owned());
        assert_eq!(name, Name::from("worker-2".to_owned()));
        assert_ne!(name, "worker-3");
        assert!(name.starts_with("worker-"));
        assert_eq!(name.to_string(), "worker-2");
        assert_eq!(format!("{name:?}"), "\"worker-2\"");
        assert_eq!(std::mem::size_of::<Name>(), 16);
    }

    #[test]
    fn orders_and_hashes_by_text_so_str_lookups_work() {
        let set: BTreeSet<Name> = ["b", "a", "c"].into_iter().map(Name::from).collect();
        assert_eq!(
            set.iter().map(Name::as_str).collect::<Vec<_>>(),
            ["a", "b", "c"]
        );
        assert!(set.contains("b"));
        let hashed: HashSet<Name> = set.into_iter().collect();
        assert!(hashed.contains("c"));
        assert!(!hashed.contains("d"));
    }

    #[test]
    fn a_table_hands_out_one_allocation_per_text() {
        let names = NameTable::default();
        let a = names.get("cpu_percent");
        let b = names.get("cpu_percent");
        let c = names.get("rss_bytes");
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert!(!Arc::ptr_eq(&a.0, &c.0));
    }
}
