//! A small thread-safe string interner for marker names.
//!
//! Marker names recur constantly — every `shards=N` broadcast and every
//! `--clients M` fan-out used to clone the `String` once per recipient.
//! Interning turns the name into an [`Arc<str>`] once; every subsequent
//! copy is a reference-count bump, and repeats of the *same* name (markers
//! are often emitted on a schedule: `window-1`, `window-2`, …, re-sent on
//! retries) share one allocation process-wide.
//!
//! The table is deliberately tiny: a mutex around a `HashSet<Arc<str>>`.
//! Marker cardinality is bounded by the experiment design (tens to
//! thousands), so contention and growth are negligible next to the
//! per-copy allocations it removes.

use std::collections::HashSet;
use std::sync::{Arc, Mutex, OnceLock};

use crate::sync::lock;

/// A deduplicating table of shared strings.
#[derive(Debug, Default)]
pub struct Interner {
    table: Mutex<HashSet<Arc<str>>>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the shared handle for `name`, allocating only on first
    /// sight of a given string.
    pub fn intern(&self, name: &str) -> Arc<str> {
        let mut table = lock(&self.table);
        if let Some(existing) = table.get(name) {
            return Arc::clone(existing);
        }
        let shared: Arc<str> = Arc::from(name);
        table.insert(Arc::clone(&shared));
        shared
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        lock(&self.table).len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Interns `name` in the process-wide table. This is the call broadcast
/// fan-out paths use so one marker name is allocated once per process, not
/// once per shard or connection.
pub fn intern(name: &str) -> Arc<str> {
    static GLOBAL: OnceLock<Interner> = OnceLock::new();
    GLOBAL.get_or_init(Interner::new).intern(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_interns_share_one_allocation() {
        let interner = Interner::new();
        let a = interner.intern("window-1");
        let b = interner.intern("window-1");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(interner.len(), 1);
        let c = interner.intern("window-2");
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn global_interner_deduplicates() {
        let a = intern("global-marker");
        let b = intern("global-marker");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(&*a, "global-marker");
    }
}
