//! `State` keeps short payloads inline and long ones on the heap; nothing
//! but the allocation count may tell the two apart. These tests hold the
//! type to the behaviour of the `String` newtype it replaced: same text
//! back, same equality, order and hash as the `&str`, same formatting.

use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use gt_core::parse_line;
use gt_core::prelude::*;
use proptest::prelude::*;

/// Counts this thread's allocations, so tests running beside each other
/// do not disturb the count.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers entirely to `System`; the counter is a const-initialised
// thread-local `Cell` without a destructor, so touching it cannot allocate.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        std::alloc::System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        std::alloc::System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

#[test]
fn short_payloads_never_touch_the_heap_long_ones_once() {
    let (entry, allocs) = allocs_during(|| parse_line("ADD_EDGE,1-2,knows").unwrap().unwrap());
    assert_eq!(allocs, 0, "parsing a short payload");
    let (copy, allocs) = allocs_during(|| entry.clone());
    assert_eq!(allocs, 0, "cloning a short payload");
    assert_eq!(copy, entry);

    let at_limit = format!("ADD_EDGE,1-2,{}", "x".repeat(State::INLINE_CAP));
    let (_, allocs) = allocs_during(|| parse_line(&at_limit).unwrap().unwrap());
    assert_eq!(allocs, 0, "a {}-byte payload", State::INLINE_CAP);

    let over = format!("ADD_EDGE,1-2,{}", "x".repeat(State::INLINE_CAP + 1));
    let (entry, allocs) = allocs_during(|| parse_line(&over).unwrap().unwrap());
    assert_eq!(allocs, 1, "a {}-byte payload", State::INLINE_CAP + 1);
    let (_, allocs) = allocs_during(|| entry.clone());
    assert_eq!(allocs, 1, "cloning a long payload");
}

fn hash_of(value: &(impl Hash + ?Sized)) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Strings around the inline limit: one- to four-byte code points, so that
/// a character regularly straddles byte 22.
fn payload_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~é€𝄞]{0,30}").expect("valid regex")
}

fn assert_behaves_like(s: &str) {
    let state = State::new(s);
    assert_eq!(state.as_str(), s);
    assert_eq!(state.is_empty(), s.is_empty());
    assert_eq!(State::from(s), state);
    assert_eq!(State::from(s.to_owned()), state);
    assert_eq!(state.clone(), state);
    assert_eq!(hash_of(&state), hash_of(s));
    assert_eq!(state.to_string(), s);
    // What the derive printed for `State(String)`.
    assert_eq!(format!("{state:?}"), format!("State({s:?})"));
}

#[test]
fn lengths_around_the_inline_limit_round_trip() {
    for len in [0, 1, 21, 22, 23, 24, 4_096] {
        assert_behaves_like(&"a".repeat(len));
    }
    // Multi-byte code points ending before, on and across byte 22.
    for lead in 18..=22 {
        for ch in ['é', '€', '𝄞'] {
            assert_behaves_like(&format!("{}{ch}", "a".repeat(lead)));
            assert_behaves_like(&format!("{}{ch}tail", "a".repeat(lead)));
        }
    }
    assert_eq!(State::default(), State::empty());
    assert_eq!(State::default().as_str(), "");
}

proptest! {
    #[test]
    fn state_behaves_like_its_str(s in payload_strategy()) {
        assert_behaves_like(&s);
    }

    /// Equality, order and hash agree with the `&str`s', whichever mix of
    /// representations the two sides have — so `BTreeMap<_, State>`
    /// orderings, `StateDigest`s and `HashMap` keys are what they were.
    #[test]
    fn comparisons_agree_with_str(a in payload_strategy(), b in payload_strategy()) {
        let (sa, sb) = (State::new(&a), State::new(&b));
        prop_assert_eq!(sa == sb, a == b);
        prop_assert_eq!(sa.cmp(&sb), a.cmp(&b));
        prop_assert_eq!(sa.partial_cmp(&sb), a.partial_cmp(&b));
        prop_assert_eq!(hash_of(&sa) == hash_of(&sb), hash_of(a.as_str()) == hash_of(b.as_str()));
    }

    /// Payloads built piece by piece match the `String` they replaced.
    #[test]
    fn built_payloads_match_formatting(w in any::<f64>(), key in payload_strategy(), value in payload_strategy()) {
        let expected = if w == 0.0 { "0".to_owned() } else { format!("{w}") };
        let weight = State::weight(w);
        prop_assert_eq!(weight.as_str(), expected.as_str());
        prop_assert_eq!(weight.as_weight(), Some(w));

        let fields = State::from_fields([("k", key.clone()), ("v", value.clone())]);
        let expected = format!("k={key};v={value}");
        prop_assert_eq!(fields.as_str(), expected.as_str());
    }
}
