//! Property tests for the worker pool: for any (len, parallelism) pair,
//! `morsel_map` must visit every index exactly once, and a panic anywhere
//! must surface as a typed error, never an unwind. Order identity with
//! the serial loop is checked in `morsel_props.rs`, next to the skewed
//! schedules.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use qp_exec::morsel_map;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every item is visited exactly once regardless of chunking.
    #[test]
    fn each_item_visited_once(len in 1usize..400, par in 1usize..12) {
        let visits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..len).collect();
        let out = morsel_map(items, par, |_, x| {
            visits.fetch_add(1, Ordering::Relaxed);
            Ok::<_, String>(x)
        })
        .0
        .unwrap();
        prop_assert_eq!(visits.load(Ordering::Relaxed), len);
        prop_assert_eq!(out.len(), len);
    }

    /// A panic at an arbitrary index is caught and typed for any shape;
    /// the caller's thread survives to inspect the error.
    #[test]
    fn panic_is_always_typed(len in 1usize..200, par in 1usize..10, at in 0usize..200) {
        let at = at % len;
        let items: Vec<usize> = (0..len).collect();
        let err = morsel_map(items, par, |_, x| {
            if x == at {
                panic!("injected panic at {x}");
            }
            Ok::<_, String>(x)
        })
        .0
        .unwrap_err();
        prop_assert!(
            err.contains(&format!("injected panic at {at}")),
            "panic payload preserved: {}", err
        );
        prop_assert!(err.contains("panicked"), "typed as a worker panic: {}", err);
    }
}
