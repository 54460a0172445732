//! Scheduler-determinism tests for the morsel-driven pool: parallel
//! execution must be byte-identical to serial under *steal-heavy*
//! schedules — forced here both by caller-side skew (one stalled
//! worker) and, under the `failpoints` feature, by `exec.pool.morsel`
//! delay injection that randomizes the claim order — and a guard that
//! trips mid-run must surface the same typed resource error on both
//! paths. `pool_props.rs` covers the schedule-independent basics
//! (visit-once, panic typing); this file covers order identity with the
//! serial loop, under the block deal and under the schedules it alone
//! would never produce.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use proptest::prelude::*;
use qp_exec::{morsel_map, ExecError, QueryGuardBuilder, ResourceKind};
// Every test outside `steal_heavy` holds a `FailScenario` (a no-op
// without the `failpoints` feature): failpoints are process-global, so
// the `exec.pool.morsel` faults `steal_heavy` arms must not fire inside
// a parallel run here.
use qp_exec::failpoint::FailScenario;

fn mix(i: usize, x: u64) -> u64 {
    x.wrapping_mul(0x9E37_79B9).rotate_left((i % 31) as u32) ^ 0xA5A5
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Order identity without forced skew: the parallel result equals the
    /// serial map for any batch length and worker count, including the
    /// degenerate ones (empty batch, one item, more workers than items),
    /// and the closure always sees the item's original index.
    #[test]
    fn any_shape_matches_serial(len in 0usize..700, par in 1usize..16) {
        let _s = FailScenario::setup();
        let items: Vec<u64> = (0..len as u64).collect();
        let serial: Vec<u64> = items.iter().enumerate().map(|(i, &x)| mix(i, x)).collect();
        let out = morsel_map(items, par, |i, x| {
            prop_assert_eq!(i as u64, x, "closure sees the original index");
            Ok::<_, String>(mix(i, x))
        })
        .0
        .unwrap();
        prop_assert_eq!(out, serial, "len={} par={}", len, par);
    }
}

/// Caller-side skew: item 0 stalls its worker, so every other worker
/// drains its own deque and then steals the stalled worker's remainder.
/// The steal-heavy schedule must change nothing about the output and
/// must be visible in the run's steal counter.
#[test]
fn stalled_worker_is_stolen_dry_and_output_is_byte_identical() {
    let _s = FailScenario::setup();
    let items: Vec<u64> = (0..64).collect();
    let f = |i: usize, x: u64| {
        if i == 0 {
            std::thread::sleep(Duration::from_millis(50));
        }
        Ok::<_, ExecError>(mix(i, x))
    };
    let (serial, sstats) = morsel_map(items.clone(), 1, f);
    let (parallel, pstats) = morsel_map(items, 4, f);
    assert_eq!(serial.expect("serial succeeds"), parallel.expect("parallel succeeds"));
    assert_eq!((sstats.morsels, sstats.steals), (0, 0), "serial path never touches the pool");
    assert_eq!(pstats.morsels, 16, "64 items at parallelism 4 pack into 16 morsels");
    assert!(
        pstats.steals >= 1,
        "workers idling behind a 50ms stall must steal its deque (steals={})",
        pstats.steals
    );
}

/// A shared guard that trips mid-run must produce the same typed
/// resource error at parallelism 1 and 4: the budget atomics are global
/// across workers, so no schedule can out-spend the serial run, and the
/// reassembly returns a lowest-morsel resource error either way.
#[test]
fn midrun_guard_trip_is_the_same_typed_error_on_both_paths() {
    let _s = FailScenario::setup();
    for parallelism in [1, 4] {
        let guard = QueryGuardBuilder::default().max_intermediate_rows(100).build();
        let items: Vec<u64> = (0..64).collect();
        let err = morsel_map(items, parallelism, |i, x| {
            guard.charge_intermediate(10)?; // 64 × 10 ≫ 100: trips mid-run
            Ok::<_, ExecError>(mix(i, x))
        })
        .0
        .expect_err("the budget cannot cover the run");
        match err {
            ExecError::ResourceExhausted { resource: ResourceKind::IntermediateRows, limit } => {
                assert_eq!(limit, 100, "parallelism {parallelism}");
            }
            other => panic!("parallelism {parallelism}: expected a budget trip, got {other}"),
        }
    }
}

/// Guard trips leave already-settled charges settled: whatever workers
/// charged before the trip stays on the shared atomics (the serving
/// layer's accounting relies on it), bounded by the full run's charge.
#[test]
fn guard_charges_before_a_trip_stay_settled() {
    let _s = FailScenario::setup();
    let charged = AtomicUsize::new(0);
    let guard = QueryGuardBuilder::default().max_intermediate_rows(50).build();
    let items: Vec<u64> = (0..64).collect();
    let result = morsel_map(items, 4, |i, x| {
        guard.charge_intermediate(10)?;
        charged.fetch_add(10, Ordering::Relaxed);
        Ok::<_, ExecError>(mix(i, x))
    })
    .0;
    assert!(result.is_err(), "the budget cannot cover the run");
    // fetch_add admits a charge iff the running total stays within the
    // 50-row budget, so exactly five 10-row charges succeed no matter
    // how the morsels interleave.
    assert_eq!(charged.load(Ordering::Relaxed), 50, "settled charges are schedule-independent");
}

/// Steal-heavy schedules forced by failpoint-injected per-morsel delays:
/// `exec.pool.morsel` fires on every *claimed* morsel, so a seeded
/// chaos stream of delays perturbs which worker claims what — precisely
/// the schedules the deterministic block deal never exercises. The
/// output must equal the serial map for every seed.
#[cfg(feature = "failpoints")]
mod steal_heavy {
    use super::*;
    use qp_exec::failpoint::{arm, FailAction, FailScenario};

    proptest! {
        // Each case sleeps ~half its morsels for 1ms; keep the case
        // count low enough that the suite stays fast on one core.
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn delay_skewed_schedules_preserve_byte_identity(
            seed in 1u64..=u64::MAX,
            len in 1usize..260,
            par in 2usize..6,
        ) {
            let items: Vec<u64> = (0..len as u64).collect();
            let f = |i: usize, x: u64| Ok::<_, ExecError>(mix(i, x));
            // The delay site lives inside the worker claim loop, so the
            // serial reference is unaffected even while armed; scoping
            // the scenario keeps the registry clean between cases anyway.
            let serial: Vec<u64> = morsel_map(items.clone(), 1, f).0.unwrap();
            let scenario = FailScenario::setup();
            arm(
                "exec.pool.morsel",
                FailAction::Chaos {
                    seed,
                    error_rate: 0,
                    panic_rate: 0,
                    delay_rate: 5000, // half of all claimed morsels stall
                    delay_ms: 1,
                },
            );
            let (parallel, stats) = morsel_map(items, par, f);
            drop(scenario);
            prop_assert_eq!(serial, parallel.unwrap(), "seed={} len={} par={}", seed, len, par);
            prop_assert!(stats.morsels >= 1);
        }

        /// An injected per-morsel *error* fails exactly that morsel,
        /// typed, and reassembly still returns an error deterministically
        /// shaped like a worker fault — never an unwind, never a hang.
        #[test]
        fn injected_morsel_errors_surface_typed(len in 8usize..200, par in 2usize..6) {
            let items: Vec<u64> = (0..len as u64).collect();
            let scenario = FailScenario::setup();
            arm("exec.pool.morsel", FailAction::Error("morsel fault".into()));
            let (result, _) = morsel_map(items, par, |i, x| Ok::<_, ExecError>(mix(i, x)));
            drop(scenario);
            let err = result.expect_err("every morsel is poisoned");
            let msg = err.to_string();
            prop_assert!(
                msg.contains("injected fault: morsel fault"),
                "typed injected fault, got: {}", msg
            );
        }
    }
}
