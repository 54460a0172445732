//! Failpoint-style fault injection, modeled on the `fail` crate but
//! implemented locally so the workspace stays dependency-free.
//!
//! A *failpoint* is a named site in the code (`failpoint::check("site")`)
//! that normally does nothing. Tests compiled with the `failpoints`
//! feature can *arm* a site with a [`FailAction`] — return an injected
//! error, sleep, or fire only after N passes — to exercise the error and
//! degradation paths deterministically. Without the feature every entry
//! point compiles to a no-op, so production builds pay nothing.
//!
//! Sites are process-global. Tests that arm failpoints must serialize
//! through [`FailScenario::setup`], which takes a global lock and clears
//! the registry on setup and drop, so parallel tests cannot observe each
//! other's injected faults.
//!
//! Named sites in this workspace:
//!
//! | site                  | location                                   |
//! |-----------------------|--------------------------------------------|
//! | `storage.insert`      | `Database::insert` (before the table write) |
//! | `exec.scan`           | `Plan::Scan` (before iterating the table)   |
//! | `exec.hash_join.build`| `Plan::HashJoin` (before building the hash) |
//! | `exec.index_join`     | `Plan::IndexJoin` (before probing)          |
//! | `exec.nested_loop`    | `Plan::NestedLoop` (before the cross loop)  |
//! | `ppa.presence`        | before each PPA presence query              |
//! | `ppa.absence`         | before each PPA absence query               |
//! | `ppa.step3`           | before PPA's residual-tuple enumeration     |
//! | `spa.execute`         | before executing the SPA statement          |
//! | `snapshot.update`     | `SnapshotStore::update` (before mutating)   |
//! | `exec.pool.spawn`     | worker startup in the morsel pool (any armed action surfaces as a worker panic) |
//! | `exec.pool.morsel`    | per claimed morsel in `morsel_map` (error → that morsel fails typed; delay → schedule skew, forcing steal-heavy interleavings) |
//! | `cache.plan.shard`    | plan-cache shard ops, checked under the shard lock (error → forced miss / dropped insert) |
//! | `cache.pref.shard`    | preference-cache shard ops, same contract   |
//! | `admission.queue`     | admission-permit wait in `qp_core::admission` |
//! | `net.read`            | `qp-server` before reading a frame from a connection (error → connection aborted; delay → slow client read) |
//! | `net.write`           | `qp-server` before writing a response frame (error → connection aborted before any bytes) |
//! | `net.write.short`     | `qp-server` torn-write site: an injected error makes the server write a partial frame and sever the connection |
//! | `persist.write`       | segment-log append / snapshot write in `qp_storage::persist` (error → the record is not buffered; the profile store degrades to read-only) |
//! | `persist.fsync`       | fsync of a segment log or snapshot (error → flush fails typed; durability of buffered records is lost, the store degrades) |
//! | `persist.read`        | per-record read during log replay (error → recovery refuses to open rather than guessing at a prefix) |

/// What an armed failpoint does when its site is passed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailAction {
    /// Fail with this message (mapped to a typed error at the site).
    Error(String),
    /// Sleep for this many milliseconds, then continue.
    Delay(u64),
    /// Pass `skip` times, then fail with the message on every later pass.
    ErrorAfter {
        /// Number of passes that succeed before the fault fires.
        skip: u64,
        /// Injected failure message.
        message: String,
    },
    /// Fail the first `times` passes, then pass forever: the shape of a
    /// *transient* fault, which a retry loop is expected to absorb.
    ErrorTimes {
        /// Number of leading passes that fail before the site heals.
        times: u64,
        /// Injected failure message.
        message: String,
    },
    /// Panic with this message. Exercises the panic-isolation paths
    /// (`morsel_map`'s `catch_unwind`, the caches' poison recovery).
    Panic(String),
    /// Seeded stochastic fault: on each pass an xorshift stream derived
    /// from `seed` decides (deterministically, in pass order) whether to
    /// fail, panic, delay, or continue. Rates are per-10 000 so
    /// integer-only configs stay exact; `error_rate` is evaluated first,
    /// then `panic_rate`, then `delay_rate`.
    Chaos {
        /// Seed of the per-site random stream (must be non-zero to
        /// produce faults; 0 disables the stream).
        seed: u64,
        /// Probability of injecting an error, in basis points (1/10 000).
        error_rate: u32,
        /// Probability of panicking, in basis points, evaluated on the
        /// passes that did not error.
        panic_rate: u32,
        /// Probability of sleeping for `delay_ms`, in basis points,
        /// evaluated on the passes that neither errored nor panicked.
        /// Models slow I/O (stalled reads, congested writes) on the
        /// network sites.
        delay_rate: u32,
        /// Sleep duration for delay faults, in milliseconds.
        delay_ms: u64,
    },
}

#[cfg(feature = "failpoints")]
mod imp {
    use super::FailAction;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock};

    struct Armed {
        action: FailAction,
        passes: u64,
        /// Per-site xorshift state for [`FailAction::Chaos`]; 0 for every
        /// other action (and for a disabled chaos stream).
        rng: u64,
    }

    fn registry() -> &'static Mutex<HashMap<String, Armed>> {
        static REGISTRY: OnceLock<Mutex<HashMap<String, Armed>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
    }

    /// Fast path: skip the registry lock entirely while nothing is armed.
    static ANY_ARMED: AtomicBool = AtomicBool::new(false);

    fn scenario_lock() -> &'static Mutex<()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
    }

    /// See [`super::check`].
    pub fn check(site: &str) -> Result<(), String> {
        if !ANY_ARMED.load(Ordering::Acquire) {
            return Ok(());
        }
        let action = {
            let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
            match reg.get_mut(site) {
                None => return Ok(()),
                Some(armed) => {
                    armed.passes += 1;
                    match &armed.action {
                        FailAction::ErrorAfter { skip, message } => {
                            if armed.passes <= *skip {
                                return Ok(());
                            }
                            FailAction::Error(message.clone())
                        }
                        FailAction::ErrorTimes { times, message } => {
                            if armed.passes > *times {
                                return Ok(());
                            }
                            FailAction::Error(message.clone())
                        }
                        FailAction::Chaos { error_rate, panic_rate, delay_rate, delay_ms, .. } => {
                            if armed.rng == 0 {
                                return Ok(());
                            }
                            // Advance the site's private xorshift stream;
                            // the fault sequence is a pure function of
                            // (seed, pass index), so a chaos run replays
                            // exactly under the same arming order.
                            let mut x = armed.rng;
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            armed.rng = x;
                            let roll = (x >> 11) % 10_000;
                            let pass = armed.passes;
                            if roll < u64::from(*error_rate) {
                                FailAction::Error(format!("chaos@{site}#{pass}"))
                            } else if roll < u64::from(*error_rate + *panic_rate) {
                                FailAction::Panic(format!("chaos@{site}#{pass}"))
                            } else if roll < u64::from(*error_rate + *panic_rate + *delay_rate) {
                                FailAction::Delay(*delay_ms)
                            } else {
                                return Ok(());
                            }
                        }
                        other => other.clone(),
                    }
                }
            }
        };
        match action {
            FailAction::Error(msg) => Err(msg),
            FailAction::Delay(ms) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                Ok(())
            }
            // Deliberately outside the registry lock, so a panicking site
            // never wedges the registry itself.
            FailAction::Panic(msg) => std::panic::panic_any(msg),
            FailAction::ErrorAfter { .. }
            | FailAction::ErrorTimes { .. }
            | FailAction::Chaos { .. } => {
                unreachable!("rewritten above")
            }
        }
    }

    /// See [`super::arm`].
    pub fn arm(site: &str, action: FailAction) {
        let rng = match &action {
            FailAction::Chaos { seed, .. } => *seed,
            _ => 0,
        };
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        reg.insert(site.to_string(), Armed { action, passes: 0, rng });
        ANY_ARMED.store(true, Ordering::Release);
    }

    /// See [`super::disarm`].
    pub fn disarm(site: &str) {
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        reg.remove(site);
        if reg.is_empty() {
            ANY_ARMED.store(false, Ordering::Release);
        }
    }

    /// See [`super::clear`].
    pub fn clear() {
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        reg.clear();
        ANY_ARMED.store(false, Ordering::Release);
    }

    /// See [`super::FailScenario`].
    pub struct FailScenario {
        _guard: MutexGuard<'static, ()>,
    }

    impl FailScenario {
        /// See [`super::FailScenario::setup`].
        pub fn setup() -> Self {
            let guard = scenario_lock().lock().unwrap_or_else(|e| e.into_inner());
            clear();
            FailScenario { _guard: guard }
        }
    }

    impl Drop for FailScenario {
        fn drop(&mut self) {
            clear();
        }
    }
}

#[cfg(not(feature = "failpoints"))]
mod imp {
    use super::FailAction;

    /// No-op without the `failpoints` feature.
    #[inline(always)]
    pub fn check(_site: &str) -> Result<(), String> {
        Ok(())
    }

    /// No-op without the `failpoints` feature.
    pub fn arm(_site: &str, _action: FailAction) {}

    /// No-op without the `failpoints` feature.
    pub fn disarm(_site: &str) {}

    /// No-op without the `failpoints` feature.
    pub fn clear() {}

    /// Without the `failpoints` feature the scenario guard does nothing
    /// (there is no registry to isolate).
    pub struct FailScenario;

    impl FailScenario {
        /// No-op without the `failpoints` feature.
        pub fn setup() -> Self {
            FailScenario
        }
    }
}

pub use imp::FailScenario;

/// Passes the named site: `Err(message)` if an error action is armed
/// there, otherwise (possibly after an injected delay) `Ok`. Call sites
/// map the message onto their layer's typed error.
#[inline]
pub fn check(site: &str) -> Result<(), String> {
    imp::check(site)
}

/// Arms `site` with `action`. Only meaningful under the `failpoints`
/// feature; a no-op otherwise.
pub fn arm(site: &str, action: FailAction) {
    imp::arm(site, action)
}

/// Disarms `site`.
pub fn disarm(site: &str) {
    imp::disarm(site)
}

/// Disarms every site.
pub fn clear() {
    imp::clear()
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;

    #[test]
    fn unarmed_site_passes() {
        let _s = FailScenario::setup();
        assert_eq!(check("nowhere"), Ok(()));
    }

    #[test]
    fn armed_error_fires_and_disarms() {
        let _s = FailScenario::setup();
        arm("t.site", FailAction::Error("boom".into()));
        assert_eq!(check("t.site"), Err("boom".to_string()));
        disarm("t.site");
        assert_eq!(check("t.site"), Ok(()));
    }

    #[test]
    fn error_after_skips_then_fires() {
        let _s = FailScenario::setup();
        arm("t.after", FailAction::ErrorAfter { skip: 2, message: "late".into() });
        assert_eq!(check("t.after"), Ok(()));
        assert_eq!(check("t.after"), Ok(()));
        assert_eq!(check("t.after"), Err("late".to_string()));
        assert_eq!(check("t.after"), Err("late".to_string()));
    }

    #[test]
    fn panic_action_panics_with_its_message() {
        let _s = FailScenario::setup();
        arm("t.panic", FailAction::Panic("kaboom".into()));
        let caught = std::panic::catch_unwind(|| check("t.panic")).unwrap_err();
        assert_eq!(caught.downcast_ref::<String>().map(String::as_str), Some("kaboom"));
        // The registry survived the panicking site.
        disarm("t.panic");
        assert_eq!(check("t.panic"), Ok(()));
    }

    #[test]
    fn chaos_stream_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let _s = FailScenario::setup();
            arm(
                "t.chaos",
                FailAction::Chaos { seed, error_rate: 3000, panic_rate: 0, delay_rate: 0, delay_ms: 0 },
            );
            (0..64).map(|_| check("t.chaos").is_err()).collect::<Vec<bool>>()
        };
        let a = run(42);
        assert_eq!(a, run(42), "same seed, same fault sequence");
        assert_ne!(a, run(43), "different seed, different sequence");
        let faults = a.iter().filter(|f| **f).count();
        assert!(faults > 0 && faults < 64, "~30% rate fires sometimes, not always: {faults}/64");
    }

    #[test]
    fn error_times_fails_then_heals() {
        let _s = FailScenario::setup();
        arm("t.times", FailAction::ErrorTimes { times: 2, message: "flaky".into() });
        assert_eq!(check("t.times"), Err("flaky".to_string()));
        assert_eq!(check("t.times"), Err("flaky".to_string()));
        assert_eq!(check("t.times"), Ok(()));
        assert_eq!(check("t.times"), Ok(()));
    }

    #[test]
    fn chaos_delay_share_sleeps() {
        let _s = FailScenario::setup();
        arm(
            "t.delay",
            FailAction::Chaos { seed: 11, error_rate: 0, panic_rate: 0, delay_rate: 10_000, delay_ms: 2 },
        );
        let start = std::time::Instant::now();
        assert_eq!(check("t.delay"), Ok(()), "delay faults still pass");
        assert!(start.elapsed() >= std::time::Duration::from_millis(2), "the pass slept");
    }

    #[test]
    fn chaos_zero_seed_is_inert() {
        let _s = FailScenario::setup();
        arm(
            "t.chaos0",
            FailAction::Chaos { seed: 0, error_rate: 10_000, panic_rate: 0, delay_rate: 0, delay_ms: 0 },
        );
        for _ in 0..16 {
            assert_eq!(check("t.chaos0"), Ok(()));
        }
    }

    #[test]
    fn scenario_clears_on_drop() {
        {
            let _s = FailScenario::setup();
            arm("t.drop", FailAction::Error("x".into()));
        }
        let _s = FailScenario::setup();
        assert_eq!(check("t.drop"), Ok(()));
    }
}
