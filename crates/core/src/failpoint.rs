//! Deterministic fault injection for the chaos suite.
//!
//! The engine's failure-containment machinery (supervised shard workers,
//! sink quarantine, bounded backpressured channels — see ARCHITECTURE.md's
//! "Failure model") is only trustworthy if the failures it contains can be
//! *produced on demand, deterministically*. This module compiles named
//! failure sites into the hot paths:
//!
//! | site             | where it fires                                             |
//! |------------------|------------------------------------------------------------|
//! | `ingest-front`   | entry of every engine ingest call                          |
//! | `shard-worker`   | shard worker, entry of each routed batch                   |
//! | `join-climb`     | shard worker, per routed match before the climb            |
//! | `expiry-sweep`   | shard worker, before an expiry sweep                       |
//! | `sink-delivery`  | engine, before each subscriber sink delivery               |
//! | `delivery-retry` | durable drain, before each delivery attempt (once per run) |
//! | `delivery-ack`   | durable drain, between a run's delivery and cursor advance |
//!
//! Sites are indexed (`fire_at(site, index)`) so a test can target *shard 2
//! of 4* or *subscription token 1* specifically. Each armed site fires
//! exactly once, after a configurable number of hits — runs are
//! deterministic and replayable, which is what lets `tests/chaos.rs` pin
//! exact match multisets under injected faults.
//!
//! Everything here is gated behind the `failpoints` cargo feature. With the
//! feature off (the default) [`fire_at`] is an `#[inline(always)]` constant
//! `false` and the configuration API does not exist, so production builds
//! carry no registry, no locking and no branch history — zero cost.
//!
//! ```ignore
//! // In a test built with `--features failpoints`:
//! streamworks_core::failpoint::configure(
//!     "shard-worker", 1, streamworks_core::failpoint::FailAction::Panic, 3,
//! );
//! // ... drive the engine; shard 1 dies on its 4th routed batch ...
//! streamworks_core::failpoint::clear();
//! ```

#[cfg(feature = "failpoints")]
mod imp {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock, PoisonError};

    /// What an armed site does when it fires.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FailAction {
        /// Panic at the site (caught by the supervising `catch_unwind`
        /// where one exists; a plain panic otherwise).
        Panic,
        /// Make [`super::fire_at`] return `true`: the site reports a
        /// non-panic failure (e.g. a sink delivery error).
        Error,
        /// Sleep this many milliseconds at the site (exercises backpressure
        /// on the bounded channels without killing anything).
        Delay(u64),
    }

    #[derive(Debug)]
    struct Site {
        action: FailAction,
        /// Hits to let through before firing.
        after: u64,
        hits: u64,
        fired: bool,
    }

    type Registry = Mutex<HashMap<(&'static str, usize), Site>>;

    fn registry() -> &'static Registry {
        static REGISTRY: OnceLock<Registry> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
    }

    /// Arms `site`/`index`: the `(after + 1)`-th hit performs `action`.
    /// Re-configuring a site resets its hit count.
    pub fn configure(site: &'static str, index: usize, action: FailAction, after: u64) {
        registry()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(
                (site, index),
                Site {
                    action,
                    after,
                    hits: 0,
                    fired: false,
                },
            );
    }

    /// Disarms every site and forgets all hit counts. Call between chaos
    /// scenarios (and in test teardown) so armed faults never leak across
    /// `#[test]` boundaries.
    pub fn clear() {
        registry()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// Hits recorded at `site`/`index` since it was configured (0 for
    /// never-configured sites — unconfigured hits are not counted).
    pub fn hits(site: &'static str, index: usize) -> u64 {
        registry()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&(site, index))
            .map_or(0, |s| s.hits)
    }

    /// Derives one deterministic fault from `seed` over `sites` and arms
    /// it, returning what was armed: the seed picks the site, the action
    /// (cycling panic → error → delay) and how many hits to let through
    /// first. The same seed always arms the same fault, so a failing chaos
    /// scenario is replayable from its seed alone.
    pub fn arm_seeded(
        seed: u64,
        sites: &[(&'static str, usize)],
    ) -> (&'static str, usize, FailAction, u64) {
        assert!(!sites.is_empty(), "arm_seeded needs candidate sites");
        let (site, index) = sites[(seed % sites.len() as u64) as usize];
        let action = match (seed / sites.len() as u64) % 3 {
            0 => FailAction::Panic,
            1 => FailAction::Error,
            _ => FailAction::Delay(1 + seed % 5),
        };
        let after = (seed / 7) % 5;
        configure(site, index, action, after);
        (site, index, action, after)
    }

    /// The hook compiled into each site. Returns `true` when an armed
    /// [`FailAction::Error`] fires; panics for [`FailAction::Panic`];
    /// sleeps then returns `false` for [`FailAction::Delay`]. Each armed
    /// site fires at most once.
    pub fn fire_at(site: &'static str, index: usize) -> bool {
        let action = {
            let mut map = registry().lock().unwrap_or_else(PoisonError::into_inner);
            let Some(s) = map.get_mut(&(site, index)) else {
                return false;
            };
            s.hits += 1;
            if s.fired || s.hits <= s.after {
                return false;
            }
            s.fired = true;
            s.action
            // The lock drops here: never panic or sleep while holding it.
        };
        match action {
            FailAction::Panic => panic!("failpoint `{site}` (index {index}) injected panic"),
            FailAction::Error => true,
            FailAction::Delay(ms) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                false
            }
        }
    }
}

#[cfg(feature = "failpoints")]
pub use imp::{arm_seeded, clear, configure, fire_at, hits, FailAction};

/// The hook compiled into each site: with the `failpoints` feature off it
/// is a constant `false` the optimizer erases.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn fire_at(_site: &'static str, _index: usize) -> bool {
    false
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The registry is process-global; serialize the tests that touch it so
    // one test's `clear()` cannot disarm another's sites mid-flight.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn unarmed_sites_never_fire() {
        let _guard = TEST_LOCK.lock().unwrap();
        assert!(!fire_at("nowhere", 0));
        assert_eq!(hits("nowhere", 0), 0);
    }

    #[test]
    fn error_sites_fire_once_after_the_configured_count() {
        let _guard = TEST_LOCK.lock().unwrap();
        clear();
        configure("err-site", 2, FailAction::Error, 2);
        assert!(!fire_at("err-site", 2)); // hit 1
        assert!(!fire_at("err-site", 2)); // hit 2
        assert!(fire_at("err-site", 2)); // hit 3: fires
        assert!(!fire_at("err-site", 2)); // one-shot
        assert_eq!(hits("err-site", 2), 4);
        assert!(!fire_at("err-site", 3), "other indexes stay disarmed");
        clear();
    }

    #[test]
    fn seeded_arming_is_deterministic() {
        let _guard = TEST_LOCK.lock().unwrap();
        clear();
        let sites: &[(&'static str, usize)] = &[("a", 0), ("b", 1), ("c", 0)];
        let first = arm_seeded(12345, sites);
        clear();
        let second = arm_seeded(12345, sites);
        assert_eq!(first, second);
        clear();
    }
}
