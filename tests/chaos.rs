//! Deterministic fault-injection (chaos) suite.
//!
//! Run with:
//!
//! ```text
//! cargo test --features failpoints --test chaos
//! ```
//!
//! Every scenario arms one of the named failpoint sites (see
//! `streamworks::failpoint`), drives the engine, and pins down the exact
//! containment contract of ARCHITECTURE.md's "Failure model":
//!
//! * `FailFast`: a dead shard surfaces as a structured
//!   [`EngineError::ShardFailed`] within bounded time (no hang), and the
//!   poisoned engine rejects every later call instead of silently
//!   under-reporting matches.
//! * `Degrade`: the dead shard's join state is transplanted onto survivors
//!   and the match multiset stays *exactly* equal to an unfaulted engine's —
//!   across shard counts, fault sites, and query-lifecycle churn.
//! * Sink quarantine: a panicking subscriber is detached and recorded, and
//!   neither the engine nor the other subscribers miss a single event.
//! * Drop counters are exact under declared overflow policies.
//! * Durable delivery: a flaky transport storm converges back to `Active`
//!   within the retry budget, quarantine recovers through probation, and a
//!   crash at *any* failpoint site followed by checkpoint-restore leaves
//!   every durable delivery log bit-identical to an uninterrupted run.

#![cfg(feature = "failpoints")]

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration as StdDuration;

use streamworks::engine::EngineCheckpoint;
use streamworks::failpoint::{self, FailAction};
use streamworks::{
    clear_endpoint, memory_sink_contents, register_endpoint, reset_memory_sink, BufferingSink,
    CallbackSink, ContinuousQueryEngine, EdgeEvent, EngineError, MatchEvent, QueryHandle,
    RetryPolicy, ShardFailurePolicy, SinkOverflow, SinkSpec, SubscriptionHealth, TelemetryLevel,
    Timestamp, Transport,
};

/// The failpoint registry is process-global; chaos scenarios must not run
/// interleaved. Lock recovery keeps one panicking test from wedging the rest.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    failpoint::clear();
    guard
}

const PAIR_DSL: &str = "QUERY pair WINDOW 1h \
     MATCH (a1:Article)-[:mentions]->(k:Keyword), (a2:Article)-[:mentions]->(k)";

/// Registers the pair query decomposed into *single-edge* primitives, so
/// completing a match requires a join climb — the work that actually lives
/// on the shard workers. (The default planner would fold both edges into
/// one primitive, completing every match driver-side and leaving the
/// workers — and their failpoint sites — idle.)
fn register_pair(engine: &mut ContinuousQueryEngine) -> streamworks::QueryHandle {
    let query = streamworks::parse_query(PAIR_DSL).unwrap();
    engine
        .register_query_with(
            query,
            &streamworks::SelectivityOrdered {
                max_primitive_size: 1,
            },
            streamworks::TreeShapeKind::LeftDeep,
        )
        .unwrap()
}

/// A stream where article `a{i}` mentions keyword `k{i % collisions}`:
/// every repeated keyword completes pair matches, spreading join state over
/// all shards (the join key hashes the keyword vertex).
fn stream(n: usize, collisions: usize) -> Vec<EdgeEvent> {
    (0..n)
        .map(|i| {
            EdgeEvent::new(
                format!("a{i}"),
                "Article",
                format!("k{}", i % collisions),
                "Keyword",
                "mentions",
                Timestamp::from_secs(i as i64),
            )
        })
        .collect()
}

fn engine_with(shards: usize, policy: ShardFailurePolicy) -> ContinuousQueryEngine {
    ContinuousQueryEngine::builder()
        .shards(shards)
        .shard_failure_policy(policy)
        .channel_capacity(8)
        .build()
        .unwrap()
}

/// Order-insensitive signature of a match multiset.
fn multiset(events: &[MatchEvent]) -> Vec<String> {
    let mut keys: Vec<String> = events.iter().map(|e| e.render()).collect();
    keys.sort();
    keys
}

/// The match multiset an unfaulted single-shard engine reports for `events`,
/// fed in the same batch shape.
fn reference_multiset(events: &[EdgeEvent], batch: usize) -> Vec<String> {
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    register_pair(&mut engine);
    let mut all = Vec::new();
    for chunk in events.chunks(batch) {
        all.extend(engine.ingest(chunk).unwrap());
    }
    multiset(&all)
}

#[test]
fn failfast_shard_panic_is_a_bounded_time_structured_error() {
    let _guard = serial();
    // Shard counts above 1 only: a 1-shard engine runs the in-process
    // matcher with no worker threads, so shard faults cannot exist there.
    for shards in [2usize, 4] {
        failpoint::clear();
        failpoint::configure("shard-worker", 0, FailAction::Panic, 0);
        let events = stream(64, 4);
        // The faulted ingest runs on a helper thread so a protocol hang
        // shows up as a test failure, not a CI timeout.
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            let mut engine = engine_with(shards, ShardFailurePolicy::FailFast);
            register_pair(&mut engine);
            let first = engine.ingest(&events[..]);
            let second = engine.ingest(&events[..4]);
            let _ = tx.send((first, second));
        });
        let (first, second) = rx
            .recv_timeout(StdDuration::from_secs(30))
            .expect("FailFast must surface within bounded time, not hang");
        handle.join().unwrap();
        match first {
            Err(EngineError::ShardFailed {
                shard,
                degraded,
                ref message,
            }) => {
                assert_eq!(shard, 0);
                assert!(!degraded, "FailFast never degrades");
                assert!(message.contains("injected"), "got: {message}");
            }
            other => panic!("{shards} shards: expected ShardFailed, got {other:?}"),
        }
        assert!(
            matches!(second, Err(EngineError::Poisoned(_))),
            "a poisoned engine rejects every later call, got {second:?}"
        );
    }
    failpoint::clear();
}

#[test]
fn degrade_preserves_the_exact_match_multiset_across_fault_sites() {
    let _guard = serial();
    let events = stream(96, 5);
    let batch = 16;
    let expected = reference_multiset(&events, batch);
    for shards in [2usize, 4] {
        for site in ["shard-worker", "join-climb"] {
            failpoint::clear();
            // Let a few batches through first so the dying shard holds real
            // join state when it goes down.
            failpoint::configure(site, 0, FailAction::Panic, 2);
            let mut engine = engine_with(shards, ShardFailurePolicy::Degrade);
            let handle = register_pair(&mut engine);
            let (sink, seen) = BufferingSink::new();
            engine.subscribe(handle, sink).unwrap();
            let mut failures = 0;
            for chunk in events.chunks(batch) {
                match engine.ingest(chunk) {
                    Ok(_) => {}
                    Err(EngineError::ShardFailed { degraded, .. }) => {
                        assert!(degraded, "Degrade policy must contain the failure");
                        failures += 1;
                    }
                    Err(other) => panic!("unexpected error: {other:?}"),
                }
            }
            assert_eq!(failures, 1, "{site} on {shards} shards fired once");
            assert_eq!(
                multiset(&seen.drain()),
                expected,
                "{site} fault on {shards} shards changed the match multiset"
            );
        }
    }
    failpoint::clear();
}

#[test]
fn degrade_survives_expiry_sweep_faults() {
    let _guard = serial();
    let events = stream(96, 5);
    let batch = 16;
    let expected = reference_multiset(&events, batch);
    failpoint::clear();
    failpoint::configure("expiry-sweep", 0, FailAction::Panic, 0);
    let mut engine = ContinuousQueryEngine::builder()
        .shards(2)
        .shard_failure_policy(ShardFailurePolicy::Degrade)
        .prune_every(8) // make sweeps frequent enough to hit the site
        .build()
        .unwrap();
    let handle = register_pair(&mut engine);
    let (sink, seen) = BufferingSink::new();
    engine.subscribe(handle, sink).unwrap();
    let mut failures = 0;
    for chunk in events.chunks(batch) {
        match engine.ingest(chunk) {
            Ok(_) => {}
            Err(EngineError::ShardFailed { degraded, .. }) => {
                assert!(degraded);
                failures += 1;
            }
            Err(other) => panic!("unexpected error: {other:?}"),
        }
    }
    assert_eq!(failures, 1);
    assert_eq!(multiset(&seen.drain()), expected);
    failpoint::clear();
}

#[test]
fn degrade_stays_exact_under_lifecycle_churn() {
    let _guard = serial();
    let events = stream(96, 5);
    let batch = 16;
    // Reference: unfaulted single-shard engine with the *same* pause/resume
    // choreography (pause during the third batch, resume for the fifth).
    // Matches are observed through a subscription: a degraded batch returns
    // an error in place of its matches, but its subscribers still receive
    // every one of them.
    let choreography = |engine: &mut ContinuousQueryEngine| -> Vec<MatchEvent> {
        let pair = register_pair(engine);
        let extra = engine
            .register_dsl(
                "QUERY colocated WINDOW 1h \
                 MATCH (a1:Article)-[:located]->(l:Location), (a2:Article)-[:located]->(l)",
            )
            .unwrap();
        let (sink, seen) = BufferingSink::new();
        engine.subscribe(pair, sink).unwrap();
        for (i, chunk) in events.chunks(batch).enumerate() {
            if i == 2 {
                engine.pause(pair).unwrap();
            }
            if i == 4 {
                engine.resume(pair).unwrap();
                engine.deregister(extra).unwrap();
            }
            match engine.ingest(chunk) {
                Ok(_) => {}
                Err(EngineError::ShardFailed { degraded, .. }) => assert!(degraded),
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
        seen.drain()
    };
    let mut reference = ContinuousQueryEngine::builder().build().unwrap();
    let expected = multiset(&choreography(&mut reference));

    failpoint::clear();
    failpoint::configure("shard-worker", 1, FailAction::Panic, 1);
    let mut faulted = engine_with(4, ShardFailurePolicy::Degrade);
    let got = multiset(&choreography(&mut faulted));
    assert_eq!(
        got, expected,
        "lifecycle churn + shard death changed matches"
    );
    failpoint::clear();
}

#[test]
fn seeded_faults_are_contained_for_any_seed() {
    let _guard = serial();
    let events = stream(64, 4);
    let batch = 16;
    let expected = reference_multiset(&events, batch);
    let sites: &[(&'static str, usize)] = &[
        ("shard-worker", 0),
        ("shard-worker", 1),
        ("join-climb", 0),
        ("join-climb", 1),
    ];
    for seed in 0..12u64 {
        failpoint::clear();
        let armed = failpoint::arm_seeded(seed, sites);
        let mut engine = engine_with(2, ShardFailurePolicy::Degrade);
        let handle = register_pair(&mut engine);
        let (sink, seen) = BufferingSink::new();
        engine.subscribe(handle, sink).unwrap();
        for chunk in events.chunks(batch) {
            match engine.ingest(chunk) {
                Ok(_) => {}
                Err(EngineError::ShardFailed { degraded, .. }) => {
                    assert!(degraded, "seed {seed} armed {armed:?}: must degrade")
                }
                Err(other) => panic!("seed {seed} armed {armed:?}: {other:?}"),
            }
        }
        assert_eq!(
            multiset(&seen.drain()),
            expected,
            "seed {seed} armed {armed:?} changed the match multiset"
        );
    }
    failpoint::clear();
}

#[test]
fn panicking_sink_is_quarantined_without_poisoning_anything() {
    let _guard = serial();
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    let handle = register_pair(&mut engine);
    let bad = engine
        .subscribe(
            handle,
            CallbackSink::new(|_e| panic!("subscriber exploded")),
        )
        .unwrap();
    let (sink, seen) = BufferingSink::new();
    let good = engine.subscribe(handle, sink).unwrap();

    let events = stream(8, 2);
    let matches = engine.ingest(&events[..]).unwrap();
    assert!(!matches.is_empty());
    // The healthy subscriber and the call-level collection saw everything.
    assert_eq!(seen.drain().len(), matches.len());
    // The panicking sink is quarantined with its panic message recorded...
    match engine.subscription_health(bad).unwrap() {
        SubscriptionHealth::Quarantined(message) => {
            assert!(message.contains("subscriber exploded"), "got: {message}")
        }
        // In-process sinks never retry: Degraded is a durable-only state.
        SubscriptionHealth::Active | SubscriptionHealth::Degraded { .. } => {
            panic!("panicking sink must be quarantined")
        }
    }
    assert_eq!(
        engine.subscription_health(good).unwrap(),
        SubscriptionHealth::Active
    );
    // ...and stays registered (health queryable) but silent from then on.
    assert_eq!(engine.subscription_count(handle).unwrap(), 2);
    let more = engine.ingest(&stream(8, 2)[..]).unwrap();
    assert_eq!(seen.drain().len(), more.len());
    // Unsubscribing the quarantined sink works like any other.
    engine.unsubscribe(bad).unwrap();
    assert_eq!(engine.subscription_count(handle).unwrap(), 1);
}

#[test]
fn injected_sink_delivery_error_quarantines_exactly_the_target_token() {
    let _guard = serial();
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    let handle = register_pair(&mut engine);
    let (sink_a, seen_a) = BufferingSink::new();
    let sub_a = engine.subscribe(handle, sink_a).unwrap();
    let (sink_b, seen_b) = BufferingSink::new();
    let sub_b = engine.subscribe(handle, sink_b).unwrap();

    // Token indexes select the victim: quarantine b, leave a alone.
    failpoint::clear();
    failpoint::configure(
        "sink-delivery",
        sub_b.token() as usize,
        FailAction::Error,
        0,
    );
    let matches = engine.ingest(&stream(8, 2)[..]).unwrap();
    assert!(!matches.is_empty());
    assert_eq!(seen_a.drain().len(), matches.len());
    assert!(
        seen_b.drain().len() < matches.len(),
        "the quarantined sink stopped receiving at the injected failure"
    );
    assert_eq!(
        engine.subscription_health(sub_a).unwrap(),
        SubscriptionHealth::Active
    );
    assert!(matches!(
        engine.subscription_health(sub_b).unwrap(),
        SubscriptionHealth::Quarantined(_)
    ));
    failpoint::clear();
}

#[test]
fn sink_drop_counters_are_exact() {
    let _guard = serial();
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    let handle = register_pair(&mut engine);
    let cap = 3usize;
    let (sink, buffer) = BufferingSink::bounded(cap, SinkOverflow::DropNewest);
    engine.subscribe(handle, sink).unwrap();

    let matches = engine.ingest(&stream(16, 2)[..]).unwrap();
    assert!(matches.len() > cap);
    let expected_drops = (matches.len() - cap) as u64;
    assert_eq!(buffer.len(), cap);
    assert_eq!(buffer.dropped(), expected_drops);
    assert_eq!(
        engine.metrics(handle).unwrap().sink_events_dropped,
        expected_drops,
        "QueryMetrics folds per-subscriber drop counters exactly"
    );
}

#[test]
fn ingest_front_faults_leave_the_engine_consistent() {
    let _guard = serial();
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    register_pair(&mut engine);
    let events = stream(4, 2);

    // Delay: pure latency, no behavioural change.
    failpoint::clear();
    failpoint::configure("ingest-front", 0, FailAction::Delay(5), 0);
    let first = engine.ingest(&events[..2]).unwrap();

    // Panic: unwinds before any state is touched; the engine keeps working.
    failpoint::configure("ingest-front", 0, FailAction::Panic, 0);
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = engine.ingest(&events[2..]);
    }));
    assert!(panicked.is_err());
    failpoint::clear();
    let second = engine.ingest(&events[2..]).unwrap();
    assert_eq!(
        multiset(&first).len() + multiset(&second).len(),
        reference_multiset(&events, 2).len(),
        "the aborted call absorbed nothing: replaying it reports every match"
    );
}

#[test]
fn degraded_engine_checkpoints_and_restores_cleanly() {
    let _guard = serial();
    let events = stream(96, 5);
    let batch = 16;
    // Reference: unfaulted engine over the same split, collecting only the
    // second half's matches (the restored engine replays silently).
    let mut reference = ContinuousQueryEngine::builder().build().unwrap();
    register_pair(&mut reference);
    for chunk in events[..48].chunks(batch) {
        reference.ingest(chunk).unwrap();
    }
    let mut expected = Vec::new();
    for chunk in events[48..].chunks(batch) {
        expected.extend(reference.ingest(chunk).unwrap());
    }

    // Faulted run: shard dies in the first half, engine degrades, then the
    // degraded engine is checkpointed through the JSON load path.
    failpoint::clear();
    failpoint::configure("shard-worker", 0, FailAction::Panic, 1);
    let mut engine = engine_with(2, ShardFailurePolicy::Degrade);
    register_pair(&mut engine);
    let mut failures = 0;
    for chunk in events[..48].chunks(batch) {
        match engine.ingest(chunk) {
            Ok(_) => {}
            Err(EngineError::ShardFailed { degraded, .. }) => {
                assert!(degraded);
                failures += 1;
            }
            Err(other) => panic!("unexpected error: {other:?}"),
        }
    }
    assert_eq!(failures, 1);
    failpoint::clear(); // the restored engine must replay unfaulted
    let json = engine.checkpoint().to_json().unwrap();
    let checkpoint = streamworks::engine::EngineCheckpoint::load(&json).unwrap();
    let mut restored = checkpoint.restore();
    // The restore rebuilt fresh shard workers; the second half matches the
    // unfaulted reference exactly.
    let mut got = Vec::new();
    for chunk in events[48..].chunks(batch) {
        got.extend(restored.ingest(chunk).unwrap());
    }
    assert_eq!(multiset(&got), multiset(&expected));
}

// ---------------------------------------------------------------------------
// Durable delivery: retry storms, quarantine recovery, crash-exact resume.
// ---------------------------------------------------------------------------

/// A [`Transport`] that refuses the first `failures_left` sends, then
/// records every line it accepts. Failed sends record nothing, so the
/// recorded lines are exactly the acknowledged deliveries.
struct FlakyRecorder {
    lines: Arc<Mutex<Vec<String>>>,
    failures_left: Arc<AtomicU64>,
}

impl Transport for FlakyRecorder {
    fn send(&mut self, line: &str, _timeout: StdDuration) -> Result<(), String> {
        if self.failures_left.load(Ordering::SeqCst) > 0 {
            self.failures_left.fetch_sub(1, Ordering::SeqCst);
            return Err("storm: endpoint refused the line".to_owned());
        }
        self.lines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(line.to_owned());
        Ok(())
    }
}

/// A [`Transport`] behind a breaker: every send fails while `broken`, and
/// records the line once the breaker is closed.
struct BreakerRecorder {
    lines: Arc<Mutex<Vec<String>>>,
    broken: Arc<AtomicBool>,
}

impl Transport for BreakerRecorder {
    fn send(&mut self, line: &str, _timeout: StdDuration) -> Result<(), String> {
        if self.broken.load(Ordering::SeqCst) {
            return Err("endpoint down".to_owned());
        }
        self.lines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(line.to_owned());
        Ok(())
    }
}

/// The sorted delivery lines an unfaulted run produces: durable sinks write
/// `MatchEvent::render()` lines, so the match multiset doubles as the
/// expected delivery log content.
fn sorted_lines(mut lines: Vec<String>) -> Vec<String> {
    lines.sort();
    lines
}

#[test]
fn a_retry_storm_converges_back_to_active_within_the_policy_budget() {
    let _guard = serial();
    let events = stream(32, 4);
    let batch = 8;
    let expected = reference_multiset(&events, batch);
    for shards in [1usize, 2, 4] {
        let address = format!("chaos-retry-storm-{shards}");
        let lines = Arc::new(Mutex::new(Vec::new()));
        let failures_left = Arc::new(AtomicU64::new(3));
        {
            let lines = Arc::clone(&lines);
            let failures_left = Arc::clone(&failures_left);
            register_endpoint(address.clone(), move |_| {
                Ok(Box::new(FlakyRecorder {
                    lines: Arc::clone(&lines),
                    failures_left: Arc::clone(&failures_left),
                }) as Box<dyn Transport>)
            });
        }
        let mut engine = ContinuousQueryEngine::builder()
            .shards(shards)
            .channel_capacity(8)
            .retry_policy(RetryPolicy {
                max_attempts: 8,
                backoff_base_ms: 0,
                backoff_cap_ms: 0,
                attempt_timeout_ms: 1_000,
            })
            .build()
            .unwrap();
        let handle = register_pair(&mut engine);
        let sub = engine
            .subscribe_durable(
                handle,
                SinkSpec::Endpoint {
                    address: address.clone(),
                },
            )
            .unwrap();
        for chunk in events.chunks(batch) {
            engine.ingest(chunk).unwrap();
        }
        // Convergence is bounded by the retry budget: each flush is at most
        // one more retry, and the transport injects exactly 3 failures.
        for _ in 0..8 {
            if engine.flush_deliveries() == 0 {
                break;
            }
        }
        assert_eq!(
            engine.subscription_health(sub).unwrap(),
            SubscriptionHealth::Active,
            "{shards} shards: the storm must converge back to Active"
        );
        let metrics = engine.metrics(handle).unwrap();
        assert!(
            metrics.delivery_retries >= 3,
            "{shards} shards: 3 injected failures force >= 3 retries, got {}",
            metrics.delivery_retries
        );
        assert!(
            metrics.delivery_recoveries >= 1,
            "{shards} shards: converging back to Active is a recovery"
        );
        assert_eq!(metrics.cursor_lag, 0, "{shards} shards: nothing pending");
        let got = sorted_lines(lines.lock().unwrap_or_else(PoisonError::into_inner).clone());
        assert_eq!(
            got, expected,
            "{shards} shards: the storm lost or duplicated matches"
        );
        clear_endpoint(&address);
    }
}

#[test]
fn a_quarantined_endpoint_recovers_through_probation() {
    let _guard = serial();
    let events = stream(32, 4);
    let batch = 8;
    let expected = reference_multiset(&events, batch);
    for shards in [1usize, 2, 4] {
        let address = format!("chaos-quarantine-{shards}");
        let lines = Arc::new(Mutex::new(Vec::new()));
        let broken = Arc::new(AtomicBool::new(true));
        {
            let lines = Arc::clone(&lines);
            let broken = Arc::clone(&broken);
            register_endpoint(address.clone(), move |_| {
                Ok(Box::new(BreakerRecorder {
                    lines: Arc::clone(&lines),
                    broken: Arc::clone(&broken),
                }) as Box<dyn Transport>)
            });
        }
        // Tiny budget, huge backoff cap: the subscription quarantines fast
        // and the automatic probe stays out of the picture, so recovery is
        // observed through the explicit `resubscribe` probation path.
        let mut engine = ContinuousQueryEngine::builder()
            .shards(shards)
            .channel_capacity(8)
            .retry_policy(RetryPolicy {
                max_attempts: 2,
                backoff_base_ms: 0,
                backoff_cap_ms: 600_000,
                attempt_timeout_ms: 1_000,
            })
            .build()
            .unwrap();
        let handle = register_pair(&mut engine);
        let sub = engine
            .subscribe_durable(
                handle,
                SinkSpec::Endpoint {
                    address: address.clone(),
                },
            )
            .unwrap();
        for chunk in events.chunks(batch) {
            engine.ingest(chunk).unwrap();
        }
        assert!(
            matches!(
                engine.subscription_health(sub).unwrap(),
                SubscriptionHealth::Quarantined(_)
            ),
            "{shards} shards: exhausted budget must quarantine"
        );
        assert!(
            lines
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .is_empty(),
            "{shards} shards: nothing delivered while the endpoint is down"
        );
        // Fix the endpoint, then put the subscription on probation.
        broken.store(false, Ordering::SeqCst);
        engine.resubscribe(sub).unwrap();
        assert_eq!(engine.flush_deliveries(), 0, "{shards} shards: drained");
        assert_eq!(
            engine.subscription_health(sub).unwrap(),
            SubscriptionHealth::Active,
            "{shards} shards: probation must promote back to Active"
        );
        let got = sorted_lines(lines.lock().unwrap_or_else(PoisonError::into_inner).clone());
        assert_eq!(
            got, expected,
            "{shards} shards: quarantine must not lose a single match"
        );
        assert_eq!(engine.metrics(handle).unwrap().cursor_lag, 0);
        clear_endpoint(&address);
    }
}

#[test]
fn failfast_with_a_durable_subscriber_still_fails_within_bounded_time() {
    let _guard = serial();
    for shards in [2usize, 4] {
        failpoint::clear();
        failpoint::configure("shard-worker", 0, FailAction::Panic, 0);
        let key = format!("chaos_failfast_durable_{shards}");
        reset_memory_sink(&key);
        let (tx, rx) = std::sync::mpsc::channel();
        let sink_key = key.clone();
        let handle = std::thread::spawn(move || {
            let mut engine = engine_with(shards, ShardFailurePolicy::FailFast);
            let h = register_pair(&mut engine);
            engine
                .subscribe_durable(h, SinkSpec::Memory { key: sink_key })
                .unwrap();
            let first = engine.ingest(&stream(64, 4)[..]);
            let pending = engine.flush_deliveries();
            let _ = tx.send((first, pending));
        });
        let (first, pending) = rx
            .recv_timeout(StdDuration::from_secs(30))
            .expect("FailFast with a durable subscriber must not hang");
        handle.join().unwrap();
        assert!(
            matches!(
                first,
                Err(EngineError::ShardFailed {
                    degraded: false,
                    ..
                })
            ),
            "{shards} shards: expected a FailFast ShardFailed, got {first:?}"
        );
        assert_eq!(pending, 0, "{shards} shards: no delivery left hanging");
    }
    failpoint::clear();
}

#[test]
fn degrade_with_a_durable_subscriber_stays_exact() {
    let _guard = serial();
    let events = stream(96, 5);
    let batch = 16;
    let expected = reference_multiset(&events, batch);
    for shards in [2usize, 4] {
        failpoint::clear();
        failpoint::configure("shard-worker", 0, FailAction::Panic, 2);
        let key = format!("chaos_degrade_durable_{shards}");
        reset_memory_sink(&key);
        let mut engine = engine_with(shards, ShardFailurePolicy::Degrade);
        let handle = register_pair(&mut engine);
        engine
            .subscribe_durable(handle, SinkSpec::Memory { key: key.clone() })
            .unwrap();
        let mut failures = 0;
        for chunk in events.chunks(batch) {
            match engine.ingest(chunk) {
                Ok(_) => {}
                Err(EngineError::ShardFailed { degraded, .. }) => {
                    assert!(degraded);
                    failures += 1;
                }
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
        assert_eq!(failures, 1);
        assert_eq!(engine.flush_deliveries(), 0);
        assert_eq!(
            sorted_lines(memory_sink_contents(&key)),
            expected,
            "{shards} shards: shard death changed what the durable sink saw"
        );
    }
    failpoint::clear();
}

#[test]
fn ack_failures_are_exactly_once_for_owned_sinks_at_least_once_for_endpoints() {
    let _guard = serial();
    let events = stream(16, 2);
    let expected = reference_multiset(&events, 4);

    // Owned sink (Memory): the reconnect-per-retry truncates the
    // delivered-but-unacknowledged line away, so the redelivery is
    // *exactly*-once despite the injected ack failure.
    failpoint::clear();
    failpoint::configure("delivery-ack", 0, FailAction::Error, 1);
    let key = "chaos_ack_memory";
    reset_memory_sink(key);
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    let handle = register_pair(&mut engine);
    engine
        .subscribe_durable(
            handle,
            SinkSpec::Memory {
                key: key.to_owned(),
            },
        )
        .unwrap();
    for chunk in events.chunks(4) {
        engine.ingest(chunk).unwrap();
    }
    for _ in 0..4 {
        if engine.flush_deliveries() == 0 {
            break;
        }
    }
    assert_eq!(
        sorted_lines(memory_sink_contents(key)),
        expected,
        "owned sinks are exactly-once even when the ack fails"
    );
    assert!(engine.metrics(handle).unwrap().delivery_retries >= 1);

    // External endpoint: the engine cannot reach inside it to truncate, so
    // the same injected ack failure yields exactly one duplicated line —
    // at-least-once, never lossy.
    failpoint::clear();
    failpoint::configure("delivery-ack", 0, FailAction::Error, 1);
    let address = "chaos-ack-endpoint";
    let lines = Arc::new(Mutex::new(Vec::new()));
    {
        let lines = Arc::clone(&lines);
        register_endpoint(address, move |_| {
            Ok(Box::new(FlakyRecorder {
                lines: Arc::clone(&lines),
                failures_left: Arc::new(AtomicU64::new(0)),
            }) as Box<dyn Transport>)
        });
    }
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    let handle = register_pair(&mut engine);
    engine
        .subscribe_durable(
            handle,
            SinkSpec::Endpoint {
                address: address.to_owned(),
            },
        )
        .unwrap();
    for chunk in events.chunks(4) {
        engine.ingest(chunk).unwrap();
    }
    for _ in 0..4 {
        if engine.flush_deliveries() == 0 {
            break;
        }
    }
    let got = lines.lock().unwrap_or_else(PoisonError::into_inner).clone();
    assert_eq!(
        got.len(),
        expected.len() + 1,
        "the unacknowledged endpoint line is redelivered once"
    );
    let mut deduped = got.clone();
    deduped.sort();
    deduped.dedup();
    assert_eq!(deduped, expected, "no line is lost, only duplicated");
    clear_endpoint(address);
    failpoint::clear();
}

/// The lines of a delivery log, in file order.
fn log_lines(path: &str) -> Vec<String> {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .map(str::to_owned)
        .collect()
}

#[test]
fn a_lost_ack_after_a_log_file_run_keeps_every_line_exactly_once() {
    let _guard = serial();
    let events = stream(32, 4);
    let batch = 16;
    let expected = reference_multiset(&events, batch);
    for shards in [1usize, 2] {
        // The first run is acknowledged; the second reaches the file whole,
        // then loses its acknowledgement.
        failpoint::clear();
        failpoint::configure("delivery-ack", 0, FailAction::Error, 1);
        let path = scratch_log(&format!("ack_log_file_{shards}"));
        let mut engine = engine_with(shards, ShardFailurePolicy::FailFast);
        let handle = register_pair(&mut engine);
        engine
            .subscribe_durable(handle, SinkSpec::LogFile { path: path.clone() })
            .unwrap();
        let mut acknowledged = 0;
        for (i, chunk) in events.chunks(batch).enumerate() {
            engine.ingest(chunk).unwrap();
            if i == 0 {
                acknowledged = log_lines(&path).len() as u64;
            }
        }
        assert_eq!(failpoint::hits("delivery-ack", 0), 2, "{shards} shards");
        let pending = engine.metrics(handle).unwrap().cursor_lag;
        assert!(
            acknowledged > 0 && pending > 1,
            "{shards} shards: both runs must carry lines, the failed one several \
             (acknowledged {acknowledged}, pending {pending})"
        );
        assert_eq!(
            log_lines(&path).len() as u64,
            acknowledged + pending,
            "{shards} shards: the unacknowledged run reached the file"
        );
        assert!(matches!(
            engine_health(&engine),
            SubscriptionHealth::Degraded { .. }
        ));

        // The retry reconnects, truncating the file back to the
        // acknowledged prefix, and rewrites the run once.
        assert_eq!(engine.flush_deliveries(), 0, "{shards} shards: drained");
        assert_eq!(
            sorted_lines(log_lines(&path)),
            expected,
            "{shards} shards: every match must be in the log exactly once"
        );
        assert_eq!(engine_health(&engine), SubscriptionHealth::Active);
        let _ = std::fs::remove_file(&path);
    }
    failpoint::clear();
}

// --- Crash-point harness -------------------------------------------------

/// Scratch path for a durable delivery log, unique per test and process.
fn scratch_log(name: &str) -> String {
    let dir = std::env::temp_dir().join("sw_chaos_delivery");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}_{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path.to_string_lossy().into_owned()
}

/// Drives batches `range` of `events` (global batch indices) with a fixed
/// pause/resume choreography keyed to those indices, so an interrupted run,
/// its restored continuation, and the uninterrupted reference all perform
/// the *same* lifecycle churn. Degraded shard failures are tolerated.
fn drive_with_churn(
    engine: &mut ContinuousQueryEngine,
    handle: QueryHandle,
    events: &[EdgeEvent],
    batch: usize,
    range: std::ops::Range<usize>,
) {
    for i in range {
        let lo = i * batch;
        let hi = usize::min(lo + batch, events.len());
        if i == 1 || i == 5 {
            engine.pause(handle).unwrap();
        }
        if i == 2 || i == 6 {
            engine.resume(handle).unwrap();
        }
        match engine.ingest(&events[lo..hi]) {
            Ok(_) => {}
            Err(EngineError::ShardFailed { degraded, .. }) => assert!(degraded),
            Err(other) => panic!("unexpected error: {other:?}"),
        }
    }
}

/// Kill → restore → continue, at every failpoint site, across shard counts,
/// under pause/resume churn: the durable delivery log must end up
/// *bit-identical* to an uninterrupted run's. (Within one shard count the
/// emission order is deterministic: completed matches are sorted by stream
/// position, and every completion for one position climbs on the single
/// shard owning its join key, whose FIFO order ties preserve.)
///
/// The crash is simulated by abandoning the engine wherever the armed panic
/// leaves it — including delivered-but-unacknowledged lines on disk, which
/// the restore's truncate-to-cursor reconnect must discard. Sites that a
/// given topology never reaches (e.g. `shard-worker` on 1 shard) make the
/// run complete uninterrupted; the restore then rewinds its *entire* second
/// half, which is exactly the duplicate-suppression contract again.
#[test]
fn crash_at_every_site_restores_bit_identical_delivery_logs() {
    let _guard = serial();
    let events = stream(64, 4);
    let batch = 8; // 8 batches; checkpoint at the batch-4 boundary
    let sites = [
        "ingest-front",
        "shard-worker",
        "join-climb",
        "expiry-sweep",
        "delivery-retry",
        "delivery-ack",
    ];
    for shards in [1usize, 2, 4] {
        // Uninterrupted reference run with the same choreography.
        failpoint::clear();
        let reference_path = scratch_log(&format!("reference_{shards}"));
        let mut reference = engine_with(shards, ShardFailurePolicy::Degrade);
        let rh = register_pair(&mut reference);
        reference
            .subscribe_durable(
                rh,
                SinkSpec::LogFile {
                    path: reference_path.clone(),
                },
            )
            .unwrap();
        drive_with_churn(&mut reference, rh, &events, batch, 0..8);
        assert_eq!(reference.flush_deliveries(), 0);
        drop(reference);
        let want = std::fs::read(&reference_path).unwrap();
        assert!(!want.is_empty(), "the reference run must deliver matches");

        for site in sites {
            failpoint::clear();
            let path = scratch_log(&format!("crash_{shards}_{site}"));
            // First life: run to the midpoint, checkpoint, then arm the
            // crash and continue until it strikes (or the run ends).
            let mut first = engine_with(shards, ShardFailurePolicy::Degrade);
            let h = register_pair(&mut first);
            first
                .subscribe_durable(h, SinkSpec::LogFile { path: path.clone() })
                .unwrap();
            drive_with_churn(&mut first, h, &events, batch, 0..4);
            let json = first.checkpoint().to_json().unwrap();
            failpoint::configure(site, 0, FailAction::Panic, 1);
            let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
                drive_with_churn(&mut first, h, &events, batch, 4..8);
            }));
            if site == "delivery-retry" || site == "delivery-ack" {
                // Delivery sites fire once per run: the second half must
                // still reach the armed (second) hit, or the crash never
                // struck and the comparison below proves nothing.
                assert!(
                    failpoint::hits(site, 0) > 1,
                    "{site}/{shards}: the armed delivery crash never struck"
                );
            }
            failpoint::clear();
            drop(first); // the "kill": whatever it wrote past the cursor stays on disk

            // Second life: restore, which truncates the log back to the
            // acknowledged cursor, then replay the post-checkpoint half.
            let checkpoint = EngineCheckpoint::load(&json).unwrap();
            let mut second = checkpoint
                .try_restore()
                .unwrap_or_else(|e| panic!("{site}/{shards}: restore failed: {e:?}"));
            let h2 = second.handles()[0];
            drive_with_churn(&mut second, h2, &events, batch, 4..8);
            assert_eq!(
                second.flush_deliveries(),
                0,
                "{site}/{shards}: restored run left deliveries pending"
            );
            assert_eq!(
                engine_health(&second),
                SubscriptionHealth::Active,
                "{site}/{shards}: durable subscriber must end Active"
            );
            drop(second);
            let got = std::fs::read(&path).unwrap();
            assert_eq!(
                got, want,
                "{site}/{shards}: crash+restore delivery log diverges from the \
                 uninterrupted run"
            );
        }
    }
    failpoint::clear();
}

/// Health of the single durable subscription of the engine's only query —
/// restored engines hand back no [`streamworks::SubscriptionId`], so it is
/// recovered through `durable_subscriptions`.
fn engine_health(engine: &ContinuousQueryEngine) -> SubscriptionHealth {
    let handle = engine.handles()[0];
    let sub = engine.durable_subscriptions(handle).unwrap()[0];
    engine.subscription_health(sub).unwrap()
}

/// Telemetry under fault injection: a shard dies mid-run under `Degrade`,
/// and the span rings and histograms must stay coherent — spans from both
/// the driver and the surviving workers, a JSON dump that parses, and
/// ingest counters that reflect every event. Observability being trustworthy
/// *during* an incident is its whole purpose.
#[test]
fn telemetry_spans_survive_shard_faults_and_dump_as_json() {
    let _guard = serial();
    let events = stream(600, 6);
    failpoint::configure("shard-worker", 0, FailAction::Panic, 2);
    let mut engine = ContinuousQueryEngine::builder()
        .shards(2)
        .shard_failure_policy(ShardFailurePolicy::Degrade)
        .channel_capacity(8)
        .telemetry_level(TelemetryLevel::Sampled)
        .telemetry_sample_every(1)
        .build()
        .unwrap();
    register_pair(&mut engine);
    let mut faulted = 0usize;
    for chunk in events.chunks(64) {
        match engine.ingest(chunk) {
            Ok(_) => {}
            Err(EngineError::ShardFailed { degraded, .. }) => {
                assert!(degraded);
                faulted += 1;
            }
            Err(other) => panic!("unexpected error: {other:?}"),
        }
    }
    assert!(faulted > 0, "the armed shard-worker panic must fire");
    failpoint::clear();

    let snap = engine.telemetry_snapshot();
    assert_eq!(snap.events_ingested, events.len() as u64);
    assert!(
        snap.spans.iter().any(|s| s.shard == -1),
        "driver-side spans survive the fault"
    );
    assert!(
        snap.spans.iter().any(|s| s.shard >= 0),
        "worker-side spans survive the fault"
    );
    assert!(
        snap.stages
            .iter()
            .any(|s| s.name == "join_climb" && s.count > 0),
        "climb latency kept being recorded on the surviving shard"
    );

    // The postmortem artifact itself: the JSON dump parses and carries the
    // spans; the Prometheus rendering exposes the stage histograms.
    let doc = serde_json::parse(&snap.to_json()).unwrap();
    let spans = doc.get_field("spans").and_then(|v| v.as_array()).unwrap();
    assert_eq!(spans.len(), snap.spans.len());
    assert!(snap
        .to_prometheus()
        .contains("streamworks_stage_latency_ns_bucket"));
}
