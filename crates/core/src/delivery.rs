//! Durable, resumable subscription delivery.
//!
//! In-process sinks ([`crate::EventSink`]) die with the engine: they are
//! deliberately excluded from [`crate::EngineCheckpoint`], so a crash loses
//! or replays deliveries. This module adds the *durable* delivery path:
//!
//! - A serialisable [`SinkSpec`] names a delivery destination that can be
//!   rebuilt after a restart: an owned append-only log file, a socket-like
//!   endpoint behind the [`Transport`] trait (tests inject faulty transports
//!   through [`register_endpoint`]), a process-global named memory buffer,
//!   or a discard sink.
//! - Each durable subscription keeps a **delivery cursor** — the count of
//!   acknowledged deliveries, i.e. the monotone position of the last match
//!   the destination has confirmed — plus a bounded outbox of rendered but
//!   not-yet-acknowledged match lines. Both are persisted in the engine
//!   checkpoint, so a restore resumes each subscriber *exactly* after its
//!   last acknowledged match: no duplicates, no losses.
//! - Failures no longer detach the subscriber in one strike. A
//!   [`RetryPolicy`] (max attempts, exponential backoff with a cap, a
//!   per-attempt timeout handed to the transport) moves a failing
//!   subscription through `Active → Degraded(retrying) → Quarantined`, and
//!   recovery probation — an automatic probe after the backoff cap, or an
//!   explicit [`crate::ContinuousQueryEngine::resubscribe`] — promotes it
//!   back to `Active`.
//!
//! # Crash-exact resume
//!
//! The log-file and memory destinations are *owned* by their subscription:
//! on every (re)connect the destination is truncated to exactly the
//! acknowledged prefix (`cursor` complete lines). Deliveries that raced
//! ahead of the last checkpoint — including a line written whose
//! acknowledgement was lost at the `delivery-ack` failpoint — are discarded
//! and rewritten by the replaying engine, which is what makes the final log
//! bit-identical to an uninterrupted run no matter where the process was
//! killed. A log that is *shorter* than the cursor cannot be repaired and
//! maps to [`crate::EngineError::CorruptCheckpoint`] with the byte offset
//! where the acknowledged prefix ends. Endpoint destinations cannot be
//! truncated remotely; across a crash they are at-least-once for the
//! entries delivered after the last checkpoint.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::event::SinkOverflow;

/// Retry schedule for a failing durable subscription.
///
/// An attempt that fails schedules the next one `backoff_base_ms ·
/// 2^(failures−1)` milliseconds later, capped at `backoff_cap_ms`; after
/// `max_attempts` consecutive failures the subscription is quarantined.
/// Every attempt hands `attempt_timeout_ms` to the destination (transports
/// enforce it socket-timeout style; local files ignore it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Consecutive failed attempts tolerated before quarantine (≥ 1; `1`
    /// restores the pre-0.7 one-strike behaviour).
    pub max_attempts: u32,
    /// Backoff before the first retry, in milliseconds (doubles per
    /// failure).
    pub backoff_base_ms: u64,
    /// Upper bound on the backoff, in milliseconds. Also the probation
    /// delay before a quarantined subscription is probed automatically.
    pub backoff_cap_ms: u64,
    /// Per-attempt delivery timeout handed to the destination, in
    /// milliseconds.
    pub attempt_timeout_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff_base_ms: 10,
            backoff_cap_ms: 1000,
            attempt_timeout_ms: 1000,
        }
    }
}

impl RetryPolicy {
    /// The pre-0.7 one-strike policy: a single failed attempt quarantines
    /// the subscription immediately.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_base_ms: 0,
            backoff_cap_ms: 0,
            attempt_timeout_ms: 1000,
        }
    }

    /// Backoff to wait after the `failures`-th consecutive failure
    /// (1-based): `base · 2^(failures−1)`, capped.
    pub fn backoff_for(&self, failures: u32) -> Duration {
        let shift = failures.saturating_sub(1).min(32);
        let ms = self
            .backoff_base_ms
            .saturating_mul(1u64 << shift)
            .min(self.backoff_cap_ms);
        Duration::from_millis(ms)
    }

    /// The per-attempt timeout as a [`Duration`].
    pub fn attempt_timeout(&self) -> Duration {
        Duration::from_millis(self.attempt_timeout_ms)
    }
}

/// A connected socket-like delivery channel for [`SinkSpec::Endpoint`]
/// destinations.
///
/// Production deployments would back this with a real socket; the test
/// suites back it with fault-injecting in-process fakes registered through
/// [`register_endpoint`]. Implementations enforce `timeout` themselves
/// (socket-timeout style) — the engine never blocks on a send beyond it.
pub trait Transport: Send {
    /// Sends one rendered match line, returning a description of the
    /// failure if the line was not acknowledged within `timeout`.
    fn send(&mut self, line: &str, timeout: Duration) -> Result<(), String>;
}

/// Factory producing a fresh [`Transport`] for an endpoint address; invoked
/// on every (re)connect, so a flaky endpoint is re-dialled per retry.
pub type TransportFactory =
    dyn Fn(&str) -> Result<Box<dyn Transport>, String> + Send + Sync + 'static;

fn endpoint_registry() -> &'static Mutex<HashMap<String, Arc<TransportFactory>>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Arc<TransportFactory>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Registers the transport factory dialled for [`SinkSpec::Endpoint`]
/// subscriptions with this `address` (process-global; replaces any previous
/// registration). Tests use this to stand in faulty transports.
pub fn register_endpoint<F>(address: impl Into<String>, factory: F)
where
    F: Fn(&str) -> Result<Box<dyn Transport>, String> + Send + Sync + 'static,
{
    endpoint_registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(address.into(), Arc::new(factory));
}

/// Removes the transport factory for `address`; subsequent connect attempts
/// fail transiently (and retry) until a factory is registered again.
pub fn clear_endpoint(address: &str) {
    endpoint_registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .remove(address);
}

/// Shared line buffer behind one memory-sink key.
type SharedLines = Arc<Mutex<Vec<String>>>;

fn memory_registry() -> &'static Mutex<HashMap<String, SharedLines>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, SharedLines>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn memory_buffer(key: &str) -> SharedLines {
    memory_registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .entry(key.to_owned())
        .or_default()
        .clone()
}

/// Snapshot of the lines delivered to the [`SinkSpec::Memory`] buffer
/// named `key` (empty if nothing was ever delivered there).
pub fn memory_sink_contents(key: &str) -> Vec<String> {
    memory_buffer(key)
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// Clears the [`SinkSpec::Memory`] buffer named `key`. Call between test
/// scenarios — the registry is process-global.
pub fn reset_memory_sink(key: &str) {
    memory_buffer(key)
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}

/// A serialisable delivery destination for
/// [`crate::ContinuousQueryEngine::subscribe_durable`].
///
/// Unlike a live [`crate::EventSink`], a `SinkSpec` survives
/// checkpoint/restore: the engine persists the spec plus the subscription's
/// delivery cursor and reconnects on restore.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SinkSpec {
    /// An append-only log file *owned by the subscription*: every
    /// (re)connect truncates it to the acknowledged prefix, which is what
    /// makes crash-resume bit-exact. One rendered match per line.
    LogFile {
        /// Path of the delivery log.
        path: String,
    },
    /// A socket-like endpoint dialled through the [`Transport`] factory
    /// registered for `address` (see [`register_endpoint`]). At-least-once
    /// across a crash for entries delivered after the last checkpoint.
    Endpoint {
        /// Address handed to the registered [`TransportFactory`].
        address: String,
    },
    /// A process-global named in-memory buffer — the durable wrapper for
    /// the in-process sink kinds. Readable via [`memory_sink_contents`];
    /// truncated to the acknowledged prefix on (re)connect like
    /// [`SinkSpec::LogFile`].
    Memory {
        /// Buffer name in the process-global registry.
        key: String,
    },
    /// Acknowledges everything without storing it (a durable `/dev/null`;
    /// useful for throughput measurements of the delivery path itself).
    Discard,
}

/// Why a [`SinkSpec`] could not be connected.
pub(crate) enum ConnectError {
    /// The destination is unreachable right now; retrying may succeed.
    Transient(String),
    /// The destination's acknowledged prefix is gone (e.g. a delivery log
    /// truncated below the cursor) — retrying cannot help. `offset` is the
    /// byte position where the acknowledged prefix ends.
    Corrupt { offset: usize, detail: String },
}

/// A live connection materialised from a [`SinkSpec`].
pub(crate) trait DeliveryTarget: Send {
    /// Delivers a run of rendered match lines, in order, as one attempt.
    /// `Ok` acknowledges the whole run; `Err` carries a failure description
    /// and acknowledges none of it (an owned destination may hold part of
    /// the run, which the reconnect truncates away).
    fn deliver_run(&mut self, run: &[String], timeout: Duration) -> Result<(), String>;

    /// Delivers a single line as a run of one.
    #[cfg(test)]
    fn deliver(&mut self, line: &str, timeout: Duration) -> Result<(), String> {
        self.deliver_run(&[line.to_owned()], timeout)
    }
}

struct LogFileTarget {
    file: std::fs::File,
    /// The run being written, kept between runs so its capacity is reused.
    buffer: Vec<u8>,
}

impl DeliveryTarget for LogFileTarget {
    fn deliver_run(&mut self, run: &[String], _timeout: Duration) -> Result<(), String> {
        use std::io::Write;
        self.buffer.clear();
        for line in run {
            self.buffer.extend_from_slice(line.as_bytes());
            self.buffer.push(b'\n');
        }
        self.file
            .write_all(&self.buffer)
            .map_err(|e| format!("write failed: {e}"))
    }
}

struct MemoryTarget {
    buffer: Arc<Mutex<Vec<String>>>,
}

impl DeliveryTarget for MemoryTarget {
    fn deliver_run(&mut self, run: &[String], _timeout: Duration) -> Result<(), String> {
        self.buffer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend_from_slice(run);
        Ok(())
    }
}

struct EndpointTarget {
    transport: Box<dyn Transport>,
}

impl DeliveryTarget for EndpointTarget {
    fn deliver_run(&mut self, run: &[String], timeout: Duration) -> Result<(), String> {
        run.iter()
            .try_for_each(|line| self.transport.send(line, timeout))
    }
}

struct DiscardTarget;

impl DeliveryTarget for DiscardTarget {
    fn deliver_run(&mut self, _run: &[String], _timeout: Duration) -> Result<(), String> {
        Ok(())
    }
}

/// Bytes read per step while scanning a delivery log for its acknowledged
/// prefix on (re)connect.
const LOG_SCAN_CHUNK: usize = 64 * 1024;

fn connect_log_file(path: &str, cursor: u64) -> Result<Box<dyn DeliveryTarget>, ConnectError> {
    use std::io::{ErrorKind, Read, Seek, SeekFrom};
    let transient = |e: std::io::Error| ConnectError::Transient(format!("{path}: {e}"));
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .map_err(transient)?;
    // Scan the acknowledged prefix: `cursor` complete ('\n'-terminated)
    // lines, read through one fixed-size chunk so a reconnect never holds
    // the whole log. Anything past the prefix — unacknowledged racing
    // writes, a partial line from a crash mid-write — is truncated away and
    // redelivered.
    let mut chunk = vec![0u8; LOG_SCAN_CHUNK];
    let mut lines = 0u64;
    let mut offset = 0u64;
    let mut scanned = 0u64;
    while lines < cursor {
        let read = match file.read(&mut chunk) {
            Ok(0) => break,
            Ok(read) => read,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(transient(e)),
        };
        for (i, &b) in chunk[..read].iter().enumerate() {
            if b == b'\n' {
                lines += 1;
                offset = scanned + i as u64 + 1;
                if lines == cursor {
                    break;
                }
            }
        }
        scanned += read as u64;
    }
    if lines < cursor {
        return Err(ConnectError::Corrupt {
            offset: offset as usize,
            detail: format!(
                "delivery log {path} holds {lines} acknowledged lines where the cursor expects \
                 {cursor}"
            ),
        });
    }
    file.set_len(offset).map_err(transient)?;
    file.seek(SeekFrom::Start(offset)).map_err(transient)?;
    Ok(Box::new(LogFileTarget {
        file,
        buffer: Vec::new(),
    }))
}

fn connect_memory(key: &str, cursor: u64) -> Result<Box<dyn DeliveryTarget>, ConnectError> {
    let buffer = memory_buffer(key);
    {
        let mut guard = buffer.lock().unwrap_or_else(PoisonError::into_inner);
        let held = guard.len() as u64;
        if held < cursor {
            let offset: usize = guard.iter().map(|l| l.len() + 1).sum();
            return Err(ConnectError::Corrupt {
                offset,
                detail: format!(
                    "memory sink `{key}` holds {held} acknowledged lines where the cursor \
                     expects {cursor}"
                ),
            });
        }
        guard.truncate(cursor as usize);
    }
    Ok(Box::new(MemoryTarget { buffer }))
}

fn connect_endpoint(address: &str) -> Result<Box<dyn DeliveryTarget>, ConnectError> {
    let factory = endpoint_registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(address)
        .cloned();
    let Some(factory) = factory else {
        return Err(ConnectError::Transient(format!(
            "no transport registered for endpoint `{address}`"
        )));
    };
    factory(address)
        .map(|transport| Box::new(EndpointTarget { transport }) as Box<dyn DeliveryTarget>)
        .map_err(ConnectError::Transient)
}

impl SinkSpec {
    /// Human-readable destination description for observability exports
    /// (`telemetry_snapshot()`'s delivery section): `log:<path>`,
    /// `memory:<key>`, `endpoint:<address>` or `discard`.
    pub fn describe(&self) -> String {
        match self {
            SinkSpec::LogFile { path } => format!("log:{path}"),
            SinkSpec::Memory { key } => format!("memory:{key}"),
            SinkSpec::Endpoint { address } => format!("endpoint:{address}"),
            SinkSpec::Discard => "discard".to_string(),
        }
    }

    /// Whether a drain hands this destination its whole pending outbox in
    /// one attempt. Every kind but endpoints does: the reconnect truncates
    /// a failed run away from an owned destination, so nothing is
    /// duplicated. Endpoints take one line per attempt, which bounds what a
    /// lost acknowledgement re-sends to that line.
    fn takes_runs(&self) -> bool {
        !matches!(self, SinkSpec::Endpoint { .. })
    }

    /// Materialises the destination, resuming after `cursor` acknowledged
    /// deliveries (log-file and memory destinations are truncated to that
    /// prefix; endpoints are simply re-dialled).
    pub(crate) fn connect(&self, cursor: u64) -> Result<Box<dyn DeliveryTarget>, ConnectError> {
        match self {
            SinkSpec::LogFile { path } => connect_log_file(path, cursor),
            SinkSpec::Memory { key } => connect_memory(key, cursor),
            SinkSpec::Endpoint { address } => connect_endpoint(address),
            SinkSpec::Discard => Ok(Box::new(DiscardTarget)),
        }
    }
}

/// Delivery-side health of a durable subscription (the engine maps this
/// onto [`crate::SubscriptionHealth`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum DeliveryStatus {
    /// Deliveries are being acknowledged.
    Active,
    /// The last `failures` attempts failed; retrying under backoff.
    Degraded {
        /// Consecutive failed attempts so far.
        failures: u32,
    },
    /// The retry budget is exhausted; only a probation probe (automatic
    /// after the backoff cap, or an explicit `resubscribe`) retries again.
    Quarantined {
        /// Description of the final failure.
        reason: String,
    },
}

/// Serialized state of one durable subscription inside an
/// [`crate::EngineCheckpoint`]: the spec to reconnect, the delivery cursor
/// to resume after, and the undelivered outbox.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeliveryCursor {
    /// Position of the owning query in the checkpoint's combined
    /// registration order.
    pub query: usize,
    /// The subscription's token (stable across checkpoint/restore).
    pub token: u64,
    /// The destination to reconnect on restore.
    pub spec: SinkSpec,
    /// Acknowledged deliveries so far — the monotone stream position of the
    /// last match the destination confirmed.
    pub cursor: u64,
    /// Matches routed to this subscription since it was created (includes
    /// entries later dropped by the overflow policy).
    pub routed: u64,
    /// Matches dropped by the outbox overflow policy before delivery.
    pub dropped: u64,
    /// Rendered match lines routed but not yet acknowledged.
    #[serde(default)]
    pub outbox: Vec<String>,
    /// Outbox capacity.
    pub capacity: usize,
    /// Outbox overflow policy.
    pub overflow: SinkOverflow,
}

/// One durable subscription: spec, live connection, bounded outbox, cursor
/// and the retry state machine. Owned by the engine's per-query state.
pub(crate) struct DurableSub {
    pub(crate) token: u64,
    pub(crate) spec: SinkSpec,
    pub(crate) target: Option<Box<dyn DeliveryTarget>>,
    pub(crate) outbox: VecDeque<String>,
    pub(crate) capacity: usize,
    pub(crate) overflow: SinkOverflow,
    /// Acknowledged deliveries (the delivery cursor).
    pub(crate) cursor: u64,
    /// Matches routed to this subscription (delivered + pending + dropped).
    pub(crate) routed: u64,
    /// Matches dropped by the overflow policy.
    pub(crate) dropped: u64,
    pub(crate) status: DeliveryStatus,
    /// Backoff gate: no retry before this instant (never serialized — a
    /// restore retries immediately).
    retry_not_before: Option<Instant>,
    /// When the subscription was quarantined (drives the automatic
    /// probation probe).
    quarantined_at: Option<Instant>,
    /// Match lines offered to the destination: an attempt with a run of n
    /// lines adds n, failed attempts included; a health probe with nothing
    /// pending adds one.
    pub(crate) attempts: u64,
    /// The share of `attempts` made while retrying or probing (not
    /// `Active`).
    pub(crate) retries: u64,
    /// Promotions back to `Active` after a degraded or quarantined spell.
    pub(crate) recoveries: u64,
}

impl DurableSub {
    pub(crate) fn new(token: u64, spec: SinkSpec, capacity: usize, overflow: SinkOverflow) -> Self {
        DurableSub {
            token,
            spec,
            target: None,
            outbox: VecDeque::new(),
            capacity,
            overflow,
            cursor: 0,
            routed: 0,
            dropped: 0,
            status: DeliveryStatus::Active,
            retry_not_before: None,
            quarantined_at: None,
            attempts: 0,
            retries: 0,
            recoveries: 0,
        }
    }

    /// Rebuilds a subscription from its checkpointed cursor. The connection
    /// is re-established lazily on the first drain; restore clears any
    /// quarantine — a restart is its own probation.
    pub(crate) fn from_cursor(cursor: &DeliveryCursor) -> Self {
        DurableSub {
            token: cursor.token,
            spec: cursor.spec.clone(),
            target: None,
            outbox: cursor.outbox.iter().cloned().collect(),
            capacity: cursor.capacity.max(1),
            overflow: cursor.overflow,
            cursor: cursor.cursor,
            routed: cursor.routed,
            dropped: cursor.dropped,
            status: DeliveryStatus::Active,
            retry_not_before: None,
            quarantined_at: None,
            attempts: 0,
            retries: 0,
            recoveries: 0,
        }
    }

    /// The checkpointable view (`query` is filled in by the capture).
    pub(crate) fn to_cursor(&self, query: usize) -> DeliveryCursor {
        DeliveryCursor {
            query,
            token: self.token,
            spec: self.spec.clone(),
            cursor: self.cursor,
            routed: self.routed,
            dropped: self.dropped,
            outbox: self.outbox.iter().cloned().collect(),
            capacity: self.capacity,
            overflow: self.overflow,
        }
    }

    /// Undelivered entries — the `cursor_lag` gauge.
    pub(crate) fn lag(&self) -> u64 {
        self.outbox.len() as u64
    }

    /// Routes one rendered match line into the outbox, applying the
    /// overflow policy when full. `Block` has no consumer thread to wait
    /// for, so it drains inline (one synchronous delivery round) and falls
    /// back to evicting the oldest pending entry if the destination is
    /// down — blocking would deadlock the ingest path.
    pub(crate) fn enqueue(&mut self, line: String, policy: &RetryPolicy) {
        self.routed += 1;
        if self.outbox.len() >= self.capacity.max(1) {
            match self.overflow {
                SinkOverflow::DropNewest => {
                    self.dropped += 1;
                    return;
                }
                SinkOverflow::DropOldest => {
                    self.outbox.pop_front();
                    self.dropped += 1;
                }
                SinkOverflow::Block => {
                    self.drain(policy, false);
                    if self.outbox.len() >= self.capacity.max(1) {
                        self.outbox.pop_front();
                        self.dropped += 1;
                    }
                }
            }
        }
        self.outbox.push_back(line);
    }

    /// Resets the retry state machine to probation: the next drain
    /// reconnects and retries immediately, with the full retry budget.
    pub(crate) fn probation(&mut self) {
        self.target = None;
        self.status = DeliveryStatus::Active;
        self.retry_not_before = None;
        self.quarantined_at = None;
    }

    fn ensure_target(&mut self) -> Result<(), String> {
        if self.target.is_some() {
            return Ok(());
        }
        match self.spec.connect(self.cursor) {
            Ok(target) => {
                self.target = Some(target);
                Ok(())
            }
            Err(ConnectError::Transient(message)) => Err(message),
            Err(ConnectError::Corrupt { offset, detail }) => {
                Err(format!("corrupt delivery log at byte {offset}: {detail}"))
            }
        }
    }

    fn record_failure(&mut self, message: String, policy: &RetryPolicy, probing: bool) {
        // Reconnect per retry: for owned destinations the reconnect also
        // truncates any partial write back to the acknowledged prefix.
        self.target = None;
        let failures = match self.status {
            DeliveryStatus::Degraded { failures } => failures + 1,
            _ => 1,
        };
        if probing || failures >= policy.max_attempts {
            self.status = DeliveryStatus::Quarantined { reason: message };
            self.quarantined_at = Some(Instant::now());
            self.retry_not_before = None;
        } else {
            self.status = DeliveryStatus::Degraded { failures };
            self.retry_not_before = Some(Instant::now() + policy.backoff_for(failures));
        }
    }

    /// Drains the outbox: delivers pending entries in order, in runs — the
    /// whole outbox per attempt for destinations that [take
    /// runs](SinkSpec::takes_runs), one line per attempt for endpoints. The
    /// cursor advances by a run's length once the whole run is
    /// acknowledged. On a failure the run stays put, the retry state
    /// machine advances, and the drain stops — one attempt per drain while
    /// unhealthy. `force` ignores the backoff/probation gates (used by
    /// explicit flushes).
    pub(crate) fn drain(&mut self, policy: &RetryPolicy, force: bool) {
        loop {
            let probing = match &self.status {
                DeliveryStatus::Quarantined { .. } => {
                    if !force {
                        let due = self.quarantined_at.is_none_or(|at| {
                            at.elapsed() >= Duration::from_millis(policy.backoff_cap_ms)
                        });
                        if !due {
                            return;
                        }
                    }
                    true
                }
                DeliveryStatus::Degraded { .. } => {
                    if !force {
                        if let Some(gate) = self.retry_not_before {
                            if Instant::now() < gate {
                                return;
                            }
                        }
                    }
                    false
                }
                DeliveryStatus::Active => false,
            };
            if self.outbox.is_empty() {
                // Nothing pending: use the slot to re-establish health if
                // the last attempt failed, so an idle subscriber still
                // converges back to `Active`.
                if matches!(self.status, DeliveryStatus::Active) {
                    return;
                }
                self.attempts += 1;
                self.retries += 1;
                match self.ensure_target() {
                    Ok(()) => {
                        self.status = DeliveryStatus::Active;
                        self.retry_not_before = None;
                        self.quarantined_at = None;
                        self.recoveries += 1;
                    }
                    Err(message) => self.record_failure(message, policy, probing),
                }
                return;
            }
            let retrying = probing || !matches!(self.status, DeliveryStatus::Active);
            let run = if self.spec.takes_runs() {
                self.outbox.len()
            } else {
                1
            };
            self.attempts += run as u64;
            if retrying {
                self.retries += run as u64;
            }
            let injected = crate::failpoint::fire_at("delivery-retry", self.token as usize);
            let outcome: Result<(), String> = if injected {
                Err("injected delivery-retry failure".to_owned())
            } else {
                match self.ensure_target() {
                    Err(message) => Err(message),
                    Ok(()) => {
                        let target = self.target.as_mut().expect("target just ensured");
                        let pending = self.outbox.make_contiguous();
                        target.deliver_run(&pending[..run], policy.attempt_timeout())
                    }
                }
            };
            match outcome {
                Ok(()) => {
                    // Crash site between delivery and acknowledgement: a
                    // `Panic` here models the delivered-but-unacked crash
                    // (the reconnect truncation repairs it); an `Error` is
                    // treated as a failed attempt and the run is
                    // redelivered (exactly-once for owned destinations,
                    // whose reconnect truncates it; at-least-once for the
                    // endpoint's single line).
                    if crate::failpoint::fire_at("delivery-ack", self.token as usize) {
                        self.record_failure(
                            "injected delivery-ack failure".to_owned(),
                            policy,
                            probing,
                        );
                        return;
                    }
                    self.outbox.drain(..run);
                    self.cursor += run as u64;
                    if retrying {
                        self.recoveries += 1;
                    }
                    self.status = DeliveryStatus::Active;
                    self.retry_not_before = None;
                    self.quarantined_at = None;
                }
                Err(message) => {
                    self.record_failure(message, policy, probing);
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(name: &str) -> String {
        let dir = std::env::temp_dir().join("sw_delivery_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}_{}.log", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 10,
            backoff_base_ms: 10,
            backoff_cap_ms: 50,
            attempt_timeout_ms: 100,
        };
        assert_eq!(policy.backoff_for(1), Duration::from_millis(10));
        assert_eq!(policy.backoff_for(2), Duration::from_millis(20));
        assert_eq!(policy.backoff_for(3), Duration::from_millis(40));
        assert_eq!(policy.backoff_for(4), Duration::from_millis(50));
        assert_eq!(policy.backoff_for(64), Duration::from_millis(50));
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }

    #[test]
    fn sink_specs_round_trip_through_json() {
        let specs = vec![
            SinkSpec::LogFile {
                path: "/tmp/x.log".into(),
            },
            SinkSpec::Endpoint {
                address: "alerts:9".into(),
            },
            SinkSpec::Memory { key: "k".into() },
            SinkSpec::Discard,
        ];
        let json = serde_json::to_string(&specs).unwrap();
        let back: Vec<SinkSpec> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, specs);
    }

    #[test]
    fn log_file_truncates_to_the_acknowledged_prefix_on_connect() {
        let path = scratch("truncate");
        std::fs::write(&path, "one\ntwo\nthree\npartial").unwrap();
        // Cursor 2: lines past the acknowledged prefix (and the partial
        // trailing write) are discarded.
        let mut target = SinkSpec::LogFile { path: path.clone() }
            .connect(2)
            .ok()
            .unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "one\ntwo\n");
        target.deliver("three'", Duration::from_millis(10)).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "one\ntwo\nthree'\n"
        );
        // Cursor 0 (a fresh subscription over an old log) keeps *nothing*.
        drop(target);
        let _ = SinkSpec::LogFile { path: path.clone() }
            .connect(0)
            .ok()
            .unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn log_file_shorter_than_the_cursor_is_corrupt_with_a_byte_offset() {
        let path = scratch("corrupt");
        std::fs::write(&path, "one\ntwo\n").unwrap();
        let spec = SinkSpec::LogFile { path: path.clone() };
        match spec.connect(5) {
            Err(ConnectError::Corrupt { offset, detail }) => {
                assert_eq!(offset, 8);
                assert!(detail.contains("2 acknowledged lines"));
                assert!(detail.contains("expects 5"));
            }
            _ => panic!("expected a corrupt delivery log"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn log_file_prefix_scan_crosses_chunk_boundaries() {
        let path = scratch("chunked");
        // Lines of varying width, several scan chunks long.
        let lines: Vec<String> = (0..30_000).map(|i| format!("match-{i}")).collect();
        let mut text = lines.join("\n");
        text.push('\n');
        assert!(text.len() > 3 * LOG_SCAN_CHUNK);
        std::fs::write(&path, &text).unwrap();
        let spec = SinkSpec::LogFile { path: path.clone() };
        let mut target = spec.connect(20_000).ok().unwrap();
        let prefix: usize = lines[..20_000].iter().map(|l| l.len() + 1).sum();
        assert_eq!(std::fs::read(&path).unwrap(), text.as_bytes()[..prefix]);
        target
            .deliver_run(&lines[20_000..20_002], Duration::from_millis(10))
            .unwrap();
        drop(target);
        let after = std::fs::read_to_string(&path).unwrap();
        assert_eq!(after.lines().count(), 20_002);
        assert!(after.ends_with("match-20000\nmatch-20001\n"));
        match spec.connect(25_000) {
            Err(ConnectError::Corrupt { offset, detail }) => {
                assert_eq!(offset, after.len());
                assert!(detail.contains("20002 acknowledged lines"));
            }
            _ => panic!("expected a corrupt delivery log"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn memory_sink_truncates_and_reports_corruption() {
        let key = "delivery_unit_memory";
        reset_memory_sink(key);
        let spec = SinkSpec::Memory { key: key.into() };
        let mut target = spec.connect(0).ok().unwrap();
        target.deliver("a", Duration::from_millis(10)).unwrap();
        target.deliver("b", Duration::from_millis(10)).unwrap();
        assert_eq!(memory_sink_contents(key), vec!["a", "b"]);
        // Reconnect at cursor 1 discards the unacknowledged suffix.
        let _ = spec.connect(1).ok().unwrap();
        assert_eq!(memory_sink_contents(key), vec!["a"]);
        match spec.connect(7) {
            Err(ConnectError::Corrupt { offset, detail }) => {
                assert_eq!(offset, 2);
                assert!(detail.contains("expects 7"));
            }
            _ => panic!("expected a corrupt memory sink"),
        }
        reset_memory_sink(key);
    }

    #[test]
    fn unregistered_endpoints_fail_transiently() {
        let spec = SinkSpec::Endpoint {
            address: "never-registered".into(),
        };
        match spec.connect(0) {
            Err(ConnectError::Transient(message)) => {
                assert!(message.contains("no transport registered"));
            }
            _ => panic!("expected a transient connect failure"),
        }
    }

    #[test]
    fn outbox_overflow_policies_count_exactly() {
        let policy = RetryPolicy::default();
        let mut sub = DurableSub::new(0, SinkSpec::Discard, 2, SinkOverflow::DropOldest);
        for line in ["a", "b", "c"] {
            sub.enqueue(line.into(), &policy);
        }
        assert_eq!(sub.dropped, 1);
        assert_eq!(sub.outbox, ["b", "c"]);

        let mut sub = DurableSub::new(0, SinkSpec::Discard, 2, SinkOverflow::DropNewest);
        for line in ["a", "b", "c"] {
            sub.enqueue(line.into(), &policy);
        }
        assert_eq!(sub.dropped, 1);
        assert_eq!(sub.outbox, ["a", "b"]);

        // Block drains inline against a healthy destination: nothing drops.
        let mut sub = DurableSub::new(0, SinkSpec::Discard, 2, SinkOverflow::Block);
        for line in ["a", "b", "c", "d", "e"] {
            sub.enqueue(line.into(), &policy);
        }
        assert_eq!(sub.dropped, 0);
        sub.drain(&policy, true);
        assert_eq!(sub.cursor, 5);
        assert_eq!(sub.routed, 5);
        assert_eq!(sub.lag(), 0);
    }

    #[test]
    fn the_state_machine_degrades_quarantines_and_recovers() {
        static FAILURES_LEFT: AtomicU64 = AtomicU64::new(0);
        struct Flaky;
        impl Transport for Flaky {
            fn send(&mut self, _line: &str, _timeout: Duration) -> Result<(), String> {
                if FAILURES_LEFT.load(Ordering::SeqCst) > 0 {
                    FAILURES_LEFT.fetch_sub(1, Ordering::SeqCst);
                    Err("flaky endpoint refused the line".into())
                } else {
                    Ok(())
                }
            }
        }
        let address = "delivery_unit_flaky";
        register_endpoint(address, |_| Ok(Box::new(Flaky)));
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff_base_ms: 0,
            backoff_cap_ms: 0,
            attempt_timeout_ms: 10,
        };
        let mut sub = DurableSub::new(
            0,
            SinkSpec::Endpoint {
                address: address.into(),
            },
            8,
            SinkOverflow::Block,
        );

        // Two failures then success: Active → Degraded → Active (recovery).
        FAILURES_LEFT.store(2, Ordering::SeqCst);
        sub.enqueue("x".into(), &policy);
        sub.drain(&policy, false);
        assert_eq!(sub.status, DeliveryStatus::Degraded { failures: 1 });
        sub.drain(&policy, false);
        assert_eq!(sub.status, DeliveryStatus::Degraded { failures: 2 });
        sub.drain(&policy, false);
        assert_eq!(sub.status, DeliveryStatus::Active);
        assert_eq!((sub.cursor, sub.recoveries), (1, 1));
        assert!(sub.retries >= 2);

        // Enough failures to exhaust the budget: quarantined, then a probe
        // (backoff cap is 0, so it is due immediately) recovers it.
        FAILURES_LEFT.store(3, Ordering::SeqCst);
        sub.enqueue("y".into(), &policy);
        sub.drain(&policy, false);
        sub.drain(&policy, false);
        sub.drain(&policy, false);
        assert!(matches!(sub.status, DeliveryStatus::Quarantined { .. }));
        assert_eq!(sub.cursor, 1);
        sub.drain(&policy, false);
        assert_eq!(sub.status, DeliveryStatus::Active);
        assert_eq!((sub.cursor, sub.recoveries), (2, 2));
        clear_endpoint(address);
    }

    #[test]
    fn cursors_round_trip_and_restore_on_probation() {
        let mut sub = DurableSub::new(3, SinkSpec::Discard, 4, SinkOverflow::DropOldest);
        let policy = RetryPolicy::default();
        sub.enqueue("a".into(), &policy);
        sub.drain(&policy, false);
        sub.enqueue("b".into(), &policy);
        sub.status = DeliveryStatus::Quarantined {
            reason: "down".into(),
        };
        let cursor = sub.to_cursor(7);
        assert_eq!(cursor.query, 7);
        assert_eq!(cursor.token, 3);
        assert_eq!(cursor.cursor, 1);
        assert_eq!(cursor.routed, 2);
        assert_eq!(cursor.outbox, vec!["b".to_owned()]);
        let json = serde_json::to_string(&cursor).unwrap();
        let back: DeliveryCursor = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cursor);
        let restored = DurableSub::from_cursor(&back);
        assert_eq!(restored.status, DeliveryStatus::Active);
        assert_eq!(restored.cursor, 1);
        assert_eq!(restored.outbox, ["b"]);
    }
}
