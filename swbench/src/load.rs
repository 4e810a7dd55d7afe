//! The untraced end-to-end passes: set-up timing, the closed loop (next
//! `ingest` call starts when the previous one returns) and the open loop
//! (events offered on a fixed schedule, timed from when each was due).

use std::ops::Range;
use std::time::{Duration, Instant};

use crate::stats::{median, percentile};
use crate::workload::{check_logs, remove_logs, Workload};

/// Set-up times: engine build, every registration and subscription.
#[derive(Default)]
pub struct Setup {
    pub samples: Vec<f64>,
}

impl Setup {
    /// Deploys the workload, recording how long it took.
    pub fn deploy(
        &mut self,
        w: &Workload,
    ) -> (
        streamworks_core::ContinuousQueryEngine,
        Vec<streamworks_core::QueryHandle>,
    ) {
        let queries = w.queries.clone();
        // A delivery log left by the previous pass would be read back at
        // subscribe time; each pass starts from an empty one.
        remove_logs(w.queries.len());
        let t = Instant::now();
        let deployed = w.deploy_with(w.builder(), queries, w.durable);
        self.samples.push(t.elapsed().as_secs_f64());
        deployed
    }

    /// Deploys and drops the workload `reps` times, for set-up samples
    /// beyond the passes' own.
    pub fn repeat(&mut self, w: &Workload, reps: usize) {
        for _ in 0..reps {
            drop(self.deploy(w));
        }
    }
}

/// Totals of the operations one run attempted.
#[derive(Default)]
pub struct Ops {
    /// `ingest` calls plus matches routed to durable subscriptions.
    pub attempted: u64,
    /// `ingest` calls that returned `Err`, durable matches unacknowledged
    /// after a final flush, and sink drops.
    pub failed: u64,
    /// Why the run's outputs are wrong, if they are.
    pub wrong: Vec<String>,
}

impl Ops {
    /// Closes a pass: flushes deliveries, counts what is still pending or
    /// dropped, checks the delivery logs and the pass's match count.
    fn close_pass(
        &mut self,
        w: &Workload,
        engine: &mut streamworks_core::ContinuousQueryEngine,
        handles: &[streamworks_core::QueryHandle],
        fed: crate::workload::Fed,
        full_pass: bool,
        expected: u64,
    ) {
        let pending = engine.flush_deliveries();
        let drops: u64 = engine
            .all_metrics()
            .iter()
            .map(|(_, m)| m.sink_events_dropped)
            .sum();
        let durable_matches = if w.durable { fed.matches } else { 0 };
        self.attempted += fed.calls + durable_matches;
        self.failed += fed.errors + pending + drops;
        if w.durable {
            if let Err(e) = check_logs(engine, handles, fed.matches) {
                self.wrong.push(e);
            }
        }
        if full_pass && fed.matches != expected {
            self.wrong.push(format!(
                "a pass found {} matches, the reference {expected}",
                fed.matches
            ));
        }
    }
}

/// The timing samples of each sub-stream's pass with the lowest p50. Every
/// round replays the same events, so the rounds differ only in what the
/// machine did meanwhile: a virtual CPU slowed down by its neighbours makes a
/// pass slower, never faster.
#[derive(Default)]
pub struct Samples {
    /// Per sub-stream: (p50 in ns, sorted samples) of its best pass so far.
    best: Vec<Option<(u64, Vec<u64>)>>,
}

impl Samples {
    /// Records one pass over sub-stream `sub`, keeping it if its p50 is the
    /// sub-stream's lowest so far.
    pub fn record(&mut self, sub: usize, mut pass: Vec<u64>) {
        if pass.is_empty() {
            return;
        }
        pass.sort_unstable();
        let p50 = percentile(&pass, 0.50);
        if self.best.len() <= sub {
            self.best.resize(sub + 1, None);
        }
        if self.best[sub].as_ref().is_none_or(|(b, _)| p50 < *b) {
            self.best[sub] = Some((p50, pass));
        }
    }

    /// The p50 in µs of the kept passes' samples pooled, with the number of
    /// samples pooled.
    pub fn best_p50_us(&self) -> (f64, usize) {
        let mut pooled: Vec<u64> = self
            .best
            .iter()
            .flatten()
            .flat_map(|(_, pass)| pass.iter().copied())
            .collect();
        if pooled.is_empty() {
            return (f64::NAN, 0);
        }
        pooled.sort_unstable();
        (percentile(&pooled, 0.50) as f64 / 1e3, pooled.len())
    }
}

/// Closed-loop result: the fastest pass over each sub-stream, and how long
/// every `ingest` call took.
pub struct Closed {
    /// Events after warm-up, per sub-stream.
    pub events: Vec<u64>,
    /// Shortest time one pass took to ingest them, per sub-stream.
    pub best_seconds: Vec<f64>,
    /// Durations of the timed `ingest` calls of each sub-stream's best pass.
    pub calls: Samples,
}

impl Closed {
    fn new(subs: usize) -> Closed {
        Closed {
            events: vec![0; subs],
            best_seconds: vec![f64::INFINITY; subs],
            calls: Samples::default(),
        }
    }

    /// Events per second over the fastest pass of every sub-stream.
    pub fn throughput_eps(&self) -> f64 {
        self.events.iter().sum::<u64>() as f64 / self.best_seconds.iter().sum::<f64>()
    }
}

/// Open-loop result: per-event latencies and the generator's lateness.
#[derive(Default)]
pub struct Open {
    pub latencies_ns: Vec<u64>,
    pub lag_max_ns: u64,
}

/// Samples per latency window: the fewest that leave ten beyond a p99.
pub const WINDOW: usize = 1000;

/// Rounds every run makes at least, so that each sub-stream is measured
/// more than once.
pub const MIN_ROUNDS: usize = 2;

impl Open {
    /// The median over consecutive windows of [`WINDOW`] samples of each
    /// window's p99, in µs, with the window count. A stall of the machine
    /// (a descheduled virtual CPU, not the engine) hits a few windows and
    /// moves this median little; an engine stall that recurs within every
    /// window moves it fully.
    pub fn window_p99_us(&self) -> (f64, usize) {
        let p99s: Vec<f64> = self
            .latencies_ns
            .chunks_exact(WINDOW)
            .map(|c| {
                let mut c = c.to_vec();
                c.sort_unstable();
                percentile(&c, 0.99) as f64 / 1e3
            })
            .collect();
        if p99s.is_empty() {
            return (f64::NAN, 0);
        }
        (median(&p99s), p99s.len())
    }
}

/// Offers events `0..n` at `rate` per second, calling `ingest` on each
/// range due. Per-event mode (`max_batch == 1`) spins to each due time;
/// batch mode sleeps until the next event is due and then hands over every
/// event already due (up to `max_batch`), so the generator leaves the cores
/// to the engine's workers. Each event's latency
/// runs from its due time to the return of the call that processed it.
pub fn offer(
    n: usize,
    rate: f64,
    max_batch: usize,
    open: &mut Open,
    mut ingest: impl FnMut(Range<usize>),
) {
    let gap_ns = 1e9 / rate;
    let start = Instant::now();
    let due = |i: usize| start + Duration::from_nanos((i as f64 * gap_ns) as u64);
    let mut i = 0;
    while i < n {
        let first_due = due(i);
        let mut now = Instant::now();
        if now < first_due {
            if max_batch == 1 {
                while now < first_due {
                    std::hint::spin_loop();
                    now = Instant::now();
                }
            } else {
                std::thread::sleep(first_due - now);
                continue;
            }
        }
        let mut j = i + 1;
        while j < n && j - i < max_batch && due(j) <= now {
            j += 1;
        }
        open.lag_max_ns = open.lag_max_ns.max((now - first_due).as_nanos() as u64);
        ingest(i..j);
        let done = Instant::now();
        for k in i..j {
            open.latencies_ns
                .push(done.saturating_duration_since(due(k)).as_nanos() as u64);
        }
        i = j;
    }
}

/// One closed-loop pass over sub-stream `k` on a fresh engine: the warm-up
/// window untimed, then every later event as fast as one ingest thread can,
/// timing the pass and each `ingest` call.
pub fn closed_pass(
    k: usize,
    w: &Workload,
    expected: u64,
    setup: &mut Setup,
    ops: &mut Ops,
    closed: &mut Closed,
) {
    let (mut engine, handles) = setup.deploy(w);
    let mut fed = w.feed(&mut engine, 0..w.warmup);
    // Sized up front so the sample buffer never reallocates mid-pass.
    let mut calls = Vec::with_capacity((w.events.len() - w.warmup).div_ceil(w.batch));
    let t = Instant::now();
    let mut i = w.warmup;
    while i < w.events.len() {
        let j = (i + w.batch).min(w.events.len());
        let c = Instant::now();
        let f = w.feed_exact(&mut engine, i..j);
        calls.push(c.elapsed().as_nanos() as u64);
        fed.calls += f.calls;
        fed.errors += f.errors;
        fed.matches += f.matches;
        i = j;
    }
    let seconds = t.elapsed().as_secs_f64();
    closed.calls.record(k, calls);
    closed.events[k] = (w.events.len() - w.warmup) as u64;
    closed.best_seconds[k] = closed.best_seconds[k].min(seconds);
    ops.close_pass(w, &mut engine, &handles, fed, true, expected);
}

/// One open-loop segment over sub-stream `w` on a fresh engine: the warm-up
/// window closed-loop, then the next `w.segment` events offered at the
/// workload's fixed rate.
pub fn open_segment(
    w: &Workload,
    expected: u64,
    setup: &mut Setup,
    ops: &mut Ops,
    open: &mut Open,
) {
    let timed = (w.events.len() - w.warmup).min(w.segment);
    // Reserved up front so the sample buffer never reallocates mid-schedule.
    open.latencies_ns.reserve(timed);
    let (mut engine, handles) = setup.deploy(w);
    let mut fed = w.feed(&mut engine, 0..w.warmup);
    let base = w.warmup;
    offer(timed, w.open_rate, w.batch, open, |r| {
        let f = w.feed_exact(&mut engine, base + r.start..base + r.end);
        fed.calls += f.calls;
        fed.errors += f.errors;
        fed.matches += f.matches;
    });
    let full = base + timed == w.events.len();
    ops.close_pass(w, &mut engine, &handles, fed, full, expected);
}

/// Share of the budget the closed-loop rounds get; the open loop, which only
/// feeds the printed tail and the generator's lag, gets the rest.
const CLOSED_SHARE: f64 = 0.8;

/// The measured passes. Closed-loop rounds come first: each makes one pass
/// over every sub-stream in turn, and they continue until their share of
/// `budget` has passed and at least [`MIN_ROUNDS`] are complete; the figures
/// keep each sub-stream's best pass (see [`Closed`] and [`Samples`]). Then
/// open-loop segments cycle over the sub-streams, each at least once, until
/// `budget` has passed. Returns the closed-loop round count too.
pub fn measure(
    ws: &[Workload],
    budget: Duration,
    expected: &[u64],
    setup: &mut Setup,
    ops: &mut Ops,
) -> (Closed, Open, usize) {
    let start = Instant::now();
    let mut closed = Closed::new(ws.len());
    let mut rounds = 0;
    'rounds: loop {
        for (k, (w, &want)) in ws.iter().zip(expected).enumerate() {
            if rounds >= MIN_ROUNDS && start.elapsed() >= budget.mul_f64(CLOSED_SHARE) {
                break 'rounds;
            }
            closed_pass(k, w, want, setup, ops, &mut closed);
        }
        rounds += 1;
    }
    let mut open = Open::default();
    for (i, (w, &want)) in ws.iter().zip(expected).cycle().enumerate() {
        if i >= ws.len() && start.elapsed() >= budget {
            break;
        }
        open_segment(w, want, setup, ops, &mut open);
    }
    (closed, open, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_shows_in_p99_and_generator_lag() {
        let mut open = Open::default();
        // 2000 events at 20k/s; the call for event 100 stalls for 30 ms, so
        // about 600 later events are offered late and wait behind it.
        offer(2000, 20_000.0, 1, &mut open, |r| {
            if r.start == 100 {
                std::thread::sleep(Duration::from_millis(30));
            }
        });
        assert_eq!(open.latencies_ns.len(), 2000);
        assert!(open.lag_max_ns >= 25_000_000, "lag {}", open.lag_max_ns);
        // Two windows, both holding delayed events.
        let (p99, windows) = open.window_p99_us();
        assert_eq!(windows, 2);
        assert!(p99 >= 5_000.0, "p99 {p99} us");
    }

    #[test]
    fn a_window_leaves_ten_samples_beyond_its_p99() {
        let rank = (0.99 * WINDOW as f64).ceil() as usize;
        assert_eq!(WINDOW - rank, 10);
    }

    #[test]
    fn window_p99_ignores_one_bad_window_and_keeps_sample_counts() {
        // 20 windows of 1000 samples: one is all 1 ms, the rest hold 1 µs
        // with a 10 µs tail of 2%.
        let mut open = Open::default();
        for s in 0..20 {
            for i in 0..1000u64 {
                open.latencies_ns.push(match (s, i % 50) {
                    (7, _) => 1_000_000,
                    (_, 0) => 10_000,
                    _ => 1_000,
                });
            }
        }
        let (p99, slices) = open.window_p99_us();
        assert_eq!(slices, 20);
        assert_eq!(p99, 10.0);
        // A partial window is left out; fewer than 1000 samples support no p99.
        open.latencies_ns.truncate(1999);
        assert_eq!(open.window_p99_us().1, 1);
        open.latencies_ns.truncate(999);
        assert!(open.window_p99_us().0.is_nan());
    }

    #[test]
    fn best_p50_pools_each_sub_streams_fastest_pass() {
        // Sub-stream 0: two rounds, 3 µs and then 2 µs; sub-stream 1: 8 µs
        // and then 9 µs. The pool holds the 2 µs and the 8 µs pass.
        let mut samples = Samples::default();
        for (sub, us) in [(0, 3), (1, 8), (0, 2), (1, 9)] {
            samples.record(sub, vec![us * 1_000; 100]);
        }
        assert_eq!(samples.best_p50_us(), (2.0, 200));
        // A third sub-stream at 5 µs moves the pooled p50 to it.
        samples.record(2, vec![5_000; 100]);
        assert_eq!(samples.best_p50_us(), (5.0, 300));
        assert!(Samples::default().best_p50_us().0.is_nan());
    }

    #[test]
    fn throughput_takes_each_sub_streams_fastest_pass() {
        let closed = Closed {
            events: vec![1_000, 3_000],
            best_seconds: vec![0.5, 1.5],
            calls: Samples::default(),
        };
        assert_eq!(closed.throughput_eps(), 2_000.0);
    }

    #[test]
    fn batch_mode_hands_over_every_due_event() {
        let mut open = Open::default();
        let mut calls = Vec::new();
        offer(500, 50_000.0, 64, &mut open, |r| {
            if r.start == 0 {
                std::thread::sleep(Duration::from_millis(5));
            }
            calls.push(r);
        });
        assert_eq!(open.latencies_ns.len(), 500);
        // Every event is offered exactly once, in order.
        let mut next = 0;
        for r in &calls {
            assert_eq!(r.start, next);
            assert!(r.end - r.start <= 64);
            next = r.end;
        }
        assert_eq!(next, 500);
        // The stall made events queue up, so some call took a batch.
        assert!(calls.iter().any(|r| r.end - r.start > 1));
        assert!(open.lag_max_ns >= 4_000_000);
    }
}
