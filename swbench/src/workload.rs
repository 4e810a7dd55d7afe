//! The four benchmark workloads: seeded stream generation, the query
//! registry each one deploys into the engine, and the reference results its
//! outputs are checked against.

use std::ops::Range;
use std::time::Instant;

use streamworks_baseline::NaiveEdgeExpansion;
use streamworks_core::{
    ContinuousQueryEngine, EngineBuilder, EngineError, MatchEvent, QueryHandle, SinkSpec,
};
use streamworks_graph::{Duration, DynamicGraph, EdgeEvent, GraphConfig};
use streamworks_query::{CostBasedOrdered, QueryGraph, QueryGraphBuilder, RpqQuery, TreeShapeKind};
use streamworks_workloads::queries::{labelled_news_query, news_triple_query};
use streamworks_workloads::schema::cyber;
use streamworks_workloads::{
    lateral_movement_rpq, LateralMovementConfig, LateralMovementGenerator, MultiTenantGenerator,
    NewsConfig, NewsStreamGenerator, PlantedChain, PlantedEvent, TenantConfig,
};

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = [
    "news-labelled",
    "news-triple",
    "tenants-lifted",
    "cyber-sharded",
];

/// One registered query.
#[derive(Clone)]
pub enum Query {
    /// An SJ-Tree subgraph query, planned by the engine's default planner.
    Sjt(QueryGraph),
    /// A windowed regular path query.
    Rpq(RpqQuery),
}

impl Query {
    fn window(&self) -> Duration {
        match self {
            Query::Sjt(q) => q.window(),
            Query::Rpq(r) => r.window(),
        }
    }
}

/// What a workload's outputs are checked against.
pub enum Truth {
    /// The match count of `NaiveEdgeExpansion` on the full stream.
    Naive,
    /// The naive count on a prefix of this many events, plus a second plan
    /// (cost-based ordering) on the full stream, plus the recorded count of
    /// the seed when one was recorded.
    NaivePrefix(usize),
    /// Every planted label burst is reported by the tenant watching it.
    Bursts(Vec<PlantedEvent>),
    /// Every planted intrusion chain is reported by the RPQ.
    Chains(Vec<PlantedChain>),
}

/// A generated workload: the stream plus how it is deployed and checked.
pub struct Workload {
    pub name: &'static str,
    pub seed: u64,
    pub events: Vec<EdgeEvent>,
    pub queries: Vec<Query>,
    /// Shard count of the engine (`EngineBuilder::shards`).
    pub shards: usize,
    /// Events per `ingest` call in the closed loop; 1 means per-event
    /// ingest, above 1 the open loop batches events by due time.
    pub batch: usize,
    /// Whether each query carries a durable log-file subscription.
    pub durable: bool,
    /// Fixed open-loop offered rate, events per second.
    pub open_rate: f64,
    /// Events one open-loop segment offers after the warm-up window.
    pub segment: usize,
    /// Events inside the first (longest) query window: ingested untimed
    /// before every timed pass.
    pub warmup: usize,
    pub truth: Truth,
}

/// Independent sub-streams one untimed run cycles over, so that a run's
/// figures average over several generated streams rather than one. Few
/// enough that every sub-stream is measured in several rounds of a run;
/// eight on cyber-sharded, whose streams differ most in cost and whose
/// passes are short enough.
const SUB_STREAMS: [usize; 4] = [4, 4, 4, 8];

/// How many sub-streams a run of workload `name` uses.
pub fn sub_streams(name: &str) -> usize {
    NAMES
        .iter()
        .position(|n| *n == name)
        .map_or(1, |i| SUB_STREAMS[i])
}

/// The generator seed of sub-stream `k` of run seed `seed`.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(k as u64)
}

/// Open-loop rates, a fourteenth to a third of each workload's closed-loop
/// throughput at the commit that introduced the benchmark. Well below
/// saturation, the tail is set by the engine's own periodic work (expiry
/// sweeps, join bursts) rather than by queueing behind the machine's noise.
/// Fixed, so that a faster engine shows as a lower tail at the same load.
const OPEN_RATE: [f64; 4] = [50_000.0, 1_000.0, 60_000.0, 10_000.0];

/// Events per open-loop segment: a quarter of a second of offered load
/// (half a second on news-triple), short enough that the open loop's share
/// of a run visits every sub-stream.
const SEGMENT: [usize; 4] = [12_500, 500, 15_000, 2_500];

/// Matches of `news-triple` on the full stream, as recorded for the seeds
/// the baseline was measured with (`seed match_count` lines).
const RECORDED_TRIPLE: &str = include_str!("../recorded_triple_matches.txt");

impl Workload {
    /// Generates workload `name` from `seed`.
    pub fn generate(name: &str, seed: u64) -> Option<Workload> {
        let idx = NAMES.iter().position(|n| *n == name)?;
        let (events, queries, shards, batch, durable, truth) = match idx {
            0 => {
                let w = NewsStreamGenerator::new(NewsConfig {
                    articles: 14_000,
                    seed,
                    ..Default::default()
                })
                .generate();
                let q = labelled_news_query("politics", Duration::from_mins(30));
                (w.events, vec![Query::Sjt(q)], 1, 1, false, Truth::Naive)
            }
            1 => {
                let w = NewsStreamGenerator::new(NewsConfig {
                    articles: 1_500,
                    seed,
                    ..Default::default()
                })
                .generate();
                let q = news_triple_query(Duration::from_mins(10));
                (
                    w.events,
                    vec![Query::Sjt(q)],
                    1,
                    1,
                    false,
                    Truth::NaivePrefix(1_000),
                )
            }
            2 => {
                let w = MultiTenantGenerator::new(TenantConfig {
                    tenants: 1024,
                    distinct_labels: true,
                    include_colocation: false,
                    news: NewsConfig {
                        articles: 8_000,
                        seed,
                        ..Default::default()
                    },
                    ..Default::default()
                })
                .generate();
                let queries = w.queries.into_iter().map(Query::Sjt).collect();
                (w.events, queries, 1, 1, false, Truth::Bursts(w.planted))
            }
            _ => {
                let w = LateralMovementGenerator::new(LateralMovementConfig {
                    hosts: 1_000,
                    background_edges: 30_000,
                    intrusions: vec![0, 2, 4, 8],
                    seed,
                    ..Default::default()
                })
                .generate();
                let queries = vec![
                    Query::Sjt(pivot_query(Duration::from_secs(2))),
                    Query::Rpq(lateral_movement_rpq(Duration::from_secs(2))),
                ];
                (w.events, queries, 2, 256, true, Truth::Chains(w.chains))
            }
        };
        let window = queries.iter().map(Query::window).max().unwrap_or_default();
        let horizon = events
            .first()
            .map(|e| e.timestamp.plus(window))
            .unwrap_or_default();
        let warmup = events.partition_point(|e| e.timestamp < horizon);
        Some(Workload {
            name: NAMES[idx],
            seed,
            events,
            queries,
            shards,
            batch,
            durable,
            open_rate: OPEN_RATE[idx],
            segment: SEGMENT[idx],
            warmup,
            truth,
        })
    }

    /// The longest query window.
    pub fn window(&self) -> Duration {
        self.queries
            .iter()
            .map(Query::window)
            .max()
            .unwrap_or_default()
    }

    /// The SJ-Tree queries of the registry.
    pub fn sjt_queries(&self) -> impl Iterator<Item = &QueryGraph> {
        self.queries.iter().filter_map(|q| match q {
            Query::Sjt(g) => Some(g),
            Query::Rpq(_) => None,
        })
    }

    /// The engine configuration every deployment of the workload uses.
    pub fn builder(&self) -> EngineBuilder {
        ContinuousQueryEngine::builder().shards(self.shards)
    }

    /// Builds an engine from `builder` and registers `queries` (and, if
    /// `durable`, one log-file subscription per query). This is what
    /// `setup_s` times.
    pub fn deploy_with(
        &self,
        builder: EngineBuilder,
        queries: Vec<Query>,
        durable: bool,
    ) -> (ContinuousQueryEngine, Vec<QueryHandle>) {
        let mut engine = builder
            .build()
            .expect("benchmark engine configuration is valid");
        let handles: Vec<QueryHandle> = queries
            .into_iter()
            .map(|q| match q {
                Query::Sjt(g) => engine
                    .register_query(g)
                    .expect("benchmark queries plan without error"),
                Query::Rpq(r) => engine.register_rpq(r),
            })
            .collect();
        if durable {
            for (i, &h) in handles.iter().enumerate() {
                engine
                    .subscribe_durable(h, SinkSpec::LogFile { path: log_path(i) })
                    .expect("delivery log in the output directory opens");
            }
        }
        (engine, handles)
    }

    /// The workload's own deployment.
    pub fn deploy(&self) -> (ContinuousQueryEngine, Vec<QueryHandle>) {
        self.deploy_with(self.builder(), self.queries.clone(), self.durable)
    }

    /// One `ingest` call on `range`: a single event when the workload
    /// ingests per event, else the range as one batch.
    fn call(
        &self,
        engine: &mut ContinuousQueryEngine,
        range: Range<usize>,
    ) -> Result<Vec<MatchEvent>, EngineError> {
        if self.batch == 1 {
            debug_assert_eq!(range.len(), 1);
            engine.ingest(&self.events[range.start])
        } else {
            engine.ingest(&self.events[range])
        }
    }

    /// Ingests `range` in one call (see [`Self::call`]), counting matches
    /// and failed calls.
    pub fn feed_exact(&self, engine: &mut ContinuousQueryEngine, range: Range<usize>) -> Fed {
        match self.call(engine, range) {
            Ok(m) => Fed {
                calls: 1,
                errors: 0,
                matches: m.len() as u64,
            },
            Err(_) => Fed {
                calls: 1,
                errors: 1,
                matches: 0,
            },
        }
    }

    /// Ingests `range` the way the closed loop does: per event, or in
    /// batches of `batch` events.
    pub fn feed(&self, engine: &mut ContinuousQueryEngine, range: Range<usize>) -> Fed {
        let mut fed = Fed::default();
        let mut i = range.start;
        while i < range.end {
            let j = (i + self.batch).min(range.end);
            let f = self.feed_exact(engine, i..j);
            fed.calls += f.calls;
            fed.errors += f.errors;
            fed.matches += f.matches;
            i = j;
        }
        fed
    }

    /// Runs the workload once, untimed: returns the match count and the
    /// matches of the queries in `keep`.
    pub fn collect(
        &self,
        engine: &mut ContinuousQueryEngine,
        keep: &[QueryHandle],
    ) -> (u64, Vec<MatchEvent>) {
        let (mut count, mut kept) = (0u64, Vec::new());
        let mut i = 0;
        while i < self.events.len() {
            let j = (i + self.batch).min(self.events.len());
            let matches = self
                .call(engine, i..j)
                .expect("reference pass ingests without error");
            count += matches.len() as u64;
            kept.extend(matches.into_iter().filter(|m| keep.contains(&m.handle())));
            i = j;
        }
        (count, kept)
    }

    /// Checks the workload's outputs against its reference and returns the
    /// match count every timed pass over this stream must reproduce, or a
    /// description of what is wrong. Where an independent matcher exists the
    /// count comes from it, not from the configuration under test.
    pub fn reference(&self) -> Result<u64, String> {
        match &self.truth {
            Truth::Naive => Ok(naive_count(&self.events, self.first_query())),
            Truth::NaivePrefix(prefix) => {
                let q = self.first_query();
                let prefix = &self.events[..(*prefix).min(self.events.len())];
                let naive = naive_count(prefix, q);
                let (mut e, _) = self.deploy();
                let engine_prefix = self.feed(&mut e, 0..prefix.len()).matches;
                if naive != engine_prefix {
                    return Err(format!(
                        "on a {}-event prefix the engine found {engine_prefix} matches, naive expansion {naive}",
                        prefix.len()
                    ));
                }
                let mut other = self.builder().build().expect("valid configuration");
                other
                    .register_query_with(
                        q.clone(),
                        &CostBasedOrdered::default(),
                        TreeShapeKind::LeftDeep,
                    )
                    .expect("cost-based plan");
                let count = self.feed(&mut other, 0..self.events.len()).matches;
                match recorded_triple(self.seed) {
                    Some(recorded) if recorded != count => Err(format!(
                        "seed {} recorded {recorded} matches, the cost-based plan found {count}",
                        self.seed
                    )),
                    _ => Ok(count),
                }
            }
            Truth::Bursts(planted) => {
                let (mut engine, handles) = self.deploy();
                let (count, matches) = self.collect(&mut engine, &handles);
                for p in planted {
                    let label = p.keyword.strip_prefix("topic-").unwrap_or(&p.keyword);
                    let tenant = self
                        .sjt_queries()
                        .position(|q| q.name().ends_with(&format!("_{label}_pair")))
                        .ok_or_else(|| format!("no tenant watches {label}"))?;
                    let found = matches.iter().any(|m| {
                        m.handle() == handles[tenant]
                            && m.bindings
                                .iter()
                                .filter(|b| b.variable.starts_with('a'))
                                .all(|b| p.articles.contains(&b.key))
                    });
                    if !found {
                        return Err(format!("planted burst {} was not detected", p.keyword));
                    }
                }
                Ok(count)
            }
            Truth::Chains(chains) => {
                let rpqs: Vec<Query> = self
                    .queries
                    .iter()
                    .filter(|q| matches!(q, Query::Rpq(_)))
                    .cloned()
                    .collect();
                let (mut engine, handles) = self.deploy_with(self.builder(), rpqs, false);
                let (_, matches) = self.collect(&mut engine, &handles);
                for c in chains {
                    let found = matches.iter().any(|m| {
                        m.bindings.first().is_some_and(|b| b.key == c.source)
                            && m.bindings.last().is_some_and(|b| b.key == c.target)
                    });
                    if !found {
                        return Err(format!(
                            "planted chain {} -> {} was not detected",
                            c.source, c.target
                        ));
                    }
                }
                // The sharded passes must reproduce the single-threaded count.
                let (mut single, _) =
                    self.deploy_with(self.builder().shards(1), self.queries.clone(), false);
                Ok(self.collect(&mut single, &[]).0)
            }
        }
    }

    fn first_query(&self) -> &QueryGraph {
        self.sjt_queries()
            .next()
            .expect("the workload has an SJ-Tree query")
    }
}

/// Matches counted in one ingest sequence.
#[derive(Default, Clone, Copy)]
pub struct Fed {
    pub calls: u64,
    pub errors: u64,
    pub matches: u64,
}

/// The `login -> flow -> flow` pivot: a user logs into a host that opens a
/// flow to a second host, which opens a flow to a third.
pub fn pivot_query(window: Duration) -> QueryGraph {
    QueryGraphBuilder::new("pivot")
        .window(window)
        .vertex("u", cyber::USER)
        .vertex("h1", cyber::IP)
        .vertex("h2", cyber::IP)
        .vertex("h3", cyber::IP)
        .edge("u", cyber::LOGIN, "h1")
        .edge("h1", cyber::FLOW, "h2")
        .edge("h2", cyber::FLOW, "h3")
        .build()
        .expect("static query is valid")
}

/// Where query `i`'s delivery log goes: a directory of the benchmark's own,
/// unique per process.
pub fn log_path(i: usize) -> String {
    format!("{}/delivery-{}-{i}.log", out_dir(), std::process::id())
}

/// The benchmark's output directory (spans and delivery logs).
pub fn out_dir() -> String {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir).expect("output directory is creatable");
    dir.to_owned()
}

/// Removes this process's delivery logs.
pub fn remove_logs(queries: usize) {
    for i in 0..queries {
        let _ = std::fs::remove_file(log_path(i));
    }
}

/// The durable logs together hold exactly the `matches` the pass returned,
/// one line each, and no delivery is pending.
pub fn check_logs(
    engine: &ContinuousQueryEngine,
    handles: &[QueryHandle],
    matches: u64,
) -> Result<(), String> {
    let mut lines = 0u64;
    for (i, &h) in handles.iter().enumerate() {
        let lag = engine.metrics(h).map_err(|e| e.to_string())?.cursor_lag;
        if lag != 0 {
            return Err(format!("query {i}: {lag} deliveries pending"));
        }
        // The log is created on the first delivery; no file, no lines.
        lines += match std::fs::read_to_string(log_path(i)) {
            Ok(s) => s.lines().count() as u64,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => 0,
            Err(e) => return Err(format!("delivery log {i}: {e}")),
        };
    }
    if lines != matches {
        return Err(format!("{lines} delivery log lines for {matches} matches"));
    }
    Ok(())
}

/// Matches `NaiveEdgeExpansion` finds on `events`, over a graph retaining
/// the query window.
pub fn naive_count(events: &[EdgeEvent], query: &QueryGraph) -> u64 {
    naive_run(events, query).0
}

/// Runs the naive matcher over `events`; returns (matches, seconds).
pub fn naive_run(events: &[EdgeEvent], query: &QueryGraph) -> (u64, f64) {
    let mut graph = DynamicGraph::new(GraphConfig {
        retention: Some(query.window()),
        ..Default::default()
    });
    let mut naive = NaiveEdgeExpansion::new(query.clone());
    let start = Instant::now();
    let mut matches = 0u64;
    for ev in events {
        let r = graph.ingest(ev);
        if let Some(edge) = graph.edge(r.edge) {
            matches += naive.process_edge(&graph, edge).len() as u64;
        }
    }
    (matches, start.elapsed().as_secs_f64())
}

fn recorded_triple(seed: u64) -> Option<u64> {
    RECORDED_TRIPLE.lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        let s: u64 = parts.next()?.parse().ok()?;
        let c: u64 = parts.next()?.parse().ok()?;
        (s == seed).then_some(c)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_events_and_matches() {
        let a = Workload::generate("news-triple", 5).unwrap();
        let b = Workload::generate("news-triple", 5).unwrap();
        assert_eq!(a.events, b.events);
        assert_eq!(a.warmup, b.warmup);
        let count = a.reference().unwrap();
        assert!(count > 0);
        assert_eq!(count, b.reference().unwrap());
        let (mut engine, _) = a.deploy();
        assert_eq!(a.feed(&mut engine, 0..a.events.len()).matches, count);
    }

    #[test]
    fn another_seed_changes_the_stream() {
        for name in NAMES {
            let a = Workload::generate(name, 5).unwrap();
            let b = Workload::generate(name, 6).unwrap();
            assert_ne!(a.events, b.events, "{name}");
        }
    }

    #[test]
    fn sub_streams_have_distinct_seeds() {
        let seeds: std::collections::BTreeSet<u64> = (1..=20)
            .flat_map(|s| (0..16).map(move |k| sub_seed(s, k)))
            .collect();
        assert_eq!(seeds.len(), 320);
    }

    #[test]
    fn recorded_counts_parse() {
        assert_eq!(recorded_triple(sub_seed(1, 0)), Some(5094));
        assert_eq!(recorded_triple(7), None);
    }
}
