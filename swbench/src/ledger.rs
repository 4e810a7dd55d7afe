//! The traced run: the per-layer ledger.
//!
//! The benchmark mirrors the engine's ingest path with the layers' own
//! public entry points (its own `DynamicGraph`, `GraphSummary`, planned
//! `SjTreeMatcher` or `ShardedMatcher` and prune cadence) and records a span
//! around every layer call. Layers only the engine reaches (the sharing
//! index, the RPQ class, durable delivery) are measured by differential
//! `ingest` timing (the engine with and without them) and public counters.
//! The layer figures are then reconciled against the engine's own ingest
//! time on the same events.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use streamworks_core::{
    find_primitive_matches, CompiledConstraints, ContinuousQueryEngine, PartialMatch, QueryMetrics,
    ShardedMatcher, SjTreeMatcher, TelemetryLevel,
};
use streamworks_graph::{DynamicGraph, EdgeId, GraphConfig, TypeId};
use streamworks_query::{Planner, QueryEdgeId, QueryPlan, SelectivityOrdered};
use streamworks_summarize::{GraphSummary, SummaryConfig};

use crate::load;
use crate::trace::{calibrate_timer, self_times, Tracer, ROOT};
use crate::workload::{naive_run, out_dir, Query, Truth, Workload};
use crate::Report;

/// The engine's default partial-match prune cadence (`EngineConfig::prune_every`).
const PRUNE_EVERY: u64 = 256;

/// What one mirrored pass measured, besides its spans.
#[derive(Default)]
struct Mirror {
    events: u64,
    live_edges_sum: u64,
    candidates: u64,
    primitive_hits: u64,
    prunes: u64,
    syncs: u64,
    live_peak: u64,
    metrics: QueryMetrics,
    handoffs: u64,
    shard_skew: f64,
    /// Complete matches as sorted data-edge lists, sorted.
    matches: Vec<Vec<EdgeId>>,
}

fn edges_of(m: &PartialMatch, edge_count: usize) -> Vec<EdgeId> {
    (0..edge_count)
        .filter_map(|i| m.data_edge(QueryEdgeId(i)))
        .collect()
}

enum Exec {
    Single(Box<SjTreeMatcher>),
    Sharded(Box<ShardedMatcher>),
}

/// Drives every event through the layers the engine calls, in the engine's
/// order, under spans. `shards` above 1 runs the SJ-Tree queries on a
/// `ShardedMatcher`, synchronised every `w.batch` events as the engine does
/// at the end of each `ingest` call.
fn mirror(w: &Workload, shards: usize, matchers: bool, tracer: &mut Tracer) -> Mirror {
    let mut graph = DynamicGraph::new(GraphConfig {
        retention: Some(w.window()),
        ..Default::default()
    });
    let mut summary = GraphSummary::with_config(SummaryConfig::full());
    let plans: Vec<QueryPlan> = w
        .sjt_queries()
        .filter(|_| matchers)
        .map(|q| plan(q, &summary, &graph))
        .collect();
    let mut constraints: Vec<CompiledConstraints> = plans
        .iter()
        .map(|p| CompiledConstraints::compile(&p.query, &graph))
        .collect();
    let mut execs: Vec<Exec> = plans
        .iter()
        .map(|p| {
            if shards > 1 {
                Exec::Sharded(Box::new(ShardedMatcher::new(
                    p.clone(),
                    &graph,
                    shards,
                    None,
                )))
            } else {
                Exec::Single(Box::new(SjTreeMatcher::new(p.clone(), &graph)))
            }
        })
        .collect();
    let mut slab: HashMap<EdgeId, (TypeId, TypeId, TypeId)> = HashMap::new();
    let mut out = Mirror::default();
    let mut found: Vec<PartialMatch> = Vec::new();
    let mut complete: Vec<PartialMatch> = Vec::new();
    let mut since_prune = 0u64;
    for (seq, ev) in w.events.iter().enumerate() {
        let seq = seq as u64;
        let root = tracer.open("event", seq, ROOT);
        let r = tracer.span("graph.ingest", seq, root, || graph.ingest(ev));
        let edge = graph.edge(r.edge);
        let span = tracer.open("summarize.observe", seq, root);
        for v in [(r.src_created, r.src), (r.dst_created, r.dst)]
            .into_iter()
            .filter_map(|(created, v)| created.then_some(v))
        {
            if let Some(v) = graph.vertex(v) {
                summary.observe_vertex(v.vtype);
            }
        }
        if let Some(edge) = edge {
            summary.observe_insertion(&graph, edge);
        }
        for expired in &r.expired {
            if let Some((s, e, d)) = slab.remove(expired) {
                summary.observe_expiry(s, e, d);
            }
        }
        tracer.close(span);
        let Some(edge) = edge else {
            tracer.close(root);
            continue;
        };
        let vtype = |v| graph.vertex(v).map_or(TypeId(0), |v| v.vtype);
        slab.insert(edge.id, (vtype(edge.src), edge.etype, vtype(edge.dst)));
        out.events += 1;
        out.live_edges_sum += graph.live_edge_count() as u64;
        for ((p, c), exec) in plans.iter().zip(&mut constraints).zip(&mut execs) {
            // The same anchored search the matcher runs first, timed on its
            // own: the matcher's span minus this one is its join climb (or,
            // sharded, its routing).
            let span = tracer.open("local_search", seq, root);
            c.refresh(&p.query, &graph);
            for &leaf in p.shape.leaves() {
                found.clear();
                let stats = find_primitive_matches(
                    &graph,
                    &p.query,
                    c,
                    p.shape.primitive_edges(leaf),
                    edge,
                    p.query.window(),
                    &mut found,
                );
                out.candidates += stats.candidates_examined;
                out.primitive_hits += stats.matches_found;
            }
            tracer.close(span);
            match exec {
                Exec::Single(m) => {
                    tracer.span("sj_matcher.process_edge", seq, root, || {
                        m.process_edge(&graph, edge, &mut complete)
                    });
                    let n = p.query.edge_count();
                    out.matches
                        .extend(complete.drain(..).map(|m| edges_of(&m, n)));
                }
                Exec::Sharded(m) => {
                    tracer.span("parallel.route", seq, root, || {
                        m.process_edge_at(&graph, edge, seq)
                    });
                }
            }
        }
        since_prune += 1;
        if since_prune >= PRUNE_EVERY {
            since_prune = 0;
            out.prunes += 1;
            let now = graph.now();
            let span = tracer.open("match_store.prune", seq, root);
            for exec in &mut execs {
                match exec {
                    Exec::Single(m) => m.prune(now),
                    Exec::Sharded(m) => m.prune(now),
                }
            }
            tracer.close(span);
            for exec in &execs {
                if let Exec::Single(m) = exec {
                    out.live_peak = out.live_peak.max(m.metrics().partial_matches_live);
                }
            }
        }
        tracer.close(root);
        if shards > 1 && (seq + 1).is_multiple_of(w.batch as u64) {
            sync(&mut execs, &plans, tracer, seq, &mut out);
        }
    }
    if shards > 1 {
        sync(&mut execs, &plans, tracer, w.events.len() as u64, &mut out);
    }
    for exec in &execs {
        match exec {
            Exec::Single(m) => out.metrics.absorb(&m.metrics()),
            Exec::Sharded(m) => {
                out.metrics.absorb(&m.metrics());
                let shards = m.shard_metrics();
                out.handoffs += shards.iter().map(|s| s.handoffs_out).sum::<u64>();
                let routed: Vec<f64> = shards.iter().map(|s| s.items_routed as f64).collect();
                let mean = routed.iter().sum::<f64>() / routed.len() as f64;
                let max = routed.iter().cloned().fold(0.0, f64::max);
                out.shard_skew = if mean > 0.0 { max / mean } else { 1.0 };
            }
        }
    }
    for m in &mut out.matches {
        m.sort_unstable();
    }
    out.matches.sort_unstable();
    out
}

/// The end-of-call barrier of a sharded engine: waits for the shards, then
/// drains their completed matches.
fn sync(execs: &mut [Exec], plans: &[QueryPlan], tracer: &mut Tracer, seq: u64, out: &mut Mirror) {
    for (exec, p) in execs.iter_mut().zip(plans) {
        if let Exec::Sharded(m) = exec {
            tracer.span("parallel.sync", seq, ROOT, || m.sync());
            out.syncs += 1;
            out.live_peak = out.live_peak.max(m.metrics().partial_matches_live);
            let n = p.query.edge_count();
            out.matches
                .extend(m.take_completed().into_iter().map(|(_, m)| edges_of(&m, n)));
        }
    }
}

/// Plans `query` the way `register_query` does: default strategy, the
/// statistics of the graph as it stands.
fn plan(
    query: &streamworks_query::QueryGraph,
    summary: &GraphSummary,
    graph: &DynamicGraph,
) -> QueryPlan {
    Planner::new()
        .with_statistics(summary, graph)
        .plan_with(query.clone(), &SelectivityOrdered::default())
        .expect("benchmark queries plan without error")
}

/// One untimed-deployment, timed-ingest pass of an engine over the whole
/// stream: (seconds, matches, engine).
fn engine_pass(
    w: &Workload,
    mut engine: ContinuousQueryEngine,
) -> (f64, u64, ContinuousQueryEngine) {
    let t = Instant::now();
    let fed = w.feed(&mut engine, 0..w.events.len());
    let secs = t.elapsed().as_secs_f64();
    engine.flush_deliveries();
    (secs, fed.matches, engine)
}

/// The traced run of workload `w`.
pub fn traced(w: &Workload) -> Report {
    let mut report = Report::default();
    let expected = match w.reference() {
        Ok(n) => n,
        Err(e) => {
            report.wrong.push(e);
            return report;
        }
    };
    let n = w.events.len() as f64;
    let timer_ns = calibrate_timer();
    let sjt = w.sjt_queries().count();
    let single = sjt > 0 && sjt <= 2;

    // query: planning cost per query, on the empty statistics a fresh
    // engine registers against.
    let (graph, summary) = (DynamicGraph::unbounded(), GraphSummary::new());
    let t = Instant::now();
    for q in w.sjt_queries() {
        std::hint::black_box(plan(q, &summary, &graph));
    }
    let plan_us = t.elapsed().as_secs_f64() * 1e6 / sjt.max(1) as f64;

    // The engine untraced, then with a span around every ingest call.
    let (t_full, matches, _) = engine_pass(w, w.deploy().0);
    if matches != expected {
        report.wrong.push(format!(
            "untraced pass found {matches} matches, the reference {expected}"
        ));
    }
    let (mut engine, _) = w.deploy();
    let mut etrace = Tracer::with_capacity(w.events.len());
    let mut cursor_lag_max = 0u64;
    let mut rpq_nodes_peak = 0u64;
    let t = Instant::now();
    let mut i = 0;
    while i < w.events.len() {
        let j = (i + w.batch).min(w.events.len());
        let id = etrace.open("engine.ingest", i as u64, ROOT);
        let f = w.feed_exact(&mut engine, i..j);
        etrace.close(id);
        report.attempted += f.calls;
        report.failed += f.errors;
        if w.durable {
            cursor_lag_max = cursor_lag_max.max(engine.engine_metrics().cursor_lag);
        }
        i = j;
    }
    let t_traced = t.elapsed().as_secs_f64();
    engine.flush_deliveries();
    let em = engine.engine_metrics();
    let engine_ns = self_times(&etrace.spans, timer_ns)["engine.ingest"] as f64 / n;

    // The engine with no queries: graph, summary and the engine's own
    // per-event work.
    let empty = w
        .deploy_with(w.builder().retention(w.window()), Vec::new(), false)
        .0;
    let (t_empty, _, _) = engine_pass(w, empty);

    // Mirrored layer passes: one with in-process matchers (a registry
    // too large to mirror query by query runs graph and summary only), and
    // for a sharded workload the same job on a ShardedMatcher, checked
    // against the first match for match.
    let per_event =
        |t: &BTreeMap<&str, u64>, name: &str| t.get(name).copied().unwrap_or(0) as f64 / n;
    let mut tracer = Tracer::with_capacity(w.events.len() * (6 + 2 * sjt.min(2)));
    let m = mirror(w, 1, single, &mut tracer);
    let totals = self_times(&tracer.spans, timer_ns);
    tracer
        .write_tsv(&format!("{}/spans-{}.tsv", out_dir(), w.name))
        .expect("span file is writable");
    let graph_ns = per_event(&totals, "graph.ingest");
    let summarize_ns = per_event(&totals, "summarize.observe");
    let search_ns = per_event(&totals, "local_search");
    let climb_ns = (per_event(&totals, "sj_matcher.process_edge") - search_ns).max(0.0);
    let prune_total = totals.get("match_store.prune").copied().unwrap_or(0) as f64;
    let mm = &m.metrics;
    report.add(
        "graph.ingest_ns",
        graph_ns,
        "ns",
        "DynamicGraph::ingest self time per event",
    );
    report.add(
        "graph.live_edges",
        m.live_edges_sum as f64 / m.events.max(1) as f64,
        "count",
        "mean live edges",
    );
    report.add(
        "summarize.observe_ns",
        summarize_ns,
        "ns",
        "GraphSummary observe_* self time per event",
    );
    report.add(
        "query.plan_us",
        plan_us,
        "us",
        format!("default planner, per query, {sjt} queries"),
    );
    report.add(
        "local_search.ns",
        search_ns,
        "ns",
        "find_primitive_matches over the plan's leaves, per event",
    );
    report.add(
        "local_search.candidates",
        m.candidates as f64 / n,
        "count",
        "candidate edges examined per event",
    );
    report.add(
        "local_search.hit_ratio",
        if m.candidates > 0 {
            m.primitive_hits as f64 / m.candidates as f64
        } else {
            0.0
        },
        "ratio",
        "primitive matches found per candidate examined",
    );
    report.add(
        "join.climb_ns",
        climb_ns,
        "ns",
        "process_edge span minus its local search, per event",
    );
    report.add(
        "join.attempted",
        mm.joins_attempted as f64 / n,
        "count",
        "join attempts per event",
    );
    report.add(
        "join.success_ratio",
        if mm.joins_attempted > 0 {
            mm.join_success_rate()
        } else {
            0.0
        },
        "ratio",
        "joins that produced a larger match",
    );
    report.add(
        "match_store.inserted",
        mm.partial_matches_inserted as f64 / n,
        "count",
        "partial matches inserted per event",
    );
    report.add(
        "match_store.live_peak",
        m.live_peak as f64,
        "count",
        "most live partial matches after a prune",
    );
    report.add(
        "match_store.expire_us",
        prune_total / 1e3 / m.prunes.max(1) as f64,
        "us",
        format!("per prune call, every {PRUNE_EVERY} events"),
    );
    report.add(
        "match_store.expired",
        mm.partial_matches_expired as f64 / n,
        "count",
        "partial matches expired per event",
    );
    // The layers on the engine's own execution path, per event.
    let mut path_ns = graph_ns + summarize_ns + search_ns + climb_ns + prune_total / n;

    let (mut route_ns, mut sync_wait_us, mut handoffs, mut skew, mut shard1_eps) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    if w.shards > 1 {
        let mut stracer = Tracer::with_capacity(w.events.len() * 6 + w.events.len() / w.batch + 8);
        let s = mirror(w, w.shards, true, &mut stracer);
        if s.matches != m.matches {
            report.wrong.push(format!(
                "{} shards and 1 shard disagree: {} vs {} matches, or different match multisets",
                w.shards,
                s.matches.len(),
                m.matches.len()
            ));
        }
        let st = self_times(&stracer.spans, timer_ns);
        stracer
            .write_tsv(&format!("{}/spans-{}-sharded.tsv", out_dir(), w.name))
            .expect("span file is writable");
        let s_search = per_event(&st, "local_search");
        route_ns = (per_event(&st, "parallel.route") - s_search).max(0.0);
        let sync_total = st.get("parallel.sync").copied().unwrap_or(0) as f64;
        sync_wait_us = sync_total / 1e3 / s.syncs.max(1) as f64;
        handoffs = s.handoffs as f64 / n;
        skew = s.shard_skew;
        path_ns = per_event(&st, "graph.ingest")
            + per_event(&st, "summarize.observe")
            + per_event(&st, "local_search")
            + per_event(&st, "parallel.route")
            + per_event(&st, "match_store.prune")
            + sync_total / n;
        let one = w
            .deploy_with(w.builder().shards(1), w.queries.clone(), w.durable)
            .0;
        shard1_eps = n / engine_pass(w, one).0;
    }
    report.add(
        "parallel.route_ns",
        route_ns,
        "ns",
        "process_edge_at minus its local search, per event",
    );
    report.add(
        "parallel.sync_wait_us",
        sync_wait_us,
        "us",
        "sync() barrier per batch",
    );
    report.add(
        "parallel.handoffs",
        handoffs,
        "count",
        "cross-shard handoffs per event",
    );
    report.add(
        "parallel.shard_skew",
        skew,
        "ratio",
        "max / mean items routed per shard",
    );
    report.add(
        "parallel.shard1_eps",
        shard1_eps,
        "events/s",
        "the same job on a 1-shard engine",
    );

    // RPQ and delivery: differential engine timing.
    let (mut rpq_ns, mut expansions, mut delivery_ns_per_match, mut flush_us, mut delivery_ns) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let rpqs: Vec<Query> = w
        .queries
        .iter()
        .filter(|q| matches!(q, Query::Rpq(_)))
        .cloned()
        .collect();
    if !rpqs.is_empty() {
        let (mut e, hs) = w.deploy_with(w.builder(), rpqs, false);
        let t = Instant::now();
        let mut i = 0;
        while i < w.events.len() {
            let j = (i + w.batch).min(w.events.len());
            w.feed_exact(&mut e, i..j);
            rpq_nodes_peak =
                rpq_nodes_peak.max(e.metrics(hs[0]).map_or(0, |m| m.rpq_tree_nodes_live));
            i = j;
        }
        let t_rpq = t.elapsed().as_secs_f64();
        rpq_ns = ((t_rpq - t_empty) * 1e9 / n).max(0.0);
        expansions = e.metrics(hs[0]).map_or(0, |m| m.rpq_expansions) as f64 / n;
    }
    if w.durable {
        let plain = w.deploy_with(w.builder(), w.queries.clone(), false).0;
        let (t_plain, _, _) = engine_pass(w, plain);
        let extra_ns = ((t_full - t_plain) * 1e9).max(0.0);
        let calls = (w.events.len() as f64 / w.batch as f64).ceil();
        delivery_ns_per_match = extra_ns / expected.max(1) as f64;
        flush_us = extra_ns / 1e3 / calls;
        delivery_ns = extra_ns / n;
    }
    report.add(
        "rpq.ns",
        rpq_ns,
        "ns",
        "engine with only the RPQ minus the empty engine, per event",
    );
    report.add(
        "rpq.expansions",
        expansions,
        "count",
        "product-graph expansions per event",
    );
    report.add(
        "rpq.tree_nodes_peak",
        rpq_nodes_peak as f64,
        "count",
        "most live spanning-tree nodes",
    );

    // Sharing index: counters, and on a multi-query registry its whole
    // matching cost by difference from the empty engine.
    let shared_ns = if single || sjt == 0 {
        0.0
    } else {
        ((t_full - t_empty) * 1e9 / n).max(0.0)
    };
    report.add(
        "shared_index.ns",
        shared_ns,
        "ns",
        "engine with the registry minus the empty engine, per event",
    );
    report.add(
        "shared_index.search_savings",
        em.search_savings_rate(),
        "ratio",
        "anchored searches the index saved",
    );
    report.add(
        "shared_index.subtree_dedup",
        em.subtree_dedup_ratio(),
        "ratio",
        "subtree subscriptions per shared subtree",
    );
    report.add(
        "shared_index.lifted_hits",
        em.lifted_dispatch_hits as f64 / n,
        "count",
        "lifted dispatch hits per event",
    );

    report.add(
        "delivery.ns_per_match",
        delivery_ns_per_match,
        "ns",
        "engine with durable logs minus without, per acked match",
    );
    report.add(
        "delivery.flush_us",
        flush_us,
        "us",
        "the same difference per ingest call",
    );
    report.add(
        "delivery.attempts",
        em.delivery_attempts as f64 / n,
        "count",
        "delivery attempts per event",
    );
    report.add(
        "delivery.retries",
        em.delivery_retries as f64 / n,
        "count",
        "delivery retries per event",
    );
    report.add(
        "delivery.cursor_lag_max",
        cursor_lag_max as f64,
        "count",
        "most unacknowledged deliveries after a call",
    );

    // Reconciliation against the traced engine time.
    let layers = path_ns + rpq_ns + shared_ns + delivery_ns;
    report.add(
        "engine.ingest_ns",
        engine_ns,
        "ns",
        "ContinuousQueryEngine::ingest per event, traced",
    );
    report.add(
        "engine.residual_ns",
        engine_ns - layers,
        "ns",
        "engine.ingest_ns minus the layers' self times",
    );
    report.add(
        "engine.explained_frac",
        layers / engine_ns,
        "ratio",
        "share of engine.ingest_ns the layers explain",
    );

    // Baselines: the paper's naive edge expansion on the same stream.
    let (mut naive_eps, mut over_naive) = (0.0, 0.0);
    match &w.truth {
        Truth::Naive => {
            let q = w.sjt_queries().next().expect("one query");
            let (_, secs) = naive_run(&w.events, q);
            naive_eps = n / secs;
            over_naive = (n / t_full) / naive_eps;
        }
        Truth::NaivePrefix(prefix) => {
            let q = w.sjt_queries().next().expect("one query");
            let events = &w.events[..(*prefix).min(w.events.len())];
            let (_, secs) = naive_run(events, q);
            naive_eps = events.len() as f64 / secs;
            let (mut e, _) = w.deploy();
            let t = Instant::now();
            w.feed(&mut e, 0..events.len());
            over_naive = (events.len() as f64 / t.elapsed().as_secs_f64()) / naive_eps;
        }
        _ => {}
    }
    report.add(
        "baseline.naive_eps",
        naive_eps,
        "events/s",
        "NaiveEdgeExpansion on the same events",
    );
    report.add(
        "baseline.engine_over_naive",
        over_naive,
        "ratio",
        "engine events/s over naive events/s",
    );

    // The engine's own sampled telemetry next to the outside figures.
    let (te, _) = w.deploy_with(
        w.builder().telemetry_level(TelemetryLevel::Sampled),
        w.queries.clone(),
        w.durable,
    );
    let (_, _, te) = engine_pass(w, te);
    for stage in te.telemetry_snapshot().stages {
        report.add(
            &format!("telemetry.{}_p50_ns", stage.name),
            stage.p50_ns as f64,
            "ns",
            format!("log2-bucket p50 of {} samples", stage.count),
        );
    }

    // The generator's lateness in one open-loop segment.
    let mut ops = load::Ops::default();
    let mut open = load::Open::default();
    load::open_segment(
        w,
        expected,
        &mut load::Setup::default(),
        &mut ops,
        &mut open,
    );
    report.wrong.extend(ops.wrong);
    report.add(
        "driver.lag_max_ms",
        open.lag_max_ns as f64 / 1e6,
        "ms",
        "worst generator lateness, open loop",
    );
    report.add(
        "trace.timer_ns",
        timer_ns as f64,
        "ns",
        "one clock read, subtracted from every span",
    );
    report.add(
        "trace.overhead_frac",
        t_traced / t_full - 1.0,
        "ratio",
        "traced over untraced engine time, minus 1",
    );
    etrace
        .write_tsv(&format!("{}/spans-{}-engine.tsv", out_dir(), w.name))
        .expect("span file is writable");
    report.attempted += ops.attempted;
    report.failed += ops.failed;
    report
}
