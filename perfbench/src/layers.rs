//! The traced run's per-layer measurements, taken from outside the
//! program: spans around calls into the public functions of each crate,
//! plus the exact counters of `Service::stats()` and
//! `Engine::explain_analyze`.
//!
//! * Engine probes: `lpath_syntax::parse`, `Engine::check_ast`,
//!   `Engine::translate`, `Engine::explain_analyze`, `Engine::query` and
//!   `Engine::query_limit` on the workload's most popular queries.
//! * Service replay: the workload's request stream (with its appends)
//!   replayed in-process on a fresh default `Service`; `Service::stats()`
//!   deltas give the cache, shard and batch ratios.
//! * The same replay with `ServiceConfig::metrics` off, and over the
//!   socket on a fresh server, for the metrics and server overheads.
//! * The TGrep2, CorpusSearch and XPath baselines on the fixture suite.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use lpath_bench::{fixtures, Engines};
use lpath_model::Corpus;
use lpath_relstore::{Plan, PlannerConfig};
use lpath_server::{serve, Client, ServerConfig};
use lpath_service::{Service, ServiceConfig, ServiceStats};
use lpath_xpath::XPathEngine;

use crate::session::{Backend, Local, Session};
use crate::stats::{geomean, median};
use crate::trace::{self_times, Span, Tracer};
use crate::universe::Req;
use crate::{metric, Metric};

/// Repetitions of each engine-side probe call.
const REPS: usize = 5;

/// The stages of `Engine::query`: span name and per-layer metric.
const STAGES: [(&str, &str); 5] = [
    ("syntax.parse", "syntax.parse_us"),
    ("core.translate", "core.translate_us"),
    ("check.analyze", "check.analyze_us"),
    ("core.plan", "core.plan_us"),
    ("relstore.execute", "relstore.execute_us"),
];

/// What the traced run measures the layers on.
pub struct Inputs<'a> {
    /// The base corpus.
    pub corpus: &'a Corpus,
    /// The engines over it (the LPath engine is probed directly).
    pub engines: &'a Engines<'a>,
    /// The workload's queries; requests index into it.
    pub queries: &'a [String],
    /// Queries probed engine-side.
    pub probe: Vec<usize>,
    /// The request stream replayed through the service and the server.
    pub stream: Vec<Req>,
    /// Append batches and the stream position they go in before.
    pub appends: Vec<(usize, String)>,
}

/// Per-span-name self times (µs) of the spans recorded since `from`,
/// keyed further by request id.
fn self_us(spans: &[Span], from: usize) -> BTreeMap<&'static str, BTreeMap<u64, Vec<f64>>> {
    let mut out: BTreeMap<&'static str, BTreeMap<u64, Vec<f64>>> = BTreeMap::new();
    let rebased: Vec<Span> = spans[from..]
        .iter()
        .map(|sp| Span {
            id: sp.id - from,
            parent: sp.parent.map(|p| p - from),
            ..sp.clone()
        })
        .collect();
    for (sp, t) in rebased.iter().zip(self_times(&rebased)) {
        out.entry(sp.name)
            .or_default()
            .entry(sp.request)
            .or_default()
            .push(t as f64 / 1e3);
    }
    out
}

/// Geometric mean over requests of each request's median.
fn geomean_of_medians(m: Option<&BTreeMap<u64, Vec<f64>>>) -> f64 {
    m.map_or(0.0, |m| {
        geomean(&m.values().map(|v| median(v)).collect::<Vec<_>>())
    })
}

/// Median over every sample.
fn pooled_median(m: Option<&BTreeMap<u64, Vec<f64>>>) -> f64 {
    m.map_or(0.0, |m| {
        median(&m.values().flatten().copied().collect::<Vec<_>>())
    })
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One replay of the stream on `backend`; returns the total request
/// time (µs, appends excluded) and the failures.
fn replay<B: Backend>(
    inp: &Inputs<'_>,
    backend: &mut B,
    mut tracer: Option<&mut Tracer>,
    mut before_trailing_appends: impl FnMut(),
) -> (f64, u64) {
    let mut session = Session::default();
    let mut total = 0.0;
    let mut failed = 0;
    let mut append = |tracer: &mut Option<&mut Tracer>, backend: &mut B, id: u64, src: &str| {
        let ok = match tracer.as_deref_mut() {
            Some(t) => {
                let root = t.open("replay.append", id, None);
                let parsed = t.span("model.ptb_parse", id, Some(root), || {
                    lpath_model::ptb::parse_str(src).is_ok()
                });
                let added = t.span("service.append_ptb", id, Some(root), || backend.append(src));
                t.close(root);
                parsed && added.is_ok()
            }
            None => backend.append(src).is_ok(),
        };
        failed += u64::from(!ok);
    };
    for (i, req) in inp.stream.iter().enumerate() {
        for (_, src) in inp.appends.iter().filter(|(at, _)| *at == i) {
            append(&mut tracer, backend, i as u64, src);
        }
        let trace = tracer.as_deref_mut().map(|t| (t, i as u64));
        let done = session.exec(backend, inp.queries, req, trace);
        total += done.us;
    }
    before_trailing_appends();
    let n = inp.stream.len();
    for (_, src) in inp.appends.iter().filter(|(at, _)| *at >= n) {
        append(&mut tracer, backend, n as u64, src);
    }
    (total, failed + session.failed)
}

fn fresh_service(corpus: &Corpus, metrics: bool) -> Service {
    Service::with_config(
        corpus,
        ServiceConfig {
            metrics,
            ..ServiceConfig::default()
        },
    )
}

/// Measure every layer; returns the per-layer metrics (all but
/// `trace.overhead_frac`, which the workload adds) and the failures.
pub fn probe(inp: &Inputs<'_>, tracer: &mut Tracer) -> (Vec<Metric>, u64) {
    let engine = &inp.engines.lpath;
    let mut failed = 0u64;
    let mut m = Vec::new();

    // --- Engine probes -------------------------------------------------
    // The engine's own `query` path, one public call per stage: parse,
    // translate, check, plan (+ estimate refinement), execute. Their sum
    // is compared with `Engine::query` itself; `explain_analyze` runs
    // once per query for its exact step counters and q-error.
    let from = tracer.spans().len();
    let (mut probes, mut candidates, mut rows_out) = (0u64, 0u64, 0u64);
    let mut qerrors = Vec::new();
    let db = engine.database();
    let planner = PlannerConfig::default();
    for &q in &inp.probe {
        let text = inp.queries[q].as_str();
        let id = q as u64;
        match engine.explain_analyze(text) {
            Ok(ea) => {
                for st in &ea.steps {
                    probes += st.probes;
                    candidates += st.candidates;
                    rows_out += st.actual_rows;
                }
                qerrors.push(ea.estimate_error);
            }
            Err(_) => failed += 1,
        }
        for _ in 0..REPS {
            let root = tracer.open("probe.stages", id, None);
            let ast = tracer.span("syntax.parse", id, Some(root), || lpath_syntax::parse(text));
            let Ok(ast) = ast else {
                tracer.close(root);
                break;
            };
            let cq = tracer.span("core.translate", id, Some(root), || engine.translate(&ast));
            let report = tracer.span("check.analyze", id, Some(root), || engine.check_ast(&ast));
            let Ok(cq) = cq else {
                tracer.close(root);
                break;
            };
            let plan = tracer.span("core.plan", id, Some(root), || {
                if report.statically_empty {
                    Plan::constant_empty()
                } else {
                    let mut plan = lpath_relstore::plan(db, &cq, &planner);
                    engine.refine_estimate(&ast, &mut plan);
                    plan
                }
            });
            tracer.span("relstore.execute", id, Some(root), || {
                lpath_relstore::execute(&plan, db).len()
            });
            tracer.close(root);
            tracer.span("engine.query", id, None, || engine.query(text).is_ok());
            tracer.span("engine.query_limit", id, None, || {
                engine.query_limit(text, 0, 10).is_ok()
            });
        }
    }
    let probe_spans = self_us(tracer.spans(), from);
    let per_query = |name: &str| -> BTreeMap<u64, f64> {
        probe_spans
            .get(name)
            .map(|m| m.iter().map(|(q, v)| (*q, median(v))).collect())
            .unwrap_or_default()
    };
    let all_rows = per_query("engine.query");
    let first_page = per_query("engine.query_limit");
    let stages: Vec<BTreeMap<u64, f64>> = STAGES.iter().map(|(span, _)| per_query(span)).collect();
    let stage_sum: f64 = stages.iter().flat_map(|m| m.values()).sum();
    let all_sum: f64 = all_rows.values().sum();
    let slower = all_rows
        .iter()
        .filter(|(q, a)| first_page.get(q).is_some_and(|p| p >= a))
        .count();
    for ((_, name), per) in STAGES.iter().zip(&stages) {
        let g = geomean(&per.values().copied().collect::<Vec<_>>());
        m.push(metric(name, g, "us"));
    }
    m.push(metric("core.stage_sum_ratio", stage_sum / all_sum, "ratio"));
    m.push(metric(
        "core.first_rows_slower_queries",
        slower as f64,
        "count",
    ));
    m.push(metric(
        "relstore.candidates_per_row",
        ratio(candidates, rows_out),
        "ratio",
    ));
    m.push(metric("relstore.index_probes", probes as f64, "count"));
    m.push(metric(
        "relstore.qerror_geomean",
        geomean(&qerrors),
        "ratio",
    ));
    m.push(metric(
        "relstore.qerror_max",
        qerrors.iter().copied().fold(1.0, f64::max),
        "ratio",
    ));

    // Share of requests whose query the analyzer proves empty.
    let mut empty: HashMap<usize, bool> = HashMap::new();
    let mut is_empty = |q: usize| {
        *empty.entry(q).or_insert_with(|| {
            lpath_syntax::parse(&inp.queries[q])
                .is_ok_and(|a| engine.check_ast(&a).statically_empty)
        })
    };
    let (mut empties, mut asked) = (0u64, 0u64);
    for req in &inp.stream {
        let qs: Vec<usize> = match req {
            Req::Page(q) | Req::Count(q) | Req::Eval(q) | Req::Exists(q) => vec![*q],
            Req::Deeper(..) => Vec::new(),
            Req::Multi(qs) => qs.clone(),
        };
        for q in qs {
            asked += 1;
            empties += u64::from(is_empty(q));
        }
    }
    m.push(metric(
        "check.statically_empty_ratio",
        ratio(empties, asked),
        "ratio",
    ));

    let index_rows: usize = db
        .table_by_name("node")
        .map(|t| db.indexes_on(t).map(|i| db.index(i).len()).sum())
        .unwrap_or(0);
    let nodes: usize = inp.corpus.trees().iter().map(lpath_model::Tree::len).sum();
    m.push(metric(
        "service.index_rows_per_node",
        ratio(index_rows as u64, nodes as u64),
        "ratio",
    ));

    // --- Service replay, metrics on, traced ------------------------------
    let svc = fresh_service(inp.corpus, true);
    let build_ms = svc
        .stats()
        .per_shard
        .iter()
        .map(|p| p.build_time.as_secs_f64() * 1e3)
        .fold(0.0, f64::max);
    let before = svc.stats();
    let mut after: Option<ServiceStats> = None;
    let from = tracer.spans().len();
    let (t_on, f) = replay(inp, &mut Local(&svc), Some(tracer), || {
        after = Some(svc.stats())
    });
    failed += f;
    let after = after.expect("replay snapshots its stats");
    let spans = self_us(tracer.spans(), from);
    let d = |f: fn(&ServiceStats) -> u64| f(&after) - f(&before);
    m.push(metric(
        "service.plan_cache_hit_ratio",
        ratio(
            d(|s| s.plan_hits),
            d(|s| s.plan_hits) + d(|s| s.plan_misses),
        ),
        "ratio",
    ));
    m.push(metric(
        "service.result_cache_hit_ratio",
        ratio(
            d(|s| s.result_hits),
            d(|s| s.result_hits) + d(|s| s.result_misses),
        ),
        "ratio",
    ));
    m.push(metric(
        "service.count_cache_hit_ratio",
        ratio(
            d(|s| s.count_hits),
            d(|s| s.count_hits) + d(|s| s.count_misses),
        ),
        "ratio",
    ));
    m.push(metric(
        "service.count_fast_ratio",
        ratio(
            d(|s| s.count_fast),
            d(|s| s.count_fast) + d(|s| s.shard_count_hits) + d(|s| s.shard_count_misses),
        ),
        "ratio",
    ));
    m.push(metric(
        "service.shard_evals_per_request",
        ratio(d(|s| s.shard_evals), d(|s| s.queries)),
        "ratio",
    ));
    m.push(metric(
        "service.shards_pruned_ratio",
        ratio(
            d(|s| s.shards_pruned),
            d(|s| s.shards_pruned) + d(|s| s.shard_evals),
        ),
        "ratio",
    ));
    m.push(metric(
        "service.admission_rejects",
        d(|s| s.admission_rejects) as f64,
        "count",
    ));
    m.push(metric(
        "service.shared_scans_per_batch",
        ratio(d(|s| s.multi_shared_scans), d(|s| s.batches)),
        "ratio",
    ));
    m.push(metric(
        "service.batch_dedup",
        d(|s| s.batch_dedup) as f64,
        "count",
    ));
    let stale = svc.stats().stale_checkpoints - before.stale_checkpoints;
    m.push(metric("service.stale_checkpoints", stale as f64, "count"));
    let page_us = pooled_median(spans.get("service.page"));
    let eval_us = pooled_median(spans.get("service.eval"));
    m.push(metric("service.page_us", page_us, "us"));
    m.push(metric("service.eval_us", eval_us, "us"));
    m.push(metric(
        "service.append_ms",
        pooled_median(spans.get("service.append_ptb")) / 1e3,
        "ms",
    ));
    m.push(metric(
        "model.ptb_parse_ms",
        pooled_median(spans.get("model.ptb_parse")) / 1e3,
        "ms",
    ));
    m.push(metric("service.shard_build_ms", build_ms, "ms"));
    drop(svc);

    // --- The same replay with the service's metrics off ------------------
    let svc = fresh_service(inp.corpus, false);
    let (t_off, f) = replay(inp, &mut Local(&svc), None, || {});
    failed += f;
    m.push(metric(
        "obs.metrics_overhead_frac",
        t_on / t_off - 1.0,
        "frac",
    ));
    drop(svc);

    // --- Over the socket: compile misses, then the replay ----------------
    let svc = Arc::new(fresh_service(inp.corpus, true));
    let from = tracer.spans().len();
    for &q in &inp.probe {
        let ok = tracer.span("service.compile", q as u64, None, || {
            svc.compile(&inp.queries[q]).is_ok()
        });
        failed += u64::from(!ok);
    }
    let compile = self_us(tracer.spans(), from);
    m.push(metric(
        "service.compile_us",
        pooled_median(compile.get("service.compile")),
        "us",
    ));
    let server = serve(Arc::clone(&svc), "127.0.0.1:0", ServerConfig::default())
        .expect("bind a loopback port");
    let mut client = Client::connect(server.addr()).expect("connect to the loopback server");
    let from = tracer.spans().len();
    let (_, f) = replay(inp, &mut client, Some(tracer), || {});
    failed += f;
    drop(client);
    server.shutdown();
    let spans = self_us(tracer.spans(), from);
    m.push(metric(
        "server.page_overhead_us",
        pooled_median(spans.get("client.page")) - page_us,
        "us",
    ));
    m.push(metric(
        "server.eval_overhead_us",
        pooled_median(spans.get("client.eval")) - eval_us,
        "us",
    ));

    // --- Baselines on the fixture suite ----------------------------------
    let xpath = XPathEngine::build(inp.corpus);
    let from = tracer.spans().len();
    for c in fixtures::eval_cases() {
        let id = c.id as u64;
        let lp = engine.count(c.lpath).ok();
        for _ in 0..REPS {
            let tg = tracer.span("tgrep.count", id, None, || {
                inp.engines.tgrep.count(c.tgrep).ok()
            });
            let cs = tracer.span("corpussearch.count", id, None, || {
                inp.engines.cs.count(c.cs).ok()
            });
            let xp = c
                .xpath
                .map(|x| tracer.span("xpath.count", id, None, || xpath.count(x).ok()));
            let agree = tg == lp && cs == lp && xp.is_none_or(|x| x == lp);
            failed += u64::from(!agree);
        }
    }
    let base = self_us(tracer.spans(), from);
    m.push(metric(
        "tgrep.suite_geomean_us",
        geomean_of_medians(base.get("tgrep.count")),
        "us",
    ));
    m.push(metric(
        "corpussearch.suite_geomean_us",
        geomean_of_medians(base.get("corpussearch.count")),
        "us",
    ));
    m.push(metric(
        "xpath.suite_geomean_us",
        geomean_of_medians(base.get("xpath.count")),
        "us",
    ));
    (m, failed)
}

/// The traced `paper-wsj` run: the engine window (every other round
/// traced), then the per-layer probes on the fixture queries, with a
/// replay of three rounds of the same operations through the service.
pub fn paper(s: &crate::Settings) -> crate::Outcome {
    use crate::paper::{self, Op};
    let measured = paper::measure(s);
    let mut out = measured.out;
    let engines = Engines::build(&measured.corpus);
    out.attempted += measured.queries.len() as u64;
    out.failed += paper::cross_check(&engines);
    let queries: Vec<String> = measured.queries.iter().map(|q| (*q).to_string()).collect();
    // Drawn afresh from the seed: the timed loop's draws depend on how
    // many rounds fit in the window.
    let mut rng = crate::universe::Rng::new(s.seed);
    let mut stream = Vec::new();
    for _ in 0..3 {
        stream.extend(
            paper::round(queries.len(), &mut rng)
                .into_iter()
                .map(|op| match op {
                    Op::All(q) => Req::Eval(q),
                    Op::Page(q) => Req::Page(q),
                    Op::Count(q) => Req::Count(q),
                    Op::Batch(qs) => Req::Multi(qs),
                }),
        );
    }
    let appends = crate::universe::append_batches(s.seed, 3)
        .into_iter()
        .map(|b| (stream.len(), b))
        .collect();
    let inputs = Inputs {
        corpus: &measured.corpus,
        engines: &engines,
        queries: &queries,
        probe: (0..queries.len()).collect(),
        stream,
        appends,
    };
    let mut tracer = measured.tracer;
    let (metrics, failed) = probe(&inputs, &mut tracer);
    out.failed += failed;
    out.metrics = metrics;
    out.metrics.push(metric(
        "trace.overhead_frac",
        measured.trace_overhead,
        "frac",
    ));
    crate::write_traces(s, &[("paper".into(), &tracer)]);
    out
}
