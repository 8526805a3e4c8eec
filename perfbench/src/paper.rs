//! `paper-wsj`: the paper's Figure 7 experiment on the engine itself.
//!
//! Every round runs each of the 23 fixture queries all-rows
//! (`Engine::query`), as page 1 (`Engine::query_limit(q, 0, 10)`) and as
//! a count (`Engine::count`), plus the queries in three fixed batches of
//! up to [`BATCH`] run all-rows back to back, in an order drawn from the
//! seed.
//! No service cache, shard or socket is involved. Only engine calls that
//! predate the service layer are used, so the same code also builds
//! against older commits of the engine (see `SENSITIVITY.md`).

use std::collections::BTreeMap;
use std::time::Instant;

use lpath_bench::{fixtures, Engines};
use lpath_core::Engine;
use lpath_model::Corpus;

use crate::check::digest_rows;
use crate::report::{self, Sample};
use crate::stats::{best, median};
use crate::trace::Tracer;
use crate::universe::{Rng, BATCH};
use crate::{peak_rss_mb, timed_setup, Outcome, Settings, SETUP_REPS};

/// Rows in the page-1 request.
const FIRST_PAGE: usize = 10;

/// One timed engine operation on fixture queries (by index).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// `Engine::query`.
    All(usize),
    /// `Engine::query_limit(q, 0, 10)`.
    Page(usize),
    /// `Engine::count`.
    Count(usize),
    /// `Engine::query` on each query in turn: the unshared cost of the
    /// batch that `eval_multi` runs on search-zipf.
    Batch(Vec<usize>),
}

impl Op {
    fn span_name(&self) -> &'static str {
        match self {
            Op::All(_) => "engine.query",
            Op::Page(_) => "engine.query_limit",
            Op::Count(_) => "engine.count",
            Op::Batch(_) => "engine.query_batch",
        }
    }

    fn sample(&self, us: f64, lead: bool) -> Sample {
        // A batch is keyed by its first query, which no other batch has.
        let (op, query) = match *self {
            Op::All(q) => (report::Op::Eval, q),
            Op::Page(q) => (report::Op::Page, q),
            Op::Count(q) => (report::Op::Count, q),
            Op::Batch(ref qs) => (report::Op::Batch, qs[0]),
        };
        Sample {
            block: 0,
            op,
            query,
            us,
            lead,
        }
    }
}

/// The reference answers of one query, computed before timing.
struct Expected {
    all: u64,
    page: u64,
    count: usize,
}

fn rows(r: &[(u32, lpath_model::NodeId)]) -> impl Iterator<Item = (u32, u32)> + '_ {
    r.iter().map(|&(t, n)| (t, n.0))
}

/// Fewest consecutive calls of an operation per visit. The paper's
/// method (§5.1) also times each query several times in a row; a single
/// cold call of a microsecond query mostly measures cache refills after
/// the previous, heavier query.
const REPEAT: usize = 3;

/// A visit keeps calling a fast operation until it has taken this long
/// (µs) or made [`MAX_CALLS`] calls, so a microsecond query gets as many
/// samples as its time allows and not just as many as a slow one.
const VISIT_US: f64 = 2_000.0;

/// Most calls per visit.
const MAX_CALLS: usize = 1_000;

/// One round's operations over `n` queries, shuffled by `rng`. The
/// batches are the queries in fixture order, cut into runs of
/// [`BATCH`], so each batch is the same work in every round and run.
pub fn round(n: usize, rng: &mut Rng) -> Vec<Op> {
    let ids: Vec<usize> = (0..n).collect();
    let mut ops: Vec<Op> = (0..n)
        .flat_map(|q| [Op::All(q), Op::Page(q), Op::Count(q)])
        .chain(ids.chunks(BATCH).map(|c| Op::Batch(c.to_vec())))
        .collect();
    rng.shuffle(&mut ops);
    ops
}

/// Time `f` in microseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let v = f();
    (t.elapsed().as_secs_f64() * 1e6, v)
}

/// Run one operation; returns the time of the engine calls alone (the
/// answers are checked after the clock stops) and whether they were
/// right.
fn execute(engine: &Engine, queries: &[&str], want: &[Expected], op: &Op) -> (f64, bool) {
    match *op {
        Op::All(q) => {
            let (us, r) = timed(|| engine.query(queries[q]));
            (us, r.is_ok_and(|r| digest_rows(rows(&r)) == want[q].all))
        }
        Op::Page(q) => {
            let (us, r) = timed(|| engine.query_limit(queries[q], 0, FIRST_PAGE));
            (us, r.is_ok_and(|r| digest_rows(rows(&r)) == want[q].page))
        }
        Op::Count(q) => {
            let (us, r) = timed(|| engine.count(queries[q]));
            (us, r.is_ok_and(|c| c == want[q].count))
        }
        Op::Batch(ref qs) => {
            let (us, results) = timed(|| {
                qs.iter()
                    .map(|&q| engine.query(queries[q]))
                    .collect::<Vec<_>>()
            });
            let ok = results.iter().zip(qs).all(|(r, &q)| {
                r.as_ref()
                    .is_ok_and(|r| digest_rows(rows(r)) == want[q].all)
            });
            (us, ok)
        }
    }
}

/// What the measured window of one `paper-wsj` run leaves behind.
pub struct Measured {
    /// Operations attempted and failed so far.
    pub out: Outcome,
    /// The base corpus.
    pub corpus: Corpus,
    /// The fixture queries, in fixture order.
    pub queries: Vec<&'static str>,
    /// Median set-up time (s).
    pub setup_s: f64,
    /// Peak RSS (MiB), read right after the window.
    pub rss_mb: f64,
    /// Timed, untraced operations: the lead calls of every visit and
    /// each call that was the best of its kind when it ran.
    pub plain: Vec<Sample>,
    /// Traced over untraced median round time, minus one (traced run).
    pub trace_overhead: f64,
    /// Spans of the traced rounds.
    pub tracer: Tracer,
}

/// Set up, take reference answers and run the measured window. With
/// `--trace 1` every other round is traced.
pub fn measure(s: &Settings) -> Measured {
    let corpus = s.corpus();
    let (setup_s, engine) = timed_setup(SETUP_REPS, || Engine::build(&corpus));
    let queries: Vec<&'static str> = fixtures::eval_cases().iter().map(|c| c.lpath).collect();

    // Reference answers, untimed; page 1 must be the all-rows prefix.
    let mut out = Outcome::default();
    let mut want = Vec::with_capacity(queries.len());
    for (c, q) in fixtures::eval_cases().iter().zip(&queries) {
        let all = engine.query(q).expect("fixture query evaluates");
        let page = engine
            .query_limit(q, 0, FIRST_PAGE)
            .expect("fixture query pages");
        out.attempted += 1;
        if page[..] != all[..FIRST_PAGE.min(all.len())] {
            eprintln!("Q{}: page 1 is not the all-rows prefix", c.id);
            out.failed += 1;
        }
        want.push(Expected {
            all: digest_rows(rows(&all)),
            page: digest_rows(rows(&page)),
            count: all.len(),
        });
    }

    let mut rng = Rng::new(s.seed);
    let mut tracer = Tracer::new(s.trace);
    // One untimed warm-up round.
    for op in round(queries.len(), &mut rng) {
        out.attempted += 1;
        out.failed += u64::from(!execute(&engine, &queries, &want, &op).1);
    }
    let mut plain: Vec<Sample> = Vec::new();
    let mut best_us: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    let start = Instant::now();
    let mut request = 0u64;
    // Whole-round wall times, untraced and traced.
    let (mut plain_rounds, mut traced_rounds) = (Vec::new(), Vec::new());
    'timed: for r in 0u64.. {
        // The traced run traces every other round; the rest measure the
        // same work untraced, for `trace.overhead_frac`.
        let tracing = s.trace && r % 2 == 1;
        let round_start = Instant::now();
        for op in round(queries.len(), &mut rng) {
            let (mut calls, mut spent) = (0, 0.0);
            while calls < REPEAT || (spent < VISIT_US && calls < MAX_CALLS) {
                if start.elapsed() >= s.window() {
                    break 'timed;
                }
                request += 1;
                // A traced round traces the lead calls of each visit; the
                // spans of every call of a microsecond query would take
                // hundreds of megabytes.
                let (us, ok) = if tracing && calls < REPEAT {
                    let root = tracer.open("request", request, None);
                    let child = tracer.open(op.span_name(), request, Some(root));
                    let r = execute(&engine, &queries, &want, &op);
                    tracer.close(child);
                    tracer.close(root);
                    r
                } else {
                    execute(&engine, &queries, &want, &op)
                };
                out.attempted += 1;
                out.failed += u64::from(!ok);
                if !tracing {
                    let x = op.sample(us, calls < REPEAT);
                    // A call past the lead ones is kept only when it is
                    // the best of its kind so far: the best time is all
                    // the report takes from it, and keeping every call of
                    // a microsecond query would put the samples in
                    // `peak_rss_mb`.
                    let best = best_us.entry((x.op as usize, x.query)).or_insert(f64::MAX);
                    if x.lead || us < *best {
                        *best = best.min(us);
                        plain.push(x);
                    }
                }
                calls += 1;
                spent += us;
            }
        }
        let t = round_start.elapsed().as_secs_f64();
        if tracing {
            &mut traced_rounds
        } else {
            &mut plain_rounds
        }
        .push(t);
    }
    let rss_mb = peak_rss_mb();
    drop(engine);
    Measured {
        out,
        corpus,
        queries,
        setup_s,
        rss_mb,
        plain,
        trace_overhead: median(&traced_rounds) / median(&plain_rounds) - 1.0,
        tracer,
    }
}

/// The cross-engine check, after the window: LPath, TGrep2 and
/// CorpusSearch agree on every fixture query's count. Returns the
/// number of queries on which they disagree.
pub fn cross_check(engines: &Engines<'_>) -> u64 {
    let mut failed = 0;
    for c in fixtures::eval_cases() {
        let (lp, tg, cs) = engines.counts(c.id);
        if lp != tg || lp != cs {
            eprintln!(
                "Q{}: lpath {lp}, tgrep {tg}, corpussearch {cs} disagree",
                c.id
            );
            failed += 1;
        }
    }
    failed
}

/// The untraced `paper-wsj` run: the end-to-end metrics.
pub fn run(s: &Settings) -> Outcome {
    let m = measure(s);
    let mut out = m.out;
    out.attempted += m.queries.len() as u64;
    out.failed += cross_check(&Engines::build(&m.corpus));

    // Per-query best times on stderr: the breakdown behind the geomeans.
    for (q, c) in fixtures::eval_cases().iter().enumerate() {
        let best_of = |op: report::Op| {
            let v: Vec<f64> = m
                .plain
                .iter()
                .filter(|x| x.op == op && x.query == q)
                .map(|x| x.us)
                .collect();
            best(&v)
        };
        eprintln!(
            "Q{:<2} all_rows_us {:>10.1} first_page_us {:>10.1}",
            c.id,
            best_of(report::Op::Eval),
            best_of(report::Op::Page)
        );
    }
    out.metrics = report::engine_end_to_end(&m.plain, m.setup_s, m.rss_mb);
    out
}
