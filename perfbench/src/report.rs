//! End-to-end metrics from timed samples.
//!
//! For the socket workload ([`end_to_end`]) the measured window is cut
//! into [`BLOCKS`] equal blocks; throughput, geomeans and medians are
//! computed per block and the median over the blocks is reported, so a
//! burst of outside load that hits one block does not move the result.
//! The engine workload ([`engine_end_to_end`]) repeats the same calls
//! hundreds of times, so it reports each call's best time over the
//! whole window instead. The tails, printed on stderr, are taken over
//! the whole window.

use std::collections::BTreeMap;

use crate::stats::{best, geomean, highest_supported_percentile, median, percentile};
use crate::{metric, Metric};

/// Blocks per measured window.
pub const BLOCKS: usize = 10;

/// Which end-to-end metric a sample feeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// First page.
    Page,
    /// All rows.
    Eval,
    /// Count.
    Count,
    /// Batch.
    Batch,
    /// Anything else (deeper pages, exists): throughput and tail only.
    Other,
}

/// One completed, timed operation.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Block of the window it completed in (search-zipf; the engine
    /// workload does not use blocks).
    pub block: usize,
    /// Its kind.
    pub op: Op,
    /// Its query, for per-query medians.
    pub query: usize,
    /// Latency in microseconds.
    pub us: f64,
    /// Whether it is one of the first calls of its visit (paper-wsj) or
    /// any request (search-zipf): the samples the tail percentiles see.
    pub lead: bool,
}

/// The block a sample completing `elapsed` seconds into a `window`-second
/// window belongs to.
pub fn block_of(elapsed: f64, window: f64) -> usize {
    ((elapsed / window * BLOCKS as f64) as usize).min(BLOCKS - 1)
}

/// Print the tails on stderr: for first pages and for all requests, the
/// highest percentile with ten lead samples beyond it. They are not
/// metrics: on a shared host a tail measures the neighbours' load more
/// than the program, and moved by up to 0.28 of its median between runs
/// of the same code.
fn note_tails(samples: &[Sample]) {
    for (what, op) in [("page", Some(Op::Page)), ("request", None)] {
        let mut v: Vec<f64> = samples
            .iter()
            .filter(|s| s.lead && op.is_none_or(|op| s.op == op))
            .map(|s| s.us)
            .collect();
        v.sort_by(f64::total_cmp);
        match highest_supported_percentile(v.len()) {
            Some(p) => eprintln!(
                "{what} p{} {:.1} us over {} samples",
                p as f64 / 10.0,
                percentile(&v, p),
                v.len()
            ),
            None => eprintln!("{what}: {} samples, too few for a tail", v.len()),
        }
    }
}

/// Geometric mean over queries of each query's median latency.
pub fn per_query_geomean<'a>(samples: impl Iterator<Item = &'a Sample>) -> f64 {
    let mut by_query: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for s in samples {
        by_query.entry(s.query).or_default().push(s.us);
    }
    geomean(&by_query.values().map(|v| median(v)).collect::<Vec<_>>())
}

/// Each query's best time over `samples`, in query order.
fn per_query_best<'a>(samples: impl Iterator<Item = &'a Sample>) -> Vec<f64> {
    let mut by_query: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for s in samples {
        by_query.entry(s.query).or_default().push(s.us);
    }
    by_query.values().map(|v| best(v)).collect()
}

/// Every end-to-end metric of one run of the same engine calls over and
/// over. A call (one operation on one query, or one batch) has as its
/// latency its best time over the whole window. The medians and geomeans
/// are taken over the calls, each counted once, and throughput is the
/// calls per second of one pass over them all. The tails on stderr are
/// taken over the lead calls of every visit, so every call weighs the
/// same in them.
pub fn engine_end_to_end(samples: &[Sample], setup_s: f64, rss_mb: f64) -> Vec<Metric> {
    note_tails(samples);
    let calls = |op: Op| per_query_best(samples.iter().filter(move |s| s.op == op));
    let all: Vec<f64> = [Op::Eval, Op::Page, Op::Count, Op::Batch]
        .into_iter()
        .flat_map(calls)
        .collect();
    vec![
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", rss_mb, "MiB"),
        metric(
            "throughput_rps",
            all.len() as f64 / all.iter().sum::<f64>() * 1e6,
            "1/s",
        ),
        metric("all_rows_geomean_us", geomean(&calls(Op::Eval)), "us"),
        metric("first_page_geomean_us", geomean(&calls(Op::Page)), "us"),
        metric("page_p50_us", median(&calls(Op::Page)), "us"),
        metric("count_geomean_us", geomean(&calls(Op::Count)), "us"),
        metric("batch_p50_us", median(&calls(Op::Batch)), "us"),
    ]
}

/// Every end-to-end metric of one run.
pub fn end_to_end(samples: &[Sample], window: f64, setup_s: f64, rss_mb: f64) -> Vec<Metric> {
    note_tails(samples);
    let mut blocks: Vec<Vec<Sample>> = vec![Vec::new(); BLOCKS];
    for s in samples {
        blocks[s.block].push(*s);
    }
    let per_block = |f: &dyn Fn(&[Sample]) -> f64| -> f64 {
        median(
            &blocks
                .iter()
                .filter(|b| !b.is_empty())
                .map(|b| f(b))
                .collect::<Vec<_>>(),
        )
    };
    let of = |op: Op| {
        move |b: &[Sample]| -> Vec<f64> { b.iter().filter(|s| s.op == op).map(|s| s.us).collect() }
    };
    let block_secs = window / BLOCKS as f64;
    vec![
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", rss_mb, "MiB"),
        metric(
            "throughput_rps",
            per_block(&|b| b.len() as f64 / block_secs),
            "1/s",
        ),
        metric(
            "all_rows_geomean_us",
            per_block(&|b| per_query_geomean(b.iter().filter(|s| s.op == Op::Eval))),
            "us",
        ),
        metric(
            "first_page_geomean_us",
            per_block(&|b| per_query_geomean(b.iter().filter(|s| s.op == Op::Page))),
            "us",
        ),
        metric(
            "page_p50_us",
            per_block(&|b| median(&of(Op::Page)(b))),
            "us",
        ),
        // A geomean, not a median: count latencies are cache hits or
        // misses, and with appends the median sits in the gap between
        // the two modes and jumps with the hit rate.
        metric(
            "count_geomean_us",
            per_block(&|b| per_query_geomean(b.iter().filter(|s| s.op == Op::Count))),
            "us",
        ),
        metric(
            "batch_p50_us",
            per_block(&|b| median(&of(Op::Batch)(b))),
            "us",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(block: usize, op: Op, query: usize, us: f64) -> Sample {
        Sample {
            block,
            op,
            query,
            us,
            lead: true,
        }
    }

    #[test]
    fn a_burst_in_one_block_does_not_move_block_medians() {
        let mut v = Vec::new();
        for b in 0..BLOCKS {
            let slow = if b == 3 { 100.0 } else { 1.0 };
            for q in 0..4 {
                v.push(s(b, Op::Eval, q, 10.0 * slow));
                v.push(s(b, Op::Page, q, 2.0 * slow));
            }
        }
        let m = end_to_end(&v, 10.0, 1.0, 1.0);
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap().value;
        assert!((get("all_rows_geomean_us") - 10.0).abs() < 1e-9);
        assert!((get("page_p50_us") - 2.0).abs() < 1e-9);
        assert!((get("throughput_rps") - 8.0).abs() < 1e-9);
    }

    #[test]
    fn engine_metrics_take_each_calls_best_time() {
        let mut v = Vec::new();
        // Query q costs q + 1 µs at full speed; one call in 20 runs at
        // full speed, the rest up to twice as slow.
        for b in 0..BLOCKS {
            for q in 0..3 {
                for i in 0..20 {
                    let slow = if b == 4 && i == 7 {
                        1.0
                    } else {
                        1.5 + f64::from(i % 2) / 2.0
                    };
                    v.push(s(b, Op::Page, q, (q + 1) as f64 * slow));
                }
            }
        }
        let m = engine_end_to_end(&v, 1.0, 1.0);
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap().value;
        assert!((get("first_page_geomean_us") - 6f64.cbrt()).abs() < 1e-9);
        assert!((get("page_p50_us") - 2.0).abs() < 1e-9);
        // Three calls of 1 + 2 + 3 µs: 0.5 calls per µs.
        assert!((get("throughput_rps") - 0.5e6).abs() < 1e-3);
    }

    #[test]
    fn blocks_cover_the_window() {
        assert_eq!(block_of(0.0, 20.0), 0);
        assert_eq!(block_of(19.99, 20.0), BLOCKS - 1);
        assert_eq!(block_of(25.0, 20.0), BLOCKS - 1);
    }
}
