//! `search-zipf`: two closed-loop socket clients against an in-process
//! `lpath-server` on `ServiceConfig::default()` and
//! `ServerConfig::default()`.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use lpath_bench::Engines;
use lpath_server::{serve, Client, ServerConfig};
use lpath_service::{Service, ServiceConfig};

use crate::check::verify;
use crate::report::{self, block_of, Op, Sample};
use crate::session::{Class, Session};
use crate::stats::median;
use crate::trace::Tracer;
use crate::universe::{append_batches, query_universe, Mix, Req, UNIVERSE};
use crate::{metric, peak_rss_mb, timed_setup, Outcome, Settings, SETUP_REPS};

/// Untimed requests per reader before the window opens (cache warm-up).
const WARM: usize = 1_500;
/// Requests of client 0's stream replayed in the traced run.
const REPLAY: usize = 3_000;
/// Most popular queries probed engine-side in the traced run.
const PROBE: usize = 64;

/// What one reader measured.
#[derive(Default)]
struct Reader {
    session: Session,
    /// Timed, untraced requests.
    samples: Vec<Sample>,
    /// Latencies (µs) of traced requests, for `trace.overhead_frac`.
    traced: Vec<f64>,
    tracer: Option<Tracer>,
}

fn reader(
    addr: std::net::SocketAddr,
    universe: &[String],
    s: &Settings,
    idx: u64,
    start: &Barrier,
) -> Reader {
    let mut client = Client::connect(addr).expect("connect to the loopback server");
    let mut mix = Mix::new(s.seed, idx, UNIVERSE);
    let mut out = Reader::default();
    let mut tracer = Tracer::new(s.trace);
    for _ in 0..WARM {
        let req = mix.next_req();
        out.session.exec(&mut client, universe, &req, None);
    }
    start.wait();
    let t0 = Instant::now();
    let mut n = 0u64;
    while t0.elapsed() < s.window() {
        n += 1;
        let req = mix.next_req();
        // The traced run traces every other request; the untraced half
        // is the baseline for `trace.overhead_frac`.
        let traced = s.trace && n.is_multiple_of(2);
        let trace = traced.then_some((&mut tracer, idx << 32 | n));
        let done = out.session.exec(&mut client, universe, &req, trace);
        if done.failed {
            continue;
        }
        if traced {
            out.traced.push(done.us);
            continue;
        }
        let op = match done.class {
            Class::Page => Op::Page,
            Class::Eval => Op::Eval,
            Class::Count => Op::Count,
            Class::Multi => Op::Batch,
            Class::Deeper | Class::Exists => Op::Other,
        };
        out.samples.push(Sample {
            block: block_of(t0.elapsed().as_secs_f64(), s.seconds),
            op,
            query: done.query.unwrap_or(0),
            us: done.us,
            lead: true,
        });
    }
    out.tracer = Some(tracer);
    out
}

/// Reader connections.
const READERS: usize = 2;

/// The `search-zipf` workload.
pub fn run(s: &Settings) -> Outcome {
    let corpus = s.corpus();
    let universe = query_universe(&corpus, s.universe_seed(), UNIVERSE);
    let (setup_s, server) = timed_setup(SETUP_REPS, || {
        let svc = Arc::new(Service::with_config(&corpus, ServiceConfig::default()));
        serve(svc, "127.0.0.1:0", ServerConfig::default()).expect("bind a loopback port")
    });
    let addr = server.addr();
    let start = Barrier::new(READERS);
    let rs: Vec<Reader> = std::thread::scope(|scope| {
        let hs: Vec<_> = (0..READERS as u64)
            .map(|i| {
                let (universe, start) = (&universe, &start);
                scope.spawn(move || reader(addr, universe, s, i, start))
            })
            .collect();
        hs.into_iter().map(|h| h.join().expect("reader")).collect()
    });
    let rss = peak_rss_mb();
    server.shutdown();

    // Re-check every response against a cache-disabled service over the
    // same corpus.
    let mut out = Outcome::default();
    let reference = Service::with_config(
        &corpus,
        ServiceConfig {
            result_cache_capacity: 0,
            plan_cache_capacity: 0,
            metrics: false,
            ..ServiceConfig::default()
        },
    );
    let records: Vec<_> = rs
        .iter()
        .flat_map(|r| r.session.records.iter().copied())
        .collect();
    let bad = verify(&records, |q| {
        reference
            .eval(&universe[q])
            .map(|rows| rows.iter().map(|&(t, n)| (t, n.0)).collect())
            .unwrap_or_default()
    });
    for &i in bad.iter().take(5) {
        let rec = &records[i];
        eprintln!("wrong answer: {:?} of '{}'", rec.kind, universe[rec.query]);
    }
    out.attempted += rs.iter().map(|r| r.session.attempted).sum::<u64>();
    out.failed += rs.iter().map(|r| r.session.failed).sum::<u64>() + bad.len() as u64;

    if s.trace {
        let untraced: Vec<f64> = rs
            .iter()
            .flat_map(|r| r.samples.iter().map(|x| x.us))
            .collect();
        let traced: Vec<f64> = rs.iter().flat_map(|r| r.traced.iter().copied()).collect();
        let overhead = median(&traced) / median(&untraced) - 1.0;
        let engines = Engines::build(&corpus);
        let mut mix = Mix::new(s.seed, 0, UNIVERSE);
        let stream: Vec<Req> = (0..REPLAY).map(|_| mix.next_req()).collect();
        // Three appends at 1/4, 1/2 and 3/4 of the replay load the write
        // path: generation bumps, tail-shard rebuilds and tokens resumed
        // across an append.
        let appends = append_batches(s.seed, 3)
            .into_iter()
            .enumerate()
            .map(|(i, b)| ((i + 1) * REPLAY / 4, b))
            .collect();
        let inputs = crate::layers::Inputs {
            corpus: &corpus,
            engines: &engines,
            queries: &universe,
            probe: (0..PROBE).collect(),
            stream,
            appends,
        };
        let mut tracer = Tracer::new(true);
        let (metrics, failed) = crate::layers::probe(&inputs, &mut tracer);
        out.failed += failed;
        out.metrics = metrics;
        out.metrics
            .push(metric("trace.overhead_frac", overhead, "frac"));
        let mut tracers: Vec<(String, &Tracer)> = vec![("layers".into(), &tracer)];
        for (i, r) in rs.iter().enumerate() {
            tracers.extend(r.tracer.as_ref().map(|t| (format!("reader{i}"), t)));
        }
        crate::write_traces(s, &tracers);
        return out;
    }

    let samples: Vec<Sample> = rs.iter().flat_map(|r| r.samples.iter().copied()).collect();
    out.metrics = report::end_to_end(&samples, s.seconds, setup_s, rss);
    out
}
