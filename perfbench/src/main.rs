//! The LPath benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-wsj --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `paper-wsj` (the paper's Figure 7 queries straight on the
//! engine) and `search-zipf` (two closed-loop socket clients over a
//! Zipf-ranked query universe). `--trace 0` prints the end-to-end metrics,
//! `--trace 1` the per-layer ones. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.

#![forbid(unsafe_code)]
// The paper-only build leaves the search-workload inputs unused.
#![cfg_attr(not(feature = "serving"), allow(dead_code))]

mod check;
#[cfg(feature = "serving")]
mod layers;
mod paper;
mod report;
#[cfg(feature = "serving")]
mod serve;
#[cfg(feature = "serving")]
mod session;
mod stats;
mod trace;
mod universe;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use lpath_model::{generate, Corpus, GenConfig};

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (warm-up included: every response is checked).
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// Metrics, end-to-end or per-layer depending on `--trace`.
    pub metrics: Vec<Metric>,
}

/// Command-line settings.
#[derive(Clone, Debug)]
pub struct Settings {
    /// Workload name.
    pub workload: String,
    /// Mix seed: request order, request stream, append batches.
    pub seed: u64,
    /// Corpus seed: the base corpus and the query universe. `None` is
    /// the benchmark-default WSJ corpus.
    pub corpus_seed: Option<u64>,
    /// Length of the measured window.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub out_dir: String,
}

impl Settings {
    /// The base corpus.
    pub fn corpus(&self) -> Corpus {
        let sentences = lpath_bench::default_wsj_sentences();
        match self.corpus_seed {
            None => lpath_bench::wsj_corpus(sentences),
            Some(s) => generate(&GenConfig::wsj(sentences).with_seed(s)),
        }
    }

    /// The seed the query universe is drawn from.
    pub fn universe_seed(&self) -> u64 {
        self.corpus_seed.unwrap_or(0x5EED_0FC0_4B05)
    }

    /// The measured window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

const USAGE: &str = "usage: lpath-perfbench --workload <paper-wsj|search-zipf> \
--seed <n> --seconds <s> --trace <0|1> [--corpus-seed <n>] [--out <dir>]";

fn parse_args() -> Result<Settings, String> {
    let mut s = Settings {
        workload: String::new(),
        seed: 1,
        corpus_seed: None,
        seconds: 10.0,
        trace: false,
        out_dir: ".bench_out".into(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let val = args.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => s.workload = val,
            "--seed" => s.seed = num(&val)?,
            "--corpus-seed" => s.corpus_seed = Some(num(&val)?),
            "--seconds" => {
                s.seconds = val.parse().map_err(|e| format!("--seconds {val}: {e}"))?;
            }
            "--trace" => s.trace = num(&val)? != 0,
            "--out" => s.out_dir = val,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if s.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(s)
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `reps` timed runs of `build`; returns it with the last
/// built value (earlier ones are dropped before the next build).
pub fn timed_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        let v = build();
        times.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    (stats::median(&times), last.expect("at least one setup"))
}

/// Write the traced run's spans to `<out>/trace-<workload>-<seed>.json`,
/// one array per tracer.
pub fn write_traces(s: &Settings, tracers: &[(String, &trace::Tracer)]) {
    let mut json = String::from("{\n");
    for (i, (name, t)) in tracers.iter().enumerate() {
        let _ = write!(
            json,
            "{}\"{name}\": {}",
            if i > 0 { ",\n" } else { "" },
            t.to_json()
        );
    }
    json.push_str("}\n");
    let path = format!("{}/trace-{}-{}.json", s.out_dir, s.workload, s.seed);
    let written = std::fs::create_dir_all(&s.out_dir).and_then(|()| std::fs::write(&path, json));
    match written {
        Ok(()) => eprintln!("spans written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

fn run(s: &Settings) -> Result<Outcome, String> {
    match s.workload.as_str() {
        #[cfg(feature = "serving")]
        "paper-wsj" if s.trace => Ok(layers::paper(s)),
        "paper-wsj" if !s.trace => Ok(paper::run(s)),
        #[cfg(feature = "serving")]
        "search-zipf" => Ok(serve::run(s)),
        other => Err(format!(
            "workload '{other}' with --trace {} is not built in",
            u8::from(s.trace)
        )),
    }
}

fn render(o: &Outcome) -> String {
    let mut m = String::new();
    for (i, x) in o.metrics.iter().enumerate() {
        let v = if x.value.is_finite() { x.value } else { 0.0 };
        let _ = write!(
            m,
            "{}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            x.name,
            x.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        o.failed == 0 && o.attempted > 0,
        o.attempted,
        o.failed
    )
}

fn main() -> ExitCode {
    let settings = match parse_args() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&settings) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for x in &outcome.metrics {
        println!("{:<36} {:>14.3} {}", x.name, x.value, x.unit);
    }
    println!("{}", render(&outcome));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
