//! Deterministic inputs: the query universe (from the corpus seed), the
//! Zipf-ranked request mix and the append batches (from the mix seed).

use std::collections::HashSet;

use lpath_bench::fixtures;
use lpath_model::{generate, Corpus, GenConfig};

/// SplitMix64: a small deterministic generator, so every input is a
/// pure function of its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Distinct queries in search-zipf's universe: 8× the result
/// cache (512 entries) and 2× the plan cache (2,048) of
/// `ServiceConfig::default()`.
pub const UNIVERSE: usize = 4_096;

/// Tags and words the generated shapes draw from.
const TOP_TAGS: usize = 28;
const TOP_WORDS: usize = 40;

/// The query shapes instantiated over frequent tags (`A`, `B`, `C`) and
/// words (`w`); they follow the shapes of the 23 fixture queries.
const SHAPES: [&str; 16] = [
    "//A->B",
    "//A/B-->C",
    "//A{/B$}",
    "//A{//B$}",
    "//A[not(//B)]",
    "//A[//_[@lex=w]]",
    "//A/B/C",
    "//A=>B",
    "//A/B",
    "//A[//B/C]",
    "//A{/B-->C}",
    "//A<-B",
    "//A[->B]",
    "//A==>B",
    "//A\\B",
    "//_[@lex=w]",
];

fn plain(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '-')
}

/// The query universe over `corpus`, ordered by Zipf rank (index 0 is
/// the most popular). The 23 fixture queries take the even ranks of the
/// head (1, 3, …, 45); generated shape instances fill the rest in an
/// order drawn from `seed`. Every query parses.
pub fn query_universe(corpus: &Corpus, seed: u64, size: usize) -> Vec<String> {
    let tags: Vec<String> = corpus
        .top_tags(TOP_TAGS * 2)
        .into_iter()
        .map(|(t, _)| t)
        .filter(|t| plain(t))
        .take(TOP_TAGS)
        .collect();
    let words: Vec<String> = corpus
        .word_histogram()
        .into_iter()
        .map(|(w, _)| corpus.resolve(w).to_string())
        .filter(|w| plain(w))
        .take(TOP_WORDS)
        .collect();
    let fixture: Vec<String> = fixtures::eval_cases()
        .iter()
        .map(|c| c.lpath.to_string())
        .collect();
    let mut seen: HashSet<String> = fixture.iter().cloned().collect();
    let mut rng = Rng::new(seed);
    let mut generated = Vec::with_capacity(size);
    let want = size.saturating_sub(fixture.len());
    while generated.len() < want {
        let shape = SHAPES[rng.below(SHAPES.len())];
        let mut q = String::new();
        for ch in shape.chars() {
            match ch {
                'A' | 'B' | 'C' => q.push_str(&tags[rng.below(tags.len())]),
                'w' => q.push_str(&words[rng.below(words.len())]),
                _ => q.push(ch),
            }
        }
        if lpath_syntax::parse(&q).is_ok() && seen.insert(q.clone()) {
            generated.push(q);
        }
    }
    let mut out = Vec::with_capacity(size);
    let mut fixture = fixture.into_iter();
    let mut generated = generated.into_iter();
    while out.len() < size {
        let next = if out.len() % 2 == 0 {
            fixture.next().or_else(|| generated.next())
        } else {
            generated.next().or_else(|| fixture.next())
        };
        out.extend(next);
    }
    out
}

/// Samples Zipf ranks (0-based) with exponent 1.0.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks.
    pub fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Members of one `eval_multi` batch.
pub const BATCH: usize = 8;
/// Rows per page in the search mix.
pub const PAGE: usize = 25;

/// One reader request of the search mix (queries are universe ranks).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Req {
    /// First page: `eval_page(q, no token, 25)`.
    Page(usize),
    /// The next page of a token held by the client: the first value
    /// picks which held token; with none held, a first page of the
    /// second value's query is sent instead.
    Deeper(u64, usize),
    /// `count(q)`.
    Count(usize),
    /// Full `eval(q)`.
    Eval(usize),
    /// `exists(q)`.
    Exists(usize),
    /// `eval_multi` over a batch.
    Multi(Vec<usize>),
}

/// The request stream of one client: ~50% first pages, ~10% deeper
/// pages, ~20% counts, ~10% evals, ~5% exists, ~5% batches of 8. These
/// shares, the page limit and the batch size are assumed, not taken from
/// measured traffic (see the README).
#[derive(Clone, Debug)]
pub struct Mix {
    rng: Rng,
    zipf: Zipf,
}

impl Mix {
    /// Client `client`'s stream for `seed` over a universe of `n`.
    pub fn new(seed: u64, client: u64, n: usize) -> Self {
        Mix {
            rng: Rng::new(seed ^ (client + 1).wrapping_mul(0xA24B_AED4_963E_E407)),
            zipf: Zipf::new(n),
        }
    }

    /// The next request.
    pub fn next_req(&mut self) -> Req {
        let u = self.rng.unit();
        let q = self.zipf.sample(&mut self.rng);
        match u {
            u if u < 0.50 => Req::Page(q),
            u if u < 0.60 => Req::Deeper(self.rng.next_u64(), q),
            u if u < 0.80 => Req::Count(q),
            u if u < 0.90 => Req::Eval(q),
            u if u < 0.95 => Req::Exists(q),
            _ => Req::Multi(
                std::iter::once(q)
                    .chain((1..BATCH).map(|_| self.zipf.sample(&mut self.rng)))
                    .collect(),
            ),
        }
    }
}

/// Trees per append batch.
pub const APPEND_TREES: usize = 20;

/// `count` WSJ-profile append batches in bracketed form, seeded apart
/// from the base corpus.
pub fn append_batches(seed: u64, count: usize) -> Vec<String> {
    (0..count as u64)
        .map(|i| {
            let cfg = GenConfig::wsj(APPEND_TREES)
                .with_seed(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ (0xA99E_0000 + i));
            generate(&cfg).to_ptb_string()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universe_is_a_function_of_the_seed_and_every_query_parses() {
        let corpus = lpath_bench::wsj_corpus(150);
        let a = query_universe(&corpus, 7, 600);
        let b = query_universe(&corpus, 7, 600);
        assert_eq!(a, b);
        assert_eq!(a.len(), 600);
        assert_eq!(a.iter().collect::<HashSet<_>>().len(), 600, "distinct");
        assert_ne!(a, query_universe(&corpus, 8, 600));
        for q in &a {
            assert!(lpath_syntax::parse(q).is_ok(), "{q}");
        }
        // The fixture queries sit on the even head ranks.
        assert_eq!(a[0], fixtures::eval_case(1).lpath);
        assert_eq!(a[44], fixtures::eval_case(23).lpath);
    }

    #[test]
    fn mix_is_deterministic_and_close_to_its_shares() {
        let draw = |seed| {
            let mut m = Mix::new(seed, 0, UNIVERSE);
            (0..20_000).map(|_| m.next_req()).collect::<Vec<_>>()
        };
        let a = draw(3);
        assert_eq!(a, draw(3));
        assert_ne!(a, draw(4));
        let share = |f: fn(&Req) -> bool| a.iter().filter(|r| f(r)).count() as f64 / 20_000.0;
        assert!((share(|r| matches!(r, Req::Page(_))) - 0.50).abs() < 0.02);
        assert!((share(|r| matches!(r, Req::Count(_))) - 0.20).abs() < 0.02);
        assert!((share(|r| matches!(r, Req::Multi(_))) - 0.05).abs() < 0.01);
    }

    #[test]
    fn zipf_head_dominates() {
        let z = Zipf::new(UNIVERSE);
        let mut rng = Rng::new(1);
        let n = 50_000;
        let top = (0..n).filter(|_| z.sample(&mut rng) == 0).count() as f64 / n as f64;
        // 1 / H(4096) ≈ 0.112.
        assert!((top - 0.112).abs() < 0.01, "{top}");
    }

    #[test]
    fn append_batches_are_seeded_and_parse() {
        let a = append_batches(5, 2);
        assert_eq!(a, append_batches(5, 2));
        assert_ne!(a[0], a[1]);
        let c = lpath_model::ptb::parse_str(&a[0]).expect("bracketed");
        assert_eq!(c.trees().len(), APPEND_TREES);
    }
}
