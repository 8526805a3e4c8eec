//! Property test for index probes: `Index::range` against the plain
//! lexicographic binary search over the whole sorted permutation.
//!
//! The index narrows a probe through its leading-value directory and
//! one key column at a time, reading clustered key columns straight
//! from the table. Whatever route it takes, it must return the very
//! slice of the permutation the reference search returns: the same
//! start position and the same length, empty windows included, since
//! cursors and checkpoints keep positions into that slice.
//!
//! The second property drives one probe memo through sequences of
//! probes, as a join step does: repeated and advancing prefixes, prefix
//! lengths that change mid-sequence, ascending runs for the finger
//! search, and the same memo moving between indexes. Each result must
//! be the slice a fresh memo finds, and the reference slice.

use std::cmp::Ordering;
use std::ops::Bound;

use lpath_relstore::{ColId, Index, ProbeMemo, RowId, Schema, Table, Value};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const NCOLS: usize = 4;
/// Stored values are drawn from `0..DOMAIN`; probes also use
/// `DOMAIN` and `DOMAIN + 1`, which no row holds.
const DOMAIN: u32 = 4;

/// Small tables over a small domain, with exact duplicate rows.
fn arb_rows() -> impl Strategy<Value = Vec<[Value; NCOLS]>> {
    prop::collection::vec(
        (
            [0u32..DOMAIN, 0u32..DOMAIN, 0u32..DOMAIN, 0u32..DOMAIN],
            1usize..3,
        ),
        0..40,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .flat_map(|(row, copies)| std::iter::repeat_n(row, copies))
            .collect()
    })
}

/// A key of 1 to 4 distinct columns in random order.
fn random_key(rng: &mut SmallRng) -> Vec<ColId> {
    let mut cols: Vec<u16> = (0..NCOLS as u16).collect();
    for i in (1..cols.len()).rev() {
        cols.swap(i, rng.gen_range(0..=i));
    }
    cols.truncate(rng.gen_range(1..=NCOLS));
    cols.into_iter().map(ColId).collect()
}

fn random_bound(rng: &mut SmallRng) -> Bound<Value> {
    let v = rng.gen_range(0..DOMAIN + 2);
    match rng.gen_range(0..3u32) {
        0 => Bound::Unbounded,
        1 => Bound::Included(v),
        _ => Bound::Excluded(v),
    }
}

/// The reference: one lexicographic binary search for each end of the
/// window over the whole permutation `full`, comparing every prefix
/// column of a row before its next column.
fn reference<'a>(
    full: &'a [RowId],
    t: &Table,
    key: &[ColId],
    prefix: &[Value],
    lo: Bound<Value>,
    hi: Bound<Value>,
) -> &'a [RowId] {
    let cmp_prefix = |r: RowId| {
        key.iter()
            .zip(prefix)
            .map(|(&k, want)| t.value(r, k).cmp(want))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    };
    let next = |r: RowId| t.value(r, key[prefix.len()]);
    let start = full.partition_point(|&r| match cmp_prefix(r) {
        Ordering::Less => true,
        Ordering::Greater => false,
        Ordering::Equal => match lo {
            Bound::Unbounded => false,
            Bound::Included(v) => next(r) < v,
            Bound::Excluded(v) => next(r) <= v,
        },
    });
    let end = full.partition_point(|&r| match cmp_prefix(r) {
        Ordering::Less => true,
        Ordering::Greater => false,
        Ordering::Equal => match hi {
            Bound::Unbounded => true,
            Bound::Included(v) => next(r) <= v,
            Bound::Excluded(v) => next(r) < v,
        },
    });
    &full[start..end.max(start)]
}

/// Position of `part` within `full`, for failure messages.
fn offset(full: &[RowId], part: &[RowId]) -> isize {
    (part.as_ptr() as isize).wrapping_sub(full.as_ptr() as isize)
        / std::mem::size_of::<RowId>() as isize
}

/// A table of `rows` clustered by a random key, and the keys to index
/// it by: the clustered key, its leading column (both read the table
/// directly) and three random keys (mostly read through the
/// permutation).
fn table_and_keys(rows: &[[Value; NCOLS]], rng: &mut SmallRng) -> (Table, Vec<Vec<ColId>>) {
    let mut t = Table::new(Schema::new(&["c0", "c1", "c2", "c3"]));
    for r in rows {
        t.push_row(r);
    }
    let cluster = random_key(rng);
    t.cluster_by(&cluster);
    let mut keys = vec![cluster.clone(), cluster[..1].to_vec()];
    keys.extend((0..3).map(|_| random_key(rng)));
    (t, keys)
}

/// A probe prefix of `plen` columns of `key`. Half the probes follow a
/// stored row, so deeper prefixes hit; the rest may name absent values.
fn random_prefix(rng: &mut SmallRng, t: &Table, key: &[ColId], plen: usize) -> Vec<Value> {
    let row =
        (t.num_rows() > 0 && rng.gen_bool(0.5)).then(|| rng.gen_range(0..t.num_rows() as u32));
    key[..plen]
        .iter()
        .map(|&k| match row {
            Some(r) if rng.gen_bool(0.9) => t.value(RowId(r), k),
            _ => rng.gen_range(0..DOMAIN + 2),
        })
        .collect()
}

/// Random `lo`/`hi` bounds, or none when the prefix covers the key.
fn random_bounds(rng: &mut SmallRng, key: &[ColId], plen: usize) -> (Bound<Value>, Bound<Value>) {
    if plen < key.len() {
        (random_bound(rng), random_bound(rng))
    } else {
        (Bound::Unbounded, Bound::Unbounded)
    }
}

/// One probe of a memo sequence.
struct Probe {
    prefix: Vec<Value>,
    lo: Bound<Value>,
    hi: Bound<Value>,
}

/// About 48 probes on `key`, shaped like a join step's: most share a
/// leading part of the previous prefix and change the rest, the prefix
/// length sometimes changes, and half the sequences are sorted
/// ascending by prefix so each differing column moves forward.
fn probe_sequence(rng: &mut SmallRng, t: &Table, key: &[ColId]) -> Vec<Probe> {
    let mut plen = rng.gen_range(0..=key.len());
    let mut probes: Vec<Probe> = Vec::new();
    for _ in 0..rng.gen_range(40..56) {
        if rng.gen_bool(0.1) {
            plen = rng.gen_range(0..=key.len());
        }
        let mut prefix = random_prefix(rng, t, key, plen);
        if let Some(last) = probes.last().filter(|_| rng.gen_bool(0.6)) {
            let keep = rng.gen_range(0..=last.prefix.len().min(plen));
            prefix[..keep].copy_from_slice(&last.prefix[..keep]);
        }
        let (lo, hi) = random_bounds(rng, key, plen);
        probes.push(Probe { prefix, lo, hi });
    }
    if rng.gen_bool(0.5) {
        probes.sort_by(|a, b| a.prefix.cmp(&b.prefix));
    }
    probes
}

proptest! {
    #![proptest_config(ProptestConfig { cases: ProptestConfig::cases_or_env(256), ..ProptestConfig::default() })]

    #[test]
    fn range_returns_the_lexicographic_slice(rows in arb_rows(), seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        // An index on the clustered key, or on one of its prefixes,
        // reads the table directly.
        let (t, keys) = table_and_keys(&rows, &mut rng);
        for key in keys {
            let idx = Index::build(&t, key.clone());
            let full = idx.equal_range(&t, &[]);
            prop_assert_eq!(full.len(), t.num_rows());
            prop_assert!(
                full.windows(2).all(|w| key
                    .iter()
                    .map(|&k| t.value(w[0], k).cmp(&t.value(w[1], k)))
                    .find(|o| o.is_ne())
                    .unwrap_or(Ordering::Equal)
                    .is_le()),
                "permutation not sorted by {:?}",
                key
            );
            for plen in 0..=key.len() {
                for _ in 0..24 {
                    let prefix = random_prefix(&mut rng, &t, &key, plen);
                    let (lo, hi) = random_bounds(&mut rng, &key, plen);
                    let got = idx.range(&t, &prefix, lo, hi, &mut ProbeMemo::default());
                    let want = reference(full, &t, &key, &prefix, lo, hi);
                    prop_assert!(
                        got.as_ptr() == want.as_ptr() && got.len() == want.len(),
                        "key {:?} prefix {:?} lo {:?} hi {:?}: got {:?} at {} want {:?} at {}",
                        key,
                        prefix,
                        lo,
                        hi,
                        got,
                        offset(full, got),
                        want,
                        offset(full, want)
                    );
                }
            }
        }
    }

    #[test]
    fn memo_probes_return_the_fresh_slice(rows in arb_rows(), seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (t, keys) = table_and_keys(&rows, &mut rng);
        // One memo for every index: moving to another index must reset
        // it, not reuse windows of the last one.
        let mut memo = ProbeMemo::default();
        for key in keys {
            let idx = Index::build(&t, key.clone());
            let full = idx.equal_range(&t, &[]);
            for (n, p) in probe_sequence(&mut rng, &t, &key).iter().enumerate() {
                let got = idx.range(&t, &p.prefix, p.lo, p.hi, &mut memo);
                let fresh = idx.range(&t, &p.prefix, p.lo, p.hi, &mut ProbeMemo::default());
                let want = reference(full, &t, &key, &p.prefix, p.lo, p.hi);
                prop_assert!(
                    got.as_ptr() == fresh.as_ptr() && got.len() == fresh.len()
                        && fresh.as_ptr() == want.as_ptr() && fresh.len() == want.len(),
                    "key {:?} probe {} prefix {:?} lo {:?} hi {:?}: memo {:?} at {}, fresh {:?} at {}, want {:?} at {}",
                    key,
                    n,
                    p.prefix,
                    p.lo,
                    p.hi,
                    got,
                    offset(full, got),
                    fresh,
                    offset(full, fresh),
                    want,
                    offset(full, want)
                );
            }
        }
    }
}
