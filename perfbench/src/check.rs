//! Response digests and the after-run correctness check.
//!
//! Every response is reduced to a 64-bit digest while the workload runs.
//! After the timed window each digest is re-derived from an independent
//! reference over the same corpus and compared.

use std::collections::BTreeMap;

/// FNV-1a over the rows (and their number).
pub fn digest_rows(rows: impl IntoIterator<Item = (u32, u32)>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut n: u64 = 0;
    let mut eat = |x: u32| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    };
    for (t, node) in rows {
        eat(t);
        eat(node);
        n += 1;
    }
    h ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// What a response claims about its query's full result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `rows[offset .. offset + limit]` of the full result.
    Slice {
        /// First row.
        offset: usize,
        /// Row limit (`usize::MAX` for the whole result).
        limit: usize,
    },
    /// The number of rows.
    Count,
    /// Whether there is any row.
    Exists,
}

/// The digest a correct response of `kind` has, given the full result.
pub fn expected(kind: Kind, all: &[(u32, u32)]) -> u64 {
    match kind {
        Kind::Slice { offset, limit } => {
            let start = offset.min(all.len());
            let end = offset.saturating_add(limit).min(all.len());
            digest_rows(all[start..end].iter().copied())
        }
        Kind::Count => all.len() as u64,
        Kind::Exists => u64::from(!all.is_empty()),
    }
}

/// One recorded response.
#[derive(Clone, Copy, Debug)]
pub struct Record {
    /// The query (an index into the workload's query list).
    pub query: usize,
    /// What the response claims.
    pub kind: Kind,
    /// The response digest.
    pub digest: u64,
}

/// Check every record against `reference(query)`, the full result of
/// the query, computed once per distinct query. Returns the indexes of
/// the records that do not match it.
pub fn verify(
    records: &[Record],
    mut reference: impl FnMut(usize) -> Vec<(u32, u32)>,
) -> Vec<usize> {
    let mut by_query: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, r) in records.iter().enumerate() {
        by_query.entry(r.query).or_default().push(i);
    }
    let mut bad = Vec::new();
    for (q, idxs) in by_query {
        let all = reference(q);
        bad.extend(
            idxs.into_iter()
                .filter(|&i| expected(records[i].kind, &all) != records[i].digest),
        );
    }
    bad.sort_unstable();
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(q: usize) -> Vec<(u32, u32)> {
        (0..(q as u32 + 3)).map(|i| (i / 2, i)).collect()
    }

    fn record(q: usize, kind: Kind) -> Record {
        Record {
            query: q,
            kind,
            digest: expected(kind, &full(q)),
        }
    }

    #[test]
    fn correct_digests_pass_and_a_corrupted_one_is_rejected() {
        let mut recs = vec![
            record(
                0,
                Kind::Slice {
                    offset: 0,
                    limit: 2,
                },
            ),
            record(
                1,
                Kind::Slice {
                    offset: 1,
                    limit: usize::MAX,
                },
            ),
            record(2, Kind::Count),
            record(4, Kind::Exists),
            record(
                3,
                Kind::Slice {
                    offset: 99,
                    limit: 5,
                },
            ),
        ];
        assert!(verify(&recs, full).is_empty());
        recs[1].digest ^= 1;
        assert_eq!(verify(&recs, full), vec![1]);
    }

    #[test]
    fn digests_see_order_and_length() {
        assert_ne!(digest_rows([(0, 1), (0, 2)]), digest_rows([(0, 2), (0, 1)]));
        assert_ne!(digest_rows([]), digest_rows([(0, 0)]));
    }
}
