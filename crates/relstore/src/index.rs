//! Ordered secondary indexes.
//!
//! An index is a permutation of the table's rows sorted by a key column
//! list. A lookup gives an *equality prefix* over the leading key
//! columns, optionally refined by a *range* on the next key column. This
//! supports exactly the access patterns the paper's axis joins need,
//! e.g. on the clustered key `{name, tid, left, …}`:
//!
//! * `name = 'NP' ∧ tid = t ∧ left = c.right` — immediate-following;
//! * `name = 'NP' ∧ tid = t ∧ left ≥ c.right` — following;
//! * `name = 'NP' ∧ tid = t ∧ c.left ≤ left ≤ c.right` — containment.
//!
//! # How a probe runs
//!
//! * **Directory.** [`Index::build`] records, in one pass over the
//!   sorted permutation, each distinct value of the leading key column
//!   and the offset where its run starts. A probe finds `prefix[0]`'s
//!   run by a binary search over this short, contiguous list instead of
//!   over the whole permutation.
//! * **Per-column narrowing.** Within a run of equal leading values the
//!   rows are sorted by the second key column, within a run of equal
//!   second values by the third, and so on. So each further prefix value
//!   narrows the window by searches on that one column alone: a binary
//!   search for where its values start, then a galloping search
//!   (doubling steps, then binary) from there for where they end, since
//!   that end is usually close. The `lo`/`hi` bound on the next column
//!   narrows the window the same way.
//! * **Contiguous clustered read.** When the table's physical order is
//!   already sorted by the key (the clustered index), position `i` of
//!   the permutation and row `i` of the table carry equal keys, so the
//!   searches read the key columns as contiguous table slices and skip
//!   the `perm → row → column` indirection. This is decided once at
//!   build time by checking that the table is sorted by the key, which
//!   holds even when duplicate keys leave the sorted permutation
//!   different from the identity.
//!
//! * **Probe memo.** Every probe runs against a [`ProbeMemo`]: the key
//!   values of the previous probe through the same memo and the window
//!   left after each of its equality columns was narrowed. A join step
//!   probes with one memo per step, and its outer rows arrive in
//!   clustered `(name, tid, left)` order, so consecutive probes nearly
//!   always repeat the leading key values. The probe skips the
//!   directory lookup and every narrowing for the leading columns it
//!   shares with the previous one and starts from the remembered
//!   window.
//! * **Finger search.** When the first column that differs holds a
//!   *larger* value than the memo's (the next tree's `tid`, a later
//!   `left`), its rows lie after the remembered window of that column
//!   inside the same parent run. The new window is then galloped
//!   forward from the old window's end instead of binary-searched over
//!   the whole parent run; for the leading column the gallop runs over
//!   the directory from the remembered entry. A smaller value is
//!   searched afresh over the parent run.
//!
//! A probe returns a subslice of the sorted permutation: the rows whose
//! key lies in the window, in key order. The slice is the one a single
//! lexicographic binary search over the whole permutation would return,
//! down to its position, so cursor positions and checkpoints that
//! index into it are independent of how it was found. That includes
//! the memo: a remembered window is exactly the window a fresh search
//! computes for the same leading values, and a finger search finds the
//! same partition point as a search over the whole parent run, because
//! every row before the old window's end holds a value at most the
//! memo's. [`Index::equal_range`] runs the same code with an empty
//! memo. Memos are scratch state: nothing persists them, and a memo
//! that last served another index is reset before use.

use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::schema::ColId;
use crate::table::{RowId, Table};
use crate::value::Value;

/// A sorted-permutation index over `key` columns of one table.
#[derive(Clone, Debug)]
pub struct Index {
    key: Vec<ColId>,
    perm: Vec<RowId>,
    /// Distinct values of the leading key column, ascending.
    dir_vals: Vec<Value>,
    /// `dir_starts[i]` is the offset in `perm` where the run of
    /// `dir_vals[i]` starts; one trailing entry holds `perm.len()`.
    dir_starts: Vec<u32>,
    /// The table's physical order is sorted by `key`, so the key of
    /// `perm[i]` equals the key of row `i`.
    clustered: bool,
    /// Identity of this build, so a [`ProbeMemo`] can tell whose
    /// windows it holds.
    id: u64,
}

/// Equality columns a [`ProbeMemo`] remembers. Longer prefixes narrow
/// their further columns afresh on every probe.
const MEMO_COLS: usize = 8;

/// Scratch state carried between consecutive probes of one index: the
/// leading key values of the last probe and the window each of them
/// narrowed the permutation to. See the module docs for how a probe
/// uses it. A memo never changes a probe's result, only its cost; a
/// fresh (default) memo makes the probe search from scratch.
#[derive(Clone, Debug, Default)]
pub struct ProbeMemo {
    /// The `Index::id` the windows below belong to; `0` for none.
    owner: u64,
    /// Leading equality columns remembered in `keys` / `wins`.
    len: usize,
    keys: [Value; MEMO_COLS],
    /// `wins[j]`: the window of rows equal to `keys[..=j]`.
    wins: [(u32, u32); MEMO_COLS],
    /// Directory position of `keys[0]` (its insertion point).
    dir: u32,
}

/// Source of `Index::id`s; `0` is reserved for an unowned memo.
static NEXT_INDEX_ID: AtomicU64 = AtomicU64::new(1);

impl Index {
    /// Build by sorting the row permutation; `O(n log n)`, plus one
    /// `O(n)` pass each for the directory and the clustered check.
    pub fn build(table: &Table, key: Vec<ColId>) -> Self {
        assert!(!key.is_empty(), "index needs at least one key column");
        let mut perm: Vec<RowId> = table.scan().collect();
        perm.sort_unstable_by(|&a, &b| table.cmp_rows(a, b, &key));
        let clustered =
            (1..perm.len() as u32).all(|i| table.cmp_rows(RowId(i - 1), RowId(i), &key).is_le());
        let lead = table.column(key[0]);
        let mut dir_vals = Vec::new();
        let mut dir_starts = Vec::new();
        for (i, &r) in perm.iter().enumerate() {
            let v = lead[r.index()];
            if dir_vals.last() != Some(&v) {
                dir_vals.push(v);
                dir_starts.push(i as u32);
            }
        }
        dir_starts.push(perm.len() as u32);
        dir_vals.shrink_to_fit();
        dir_starts.shrink_to_fit();
        Index {
            key,
            perm,
            dir_vals,
            dir_starts,
            clustered,
            id: NEXT_INDEX_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The key columns, major first.
    pub fn key(&self) -> &[ColId] {
        &self.key
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// Does the index cover zero rows?
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// Rows whose leading key columns equal `prefix`, in key order.
    pub fn equal_range(&self, table: &Table, prefix: &[Value]) -> &[RowId] {
        self.range(
            table,
            prefix,
            Bound::Unbounded,
            Bound::Unbounded,
            &mut ProbeMemo::default(),
        )
    }

    /// Rows whose leading key columns equal `prefix` and whose *next*
    /// key column lies within `(lo, hi)`. `table` must be the table the
    /// index was built on. `memo` carries the previous probe's windows
    /// (see the module docs) and is updated to this probe's; the result
    /// does not depend on it.
    ///
    /// # Panics
    /// Panics if `prefix` is as long as the whole key but a bound is
    /// given (there is no next column), or longer than the key.
    pub fn range(
        &self,
        table: &Table,
        prefix: &[Value],
        lo: Bound<Value>,
        hi: Bound<Value>,
        memo: &mut ProbeMemo,
    ) -> &[RowId] {
        assert!(
            prefix.len() <= self.key.len(),
            "prefix {} longer than key {}",
            prefix.len(),
            self.key.len()
        );
        let bounded = !matches!((lo, hi), (Bound::Unbounded, Bound::Unbounded));
        assert!(
            !bounded || prefix.len() < self.key.len(),
            "range bound given but prefix covers the whole key"
        );
        debug_assert_eq!(table.num_rows(), self.perm.len(), "probe on another table");

        if memo.owner != self.id {
            memo.owner = self.id;
            memo.len = 0;
        }
        // Leading columns shared with the memo keep its windows.
        let known = memo.len;
        let shared = prefix
            .iter()
            .zip(&memo.keys[..known])
            .take_while(|(v, m)| v == m)
            .count();
        let (mut start, mut end) = match shared {
            0 => (0, self.perm.len()),
            k => {
                let (s, e) = memo.wins[k - 1];
                (s as usize, e as usize)
            }
        };
        // The first differing column moved forward: its new window lies
        // after the old one inside the same parent run.
        let finger = shared < known && prefix.get(shared).is_some_and(|&v| v > memo.keys[shared]);
        for (j, &v) in prefix.iter().enumerate().skip(shared) {
            let near = finger && j == shared;
            (start, end) = if j == 0 {
                // An absent value yields the empty run at its insertion
                // point, where the lexicographic search would end too.
                let from = if near { memo.dir as usize } else { 0 };
                let i = from + search(&self.dir_vals[from..], near, |&d| d < v);
                memo.dir = i as u32;
                let s = self.dir_starts[i] as usize;
                if self.dir_vals.get(i) == Some(&v) {
                    (s, self.dir_starts[i + 1] as usize)
                } else {
                    (s, s)
                }
            } else {
                let from = if near { memo.wins[j].1 as usize } else { start };
                let eq = Bound::Included(v);
                self.narrow(table, j, (from, end), eq, eq, near)
            };
            if j < MEMO_COLS {
                memo.keys[j] = v;
                memo.wins[j] = (start as u32, end as u32);
            }
        }
        // Deeper remembered windows stay valid only if every column
        // above them was shared.
        if shared < prefix.len() {
            memo.len = prefix.len().min(MEMO_COLS);
        }
        if bounded {
            (start, end) = self.narrow(table, prefix.len(), (start, end), lo, hi, false);
        }
        &self.perm[start..end]
    }

    /// Narrow `start..end`, a run of rows equal on the key columns
    /// before `j` (so sorted on column `j`), to the rows whose
    /// column-`j` value lies within `(lo, hi)`. `near` says the start
    /// is likely close to `start` and is galloped for.
    #[inline]
    fn narrow(
        &self,
        table: &Table,
        j: usize,
        (start, end): (usize, usize),
        lo: Bound<Value>,
        hi: Bound<Value>,
        near: bool,
    ) -> (usize, usize) {
        let col = table.column(self.key[j]);
        let (a, b) = if self.clustered {
            window(&col[start..end], lo, hi, near, |&v| v)
        } else {
            window(&self.perm[start..end], lo, hi, near, |r| col[r.index()])
        };
        (start + a, start + b)
    }
}

/// The sub-window `a..b` of `run` (sorted by `val`) whose values lie
/// within `(lo, hi)`. An empty window sits at the `lo` insertion point.
#[inline]
fn window<T>(
    run: &[T],
    lo: Bound<Value>,
    hi: Bound<Value>,
    near: bool,
    val: impl Fn(&T) -> Value,
) -> (usize, usize) {
    let a = match lo {
        Bound::Unbounded => 0,
        Bound::Included(v) => search(run, near, |x| val(x) < v),
        Bound::Excluded(v) => search(run, near, |x| val(x) <= v),
    };
    let rest = &run[a..];
    let b = match hi {
        Bound::Unbounded => rest.len(),
        Bound::Included(v) => gallop(rest, |x| val(x) <= v),
        Bound::Excluded(v) => gallop(rest, |x| val(x) < v),
    };
    (a, a + b)
}

/// `run.partition_point(pred)`, galloped for when the point is
/// likely `near` the front.
#[inline]
fn search<T>(run: &[T], near: bool, pred: impl Fn(&T) -> bool) -> usize {
    if near {
        gallop(run, pred)
    } else {
        run.partition_point(pred)
    }
}

/// `run.partition_point(pred)`, found by probing doubling distances
/// from the front before the binary search: windows are mostly short
/// next to the run they are cut from, so the end is usually near.
#[inline]
fn gallop<T>(run: &[T], pred: impl Fn(&T) -> bool) -> usize {
    let (mut lo, mut step) = (0, 1);
    while lo + step <= run.len() && pred(&run[lo + step - 1]) {
        lo += step;
        step *= 2;
    }
    lo + run[lo..(lo + step).min(run.len())].partition_point(pred)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn sample() -> (Table, Index) {
        let mut t = Table::new(Schema::new(&["name", "tid", "left"]));
        // (name, tid, left)
        for row in [
            [1, 1, 5],
            [1, 1, 2],
            [1, 2, 7],
            [2, 1, 3],
            [1, 1, 9],
            [2, 1, 1],
            [1, 2, 2],
        ] {
            t.push_row(&row);
        }
        let idx = Index::build(&t, vec![ColId(0), ColId(1), ColId(2)]);
        (t, idx)
    }

    fn lefts(t: &Table, rows: &[RowId]) -> Vec<Value> {
        rows.iter().map(|&r| t.value(r, ColId(2))).collect()
    }

    #[test]
    fn equal_range_on_prefix() {
        let (t, idx) = sample();
        assert_eq!(lefts(&t, idx.equal_range(&t, &[1, 1])), [2, 5, 9]);
        assert_eq!(lefts(&t, idx.equal_range(&t, &[1, 2])), [2, 7]);
        assert_eq!(lefts(&t, idx.equal_range(&t, &[2, 1])), [1, 3]);
        assert_eq!(idx.equal_range(&t, &[3]).len(), 0);
        assert_eq!(idx.equal_range(&t, &[]).len(), 7);
    }

    #[test]
    fn bounded_ranges() {
        let (t, idx) = sample();
        // name=1, tid=1, left >= 5
        assert_eq!(
            lefts(
                &t,
                idx.range(
                    &t,
                    &[1, 1],
                    Bound::Included(5),
                    Bound::Unbounded,
                    &mut ProbeMemo::default()
                )
            ),
            [5, 9]
        );
        // name=1, tid=1, left > 5
        assert_eq!(
            lefts(
                &t,
                idx.range(
                    &t,
                    &[1, 1],
                    Bound::Excluded(5),
                    Bound::Unbounded,
                    &mut ProbeMemo::default()
                )
            ),
            [9]
        );
        // name=1, tid=1, 2 <= left < 9
        assert_eq!(
            lefts(
                &t,
                idx.range(
                    &t,
                    &[1, 1],
                    Bound::Included(2),
                    Bound::Excluded(9),
                    &mut ProbeMemo::default()
                )
            ),
            [2, 5]
        );
        // point lookup via equal bounds
        assert_eq!(
            lefts(
                &t,
                idx.range(
                    &t,
                    &[1, 1],
                    Bound::Included(5),
                    Bound::Included(5),
                    &mut ProbeMemo::default()
                )
            ),
            [5]
        );
        // empty window
        assert_eq!(
            idx.range(
                &t,
                &[1, 1],
                Bound::Included(10),
                Bound::Unbounded,
                &mut ProbeMemo::default()
            )
            .len(),
            0
        );
        assert_eq!(
            idx.range(
                &t,
                &[1, 1],
                Bound::Included(6),
                Bound::Included(3),
                &mut ProbeMemo::default()
            )
            .len(),
            0
        );
    }

    #[test]
    fn full_prefix_point_lookup() {
        let (t, idx) = sample();
        assert_eq!(lefts(&t, idx.equal_range(&t, &[1, 1, 5])), [5]);
        assert_eq!(idx.equal_range(&t, &[1, 1, 6]).len(), 0);
    }

    #[test]
    #[should_panic(expected = "range bound")]
    fn bound_without_next_column_panics() {
        let (t, idx) = sample();
        idx.range(
            &t,
            &[1, 1, 5],
            Bound::Included(1),
            Bound::Unbounded,
            &mut ProbeMemo::default(),
        );
    }

    #[test]
    fn clustered_read_detected_by_sort_order_not_identity() {
        // Duplicate keys: the sorted permutation need not be the
        // identity, yet the table's own order is sorted by the key.
        let mut t = Table::new(Schema::new(&["a", "b"]));
        for row in [[2, 0], [1, 0], [2, 1], [1, 0], [2, 0], [1, 1]] {
            t.push_row(&row);
        }
        assert!(!Index::build(&t, vec![ColId(0)]).clustered);
        t.cluster_by(&[ColId(0), ColId(1)]);
        for key in [vec![ColId(0)], vec![ColId(0), ColId(1)]] {
            let idx = Index::build(&t, key);
            assert!(idx.clustered);
            assert_eq!(idx.dir_vals, [1, 2]);
            assert_eq!(idx.dir_starts, [0, 3, 6]);
        }
        assert!(!Index::build(&t, vec![ColId(1), ColId(0)]).clustered);
    }

    #[test]
    fn matches_linear_scan_on_random_data() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(42);
        let mut t = Table::new(Schema::new(&["a", "b"]));
        for _ in 0..500 {
            t.push_row(&[rng.gen_range(0..8), rng.gen_range(0..50)]);
        }
        let idx = Index::build(&t, vec![ColId(0), ColId(1)]);
        // One memo across all probes: shared and advancing prefixes.
        let mut memo = ProbeMemo::default();
        for a in 0..8u32 {
            for lo in [0u32, 10, 25, 49] {
                let got = idx
                    .range(&t, &[a], Bound::Included(lo), Bound::Unbounded, &mut memo)
                    .len();
                let want = t
                    .scan()
                    .filter(|&r| t.value(r, ColId(0)) == a && t.value(r, ColId(1)) >= lo)
                    .count();
                assert_eq!(got, want, "a={a} lo={lo}");
            }
        }
    }
}
