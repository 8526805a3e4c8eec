//! Shared-anchor batched execution: one anchor scan feeding many plans.
//!
//! A batch of tree-pattern queries over the same corpus tends to share
//! its most expensive piece: the *anchor* — the first pipeline step,
//! a full scan or a constant-keyed index probe that every downstream
//! join hangs off. ("Conjunctive Queries over Trees" decomposes such
//! queries into exactly these shareable tractable cores.) This module
//! executes a group of plans with structurally identical anchors by
//! enumerating the anchor's candidate rows **once** and fanning each
//! candidate out to every member plan's residual filter and join tail.
//!
//! Compatibility is decided by [`anchor_key`]: two plans share an
//! anchor when step 0 reads the same table through the same access
//! path with identical *constant* operands (a non-constant operand
//! would make the candidate set binding-dependent, so such plans are
//! never grouped). The hash of this key is the planner's structural
//! plan signature ([`crate::planner::plan_signature`]).
//!
//! Per-member results are exactly what [`crate::cursor::execute`]
//! produces for that plan alone — same multiset of projected tuples,
//! same `DISTINCT` semantics — verified differentially by the
//! `prop_multiquery` suite.

use std::collections::{HashMap, HashSet};

use crate::catalog::{Database, IndexId, TableId};
use crate::expr::Operand;
use crate::index::ProbeMemo;
use crate::plan::{resolve_bound, run, satisfies, AccessPath, Frame, Plan, PlanMemos};
use crate::table::RowId;
use crate::value::Value;

/// Structural identity of a plan's anchor (step 0): table plus access
/// path with all operands resolved to constants. Plans with equal keys
/// enumerate identical candidate row sets and may share one scan.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct AnchorKey {
    table: TableId,
    access: AnchorAccess,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum AnchorAccess {
    Scan,
    Probe {
        index: IndexId,
        eq: Vec<Value>,
        lo: Option<(bool, Value)>,
        hi: Option<(bool, Value)>,
    },
}

/// The anchor-compatibility key of `plan`, or `None` when the plan has
/// no shareable anchor: constant-empty plans, zero-step plans (which
/// emit one all-bound row), and anchors keyed by non-constant operands.
pub fn anchor_key(plan: &Plan) -> Option<AnchorKey> {
    if plan.const_empty {
        return None;
    }
    let step = plan.steps.first()?;
    let access = match &step.access {
        AccessPath::FullScan => AnchorAccess::Scan,
        AccessPath::IndexRange { index, eq, lo, hi } => {
            let konst = |op: &Operand| match op {
                Operand::Const(v) => Some(*v),
                _ => None,
            };
            let bound = |b: &Option<(bool, Operand)>| match b {
                None => Some(None),
                Some((inc, op)) => konst(op).map(|v| Some((*inc, v))),
            };
            AnchorAccess::Probe {
                index: *index,
                eq: eq.iter().map(konst).collect::<Option<Vec<_>>>()?,
                lo: bound(lo)?,
                hi: bound(hi)?,
            }
        }
    };
    Some(AnchorKey {
        table: step.table,
        access,
    })
}

/// Work accounting for one [`execute_shared`] call.
#[derive(Clone, Copy, Debug, Default)]
pub struct SharedScanStats {
    /// Anchor candidate rows enumerated — once for the whole group,
    /// however many members consumed them.
    pub anchor_rows: u64,
    /// Per-member residual evaluations against shared anchor
    /// candidates (the work that remains after sharing the scan).
    pub residual_evals: u64,
}

/// Per-member DISTINCT watermark, mirroring the cursor's dedup: narrow
/// projections (≤ 2 columns) dedup through a packed `u64`, wider ones
/// through the full tuple.
enum Seen {
    All,
    Narrow(HashSet<u64>),
    Wide(HashSet<Vec<Value>>),
}

impl Seen {
    fn for_plan(plan: &Plan) -> Seen {
        if !plan.distinct {
            Seen::All
        } else if plan.projection.len() <= 2 {
            Seen::Narrow(HashSet::new())
        } else {
            Seen::Wide(HashSet::new())
        }
    }
}

/// One member plan's in-flight execution state.
struct Member<'a> {
    plan: &'a Plan,
    bindings: Vec<RowId>,
    seen: Seen,
    out: Vec<Vec<Value>>,
    /// Probe memos for the member's steps and checks, kept for the
    /// whole shared scan.
    memos: PlanMemos,
    /// `false` once an uncorrelated `NOT EXISTS`-style check proved the
    /// member empty before the anchor loop started.
    live: bool,
}

/// Execute every plan in `plans` — all sharing one [`AnchorKey`] —
/// with a single enumeration of the anchor's candidate rows, returning
/// each member's projected tuples (identical to running that plan
/// alone through [`crate::cursor::execute`]) plus work accounting.
///
/// # Panics
///
/// Debug builds assert that all plans carry the same anchor key;
/// release builds would silently evaluate members against the first
/// plan's anchor, so callers must group by [`anchor_key`] first.
pub fn execute_shared(plans: &[&Plan], db: &Database) -> (Vec<Vec<Vec<Value>>>, SharedScanStats) {
    let mut stats = SharedScanStats::default();
    let Some(first) = plans.first() else {
        return (Vec::new(), stats);
    };
    debug_assert!(
        plans
            .iter()
            .all(|p| anchor_key(p) == anchor_key(first) && anchor_key(p).is_some()),
        "execute_shared requires one shared anchor key"
    );
    let mut members: Vec<Member<'_>> = plans
        .iter()
        .map(|plan| {
            let bindings = vec![RowId(0); plan.alias_tables.len()];
            let mut memos = PlanMemos::new(plan);
            // Uncorrelated checks fire before the first step binds in
            // the solo pipeline; here that is once, before the shared
            // anchor loop. A failed check kills the member outright.
            let frame = Frame {
                plan,
                bindings: &bindings,
                outer: None,
            };
            let live = memos.checks_pass(plan, db, &frame, 0);
            Member {
                plan,
                bindings,
                seen: Seen::for_plan(plan),
                out: Vec::new(),
                memos,
                live,
            }
        })
        .collect();

    let anchor = &first.steps[0];
    let table = db.table(anchor.table);
    // Resolve the shared candidate set once, exactly as the solo
    // pipeline would: the key guarantees every operand is a constant.
    let probe: Vec<RowId> = match &anchor.access {
        AccessPath::FullScan => table.scan().collect(),
        AccessPath::IndexRange { index, eq, lo, hi } => {
            let bindings = vec![RowId(0); first.alias_tables.len()];
            let frame = Frame {
                plan: first,
                bindings: &bindings,
                outer: None,
            };
            let mut key_buf = [0 as Value; 8];
            debug_assert!(eq.len() <= key_buf.len());
            for (slot, &op) in key_buf.iter_mut().zip(eq.iter()) {
                *slot = frame.resolve(db, op);
            }
            let (lo_b, hi_b) = (resolve_bound(&frame, db, lo), resolve_bound(&frame, db, hi));
            db.index(*index)
                .range(
                    table,
                    &key_buf[..eq.len()],
                    lo_b,
                    hi_b,
                    &mut ProbeMemo::default(),
                )
                .to_vec()
        }
    };

    for &row in &probe {
        stats.anchor_rows += 1;
        for m in &mut members {
            if !m.live {
                continue;
            }
            let step0 = &m.plan.steps[0];
            m.bindings[step0.alias] = row;
            stats.residual_evals += 1;
            let ok = {
                let frame = Frame {
                    plan: m.plan,
                    bindings: &m.bindings,
                    outer: None,
                };
                satisfies(step0, db, &frame)
            };
            if !ok {
                continue;
            }
            let Member {
                plan,
                bindings,
                seen,
                out,
                memos,
                ..
            } = m;
            run(plan, db, bindings, None, 1, memos, &mut |frame: &Frame<
                '_,
            >| {
                emit_row(db, frame, seen, out);
                true // full enumeration: never stop early
            });
        }
    }

    (members.into_iter().map(|m| m.out).collect(), stats)
}

/// Project the frame and append it to `out`, subject to the member's
/// DISTINCT watermark.
fn emit_row(db: &Database, frame: &Frame<'_>, seen: &mut Seen, out: &mut Vec<Vec<Value>>) {
    let tuple: Vec<Value> = frame
        .plan
        .projection
        .iter()
        .map(|&c| frame.value(db, c))
        .collect();
    match seen {
        Seen::All => out.push(tuple),
        Seen::Narrow(set) => {
            let mut packed = 0u64;
            for &v in &tuple {
                packed = (packed << 32) | u64::from(v);
            }
            if set.insert(packed) {
                out.push(tuple);
            }
        }
        Seen::Wide(set) => {
            if set.insert(tuple.clone()) {
                out.push(tuple);
            }
        }
    }
}

/// Group plan indexes by shared anchor: the returned map holds, for
/// every shareable anchor, the (input-order) positions of the plans
/// that can ride one scan. Positions of unshareable plans are absent.
pub fn group_by_anchor(plans: &[&Plan]) -> HashMap<AnchorKey, Vec<usize>> {
    let mut groups: HashMap<AnchorKey, Vec<usize>> = HashMap::new();
    for (i, plan) in plans.iter().enumerate() {
        if let Some(key) = anchor_key(plan) {
            groups.entry(key).or_default().push(i);
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::execute;
    use crate::expr::{ColRef, Cond};
    use crate::plan::JoinStep;
    use crate::schema::{ColId, Schema};
    use crate::table::Table;
    use crate::value::Cmp;

    const GRP: ColId = ColId(0);
    const VAL: ColId = ColId(1);

    fn setup() -> (Database, TableId, IndexId) {
        let mut t = Table::new(Schema::new(&["grp", "val"]));
        for row in [[1, 10], [1, 11], [1, 12], [2, 20], [2, 21], [3, 30]] {
            t.push_row(&row);
        }
        t.cluster_by(&[GRP, VAL]);
        let mut db = Database::new();
        let tid = db.add_table("t", t);
        let idx = db.add_index(tid, "by_grp_val", vec![GRP, VAL]);
        (db, tid, idx)
    }

    fn scan_plan(tid: TableId, residual: Vec<Cond>, distinct: bool) -> Plan {
        Plan {
            alias_tables: vec![tid],
            steps: vec![JoinStep {
                alias: 0,
                table: tid,
                access: AccessPath::FullScan,
                residual,
                sets: vec![],
            }],
            checks: vec![],
            projection: vec![ColRef::new(0, VAL)],
            distinct,
            ..Plan::default()
        }
    }

    #[test]
    fn anchor_keys_distinguish_access_paths() {
        let (_, tid, idx) = setup();
        let scan = scan_plan(tid, vec![], false);
        let mut probe = scan_plan(tid, vec![], false);
        probe.steps[0].access = AccessPath::IndexRange {
            index: idx,
            eq: vec![Operand::Const(1)],
            lo: None,
            hi: None,
        };
        let mut probe2 = probe.clone();
        if let AccessPath::IndexRange { eq, .. } = &mut probe2.steps[0].access {
            eq[0] = Operand::Const(2);
        }
        assert_eq!(anchor_key(&scan), anchor_key(&scan.clone()));
        assert_ne!(anchor_key(&scan), anchor_key(&probe));
        assert_ne!(anchor_key(&probe), anchor_key(&probe2));
        // Non-constant operands are never shareable.
        let mut corr = probe.clone();
        if let AccessPath::IndexRange { eq, .. } = &mut corr.steps[0].access {
            eq[0] = Operand::Col(ColRef::new(0, GRP));
        }
        assert_eq!(anchor_key(&corr), None);
        assert_eq!(anchor_key(&Plan::constant_empty()), None);
    }

    #[test]
    fn shared_execution_matches_solo_execution() {
        let (db, tid, _) = setup();
        let plans = [
            scan_plan(tid, vec![], false),
            scan_plan(
                tid,
                vec![Cond::against_const(ColRef::new(0, VAL), Cmp::Gt, 15)],
                false,
            ),
            scan_plan(
                tid,
                vec![Cond::against_const(ColRef::new(0, GRP), Cmp::Eq, 1)],
                false,
            ),
        ];
        let refs: Vec<&Plan> = plans.iter().collect();
        let (got, stats) = execute_shared(&refs, &db);
        for (plan, rows) in plans.iter().zip(&got) {
            assert_eq!(*rows, execute(plan, &db));
        }
        // Six table rows scanned once, not once per member.
        assert_eq!(stats.anchor_rows, 6);
        assert_eq!(stats.residual_evals, 18);
    }

    #[test]
    fn shared_distinct_dedups_per_member() {
        let (db, tid, _) = setup();
        let mut grp = scan_plan(tid, vec![], true);
        grp.projection = vec![ColRef::new(0, GRP)];
        let plain = scan_plan(tid, vec![], false);
        let refs: Vec<&Plan> = vec![&grp, &plain];
        let (got, _) = execute_shared(&refs, &db);
        assert_eq!(got[0], execute(&grp, &db));
        assert_eq!(got[0], [[1], [2], [3]]);
        assert_eq!(got[1].len(), 6);
    }

    #[test]
    fn grouping_buckets_compatible_anchors() {
        let (_, tid, idx) = setup();
        let a = scan_plan(tid, vec![], false);
        let b = scan_plan(
            tid,
            vec![Cond::against_const(ColRef::new(0, VAL), Cmp::Gt, 15)],
            false,
        );
        let mut c = scan_plan(tid, vec![], false);
        c.steps[0].access = AccessPath::IndexRange {
            index: idx,
            eq: vec![Operand::Const(1)],
            lo: None,
            hi: None,
        };
        let empty = Plan::constant_empty();
        let groups = group_by_anchor(&[&a, &b, &c, &empty]);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[&anchor_key(&a).unwrap()], [0, 1]);
        assert_eq!(groups[&anchor_key(&c).unwrap()], [2]);
    }
}
