//! Property tests: engine operators agree with naive Rust reference
//! implementations.

use proptest::prelude::*;
use scc_engine::ops::collect;
use scc_engine::{
    AggExpr, Expr, HashAggregate, HashJoin, JoinKind, MemSource, Operator, OrderBy, Project,
    Select, SortKey, TopN, Vector,
};
use std::collections::HashMap;

fn src(cols: Vec<Vec<i64>>, vs: usize) -> MemSource {
    MemSource::from_i64(cols, vs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn select_matches_filter(values in prop::collection::vec(-100i64..100, 0..500), threshold in -100i64..100, vs in 1usize..64) {
        let mut sel = Select::new(src(vec![values.clone()], vs), Expr::col(0).ge(Expr::lit_i64(threshold)));
        let out = collect(&mut sel);
        let expect: Vec<i64> = values.iter().copied().filter(|&v| v >= threshold).collect();
        let got = if out.columns.is_empty() { vec![] } else { out.col(0).as_i64().to_vec() };
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn project_matches_map(values in prop::collection::vec(-1000i64..1000, 0..400), vs in 1usize..64) {
        let mut proj = Project::new(
            src(vec![values.clone()], vs),
            vec![Expr::col(0).mul(Expr::lit_i64(3)).add(Expr::lit_i64(1))],
        );
        let out = collect(&mut proj);
        let expect: Vec<i64> = values.iter().map(|v| v * 3 + 1).collect();
        let got = if out.columns.is_empty() { vec![] } else { out.col(0).as_i64().to_vec() };
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn aggregate_matches_hashmap(keys in prop::collection::vec(0i64..8, 1..500), vs in 1usize..64) {
        let values: Vec<i64> = keys.iter().enumerate().map(|(i, _)| i as i64).collect();
        let mut agg = HashAggregate::new(
            src(vec![keys.clone(), values.clone()], vs),
            vec![Expr::col(0)],
            vec![AggExpr::Sum(Expr::col(1)), AggExpr::Count, AggExpr::Min(Expr::col(1)), AggExpr::Max(Expr::col(1))],
        );
        let out = collect(&mut agg);
        let mut expect: HashMap<i64, (i64, i64, i64, i64)> = HashMap::new();
        for (k, v) in keys.iter().zip(&values) {
            let e = expect.entry(*k).or_insert((0, 0, i64::MAX, i64::MIN));
            e.0 += v;
            e.1 += 1;
            e.2 = e.2.min(*v);
            e.3 = e.3.max(*v);
        }
        prop_assert_eq!(out.len(), expect.len());
        for row in 0..out.len() {
            let k = out.col(0).as_i64()[row];
            let e = expect[&k];
            prop_assert_eq!(out.col(1).as_i64()[row], e.0);
            prop_assert_eq!(out.col(2).as_i64()[row], e.1);
            prop_assert_eq!(out.col(3).as_i64()[row], e.2);
            prop_assert_eq!(out.col(4).as_i64()[row], e.3);
        }
    }

    #[test]
    fn inner_join_matches_nested_loops(
        probe in prop::collection::vec(0i64..12, 0..150),
        build in prop::collection::vec(0i64..12, 0..150),
        vs in 1usize..32,
    ) {
        let probe_pay: Vec<i64> = (0..probe.len() as i64).collect();
        let build_pay: Vec<i64> = (0..build.len() as i64).map(|i| i + 1000).collect();
        let mut join = HashJoin::new(
            src(vec![probe.clone(), probe_pay.clone()], vs),
            src(vec![build.clone(), build_pay.clone()], vs),
            vec![0],
            vec![0],
            JoinKind::Inner,
        );
        let out = collect(&mut join);
        let mut expect: Vec<(i64, i64)> = Vec::new();
        for (pk, pp) in probe.iter().zip(&probe_pay) {
            for (bk, bp) in build.iter().zip(&build_pay) {
                if pk == bk {
                    expect.push((*pp, *bp));
                }
            }
        }
        let mut got: Vec<(i64, i64)> = if out.columns.is_empty() {
            vec![]
        } else {
            out.col(1).as_i64().iter().zip(out.col(3).as_i64()).map(|(&a, &b)| (a, b)).collect()
        };
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn semi_and_anti_partition_probe(
        probe in prop::collection::vec(0i64..10, 0..200),
        build in prop::collection::vec(0i64..10, 0..50),
        vs in 1usize..32,
    ) {
        let semi = collect(&mut HashJoin::new(
            src(vec![probe.clone()], vs),
            src(vec![build.clone()], vs),
            vec![0], vec![0], JoinKind::LeftSemi,
        ));
        let anti = collect(&mut HashJoin::new(
            src(vec![probe.clone()], vs),
            src(vec![build.clone()], vs),
            vec![0], vec![0], JoinKind::LeftAnti,
        ));
        let semi_n = if semi.columns.is_empty() { 0 } else { semi.len() };
        let anti_n = if anti.columns.is_empty() { 0 } else { anti.len() };
        prop_assert_eq!(semi_n + anti_n, probe.len());
        if !semi.columns.is_empty() {
            for &v in semi.col(0).as_i64() {
                prop_assert!(build.contains(&v));
            }
        }
        if !anti.columns.is_empty() {
            for &v in anti.col(0).as_i64() {
                prop_assert!(!build.contains(&v));
            }
        }
    }

    #[test]
    fn sort_is_stablely_ordered(values in prop::collection::vec(-50i64..50, 0..300), vs in 1usize..32) {
        let mut sort = OrderBy::new(src(vec![values.clone()], vs), vec![SortKey::asc(0)]);
        let out = collect(&mut sort);
        let mut expect = values.clone();
        expect.sort_unstable();
        let got = if out.columns.is_empty() { vec![] } else { out.col(0).as_i64().to_vec() };
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn topn_is_sorted_prefix(values in prop::collection::vec(any::<i64>(), 0..300), n in 0usize..20, vs in 1usize..32) {
        let mut top = TopN::new(src(vec![values.clone()], vs), vec![SortKey::desc(0)], n);
        let out = collect(&mut top);
        let mut expect = values.clone();
        expect.sort_unstable_by(|a, b| b.cmp(a));
        expect.truncate(n);
        let got = if out.columns.is_empty() { vec![] } else { out.col(0).as_i64().to_vec() };
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn cond_expr_equals_branchy_map(values in prop::collection::vec(-100i64..100, 1..300)) {
        let batch = scc_engine::Batch::new(vec![Vector::I64(values.clone())]);
        let e = Expr::col(0).ge(Expr::lit_i64(0)).cond(Expr::col(0), Expr::col(0).mul(Expr::lit_i64(-1)));
        let out = e.eval(&batch);
        let expect: Vec<i64> = values.iter().map(|&v| v.abs()).collect();
        prop_assert_eq!(out.as_i64(), &expect[..]);
    }

    #[test]
    fn results_invariant_under_vector_size(values in prop::collection::vec(0i64..100, 1..400)) {
        let run = |vs: usize| {
            let sel = Select::new(src(vec![values.clone()], vs), Expr::col(0).lt(Expr::lit_i64(50)));
            let mut agg = HashAggregate::new(sel, vec![], vec![AggExpr::Sum(Expr::col(0)), AggExpr::Count]);
            collect(&mut agg)
        };
        let a = run(1);
        let b = run(7);
        let c = run(1024);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&b, &c);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn merge_join_agrees_with_hash_join(
        mut lk in prop::collection::vec(0i64..40, 0..200),
        mut rk in prop::collection::vec(0i64..40, 0..200),
        lvs in 1usize..16,
        rvs in 1usize..16,
    ) {
        lk.sort_unstable();
        rk.sort_unstable();
        let lp: Vec<i64> = (0..lk.len() as i64).collect();
        let rp: Vec<i64> = (0..rk.len() as i64).map(|i| i + 10_000).collect();
        let mut merge = scc_engine::MergeJoin::new(
            src(vec![lk.clone(), lp.clone()], lvs),
            src(vec![rk.clone(), rp.clone()], rvs),
            0,
            0,
        );
        let mut hash = HashJoin::new(
            src(vec![lk, lp], lvs),
            src(vec![rk, rp], rvs),
            vec![0],
            vec![0],
            JoinKind::Inner,
        );
        let rows = |out: scc_engine::Batch| -> Vec<(i64, i64)> {
            if out.columns.is_empty() {
                vec![]
            } else {
                out.col(1).as_i64().iter().zip(out.col(3).as_i64()).map(|(&a, &b)| (a, b)).collect()
            }
        };
        let mut m = rows(collect(&mut merge));
        let mut h = rows(collect(&mut hash));
        m.sort_unstable();
        h.sort_unstable();
        prop_assert_eq!(m, h);
    }
}

/// Key column `ty` (0 = I32, 1 = U32, 2 = I64, 3 = F64) holding `keys`.
fn typed(ty: u8, keys: &[i64]) -> Vector {
    match ty {
        0 => Vector::I32(keys.iter().map(|&k| k as i32).collect()),
        1 => Vector::U32(keys.iter().map(|&k| k as u32).collect()),
        2 => Vector::I64(keys.to_vec()),
        _ => Vector::F64(keys.iter().map(|&k| k as f64 * 0.5).collect()),
    }
}

/// A key drawn from a random `r` so that, per key column, batches take the
/// aggregate's slot table (mode 0: 40 values around zero), overflow it
/// only in combination with a second key (mode 1: 100 values), take the
/// hashed path (mode 2: 50 values 100 003 apart) or switch between the
/// two from batch to batch (mode 3: 16 values plus rare far outliers).
fn key_of(mode: u8, r: u32) -> i64 {
    match mode {
        0 => (r % 40) as i64 - 20,
        1 => (r % 100) as i64,
        2 => (r % 50) as i64 * 100_003 - 2_500_000,
        _ if r.is_multiple_of(61) => 1_000_000 + (r % 3) as i64,
        _ => (r % 16) as i64,
    }
}

/// Per-group reference state: integer sum, count, min, max; f64 sum,
/// min, max accumulated in row order.
#[derive(Clone, Copy)]
struct Ref {
    sum: i64,
    n: i64,
    min: i64,
    max: i64,
    fsum: f64,
    fmin: f64,
    fmax: f64,
}

fn f64_bits(v: &Vector) -> Vec<u64> {
    v.as_f64().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn aggregate_matches_row_order_reference(
        rows in prop::collection::vec((any::<u32>(), any::<u32>(), -1000i64..1000, -1e6f64..1e6), 1..400),
        nkeys in 0usize..3,
        modes in (0u8..4, 0u8..4),
        types in (0u8..4, 0u8..4),
        vs in 1usize..65,
    ) {
        let (modes, types) = ([modes.0, modes.1], [types.0, types.1]);
        let keys: Vec<Vec<i64>> = (0..nkeys)
            .map(|k| rows.iter().map(|r| key_of(modes[k], if k == 0 { r.0 } else { r.1 })).collect())
            .collect();
        let vals: Vec<i64> = rows.iter().map(|r| r.2).collect();
        let floats: Vec<f64> = rows.iter().map(|r| r.3).collect();
        let mut cols: Vec<Vector> = keys.iter().zip(types).map(|(k, ty)| typed(ty, k)).collect();
        cols.push(Vector::I64(vals.clone()));
        cols.push(Vector::F64(floats.clone()));
        let (v, f) = (Expr::col(nkeys), Expr::col(nkeys + 1));
        let mut agg = HashAggregate::new(
            MemSource::new(cols, vs),
            (0..nkeys).map(Expr::col).collect(),
            vec![
                AggExpr::Sum(v.clone()), AggExpr::Count, AggExpr::Avg(v.clone()),
                AggExpr::Min(v.clone()), AggExpr::Max(v),
                AggExpr::Sum(f.clone()), AggExpr::Avg(f.clone()), AggExpr::Min(f.clone()), AggExpr::Max(f),
            ],
        );
        let out = collect(&mut agg);

        // Reference: groups in first-seen order, f64 folded row by row.
        let mut order: Vec<Vec<i64>> = Vec::new();
        let mut groups: HashMap<Vec<i64>, Ref> = HashMap::new();
        for (i, (&x, &y)) in vals.iter().zip(&floats).enumerate() {
            let key: Vec<i64> = keys.iter().map(|k| k[i]).collect();
            let g = groups.entry(key.clone()).or_insert_with(|| {
                order.push(key);
                Ref { sum: 0, n: 0, min: i64::MAX, max: i64::MIN, fsum: 0.0, fmin: f64::INFINITY, fmax: f64::NEG_INFINITY }
            });
            g.sum += x;
            g.n += 1;
            g.min = g.min.min(x);
            g.max = g.max.max(x);
            g.fsum += y;
            g.fmin = g.fmin.min(y);
            g.fmax = g.fmax.max(y);
        }
        let refs: Vec<Ref> = order.iter().map(|k| groups[k]).collect();
        prop_assert_eq!(out.len(), refs.len());
        for k in 0..nkeys {
            let want: Vec<i64> = order.iter().map(|key| key[k]).collect();
            prop_assert_eq!(out.col(k), &typed(types[k], &want), "key column {} in first-seen order", k);
        }
        let col = |a: usize| out.col(nkeys + a);
        let ints = |f: fn(&Ref) -> i64| refs.iter().map(f).collect::<Vec<_>>();
        let bits = |f: fn(&Ref) -> f64| refs.iter().map(|r| f(r).to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(col(0).as_i64(), &ints(|r| r.sum)[..]);
        prop_assert_eq!(col(1).as_i64(), &ints(|r| r.n)[..]);
        prop_assert_eq!(f64_bits(col(2)), bits(|r| r.sum as f64 / r.n as f64));
        prop_assert_eq!(col(3).as_i64(), &ints(|r| r.min)[..]);
        prop_assert_eq!(col(4).as_i64(), &ints(|r| r.max)[..]);
        prop_assert_eq!(f64_bits(col(5)), bits(|r| r.fsum));
        prop_assert_eq!(f64_bits(col(6)), bits(|r| r.fsum / r.n as f64));
        prop_assert_eq!(f64_bits(col(7)), bits(|r| r.fmin));
        prop_assert_eq!(f64_bits(col(8)), bits(|r| r.fmax));
    }

    #[test]
    fn scalar_primitives_match_broadcast(
        vals in prop::collection::vec(-1000i64..1000, 1..200),
        lit in -1000i64..1000,
    ) {
        let ops: [fn(Expr, Expr) -> Expr; 9] =
            [Expr::add, Expr::sub, Expr::mul, Expr::eq, Expr::ne, Expr::lt, Expr::le, Expr::gt, Expr::ge];
        let bits = |v: &Vector| (0..v.len()).map(|i| v.key_at(i)).collect::<Vec<u64>>();
        for ty in 0u8..4 {
            // Column 0 holds the values, column 1 the literal broadcast.
            let value = |x: i64| match ty {
                0 => (Vector::I32(vec![x as i32]), Expr::lit_i32(x as i32)),
                1 => (Vector::I64(vec![x]), Expr::lit_i64(x)),
                2 => (Vector::U32(vec![x as u32]), Expr::lit_u32(x as u32)),
                _ => (Vector::F64(vec![x as f64 * 0.37]), Expr::lit_f64(x as f64 * 0.37)),
            };
            let mut col0 = value(vals[0]).0;
            for &x in &vals[1..] {
                col0.append(&value(x).0);
            }
            let (one, l) = value(lit);
            let mut col1 = one.clone();
            for _ in 1..vals.len() {
                col1.append(&one);
            }
            let batch = scc_engine::Batch::new(vec![col0, col1]);
            for (o, op) in ops.iter().enumerate() {
                if ty == 2 && o < 3 {
                    continue; // u32 dictionary codes have no arithmetic
                }
                let (c, b) = (Expr::col(0), Expr::col(1));
                let cases = [
                    (op(c.clone(), l.clone()), op(c.clone(), b.clone())),
                    (op(l.clone(), c.clone()), op(b.clone(), c)),
                    (op(l.clone(), l.clone()), op(b.clone(), b)),
                ];
                for (side, (scalar, broadcast)) in cases.iter().enumerate() {
                    let got = scalar.eval_ref(&batch);
                    prop_assert_eq!(bits(&got), bits(&broadcast.eval(&batch)), "type {} op {} side {}", ty, o, side);
                    prop_assert_eq!(got.len(), vals.len());
                }
            }
        }
    }
}

/// Empty input: a keyed aggregate yields no batch; a global one yields
/// one identity row, integer-typed because no input value was seen.
#[test]
fn aggregate_over_empty_input() {
    let aggs = || {
        vec![
            AggExpr::Sum(Expr::col(1)),
            AggExpr::Count,
            AggExpr::Avg(Expr::col(1)),
            AggExpr::Min(Expr::col(1)),
            AggExpr::Max(Expr::col(1)),
        ]
    };
    let empty = || MemSource::new(vec![Vector::I32(vec![]), Vector::F64(vec![])], 8);
    let mut keyed = HashAggregate::new(empty(), vec![Expr::col(0)], aggs());
    assert!(keyed.next().is_none());
    let mut global = HashAggregate::new(empty(), vec![], aggs());
    let out = global.next().expect("one identity row");
    assert!(global.next().is_none());
    assert_eq!(out.col(0).as_i64(), &[0]);
    assert_eq!(out.col(1).as_i64(), &[0]);
    assert!(out.col(2).as_f64()[0].is_nan());
    assert_eq!(out.col(3).as_i64(), &[i64::MAX]);
    assert_eq!(out.col(4).as_i64(), &[i64::MIN]);
}
