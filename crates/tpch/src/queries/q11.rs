//! TPC-H Q11: important stock identification — partsupp value per part
//! for one nation, filtered against a fraction of the total.

use crate::db::{run_query as timed, QueryConfig, QueryRun, TpchDb};
use crate::queries::nation_key;
use scc_engine::Operator as _;
use scc_engine::{AggExpr, Batch, Expr, HashAggregate, HashJoin, JoinKind, Project};

/// Columns scanned.
pub const COLUMNS: &[(&str, &[&str])] = &[
    ("partsupp", &["ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost"]),
    ("supplier", &["s_suppkey", "s_nationkey"]),
];

/// Executes Q11. Output: ps_partkey, value (desc), for parts whose value
/// exceeds `0.0001 / SF` of the national total.
pub fn run(db: &TpchDb, cfg: &QueryConfig) -> QueryRun {
    let fraction = 0.0001 / db.sf.max(1e-6);
    timed(|stats| {
        let germany = nation_key(db, "GERMANY");
        // German suppliers. 0=s_suppkey 1=s_nationkey.
        let supp = cfg.scan_where(
            &db.supplier,
            &["s_suppkey", "s_nationkey"],
            Some(Expr::col(1).eq(Expr::lit_i64(germany))),
            stats,
        );
        // Partsupp probe: 0=ps_partkey 1=ps_suppkey 2=ps_availqty
        // 3=ps_supplycost; join adds 4=s_suppkey 5=s_nationkey.
        let ps = cfg.scan(
            &db.partsupp,
            &["ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost"],
            stats,
        );
        let joined = HashJoin::new(Box::new(ps), Box::new(supp), vec![1], vec![0], JoinKind::Inner);
        let value = Expr::col(3).to_f64().mul(Expr::col(2).to_f64());
        let proj = Project::new(Box::new(joined), vec![Expr::col(0), value]);
        let mut agg = HashAggregate::new(
            Box::new(proj),
            vec![Expr::col(0)],
            vec![AggExpr::Sum(Expr::col(1))],
        );
        let groups = scc_engine::ops::collect(&mut agg);
        // The HAVING threshold needs the grand total, so finish in plain
        // code (the paper's engine would run a scalar subquery here). A
        // nation without suppliers at a tiny scale factor has no groups.
        let (keys, vals) = match groups.columns.as_slice() {
            [] => (&[][..], &[][..]),
            _ => (groups.col(0).as_i64(), groups.col(1).as_f64()),
        };
        let total: f64 = vals.iter().sum();
        let threshold = total * fraction;
        let mut rows: Vec<(i64, f64)> =
            keys.iter().zip(vals).filter(|(_, &v)| v > threshold).map(|(&k, &v)| (k, v)).collect();
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        let batch = Batch::new(vec![
            scc_engine::Vector::I64(rows.iter().map(|r| r.0).collect()),
            scc_engine::Vector::F64(rows.iter().map(|r| r.1).collect()),
        ]);
        (batch, agg.explain())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::testkit::{assert_config_invariant, small_db};
    use std::collections::{HashMap, HashSet};

    #[test]
    fn matches_reference() {
        let db = small_db();
        let out = run(db, &QueryConfig::default()).batch;

        let raw = &db.raw;
        let germany = nation_key(db, "GERMANY");
        let german_supp: HashSet<i64> = raw
            .supplier
            .suppkey
            .iter()
            .zip(raw.supplier.nationkey.iter())
            .filter(|(_, &n)| n == germany)
            .map(|(&s, _)| s)
            .collect();
        let mut per_part: HashMap<i64, f64> = HashMap::new();
        let mut total = 0.0;
        for i in 0..raw.partsupp.partkey.len() {
            if german_supp.contains(&raw.partsupp.suppkey[i]) {
                let v = raw.partsupp.supplycost[i] as f64 * raw.partsupp.availqty[i] as f64;
                *per_part.entry(raw.partsupp.partkey[i]).or_default() += v;
                total += v;
            }
        }
        let threshold = total * (0.0001 / db.sf);
        let mut rows: Vec<(i64, f64)> =
            per_part.into_iter().filter(|&(_, v)| v > threshold).collect();
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        assert!(!rows.is_empty());
        assert_eq!(out.len(), rows.len());
        for (row, (k, v)) in rows.iter().enumerate() {
            assert_eq!(out.col(0).as_i64()[row], *k);
            assert!((out.col(1).as_f64()[row] - v).abs() < 1.0);
        }
    }

    #[test]
    fn invariant_under_storage_configs() {
        assert_config_invariant(11);
    }

    /// At SF 0.002 (20 suppliers) no supplier is German, so the keyed
    /// aggregate emits no batch; the query must answer with no rows.
    #[test]
    fn nation_without_suppliers_yields_no_rows() {
        let db = crate::TpchDb::load(crate::gen::generate(0.002, 20_060_703), Some(2048));
        let germany = nation_key(&db, "GERMANY");
        assert!(!db.raw.supplier.nationkey.contains(&germany), "precondition");
        let out = run(&db, &QueryConfig::default()).batch;
        assert_eq!((out.columns.len(), out.len()), (2, 0));
    }
}
