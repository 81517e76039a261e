//! Hash joins: inner, left-semi and left-anti, keyed on any number of
//! columns.

use crate::batch::{Batch, Vector};
use crate::explain::{ExplainNode, OpProfile};
use crate::ops::Operator;
use std::collections::HashMap;

/// Join variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Emit probe ++ build columns per matching pair.
    Inner,
    /// Emit probe rows with at least one match (probe columns only).
    LeftSemi,
    /// Emit probe rows with no match (probe columns only).
    LeftAnti,
}

/// Hash join. The build side is drained and hashed on the first `next()`
/// call; probing is vector-at-a-time. For [`JoinKind::Inner`] the output
/// schema is all probe columns followed by all build columns (including
/// the key columns of both sides).
pub struct HashJoin {
    probe: Box<dyn Operator>,
    build: Box<dyn Operator>,
    built: bool,
    probe_keys: Vec<usize>,
    build_keys: Vec<usize>,
    kind: JoinKind,
    table: HashMap<Box<[u64]>, Vec<u32>>,
    build_data: Option<Batch>,
    profile: OpProfile,
}

impl HashJoin {
    /// Builds a hash join: `probe` is streamed, `build` is materialized.
    pub fn new(
        probe: impl Operator + 'static,
        build: impl Operator + 'static,
        probe_keys: Vec<usize>,
        build_keys: Vec<usize>,
        kind: JoinKind,
    ) -> Self {
        assert_eq!(probe_keys.len(), build_keys.len(), "key arity mismatch");
        assert!(!probe_keys.is_empty(), "joins need at least one key");
        Self {
            probe: Box::new(probe),
            build: Box::new(build),
            built: false,
            probe_keys,
            build_keys,
            kind,
            table: HashMap::new(),
            build_data: None,
            profile: OpProfile::default(),
        }
    }

    fn ensure_built(&mut self) -> Result<(), scc_core::Error> {
        if !self.built {
            self.built = true;
            let data = crate::ops::try_collect(self.build.as_mut())?;
            let mut key = vec![0u64; self.build_keys.len()];
            for row in 0..data.len() {
                for (slot, &k) in key.iter_mut().zip(&self.build_keys) {
                    *slot = data.col(k).key_at(row);
                }
                self.table.entry(key.clone().into_boxed_slice()).or_default().push(row as u32);
            }
            self.build_data = Some(data);
        }
        Ok(())
    }

    fn produce(&mut self) -> Result<Option<Batch>, scc_core::Error> {
        self.ensure_built()?;
        let mut key = vec![0u64; self.probe_keys.len()];
        loop {
            let Some(batch) = self.probe.try_next()? else {
                return Ok(None);
            };
            match self.kind {
                JoinKind::Inner => {
                    let mut probe_idx: Vec<usize> = Vec::new();
                    let mut build_idx: Vec<usize> = Vec::new();
                    for row in 0..batch.len() {
                        for (slot, &k) in key.iter_mut().zip(&self.probe_keys) {
                            *slot = batch.col(k).key_at(row);
                        }
                        if let Some(rows) = self.table.get(key.as_slice()) {
                            for &b in rows {
                                probe_idx.push(row);
                                build_idx.push(b as usize);
                            }
                        }
                    }
                    if probe_idx.is_empty() {
                        continue;
                    }
                    let mut cols: Vec<Vector> =
                        batch.columns.iter().map(|c| c.gather(&probe_idx)).collect();
                    let build_data = self.build_data.as_ref().expect("built");
                    cols.extend(build_data.columns.iter().map(|c| c.gather(&build_idx)));
                    return Ok(Some(Batch::new(cols)));
                }
                JoinKind::LeftSemi | JoinKind::LeftAnti => {
                    let want_match = self.kind == JoinKind::LeftSemi;
                    let mut keep: Vec<usize> = Vec::new();
                    for row in 0..batch.len() {
                        for (slot, &k) in key.iter_mut().zip(&self.probe_keys) {
                            *slot = batch.col(k).key_at(row);
                        }
                        if self.table.contains_key(key.as_slice()) == want_match {
                            keep.push(row);
                        }
                    }
                    if keep.is_empty() {
                        continue;
                    }
                    return Ok(Some(batch.gather(&keep)));
                }
            }
        }
    }
}

impl Operator for HashJoin {
    fn try_next(&mut self) -> Result<Option<Batch>, scc_core::Error> {
        let start = scc_obs::clock();
        let out = self.produce();
        self.profile.record(start, &out);
        out
    }

    fn label(&self) -> String {
        format!("HashJoin({:?}, keys={})", self.kind, self.probe_keys.len())
    }

    fn profile(&self) -> OpProfile {
        self.profile
    }

    fn explain(&self) -> ExplainNode {
        // Probe (streamed) side first, build (materialized) side last.
        ExplainNode::new(
            self.label(),
            self.profile,
            vec![self.probe.explain(), self.build.explain()],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{collect, source::MemSource};

    fn probe_src() -> Box<dyn Operator> {
        // (key, payload)
        Box::new(MemSource::from_i64(vec![vec![1, 2, 3, 4, 2], vec![10, 20, 30, 40, 21]], 2))
    }

    fn build_src() -> Box<dyn Operator> {
        // (key, name-code): key 2 appears twice.
        Box::new(MemSource::from_i64(vec![vec![2, 3, 2, 9], vec![200, 300, 201, 900]], 3))
    }

    #[test]
    fn inner_join_with_duplicates() {
        let mut join = HashJoin::new(probe_src(), build_src(), vec![0], vec![0], JoinKind::Inner);
        let out = collect(&mut join);
        // probe rows 2,2(payload 20/21) x 2 build rows; probe 3 x 1.
        assert_eq!(out.len(), 5);
        // Columns: probe key, probe payload, build key, build name.
        let bk = out.col(2).as_i64();
        assert!(bk.iter().all(|&k| k == 2 || k == 3));
        let pk = out.col(0).as_i64();
        for (p, b) in pk.iter().zip(bk) {
            assert_eq!(p, b);
        }
    }

    #[test]
    fn semi_join_keeps_matching_probe_rows_once() {
        let mut join =
            HashJoin::new(probe_src(), build_src(), vec![0], vec![0], JoinKind::LeftSemi);
        let out = collect(&mut join);
        assert_eq!(out.col(0).as_i64(), &[2, 3, 2]);
        assert_eq!(out.col(1).as_i64(), &[20, 30, 21]);
    }

    #[test]
    fn anti_join_keeps_non_matching() {
        let mut join =
            HashJoin::new(probe_src(), build_src(), vec![0], vec![0], JoinKind::LeftAnti);
        let out = collect(&mut join);
        assert_eq!(out.col(0).as_i64(), &[1, 4]);
    }

    #[test]
    fn composite_key_join() {
        let probe = Box::new(MemSource::from_i64(
            vec![vec![1, 1, 2], vec![5, 6, 5], vec![100, 101, 102]],
            8,
        ));
        let build = Box::new(MemSource::from_i64(vec![vec![1, 2], vec![5, 5]], 8));
        let mut join = HashJoin::new(probe, build, vec![0, 1], vec![0, 1], JoinKind::Inner);
        let out = collect(&mut join);
        assert_eq!(out.col(2).as_i64(), &[100, 102]);
    }

    #[test]
    fn empty_build_side() {
        let build = Box::new(MemSource::from_i64(vec![vec![], vec![]], 8));
        let mut inner = HashJoin::new(probe_src(), build, vec![0], vec![0], JoinKind::Inner);
        assert!(inner.next().is_none());
        let build = Box::new(MemSource::from_i64(vec![vec![], vec![]], 8));
        let mut anti = HashJoin::new(probe_src(), build, vec![0], vec![0], JoinKind::LeftAnti);
        assert_eq!(collect(&mut anti).len(), 5);
    }
}
