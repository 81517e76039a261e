//! Merge join over sorted inputs — the join the paper's §5 retrieval
//! query uses ("a merge-join of the postings table with the document
//! offsets"). Both inputs must be sorted ascending on their key column;
//! this is the natural join for clustered/ordered storage, needing no
//! hash table and streaming both sides.

use crate::batch::{Batch, Vector};
use crate::explain::{ExplainNode, OpProfile};
use crate::ops::Operator;

/// Inner merge join of two key-sorted inputs. Output: left columns ++
/// right columns, one row per matching pair (duplicate keys produce the
/// full cross product of their groups).
///
/// Keys are compared through [`Vector::key_at`]'s widening: `i64` keys
/// order correctly everywhere; `i32`/`u32` keys must be non-negative
/// (negative `i32` widens above the positives). All TPC-H and postings
/// keys satisfy this.
pub struct MergeJoin {
    left: Box<dyn Operator>,
    right: Box<dyn Operator>,
    left_key: usize,
    right_key: usize,
    left_buf: Option<(Batch, usize)>,
    right_buf: Option<(Batch, usize)>,
    left_done: bool,
    right_done: bool,
    /// Buffered right-side group for duplicate-key cross products.
    right_group: Option<(i64, Batch)>,
    profile: OpProfile,
}

impl MergeJoin {
    /// Builds a merge join; `left_key`/`right_key` are the sorted key
    /// columns (compared as widened i64 via [`Vector::key_at`]).
    pub fn new(
        left: impl Operator + 'static,
        right: impl Operator + 'static,
        left_key: usize,
        right_key: usize,
    ) -> Self {
        Self {
            left: Box::new(left),
            right: Box::new(right),
            left_key,
            right_key,
            left_buf: None,
            right_buf: None,
            left_done: false,
            right_done: false,
            right_group: None,
            profile: OpProfile::default(),
        }
    }

    fn fill_left(&mut self) -> Result<bool, scc_core::Error> {
        loop {
            if let Some((b, pos)) = &self.left_buf {
                if *pos < b.len() {
                    return Ok(true);
                }
            }
            if self.left_done {
                return Ok(false);
            }
            match self.left.try_next()? {
                Some(b) if !b.is_empty() => {
                    self.left_buf = Some((b, 0));
                }
                Some(_) => continue,
                None => {
                    self.left_done = true;
                    return Ok(false);
                }
            }
        }
    }

    fn fill_right(&mut self) -> Result<bool, scc_core::Error> {
        loop {
            if let Some((b, pos)) = &self.right_buf {
                if *pos < b.len() {
                    return Ok(true);
                }
            }
            if self.right_done {
                return Ok(false);
            }
            match self.right.try_next()? {
                Some(b) if !b.is_empty() => {
                    self.right_buf = Some((b, 0));
                }
                Some(_) => continue,
                None => {
                    self.right_done = true;
                    return Ok(false);
                }
            }
        }
    }

    fn left_key_at(&self) -> i64 {
        let (b, pos) = self.left_buf.as_ref().expect("filled");
        b.col(self.left_key).key_at(*pos) as i64
    }

    fn right_key_at(&self) -> i64 {
        let (b, pos) = self.right_buf.as_ref().expect("filled");
        b.col(self.right_key).key_at(*pos) as i64
    }

    /// Collects the full right-side group for `key` (may span batches).
    fn collect_right_group(&mut self, key: i64) -> Result<Batch, scc_core::Error> {
        let mut rows: Option<Batch> = None;
        while self.fill_right()? && self.right_key_at() == key {
            let (b, pos) = self.right_buf.as_mut().expect("filled");
            let start = *pos;
            let mut end = start;
            while end < b.len() && b.col(self.right_key).key_at(end) as i64 == key {
                end += 1;
            }
            *pos = end;
            let part = b.gather(&(start..end).collect::<Vec<_>>());
            match &mut rows {
                None => rows = Some(part),
                Some(acc) => {
                    for (a, c) in acc.columns.iter_mut().zip(part.columns.iter()) {
                        a.append(c);
                    }
                }
            }
        }
        Ok(rows.expect("group is non-empty by construction"))
    }
}

impl MergeJoin {
    fn produce(&mut self) -> Result<Option<Batch>, scc_core::Error> {
        loop {
            if !self.fill_left()? {
                return Ok(None);
            }
            let lk = self.left_key_at();
            // Reuse the buffered right group if it matches; otherwise
            // advance the right side to lk.
            let group_matches = self.right_group.as_ref().is_some_and(|(k, _)| *k == lk);
            if !group_matches {
                self.right_group = None;
                loop {
                    if !self.fill_right()? {
                        return Ok(None); // right exhausted: no more matches
                    }
                    let rk = self.right_key_at();
                    if rk < lk {
                        let (b, pos) = self.right_buf.as_mut().expect("filled");
                        // Skip the whole run below lk within this batch.
                        while *pos < b.len() && (b.col(self.right_key).key_at(*pos) as i64) < lk {
                            *pos += 1;
                        }
                    } else {
                        break;
                    }
                }
                if self.right_key_at() > lk {
                    // No right match: advance left past lk.
                    let (b, pos) = self.left_buf.as_mut().expect("filled");
                    while *pos < b.len() && b.col(self.left_key).key_at(*pos) as i64 == lk {
                        *pos += 1;
                    }
                    continue;
                }
                let group = self.collect_right_group(lk)?;
                self.right_group = Some((lk, group));
            }
            // Emit the cross product of the left run (within this batch)
            // with the right group.
            let (b, pos) = self.left_buf.as_mut().expect("filled");
            let start = *pos;
            let mut end = start;
            while end < b.len() && b.col(self.left_key).key_at(end) as i64 == lk {
                end += 1;
            }
            *pos = end;
            let group = &self.right_group.as_ref().expect("set above").1;
            let g = group.len();
            let left_idx: Vec<usize> =
                (start..end).flat_map(|i| std::iter::repeat_n(i, g)).collect();
            let right_idx: Vec<usize> = (start..end).flat_map(|_| 0..g).collect();
            let mut cols: Vec<Vector> = b.columns.iter().map(|c| c.gather(&left_idx)).collect();
            cols.extend(group.columns.iter().map(|c| c.gather(&right_idx)));
            return Ok(Some(Batch::new(cols)));
        }
    }
}

impl Operator for MergeJoin {
    fn try_next(&mut self) -> Result<Option<Batch>, scc_core::Error> {
        let start = scc_obs::clock();
        let out = self.produce();
        self.profile.record(start, &out);
        out
    }

    fn label(&self) -> String {
        "MergeJoin".into()
    }

    fn profile(&self) -> OpProfile {
        self.profile
    }

    fn explain(&self) -> ExplainNode {
        ExplainNode::new(
            self.label(),
            self.profile,
            vec![self.left.explain(), self.right.explain()],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{collect, source::MemSource};

    fn sorted_src(keys: Vec<i64>, pay: Vec<i64>, vs: usize) -> MemSource {
        MemSource::from_i64(vec![keys, pay], vs)
    }

    #[test]
    fn basic_inner_merge() {
        let left = sorted_src(vec![1, 2, 4, 6], vec![10, 20, 40, 60], 2);
        let right = sorted_src(vec![2, 3, 4, 4, 7], vec![200, 300, 400, 401, 700], 2);
        let mut join = MergeJoin::new(left, right, 0, 0);
        let out = collect(&mut join);
        // Matches: (2,200), (4,400), (4,401).
        assert_eq!(out.col(0).as_i64(), &[2, 4, 4]);
        assert_eq!(out.col(1).as_i64(), &[20, 40, 40]);
        assert_eq!(out.col(3).as_i64(), &[200, 400, 401]);
    }

    #[test]
    fn duplicate_keys_cross_product() {
        let left = sorted_src(vec![5, 5, 5], vec![1, 2, 3], 1);
        let right = sorted_src(vec![5, 5], vec![10, 20], 1);
        let mut join = MergeJoin::new(left, right, 0, 0);
        let out = collect(&mut join);
        assert_eq!(out.len(), 6);
        let pairs: Vec<(i64, i64)> =
            out.col(1).as_i64().iter().zip(out.col(3).as_i64()).map(|(&a, &b)| (a, b)).collect();
        for l in 1..=3 {
            for r in [10, 20] {
                assert!(pairs.contains(&(l, r)), "missing ({l},{r})");
            }
        }
    }

    #[test]
    fn disjoint_inputs_produce_nothing() {
        let left = sorted_src(vec![1, 3, 5], vec![0; 3], 2);
        let right = sorted_src(vec![2, 4, 6], vec![0; 3], 2);
        let mut join = MergeJoin::new(left, right, 0, 0);
        assert!(join.next().is_none());
    }

    #[test]
    fn agrees_with_hash_join() {
        use crate::ops::join::{HashJoin, JoinKind};
        let lk: Vec<i64> = (0..300).map(|i| (i / 3) as i64).collect();
        let lp: Vec<i64> = (0..300).collect();
        let rk: Vec<i64> = (0..150).map(|i| (i / 2 + 20) as i64).collect();
        let rp: Vec<i64> = (0..150).map(|i| i + 5000).collect();
        let mut merge = MergeJoin::new(
            sorted_src(lk.clone(), lp.clone(), 7),
            sorted_src(rk.clone(), rp.clone(), 5),
            0,
            0,
        );
        let mut hash = HashJoin::new(
            sorted_src(lk, lp, 7),
            sorted_src(rk, rp, 5),
            vec![0],
            vec![0],
            JoinKind::Inner,
        );
        let mut m_rows: Vec<(i64, i64, i64)> = {
            let out = collect(&mut merge);
            (0..out.len())
                .map(|i| (out.col(0).as_i64()[i], out.col(1).as_i64()[i], out.col(3).as_i64()[i]))
                .collect()
        };
        let mut h_rows: Vec<(i64, i64, i64)> = {
            let out = collect(&mut hash);
            (0..out.len())
                .map(|i| (out.col(0).as_i64()[i], out.col(1).as_i64()[i], out.col(3).as_i64()[i]))
                .collect()
        };
        m_rows.sort_unstable();
        h_rows.sort_unstable();
        assert_eq!(m_rows, h_rows);
    }

    #[test]
    fn runs_spanning_batch_boundaries() {
        // Key 7 spans two left batches and two right batches.
        let left = sorted_src(vec![7; 6], (0..6).collect(), 2);
        let right = sorted_src(vec![7; 4], (10..14).collect(), 3);
        let mut join = MergeJoin::new(left, right, 0, 0);
        let out = collect(&mut join);
        assert_eq!(out.len(), 24);
    }

    #[test]
    fn empty_sides() {
        let left = sorted_src(vec![], vec![], 2);
        let right = sorted_src(vec![1], vec![1], 2);
        assert!(MergeJoin::new(left, right, 0, 0).next().is_none());
        let left = sorted_src(vec![1], vec![1], 2);
        let right = sorted_src(vec![], vec![], 2);
        assert!(MergeJoin::new(left, right, 0, 0).next().is_none());
    }
}
