//! Sorting and top-N.

use crate::batch::{Batch, Vector};
use crate::explain::{ExplainNode, OpProfile};
use crate::ops::Operator;
use std::cmp::Ordering;

/// One sort key: column index and direction.
#[derive(Debug, Clone, Copy)]
pub struct SortKey {
    /// Column to order by.
    pub col: usize,
    /// Descending when true.
    pub desc: bool,
}

impl SortKey {
    /// Ascending key.
    pub fn asc(col: usize) -> Self {
        Self { col, desc: false }
    }

    /// Descending key.
    pub fn desc(col: usize) -> Self {
        Self { col, desc: true }
    }
}

fn cmp_at(v: &Vector, a: usize, b: usize) -> Ordering {
    match v {
        Vector::I32(x) => x[a].cmp(&x[b]),
        Vector::I64(x) => x[a].cmp(&x[b]),
        Vector::U32(x) => x[a].cmp(&x[b]),
        Vector::F64(x) => x[a].partial_cmp(&x[b]).unwrap_or(Ordering::Equal),
        Vector::Mask(x) => x[a].cmp(&x[b]),
    }
}

fn sorted_indices(data: &Batch, keys: &[SortKey]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..data.len()).collect();
    idx.sort_by(|&a, &b| {
        for k in keys {
            let ord = cmp_at(data.col(k.col), a, b);
            let ord = if k.desc { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    idx
}

/// Full materializing sort. The child operator is retained after the
/// sort runs so post-execution [`Operator::explain`] sees the whole
/// plan.
pub struct OrderBy {
    input: Box<dyn Operator>,
    keys: Vec<SortKey>,
    out: Option<Batch>,
    done: bool,
    profile: OpProfile,
}

impl OrderBy {
    /// Builds a sort over `input`.
    pub fn new(input: impl Operator + 'static, keys: Vec<SortKey>) -> Self {
        Self { input: Box::new(input), keys, out: None, done: false, profile: OpProfile::default() }
    }

    fn produce(&mut self) -> Result<Option<Batch>, scc_core::Error> {
        if !self.done {
            self.done = true;
            let data = crate::ops::try_collect(self.input.as_mut())?;
            if !data.is_empty() {
                let idx = sorted_indices(&data, &self.keys);
                self.out = Some(data.gather(&idx));
            }
        }
        Ok(self.out.take().filter(|b| !b.is_empty()))
    }
}

impl Operator for OrderBy {
    fn try_next(&mut self) -> Result<Option<Batch>, scc_core::Error> {
        let start = scc_obs::clock();
        let out = self.produce();
        self.profile.record(start, &out);
        out
    }

    fn label(&self) -> String {
        format!("OrderBy(keys={})", self.keys.len())
    }

    fn profile(&self) -> OpProfile {
        self.profile
    }

    fn explain(&self) -> ExplainNode {
        ExplainNode::new(self.label(), self.profile, vec![self.input.explain()])
    }
}

/// Sort + limit: the top `n` rows under the sort order.
pub struct TopN {
    inner: OrderBy,
    n: usize,
    profile: OpProfile,
}

impl TopN {
    /// Builds a top-N over `input`.
    pub fn new(input: impl Operator + 'static, keys: Vec<SortKey>, n: usize) -> Self {
        Self { inner: OrderBy::new(input, keys), n, profile: OpProfile::default() }
    }

    fn produce(&mut self) -> Result<Option<Batch>, scc_core::Error> {
        let Some(batch) = self.inner.try_next()? else {
            return Ok(None);
        };
        if batch.len() <= self.n {
            return Ok(Some(batch));
        }
        let idx: Vec<usize> = (0..self.n).collect();
        Ok(Some(batch.gather(&idx)))
    }
}

impl Operator for TopN {
    fn try_next(&mut self) -> Result<Option<Batch>, scc_core::Error> {
        let start = scc_obs::clock();
        let out = self.produce();
        self.profile.record(start, &out);
        out
    }

    fn label(&self) -> String {
        format!("TopN(n={}, keys={})", self.n, self.inner.keys.len())
    }

    fn profile(&self) -> OpProfile {
        self.profile
    }

    fn explain(&self) -> ExplainNode {
        ExplainNode::new(self.label(), self.profile, vec![self.inner.explain()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::source::MemSource;

    #[test]
    fn multi_key_sort() {
        let a = vec![2i64, 1, 2, 1];
        let b = vec![5i64, 9, 3, 7];
        let src = MemSource::from_i64(vec![a, b], 2);
        let mut sort = OrderBy::new(Box::new(src), vec![SortKey::asc(0), SortKey::desc(1)]);
        let out = sort.next().unwrap();
        assert_eq!(out.col(0).as_i64(), &[1, 1, 2, 2]);
        assert_eq!(out.col(1).as_i64(), &[9, 7, 5, 3]);
        assert!(sort.next().is_none());
    }

    #[test]
    fn top_n_truncates() {
        let src = MemSource::from_i64(vec![(0..100).collect()], 7);
        let mut top = TopN::new(Box::new(src), vec![SortKey::desc(0)], 3);
        let out = top.next().unwrap();
        assert_eq!(out.col(0).as_i64(), &[99, 98, 97]);
    }

    #[test]
    fn top_n_smaller_input_passes_through() {
        let src = MemSource::from_i64(vec![vec![3, 1, 2]], 8);
        let mut top = TopN::new(Box::new(src), vec![SortKey::asc(0)], 10);
        assert_eq!(top.next().unwrap().col(0).as_i64(), &[1, 2, 3]);
    }

    #[test]
    fn empty_input() {
        let src = MemSource::from_i64(vec![vec![]], 8);
        let mut sort = OrderBy::new(Box::new(src), vec![SortKey::asc(0)]);
        assert!(sort.next().is_none());
    }

    #[test]
    fn float_keys_sort() {
        let src = MemSource::new(vec![Vector::F64(vec![2.5, -1.0, 0.0])], 8);
        let mut sort = OrderBy::new(Box::new(src), vec![SortKey::asc(0)]);
        assert_eq!(sort.next().unwrap().col(0).as_f64(), &[-1.0, 0.0, 2.5]);
    }
}
