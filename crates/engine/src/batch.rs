//! Column vectors and batches: the unit of data flow between operators.
//!
//! Every batch holds decoded values. Compressed storage decodes inside
//! its scan, where any code-space filtering happens too, so operators
//! never see codes.

/// The type of one column vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColType {
    /// 32-bit signed integers (dates as days, small numerics).
    I32,
    /// 64-bit signed integers (keys, decimals as scaled integers).
    I64,
    /// 32-bit unsigned integers (dictionary codes).
    U32,
    /// 64-bit floats (derived arithmetic, averages).
    F64,
}

impl ColType {
    /// Stable one-byte wire tag (see [`Vector::write_wire`]).
    pub fn tag(self) -> u8 {
        match self {
            ColType::I32 => 1,
            ColType::I64 => 2,
            ColType::U32 => 3,
            ColType::F64 => 4,
        }
    }

    /// Inverse of [`Self::tag`]; `None` for unknown tags.
    pub fn from_tag(tag: u8) -> Option<ColType> {
        match tag {
            1 => Some(ColType::I32),
            2 => Some(ColType::I64),
            3 => Some(ColType::U32),
            4 => Some(ColType::F64),
            _ => None,
        }
    }
}

/// A typed column vector.
#[derive(Debug, Clone, PartialEq)]
pub enum Vector {
    /// 32-bit signed values.
    I32(Vec<i32>),
    /// 64-bit signed values.
    I64(Vec<i64>),
    /// Dictionary codes.
    U32(Vec<u32>),
    /// Floats.
    F64(Vec<f64>),
    /// Boolean masks produced by comparison primitives.
    Mask(Vec<bool>),
}

impl Vector {
    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            Vector::I32(v) => v.len(),
            Vector::I64(v) => v.len(),
            Vector::U32(v) => v.len(),
            Vector::F64(v) => v.len(),
            Vector::Mask(v) => v.len(),
        }
    }

    /// True when the vector holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The vector's column type.
    ///
    /// # Panics
    /// Panics on [`Vector::Mask`], which is not a storable column type.
    pub fn col_type(&self) -> ColType {
        match self {
            Vector::I32(_) => ColType::I32,
            Vector::I64(_) => ColType::I64,
            Vector::U32(_) => ColType::U32,
            Vector::F64(_) => ColType::F64,
            Vector::Mask(_) => panic!("masks are not a column type"),
        }
    }

    /// The underlying `i64` data (panics on other types).
    pub fn as_i64(&self) -> &[i64] {
        match self {
            Vector::I64(v) => v,
            other => panic!("expected I64 vector, got {:?}", other.type_name()),
        }
    }

    /// The underlying `i32` data (panics on other types).
    pub fn as_i32(&self) -> &[i32] {
        match self {
            Vector::I32(v) => v,
            other => panic!("expected I32 vector, got {:?}", other.type_name()),
        }
    }

    /// The underlying `u32` data (panics on other types).
    pub fn as_u32(&self) -> &[u32] {
        match self {
            Vector::U32(v) => v,
            other => panic!("expected U32 vector, got {:?}", other.type_name()),
        }
    }

    /// The underlying `f64` data (panics on other types).
    pub fn as_f64(&self) -> &[f64] {
        match self {
            Vector::F64(v) => v,
            other => panic!("expected F64 vector, got {:?}", other.type_name()),
        }
    }

    /// The underlying mask (panics on other types).
    pub fn as_mask(&self) -> &[bool] {
        match self {
            Vector::Mask(v) => v,
            other => panic!("expected Mask vector, got {:?}", other.type_name()),
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            Vector::I32(_) => "I32",
            Vector::I64(_) => "I64",
            Vector::U32(_) => "U32",
            Vector::F64(_) => "F64",
            Vector::Mask(_) => "Mask",
        }
    }

    /// Value at `i` widened to `i64` for key handling (F64 uses raw bits).
    #[inline]
    pub fn key_at(&self, i: usize) -> u64 {
        match self {
            Vector::I32(v) => v[i] as u32 as u64,
            Vector::I64(v) => v[i] as u64,
            Vector::U32(v) => v[i] as u64,
            Vector::F64(v) => v[i].to_bits(),
            Vector::Mask(v) => v[i] as u64,
        }
    }

    /// Gathers the elements at `indices` into a new vector of the same
    /// type (the compaction primitive behind selections and joins).
    pub fn gather(&self, indices: &[usize]) -> Vector {
        match self {
            Vector::I32(v) => Vector::I32(indices.iter().map(|&i| v[i]).collect()),
            Vector::I64(v) => Vector::I64(indices.iter().map(|&i| v[i]).collect()),
            Vector::U32(v) => Vector::U32(indices.iter().map(|&i| v[i]).collect()),
            Vector::F64(v) => Vector::F64(indices.iter().map(|&i| v[i]).collect()),
            Vector::Mask(v) => Vector::Mask(indices.iter().map(|&i| v[i]).collect()),
        }
    }

    /// Appends `other` (same type) onto `self`.
    pub fn append(&mut self, other: &Vector) {
        match (self, other) {
            (Vector::I32(a), Vector::I32(b)) => a.extend_from_slice(b),
            (Vector::I64(a), Vector::I64(b)) => a.extend_from_slice(b),
            (Vector::U32(a), Vector::U32(b)) => a.extend_from_slice(b),
            (Vector::F64(a), Vector::F64(b)) => a.extend_from_slice(b),
            (Vector::Mask(a), Vector::Mask(b)) => a.extend_from_slice(b),
            (a, b) => panic!("append type mismatch: {} vs {}", a.type_name(), b.type_name()),
        }
    }

    /// An empty vector of the given type.
    pub fn empty(ty: ColType) -> Vector {
        match ty {
            ColType::I32 => Vector::I32(Vec::new()),
            ColType::I64 => Vector::I64(Vec::new()),
            ColType::U32 => Vector::U32(Vec::new()),
            ColType::F64 => Vector::F64(Vec::new()),
        }
    }

    /// Appends the wire form — `[u8 type tag][u32 LE count][count
    /// little-endian values]` — to `out`. The unit the server's value
    /// and batch response frames are built from.
    ///
    /// # Panics
    /// Panics on [`Vector::Mask`] (masks are transient predicate
    /// results, never materialized column data).
    pub fn write_wire(&self, out: &mut Vec<u8>) {
        out.push(self.col_type().tag());
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        match self {
            Vector::I32(v) => v.iter().for_each(|x| out.extend_from_slice(&x.to_le_bytes())),
            Vector::I64(v) => v.iter().for_each(|x| out.extend_from_slice(&x.to_le_bytes())),
            Vector::U32(v) => v.iter().for_each(|x| out.extend_from_slice(&x.to_le_bytes())),
            Vector::F64(v) => v.iter().for_each(|x| out.extend_from_slice(&x.to_le_bytes())),
            Vector::Mask(_) => unreachable!("col_type rejected the mask"),
        }
    }

    /// Reads one [`Self::write_wire`] record from `bytes` starting at
    /// `*pos`, advancing `*pos` past it. Unknown type tags and short
    /// buffers come back as typed errors — network peers are not
    /// trusted to frame vectors correctly.
    pub fn read_wire(bytes: &[u8], pos: &mut usize) -> Result<Vector, scc_core::Error> {
        use scc_core::{Error, WireError};
        let need =
            |at: usize, need: usize, have: usize| Error::Truncated { offset: at, need, have };
        if *pos + 5 > bytes.len() {
            return Err(need(*pos, 5, bytes.len() - *pos));
        }
        let ty = ColType::from_tag(bytes[*pos])
            .ok_or(Error::Wire(WireError::Corrupt("unknown vector type tag")))?;
        let count = u32::from_le_bytes(bytes[*pos + 1..*pos + 5].try_into().unwrap()) as usize;
        let mut at = *pos + 5;
        let width = match ty {
            ColType::I32 | ColType::U32 => 4,
            ColType::I64 | ColType::F64 => 8,
        };
        // The count is untrusted: bound it by the bytes actually present
        // before any allocation.
        let body = count.checked_mul(width).filter(|&b| at + b <= bytes.len()).ok_or(need(
            at,
            count.saturating_mul(width),
            bytes.len() - at,
        ))?;
        macro_rules! read {
            ($ctor:path, $ty:ty) => {{
                let mut v = Vec::with_capacity(count);
                for chunk in bytes[at..at + body].chunks_exact(width) {
                    v.push(<$ty>::from_le_bytes(chunk.try_into().unwrap()));
                }
                $ctor(v)
            }};
        }
        let out = match ty {
            ColType::I32 => read!(Vector::I32, i32),
            ColType::I64 => read!(Vector::I64, i64),
            ColType::U32 => read!(Vector::U32, u32),
            ColType::F64 => read!(Vector::F64, f64),
        };
        at += body;
        *pos = at;
        Ok(out)
    }
}

/// A batch of rows: equal-length column vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// The column vectors; all the same length.
    pub columns: Vec<Vector>,
}

impl Batch {
    /// Builds a batch, checking column lengths agree.
    pub fn new(columns: Vec<Vector>) -> Self {
        if let Some(first) = columns.first() {
            let n = first.len();
            debug_assert!(columns.iter().all(|c| c.len() == n), "ragged batch");
        }
        Self { columns }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, Vector::len)
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Column `i`.
    pub fn col(&self, i: usize) -> &Vector {
        &self.columns[i]
    }

    /// Always `Ok(0)`: batches only hold values; kept for older callers.
    #[doc(hidden)]
    pub fn ensure_values(&mut self) -> Result<u64, scc_core::Error> {
        Ok(0)
    }

    /// Gathers rows at `indices` across all columns.
    pub fn gather(&self, indices: &[usize]) -> Batch {
        Batch::new(self.columns.iter().map(|c| c.gather(indices)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_compacts_rows() {
        let b = Batch::new(vec![
            Vector::I64(vec![10, 20, 30, 40]),
            Vector::F64(vec![1.0, 2.0, 3.0, 4.0]),
        ]);
        let g = b.gather(&[0, 3]);
        assert_eq!(g.col(0).as_i64(), &[10, 40]);
        assert_eq!(g.col(1).as_f64(), &[1.0, 4.0]);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn key_at_is_type_stable() {
        let v = Vector::I32(vec![-1]);
        let w = Vector::I64(vec![-1]);
        // Same logical value, widened consistently within a type.
        assert_eq!(v.key_at(0), u32::MAX as u64);
        assert_eq!(w.key_at(0), u64::MAX);
    }

    #[test]
    fn append_same_type() {
        let mut a = Vector::U32(vec![1, 2]);
        a.append(&Vector::U32(vec![3]));
        assert_eq!(a.as_u32(), &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn append_type_mismatch_panics() {
        let mut a = Vector::U32(vec![1]);
        a.append(&Vector::I64(vec![2]));
    }

    #[test]
    fn empty_batch() {
        let b = Batch::new(vec![]);
        assert_eq!(b.len(), 0);
        assert!(b.is_empty());
    }

    #[test]
    fn vector_wire_roundtrips_every_type() {
        let vectors = vec![
            Vector::I32(vec![i32::MIN, -1, 0, 7, i32::MAX]),
            Vector::I64(vec![i64::MIN, -1, 0, 7, i64::MAX]),
            Vector::U32(vec![0, 1, u32::MAX]),
            Vector::F64(vec![-0.5, 0.0, f64::MAX]),
            Vector::U32(Vec::new()),
        ];
        let mut buf = Vec::new();
        for v in &vectors {
            v.write_wire(&mut buf);
        }
        let mut pos = 0;
        for v in &vectors {
            assert_eq!(&Vector::read_wire(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn vector_wire_rejects_bad_tags_and_short_buffers() {
        let mut buf = Vec::new();
        Vector::I64(vec![1, 2, 3]).write_wire(&mut buf);
        // Unknown type tag.
        let mut bad = buf.clone();
        bad[0] = 99;
        assert!(Vector::read_wire(&bad, &mut 0).is_err());
        // Every truncation point fails typed, never panics.
        for cut in 0..buf.len() {
            assert!(Vector::read_wire(&buf[..cut], &mut 0).is_err(), "cut at {cut}");
        }
        // A count promising more data than the buffer holds.
        let mut lying = buf.clone();
        lying[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Vector::read_wire(&lying, &mut 0).is_err());
    }

    #[test]
    fn col_type_tags_are_stable_and_invertible() {
        for ty in [ColType::I32, ColType::I64, ColType::U32, ColType::F64] {
            assert_eq!(ColType::from_tag(ty.tag()), Some(ty));
        }
        assert_eq!(ColType::from_tag(0), None);
        assert_eq!(ColType::from_tag(5), None);
    }
}
