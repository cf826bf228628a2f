use std::error::Error;
use std::fmt;

use bytes::Bytes;

/// One instruction of a [`Delta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// Copy `len` bytes starting at `offset` of the *old* file.
    Copy {
        /// Byte offset into the old file.
        offset: u64,
        /// Number of bytes to copy.
        len: u64,
    },
    /// Emit these bytes verbatim.
    Literal(Bytes),
}

/// A reconstruction recipe: applying it to the old file yields the new one.
///
/// This is the unit rsync transmits instead of the file. Its
/// [`wire_size`](Delta::wire_size) is what the network-traffic figures
/// count for delta-encoding engines.
///
/// # Example
///
/// ```
/// use bytes::Bytes;
/// use deltacfs_delta::{Delta, DeltaOp};
///
/// let delta = Delta::from_ops(vec![
///     DeltaOp::Copy { offset: 0, len: 3 },
///     DeltaOp::Literal(Bytes::from_static(b"XY")),
/// ]);
/// assert_eq!(delta.apply(b"abcdef")?, b"abcXY");
/// # Ok::<(), deltacfs_delta::ApplyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Delta {
    ops: Vec<DeltaOp>,
}

/// Per-instruction wire overhead: opcode + offset/length encoding.
///
/// Matches librsync's order of magnitude; the exact constant only has to be
/// charged consistently across engines.
pub const OP_HEADER_BYTES: u64 = 9;

impl Delta {
    /// Creates a delta from a list of instructions, merging adjacent
    /// compatible ops (back-to-back copies, back-to-back literals).
    pub fn from_ops(ops: Vec<DeltaOp>) -> Self {
        let mut merged: Vec<DeltaOp> = Vec::with_capacity(ops.len());
        for op in ops {
            match (merged.last_mut(), op) {
                (
                    Some(DeltaOp::Copy { offset, len }),
                    DeltaOp::Copy {
                        offset: o2,
                        len: l2,
                    },
                ) if *offset + *len == o2 => *len += l2,
                (Some(DeltaOp::Literal(a)), DeltaOp::Literal(b)) => {
                    let mut v = Vec::with_capacity(a.len() + b.len());
                    v.extend_from_slice(a);
                    v.extend_from_slice(&b);
                    *a = Bytes::from(v);
                }
                (_, op) => merged.push(op),
            }
        }
        Delta { ops: merged }
    }

    /// Reassembles a materialized delta from streamed chunks.
    ///
    /// Ops split at chunk boundaries (adjacent copies, a literal cut by
    /// the chunk budget) re-merge under the [`from_ops`](Delta::from_ops)
    /// rules, so the result is byte-identical to the `Delta` the
    /// non-streaming walk would have produced.
    pub fn from_chunks<I: IntoIterator<Item = crate::stream::DeltaChunk>>(chunks: I) -> Self {
        Delta::from_ops(chunks.into_iter().flat_map(|c| c.ops).collect())
    }

    /// The instructions, in order.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// Total bytes carried literally.
    pub fn literal_bytes(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                DeltaOp::Literal(b) => b.len() as u64,
                DeltaOp::Copy { .. } => 0,
            })
            .sum()
    }

    /// Total bytes referenced from the old file (saturating: a hostile
    /// delta's lengths may sum past `u64::MAX`).
    pub fn copy_bytes(&self) -> u64 {
        self.ops.iter().fold(0u64, |acc, op| match op {
            DeltaOp::Copy { len, .. } => acc.saturating_add(*len),
            DeltaOp::Literal(_) => acc,
        })
    }

    /// Length of the file this delta reconstructs (saturating).
    pub fn output_len(&self) -> u64 {
        self.literal_bytes().saturating_add(self.copy_bytes())
    }

    /// Size of the delta on the wire: literals plus per-op headers.
    pub fn wire_size(&self) -> u64 {
        self.literal_bytes() + OP_HEADER_BYTES * self.ops.len() as u64
    }

    /// Reconstructs the new file from `old`.
    ///
    /// # Errors
    ///
    /// Returns [`ApplyError`] if a copy instruction references bytes beyond
    /// the end of `old` — which means the delta was computed against a
    /// different base version (the situation DeltaCFS's version control
    /// exists to prevent).
    pub fn apply(&self, old: &[u8]) -> Result<Vec<u8>, ApplyError> {
        // Range-check every copy before allocating, so a hostile length
        // is rejected instead of being reserved.
        let old_len = old.len() as u64;
        let mut total: Option<u64> = Some(0);
        for op in &self.ops {
            let len = match op {
                DeltaOp::Copy { offset, len } => {
                    if offset.checked_add(*len).is_none_or(|end| end > old_len) {
                        return Err(ApplyError::CopyOutOfRange {
                            offset: *offset,
                            len: *len,
                            old_len,
                        });
                    }
                    *len
                }
                DeltaOp::Literal(b) => b.len() as u64,
            };
            total = total.and_then(|t| t.checked_add(len));
        }
        let capacity = total.and_then(|t| usize::try_from(t).ok()).unwrap_or(0);
        let mut out = Vec::with_capacity(capacity);
        for op in &self.ops {
            match op {
                DeltaOp::Copy { offset, len } => {
                    out.extend_from_slice(&old[*offset as usize..(*offset + *len) as usize]);
                }
                DeltaOp::Literal(b) => out.extend_from_slice(b),
            }
        }
        Ok(out)
    }
}

/// Error returned by [`Delta::apply`] when the base file does not match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyError {
    /// A copy instruction referenced a range outside the base file.
    CopyOutOfRange {
        /// Offset the instruction asked for.
        offset: u64,
        /// Length the instruction asked for.
        len: u64,
        /// Actual length of the base file.
        old_len: u64,
    },
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::CopyOutOfRange {
                offset,
                len,
                old_len,
            } => write!(
                f,
                "delta copy [{offset}, +{len}) exceeds base file of {old_len} bytes"
            ),
        }
    }
}

impl Error for ApplyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_mixed_ops() {
        let delta = Delta::from_ops(vec![
            DeltaOp::Literal(Bytes::from_static(b">>")),
            DeltaOp::Copy { offset: 2, len: 2 },
        ]);
        assert_eq!(delta.apply(b"abcd").unwrap(), b">>cd");
        assert_eq!(delta.output_len(), 4);
        assert_eq!(delta.literal_bytes(), 2);
        assert_eq!(delta.copy_bytes(), 2);
    }

    #[test]
    fn adjacent_copies_merge() {
        let delta = Delta::from_ops(vec![
            DeltaOp::Copy { offset: 0, len: 4 },
            DeltaOp::Copy { offset: 4, len: 4 },
            DeltaOp::Copy { offset: 10, len: 2 },
        ]);
        assert_eq!(delta.ops().len(), 2);
        assert_eq!(delta.wire_size(), 2 * OP_HEADER_BYTES);
    }

    #[test]
    fn adjacent_literals_merge() {
        let delta = Delta::from_ops(vec![
            DeltaOp::Literal(Bytes::from_static(b"ab")),
            DeltaOp::Literal(Bytes::from_static(b"cd")),
        ]);
        assert_eq!(delta.ops().len(), 1);
        assert_eq!(delta.apply(b"").unwrap(), b"abcd");
    }

    #[test]
    fn out_of_range_copy_errors() {
        let delta = Delta::from_ops(vec![DeltaOp::Copy { offset: 2, len: 10 }]);
        let err = delta.apply(b"abcd").unwrap_err();
        assert!(matches!(err, ApplyError::CopyOutOfRange { old_len: 4, .. }));
        assert!(err.to_string().contains("exceeds base file"));
    }

    #[test]
    fn huge_copy_is_rejected_before_allocating() {
        let delta = Delta::from_ops(vec![DeltaOp::Copy {
            offset: 0,
            len: 1 << 62,
        }]);
        assert_eq!(
            delta.apply(b"abcd"),
            Err(ApplyError::CopyOutOfRange {
                offset: 0,
                len: 1 << 62,
                old_len: 4,
            })
        );
    }

    #[test]
    fn wrapping_copy_range_is_rejected() {
        let delta = Delta::from_ops(vec![
            DeltaOp::Copy { offset: 0, len: 2 },
            DeltaOp::Literal(Bytes::from_static(b"x")),
            DeltaOp::Copy {
                offset: u64::MAX,
                len: 2,
            },
        ]);
        assert!(matches!(
            delta.apply(b"abcd"),
            Err(ApplyError::CopyOutOfRange {
                offset: u64::MAX,
                ..
            })
        ));
        let huge = Delta::from_ops(vec![
            DeltaOp::Copy {
                offset: 0,
                len: u64::MAX,
            },
            DeltaOp::Literal(Bytes::from_static(b"x")),
        ]);
        assert_eq!(huge.output_len(), u64::MAX);
    }

    #[test]
    fn empty_delta_yields_empty_file() {
        let delta = Delta::default();
        assert_eq!(delta.apply(b"whatever").unwrap(), Vec::<u8>::new());
        assert_eq!(delta.wire_size(), 0);
    }
}
