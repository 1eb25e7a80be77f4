//! The two micro-benchmarks of §5.3, both [`SeqRead`] streams.
//!
//! * **All-miss**: "sequentially read a big file (2 GB) from the NFS
//!   server" — every request misses the server's caches and goes to the
//!   storage server.
//! * **All-hit**: "repetitively access a small file (5 MB)" — the same
//!   stream over a small file, replayed after a warming pass, so everything
//!   is served from cache.
//!
//! Both sweep the request size from 4 KB to 32 KB (Figures 4 and 5).

use crate::{FileId, NfsOp};

/// Generates the all-miss sequential read stream: one READ per `req_size`
/// window over `file_size` bytes.
///
/// # Examples
///
/// ```
/// use workload::micro::SeqRead;
/// use workload::{FileId, NfsOp};
///
/// let ops: Vec<NfsOp> = SeqRead::new(FileId(0), 64 * 1024, 16 * 1024).collect();
/// assert_eq!(ops.len(), 4);
/// assert!(matches!(ops[1], NfsOp::Read { offset: 16384, .. }));
/// ```
#[derive(Clone, Debug)]
pub struct SeqRead {
    file: FileId,
    file_size: u64,
    req_size: u32,
    next_offset: u64,
}

impl SeqRead {
    /// A sequential reader over `file` of `file_size` bytes, issuing
    /// `req_size`-byte requests.
    ///
    /// # Panics
    ///
    /// Panics if `req_size` is zero.
    pub fn new(file: FileId, file_size: u64, req_size: u32) -> Self {
        assert!(req_size > 0, "request size must be positive");
        SeqRead {
            file,
            file_size,
            req_size,
            next_offset: 0,
        }
    }

}

impl Iterator for SeqRead {
    type Item = NfsOp;

    fn next(&mut self) -> Option<NfsOp> {
        if self.next_offset >= self.file_size {
            return None;
        }
        let len = u64::from(self.req_size).min(self.file_size - self.next_offset) as u32;
        let op = NfsOp::Read {
            file: self.file,
            offset: self.next_offset,
            len,
        };
        self.next_offset += u64::from(self.req_size);
        Some(op)
    }
}

/// The request sizes the paper sweeps in Figures 4 and 5.
pub const NFS_REQUEST_SIZES: [u32; 4] = [4 << 10, 8 << 10, 16 << 10, 32 << 10];

/// The request sizes of Figure 6(b).
pub const HTTP_REQUEST_SIZES: [u32; 4] = [16 << 10, 32 << 10, 64 << 10, 128 << 10];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_read_covers_file_exactly() {
        let ops: Vec<NfsOp> = SeqRead::new(FileId(1), 100 << 10, 32 << 10).collect();
        assert_eq!(ops.len(), 4);
        let total: u64 = ops
            .iter()
            .map(|op| match op {
                NfsOp::Read { len, .. } => u64::from(*len),
                _ => 0,
            })
            .sum();
        assert_eq!(total, 100 << 10, "short final request covers the tail");
        assert!(matches!(ops[3], NfsOp::Read { len, .. } if len == 4 << 10));
    }

    #[test]
    fn seq_read_len_matches_iteration() {
        assert_eq!(SeqRead::new(FileId(0), 1 << 20, 4 << 10).count(), 256);
        assert_eq!(SeqRead::new(FileId(0), 0, 4096).count(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_request_size_panics() {
        SeqRead::new(FileId(0), 1, 0);
    }
}
