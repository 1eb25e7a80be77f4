#![warn(missing_docs)]
//! Workload generators for the paper's evaluation (§5.3).
//!
//! * [`micro`] — the two micro-benchmarks: sequentially reading a big file
//!   (*all-miss*) and repeatedly accessing a small hot set (*all-hit*).
//! * [`specsfs`] — a SPECsfs-V3-like NFS op mix: small-request-dominated
//!   size distribution, 5:1 read:write ratio, and a configurable
//!   percentage of regular-data (vs metadata) operations — the x-axis of
//!   Figure 7.
//! * [`specweb`] — a SPECweb99-like static page set: four size classes per
//!   directory, Zipf-distributed directory popularity, ~75 KB mean page,
//!   working-set size swept for Figure 6(a).
//! * [`zipf`] — the Zipf sampler behind it (Breslau et al., the paper's
//!   citation for web popularity).
//! * [`trace`] — a small NFS trace format plus an Active-Trace-Player-like
//!   replayer (the paper drives its micro-benchmarks with synthetic traces
//!   through ATP).
//! * [`arrivals`] — seeded open-loop arrival schedules (Poisson
//!   inter-arrivals at a constant rate) for driving the testbed past
//!   saturation.
//!
//! All generators are deterministic given a seed.

pub mod arrivals;
pub mod micro;
pub mod specsfs;
pub mod specweb;
pub mod trace;
pub mod zipf;

/// A file within the benchmark file set (index into the set created at
/// experiment setup).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u32);

/// One NFS operation issued by a workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NfsOp {
    /// Read `len` bytes at `offset`.
    Read {
        /// Target file.
        file: FileId,
        /// Byte offset.
        offset: u64,
        /// Bytes requested.
        len: u32,
    },
    /// Write `len` bytes at `offset`.
    Write {
        /// Target file.
        file: FileId,
        /// Byte offset.
        offset: u64,
        /// Bytes written.
        len: u32,
    },
    /// Fetch attributes.
    Getattr {
        /// Target file.
        file: FileId,
    },
    /// Look the file's name up in its directory.
    Lookup {
        /// Target file.
        file: FileId,
    },
}

impl NfsOp {
    /// Payload bytes this operation moves.
    pub fn payload_len(&self) -> u64 {
        match self {
            NfsOp::Read { len, .. } | NfsOp::Write { len, .. } => u64::from(*len),
            _ => 0,
        }
    }
}

/// One HTTP request issued by a web workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpOp {
    /// Page path (matches a file created at setup).
    pub path: String,
    /// The page's size (for verification).
    pub size: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_classification() {
        let r = NfsOp::Read {
            file: FileId(0),
            offset: 0,
            len: 4096,
        };
        let g = NfsOp::Getattr { file: FileId(0) };
        assert_eq!(r.payload_len(), 4096);
        assert_eq!(g.payload_len(), 0);
    }
}
