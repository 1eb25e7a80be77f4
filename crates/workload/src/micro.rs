//! The request sizes of the micro-benchmarks of §5.3 and of Figure 6(b).
//!
//! * **All-miss**: "sequentially read a big file (2 GB) from the NFS
//!   server" — every request misses the server's caches and goes to the
//!   storage server.
//! * **All-hit**: "repetitively access a small file (5 MB)" — the same
//!   stream over a small file, replayed after a warming pass, so everything
//!   is served from cache.
//!
//! Both sweep the request size from 4 KB to 32 KB (Figures 4 and 5); the
//! testbed builds their sequential READ streams itself.

/// The request sizes the paper sweeps in Figures 4 and 5.
pub const NFS_REQUEST_SIZES: [u32; 4] = [4 << 10, 8 << 10, 16 << 10, 32 << 10];

/// The request sizes of Figure 6(b).
pub const HTTP_REQUEST_SIZES: [u32; 4] = [16 << 10, 32 << 10, 64 << 10, 128 << 10];
