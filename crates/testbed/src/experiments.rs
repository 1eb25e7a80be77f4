//! The paper's evaluation, experiment by experiment (§5).
//!
//! One function per figure and table. Each returns [`SeriesTable`]s with
//! the same axes the paper plots; the `repro` binary in `ncache-bench`
//! prints them. Absolute numbers are calibrated, shapes are measured —
//! see EXPERIMENTS.md for the paper-vs-measured comparison.

use servers::ServerMode;
use sim::stats::SeriesTable;
use sim::FaultSpec;
use workload::micro::{SeqRead, HTTP_REQUEST_SIZES, NFS_REQUEST_SIZES};
use workload::specsfs::{SpecSfs, SpecSfsParams};
use workload::specweb::{PageSet, SpecWeb};
use workload::{FileId, NfsOp};

use crate::executor::{self, run_cells};
use crate::khttpd_rig::{KhttpdRig, KhttpdRigParams};
use crate::nfs_rig::{FaultCounters, NfsRig, NfsRigParams};
use crate::rig::{App, Rig};
use crate::runner::{run, DriverOp, RigDriver, RunOptions};
use crate::sessions::{run_nfs_sessions, run_nfs_sessions_parallel, SessionsOptions};

/// A fresh per-cell recorder mirroring the parent's configuration, or
/// `None` when the experiment is untraced. Cells never share a recorder:
/// each records privately and the parent absorbs them in cell order, so a
/// traced run's exported bytes are identical at any thread count.
fn cell_recorder(parent: Option<&obs::Recorder>) -> Option<obs::Recorder> {
    parent.map(|p| {
        let r = obs::Recorder::new();
        if p.is_enabled() {
            r.enable(p.config());
        }
        r
    })
}

/// Merges one cell's recorder back into the parent (cell-order calls only).
fn absorb_cell(parent: Option<&obs::Recorder>, cell: Option<obs::Recorder>) {
    if let (Some(parent), Some(cell)) = (parent, cell) {
        parent.absorb(&cell);
    }
}

/// Experiment sizing. `quick()` runs in seconds for tests and CI;
/// `paper()` uses the paper's parameters (2 GB all-miss file, 250 MB-1 GB
/// web working sets) and takes correspondingly longer.
#[derive(Clone, Debug)]
pub struct Scale {
    /// All-miss sequential file size (paper: 2 GB).
    pub allmiss_file: u64,
    /// All-hit hot file size (paper: 5 MB).
    pub allhit_file: u64,
    /// Measured passes over the hot set.
    pub allhit_passes: u32,
    /// SPECweb working-set sizes to sweep (paper: 250 MB-1 GB).
    pub specweb_working_sets: Vec<u64>,
    /// Memory available for caching on the web server (paper: 896 MB RAM).
    pub web_cache_bytes: u64,
    /// GET requests measured per SPECweb point.
    pub specweb_requests: usize,
    /// SPECsfs operations measured per point.
    pub specsfs_ops: usize,
    /// SPECsfs file count × file size (paper: 10 % of a 2 GB volume).
    pub specsfs_files: u32,
    /// SPECsfs file size in bytes.
    pub specsfs_file_size: u64,
    /// Requests per open-loop overload point.
    pub overload_requests: usize,
}

impl Scale {
    /// Seconds-scale sizing for tests.
    pub fn quick() -> Self {
        Scale {
            allmiss_file: 16 << 20,
            allhit_file: 5 << 20,
            allhit_passes: 2,
            specweb_working_sets: vec![16 << 20, 32 << 20, 48 << 20, 64 << 20],
            web_cache_bytes: 32 << 20,
            specweb_requests: 600,
            specsfs_ops: 1_500,
            specsfs_files: 32,
            specsfs_file_size: 256 << 10,
            overload_requests: 384,
        }
    }

    /// The paper's sizing (long-running).
    pub fn paper() -> Self {
        Scale {
            allmiss_file: 2 << 30,
            allhit_file: 5 << 20,
            allhit_passes: 4,
            specweb_working_sets: vec![250 << 20, 500 << 20, 750 << 20, 1 << 30],
            web_cache_bytes: 700 << 20,
            specweb_requests: 20_000,
            specsfs_ops: 50_000,
            specsfs_files: 200,
            specsfs_file_size: 1 << 20,
            overload_requests: 20_000,
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::quick()
    }
}

fn nfs_params_for(scale_bytes: u64, read_ahead_blocks: u64) -> NfsRigParams {
    // Volume: data + ~12% metadata slack.
    let blocks = (scale_bytes / 4096).max(1024);
    NfsRigParams {
        volume_blocks: blocks + blocks / 8 + 2048,
        fs_cache_blocks: 2 << 10,
        ncache_bytes: 64 << 20,
        read_ahead_blocks,
        inode_count: 8 << 10,
        shards: 1,
    }
}

fn attach<A: App>(rig: &mut Rig<A>, rec: Option<&obs::Recorder>) {
    if let Some(rec) = rec {
        rig.set_recorder(rec.clone());
    }
}

fn seq_ops(fh: u64, total: u64, req: u32) -> Vec<DriverOp> {
    SeqRead::new(FileId(0), total, req)
        .map(|op| match op {
            NfsOp::Read { offset, len, .. } => DriverOp::Read {
                fh,
                offset: offset as u32,
                len,
            },
            _ => unreachable!("SeqRead only reads"),
        })
        .collect()
}

/// Figure 4: all-miss NFS throughput (a) and server CPU utilization (b)
/// versus request size, for all three builds. Returns `(throughput MB/s,
/// CPU %)` tables keyed by request size in KB.
pub fn fig4(scale: &Scale) -> (SeriesTable, SeriesTable) {
    fig4_with(scale, None, executor::thread_count(None))
}

/// [`fig4`] on an explicit worker count; one cell per `(mode, size)`.
pub fn fig4_with(
    scale: &Scale,
    rec: Option<&obs::Recorder>,
    threads: usize,
) -> (SeriesTable, SeriesTable) {
    let mut thr = SeriesTable::new(
        "Fig 4(a): all-miss NFS throughput (MB/s)",
        "req KB",
    );
    let mut cpu = SeriesTable::new(
        "Fig 4(b): all-miss NFS server CPU utilization (%)",
        "req KB",
    );
    let cells: Vec<(ServerMode, u32)> = ServerMode::ALL
        .into_iter()
        .flat_map(|mode| NFS_REQUEST_SIZES.into_iter().map(move |req| (mode, req)))
        .collect();
    let results = run_cells(threads, cells.len(), |i| {
        let (mode, req) = cells[i];
        // "The file system read ahead window was tuned appropriately so
        // that the average disk request size matches with the NFS
        // request size" (§5.4).
        let params = nfs_params_for(scale.allmiss_file, u64::from(req / 4096));
        let cell_rec = cell_recorder(rec);
        let mut rig = NfsRig::new(mode, params);
        attach(&mut rig, cell_rec.as_ref());
        let fh = rig.create_sparse_file("bigfile", scale.allmiss_file);
        // "The number of NFS server daemons was also adjusted to reach
        // the best performance" (§5.4): the all-miss pipeline needs
        // deep concurrency to saturate the storage server.
        let result = run(
            &mut rig,
            seq_ops(fh, scale.allmiss_file, req),
            &RunOptions {
                concurrency: 64,
                ..RunOptions::default()
            },
        );
        (result.throughput_mbs, result.app_cpu_util, cell_rec)
    });
    for ((mode, req), (mbs, util, cell_rec)) in cells.iter().zip(results) {
        absorb_cell(rec, cell_rec);
        let x = f64::from(req / 1024);
        thr.put(x, mode.label(), mbs);
        cpu.put(x, mode.label(), util * 100.0);
    }
    (thr, cpu)
}

/// Figure 5: all-hit NFS. `(a)` server CPU utilization with one NIC
/// (link-bound); `(b)` throughput with two NICs (CPU-bound).
pub fn fig5(scale: &Scale) -> (SeriesTable, SeriesTable) {
    fig5_with(scale, None, executor::thread_count(None))
}

/// [`fig5`] on an explicit worker count; one cell per `(NIC count, mode,
/// size)`.
pub fn fig5_with(
    scale: &Scale,
    rec: Option<&obs::Recorder>,
    threads: usize,
) -> (SeriesTable, SeriesTable) {
    let mut cpu1 = SeriesTable::new(
        "Fig 5(a): all-hit NFS server CPU utilization, 1 NIC (%)",
        "req KB",
    );
    let mut thr2 = SeriesTable::new(
        "Fig 5(b): all-hit NFS throughput, 2 NICs (MB/s)",
        "req KB",
    );
    let cells: Vec<(usize, ServerMode, u32)> = [1usize, 2]
        .into_iter()
        .flat_map(|nics| {
            ServerMode::ALL.into_iter().flat_map(move |mode| {
                NFS_REQUEST_SIZES.into_iter().map(move |req| (nics, mode, req))
            })
        })
        .collect();
    let results = run_cells(threads, cells.len(), |i| {
        let (nics, mode, req) = cells[i];
        let params = nfs_params_for(scale.allhit_file * 4, u64::from(req / 4096));
        let cell_rec = cell_recorder(rec);
        let mut rig = NfsRig::new(mode, params);
        attach(&mut rig, cell_rec.as_ref());
        let fh = rig.create_file("hotfile", scale.allhit_file);
        // Warm pass (functional only, untimed).
        for op in seq_ops(fh, scale.allhit_file, req) {
            rig.run_op(&op);
        }
        let mut ops = Vec::new();
        for _ in 0..scale.allhit_passes {
            ops.extend(seq_ops(fh, scale.allhit_file, req));
        }
        let result = run(
            &mut rig,
            ops,
            &RunOptions {
                nics,
                ..RunOptions::default()
            },
        );
        (result.app_cpu_util, result.throughput_mbs, cell_rec)
    });
    for ((nics, mode, req), (util, mbs, cell_rec)) in cells.iter().zip(results) {
        absorb_cell(rec, cell_rec);
        let x = f64::from(req / 1024);
        match nics {
            1 => cpu1.put(x, mode.label(), util * 100.0),
            _ => thr2.put(x, mode.label(), mbs),
        }
    }
    (cpu1, thr2)
}

fn khttpd_params(working_set: u64, cache_bytes: u64, mode: ServerMode) -> KhttpdRigParams {
    // The page set rounds up to whole directories; size the volume from
    // the real total plus metadata slack.
    let actual = PageSet::with_working_set(working_set).total_bytes();
    let blocks = (actual / 4096).max(1024) * 3 / 2 + 4096;
    // The memory budget: the original/baseline builds give it all to the
    // FS buffer cache; the NCache build pins most of it for the
    // network-centric cache and leaves the FS cache small (§3.4, §4.1).
    let (fs_cache_blocks, ncache_bytes) = match mode {
        ServerMode::NCache => {
            let fs_small = (cache_bytes / 8 / 4096) as usize;
            (fs_small, cache_bytes - fs_small as u64 * 4096)
        }
        _ => ((cache_bytes / 4096) as usize, 0),
    };
    KhttpdRigParams {
        volume_blocks: blocks,
        fs_cache_blocks,
        ncache_bytes: ncache_bytes.max(1 << 20),
        read_ahead_blocks: 8,
        inode_count: 64 << 10,
        shards: 1,
    }
}

/// Figure 6(a): kHTTPd SPECweb99-like throughput versus working-set size.
pub fn fig6a(scale: &Scale) -> SeriesTable {
    fig6a_with(scale, None, executor::thread_count(None))
}

/// [`fig6a`] on an explicit worker count; one cell per `(mode, working
/// set)`.
pub fn fig6a_with(scale: &Scale, rec: Option<&obs::Recorder>, threads: usize) -> SeriesTable {
    let mut thr = SeriesTable::new(
        "Fig 6(a): kHTTPd SPECweb99 throughput (MB/s)",
        "workset MB",
    );
    let cells: Vec<(ServerMode, u64)> = ServerMode::ALL
        .into_iter()
        .flat_map(|mode| {
            scale
                .specweb_working_sets
                .iter()
                .map(move |&ws| (mode, ws))
        })
        .collect();
    let results = run_cells(threads, cells.len(), |i| {
        let (mode, ws) = cells[i];
        let cell_rec = cell_recorder(rec);
        let mut rig = KhttpdRig::new(mode, khttpd_params(ws, scale.web_cache_bytes, mode));
        attach(&mut rig, cell_rec.as_ref());
        let set = PageSet::with_working_set(ws);
        for (name, size) in set.pages() {
            rig.server_mut()
                .fs_mut()
                .create(simfs::Filesystem::<servers::IscsiInitiator>::ROOT, &name)
                .map(|ino| {
                    rig.server_mut()
                        .fs_mut()
                        .allocate(ino, size)
                        .expect("volume has space")
                })
                .expect("fresh page name");
        }
        rig.quiesce();
        // The workload stream is seeded per cell (by working set), never
        // by worker or execution order.
        let gen = SpecWeb::new(set, 0xC0FFEE ^ ws);
        let ops: Vec<DriverOp> = gen
            .take(scale.specweb_requests + scale.specweb_requests / 3)
            .map(|op| DriverOp::Get { path: op.path })
            .collect();
        // First third warms caches functionally.
        let (warm, measured) = ops.split_at(scale.specweb_requests / 3);
        for op in warm {
            rig.run_op(op);
        }
        let result = run(&mut rig, measured.to_vec(), &RunOptions::default());
        (result.throughput_mbs, cell_rec)
    });
    for ((mode, ws), (mbs, cell_rec)) in cells.iter().zip(results) {
        absorb_cell(rec, cell_rec);
        thr.put((ws >> 20) as f64, mode.label(), mbs);
    }
    thr
}

/// Figure 6(b): kHTTPd all-hit throughput versus request (page) size.
pub fn fig6b(scale: &Scale) -> SeriesTable {
    fig6b_with(scale, None, executor::thread_count(None))
}

/// [`fig6b`] on an explicit worker count; one cell per `(mode, size)`.
pub fn fig6b_with(scale: &Scale, rec: Option<&obs::Recorder>, threads: usize) -> SeriesTable {
    let mut thr = SeriesTable::new(
        "Fig 6(b): kHTTPd all-hit throughput vs request size (MB/s)",
        "req KB",
    );
    let cells: Vec<(ServerMode, u32)> = ServerMode::ALL
        .into_iter()
        .flat_map(|mode| HTTP_REQUEST_SIZES.into_iter().map(move |req| (mode, req)))
        .collect();
    let results = run_cells(threads, cells.len(), |i| {
        let (mode, req) = cells[i];
        let pages = (scale.allhit_file / u64::from(req)).max(1) as u32;
        let cell_rec = cell_recorder(rec);
        let mut rig = KhttpdRig::new(
            mode,
            khttpd_params(scale.allhit_file * 4, scale.allhit_file * 4, mode),
        );
        attach(&mut rig, cell_rec.as_ref());
        for p in 0..pages {
            rig.publish_sparse(&format!("page{p}"), u64::from(req));
        }
        let paths: Vec<DriverOp> = (0..pages)
            .map(|p| DriverOp::Get {
                path: format!("/page{p}"),
            })
            .collect();
        for op in &paths {
            rig.run_op(op); // warm
        }
        let mut ops = Vec::new();
        for _ in 0..scale.allhit_passes.max(2) {
            ops.extend(paths.iter().cloned());
        }
        let result = run(&mut rig, ops, &RunOptions::default());
        (result.throughput_mbs, cell_rec)
    });
    for ((mode, req), (mbs, cell_rec)) in cells.iter().zip(results) {
        absorb_cell(rec, cell_rec);
        thr.put(f64::from(req / 1024), mode.label(), mbs);
    }
    thr
}

/// Figure 7: SPECsfs-like throughput (ops/s) versus the percentage of
/// regular-data operations.
pub fn fig7(scale: &Scale) -> SeriesTable {
    fig7_with(scale, None, executor::thread_count(None))
}

/// [`fig7`] on an explicit worker count; one cell per `(mode, data-op %)`.
pub fn fig7_with(scale: &Scale, rec: Option<&obs::Recorder>, threads: usize) -> SeriesTable {
    let mut table = SeriesTable::new(
        "Fig 7: SPECsfs throughput (ops/sec) vs % regular-data requests",
        "% data ops",
    );
    let cells: Vec<(ServerMode, u32)> = ServerMode::ALL
        .into_iter()
        .flat_map(|mode| [30u32, 45, 60, 75].into_iter().map(move |pct| (mode, pct)))
        .collect();
    let results = run_cells(threads, cells.len(), |i| {
        {
            let (mode, pct) = cells[i];
            let total = u64::from(scale.specsfs_files) * scale.specsfs_file_size;
            // The paper's file set is 10 % of the volume and fits the
            // server's 896 MB of RAM: after warm-up, data operations are
            // mostly cache hits. Budget memory accordingly (the NCache
            // build pins most of it for the network-centric cache).
            let cache_budget = total * 3 / 2;
            let (fs_cache_blocks, ncache_bytes) = match mode {
                ServerMode::NCache => (
                    (cache_budget / 8 / 4096) as usize,
                    cache_budget - cache_budget / 8,
                ),
                _ => ((cache_budget / 4096) as usize, 0),
            };
            let params = NfsRigParams {
                fs_cache_blocks,
                ncache_bytes: ncache_bytes.max(1 << 20),
                ..nfs_params_for(total * 2, 8)
            };
            let cell_rec = cell_recorder(rec);
            let mut rig = NfsRig::new(mode, params);
            attach(&mut rig, cell_rec.as_ref());
            let mut fhs = Vec::new();
            let mut names = Vec::new();
            for i in 0..scale.specsfs_files {
                let name = format!("sfs{i:05}");
                fhs.push(rig.create_sparse_file(&name, scale.specsfs_file_size));
                names.push(name);
            }
            rig.quiesce();
            // Warm pass: sequentially touch every file (functional only).
            for (i, &fh) in fhs.iter().enumerate() {
                let _ = i;
                let mut off = 0u64;
                while off < scale.specsfs_file_size {
                    rig.run_op(&DriverOp::Read {
                        fh,
                        offset: off as u32,
                        len: 64 << 10,
                    });
                    off += 64 << 10;
                }
            }
            // Seeded per cell (by operation mix), independent of workers.
            let gen = SpecSfs::new(
                SpecSfsParams {
                    file_count: scale.specsfs_files,
                    file_size: scale.specsfs_file_size,
                    data_op_fraction: f64::from(pct) / 100.0,
                    reads_per_write: 5,
                },
                0x5F5 ^ u64::from(pct),
            );
            let ops: Vec<DriverOp> = gen
                .take(scale.specsfs_ops)
                .map(|op| to_driver_op(op, &fhs, &names))
                .collect();
            let result = run(&mut rig, ops, &RunOptions::default());
            (result.ops_per_sec, cell_rec)
        }
    });
    for ((mode, pct), (ops_per_sec, cell_rec)) in cells.iter().zip(results) {
        absorb_cell(rec, cell_rec);
        table.put(f64::from(*pct), mode.label(), ops_per_sec);
    }
    table
}

fn to_driver_op(op: NfsOp, fhs: &[u64], names: &[String]) -> DriverOp {
    match op {
        NfsOp::Read { file, offset, len } => DriverOp::Read {
            fh: fhs[file.0 as usize],
            offset: offset as u32,
            len,
        },
        NfsOp::Write { file, offset, len } => DriverOp::Write {
            fh: fhs[file.0 as usize],
            offset: offset as u32,
            len,
        },
        NfsOp::Getattr { file } => DriverOp::Getattr {
            fh: fhs[file.0 as usize],
        },
        NfsOp::Lookup { file } => DriverOp::Lookup {
            name: names[file.0 as usize].clone(),
        },
    }
}

/// Loss rates swept by [`fault_sweep_with`]: the fraction of PDUs lost per
/// link, 0 → 10 %.
pub const FAULT_SWEEP_LOSS: [f64; 5] = [0.0, 0.01, 0.02, 0.05, 0.10];

/// The fault sweep: every build under a seeded fault schedule at each
/// loss rate, `spec`'s other fault rates held constant. Each cell drives
/// a mixed read/write NFS workload through the faulted rig and asserts
/// the headline invariants in-line: completed reads return the expected
/// bytes (never stale, never junk), acknowledged writes are visible, and
/// a zero fault spec produces zero recovery actions. Returns
/// `(requests completed %, recovery actions per request)` tables. One cell
/// per `(mode, loss rate)`, each seeded via `derive_seed` so results are
/// identical at any thread count.
pub fn fault_sweep_with(
    spec: &FaultSpec,
    seed: u64,
    rec: Option<&obs::Recorder>,
    threads: usize,
) -> (SeriesTable, SeriesTable) {
    let mut done = SeriesTable::new(
        "Fault sweep: requests completed cleanly (%)",
        "loss %",
    );
    let mut recov = SeriesTable::new(
        "Fault sweep: recovery actions per request",
        "loss %",
    );
    let cells: Vec<(ServerMode, f64)> = ServerMode::ALL
        .into_iter()
        .flat_map(|mode| FAULT_SWEEP_LOSS.into_iter().map(move |loss| (mode, loss)))
        .collect();
    let spec = *spec;
    let results = run_cells(threads, cells.len(), |i| {
        let (mode, loss) = cells[i];
        let cell_spec = FaultSpec { loss, ..spec };
        let cell_seed = executor::derive_seed(seed, i as u64);
        let cell_rec = cell_recorder(rec);
        let mut rig = NfsRig::new_faulted(mode, NfsRigParams::default(), &cell_spec, cell_seed);
        attach(&mut rig, cell_rec.as_ref());
        let file: u64 = 128 << 10;
        let fh = rig.create_file("sweep", file);
        let half = (file / 2) as u32;
        let span: u32 = 16 << 10;
        let mut attempted = 0u64;
        let mut completed = 0u64;
        for op in 0..50u64 {
            attempted += 1;
            if op % 5 == 4 {
                // Writes stay in the first half; reads in the second, so
                // every read's expected contents are known exactly.
                let off = ((op / 5) % (u64::from(half) / 4096)) as u32 * 4096;
                let data = vec![0xA0u8 ^ op as u8; 4096];
                let acked = rig
                    .try_write(fh, off, &data)
                    .is_some_and(|r| r.status == proto::nfs::NFS_OK);
                if acked {
                    completed += 1;
                }
                if let Some((hdr, got)) = rig.try_read(fh, off, 4096) {
                    // Baseline replies carry junk payload by design, so
                    // byte-level freshness is only checkable on the
                    // copying builds.
                    if hdr.status == proto::nfs::NFS_OK && mode != ServerMode::Baseline {
                        let old = NfsRig::pattern(fh, u64::from(off), 4096);
                        if acked {
                            assert_eq!(got, data, "acknowledged write must be visible");
                        } else {
                            // Unacknowledged: the write may or may not
                            // have executed, but never partially.
                            assert!(got == data || got == old, "torn write observed");
                        }
                    }
                }
            } else {
                let off = half + ((op as u32 * span) % (half - span) / 4096) * 4096;
                if let Some((hdr, got)) = rig.try_read(fh, off, span) {
                    if hdr.status == proto::nfs::NFS_OK {
                        if mode != ServerMode::Baseline {
                            assert_eq!(
                                got,
                                NfsRig::pattern(fh, u64::from(off), span as usize),
                                "completed read must return correct bytes"
                            );
                        }
                        completed += 1;
                    }
                }
            }
        }
        let fc = rig.fault_counters();
        let init = rig.server_mut().fs_mut().store_mut().stats();
        let srv = rig.server_mut().stats();
        let inval = rig.module().map_or(0, |m| m.borrow().invalidations());
        if cell_spec.is_zero() {
            assert_eq!(fc, FaultCounters::default(), "no faults, no client recovery");
            assert_eq!(init.retries, 0, "no faults, no initiator retries");
            assert_eq!(srv.drc_hits, 0, "no faults, no DRC hits");
            assert_eq!(inval, 0, "no faults, no invalidations");
        }
        let recovery = fc.retransmits + init.retries + srv.drc_hits + inval;
        (
            completed as f64 / attempted as f64 * 100.0,
            recovery as f64 / attempted as f64,
            cell_rec,
        )
    });
    for ((mode, loss), (pct, per_req, cell_rec)) in cells.iter().zip(results) {
        absorb_cell(rec, cell_rec);
        let x = loss * 100.0;
        done.put(x, mode.label(), pct);
        recov.put(x, mode.label(), per_req);
    }
    (done, recov)
}

/// Client counts swept by [`clients_sweep_with`]: a monotone axis from one
/// session to 256.
pub const CLIENTS_SWEEP_POINTS: [usize; 5] = [1, 4, 16, 64, 256];

/// Client scaling: M interleaved NFS sessions, each one outstanding
/// request, against a shared hot file. Returns `(throughput, hit ratio)`
/// tables over the client axis. One cell per `(mode, clients)`; the
/// multi-session engine interleaves each cell's sessions
/// deterministically, and sharding only partitions the cache's key space,
/// so stdout is byte-identical at any `threads` and any `shards` — the CI
/// determinism gate diffs exactly that.
pub fn clients_sweep_with(
    scale: &Scale,
    rec: Option<&obs::Recorder>,
    threads: usize,
    shards: usize,
) -> (SeriesTable, SeriesTable) {
    let mut thr = SeriesTable::new(
        "Client scaling: delivered throughput (MB/s)",
        "clients",
    );
    let mut hits = SeriesTable::new(
        "Client scaling: server cache hit ratio",
        "clients",
    );
    let cells: Vec<(ServerMode, usize)> = ServerMode::ALL
        .into_iter()
        .flat_map(|mode| CLIENTS_SWEEP_POINTS.into_iter().map(move |c| (mode, c)))
        .collect();
    // The shared hot set: small enough that every build's cache holds it,
    // so the hit ratio climbs as sessions re-read each other's blocks.
    let file = scale.allhit_file.min(8 << 20);
    let span: u32 = 16 << 10;
    let results = run_cells(threads, cells.len(), |i| {
        let (mode, clients) = cells[i];
        let cell_rec = cell_recorder(rec);
        let params = NfsRigParams {
            shards,
            ..NfsRigParams::default()
        };
        let mut rig = NfsRig::new(mode, params);
        attach(&mut rig, cell_rec.as_ref());
        let fh = rig.create_file("shared", file);
        // Total work is roughly constant across the axis so every point
        // runs in comparable time; each session strides the file from its
        // own phase, overlapping the others.
        let per_session = (512 / clients).max(2);
        let sessions: Vec<Vec<DriverOp>> = (0..clients)
            .map(|sid| {
                (0..per_session)
                    .map(|k| DriverOp::Read {
                        fh,
                        offset: ((sid as u64 * 7 + k as u64) * u64::from(span)
                            % (file - u64::from(span)))
                            as u32
                            / 4096
                            * 4096,
                        len: span,
                    })
                    .collect()
            })
            .collect();
        let (mut rig, r) = run_nfs_sessions(rig, sessions, &SessionsOptions::default());
        // The NCache build's hits happen in the network-centric cache;
        // the copying builds hit the file-system buffer cache.
        let hit_ratio = match mode {
            ServerMode::NCache => rig
                .module()
                .map_or(0.0, |m| m.borrow().stats().hit_ratio()),
            _ => {
                let bc = rig.server_mut().fs_mut().cache_stats();
                let looked = bc.hits + bc.misses;
                if looked == 0 {
                    0.0
                } else {
                    bc.hits as f64 / looked as f64
                }
            }
        };
        (r.throughput_mbs, hit_ratio, cell_rec)
    });
    for ((mode, clients), (mbs, hit, cell_rec)) in cells.iter().zip(results) {
        absorb_cell(rec, cell_rec);
        thr.put(*clients as f64, mode.label(), mbs);
        hits.put(*clients as f64, mode.label(), hit);
    }
    (thr, hits)
}

/// Root seed for the lane-parallel client sweep: it derives the epoch
/// tie ranks (and, under faults, the per-lane fault plans), so a fixed
/// value makes stdout reproducible run over run.
pub const CLIENTS_SWEEP_LANE_SEED: u64 = 7;

/// [`clients_sweep_with`] on the lane-parallel engine: the same
/// `(mode, clients)` cells, but each cell warms the shared file first
/// and then runs its sessions concurrently on `lane_threads` host
/// threads. `lane_threads = None` routes the identical warmed workload
/// through the sequential engine — the oracle the CI diff gate compares
/// against.
///
/// The warm pass pins the whole hot set before any lane starts, and the
/// hot set is held strictly below every cache capacity so nothing
/// evicts mid-run. That is the commutativity discipline under which the
/// parallel engine is byte-exact, so the printed tables are identical
/// for the oracle and for every `lane_threads` value. Cells run one
/// after another — the parallelism under test is *inside* each cell.
///
/// `faults` arms every cell's rig with the given spec and seed. Faulted
/// outcomes derive from per-lane `(seed, lane)` fault plans inside the
/// parallel engine, so the reference for a faulted sweep is the
/// `lane_threads = Some(1)` run (not the sequential oracle), and the
/// printed tables must match it at every other thread count.
pub fn clients_sweep_lanes(
    scale: &Scale,
    shards: usize,
    lane_threads: Option<usize>,
    faults: Option<(&FaultSpec, u64)>,
) -> (SeriesTable, SeriesTable) {
    let mut thr = SeriesTable::new(
        "Client scaling, warmed hot set: delivered throughput (MB/s)",
        "clients",
    );
    let mut hits = SeriesTable::new(
        "Client scaling, warmed hot set: server cache hit ratio",
        "clients",
    );
    // Strictly below the 8 MiB fs buffer cache (and far below the
    // NCache), so the warm pass pins every block for the whole run.
    let file = scale.allhit_file.min(4 << 20);
    let span: u32 = 16 << 10;
    for mode in ServerMode::ALL {
        for clients in CLIENTS_SWEEP_POINTS {
            let params = NfsRigParams {
                shards,
                ..NfsRigParams::default()
            };
            let mut rig = match faults {
                Some((spec, seed)) => NfsRig::new_faulted(mode, params, spec, seed),
                None => NfsRig::new(mode, params),
            };
            let fh = rig.create_file("shared", file);
            let mut off = 0u64;
            while off < file {
                rig.read(fh, off as u32, 64 << 10);
                off += 64 << 10;
            }
            let per_session = (512 / clients).max(2);
            let sessions: Vec<Vec<DriverOp>> = (0..clients)
                .map(|sid| {
                    (0..per_session)
                        .map(|k| DriverOp::Read {
                            fh,
                            offset: ((sid as u64 * 7 + k as u64) * u64::from(span)
                                % (file - u64::from(span)))
                                as u32
                                / 4096
                                * 4096,
                            len: span,
                        })
                        .collect()
                })
                .collect();
            let opts = SessionsOptions::default();
            let (mut rig, r) = match lane_threads {
                Some(n) => {
                    run_nfs_sessions_parallel(rig, sessions, &opts, n, CLIENTS_SWEEP_LANE_SEED)
                }
                None => run_nfs_sessions(rig, sessions, &opts),
            };
            let hit_ratio = match mode {
                ServerMode::NCache => rig
                    .module()
                    .map_or(0.0, |m| m.borrow().stats().hit_ratio()),
                _ => {
                    let bc = rig.server_mut().fs_mut().cache_stats();
                    let looked = bc.hits + bc.misses;
                    if looked == 0 {
                        0.0
                    } else {
                        bc.hits as f64 / looked as f64
                    }
                }
            };
            thr.put(clients as f64, mode.label(), r.throughput_mbs);
            hits.put(clients as f64, mode.label(), hit_ratio);
        }
    }
    (thr, hits)
}

/// Offered-load factors swept by [`overload_sweep_with`], as multiples of each
/// build's measured closed-loop capacity: from half load to twice past
/// saturation.
pub const OVERLOAD_SWEEP_FACTORS: [f64; 5] = [0.5, 0.8, 1.0, 1.2, 2.0];

/// Root seed for the overload sweep's arrival and popularity draws.
pub const OVERLOAD_SWEEP_SEED: u64 = 29;

/// The open-loop overload sweep: each build's closed-loop capacity is
/// probed first, then a seeded Poisson arrival schedule offers each
/// [`OVERLOAD_SWEEP_FACTORS`] multiple of it against a warmed Zipf hot
/// set. Returns three tables over the offered-load factor: delivered
/// goodput per build, tail latency (p50/p99/p999, µs) per build, and the
/// NCache build's per-stage share of end-to-end latency — the curve that
/// names the stage the tail migrates into past saturation. One
/// cell per `(mode, factor)`; the open-loop engine is single-threaded
/// inside each cell and the cells are seeded by position, so the tables
/// (and an attached recorder's histograms, absorbed in cell order) are
/// byte-identical at any `threads` and any `shards`.
pub fn overload_sweep_with(
    scale: &Scale,
    rec: Option<&obs::Recorder>,
    threads: usize,
    shards: usize,
) -> (SeriesTable, SeriesTable, SeriesTable) {
    let mut goodput = SeriesTable::new(
        "Overload sweep: delivered goodput (MB/s)",
        "offered/capacity",
    );
    let mut tails = SeriesTable::new(
        "Overload sweep: request latency quantiles (us)",
        "offered/capacity",
    );
    let mut shares = SeriesTable::new(
        "Overload sweep: ncache stage share of end-to-end latency",
        "offered/capacity",
    );
    let cells: Vec<(ServerMode, f64)> = ServerMode::ALL
        .into_iter()
        .flat_map(|mode| OVERLOAD_SWEEP_FACTORS.into_iter().map(move |f| (mode, f)))
        .collect();
    // The hot set fits every build's cache, so after the warm pass the
    // sweep measures queueing, not eviction.
    let file = scale.allhit_file.min(4 << 20);
    let span: u32 = 16 << 10;
    let results = run_cells(threads, cells.len(), |i| {
        let (mode, factor) = cells[i];
        let cell_rec = cell_recorder(rec);
        let params = NfsRigParams {
            shards,
            ..NfsRigParams::default()
        };
        let mut rig = NfsRig::new(mode, params);
        attach(&mut rig, cell_rec.as_ref());
        let fh = rig.create_file("hot", file);
        let mut off = 0u64;
        while off < file {
            rig.read(fh, off as u32, span);
            off += u64::from(span);
        }
        // Drop the warm-up's storage backlog so the first measured
        // request's burst chain carries only its own work.
        let _ = rig.server_mut().fs_mut().store_mut().take_io_log();
        // Closed-loop capacity probe: 8 saturating sessions over the same
        // hot set. Identical across factors, so offered rates scale
        // exactly with the factor axis.
        let probe: Vec<Vec<DriverOp>> = (0..8)
            .map(|sid| {
                (0..32)
                    .map(|k| DriverOp::Read {
                        fh,
                        offset: ((sid as u64 * 7 + k as u64) * u64::from(span)
                            % (file - u64::from(span)))
                            as u32
                            / 4096
                            * 4096,
                        len: span,
                    })
                    .collect()
            })
            .collect();
        let (rig, cap) = run_nfs_sessions(rig, probe, &SessionsOptions::default());
        let capacity = cap.ops_per_sec.max(1.0);
        let mean_interarrival_ns = ((1e9 / (factor * capacity)).round() as u64).max(1);
        let ops = crate::openloop::zipf_reads(
            executor::derive_seed(OVERLOAD_SWEEP_SEED, i as u64),
            fh,
            scale.overload_requests,
            file,
            span,
            1.0,
        );
        let opts = crate::openloop::OpenLoopOptions {
            mean_interarrival_ns,
            seed: executor::derive_seed(OVERLOAD_SWEEP_SEED, 100 + i as u64),
            ..crate::openloop::OpenLoopOptions::default()
        };
        let (_rig, r) = crate::openloop::run_open_loop(rig, ops, &opts);
        (r, cell_rec)
    });
    for ((mode, factor), (r, cell_rec)) in cells.iter().zip(results) {
        absorb_cell(rec, cell_rec);
        goodput.put(*factor, mode.label(), r.goodput_mbs);
        for (q, name) in [(0.5, "p50"), (0.99, "p99"), (0.999, "p999")] {
            tails.put(
                *factor,
                &format!("{} {}", mode.label(), name),
                r.latency.quantile(q) as f64 / 1000.0,
            );
        }
        if *mode == ServerMode::NCache && r.latency.sum > 0 {
            for st in &r.stages {
                shares.put(
                    *factor,
                    st.stage,
                    (st.queue_ns + st.service_ns) as f64 / r.latency.sum as f64,
                );
            }
        }
    }
    (goodput, tails, shares)
}

/// Root seed for the overload ablation's arrival, popularity and backoff
/// draws (distinct from [`OVERLOAD_SWEEP_SEED`] so the two experiments
/// never share a stream).
pub const OVERLOAD_ABLATION_SEED: u64 = 31;

/// The protected-vs-unprotected overload ablation: the NCache build under
/// the open-loop sweep's offered-load factors, once with the control
/// plane off (every request executes, no deadline protection on the
/// server) and once with admission control, backpressure and client
/// retry budgets on. Both variants run the same mixed read/write
/// workload under the same per-request deadline, so the comparison
/// isolates the control plane itself.
///
/// Returns three tables over the offered-load factor: delivered (on-time)
/// goodput, latency quantiles (p50/p99, µs), and request outcomes
/// (shed / deadline-exceeded / retransmissions / gate rejections). One
/// cell per `(variant, factor)`, each single-threaded inside and seeded
/// by position, so the tables are byte-identical at any `threads` and
/// any `shards`.
pub fn overload_ablation_with(
    scale: &Scale,
    rec: Option<&obs::Recorder>,
    threads: usize,
    shards: usize,
) -> (SeriesTable, SeriesTable, SeriesTable) {
    let mut goodput = SeriesTable::new(
        "Overload ablation: delivered on-time goodput (MB/s)",
        "offered/capacity",
    );
    let mut tails = SeriesTable::new(
        "Overload ablation: request latency quantiles (us)",
        "offered/capacity",
    );
    let mut outcomes = SeriesTable::new(
        "Overload ablation: request outcomes per point",
        "offered/capacity",
    );
    let variants = ["unprotected", "protected"];
    let cells: Vec<(usize, f64)> = (0..variants.len())
        .flat_map(|v| OVERLOAD_SWEEP_FACTORS.into_iter().map(move |f| (v, f)))
        .collect();
    let file = scale.allhit_file.min(4 << 20);
    let span: u32 = 16 << 10;
    let results = run_cells(threads, cells.len(), |i| {
        let (variant, factor) = cells[i];
        let cell_rec = cell_recorder(rec);
        let params = NfsRigParams {
            shards,
            ..NfsRigParams::default()
        };
        let mut rig = NfsRig::new(ServerMode::NCache, params);
        attach(&mut rig, cell_rec.as_ref());
        let fh = rig.create_file("hot", file);
        let mut off = 0u64;
        while off < file {
            rig.read(fh, off as u32, span);
            off += u64::from(span);
        }
        let _ = rig.server_mut().fs_mut().store_mut().take_io_log();
        // Capacity is probed with the control plane OFF in both
        // variants: the offered schedules (and the deadline) must be
        // identical so the ablation isolates the gate, not the probe.
        let probe: Vec<Vec<DriverOp>> = (0..8)
            .map(|sid| {
                (0..32)
                    .map(|k| DriverOp::Read {
                        fh,
                        offset: ((sid as u64 * 7 + k as u64) * u64::from(span)
                            % (file - u64::from(span)))
                            as u32
                            / 4096
                            * 4096,
                        len: span,
                    })
                    .collect()
            })
            .collect();
        let (mut rig, cap) = run_nfs_sessions(rig, probe, &SessionsOptions::default());
        let capacity = cap.ops_per_sec.max(1.0);
        let per_op_ns = ((1e9 / capacity).round() as u64).max(1);
        let mean_interarrival_ns = ((1e9 / (factor * capacity)).round() as u64).max(1);
        // Every 8th request is a WRITE over the same hot range, so the
        // dirty-cache watermark and write-first shedding have something
        // to act on.
        let ops: Vec<DriverOp> = crate::openloop::zipf_reads(
            executor::derive_seed(OVERLOAD_ABLATION_SEED, i as u64),
            fh,
            scale.overload_requests,
            file,
            span,
            1.0,
        )
        .into_iter()
        .enumerate()
        .map(|(k, op)| match op {
            DriverOp::Read { fh, offset, len } if k % 8 == 7 => {
                DriverOp::Write { fh, offset, len }
            }
            other => other,
        })
        .collect();
        let mut opts = crate::openloop::OpenLoopOptions {
            mean_interarrival_ns,
            seed: executor::derive_seed(OVERLOAD_ABLATION_SEED, 100 + i as u64),
            // Both variants answer to the same client patience: a
            // request completing past 24 service times of queueing is
            // worthless to its caller.
            deadline_ns: per_op_ns.saturating_mul(24),
            ..crate::openloop::OpenLoopOptions::default()
        };
        if variant == 1 {
            // The in-flight bound is the primary control: it admits at
            // exactly the service rate when saturated (every completion
            // frees a slot), and 12 slots of queueing keep admitted
            // requests comfortably inside the 24-service-time deadline.
            // No token bucket — an open-loop rate cap either barely
            // rejects (queues still go critical) or over-rejects.
            let cfg = servers::ControlConfig {
                max_inflight: 12,
                queue_hi: 10,
                queue_lo: 6,
                token_cost_ns: 0,
                token_burst: 0,
                ..servers::ControlConfig::protective()
            };
            rig.enable_control(cfg);
            opts.retry = Some(servers::RetryPolicy::standard(executor::derive_seed(
                OVERLOAD_ABLATION_SEED,
                200 + i as u64,
            )));
        }
        let (rig, r) = crate::openloop::run_open_loop(rig, ops, &opts);
        let control = rig.control_stats().unwrap_or_default();
        (r, control, cell_rec)
    });
    for ((variant, factor), (r, control, cell_rec)) in cells.iter().zip(results) {
        absorb_cell(rec, cell_rec);
        let name = variants[*variant];
        goodput.put(*factor, name, r.goodput_mbs);
        for (q, label) in [(0.5, "p50"), (0.99, "p99")] {
            tails.put(
                *factor,
                &format!("{name} {label}"),
                r.latency.quantile(q) as f64 / 1000.0,
            );
        }
        outcomes.put(*factor, &format!("{name} shed"), r.shed as f64);
        outcomes.put(*factor, &format!("{name} late"), r.deadline_exceeded as f64);
        outcomes.put(*factor, &format!("{name} retries"), r.retries as f64);
        outcomes.put(*factor, &format!("{name} rejected"), control.rejected as f64);
    }
    (goodput, tails, outcomes)
}

/// Root seed for the adaptive-split ablation's Zipf draws (distinct from
/// the overload experiments' 29/31 so no streams are shared).
pub const ADAPTIVE_ABLATION_SEED: u64 = 37;

/// The static-vs-adaptive cache-split ablation (DESIGN.md §16): the
/// NCache build under a phase-changing Zipf workload, once with the
/// split controller frozen ([`ncache::SplitConfig`] with `dynamic:
/// false`) and once live. The initial split is deliberately lopsided —
/// most of the quota sits in the FS buffer cache, which under NCache
/// only ever sees NCache-miss traffic — so the live controller's job is
/// to discover, from marginal ghost-hit rates, that quota belongs in
/// the network-centric cache (the paper's §3.4 sizing argument, run in
/// reverse as a control experiment).
///
/// Six workload segments of Zipf-hot reads over a region larger than
/// any static partition; the hot region jumps at segment 3 (the phase
/// shift the windowed controller signal must register — a cumulative
/// ratio would not). Both variants run the identical request schedule
/// over the identical tiered backend, so the comparison isolates the
/// controller.
///
/// Returns three tables over the segment index: delivered goodput
/// (MB/s), NCache hit ratio per segment, and fast-tier residency
/// (blocks at segment end; the backend — placement map included — is
/// rebuilt per segment, so residency is per-segment, not cumulative). One
/// cell per variant, each single-threaded inside and seeded by position,
/// so the tables are byte-identical at any `threads` and any `shards`.
pub fn adaptive_ablation_with(
    scale: &Scale,
    rec: Option<&obs::Recorder>,
    threads: usize,
    shards: usize,
) -> (SeriesTable, SeriesTable, SeriesTable) {
    let mut goodput = SeriesTable::new(
        "Adaptive split ablation: delivered goodput (MB/s)",
        "segment",
    );
    let mut hits = SeriesTable::new(
        "Adaptive split ablation: NCache hit ratio per segment",
        "segment",
    );
    let mut residency = SeriesTable::new(
        "Adaptive split ablation: fast-tier residency (blocks)",
        "segment",
    );
    // Static first: the CI gate compares column 2 (static) against
    // column 3 (adaptive) row by row.
    let variants = ["static", "adaptive"];
    const SEGMENTS: usize = 6;
    const SESSIONS: usize = 4;
    const SPAN: u32 = 16 << 10;
    const FILE: u64 = 16 << 20;
    // Hot region: larger than either static partition, smaller than the
    // consolidated quota.
    const REGION: u64 = 5 << 20;
    const SHIFT_BASE: u32 = 8 << 20;
    let per_seg = scale.overload_requests.max(SESSIONS);
    let results = run_cells(threads, variants.len(), |variant| {
        let cell_rec = cell_recorder(rec);
        let params = NfsRigParams {
            // Lopsided on purpose: 4 MiB FS cache + 2 MiB NCache pool.
            fs_cache_blocks: 1024,
            ncache_bytes: 2 << 20,
            shards,
            ..NfsRigParams::default()
        };
        let mut rig = NfsRig::new(ServerMode::NCache, params);
        attach(&mut rig, cell_rec.as_ref());
        let fh = rig.create_file("hot", FILE);
        let cfg = ncache::SplitConfig {
            dynamic: variant == 1,
            epoch_ops: 16,
            step_blocks: 128,
            hysteresis: 12,
            cooldown_epochs: 2,
            min_fs_blocks: 64,
            min_ncache_bytes: 64 * ncache::adaptive::QUOTA_BLOCK,
            ghost_blocks: 4096,
        };
        rig.enable_adaptive(cfg);
        let opts = SessionsOptions {
            tier: Some(blockdev::TierConfig::nvme_front(2048)),
            ..SessionsOptions::default()
        };
        let mut rows = Vec::with_capacity(SEGMENTS);
        let mut prev = rig.module().expect("ncache build").borrow().stats();
        for seg in 0..SEGMENTS {
            let base = if seg >= SEGMENTS / 2 { SHIFT_BASE } else { 0 };
            let stream = crate::openloop::zipf_reads(
                executor::derive_seed(ADAPTIVE_ABLATION_SEED, seg as u64),
                fh,
                per_seg,
                REGION,
                SPAN,
                1.0,
            );
            let mut sessions: Vec<Vec<DriverOp>> = vec![Vec::new(); SESSIONS];
            for (k, op) in stream.into_iter().enumerate() {
                let DriverOp::Read { fh, offset, len } = op else {
                    unreachable!("zipf_reads only reads");
                };
                sessions[k % SESSIONS].push(DriverOp::Read {
                    fh,
                    offset: base + offset,
                    len,
                });
            }
            let (back, r) = run_nfs_sessions(rig, sessions, &opts);
            rig = back;
            let now = rig.module().expect("ncache build").borrow().stats();
            let lookups = now.lookups - prev.lookups;
            let ratio = if lookups == 0 {
                0.0
            } else {
                (now.hits - prev.hits) as f64 / lookups as f64
            };
            prev = now;
            let fast_blocks = r.tier.map_or(0, |t| t.fast_resident_blocks);
            rows.push((r.throughput_mbs, ratio, fast_blocks));
        }
        (rows, cell_rec)
    });
    for (variant, (rows, cell_rec)) in results.into_iter().enumerate() {
        absorb_cell(rec, cell_rec);
        let name = variants[variant];
        for (seg, (mbs, ratio, fast)) in rows.into_iter().enumerate() {
            goodput.put((seg + 1) as f64, name, mbs);
            hits.put((seg + 1) as f64, name, ratio);
            residency.put((seg + 1) as f64, name, fast as f64);
        }
    }
    (goodput, hits, residency)
}

/// One row of Table 2: copy operations per request, measured on the data
/// plane's ledgers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CopyCountRow {
    /// The path ("NFS read hit", ...).
    pub path: String,
    /// Copies per request per build, in [`ServerMode::ALL`] order.
    pub copies: [u64; 3],
}

/// Table 2: data copies per request for every path, per build. The
/// original build must measure exactly the paper's numbers (NFS read 2/3,
/// write 1/2; kHTTPd 1/2); the zero-copy builds measure 0 on regular data.
pub fn table2() -> Vec<CopyCountRow> {
    table2_with(None, executor::thread_count(None))
}

/// [`table2`] on an explicit worker count; one cell per server build.
pub fn table2_with(rec: Option<&obs::Recorder>, threads: usize) -> Vec<CopyCountRow> {
    table2_impl(rec, threads, None)
}

/// [`table2`] under a seeded fault schedule: the same per-path
/// measurement, but every exchange crosses faulty links and the copy
/// counts include whatever recovery work the schedule forces. Still
/// deterministic: the same `(spec, seed)` yields identical rows at any
/// thread count.
pub fn table2_faulted(
    spec: &FaultSpec,
    seed: u64,
    rec: Option<&obs::Recorder>,
    threads: usize,
) -> Vec<CopyCountRow> {
    table2_impl(rec, threads, Some((*spec, seed)))
}

fn table2_impl(
    rec: Option<&obs::Recorder>,
    threads: usize,
    faults: Option<(FaultSpec, u64)>,
) -> Vec<CopyCountRow> {
    let mut rows = vec![
        CopyCountRow {
            path: "NFS read (hit)".into(),
            copies: [0; 3],
        },
        CopyCountRow {
            path: "NFS read (miss)".into(),
            copies: [0; 3],
        },
        CopyCountRow {
            path: "NFS write (overwritten)".into(),
            copies: [0; 3],
        },
        CopyCountRow {
            path: "NFS write (flushed)".into(),
            copies: [0; 3],
        },
        CopyCountRow {
            path: "kHTTPd (hit)".into(),
            copies: [0; 3],
        },
        CopyCountRow {
            path: "kHTTPd (miss)".into(),
            copies: [0; 3],
        },
    ];
    let cells = ServerMode::ALL;
    let results = run_cells(threads, cells.len(), |i| {
        let mode = cells[i];
        let mut col = [0u64; 6];
        // --- NFS paths, one 4 KiB block per request so copy ops == the
        // paper's per-request copy counts.
        let params = NfsRigParams {
            read_ahead_blocks: 0,
            ..NfsRigParams::default()
        };
        let cell_rec = cell_recorder(rec);
        let mut rig = match faults {
            Some((spec, seed)) => {
                NfsRig::new_faulted(mode, params, &spec, executor::derive_seed(seed, i as u64))
            }
            None => NfsRig::new(mode, params),
        };
        attach(&mut rig, cell_rec.as_ref());
        let fh = rig.create_sparse_file("t2", 64 << 10);
        // Warm the metadata (inode + directory) so only data copies count.
        rig.getattr(fh);

        let copies = |rig: &NfsRig, before: &netbuf::LedgerSnapshot| {
            rig.ledgers()
                .app
                .snapshot()
                .delta_since(before)
                .payload_copies
        };

        // Read miss.
        let before = rig.ledgers().app.snapshot();
        rig.read(fh, 0, 4096);
        col[1] = copies(&rig, &before);
        // Read hit (same block again).
        let before = rig.ledgers().app.snapshot();
        rig.read(fh, 0, 4096);
        col[0] = copies(&rig, &before);
        // Write overwritten (block stays cached, not yet flushed).
        let before = rig.ledgers().app.snapshot();
        rig.write(fh, 4096, &vec![0x5Au8; 4096]);
        col[2] = copies(&rig, &before);
        // Write flushed: a fresh write plus the sync that pushes it out.
        // Metadata flushes (inode, bitmaps) are charged to the ledger's
        // separate metadata counters, so only the data-block copies count.
        // First drain the previous measurement's dirty block.
        rig.server_mut().fs_mut().sync().expect("sync");
        let before = rig.ledgers().app.snapshot();
        rig.write(fh, 8192, &vec![0x5Bu8; 4096]);
        rig.server_mut().fs_mut().sync().expect("sync");
        col[3] = copies(&rig, &before);

        // --- kHTTPd paths, one 4 KiB page.
        let mut web = match faults {
            Some((spec, seed)) => KhttpdRig::new_faulted(
                mode,
                KhttpdRigParams::default(),
                &spec,
                executor::derive_seed(seed, 100 + i as u64),
            ),
            None => KhttpdRig::new(mode, KhttpdRigParams::default()),
        };
        attach(&mut web, cell_rec.as_ref());
        web.publish_sparse("t2page", 4096);
        let (hdr, _) = web.get("/t2page"); // warms metadata and data
        assert_eq!(hdr.status, 200);
        web.quiesce(); // drop the page data (and metadata; only data copies count)
        let before = web.ledgers().app.snapshot();
        web.get("/t2page");
        col[5] = web
            .ledgers()
            .app
            .snapshot()
            .delta_since(&before)
            .payload_copies;
        let before = web.ledgers().app.snapshot();
        web.get("/t2page");
        col[4] = web
            .ledgers()
            .app
            .snapshot()
            .delta_since(&before)
            .payload_copies;
        (col, cell_rec)
    });
    for (mi, (col, cell_rec)) in results.into_iter().enumerate() {
        absorb_cell(rec, cell_rec);
        for (row, copies) in rows.iter_mut().zip(col) {
            row.copies[mi] = copies;
        }
    }
    rows
}

/// Renders Table 2 in the paper's layout.
pub fn render_table2(rows: &[CopyCountRow]) -> String {
    let mut out = String::from("# Table 2: data copies per request\n");
    out.push_str(&format!(
        "{:<26} {:>9} {:>9} {:>9}\n",
        "Path", "original", "ncache", "baseline"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<26} {:>9} {:>9} {:>9}\n",
            row.path, row.copies[0], row.copies[1], row.copies[2]
        ));
    }
    out
}

/// Table 1 (the modification footprint) — delegated to the servers crate.
pub fn table1() -> String {
    servers::hooks::render_table1()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_original_matches_the_paper() {
        let rows = table2();
        let get = |path: &str| {
            rows.iter()
                .find(|r| r.path == path)
                .unwrap_or_else(|| panic!("row {path}"))
                .copies
        };
        // Paper Table 2, original build: read 2 hit / 3 miss; write 1
        // overwritten / 2 flushed; kHTTPd 1 hit / 2 miss.
        assert_eq!(get("NFS read (hit)")[0], 2);
        assert_eq!(get("NFS read (miss)")[0], 3);
        assert_eq!(get("NFS write (overwritten)")[0], 1);
        assert_eq!(get("NFS write (flushed)")[0], 2);
        assert_eq!(get("kHTTPd (hit)")[0], 1);
        assert_eq!(get("kHTTPd (miss)")[0], 2);
        // Zero-copy builds: no regular-data copies on any path.
        for row in &rows {
            assert_eq!(row.copies[1], 0, "{}: ncache copies", row.path);
            assert_eq!(row.copies[2], 0, "{}: baseline copies", row.path);
        }
        let rendered = render_table2(&rows);
        assert!(rendered.contains("NFS read (hit)"));
    }

    #[test]
    fn fault_sweep_is_thread_count_invariant() {
        let spec = FaultSpec {
            duplicate: 0.02,
            delay: 0.02,
            corrupt: 0.01,
            io: 0.02,
            ..FaultSpec::default()
        };
        let one = fault_sweep_with(&spec, 7, None, 1);
        let four = fault_sweep_with(&spec, 7, None, 4);
        assert_eq!(one, four, "same seed + spec must be identical at any thread count");
        // The zero-loss column completes everything; recovery appears as
        // loss rises.
        for mode in ServerMode::ALL {
            assert_eq!(one.0.get(0.0, mode.label()), Some(100.0), "{mode}");
        }
    }

    #[test]
    fn table2_faulted_is_deterministic_and_clean() {
        let spec = FaultSpec::parse("loss=0.05").expect("spec");
        let a = table2_faulted(&spec, 7, None, 1);
        let b = table2_faulted(&spec, 7, None, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn overload_sweep_is_thread_and_shard_invariant() {
        let scale = Scale {
            overload_requests: 64,
            ..Scale::quick()
        };
        let base = overload_sweep_with(&scale, None, 1, 1);
        let threaded = overload_sweep_with(&scale, None, 4, 1);
        assert_eq!(base, threaded, "identical at any thread count");
        let sharded = overload_sweep_with(&scale, None, 4, 8);
        assert_eq!(base, sharded, "identical at any shard count");
        let (_, tails, shares) = base;
        // Open-loop overload makes the tail grow: past saturation, p999
        // must dominate its half-load value on every build.
        for mode in ServerMode::ALL {
            let s = format!("{} p999", mode.label());
            let low = tails.get(0.5, &s).expect("half-load point");
            let high = tails.get(2.0, &s).expect("overload point");
            assert!(high > low, "{mode}: p999 {high} vs {low}");
        }
        // Stage shares are fractions of end-to-end latency and sum to 1
        // at every swept factor (the reconciliation invariant).
        for f in OVERLOAD_SWEEP_FACTORS {
            let total: f64 = shares
                .series()
                .iter()
                .filter_map(|s| shares.get(f, s))
                .sum();
            assert!((total - 1.0).abs() < 1e-9, "shares at {f} sum to {total}");
        }
    }

    #[test]
    fn overload_ablation_is_thread_and_shard_invariant() {
        // Needs enough arrivals for the unprotected backlog to outgrow
        // the deadline (the collapse the ablation exists to show); at 2x
        // the queue passes 24 service times after ~48 arrivals.
        let scale = Scale {
            overload_requests: 192,
            ..Scale::quick()
        };
        let base = overload_ablation_with(&scale, None, 1, 1);
        let threaded = overload_ablation_with(&scale, None, 4, 1);
        assert_eq!(base, threaded, "identical at any thread count");
        let sharded = overload_ablation_with(&scale, None, 4, 8);
        assert_eq!(base, sharded, "identical at any shard count");
        let (goodput, _, outcomes) = base;
        // The headline claim of the control plane: past saturation the
        // protected server delivers at least the unprotected goodput.
        let unprot = goodput.get(2.0, "unprotected").expect("unprotected 2.0");
        let prot = goodput.get(2.0, "protected").expect("protected 2.0");
        assert!(
            prot >= unprot,
            "protected goodput at 2x ({prot}) must not trail unprotected ({unprot})"
        );
        // Control off means nothing is rejected or retried on the
        // unprotected variant; on it, overload must actually trip the gate.
        assert_eq!(outcomes.get(2.0, "unprotected rejected"), Some(0.0));
        assert_eq!(outcomes.get(2.0, "unprotected retries"), Some(0.0));
        let rejected = outcomes.get(2.0, "protected rejected").expect("rejected");
        assert!(rejected > 0.0, "overload must trip the admission gate");
    }

    #[test]
    fn clients_sweep_is_thread_and_shard_invariant() {
        let scale = Scale::quick();
        let base = clients_sweep_with(&scale, None, 1, 1);
        let threaded = clients_sweep_with(&scale, None, 4, 1);
        assert_eq!(base, threaded, "identical at any thread count");
        let sharded = clients_sweep_with(&scale, None, 4, 8);
        assert_eq!(base, sharded, "identical at any shard count");
        // The axis is the monotone client count.
        let xs = base.0.xs();
        assert!(xs.windows(2).all(|w| w[0] < w[1]), "client axis monotone");
        assert_eq!(xs.len(), CLIENTS_SWEEP_POINTS.len());
    }
}
