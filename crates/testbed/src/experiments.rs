//! The paper's evaluation, experiment by experiment (§5).
//!
//! One function per figure and table, each taking the run's context
//! ([`Exp`]) and returning [`SeriesTable`]s with the same axes the paper
//! plots. [`ALL`] is the one list of them: the `repro` binary in
//! `ncache-bench`, the golden files, the equivalence suite and the figures
//! bench all iterate it. Absolute numbers are calibrated, shapes are
//! measured — see EXPERIMENTS.md for the paper-vs-measured comparison.

use servers::ServerMode;
use sim::stats::SeriesTable;
use sim::FaultSpec;
use workload::micro::{HTTP_REQUEST_SIZES, NFS_REQUEST_SIZES};
use workload::specsfs::{SpecSfs, SpecSfsParams};
use workload::specweb::{PageSet, SpecWeb};
use workload::NfsOp;

use crate::adaptive::SplitConfig;
use crate::executor::{self, derive_seed, run_cells};
use crate::khttpd_rig::{KhttpdRig, KhttpdRigParams};
use crate::nfs_rig::{FaultCounters, NfsRig, NfsRigParams};
use crate::openloop::{run_open_loop, zipf_reads, OpenLoopOptions};
use crate::rig::{App, Rig};
use crate::runner::{run, DriverOp, RigDriver, RunOptions};
use crate::sessions::{run_nfs_sessions, SessionsOptions};

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

/// What one run of the evaluation is given. Every experiment takes `&Exp`;
/// [`Exp::new`] is the bare run and struct update sets the rest: `Exp {
/// threads: 1, ..Exp::new(&scale) }`. Only `scale`, `faults` and `seed`
/// can change a table — `rec` and `threads` are unobservable in every
/// experiment's output by construction, and the equivalence suite holds
/// every row of [`ALL`] to that.
#[derive(Clone, Copy)]
pub struct Exp<'a> {
    /// Experiment sizing.
    pub scale: &'a Scale,
    /// The run's recorder (`None`: untraced), honoured by the registry's
    /// `traced` rows. Cells never write to it directly, they record into
    /// private recorders that are absorbed into it in cell order.
    pub rec: Option<&'a obs::Recorder>,
    /// Worker threads for the cells.
    pub threads: usize,
    /// The fault spec (`repro --faults`), honoured by the registry's
    /// `faulted` rows: their rigs are armed with it. `None` runs fault-free.
    pub faults: Option<FaultSpec>,
    /// Root seed of every fault schedule (`repro --seed`).
    pub seed: u64,
}

impl<'a> Exp<'a> {
    /// The bare run at `scale`: untraced, [`executor::thread_count`]`(None)`
    /// workers, no faults, the CLI's default seed.
    pub fn new(scale: &'a Scale) -> Self {
        Exp {
            scale,
            rec: None,
            threads: executor::thread_count(None),
            faults: None,
            seed: 7,
        }
    }

    /// The cell protocol, written once: runs `cell(i, cells[i], recorder)`
    /// for every cell on up to `threads` workers and returns `(cell,
    /// result)` pairs in cell order. A traced run hands each cell a fresh
    /// private recorder mirroring the run's configuration — cells never
    /// share one — and absorbs them back in cell order, so a traced run's
    /// exported bytes are identical at any thread count.
    pub(crate) fn sweep<C: Copy + Sync, R: Send>(
        &self,
        cells: &[C],
        cell: impl Fn(usize, C, Option<&obs::Recorder>) -> R + Sync,
    ) -> Vec<(C, R)> {
        let results = run_cells(self.threads, cells.len(), |i| {
            let rec = self.rec.map(|run| {
                let rec = obs::Recorder::new();
                if run.is_enabled() {
                    rec.enable(run.config());
                }
                rec
            });
            (cell(i, cells[i], rec.as_ref()), rec)
        });
        let absorb = |(&cell, (result, rec)): (&C, (R, Option<obs::Recorder>))| {
            if let (Some(run), Some(rec)) = (self.rec, rec) {
                run.absorb(&rec);
            }
            (cell, result)
        };
        cells.iter().zip(results).map(absorb).collect()
    }

    /// One cell's rig, recording into the cell's recorder. `fault_seed` is
    /// `Some` only in the experiments that honour `faults` (the registry's
    /// `faulted` rows): in a faulted run their rigs are armed with the
    /// run's spec under that seed. Everywhere else the rig is clean.
    fn rig<A: App>(
        &self,
        mode: ServerMode,
        params: A::Params,
        rec: Option<&obs::Recorder>,
        fault_seed: Option<u64>,
    ) -> Rig<A> {
        let mut rig = match (self.faults, fault_seed) {
            (Some(spec), Some(seed)) => Rig::new_faulted(mode, params, &spec, seed),
            _ => Rig::new(mode, params),
        };
        if let Some(rec) = rec {
            rig.set_recorder(rec.clone());
        }
        rig
    }
}

/// One cell per `(build, axis point)`, builds outermost: the order the
/// sweeps' cells are seeded, merged and printed in.
fn per_mode<T: Copy>(axis: impl IntoIterator<Item = T> + Clone) -> Vec<(ServerMode, T)> {
    ServerMode::ALL
        .into_iter()
        .flat_map(|mode| axis.clone().into_iter().map(move |point| (mode, point)))
        .collect()
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
        ..NfsRigParams::default()
    }
}

/// One READ of `req` bytes per whole `req`-byte window of `[0, total)`,
/// in file order: the micro-benchmarks' sequential stream (§5.3). A
/// partial tail window is left out; every experiment reads a file that
/// is a multiple of its request size.
pub(crate) fn seq_reads(fh: u64, total: u64, req: u32) -> Vec<DriverOp> {
    (0..total / u64::from(req))
        .map(|i| DriverOp::Read {
            fh,
            offset: (i * u64::from(req)) as u32,
            len: req,
        })
        .collect()
}

/// READ size of the client-scaling, overload and adaptive workloads.
const SPAN: u32 = 16 << 10;

/// The hot file of the overload experiments: strictly below the 8 MiB fs
/// buffer cache (and far below the NCache), so once [`warm`]ed it fits
/// every build's cache and nothing evicts mid-run — the sweeps over it
/// measure queueing and scheduling, not eviction.
fn hot_file(scale: &Scale) -> u64 {
    scale.allhit_file.min(4 << 20)
}

/// Warm pass: READs `file` front to back in `req`-byte requests
/// (functional only, untimed).
fn warm(rig: &mut NfsRig, fh: u64, file: u64, req: u32) {
    for off in (0..file).step_by(req as usize) {
        rig.read(fh, off as u32, req);
    }
}

/// `sessions` client sessions of `per_session` `len`-byte READs each:
/// every session strides the file from its own phase, overlapping the
/// others.
fn strided_sessions(
    fh: u64,
    file: u64,
    len: u32,
    sessions: usize,
    per_session: usize,
) -> Vec<Vec<DriverOp>> {
    let span = u64::from(len);
    let read = |sid: usize, k: usize| DriverOp::Read {
        fh,
        offset: ((sid as u64 * 7 + k as u64) * span % (file - span)) as u32 / 4096 * 4096,
        len,
    };
    (0..sessions)
        .map(|sid| (0..per_session).map(|k| read(sid, k)).collect())
        .collect()
}

/// The server-side cache hit ratio: the NCache build's hits happen in the
/// network-centric cache; the copying builds hit the file-system buffer
/// cache.
fn hit_ratio(rig: &mut NfsRig) -> f64 {
    match rig.module() {
        Some(module) => module.borrow().stats().hit_ratio(),
        None => rig.server_mut().fs_mut().cache_stats().hit_ratio(),
    }
}

/// Figure 4: all-miss NFS throughput (a) and server CPU utilization (b)
/// versus request size, for all three builds. Returns `(throughput MB/s,
/// CPU %)` tables keyed by request size in KB. One cell per `(mode, size)`.
pub fn fig4(x: &Exp) -> (SeriesTable, SeriesTable) {
    let mut thr = SeriesTable::new("Fig 4(a): all-miss NFS throughput (MB/s)", "req KB");
    let mut cpu = SeriesTable::new(
        "Fig 4(b): all-miss NFS server CPU utilization (%)",
        "req KB",
    );
    let file = x.scale.allmiss_file;
    let results = x.sweep(&per_mode(NFS_REQUEST_SIZES), |_, (mode, req), rec| {
        // "The file system read ahead window was tuned appropriately so
        // that the average disk request size matches with the NFS
        // request size" (§5.4).
        let params = nfs_params_for(file, u64::from(req / 4096));
        let mut rig: NfsRig = x.rig(mode, params, rec, None);
        let fh = rig.create_sparse_file("bigfile", file);
        // "The number of NFS server daemons was also adjusted to reach
        // the best performance" (§5.4): the all-miss pipeline needs
        // deep concurrency to saturate the storage server.
        let opts = RunOptions {
            concurrency: 64,
            ..RunOptions::default()
        };
        let result = run(&mut rig, seq_reads(fh, file, req), &opts);
        (result.throughput_mbs, result.app_cpu_util)
    });
    for ((mode, req), (mbs, util)) in results {
        let kb = f64::from(req / 1024);
        thr.put(kb, mode.label(), mbs);
        cpu.put(kb, mode.label(), util * 100.0);
    }
    (thr, cpu)
}

/// Figure 5: all-hit NFS. `(a)` server CPU utilization with one NIC
/// (link-bound); `(b)` throughput with two NICs (CPU-bound). One cell per
/// `(NIC count, mode, size)`.
pub fn fig5(x: &Exp) -> (SeriesTable, SeriesTable) {
    let mut cpu1 = SeriesTable::new(
        "Fig 5(a): all-hit NFS server CPU utilization, 1 NIC (%)",
        "req KB",
    );
    let mut thr2 = SeriesTable::new("Fig 5(b): all-hit NFS throughput, 2 NICs (MB/s)", "req KB");
    let file = x.scale.allhit_file;
    let cells: Vec<(usize, (ServerMode, u32))> = [1usize, 2]
        .into_iter()
        .flat_map(|nics| {
            per_mode(NFS_REQUEST_SIZES)
                .into_iter()
                .map(move |cell| (nics, cell))
        })
        .collect();
    let results = x.sweep(&cells, |_, (nics, (mode, req)), rec| {
        let params = nfs_params_for(file * 4, u64::from(req / 4096));
        let mut rig: NfsRig = x.rig(mode, params, rec, None);
        let fh = rig.create_file("hotfile", file);
        // Warm pass (functional only, untimed).
        for op in seq_reads(fh, file, req) {
            rig.run_op(&op);
        }
        let ops: Vec<DriverOp> = (0..x.scale.allhit_passes)
            .flat_map(|_| seq_reads(fh, file, req))
            .collect();
        let opts = RunOptions {
            nics,
            ..RunOptions::default()
        };
        let result = run(&mut rig, ops, &opts);
        (result.app_cpu_util, result.throughput_mbs)
    });
    for ((nics, (mode, req)), (util, mbs)) in results {
        let kb = f64::from(req / 1024);
        match nics {
            1 => cpu1.put(kb, mode.label(), util * 100.0),
            _ => thr2.put(kb, mode.label(), mbs),
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
        ..KhttpdRigParams::default()
    }
}

/// Figure 6(a): kHTTPd SPECweb99-like throughput versus working-set size.
/// One cell per `(mode, working set)`.
pub fn fig6a(x: &Exp) -> SeriesTable {
    let mut thr = SeriesTable::new("Fig 6(a): kHTTPd SPECweb99 throughput (MB/s)", "workset MB");
    let scale = x.scale;
    let cells = per_mode(scale.specweb_working_sets.iter().copied());
    let results = x.sweep(&cells, |_, (mode, ws), rec| {
        let params = khttpd_params(ws, scale.web_cache_bytes, mode);
        let mut rig: KhttpdRig = x.rig(mode, params, rec, None);
        let set = PageSet::with_working_set(ws);
        // One quiesce after the whole set, not one per page.
        for (name, size) in set.pages() {
            let fs = rig.server_mut().fs_mut();
            let ino = fs
                .create(simfs::Filesystem::<servers::IscsiInitiator>::ROOT, &name)
                .expect("fresh page name");
            fs.allocate(ino, size).expect("volume has space");
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
        run(&mut rig, measured.to_vec(), &RunOptions::default()).throughput_mbs
    });
    for ((mode, ws), mbs) in results {
        thr.put((ws >> 20) as f64, mode.label(), mbs);
    }
    thr
}

/// Figure 6(b): kHTTPd all-hit throughput versus request (page) size. One
/// cell per `(mode, size)`.
pub fn fig6b(x: &Exp) -> SeriesTable {
    let mut thr = SeriesTable::new(
        "Fig 6(b): kHTTPd all-hit throughput vs request size (MB/s)",
        "req KB",
    );
    let file = x.scale.allhit_file;
    let results = x.sweep(&per_mode(HTTP_REQUEST_SIZES), |_, (mode, req), rec| {
        let pages = (file / u64::from(req)).max(1) as u32;
        let mut rig: KhttpdRig = x.rig(mode, khttpd_params(file * 4, file * 4, mode), rec, None);
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
        let ops: Vec<DriverOp> = (0..x.scale.allhit_passes.max(2))
            .flat_map(|_| paths.iter().cloned())
            .collect();
        run(&mut rig, ops, &RunOptions::default()).throughput_mbs
    });
    for ((mode, req), mbs) in results {
        thr.put(f64::from(req / 1024), mode.label(), mbs);
    }
    thr
}

/// Figure 7: SPECsfs-like throughput (ops/s) versus the percentage of
/// regular-data operations. One cell per `(mode, data-op %)`.
pub fn fig7(x: &Exp) -> SeriesTable {
    let mut table = SeriesTable::new(
        "Fig 7: SPECsfs throughput (ops/sec) vs % regular-data requests",
        "% data ops",
    );
    let scale = x.scale;
    let results = x.sweep(&per_mode([30u32, 45, 60, 75]), |_, (mode, pct), rec| {
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
        let mut rig: NfsRig = x.rig(mode, params, rec, None);
        let names: Vec<String> = (0..scale.specsfs_files)
            .map(|i| format!("sfs{i:05}"))
            .collect();
        let fhs: Vec<u64> = names
            .iter()
            .map(|name| rig.create_sparse_file(name, scale.specsfs_file_size))
            .collect();
        rig.quiesce();
        // Warm pass: sequentially touch every file (functional only). A
        // file's partial tail window is read too — the server clips — so
        // this is not `seq_reads`.
        for &fh in &fhs {
            for off in (0..scale.specsfs_file_size).step_by(64 << 10) {
                rig.run_op(&DriverOp::Read {
                    fh,
                    offset: off as u32,
                    len: 64 << 10,
                });
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
        run(&mut rig, ops, &RunOptions::default()).ops_per_sec
    });
    for ((mode, pct), ops_per_sec) in results {
        table.put(f64::from(pct), mode.label(), ops_per_sec);
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

/// Loss rates swept by [`fault_sweep`]: the fraction of PDUs lost per
/// link, 0 → 10 %.
pub const FAULT_SWEEP_LOSS: [f64; 5] = [0.0, 0.01, 0.02, 0.05, 0.10];

/// The fault sweep: every build under a seeded fault schedule at each
/// loss rate, the other fault rates of `x.faults` (none when it is `None`)
/// held constant. Each cell drives a mixed read/write NFS workload through
/// the faulted rig and asserts the headline invariants in-line: completed
/// reads return the expected bytes (never stale, never junk), acknowledged
/// writes are visible, and a zero fault spec produces zero recovery
/// actions. Returns `(requests completed %, recovery actions per request)`
/// tables. One cell per `(mode, loss rate)`, each seeded via `derive_seed`
/// so results are identical at any thread count.
pub fn fault_sweep(x: &Exp) -> (SeriesTable, SeriesTable) {
    let mut done = SeriesTable::new("Fault sweep: requests completed cleanly (%)", "loss %");
    let mut recov = SeriesTable::new("Fault sweep: recovery actions per request", "loss %");
    let spec = x.faults.unwrap_or_default();
    let results = x.sweep(&per_mode(FAULT_SWEEP_LOSS), |i, (mode, loss), rec| {
        let cell_spec = FaultSpec { loss, ..spec };
        // Every cell is armed, the all-zero one included: its recovery
        // counters are what the zero-spec assertions below read.
        let armed = Exp {
            faults: Some(cell_spec),
            ..*x
        };
        let cell_seed = derive_seed(x.seed, i as u64);
        let mut rig: NfsRig = armed.rig(mode, NfsRigParams::default(), rec, Some(cell_seed));
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
            assert_eq!(
                fc,
                FaultCounters::default(),
                "no faults, no client recovery"
            );
            assert_eq!(init.retries, 0, "no faults, no initiator retries");
            assert_eq!(srv.drc_hits, 0, "no faults, no DRC hits");
            assert_eq!(inval, 0, "no faults, no invalidations");
        }
        let recovery = fc.retransmits + init.retries + srv.drc_hits + inval;
        (
            completed as f64 / attempted as f64 * 100.0,
            recovery as f64 / attempted as f64,
        )
    });
    for ((mode, loss), (pct, per_req)) in results {
        done.put(loss * 100.0, mode.label(), pct);
        recov.put(loss * 100.0, mode.label(), per_req);
    }
    (done, recov)
}

/// Client counts swept by [`clients_sweep`]: a monotone axis from one
/// session to 256.
pub const CLIENTS_SWEEP_POINTS: [usize; 5] = [1, 4, 16, 64, 256];

/// Sessions' worth of work at one point of the client axis: total work is
/// roughly constant across it, so every point runs in comparable time.
fn client_sessions(fh: u64, file: u64, clients: usize) -> Vec<Vec<DriverOp>> {
    strided_sessions(fh, file, SPAN, clients, (512 / clients).max(2))
}

/// Client scaling: M interleaved NFS sessions, each one outstanding
/// request, against a shared hot file. Returns `(throughput, hit ratio)`
/// tables over the client axis. One cell per `(mode, clients)`; the
/// multi-session engine interleaves each cell's sessions
/// deterministically, so stdout is byte-identical at any `threads` — the
/// CI determinism gate diffs exactly that.
pub fn clients_sweep(x: &Exp) -> (SeriesTable, SeriesTable) {
    let mut thr = SeriesTable::new("Client scaling: delivered throughput (MB/s)", "clients");
    let mut hits = SeriesTable::new("Client scaling: server cache hit ratio", "clients");
    // The shared hot set: small enough that every build's cache holds it,
    // so the hit ratio climbs as sessions re-read each other's blocks.
    let file = x.scale.allhit_file.min(8 << 20);
    let results = x.sweep(
        &per_mode(CLIENTS_SWEEP_POINTS),
        |_, (mode, clients), rec| {
            let mut rig: NfsRig = x.rig(mode, NfsRigParams::default(), rec, None);
            let fh = rig.create_file("shared", file);
            let sessions = client_sessions(fh, file, clients);
            let (mut rig, r) = run_nfs_sessions(rig, sessions, &SessionsOptions::default());
            (r.throughput_mbs, hit_ratio(&mut rig))
        },
    );
    for ((mode, clients), (mbs, hit)) in results {
        thr.put(clients as f64, mode.label(), mbs);
        hits.put(clients as f64, mode.label(), hit);
    }
    (thr, hits)
}

/// Offered-load factors swept by [`overload_sweep`], as multiples of each
/// build's measured closed-loop capacity: from half load to twice past
/// saturation.
pub const OVERLOAD_SWEEP_FACTORS: [f64; 5] = [0.5, 0.8, 1.0, 1.2, 2.0];

/// Root seed for the overload sweep's arrival and popularity draws.
pub const OVERLOAD_SWEEP_SEED: u64 = 29;

/// Where both overload experiments start a cell: `mode`'s rig with the
/// [`hot_file`] warmed in `len`-byte READs, the warm-up's storage backlog
/// dropped (so the first measured request's burst chain carries only its
/// own work), and the closed-loop capacity probed by 8 saturating
/// sessions of `len`-byte READs over the same hot set with the control
/// plane off. The probe is identical across factors and variants, so
/// offered rates scale exactly with the factor axis. Returns the rig, the
/// file's handle and size, and the capacity in ops/s.
fn overload_rig(
    x: &Exp,
    mode: ServerMode,
    len: u32,
    rec: Option<&obs::Recorder>,
) -> (NfsRig, u64, u64, f64) {
    let file = hot_file(x.scale);
    let mut rig: NfsRig = x.rig(mode, NfsRigParams::default(), rec, None);
    let fh = rig.create_file("hot", file);
    warm(&mut rig, fh, file, len);
    let _ = rig.server_mut().fs_mut().store_mut().take_io_log();
    let probe = strided_sessions(fh, file, len, 8, 32);
    let (rig, cap) = run_nfs_sessions(rig, probe, &SessionsOptions::default());
    (rig, fh, file, cap.ops_per_sec.max(1.0))
}

/// One `"<name> <quantile>"` point per listed quantile of `latency`, in µs.
fn put_tails(
    tails: &mut SeriesTable,
    x: f64,
    name: &str,
    latency: &obs::HistogramSnapshot,
    quantiles: &[(f64, &str)],
) {
    for (q, label) in quantiles {
        let us = latency.quantile(*q) as f64 / 1000.0;
        tails.put(x, &format!("{name} {label}"), us);
    }
}

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
/// byte-identical at any `threads`.
pub fn overload_sweep(x: &Exp) -> (SeriesTable, SeriesTable, SeriesTable) {
    let axis = "offered/capacity";
    let mut goodput = SeriesTable::new("Overload sweep: delivered goodput (MB/s)", axis);
    let mut tails = SeriesTable::new("Overload sweep: request latency quantiles (us)", axis);
    let mut shares = SeriesTable::new(
        "Overload sweep: ncache stage share of end-to-end latency",
        axis,
    );
    let cells = per_mode(OVERLOAD_SWEEP_FACTORS);
    let results = x.sweep(&cells, |i, (mode, factor), rec| {
        let (rig, fh, file, capacity) = overload_rig(x, mode, SPAN, rec);
        let seed = |stream: u64| derive_seed(OVERLOAD_SWEEP_SEED, stream + i as u64);
        let ops = zipf_reads(seed(0), fh, x.scale.overload_requests, file, SPAN, 1.0);
        let opts = OpenLoopOptions {
            mean_interarrival_ns: ((1e9 / (factor * capacity)).round() as u64).max(1),
            seed: seed(100),
            ..OpenLoopOptions::default()
        };
        run_open_loop(rig, ops, &opts).1
    });
    for ((mode, factor), r) in results {
        goodput.put(factor, mode.label(), r.goodput_mbs);
        let quantiles = [(0.5, "p50"), (0.99, "p99"), (0.999, "p999")];
        put_tails(&mut tails, factor, mode.label(), &r.latency, &quantiles);
        if mode == ServerMode::NCache && r.latency.sum > 0 {
            for st in &r.stages {
                let share = (st.queue_ns + st.service_ns) as f64 / r.latency.sum as f64;
                shares.put(factor, st.stage, share);
            }
        }
    }
    (goodput, tails, shares)
}

/// Root seed for the overload ablation's arrival, popularity and backoff
/// draws (distinct from [`OVERLOAD_SWEEP_SEED`] so the two experiments
/// never share a stream).
pub const OVERLOAD_ABLATION_SEED: u64 = 31;

/// Request sizes swept by [`overload_ablation`], with their series
/// labels. `SPAN` comes first so its cells keep the seeds they had
/// before the size axis existed.
pub const OVERLOAD_ABLATION_SIZES: [(u32, &str); 2] = [(SPAN, "16K"), (4 << 10, "4K")];

/// The protected-vs-unprotected overload ablation: the NCache build under
/// the open-loop sweep's offered-load factors at each request size of
/// [`OVERLOAD_ABLATION_SIZES`], once with the control plane off (every
/// request executes, no deadline protection on the server) and once with
/// admission control, backpressure and client retry budgets on. Both
/// variants run the same mixed read/write workload under the same
/// per-request deadline, so the comparison isolates the control plane
/// itself; each size gets its own capacity probe, so a factor means the
/// same load relative to what the server can serve at that size.
///
/// Returns three tables over the offered-load factor, one series per
/// `<variant>-<size>`: delivered (on-time) goodput, latency quantiles
/// (p50/p99, µs), and request outcomes (shed / deadline-exceeded /
/// retransmissions / gate rejections). One cell per `(size, variant,
/// factor)`, each single-threaded inside and seeded by position, so the
/// tables are byte-identical at any `threads`.
pub fn overload_ablation(x: &Exp) -> (SeriesTable, SeriesTable, SeriesTable) {
    let axis = "offered/capacity";
    let mut goodput = SeriesTable::new("Overload ablation: delivered on-time goodput (MB/s)", axis);
    let mut tails = SeriesTable::new("Overload ablation: request latency quantiles (us)", axis);
    let mut outcomes = SeriesTable::new("Overload ablation: request outcomes per point", axis);
    let cells: Vec<((u32, &str), &str, f64)> = OVERLOAD_ABLATION_SIZES
        .into_iter()
        .flat_map(|size| {
            ["unprotected", "protected"]
                .into_iter()
                .flat_map(move |variant| {
                    OVERLOAD_SWEEP_FACTORS
                        .into_iter()
                        .map(move |f| (size, variant, f))
                })
        })
        .collect();
    let results = x.sweep(&cells, |i, ((len, _), variant, factor), rec| {
        // Capacity is probed with the control plane OFF in both
        // variants: the offered schedules (and the deadline) must be
        // identical so the ablation isolates the gate, not the probe.
        let (mut rig, fh, file, capacity) = overload_rig(x, ServerMode::NCache, len, rec);
        let seed = |stream: u64| derive_seed(OVERLOAD_ABLATION_SEED, stream + i as u64);
        let per_op_ns = ((1e9 / capacity).round() as u64).max(1);
        // Every 8th request is a WRITE over the same hot range, so the
        // dirty-cache watermark and write-first shedding have something
        // to act on.
        let ops = zipf_reads(seed(0), fh, x.scale.overload_requests, file, len, 1.0)
            .into_iter()
            .enumerate()
            .map(|(k, op)| match op {
                DriverOp::Read { fh, offset, len } if k % 8 == 7 => {
                    DriverOp::Write { fh, offset, len }
                }
                other => other,
            })
            .collect();
        let mut opts = OpenLoopOptions {
            mean_interarrival_ns: ((1e9 / (factor * capacity)).round() as u64).max(1),
            seed: seed(100),
            // Both variants answer to the same client patience: a
            // request completing past 24 service times of queueing is
            // worthless to its caller.
            deadline_ns: per_op_ns.saturating_mul(24),
            ..OpenLoopOptions::default()
        };
        if variant == "protected" {
            // The in-flight bound is the primary control: it admits at
            // exactly the service rate when saturated (every completion
            // frees a slot), and 12 slots of queueing keep admitted
            // requests comfortably inside the 24-service-time deadline.
            // No rate cap — an open-loop rate cap either barely rejects
            // (queues still go critical) or over-rejects.
            rig.enable_control(servers::ControlConfig {
                max_inflight: 12,
                queue_hi: 10,
                queue_lo: 6,
                ..servers::ControlConfig::protective()
            });
            opts.retry = Some(servers::RetryPolicy::standard(seed(200)));
        }
        let (rig, r) = run_open_loop(rig, ops, &opts);
        (r, rig.control_stats().unwrap_or_default())
    });
    for (((_, size), variant, factor), (r, control)) in results {
        let name = format!("{variant}-{size}");
        goodput.put(factor, &name, r.goodput_mbs);
        put_tails(
            &mut tails,
            factor,
            &name,
            &r.latency,
            &[(0.5, "p50"), (0.99, "p99")],
        );
        outcomes.put(factor, &format!("{name} shed"), r.shed as f64);
        outcomes.put(factor, &format!("{name} late"), r.deadline_exceeded as f64);
        outcomes.put(factor, &format!("{name} retries"), r.retries as f64);
        outcomes.put(factor, &format!("{name} rejected"), control.rejected as f64);
    }
    (goodput, tails, outcomes)
}

/// Root seed for the adaptive-split ablation's Zipf draws (distinct from
/// the overload experiments' 29/31 so no streams are shared).
pub const ADAPTIVE_ABLATION_SEED: u64 = 37;

/// The static-vs-adaptive cache-split ablation (DESIGN.md §16): the
/// NCache build under a phase-changing Zipf workload, once with the
/// split controller frozen ([`SplitConfig`] with `dynamic:
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
/// so the tables are byte-identical at any `threads`.
pub fn adaptive_ablation(x: &Exp) -> (SeriesTable, SeriesTable, SeriesTable) {
    let axis = "segment";
    let mut goodput = SeriesTable::new("Adaptive split ablation: delivered goodput (MB/s)", axis);
    let mut hits = SeriesTable::new(
        "Adaptive split ablation: NCache hit ratio per segment",
        axis,
    );
    let mut residency = SeriesTable::new(
        "Adaptive split ablation: fast-tier residency (blocks)",
        axis,
    );
    const SEGMENTS: usize = 6;
    const SESSIONS: usize = 4;
    const FILE: u64 = 16 << 20;
    // Hot region: larger than either static partition, smaller than the
    // consolidated quota.
    const REGION: u64 = 5 << 20;
    const SHIFT_BASE: u32 = 8 << 20;
    let per_seg = x.scale.overload_requests.max(SESSIONS);
    // Static first: the CI gate compares column 2 (static) against
    // column 3 (adaptive) row by row.
    let results = x.sweep(&["static", "adaptive"], |_, variant, rec| {
        let params = NfsRigParams {
            // Lopsided on purpose: 4 MiB FS cache + 2 MiB NCache pool.
            fs_cache_blocks: 1024,
            ncache_bytes: 2 << 20,
            ..NfsRigParams::default()
        };
        let mut rig: NfsRig = x.rig(ServerMode::NCache, params, rec, None);
        let fh = rig.create_file("hot", FILE);
        rig.enable_adaptive(SplitConfig {
            dynamic: variant == "adaptive",
            epoch_ops: 16,
            step_blocks: 128,
            hysteresis: 12,
            cooldown_epochs: 2,
            min_fs_blocks: 64,
            min_ncache_bytes: 64 * simfs::BLOCK_SIZE as u64,
            ghost_blocks: 4096,
        });
        let opts = SessionsOptions {
            tier: Some(blockdev::TierConfig::nvme_front(2048)),
        };
        let mut rows = Vec::with_capacity(SEGMENTS);
        let mut prev = rig.module().expect("ncache build").borrow().stats();
        for seg in 0..SEGMENTS {
            let base = if seg >= SEGMENTS / 2 { SHIFT_BASE } else { 0 };
            let seed = derive_seed(ADAPTIVE_ABLATION_SEED, seg as u64);
            let stream = zipf_reads(seed, fh, per_seg, REGION, SPAN, 1.0);
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
        rows
    });
    for (name, rows) in results {
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

/// Table 2's paths, in row order.
const TABLE2_PATHS: [&str; 6] = [
    "NFS read (hit)",
    "NFS read (miss)",
    "NFS write (overwritten)",
    "NFS write (flushed)",
    "kHTTPd (hit)",
    "kHTTPd (miss)",
];

/// The payload copies `op` charges the application server's ledger.
fn copies<A: App, T>(rig: &mut Rig<A>, op: impl FnOnce(&mut Rig<A>) -> T) -> u64 {
    let before = rig.ledgers().app.snapshot();
    op(rig);
    let after = rig.ledgers().app.snapshot();
    after.delta_since(&before).payload_copies
}

/// Table 2: data copies per request for every path, per build. The
/// original build must measure exactly the paper's numbers (NFS read 2/3,
/// write 1/2; kHTTPd 1/2); the zero-copy builds measure 0 on regular data.
/// One cell per server build.
///
/// Under a fault spec (`x.faults`) it is the same per-path measurement,
/// but every exchange crosses faulty links and the copy counts include
/// whatever recovery work the schedule forces. Cell `i` seeds its NFS rig
/// `derive_seed(seed, i)` and its web rig `derive_seed(seed, 100 + i)`, so
/// it is still deterministic: the same `(spec, seed)` yields identical
/// rows at any thread count.
pub fn table2(x: &Exp) -> Vec<CopyCountRow> {
    let columns = x.sweep(&ServerMode::ALL, |i, mode, rec| {
        // --- NFS paths, one 4 KiB block per request so copy ops == the
        // paper's per-request copy counts.
        let params = NfsRigParams {
            read_ahead_blocks: 0,
            ..NfsRigParams::default()
        };
        let mut rig: NfsRig = x.rig(mode, params, rec, Some(derive_seed(x.seed, i as u64)));
        let fh = rig.create_sparse_file("t2", 64 << 10);
        // Warm the metadata (inode + directory) so only data copies count.
        rig.getattr(fh);
        // Read miss.
        let read_miss = copies(&mut rig, |r| r.read(fh, 0, 4096));
        // Read hit (same block again).
        let read_hit = copies(&mut rig, |r| r.read(fh, 0, 4096));
        // Write overwritten (block stays cached, not yet flushed).
        let overwritten = copies(&mut rig, |r| r.write(fh, 4096, &vec![0x5Au8; 4096]));
        // Write flushed: a fresh write plus the sync that pushes it out.
        // Metadata flushes (inode, bitmaps) are charged to the ledger's
        // separate metadata counters, so only the data-block copies count.
        // First drain the previous measurement's dirty block.
        rig.server_mut().fs_mut().sync().expect("sync");
        let flushed = copies(&mut rig, |r| {
            r.write(fh, 8192, &vec![0x5Bu8; 4096]);
            r.server_mut().fs_mut().sync().expect("sync");
        });

        // --- kHTTPd paths, one 4 KiB page.
        let web_seed = derive_seed(x.seed, 100 + i as u64);
        let mut web: KhttpdRig = x.rig(mode, KhttpdRigParams::default(), rec, Some(web_seed));
        web.publish_sparse("t2page", 4096);
        let (hdr, _) = web.get("/t2page"); // warms metadata and data
        assert_eq!(hdr.status, 200);
        web.quiesce(); // drop the page data (and metadata; only data copies count)
        let web_miss = copies(&mut web, |w| w.get("/t2page"));
        let web_hit = copies(&mut web, |w| w.get("/t2page"));
        [read_hit, read_miss, overwritten, flushed, web_hit, web_miss]
    });
    let path_row = |(p, path): (usize, &&str)| CopyCountRow {
        path: path.to_string(),
        copies: std::array::from_fn(|build| columns[build].1[p]),
    };
    TABLE2_PATHS.iter().enumerate().map(path_row).collect()
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

/// What one experiment prints: its tables, which a claim can read cell by
/// cell, or text laid out its own way.
pub enum Printed {
    /// The experiment's tables in print order, a blank line between two.
    Tables(Vec<SeriesTable>),
    /// Text in a layout of its own: Tables 1 and 2, and the ablations,
    /// whose tables are interleaved with lines that are not tables.
    Text(String),
}

impl std::fmt::Display for Printed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Printed::Text(text) => f.write_str(text),
            Printed::Tables(tables) => {
                let tables: Vec<String> = tables.iter().map(ToString::to_string).collect();
                f.write_str(&tables.join("\n"))
            }
        }
    }
}

impl From<SeriesTable> for Printed {
    fn from(a: SeriesTable) -> Self {
        Printed::Tables(vec![a])
    }
}

impl From<(SeriesTable, SeriesTable)> for Printed {
    fn from((a, b): (SeriesTable, SeriesTable)) -> Self {
        Printed::Tables(vec![a, b])
    }
}

impl From<(SeriesTable, SeriesTable, SeriesTable)> for Printed {
    fn from((a, b, c): (SeriesTable, SeriesTable, SeriesTable)) -> Self {
        Printed::Tables(vec![a, b, c])
    }
}

/// One row of the evaluation's registry: an experiment as `repro` selects,
/// runs and prints it.
pub struct Experiment {
    /// The `repro --<selector>` that runs it.
    pub selector: &'static str,
    /// Whether a `repro` with no selector runs it.
    pub in_default_run: bool,
    /// Whether it records into [`Exp::rec`] (`--trace`, `--metrics`,
    /// `--latency-report`).
    pub traced: bool,
    /// Whether it honours [`Exp::faults`] and [`Exp::seed`].
    pub faulted: bool,
    /// Runs it and returns what `repro` prints for it: the output's
    /// `Display` is exactly the text.
    pub run: fn(&Exp) -> Printed,
}

const fn row(
    selector: &'static str,
    [in_default_run, traced, faulted]: [bool; 3],
    run: fn(&Exp) -> Printed,
) -> Experiment {
    Experiment {
        selector,
        in_default_run,
        traced,
        faulted,
        run,
    }
}

/// The evaluation, once: every experiment in `repro`'s print order.
/// `repro` derives its selectors, its flag checks and its dispatch from
/// this list; the golden files, the equivalence suite and the figures
/// bench iterate it. Adding an experiment is one function above and one
/// row here.
#[rustfmt::skip]
pub static ALL: [Experiment; 13] = {
    const Y: bool = true;
    const N: bool = false;
    //   selector              [default, traced, faulted]  run
    [
        // Table 1 (the modification footprint) is the servers crate's own inventory.
        row("table1",            [Y, N, N], |_| Printed::Text(servers::hooks::render_table1())),
        row("table2",            [Y, Y, Y], |x| Printed::Text(render_table2(&table2(x)))),
        row("faults-sweep",      [N, Y, Y], |x| fault_sweep(x).into()),
        row("clients-sweep",     [N, Y, N], |x| clients_sweep(x).into()),
        row("overload-sweep",    [N, Y, N], |x| overload_sweep(x).into()),
        row("overload-ablation", [N, Y, N], |x| overload_ablation(x).into()),
        row("adaptive-sweep",    [N, Y, N], |x| adaptive_ablation(x).into()),
        row("fig4",              [Y, Y, N], |x| fig4(x).into()),
        row("fig5",              [Y, Y, N], |x| fig5(x).into()),
        row("fig6a",             [Y, Y, N], |x| fig6a(x).into()),
        row("fig6b",             [Y, Y, N], |x| fig6b(x).into()),
        row("fig7",              [Y, Y, N], |x| fig7(x).into()),
        row("ablations",         [Y, N, N], |x| Printed::Text(crate::ablations::render(x))),
    ]
};

/// The rows of [`ALL`] a command line runs, in print order: the rows its
/// selectors name, or the default set when it names none.
pub fn chosen(selectors: &[&str]) -> Vec<&'static Experiment> {
    let runs = |e: &&Experiment| match selectors {
        [] => e.in_default_run,
        _ => selectors.contains(&e.selector),
    };
    ALL.iter().filter(runs).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(scale: &Scale, threads: usize) -> Exp<'_> {
        Exp {
            threads,
            ..Exp::new(scale)
        }
    }

    #[test]
    fn table2_original_matches_the_paper() {
        let rows = table2(&Exp::new(&Scale::quick()));
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
        let scale = Scale::quick();
        let at = |threads| Exp {
            faults: Some(spec),
            threads,
            ..Exp::new(&scale)
        };
        let one = fault_sweep(&at(1));
        let four = fault_sweep(&at(4));
        assert_eq!(
            one, four,
            "same seed + spec must be identical at any thread count"
        );
        // The zero-loss column completes everything; recovery appears as
        // loss rises.
        for mode in ServerMode::ALL {
            assert_eq!(one.0.get(0.0, mode.label()), Some(100.0), "{mode}");
        }
    }

    #[test]
    fn table2_faulted_is_deterministic_and_clean() {
        let spec = FaultSpec::parse("loss=0.05").expect("spec");
        let scale = Scale::quick();
        let at = |threads| Exp {
            faults: Some(spec),
            threads,
            ..Exp::new(&scale)
        };
        let a = table2(&at(1));
        let b = table2(&at(2));
        assert_eq!(a, b);
    }

    #[test]
    fn overload_sweep_is_thread_count_invariant() {
        let scale = Scale {
            overload_requests: 64,
            ..Scale::quick()
        };
        let base = overload_sweep(&at(&scale, 1));
        let threaded = overload_sweep(&at(&scale, 4));
        assert_eq!(base, threaded, "identical at any thread count");
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
    fn overload_ablation_is_thread_count_invariant() {
        // Needs enough arrivals for the unprotected backlog to outgrow
        // the deadline (the collapse the ablation exists to show); at 2x
        // the queue passes 24 service times after ~48 arrivals.
        let scale = Scale {
            overload_requests: 192,
            ..Scale::quick()
        };
        let base = overload_ablation(&at(&scale, 1));
        let threaded = overload_ablation(&at(&scale, 4));
        assert_eq!(base, threaded, "identical at any thread count");
        let (goodput, _, outcomes) = base;
        // The headline claim of the control plane: past saturation the
        // protected server delivers at least the unprotected goodput.
        for (_, size) in OVERLOAD_ABLATION_SIZES {
            let unprot = goodput
                .get(2.0, &format!("unprotected-{size}"))
                .expect("unprotected 2.0");
            let prot = goodput
                .get(2.0, &format!("protected-{size}"))
                .expect("protected 2.0");
            assert!(
                prot >= unprot,
                "{size}: protected goodput at 2x ({prot}) must not trail unprotected ({unprot})"
            );
            // Control off means nothing is rejected or retried on the
            // unprotected variant; on it, overload must actually trip the
            // gate.
            assert_eq!(
                outcomes.get(2.0, &format!("unprotected-{size} rejected")),
                Some(0.0)
            );
            assert_eq!(
                outcomes.get(2.0, &format!("unprotected-{size} retries")),
                Some(0.0)
            );
            let rejected = outcomes
                .get(2.0, &format!("protected-{size} rejected"))
                .expect("rejected");
            assert!(
                rejected > 0.0,
                "{size}: overload must trip the admission gate"
            );
        }
    }

    #[test]
    fn clients_sweep_is_thread_count_invariant() {
        let scale = Scale::quick();
        let base = clients_sweep(&at(&scale, 1));
        let threaded = clients_sweep(&at(&scale, 4));
        assert_eq!(base, threaded, "identical at any thread count");
        // The axis is the monotone client count.
        let xs = base.0.xs();
        assert!(xs.windows(2).all(|w| w[0] < w[1]), "client axis monotone");
        assert_eq!(xs.len(), CLIENTS_SWEEP_POINTS.len());
    }

    #[test]
    fn the_registry_is_well_formed() {
        for e in &ALL {
            let twins = ALL.iter().filter(|o| o.selector == e.selector).count();
            assert_eq!(twins, 1, "{}: selectors are unique", e.selector);
        }
    }

    #[test]
    fn a_command_line_chooses_its_selectors_rows() {
        let names = |s: &[&str]| chosen(s).iter().map(|e| e.selector).collect::<Vec<_>>();
        assert_eq!(
            names(&[]),
            [
                "table1",
                "table2",
                "fig4",
                "fig5",
                "fig6a",
                "fig6b",
                "fig7",
                "ablations"
            ]
        );
        // Print order is the registry's, not the command line's.
        assert_eq!(names(&["fig4", "table2"]), ["table2", "fig4"]);
        assert_eq!(names(&["overload-sweep"]), ["overload-sweep"]);
        assert_eq!(
            names(&["overload-ablation", "clients-sweep"]),
            ["clients-sweep", "overload-ablation"]
        );
    }
}
