//! The one adapter between the benchmark and the system under test.
//!
//! Every call into the workspace crates lives in this file, so API drift
//! (ROADMAP item 2 merges engines and entry points) costs one file and is
//! visible in review. Public items this file pins:
//!
//! * `testbed`: `NfsRig` / `NfsRigParams` / `KhttpdRig` / `KhttpdRigParams`
//!   (`new`, `create_file`, `create_sparse_file`, `pattern`, `read`,
//!   `handle_raw`, `quiesce`, `ledgers`, `server_mut`, `module`, `target`,
//!   `client_mut`, `enable_control`, `control_stats`, `set_recorder`),
//!   `nfs_rig::NodeLedgers`, `runner::{DriverOp, RigDriver, run,
//!   RunOptions}`, `sessions::{run_sessions, run_nfs_sessions,
//!   run_nfs_sessions_parallel_timed, nfs_session_clients, SessionHook,
//!   SessionsOptions, SessionsResult}`, `openloop::{run_open_loop,
//!   OpenLoopOptions}`, `timing::{derive, Observation, Transport}`.
//! * `servers`: `ServerMode`, `NfsClient` (`*_request`, `parse_*_reply`),
//!   `HttpClient` (`get_request`, `parse_response`), `stack::deliver`,
//!   `nfs::fh_to_ino`, `NfsServer::{handle_message, stats, fs_mut,
//!   root_fh, set_load}`, `KhttpdServer::{handle_request, stats, fs_mut}`,
//!   `IscsiInitiator::{stats, take_io_log}`, `IscsiTarget::{new, stats,
//!   handle_command}`, `ControlConfig::protective`, `RetryPolicy::standard`.
//! * `ncache`: `NcacheModule::{stats, substitution_totals, invalidations,
//!   cache_handle}`, `NetCacheShards::{new, insert_lbn, insert_fho, lookup,
//!   remap, mark_clean, pool}`, `substitute_payload`.
//! * `netbuf`: `CopyLedger::{new, snapshot}`, `LedgerSnapshot`
//!   (`delta_since`), `NetBuf::{new, append_segment, push_header}`,
//!   `Segment::from_vec`, `BufPool::{new, slab_only, seg_from_slice,
//!   slab_stats, peak_pinned}`, `key::{Lbn, Fho, FileHandle, KeyStamp}`.
//! * `simfs`: `Filesystem::{create, allocate, lookup, getattr,
//!   read_logical, write_logical, sync_some, dirty_blocks, block_lbn,
//!   cache_stats, store_mut, ROOT}`, `Ino`, `store::synthetic_block`.
//! * `proto`: `nfs::{proc, ReadArgs, ReadReplyHeader, WriteArgsHeader,
//!   WriteReply, GetattrArgs, LookupArgs, LookupReply, Fattr, NFS_OK}`,
//!   `rpc::{RpcCall, RpcReply}`, `http::{HttpRequest, HttpResponseHeader}`,
//!   `iscsi::{ScsiCommand, ScsiOp, DataIn, IscsiPdu}`, `csum::checksum`.
//! * `blockdev`: `Raid0::{new, io}`, `DiskModel::dtla_307075`.
//! * `sim`: `SplitMix64`, `Shared`, `Engine`, `Scheduler::schedule_in`,
//!   `Resource::{new, serve}`, `CostModel::pentium3_gige`, `Duration`,
//!   `SimTime`.
//! * `workload`: `specsfs::{SpecSfs, SpecSfsParams}`, `specweb::{SpecWeb,
//!   PageSet}`, `NfsOp`.
//! * `obs`: `Recorder::{new, enable}`, `TraceConfig`, `Histogram::{new,
//!   record, count}`, `json::{parse, Json, escape}`.

use std::collections::HashMap;
use std::time::Instant;

use proto::nfs::NFS_OK;
use servers::khttpd::HttpClient;
use servers::ServerMode;
use testbed::openloop::{run_open_loop, OpenLoopOptions};
use testbed::runner::{DriverOp, RigDriver};
use testbed::sessions::{
    nfs_session_clients, run_nfs_sessions, run_nfs_sessions_parallel_timed, run_sessions,
    SessionsOptions, SessionsResult,
};
use testbed::timing::{Observation, Transport};
use testbed::{KhttpdRig, KhttpdRigParams, NfsRig, NfsRigParams};
use workload::specsfs::{SpecSfs, SpecSfsParams};
use workload::specweb::{PageSet, SpecWeb};
use workload::NfsOp;

use crate::workloads::{
    Driver, Files, Op, Spec, Stream, Warm, BLOCK, LANE_THREADS, OVERLOAD_FACTOR, OVERLOAD_SESSIONS,
};

pub use obs::json::{escape as json_escape, parse as json_parse, Json};

/// The three server builds; NCache is the system under test.
pub type Mode = ServerMode;

/// Byte every engine-driven WRITE carries (`RigDriver::run_op` fabricates
/// its payloads); the benchmark's direct writes use per-op tags instead.
pub const ENGINE_WRITE_BYTE: u8 = 0xA5;

// ---------------------------------------------------------------------------
// Seeded generators
// ---------------------------------------------------------------------------

/// The repository's seeded generator, so op streams replay bit for bit.
pub struct Rng(sim::SplitMix64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(sim::SplitMix64::new(seed))
    }

    /// Uniform in `[0, bound)`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        self.0.next_below(bound)
    }
}

/// `n` ops of the SPECsfs-like mix over `files` files of `file_size` bytes.
pub fn specsfs_ops(
    seed: u64,
    files: u32,
    file_size: u64,
    data_op_fraction: f64,
    reads_per_write: u32,
    n: usize,
) -> Vec<Op> {
    let params = SpecSfsParams {
        file_count: files,
        file_size,
        data_op_fraction,
        reads_per_write,
    };
    SpecSfs::new(params, seed)
        .take(n)
        .map(|op| match op {
            NfsOp::Read { file, offset, len } => Op::Read {
                file: file.0,
                offset: offset as u32,
                len,
            },
            NfsOp::Write { file, offset, len } => Op::Write {
                file: file.0,
                offset: offset as u32,
                len,
            },
            NfsOp::Getattr { file } => Op::Getattr { file: file.0 },
            NfsOp::Lookup { file } => Op::Lookup { file: file.0 },
        })
        .collect()
}

/// The SPECweb page set covering `working_set` bytes, as `(name, size)`.
pub fn specweb_pages(working_set: u64) -> Vec<(String, u64)> {
    PageSet::with_working_set(working_set).pages()
}

/// `n` Zipf-popular GETs over that page set, as page indices.
pub fn specweb_ops(seed: u64, working_set: u64, n: usize) -> Vec<Op> {
    let set = PageSet::with_working_set(working_set);
    let index: HashMap<String, u32> = set
        .pages()
        .into_iter()
        .enumerate()
        .map(|(i, (name, _))| (name, i as u32))
        .collect();
    SpecWeb::new(set, seed)
        .take(n)
        .map(|op| Op::Get {
            page: index[op.path.trim_start_matches('/')],
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Observation hooks
// ---------------------------------------------------------------------------

/// The calls the benchmark makes into the system per request: the seams
/// the traced run puts spans around.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Seam {
    ClientEncode,
    StackDeliver,
    Handle,
    ClientDecode,
}

impl Seam {
    pub const ALL: [Seam; 4] = [
        Seam::ClientEncode,
        Seam::StackDeliver,
        Seam::Handle,
        Seam::ClientDecode,
    ];

    /// Span name in the trace; the layer is the crate that owns the call.
    pub fn span_name(self) -> &'static str {
        match self {
            Seam::ClientEncode => "servers.client_encode",
            Seam::StackDeliver => "servers.stack_deliver",
            Seam::Handle => "servers.handle",
            Seam::ClientDecode => "servers.client_decode",
        }
    }
}

/// What a direct (single-client) run reports to whoever watches it. The
/// untraced run uses [`Unobserved`], which compiles to nothing, so the
/// timed loop and the traced loop are the same code.
pub trait Observer {
    /// Request `k` is about to start.
    fn begin(&mut self, _k: usize, _op: &Op) {}
    /// Runs `f`, the call into seam `seam` of the current request.
    fn seam<T>(&mut self, _seam: Seam, f: impl FnOnce() -> T) -> T {
        f()
    }
    /// Request `k` completed with good status and length; `payload` is
    /// what the client received (READ/GET) — the traced run byte-compares
    /// it. Returns false to count the request as failed.
    fn end(&mut self, _k: usize, _op: &Op, _payload: &[u8]) -> bool {
        true
    }
}

/// The no-op observer of the timed runs.
pub struct Unobserved;

impl Observer for Unobserved {}

/// Tag byte the direct write of request `k` fills its payload with
/// (never 0, so a shadow model can use 0 for "never written").
pub fn write_tag(k: usize) -> u8 {
    (k % 251) as u8 + 1
}

// ---------------------------------------------------------------------------
// Rigs
// ---------------------------------------------------------------------------

/// One node's copy ledger (Table 2's quantities).
pub type Ledger = netbuf::LedgerSnapshot;

/// Bytes a node's CPU moved: payload and metadata physically copied
/// (Table 2's quantity) plus protocol headers built — the sum
/// `timing::derive` charges the copy cost for.
pub fn moved_bytes(l: &Ledger) -> u64 {
    l.payload_bytes_copied + l.meta_bytes_copied + l.header_bytes
}

/// Declares [`Counters`]: the three node ledgers, the pool's high-water
/// mark, and the listed monotone counters with their field-wise delta.
macro_rules! counters {
    ($($(#[$doc:meta])* $f:ident),* $(,)?) => {
        /// Exact per-layer counters read from the crates' public stats
        /// getters. Deltas between two snapshots bracket a run.
        #[derive(Clone, Copy, Debug, Default)]
        pub struct Counters {
            pub app: Ledger,
            pub storage: Ledger,
            pub client: Ledger,
            /// A high-water mark: carried by [`Counters::since`], not
            /// subtracted.
            pub pool_peak_pinned: u64,
            $($(#[$doc])* pub $f: u64,)*
        }

        impl Counters {
            /// Field-wise `self - earlier`.
            pub fn since(&self, e: &Counters) -> Counters {
                Counters {
                    app: self.app.delta_since(&e.app),
                    storage: self.storage.delta_since(&e.storage),
                    client: self.client.delta_since(&e.client),
                    pool_peak_pinned: self.pool_peak_pinned,
                    $($f: self.$f - e.$f,)*
                }
            }
        }
    };
}

counters!(
    slab_allocs,
    slab_recycles,
    nc_lookups,
    nc_hits,
    nc_insertions,
    nc_remaps,
    nc_evicted_clean,
    nc_evicted_dirty,
    nc_substituted,
    nc_invalidations,
    fs_hits,
    fs_misses,
    fs_evicted_clean,
    fs_evicted_dirty,
    ini_blocks_read,
    ini_blocks_written,
    ini_second_level_hits,
    ini_zero_copy_reads,
    ini_zero_copy_writes,
    ini_admission_failures,
    target_cmds,
    drc_inserts,
    server_errors,
    ctl_offered,
    ctl_rejected,
    /// Messages the front-end server handled (every transmission counts).
    server_requests,
);

/// The counters both rigs share: node ledgers, NCache module, file
/// system and initiator, storage target.
fn shared_counters(
    ledgers: &testbed::nfs_rig::NodeLedgers,
    module: &Option<sim::Shared<ncache::NcacheModule>>,
    fs: &mut simfs::Filesystem<servers::IscsiInitiator>,
    target: &sim::Shared<servers::IscsiTarget>,
) -> Counters {
    let mut c = Counters {
        app: ledgers.app.snapshot(),
        storage: ledgers.storage.snapshot(),
        client: ledgers.client.snapshot(),
        ..Counters::default()
    };
    fill_module(&mut c, module);
    fill_fs(&mut c, fs);
    let t = target.borrow().stats();
    c.target_cmds = t.read_cmds + t.write_cmds;
    c
}

fn fill_module(c: &mut Counters, module: &Option<sim::Shared<ncache::NcacheModule>>) {
    let Some(m) = module else { return };
    let m = m.borrow();
    let s = m.stats();
    c.nc_lookups = s.lookups;
    c.nc_hits = s.hits;
    c.nc_insertions = s.insertions;
    c.nc_remaps = s.remaps;
    c.nc_evicted_clean = s.evicted_clean;
    c.nc_evicted_dirty = s.evicted_dirty;
    c.nc_substituted = m.substitution_totals().substituted;
    c.nc_invalidations = m.invalidations();
    let cache = m.cache_handle();
    let slab = cache.pool().slab_stats();
    c.slab_allocs = slab.allocs;
    c.slab_recycles = slab.recycles;
    c.pool_peak_pinned = cache.pool().peak_pinned();
}

fn fill_fs(c: &mut Counters, fs: &mut simfs::Filesystem<servers::IscsiInitiator>) {
    let s = fs.cache_stats();
    c.fs_hits = s.hits;
    c.fs_misses = s.misses;
    c.fs_evicted_clean = s.evicted_clean;
    c.fs_evicted_dirty = s.evicted_dirty;
    let i = fs.store_mut().stats();
    c.ini_blocks_read = i.blocks_read;
    c.ini_blocks_written = i.blocks_written;
    c.ini_second_level_hits = i.second_level_hits;
    c.ini_zero_copy_reads = i.zero_copy_reads;
    c.ini_zero_copy_writes = i.zero_copy_writes;
    c.ini_admission_failures = i.cache_admission_failures;
}

/// What running a stream produced.
#[derive(Clone, Debug, Default)]
pub struct RunOutcome {
    /// Requests offered.
    pub attempted: u64,
    /// Requests the system refused by design: shed by admission control
    /// once the client's retry budget ran out (`sim_overload` only).
    pub shed: u64,
    /// Transmissions the server should have seen (retransmissions count).
    pub transmissions: u64,
    /// Requests that completed wrongly: bad status, wrong length, byte
    /// mismatch, or an engine whose books do not balance.
    pub failed: u64,
    /// First few failure descriptions, for the log.
    pub notes: Vec<String>,
    /// Engine-specific extras (traced run reads these).
    pub engine: EngineTimes,
    /// Host ns of every `run_op` when the engine rig was clocked.
    pub run_op_samples: Vec<u64>,
    /// The sim-time result of a lane run, for the oracle comparison.
    pub sim: SimNumbers,
}

impl RunOutcome {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }
}

/// Host-time split of an engine-driven run, nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineTimes {
    /// Wall time inside `run_sessions` (phase A) and its Σ `run_op`.
    pub sessions_wall_ns: u64,
    pub sessions_run_op_ns: u64,
    /// Wall time inside `run_open_loop` (phase B) and its Σ `run_op`.
    pub openloop_wall_ns: u64,
    pub openloop_run_op_ns: u64,
    /// Lane engine: functional phase wall, and the whole call's wall.
    pub lanes_functional_ns: u64,
    pub lanes_wall_ns: u64,
    /// Client retransmissions (sim-time quantity).
    pub retries: u64,
}

/// NIC delivery into the server's memory, then the server: the two seams
/// every NFS request crosses between client encode and client decode.
fn serve(
    rig: &mut NfsRig,
    app: &netbuf::CopyLedger,
    watch: &mut impl Observer,
    req: &netbuf::NetBuf,
) -> netbuf::NetBuf {
    let rx = watch.seam(Seam::StackDeliver, || servers::stack::deliver(req, app));
    watch.seam(Seam::Handle, || rig.server_mut().handle_message(rx))
}

/// An NFS rig populated for one workload.
pub struct NfsBench {
    rig: NfsRig,
    files: FileSet,
    file_size: u64,
    sparse: bool,
    scratch: Vec<u8>,
}

/// The handles and names of the files a rig was populated with.
struct FileSet {
    fhs: Vec<u64>,
    names: Vec<String>,
}

impl FileSet {
    fn driver_op(&self, op: &Op) -> DriverOp {
        match *op {
            Op::Read { file, offset, len } => DriverOp::Read {
                fh: self.fhs[file as usize],
                offset,
                len,
            },
            Op::Write { file, offset, len } => DriverOp::Write {
                fh: self.fhs[file as usize],
                offset,
                len,
            },
            Op::Getattr { file } => DriverOp::Getattr {
                fh: self.fhs[file as usize],
            },
            Op::Lookup { file } => DriverOp::Lookup {
                name: self.names[file as usize].clone(),
            },
            Op::Get { .. } => panic!("HTTP op on the NFS rig"),
        }
    }

    fn driver_sessions(&self, sessions: &[Vec<Op>]) -> Vec<Vec<DriverOp>> {
        sessions
            .iter()
            .map(|s| s.iter().map(|op| self.driver_op(op)).collect())
            .collect()
    }
}

fn nfs_params(spec: &Spec) -> NfsRigParams {
    NfsRigParams {
        volume_blocks: spec.volume_blocks,
        fs_cache_blocks: spec.fs_cache_blocks,
        ncache_bytes: spec.ncache_bytes,
        shards: spec.shards,
        ..NfsRigParams::default()
    }
}

impl NfsBench {
    /// Builds the rig for `spec` in `mode` and creates its file set.
    pub fn build(spec: &Spec, mode: Mode) -> Self {
        let mut rig = NfsRig::new(mode, nfs_params(spec));
        let (count, file_size, sparse) = match spec.files {
            Files::Patterned { count, size } => (count, size, false),
            Files::Sparse { count, size } => (count, size, true),
            Files::Pages { .. } => panic!("{}: page sets belong to the web rig", spec.name),
        };
        let mut fhs = Vec::new();
        let mut names = Vec::new();
        for i in 0..count {
            let name = format!("f{i:05}");
            fhs.push(if sparse {
                rig.create_sparse_file(&name, file_size)
            } else {
                rig.create_file(&name, file_size)
            });
            names.push(name);
        }
        NfsBench {
            rig,
            files: FileSet { fhs, names },
            file_size,
            sparse,
            scratch: vec![0; 64 << 10],
        }
    }

    /// Lends the rig to an engine that takes it by value.
    fn lend<T>(self, f: impl FnOnce(NfsRig, &FileSet) -> (NfsRig, T)) -> (Self, T) {
        let NfsBench {
            rig,
            files,
            file_size,
            sparse,
            scratch,
        } = self;
        let (rig, t) = f(rig, &files);
        let bench = NfsBench {
            rig,
            files,
            file_size,
            sparse,
            scratch,
        };
        (bench, t)
    }

    /// The warm pass: fills the caches the way the workload will find
    /// them, outside the timed section.
    pub fn warm(&mut self, spec: &Spec, stream: &Stream) {
        if let Warm::ReadAll { len } = spec.warm {
            for file in 0..self.files.fhs.len() as u32 {
                let mut offset = 0u64;
                while offset < self.file_size {
                    let n = u64::from(len).min(self.file_size - offset) as u32;
                    self.rig
                        .read(self.files.fhs[file as usize], offset as u32, n);
                    offset += u64::from(n);
                }
            }
        }
        let out = self.run_direct(&stream.warm, &mut Unobserved);
        assert_eq!(out.failed, 0, "warm pass failed: {:?}", out.notes);
        self.drain_io_log();
    }

    /// The storage I/O log grows with every block moved; the timing
    /// engines drain it once per request, and so does the direct loop.
    fn drain_io_log(&mut self) {
        let _ = self.rig.server_mut().fs_mut().store_mut().take_io_log();
    }

    /// One closed-loop client issuing `ops` in order through the full
    /// request path: client encode → NIC delivery → server → client
    /// decode. Every reply's status and length are checked.
    pub fn run_direct(&mut self, ops: &[Op], watch: &mut impl Observer) -> RunOutcome {
        let mut out = RunOutcome {
            attempted: ops.len() as u64,
            transmissions: ops.len() as u64,
            ..RunOutcome::default()
        };
        let app = self.rig.ledgers().app.clone();
        let root = self.rig.server_mut().root_fh();
        for (k, op) in ops.iter().enumerate() {
            watch.begin(k, op);
            match *op {
                Op::Read { file, offset, len } => {
                    let fh = self.files.fhs[file as usize];
                    let req = watch.seam(Seam::ClientEncode, || {
                        self.rig.client_mut().read_request(fh, offset, len)
                    });
                    let reply = serve(&mut self.rig, &app, watch, &req);
                    let (hdr, data) = watch.seam(Seam::ClientDecode, || {
                        self.rig.client_mut().parse_read_reply(&reply)
                    });
                    if hdr.status != NFS_OK || data.len() != len as usize || hdr.count != len {
                        out.fail(format!(
                            "op {k} read: status {} count {} got {} of {len} bytes",
                            hdr.status,
                            hdr.count,
                            data.len()
                        ));
                    } else if !watch.end(k, op, &data) {
                        out.fail(format!(
                            "op {k} read {file}@{offset}+{len}: payload differs"
                        ));
                    }
                }
                Op::Write { file, offset, len } => {
                    let fh = self.files.fhs[file as usize];
                    let data = &mut self.scratch[..len as usize];
                    data.fill(write_tag(k));
                    let data = &self.scratch[..len as usize];
                    let req = watch.seam(Seam::ClientEncode, || {
                        self.rig.client_mut().write_request(fh, offset, data)
                    });
                    let reply = serve(&mut self.rig, &app, watch, &req);
                    let parsed = watch.seam(Seam::ClientDecode, || {
                        self.rig.client_mut().parse_write_reply(&reply)
                    });
                    if parsed.status != NFS_OK {
                        out.fail(format!("op {k} write: status {}", parsed.status));
                    } else if !watch.end(k, op, &[]) {
                        out.fail(format!("op {k} write: rejected by the observer"));
                    }
                }
                Op::Getattr { file } => {
                    let fh = self.files.fhs[file as usize];
                    let req = watch.seam(Seam::ClientEncode, || {
                        self.rig.client_mut().getattr_request(fh)
                    });
                    let reply = serve(&mut self.rig, &app, watch, &req);
                    let (status, attrs) = watch.seam(Seam::ClientDecode, || {
                        self.rig.client_mut().parse_getattr_reply(&reply)
                    });
                    let size = attrs.map(|a| u64::from(a.size));
                    if status != NFS_OK || size != Some(self.file_size) {
                        out.fail(format!("op {k} getattr: status {status} size {size:?}"));
                    } else if !watch.end(k, op, &[]) {
                        out.fail(format!("op {k} getattr: rejected by the observer"));
                    }
                }
                Op::Lookup { file } => {
                    let name = &self.files.names[file as usize];
                    let req = watch.seam(Seam::ClientEncode, || {
                        self.rig.client_mut().lookup_request(root, name)
                    });
                    let reply = serve(&mut self.rig, &app, watch, &req);
                    let parsed = watch.seam(Seam::ClientDecode, || {
                        self.rig.client_mut().parse_lookup_reply(&reply)
                    });
                    if parsed.status != NFS_OK || parsed.fh != self.files.fhs[file as usize] {
                        out.fail(format!(
                            "op {k} lookup {name}: status {} fh {}",
                            parsed.status, parsed.fh
                        ));
                    } else if !watch.end(k, op, &[]) {
                        out.fail(format!("op {k} lookup: rejected by the observer"));
                    }
                }
                Op::Get { .. } => panic!("HTTP op on the NFS rig"),
            }
            self.drain_io_log();
        }
        out
    }

    /// Reads `[offset, offset + len)` through the full request path.
    pub fn read_back(&mut self, file: u32, offset: u32, len: u32) -> Vec<u8> {
        let data = self.rig.read(self.files.fhs[file as usize], offset, len);
        self.drain_io_log();
        data
    }

    /// Every layer's public counters, now.
    pub fn counters(&mut self) -> Counters {
        let (ledgers, module, target) = (
            self.rig.ledgers().clone(),
            self.rig.module(),
            self.rig.target(),
        );
        let mut c = shared_counters(&ledgers, &module, self.rig.server_mut().fs_mut(), &target);
        let s = self.rig.server_mut().stats();
        c.drc_inserts = s.drc_inserts;
        c.server_errors = s.errors;
        c.server_requests = s.requests;
        if let Some(ctl) = self.rig.control_stats() {
            c.ctl_offered = ctl.offered;
            c.ctl_rejected = ctl.rejected;
        }
        c
    }

    /// The paper's number for this op stream: `sessions` replayed through
    /// the sequential sim-time session engine.
    pub fn sim_replay(self, sessions: &[Vec<Op>]) -> SimNumbers {
        let ops = self.files.driver_sessions(sessions);
        let (_, r) = run_nfs_sessions(self.rig, ops, &SessionsOptions::default());
        SimNumbers::of(&r)
    }

    /// `sim_overload`: phase A drives `stream` closed-loop over
    /// [`OVERLOAD_SESSIONS`] sessions; phase B offers the same ops open
    /// loop at [`OVERLOAD_FACTOR`] x phase A's sim rate with the
    /// protective control plane and an armed retry policy. With
    /// `clock_run_op` every `run_op` is timed so the engines' own host
    /// time can be told from the data plane's.
    pub fn run_overload(self, stream: &Stream, clock_run_op: bool) -> (Self, RunOutcome) {
        self.lend(|rig, files| {
            let n = stream.len() as u64;
            let sessions = files.driver_sessions(&stream.sessions(stream.len(), OVERLOAD_SESSIONS));
            let flat: Vec<DriverOp> = stream.lanes[0].iter().map(|op| files.driver_op(op)).collect();
            let mut out = RunOutcome {
                attempted: 2 * n,
                ..RunOutcome::default()
            };
            let hook = clocked_nfs_hook(&rig, OVERLOAD_SESSIONS);
            let rig = Clocked::new(rig, clock_run_op);

            let t = Instant::now();
            let (mut rig, a) = run_sessions(rig, sessions, &SessionsOptions::default(), Some(hook));
            out.engine.sessions_wall_ns = t.elapsed().as_nanos() as u64;
            out.engine.sessions_run_op_ns = rig.take_run_op_ns();
            if a.ops != n || a.shed != 0 {
                out.fail(format!(
                    "phase A: {} ops + {} shed of {n} offered (closed loop, no control: all must complete)",
                    a.ops, a.shed
                ));
            }

            rig.inner.enable_control(servers::ControlConfig::protective());
            let capacity = a.ops_per_sec.max(1.0);
            let opts = OpenLoopOptions {
                mean_interarrival_ns: ((1e9 / (OVERLOAD_FACTOR * capacity)).round() as u64).max(1),
                // The arrival and backoff draws are the engine's own
                // business: fixed seeds, so the workload seed reaches only
                // the op stream.
                seed: 29,
                retry: Some(servers::RetryPolicy::standard(31)),
                ..OpenLoopOptions::default()
            };
            let t = Instant::now();
            let (mut rig, b) = run_open_loop(rig, flat, &opts);
            out.engine.openloop_wall_ns = t.elapsed().as_nanos() as u64;
            out.engine.openloop_run_op_ns = rig.take_run_op_ns();
            out.transmissions = rig.calls;
            out.engine.retries = b.retries;
            out.run_op_samples = std::mem::take(&mut rig.samples);
            if b.ops + b.shed != n {
                out.fail(format!("phase B: {} ops + {} shed != {n} offered", b.ops, b.shed));
            }
            out.shed = a.shed + b.shed;
            (rig.inner, out)
        })
    }

    /// `nfs_lanes_t2`: the lane-parallel functional engine on `threads`
    /// host threads, then its sequential timing replay.
    pub fn run_lanes(self, stream: &Stream, threads: usize) -> (Self, RunOutcome) {
        self.lend(|rig, files| {
            let ops = files.driver_sessions(&stream.lanes);
            let n = stream.len() as u64;
            let t = Instant::now();
            // The lane seed only breaks ties between same-epoch cache
            // stamps; fixed, so the workload seed reaches only the ops.
            let (rig, r, functional) =
                run_nfs_sessions_parallel_timed(rig, ops, &SessionsOptions::default(), threads, 7);
            let mut out = RunOutcome {
                attempted: n,
                transmissions: n,
                sim: SimNumbers::of(&r),
                ..RunOutcome::default()
            };
            out.engine.lanes_wall_ns = t.elapsed().as_nanos() as u64;
            out.engine.lanes_functional_ns = functional.as_nanos() as u64;
            if r.ops != n || r.shed != 0 {
                out.fail(format!(
                    "lanes: {} ops + {} shed of {n} offered",
                    r.ops, r.shed
                ));
            }
            let expect_bytes: u64 = stream
                .lanes
                .iter()
                .flatten()
                .map(|op| match *op {
                    Op::Read { len, .. } | Op::Write { len, .. } => u64::from(len),
                    _ => 0,
                })
                .sum();
            if r.payload_bytes != expect_bytes {
                out.fail(format!(
                    "lanes: {} payload bytes delivered, the ops carry {expect_bytes}",
                    r.payload_bytes
                ));
            }
            (rig, out)
        })
    }

    /// The same lanes through the sequential session engine: the oracle
    /// the parallel engine must reproduce.
    pub fn run_lanes_sequential(self, stream: &Stream) -> (Self, SimNumbers) {
        self.lend(|rig, files| {
            let ops = files.driver_sessions(&stream.lanes);
            let (rig, r) = run_nfs_sessions(rig, ops, &SessionsOptions::default());
            (rig, SimNumbers::of(&r))
        })
    }
}

/// The sim-time results the benchmark reports (exact, run to run).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimNumbers {
    pub ops_per_sec: f64,
    pub throughput_mbs: f64,
    pub p99_latency_us: f64,
    pub ops: u64,
    pub payload_bytes: u64,
    pub elapsed_ns: u64,
}

impl SimNumbers {
    fn of(r: &SessionsResult) -> Self {
        SimNumbers {
            ops_per_sec: r.ops_per_sec,
            throughput_mbs: r.throughput_mbs,
            p99_latency_us: r.p99_latency.as_nanos() as f64 / 1000.0,
            ops: r.ops,
            payload_bytes: r.payload_bytes,
            elapsed_ns: r.elapsed.as_nanos(),
        }
    }
}

/// A `RigDriver` that forwards to the NFS rig and, when `timed`, clocks
/// every `run_op`: an engine's own host time is its call's wall time
/// minus what this accumulates.
pub struct Clocked {
    inner: NfsRig,
    timed: bool,
    run_op_ns: u64,
    calls: u64,
    samples: Vec<u64>,
}

impl Clocked {
    fn new(inner: NfsRig, timed: bool) -> Self {
        Clocked {
            inner,
            timed,
            run_op_ns: 0,
            calls: 0,
            samples: Vec::new(),
        }
    }

    fn take_run_op_ns(&mut self) -> u64 {
        std::mem::take(&mut self.run_op_ns)
    }
}

impl RigDriver for Clocked {
    fn run_op(&mut self, op: &DriverOp) -> (Observation, u64) {
        self.calls += 1;
        if !self.timed {
            return self.inner.run_op(op);
        }
        let t = Instant::now();
        let r = self.inner.run_op(op);
        let ns = t.elapsed().as_nanos() as u64;
        self.run_op_ns += ns;
        self.samples.push(ns);
        r
    }

    fn transport(&self) -> Transport {
        self.inner.transport()
    }

    fn per_request_ns(&self, costs: &sim::costs::CostModel) -> u64 {
        self.inner.per_request_ns(costs)
    }

    fn recorder(&self) -> obs::Recorder {
        RigDriver::recorder(&self.inner)
    }

    fn set_load(&mut self, now_ns: u64, inflight: u64) {
        self.inner.set_load(now_ns, inflight);
    }
}

/// Per-session NFS clients on disjoint xid bases (what
/// `run_nfs_sessions` installs), lifted over the [`Clocked`] wrapper.
fn clocked_nfs_hook(rig: &NfsRig, sessions: usize) -> testbed::sessions::SessionHook<Clocked> {
    let mut inner = nfs_session_clients(rig, sessions);
    Box::new(move |c: &mut Clocked, sid| inner(&mut c.inner, sid))
}

/// A kHTTPd rig populated with the SPECweb page set.
pub struct WebBench {
    rig: KhttpdRig,
    client: HttpClient,
    pages: Vec<(String, u64)>,
}

impl WebBench {
    /// Builds the rig for `spec` in `mode` and publishes its page set
    /// (sparse pages: content is the storage server's synthetic blocks).
    pub fn build(spec: &Spec, mode: Mode) -> Self {
        let Files::Pages { working_set } = spec.files else {
            panic!("{}: the web rig serves a page set", spec.name);
        };
        let params = KhttpdRigParams {
            volume_blocks: spec.volume_blocks,
            fs_cache_blocks: spec.fs_cache_blocks,
            ncache_bytes: spec.ncache_bytes,
            shards: spec.shards,
            ..KhttpdRigParams::default()
        };
        let mut rig = KhttpdRig::new(mode, params);
        let mut pages = specweb_pages(working_set);
        for (name, size) in &mut pages {
            let fs = rig.server_mut().fs_mut();
            let ino = fs
                .create(simfs::Filesystem::<servers::IscsiInitiator>::ROOT, name)
                .expect("fresh page name");
            fs.allocate(ino, *size).expect("volume has space");
            // Requests name the page by path.
            name.insert(0, '/');
        }
        rig.quiesce();
        let client = HttpClient::new(&rig.ledgers().client);
        WebBench { rig, client, pages }
    }

    fn driver_ops(&self, ops: &[Op]) -> Vec<DriverOp> {
        ops.iter()
            .map(|op| match *op {
                Op::Get { page } => DriverOp::Get {
                    path: self.pages[page as usize].0.clone(),
                },
                _ => panic!("NFS op on the web rig"),
            })
            .collect()
    }

    /// The warm pass: the stream's warm GETs, untimed.
    pub fn warm(&mut self, stream: &Stream) {
        let out = self.run_direct(&stream.warm, &mut Unobserved);
        assert_eq!(out.failed, 0, "warm pass failed: {:?}", out.notes);
    }

    /// One closed-loop client issuing GETs through the full path.
    pub fn run_direct(&mut self, ops: &[Op], watch: &mut impl Observer) -> RunOutcome {
        let mut out = RunOutcome {
            attempted: ops.len() as u64,
            transmissions: ops.len() as u64,
            ..RunOutcome::default()
        };
        let app = self.rig.ledgers().app.clone();
        for (k, op) in ops.iter().enumerate() {
            let Op::Get { page } = *op else {
                panic!("NFS op on the web rig");
            };
            watch.begin(k, op);
            let (path, size) = &self.pages[page as usize];
            let req = watch.seam(Seam::ClientEncode, || self.client.get_request(path));
            let rx = watch.seam(Seam::StackDeliver, || servers::stack::deliver(&req, &app));
            let response = watch.seam(Seam::Handle, || self.rig.server_mut().handle_request(&rx));
            let (hdr, body) =
                watch.seam(Seam::ClientDecode, || self.client.parse_response(&response));
            if hdr.status != 200 || hdr.content_length != *size || body.len() as u64 != *size {
                out.fail(format!(
                    "op {k} GET {path}: status {} length {} body {} of {size}",
                    hdr.status,
                    hdr.content_length,
                    body.len()
                ));
            } else if !watch.end(k, op, &body) {
                out.fail(format!("op {k} GET {path}: body differs"));
            }
            let _ = self.rig.server_mut().fs_mut().store_mut().take_io_log();
        }
        out
    }

    /// Every layer's public counters, now.
    pub fn counters(&mut self) -> Counters {
        let (ledgers, module, target) = (
            self.rig.ledgers().clone(),
            self.rig.module(),
            self.rig.target(),
        );
        let mut c = shared_counters(&ledgers, &module, self.rig.server_mut().fs_mut(), &target);
        let s = self.rig.server_mut().stats();
        c.server_errors = s.not_found + s.bad_requests;
        c.server_requests = s.requests;
        c
    }

    /// The paper's number for this op stream (see [`NfsBench::sim_replay`]).
    pub fn sim_replay(self, sessions: &[Vec<Op>]) -> SimNumbers {
        let ops: Vec<Vec<DriverOp>> = sessions.iter().map(|s| self.driver_ops(s)).collect();
        let (_, r) = run_sessions(self.rig, ops, &SessionsOptions::default(), None);
        SimNumbers::of(&r)
    }
}

/// A rig of either front end, built and warmed for `spec`.
pub enum Bench {
    Nfs(Box<NfsBench>),
    Web(Box<WebBench>),
}

impl Bench {
    /// Rig build + file creation + warm pass for `spec` in `mode`.
    pub fn setup(spec: &Spec, mode: Mode, stream: &Stream) -> Bench {
        match spec.driver {
            Driver::WebDirect => {
                let mut b = WebBench::build(spec, mode);
                b.warm(stream);
                Bench::Web(Box::new(b))
            }
            _ => {
                let mut b = NfsBench::build(spec, mode);
                b.warm(spec, stream);
                Bench::Nfs(Box::new(b))
            }
        }
    }

    /// Every layer's public counters, now.
    pub fn counters(&mut self) -> Counters {
        match self {
            Bench::Nfs(b) => b.counters(),
            Bench::Web(b) => b.counters(),
        }
    }

    /// Runs `spec`'s timed section once over `stream`.
    pub fn run(
        self,
        spec: &Spec,
        stream: &Stream,
        watch: &mut impl Observer,
        clock_engines: bool,
    ) -> (Bench, RunOutcome) {
        match (self, spec.driver) {
            (Bench::Web(mut b), Driver::WebDirect) => {
                let out = b.run_direct(&stream.lanes[0], watch);
                (Bench::Web(b), out)
            }
            (Bench::Nfs(mut b), Driver::NfsDirect) => {
                let out = b.run_direct(&stream.lanes[0], watch);
                (Bench::Nfs(b), out)
            }
            (Bench::Nfs(b), Driver::Overload) => {
                let (b, out) = b.run_overload(stream, clock_engines);
                (Bench::Nfs(Box::new(b)), out)
            }
            (Bench::Nfs(b), Driver::Lanes) => {
                let (b, out) = b.run_lanes(stream, LANE_THREADS);
                (Bench::Nfs(Box::new(b)), out)
            }
            _ => unreachable!("rig and driver of {} disagree", spec.name),
        }
    }

    /// See [`NfsBench::run_lanes`].
    pub fn run_lanes(self, stream: &Stream, threads: usize) -> RunOutcome {
        let Bench::Nfs(b) = self else {
            panic!("lanes run on the NFS rig");
        };
        b.run_lanes(stream, threads).1
    }

    /// See [`NfsBench::run_lanes_sequential`].
    pub fn run_lanes_sequential(self, stream: &Stream) -> SimNumbers {
        let Bench::Nfs(b) = self else {
            panic!("lanes run on the NFS rig");
        };
        b.run_lanes_sequential(stream).1
    }

    /// See [`NfsBench::sim_replay`].
    pub fn sim_replay(self, sessions: &[Vec<Op>]) -> SimNumbers {
        match self {
            Bench::Nfs(b) => b.sim_replay(sessions),
            Bench::Web(b) => b.sim_replay(sessions),
        }
    }
}

// ---------------------------------------------------------------------------
// Pristine content (the shadow model's source of truth)
// ---------------------------------------------------------------------------

/// What a file set holds before any benchmark write: an owned snapshot the
/// shadow model can consult while the rig is busy.
pub enum Pristine {
    /// Files filled with the rig's deterministic pattern, by file handle.
    Patterned { fhs: Vec<u64> },
    /// Sparse files or pages: the synthetic block at each mapped LBN, and
    /// each file's length.
    Synthetic {
        lbns: Vec<Vec<u64>>,
        sizes: Vec<u64>,
    },
}

impl Pristine {
    /// Block `blk` (4 KiB, or the file's tail) of file `file`.
    pub fn block(&self, file: u32, blk: u64) -> Vec<u8> {
        match self {
            Pristine::Patterned { fhs } => {
                NfsRig::pattern(fhs[file as usize], blk * BLOCK, BLOCK as usize)
            }
            Pristine::Synthetic { lbns, sizes } => {
                let mut b = simfs::store::synthetic_block(lbns[file as usize][blk as usize]);
                b.truncate((sizes[file as usize] - blk * BLOCK).min(BLOCK) as usize);
                b
            }
        }
    }
}

fn block_map(
    fs: &mut simfs::Filesystem<servers::IscsiInitiator>,
    ino: simfs::Ino,
    size: u64,
) -> Vec<u64> {
    (0..size.div_ceil(BLOCK))
        .map(|blk| {
            fs.block_lbn(ino, blk)
                .expect("file exists")
                .expect("allocated at setup")
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Layer-direct probes
// ---------------------------------------------------------------------------

/// One data extent an op touches, resolved against the probe rig.
struct Extent {
    ino: simfs::Ino,
    fh: u64,
    offset: u64,
    len: usize,
    write: bool,
    /// LBN of each block of the extent.
    lbns: Vec<u64>,
}

/// Nanoseconds per item of `n` items `f` processed.
fn ns_per(n: usize, f: impl FnOnce()) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64 / n as f64
}

fn bench_fs(bench: &mut Bench) -> &mut simfs::Filesystem<servers::IscsiInitiator> {
    match bench {
        Bench::Nfs(b) => b.rig.server_mut().fs_mut(),
        Bench::Web(b) => b.rig.server_mut().fs_mut(),
    }
}

fn bench_module(bench: &Bench) -> Option<sim::Shared<ncache::NcacheModule>> {
    match bench {
        Bench::Nfs(b) => b.rig.module(),
        Bench::Web(b) => b.rig.module(),
    }
}

impl Bench {
    /// The pristine content of the file set, snapshotted for the shadow
    /// model.
    pub fn pristine(&mut self) -> Pristine {
        match self {
            Bench::Nfs(b) if !b.sparse => Pristine::Patterned {
                fhs: b.files.fhs.clone(),
            },
            Bench::Nfs(b) => {
                let size = b.file_size;
                let inos: Vec<simfs::Ino> = b
                    .files
                    .fhs
                    .iter()
                    .map(|&fh| servers::nfs::fh_to_ino(fh))
                    .collect();
                let fs = b.rig.server_mut().fs_mut();
                Pristine::Synthetic {
                    lbns: inos.iter().map(|&ino| block_map(fs, ino, size)).collect(),
                    sizes: vec![size; inos.len()],
                }
            }
            Bench::Web(b) => {
                let fs = b.rig.server_mut().fs_mut();
                let root = simfs::Filesystem::<servers::IscsiInitiator>::ROOT;
                let mut lbns = Vec::new();
                let mut sizes = Vec::new();
                for (path, size) in &b.pages {
                    let ino = fs
                        .lookup(root, path.trim_start_matches('/'))
                        .expect("published page");
                    lbns.push(block_map(fs, ino, *size));
                    sizes.push(*size);
                }
                Pristine::Synthetic { lbns, sizes }
            }
        }
    }

    /// `(files, bytes per file)` of the set, for sizing a shadow model.
    pub fn file_sizes(&self) -> Vec<u64> {
        match self {
            Bench::Nfs(b) => vec![b.file_size; b.files.fhs.len()],
            Bench::Web(b) => b.pages.iter().map(|(_, s)| *s).collect(),
        }
    }

    /// Reads the whole of file 0 back through the request path (engine
    /// workloads verify content after the run, not per request).
    pub fn read_back_file0(&mut self) -> Vec<u8> {
        let Bench::Nfs(b) = self else {
            panic!("read-back is an NFS check");
        };
        // An overload run leaves the admission gate believing the server
        // is saturated; the read-back arrives on an idle one.
        b.rig.server_mut().set_load(0, 0);
        let mut out = Vec::with_capacity(b.file_size as usize);
        while (out.len() as u64) < b.file_size {
            let n = (b.file_size - out.len() as u64).min(32 << 10) as u32;
            let at = out.len() as u32;
            out.extend_from_slice(&b.read_back(0, at, n));
        }
        out
    }

    fn extents(&mut self, ops: &[Op]) -> Vec<Extent> {
        let mut out = Vec::new();
        for op in ops {
            let (ino, fh, offset, len, write) = match (*op, &mut *self) {
                (Op::Read { file, offset, len }, Bench::Nfs(b)) => {
                    let fh = b.files.fhs[file as usize];
                    (
                        servers::nfs::fh_to_ino(fh),
                        fh,
                        u64::from(offset),
                        len as usize,
                        false,
                    )
                }
                (Op::Write { file, offset, len }, Bench::Nfs(b)) => {
                    let fh = b.files.fhs[file as usize];
                    (
                        servers::nfs::fh_to_ino(fh),
                        fh,
                        u64::from(offset),
                        len as usize,
                        true,
                    )
                }
                (Op::Get { page }, Bench::Web(b)) => {
                    let (path, size) = b.pages[page as usize].clone();
                    let ino = b
                        .rig
                        .server_mut()
                        .fs_mut()
                        .lookup(
                            simfs::Filesystem::<servers::IscsiInitiator>::ROOT,
                            path.trim_start_matches('/'),
                        )
                        .expect("published page");
                    (ino, u64::from(ino.0), 0, size as usize, false)
                }
                _ => continue,
            };
            let fs = bench_fs(self);
            let first = offset / BLOCK;
            let lbns = (0..(len as u64).div_ceil(BLOCK))
                .map(|i| {
                    fs.block_lbn(ino, first + i)
                        .expect("file exists")
                        .expect("allocated at setup")
                })
                .collect();
            out.push(Extent {
                ino,
                fh,
                offset,
                len,
                write,
                lbns,
            });
        }
        out
    }
}

/// Times each inner layer by calling its public functions directly with
/// the inputs `ops` produces (same inode/offset/length sequence, same
/// keys, same message sizes), on a rig built and warmed for `spec`.
/// Returns `(metric, ns per call)`; a layer `ops` never reaches reads 0.
///
/// The probes nest the way the layers do: `simfs.*` includes the storage
/// path below it on a miss, which `servers.target.*`, `ncache.insert_ns`
/// and `proto.iscsi_codec_ns` time on their own.
pub fn layer_probes(spec: &Spec, stream: &Stream, ops: &[Op]) -> Vec<(&'static str, f64)> {
    use netbuf::key::{Fho, FileHandle, KeyStamp, Lbn};
    use netbuf::{BufPool, CopyLedger, NetBuf, Segment};
    use std::hint::black_box;

    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let mut bench = Bench::setup(spec, Mode::NCache, stream);
    let extents = bench.extents(ops);
    let reads: Vec<&Extent> = extents.iter().filter(|e| !e.write).collect();
    let writes: Vec<&Extent> = extents.iter().filter(|e| e.write).collect();
    let read_lbns: Vec<u64> = reads.iter().flat_map(|e| e.lbns.iter().copied()).collect();
    let block = vec![ENGINE_WRITE_BYTE; BLOCK as usize];

    // --- proto: codecs and checksum -------------------------------------
    let nfs_ops: Vec<&Op> = ops
        .iter()
        .filter(|o| !matches!(o, Op::Get { .. }))
        .collect();
    out.push((
        "proto.nfs_codec_ns",
        ns_per(nfs_ops.len(), || {
            use proto::nfs::{
                proc, Fattr, GetattrArgs, LookupArgs, LookupReply, ReadArgs, ReadReplyHeader,
                WriteArgsHeader, WriteReply,
            };
            use proto::rpc::{RpcCall, RpcReply};
            let attrs = Fattr::default();
            for (k, op) in nfs_ops.iter().enumerate() {
                let xid = k as u32 + 1;
                let (procnum, args, reply) = match **op {
                    Op::Read { file, offset, len } => (
                        proc::READ,
                        ReadArgs {
                            fh: u64::from(file),
                            offset,
                            count: len,
                        }
                        .encode(),
                        ReadReplyHeader {
                            status: NFS_OK,
                            attrs,
                            count: len,
                        }
                        .encode(),
                    ),
                    Op::Write { file, offset, len } => (
                        proc::WRITE,
                        WriteArgsHeader {
                            fh: u64::from(file),
                            offset,
                            count: len,
                        }
                        .encode(),
                        WriteReply {
                            status: NFS_OK,
                            attrs,
                        }
                        .encode(),
                    ),
                    Op::Getattr { file } => {
                        let mut r = NFS_OK.to_be_bytes().to_vec();
                        attrs.encode_into(&mut r);
                        (
                            proc::GETATTR,
                            GetattrArgs {
                                fh: u64::from(file),
                            }
                            .encode(),
                            r,
                        )
                    }
                    Op::Lookup { file } => (
                        proc::LOOKUP,
                        LookupArgs {
                            dir_fh: 0,
                            name: format!("f{file:05}"),
                        }
                        .encode(),
                        LookupReply {
                            status: NFS_OK,
                            fh: u64::from(file),
                            attrs,
                        }
                        .encode(),
                    ),
                    Op::Get { .. } => unreachable!("filtered above"),
                };
                let call = RpcCall::nfs(xid, procnum).encode();
                black_box(RpcCall::decode(&call).expect("round trip"));
                match **op {
                    Op::Read { .. } => {
                        black_box(ReadArgs::decode(&args).expect("round trip"));
                        black_box(ReadReplyHeader::decode(&reply).expect("round trip"));
                    }
                    Op::Write { .. } => {
                        black_box(WriteArgsHeader::decode(&args).expect("round trip"));
                        black_box(WriteReply::decode(&reply).expect("round trip"));
                    }
                    Op::Getattr { .. } => {
                        black_box(GetattrArgs::decode(&args).expect("round trip"));
                        black_box(Fattr::decode(&reply, 4).expect("round trip"));
                    }
                    Op::Lookup { .. } => {
                        black_box(LookupArgs::decode(&args).expect("round trip"));
                        black_box(LookupReply::decode(&reply).expect("round trip"));
                    }
                    Op::Get { .. } => unreachable!("filtered above"),
                }
                let rpc = RpcReply::new(xid).encode();
                black_box(RpcReply::decode(&rpc).expect("round trip"));
            }
        }),
    ));
    let gets: Vec<(String, u64)> = match &bench {
        Bench::Web(b) => ops
            .iter()
            .filter_map(|o| match o {
                Op::Get { page } => Some(b.pages[*page as usize].clone()),
                _ => None,
            })
            .collect(),
        Bench::Nfs(_) => Vec::new(),
    };
    out.push((
        "proto.http_codec_ns",
        ns_per(gets.len(), || {
            use proto::http::{HttpRequest, HttpResponseHeader};
            for (path, size) in &gets {
                let req = HttpRequest { path: path.clone() }.encode();
                black_box(HttpRequest::decode(&req).expect("round trip"));
                let hdr = HttpResponseHeader::ok(*size).encode();
                black_box(HttpResponseHeader::decode(&hdr).expect("round trip"));
            }
        }),
    ));
    out.push((
        "proto.iscsi_codec_ns",
        ns_per(read_lbns.len(), || {
            use proto::iscsi::{DataIn, IscsiPdu, ScsiCommand, ScsiOp};
            for (k, &lbn) in read_lbns.iter().enumerate() {
                let itt = k as u32 + 1;
                let cmd = ScsiCommand {
                    itt,
                    op: ScsiOp::Read,
                    lbn,
                    blocks: 1,
                }
                .encode();
                black_box(IscsiPdu::decode(&cmd).expect("round trip"));
                let din = DataIn {
                    itt,
                    lbn,
                    data_len: BLOCK as u32,
                    is_final: true,
                }
                .encode();
                black_box(IscsiPdu::decode(&din).expect("round trip"));
            }
        }),
    ));
    {
        let buf = vec![ENGINE_WRITE_BYTE; extents.iter().map(|e| e.len).max().unwrap_or(0)];
        let kib: f64 = extents.iter().map(|e| e.len as f64 / 1024.0).sum();
        let t = Instant::now();
        for e in &extents {
            black_box(proto::csum::checksum(black_box(&buf[..e.len])));
        }
        let ns = t.elapsed().as_nanos() as f64;
        out.push((
            "proto.csum_ns_per_kb",
            if kib > 0.0 { ns / kib } else { 0.0 },
        ));
    }

    // --- netbuf: slab cycle and buffer assembly --------------------------
    {
        let pool = BufPool::slab_only();
        let n = read_lbns.len().max(1024);
        out.push((
            "netbuf.pool_cycle_ns",
            ns_per(n, || {
                for _ in 0..n {
                    black_box(pool.seg_from_slice(black_box(&block)));
                }
            }),
        ));
        let ledger = CopyLedger::new();
        let seg = Segment::from_vec(block.clone());
        let header = [0u8; 76];
        out.push((
            "netbuf.buf_build_ns",
            ns_per(ops.len(), || {
                for op in ops {
                    let blocks = match *op {
                        Op::Read { len, .. } | Op::Write { len, .. } => {
                            u64::from(len).div_ceil(BLOCK)
                        }
                        _ => 0,
                    };
                    let mut b = NetBuf::new(&ledger);
                    for _ in 0..blocks {
                        b.append_segment(seg.clone());
                    }
                    b.push_header(&header);
                    b.push_header(&header[..24]);
                    black_box(b);
                }
            }),
        ));
    }

    // --- simfs: the workload's reads, writes and name/attribute lookups --
    {
        let root = simfs::Filesystem::<servers::IscsiInitiator>::ROOT;
        let names: Vec<String> = match &bench {
            Bench::Nfs(b) => ops
                .iter()
                .filter_map(|o| match o {
                    Op::Lookup { file } | Op::Getattr { file } => {
                        Some(b.files.names[*file as usize].clone())
                    }
                    _ => None,
                })
                .collect(),
            Bench::Web(_) => gets
                .iter()
                .map(|(p, _)| p.trim_start_matches('/').to_string())
                .collect(),
        };
        let fs = bench_fs(&mut bench);
        let (mut read_ns, mut write_ns, mut dirty) = (0u128, 0u128, 0u64);
        for e in &extents {
            let t = Instant::now();
            if e.write {
                let stamps: Vec<KeyStamp> = (0..e.lbns.len() as u64)
                    .map(|i| {
                        KeyStamp::new().with_fho(Fho::new(FileHandle(e.fh), e.offset + i * BLOCK))
                    })
                    .collect();
                fs.write_logical(e.ino, e.offset, e.len, &stamps)
                    .expect("probe write");
                // The server's write-behind cadence (256 dirty blocks →
                // flush the 64 oldest), so flush cost lands where it does
                // in the workload.
                dirty += e.lbns.len() as u64;
                if dirty >= 256 {
                    fs.sync_some(64).expect("sync");
                    dirty = fs.dirty_blocks() as u64;
                }
                write_ns += t.elapsed().as_nanos();
            } else {
                black_box(fs.read_logical(e.ino, e.offset, e.len).expect("probe read"));
                read_ns += t.elapsed().as_nanos();
            }
            let _ = fs.store_mut().take_io_log();
        }
        let per = |ns: u128, n: usize| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
        out.push(("simfs.read_ns_per_req", per(read_ns, reads.len())));
        out.push(("simfs.write_ns_per_req", per(write_ns, writes.len())));
        out.push((
            "simfs.lookup_ns",
            ns_per(names.len(), || {
                for name in &names {
                    let ino = fs.lookup(root, name).expect("file exists");
                    black_box(fs.getattr(ino).expect("file exists"));
                }
            }),
        ));
    }

    // --- ncache: lookup and substitution on the rig's own cache ----------
    match bench_module(&bench) {
        Some(module) => {
            let cache = module.borrow().cache_handle();
            out.push((
                "ncache.lookup_ns",
                ns_per(read_lbns.len(), || {
                    for &lbn in &read_lbns {
                        black_box(cache.lookup(Lbn(lbn).into()));
                    }
                }),
            ));
            let ledger = CopyLedger::new();
            let mut ns = 0u128;
            for batch in reads.chunks(256) {
                let mut bufs: Vec<NetBuf> = batch
                    .iter()
                    .map(|e| {
                        let mut b = NetBuf::new(&ledger);
                        for &lbn in &e.lbns {
                            let mut junk = vec![0u8; BLOCK as usize];
                            KeyStamp::new().with_lbn(Lbn(lbn)).encode_into(&mut junk);
                            b.append_segment(Segment::from_vec(junk));
                        }
                        b
                    })
                    .collect();
                let t = Instant::now();
                for b in &mut bufs {
                    black_box(ncache::substitute_payload(b, &cache));
                }
                ns += t.elapsed().as_nanos();
            }
            out.push((
                "ncache.substitute_ns_per_req",
                if reads.is_empty() {
                    0.0
                } else {
                    ns as f64 / reads.len() as f64
                },
            ));
        }
        None => {
            out.push(("ncache.lookup_ns", 0.0));
            out.push(("ncache.substitute_ns_per_req", 0.0));
        }
    }

    // --- ncache: insert (with eviction) and remap on a private cache -----
    {
        let cache = ncache::NetCacheShards::new(BufPool::new(spec.ncache_bytes), 128, spec.shards);
        let mut ns = 0u128;
        for batch in read_lbns.chunks(1024) {
            let segs: Vec<Vec<Segment>> = batch
                .iter()
                .map(|_| vec![Segment::from_vec(block.clone())])
                .collect();
            let t = Instant::now();
            for (&lbn, seg) in batch.iter().zip(segs) {
                black_box(
                    cache
                        .insert_lbn(Lbn(lbn), seg, BLOCK as usize, false)
                        .expect("clean chunks evict"),
                );
            }
            ns += t.elapsed().as_nanos();
        }
        out.push((
            "ncache.insert_ns",
            if read_lbns.is_empty() {
                0.0
            } else {
                ns as f64 / read_lbns.len() as f64
            },
        ));
        let cache = ncache::NetCacheShards::new(BufPool::new(spec.ncache_bytes), 128, spec.shards);
        let (mut ns, mut n) = (0u128, 0usize);
        for e in &writes {
            let keys: Vec<(Fho, Lbn)> = e
                .lbns
                .iter()
                .enumerate()
                .map(|(i, &lbn)| {
                    (
                        Fho::new(FileHandle(e.fh), e.offset + i as u64 * BLOCK),
                        Lbn(lbn),
                    )
                })
                .collect();
            for (fho, _) in &keys {
                cache
                    .insert_fho(*fho, vec![Segment::from_vec(block.clone())], BLOCK as usize)
                    .expect("remapped chunks are clean and evict");
            }
            let t = Instant::now();
            for (fho, lbn) in &keys {
                black_box(cache.remap(*fho, *lbn));
            }
            ns += t.elapsed().as_nanos();
            n += keys.len();
            for (_, lbn) in &keys {
                cache.mark_clean((*lbn).into());
            }
        }
        out.push((
            "ncache.remap_ns",
            if n == 0 { 0.0 } else { ns as f64 / n as f64 },
        ));
    }

    // --- storage server and disk array ----------------------------------
    {
        use proto::iscsi::{ScsiCommand, ScsiOp};
        let mut target = servers::IscsiTarget::new(spec.volume_blocks, &CopyLedger::new());
        out.push((
            "servers.target.read_cmd_ns",
            ns_per(read_lbns.len(), || {
                for (k, &lbn) in read_lbns.iter().enumerate() {
                    let cmd = ScsiCommand {
                        itt: k as u32 + 1,
                        op: ScsiOp::Read,
                        lbn,
                        blocks: 1,
                    };
                    black_box(target.handle_command(cmd, Vec::new()));
                }
            }),
        ));
        let mut raid = blockdev::Raid0::new(blockdev::DiskModel::dtla_307075(), 4, 16);
        let mut now = sim::SimTime::ZERO;
        out.push((
            "blockdev.raid_io_ns",
            ns_per(extents.len(), || {
                for e in &extents {
                    now = raid.io(now, e.lbns[0], e.lbns.len() as u64);
                }
                black_box(now);
            }),
        ));
    }

    // --- sim: event engine and FIFO resource -----------------------------
    {
        fn chain(left: u64) -> impl FnOnce(&mut u64, &mut sim::Scheduler<u64>) + 'static {
            move |world, s| {
                *world += 1;
                if left > 0 {
                    s.schedule_in(sim::Duration::from_nanos(1000), chain(left - 1));
                }
            }
        }
        let n = ops.len().max(1024);
        let mut engine = sim::Engine::new(0u64);
        out.push((
            "sim.engine_event_ns",
            ns_per(n, || {
                // 64 interleaved chains, as many sessions keep the queue
                // that deep in the timing engines.
                for c in 0..64u64 {
                    engine.schedule(sim::Duration::from_nanos(c), chain((n / 64) as u64));
                }
                engine.run();
            }),
        ));
        black_box(engine.into_world());
        let mut res = sim::Resource::new("probe", 1);
        let mut now = sim::SimTime::ZERO;
        out.push((
            "sim.resource_serve_ns",
            ns_per(n, || {
                for _ in 0..n {
                    now = res.serve(now, sim::Duration::from_nanos(1000));
                }
                black_box(now);
            }),
        ));
    }
    out
}

/// `RigDriver::run_op` against the bare request path on twin rigs, and
/// `timing::derive` over the observations the first produced:
/// `(testbed.run_op_overhead_ns, testbed.derive_ns)`.
pub fn run_op_probes(spec: &Spec, stream: &Stream, ops: &[Op]) -> (f64, f64) {
    use std::hint::black_box;
    if ops.is_empty() {
        return (0.0, 0.0);
    }
    let costs = sim::CostModel::pentium3_gige();
    let mut observations = Vec::with_capacity(ops.len());
    let (via_run_op, transport, per_request_ns, bare) = match (
        Bench::setup(spec, Mode::NCache, stream),
        Bench::setup(spec, Mode::NCache, stream),
    ) {
        (Bench::Nfs(mut a), Bench::Nfs(mut b)) => {
            let dops: Vec<DriverOp> = ops.iter().map(|op| a.files.driver_op(op)).collect();
            let via = ns_per(dops.len(), || {
                for op in &dops {
                    observations.push(a.rig.run_op(op).0);
                }
            });
            let root = b.rig.server_mut().root_fh();
            let payload = vec![ENGINE_WRITE_BYTE; 64 << 10];
            let bare = ns_per(dops.len(), || {
                for op in &dops {
                    let c = b.rig.client_mut();
                    let req = match op {
                        DriverOp::Read { fh, offset, len } => c.read_request(*fh, *offset, *len),
                        DriverOp::Write { fh, offset, len } => {
                            c.write_request(*fh, *offset, &payload[..*len as usize])
                        }
                        DriverOp::Getattr { fh } => c.getattr_request(*fh),
                        DriverOp::Lookup { name } => c.lookup_request(root, name),
                        DriverOp::Get { .. } => unreachable!("NFS rig"),
                    };
                    black_box(b.rig.handle_raw(req));
                    b.drain_io_log();
                }
            });
            (via, a.rig.transport(), a.rig.per_request_ns(&costs), bare)
        }
        (Bench::Web(mut a), Bench::Web(mut b)) => {
            let dops = a.driver_ops(ops);
            let via = ns_per(dops.len(), || {
                for op in &dops {
                    observations.push(a.rig.run_op(op).0);
                }
            });
            let app = b.rig.ledgers().app.clone();
            let bare = ns_per(dops.len(), || {
                for op in &dops {
                    let DriverOp::Get { path } = op else {
                        unreachable!("built above")
                    };
                    let req = b.client.get_request(path);
                    let rx = servers::stack::deliver(&req, &app);
                    black_box(b.rig.server_mut().handle_request(&rx));
                    let _ = b.rig.server_mut().fs_mut().store_mut().take_io_log();
                }
            });
            (via, a.rig.transport(), a.rig.per_request_ns(&costs), bare)
        }
        _ => unreachable!("both rigs come from the same spec"),
    };
    let derive_ns = ns_per(observations.len(), || {
        for o in &observations {
            black_box(testbed::timing::derive(
                &costs,
                transport,
                per_request_ns,
                o,
            ));
        }
    });
    (via_run_op - bare, derive_ns)
}

/// Nanoseconds per `obs::Histogram::record` over `values`.
pub fn hist_record_ns(values: &[u64]) -> f64 {
    let mut h = obs::Histogram::new();
    let ns = ns_per(values.len(), || {
        for &v in values {
            h.record(v);
        }
    });
    std::hint::black_box(h.count());
    ns
}

/// The sequential closed-loop runner over `ops` at concurrency 8: the
/// sim-time CPU shares the paper plots, `(app_cpu_util, storage_cpu_util)`.
pub fn sim_utilization(bench: Bench, ops: &[Op]) -> (f64, f64) {
    use testbed::runner::{run, RunOptions};
    let opts = RunOptions {
        concurrency: crate::workloads::SIM_REPLAY_SESSIONS,
        ..RunOptions::default()
    };
    let r = match bench {
        Bench::Nfs(mut b) => {
            let dops: Vec<DriverOp> = ops.iter().map(|op| b.files.driver_op(op)).collect();
            run(&mut b.rig, dops, &opts)
        }
        Bench::Web(mut b) => {
            let dops = b.driver_ops(ops);
            run(&mut b.rig, dops, &opts)
        }
    };
    (r.app_cpu_util, r.storage_cpu_util)
}

impl Bench {
    /// Installs an enabled `obs::Recorder` on the whole rig (server span
    /// layer, data plane, every node's ledger).
    pub fn enable_recorder(&mut self) {
        let rec = obs::Recorder::new();
        rec.enable(obs::TraceConfig::default());
        match self {
            Bench::Nfs(b) => b.rig.set_recorder(rec),
            Bench::Web(b) => b.rig.set_recorder(rec),
        }
    }
}
