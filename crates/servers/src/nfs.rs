//! The in-kernel NFS server, in the paper's three builds, plus a test
//! client.
//!
//! The server is transport-agnostic: it consumes a delivered RPC message
//! (UDP payload, headers already pulled by [`crate::stack`]) and produces
//! the reply message. Per §3.3, only two packet kinds touch the
//! network-centric cache: incoming **WRITE request payloads** (cached under
//! FHO keys) and outgoing **READ reply payloads** (substituted at the
//! driver hook). Everything else — GETATTR, LOOKUP, READDIR, and all reply
//! headers — travels the ordinary copying path in every build.

use std::collections::VecDeque;

use ncache::Resolved;
use netbuf::key::{Fho, FileHandle, KeyStamp, Lbn};
use netbuf::{BufPool, CopyLedger, NetBuf, SLAB_SIZE};
use proto::nfs::{
    self, CreateArgs, Fattr, FileType as NfsFileType, GetattrArgs, GetattrReply, LookupArgs,
    LookupReply, ReadArgs, ReadReplyHeader, ReaddirArgs, ReaddirReply, RemoveReply,
    WriteArgsHeader, WriteReply, NFSERR_IO, NFSERR_JUKEBOX, NFSERR_NOENT, NFS_OK,
};
use proto::rpc::{RpcCall, RpcReply, CALL_LEN, REPLY_LEN};
use simfs::inode::FileType;
use sim::LaneCounters;
use simfs::fs::ResidentWalk;
use simfs::{Filesystem, FsError, Ino};

use crate::control::OpClass;
use crate::host::ServerHost;
use crate::initiator::IscsiInitiator;
use crate::mode::ServerMode;
use crate::util::{attach_blocks, split_segments};

const BLOCK: usize = simfs::BLOCK_SIZE;

/// NFS server counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NfsServerStats {
    /// Total RPC requests served.
    pub requests: u64,
    /// READ requests.
    pub reads: u64,
    /// WRITE requests.
    pub writes: u64,
    /// Metadata requests (GETATTR, LOOKUP, ...).
    pub metadata_ops: u64,
    /// Payload bytes returned by READs.
    pub bytes_read: u64,
    /// Payload bytes accepted by WRITEs.
    pub bytes_written: u64,
    /// Requests that failed (error status replies).
    pub errors: u64,
    /// Retransmissions answered from the duplicate-request cache instead
    /// of being re-executed.
    pub drc_hits: u64,
    /// Replies inserted into the duplicate-request cache.
    pub drc_inserts: u64,
    /// Entries evicted from a full duplicate-request cache (overflow:
    /// a retransmission arriving after its entry was evicted would be
    /// re-executed, so this staying at zero is the safety signal).
    pub drc_evictions: u64,
}

impl obs::StatsSnapshot for NfsServerStats {
    fn source(&self) -> &'static str {
        "nfs-server"
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("requests", self.requests),
            ("reads", self.reads),
            ("writes", self.writes),
            ("metadata_ops", self.metadata_ops),
            ("bytes_read", self.bytes_read),
            ("bytes_written", self.bytes_written),
            ("errors", self.errors),
            ("drc_hits", self.drc_hits),
            ("drc_inserts", self.drc_inserts),
            ("drc_evictions", self.drc_evictions),
        ]
    }
}

// Counter indices into the server's [`LaneCounters`], one per
// [`NfsServerStats`] field.
const REQUESTS: usize = 0;
const READS: usize = 1;
const WRITES: usize = 2;
const METADATA_OPS: usize = 3;
const BYTES_READ: usize = 4;
const BYTES_WRITTEN: usize = 5;
const ERRORS: usize = 6;
const DRC_HITS: usize = 7;
const DRC_INSERTS: usize = 8;
const DRC_EVICTIONS: usize = 9;

/// The server's live counters (see [`NfsServerStats`] for the snapshot).
/// The concurrent read fast path bumps them through `&self`, so they are
/// relaxed atomics (pure commutative sums; snapshots are taken at
/// quiescent points), lane-striped so concurrent lanes count on their own
/// cache lines.
type StatsCells = LaneCounters<10>;

/// The NFS server.
///
/// Construct with a mounted [`Filesystem`] over an [`IscsiInitiator`]
/// (see the `testbed` crate for full wiring, or the integration tests for
/// minimal examples).
///
/// Everything that is not NFS — the build, the file system, the module
/// handle, fault recovery, the control plane, the transmit hook — is the
/// [`ServerHost`] this derefs to.
#[derive(Debug)]
pub struct NfsServer {
    host: ServerHost,
    stats: StatsCells,
    dirty_blocks_since_sync: u64,
    /// Duplicate-request cache: recent (xid, complete reply bytes) for
    /// WRITE/CREATE/REMOVE, newest at the back. Consulted only with
    /// fault recovery armed.
    drc: VecDeque<(u32, Vec<u8>)>,
    /// Duplicate-request cache depth without a bounding control plane
    /// (`drc_depth`). Defaults to [`DRC_CAPACITY`].
    drc_capacity: usize,
    /// The key stamps of the aligned NCache WRITE being served: cleared
    /// when one starts, never shrunk, so a WRITE allocates no list.
    stamps: Vec<KeyStamp>,
}

impl std::ops::Deref for NfsServer {
    type Target = ServerHost;

    fn deref(&self) -> &ServerHost {
        &self.host
    }
}

impl std::ops::DerefMut for NfsServer {
    fn deref_mut(&mut self) -> &mut ServerHost {
        &mut self.host
    }
}

/// Default duplicate-request cache depth — enough to cover any plausible
/// burst of retransmissions from the closed-loop clients. The safety
/// invariant: an entry must outlive its client's retransmission window,
/// i.e. the cache must hold at least (concurrent clients × in-flight
/// non-idempotent calls per client) entries. The closed-loop engines run
/// ≤ 256 sessions with exactly one in-flight call each, and only
/// WRITE/CREATE/REMOVE enter the cache, so 128 covers every committed
/// workload's non-idempotent burst; with the control plane installed the
/// in-flight bound makes the sizing explicit (2 × `max_inflight`).
const DRC_CAPACITY: usize = 128;

/// Non-idempotent procedures must not be re-executed on retransmission.
fn non_idempotent(proc: u32) -> bool {
    matches!(proc, nfs::proc::WRITE | nfs::proc::CREATE | nfs::proc::REMOVE)
}

/// Admission class per procedure: the control plane sheds write-side
/// work (cache-filling) before read-side work (cache-draining).
fn op_class(proc: u32) -> OpClass {
    if non_idempotent(proc) {
        OpClass::Write
    } else {
        OpClass::Read
    }
}

/// Dirty blocks accumulated before the server flushes, modelling the
/// kernel's periodic write-back (bdflush). Keeping this low is also what
/// makes §3.4's remap-before-LBN-flush ordering hold: dirty placeholder
/// buffers leave the (small) file-system cache quickly, remapping their
/// FHO chunks so the network-centric cache never fills with unremapped
/// dirty entries.
const DIRTY_FLUSH_THRESHOLD: u64 = 256;

/// A READ established as a pure hit and counted on the network-centric
/// cache's side, not yet on the file system's ([`NfsServer::probe_read`]).
#[derive(Debug)]
pub struct ReadHit<'a> {
    walk: ResidentWalk<'a>,
    resolved: Option<Resolved>,
}

impl NfsServer {
    /// The NFS daemon over `host`.
    pub fn new(host: ServerHost) -> Self {
        NfsServer {
            host,
            stats: StatsCells::default(),
            dirty_blocks_since_sync: 0,
            drc: VecDeque::new(),
            drc_capacity: DRC_CAPACITY,
            stamps: Vec::new(),
        }
    }

    /// The duplicate-request cache depth in force. An installed control
    /// plane that bounds the in-flight depth sizes it from that bound
    /// (2 × `max_inflight`, floor [`DRC_CAPACITY`]): with at most
    /// `max_inflight` admitted calls in flight, a full burst of
    /// retransmissions cannot evict an entry younger than the retransmit
    /// window. Derived here, where it is used, so that installing the plane
    /// on the host ([`ServerHost::enable_control`]) is all it takes.
    fn drc_depth(&self) -> usize {
        match self.host.control_max_inflight() {
            0 => self.drc_capacity,
            bound => DRC_CAPACITY.max(2 * bound as usize),
        }
    }

    /// Overrides the duplicate-request cache depth (tests only; an
    /// installed control plane's in-flight bound takes precedence).
    pub fn set_drc_capacity(&mut self, capacity: usize) {
        self.drc_capacity = capacity.max(1);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> NfsServerStats {
        let t = self.stats.totals();
        NfsServerStats {
            requests: t[REQUESTS],
            reads: t[READS],
            writes: t[WRITES],
            metadata_ops: t[METADATA_OPS],
            bytes_read: t[BYTES_READ],
            bytes_written: t[BYTES_WRITTEN],
            errors: t[ERRORS],
            drc_hits: t[DRC_HITS],
            drc_inserts: t[DRC_INSERTS],
            drc_evictions: t[DRC_EVICTIONS],
        }
    }

    /// The file handle of the export root.
    pub fn root_fh(&self) -> u64 {
        ino_to_fh(Filesystem::<IscsiInitiator>::ROOT)
    }

    /// Serves one RPC message (a delivered UDP payload) and returns the
    /// reply message, already passed through the driver-level NCache hook
    /// (substitution) when that build is running.
    pub fn handle_message(&mut self, req: NetBuf) -> NetBuf {
        self.handle(req).0
    }

    /// [`NfsServer::handle_message`], also returning the packets the
    /// transmit hook substituted into the reply. Replies answered early
    /// (malformed requests, duplicate-request-cache hits, rejections)
    /// never reach the hook.
    pub fn handle(&mut self, mut req: NetBuf) -> (NetBuf, u64) {
        self.stats.add(REQUESTS, 1);
        let req_bytes = req.payload_len() as u64;
        let call = take_array::<CALL_LEN>(&mut req).and_then(|h| RpcCall::decode(&h).ok());
        let Some(call) = call else {
            // Malformed RPC: a production server drops these; replying
            // with an error keeps closed-loop clients alive and never
            // panics the server on hostile input.
            //
            // The parser examined these bytes before rejecting them, so
            // charge the header movement exactly like a successful parse
            // does (datagrams >= CALL_LEN were already pulled above).
            if req.payload_len() > 0 && req.payload_len() < CALL_LEN {
                let n = req.payload_len();
                let _ = req.pull(n);
            }
            let span = self
                .recorder
                .begin_span("malformed", self.host.mode.label(), req_bytes);
            self.stats.add(ERRORS, 1);
            let mut r = NetBuf::new(&self.host.ledger);
            r.push_header(&NFSERR_IO.to_be_bytes());
            r.push_header(&RpcReply::new(0).encode_array());
            self.host.recorder.end_span(span);
            return (r, 0);
        };
        let span = self
            .recorder
            .begin_span(proc_name(call.proc), self.host.mode.label(), req_bytes);
        // Duplicate-request cache: a retransmission of a non-idempotent
        // call (the client timed out on a lost reply) is answered with the
        // original reply bytes, never re-executed.
        if self.host.fault_recovery && non_idempotent(call.proc) {
            if let Some((_, bytes)) = self.drc.iter().find(|(xid, _)| *xid == call.xid) {
                self.stats.add(DRC_HITS, 1);
                let mut r = NetBuf::new(&self.host.ledger);
                r.push_header(bytes);
                self.host.recorder.add_counter("fault.drc_hits", 1);
                self.host.recorder.end_span(span);
                return (r, 0);
            }
        }
        // Admission control: past the duplicate-request cache (a cached
        // reply costs nothing to resend) but before any execution. A
        // rejected call has no side effects and is never cached, so a
        // later retransmission of the same xid re-decides admission.
        if let Some(after_ns) = self.host.admit(op_class(call.proc)) {
            let mut r = self.retry_later_reply(call.proc, after_ns);
            r.push_header(&RpcReply::new(call.xid).encode_array());
            self.host.recorder.end_span(span);
            return (r, 0);
        }
        let mut resolved = None;
        let mut reply = match call.proc {
            nfs::proc::GETATTR => self.do_getattr(&mut req),
            nfs::proc::LOOKUP => self.do_lookup(&mut req),
            nfs::proc::READ => {
                let (reply, resolution) = self.do_read(&mut req);
                resolved = resolution;
                reply
            }
            nfs::proc::WRITE => self.do_write(&mut req),
            nfs::proc::CREATE => self.do_create(&mut req),
            nfs::proc::REMOVE => self.do_remove(&mut req),
            nfs::proc::READDIR => self.do_readdir(&mut req),
            _ => {
                self.stats.add(ERRORS, 1);
                let mut r = NetBuf::new(&self.host.ledger);
                r.push_header(&NFSERR_IO.to_be_bytes());
                r
            }
        };
        reply.push_header(&RpcReply::new(call.xid).encode_array());
        if self.host.fault_recovery && non_idempotent(call.proc) {
            // WRITE/CREATE/REMOVE replies are header-only, so the header
            // region is the complete reply.
            debug_assert_eq!(reply.payload_len(), 0);
            if self.drc.len() >= self.drc_depth() {
                self.drc.pop_front();
                self.stats.add(DRC_EVICTIONS, 1);
                self.host.recorder.add_counter("nfs.drc_evictions", 1);
            }
            self.drc.push_back((call.xid, reply.header().to_vec()));
            self.stats.add(DRC_INSERTS, 1);
        }
        // Driver-boundary hook: substitution happens after the whole stack
        // has built the packet; whatever the module displaced then goes
        // back to storage.
        let substituted = self.host.transmit(&mut reply, resolved);
        self.host.drain_writebacks();
        self.host.recorder.end_span(span);
        (reply, substituted)
    }

    fn do_create(&mut self, req: &mut NetBuf) -> NetBuf {
        self.stats.add(METADATA_OPS, 1);
        let body = req.pull(req.payload_len());
        let Some(args) = CreateArgs::decode(&body).ok() else {
            return self.garbage_reply();
        };
        let mut r = NetBuf::new(&self.host.ledger);
        match self
            .fs
            .create(fh_to_ino(args.dir_fh), &args.name)
            .and_then(|ino| self.host.fs.getattr(ino).map(|inode| (ino, inode)))
        {
            Ok((ino, inode)) => {
                let fh = ino_to_fh(ino);
                r.push_header(
                    &LookupReply {
                        status: NFS_OK,
                        fh,
                        attrs: fattr_of(fh, &inode),
                    }
                    .encode_array(),
                );
            }
            Err(e) => {
                self.stats.add(ERRORS, 1);
                r.push_header(
                    &LookupReply {
                        status: status_of(e),
                        ..LookupReply::default()
                    }
                    .encode_array(),
                );
            }
        }
        r
    }

    fn do_remove(&mut self, req: &mut NetBuf) -> NetBuf {
        self.stats.add(METADATA_OPS, 1);
        let body = req.pull(req.payload_len());
        let Some(args) = LookupArgs::decode(&body).ok() else {
            return self.garbage_reply();
        };
        let mut r = NetBuf::new(&self.host.ledger);
        // Under NCache, drop the file's cache chunks first: a dirty FHO
        // chunk belonging to a removed file would otherwise stay pinned
        // forever (it is unevictable until remapped, and no flush will
        // ever remap it once the file is gone).
        if self.host.module.is_some() {
            if let Ok(ino) = self.host.fs.lookup(fh_to_ino(args.dir_fh), &args.name) {
                self.invalidate_file_chunks(ino);
            }
        }
        let status = match self.host.fs.remove(fh_to_ino(args.dir_fh), &args.name) {
            Ok(()) => NFS_OK,
            Err(e) => {
                self.stats.add(ERRORS, 1);
                status_of(e)
            }
        };
        r.push_header(&RemoveReply { status }.encode());
        r
    }

    /// Invalidates every network-centric cache chunk of the file: for each
    /// block below its size, the FHO key of that block and the LBN key its
    /// block map names. The walk reads the block map, never the data, so
    /// removing a file that is not resident fetches its indirect blocks
    /// and nothing else — no block is fetched (and cached, evicting live
    /// chunks) only to be invalidated.
    fn invalidate_file_chunks(&mut self, ino: Ino) {
        let Some(module) = self.host.module.clone() else {
            return;
        };
        let Ok(inode) = self.host.fs.getattr(ino) else {
            return;
        };
        let fh = FileHandle(ino_to_fh(ino));
        let cache = module.borrow().cache_handle();
        for blk in 0..inode.size.div_ceil(BLOCK as u64) {
            let lbn = self.host.fs.block_lbn(ino, blk).ok().flatten();
            cache.invalidate(Fho::new(fh, blk * BLOCK as u64).into());
            if let Some(lbn) = lbn {
                cache.invalidate(Lbn(lbn).into());
            }
        }
    }

    fn do_readdir(&mut self, req: &mut NetBuf) -> NetBuf {
        self.stats.add(METADATA_OPS, 1);
        let Some(args) = take_array::<{ ReaddirArgs::LEN }>(req)
            .and_then(|b| ReaddirArgs::decode(&b).ok())
        else {
            return self.garbage_reply();
        };
        let mut r = NetBuf::new(&self.host.ledger);
        match self.host.fs.readdir(fh_to_ino(args.fh)) {
            Ok(all) => {
                // Page the listing: skip `cookie` entries, fill up to
                // roughly `count` reply bytes.
                let mut entries = Vec::new();
                let mut bytes = 0usize;
                let mut taken = 0usize;
                for e in all.iter().skip(args.cookie as usize) {
                    let entry_bytes = 12 + e.name.len().next_multiple_of(4);
                    if bytes + entry_bytes > args.count as usize && !entries.is_empty() {
                        break;
                    }
                    bytes += entry_bytes;
                    taken += 1;
                    entries.push(proto::nfs::DirEntry {
                        fileid: e.ino.0,
                        name: e.name.clone(),
                    });
                }
                let eof = args.cookie as usize + taken >= all.len();
                r.push_header(
                    &ReaddirReply {
                        status: NFS_OK,
                        entries,
                        eof,
                    }
                    .encode(),
                );
            }
            Err(e) => {
                self.stats.add(ERRORS, 1);
                r.push_header(
                    &ReaddirReply {
                        status: status_of(e),
                        ..ReaddirReply::default()
                    }
                    .encode(),
                );
            }
        }
        r
    }

    /// Unaligned NCache write: read-modify-write against materialized
    /// block contents, then park the merged blocks in the FHO cache.
    fn unaligned_ncache_write(
        &mut self,
        ino: Ino,
        fh: u64,
        offset: u64,
        count: usize,
        req: &mut NetBuf,
    ) -> Result<(), FsError> {
        let module = self.host.module.clone().expect("NCache build");
        let aligned_start = offset - offset % BLOCK as u64;
        let aligned_end = (offset + count as u64).div_ceil(BLOCK as u64) * BLOCK as u64;
        let size = self.host.fs.getattr(ino)?.size;
        let covered = (aligned_end.min(size.max(offset + count as u64)) - aligned_start) as usize;
        let mut merged = if aligned_start < size {
            let len = covered.min((size - aligned_start) as usize);
            self.host.materialize(ino, aligned_start, len)?
        } else {
            Vec::new()
        };
        merged.resize((aligned_end - aligned_start) as usize, 0);
        let data = req.peek(0, count);
        let at = (offset - aligned_start) as usize;
        merged[at..at + count].copy_from_slice(&data);
        let true_end = (offset + count as u64).max(size);
        // Store each merged block through hook 2, exactly like an aligned
        // write of the whole span.
        let mut stamps = Vec::new();
        for (i, chunk) in merged.chunks(BLOCK).enumerate() {
            let fho = Fho::new(FileHandle(fh), aligned_start + (i * BLOCK) as u64);
            let seg = netbuf::Segment::from_vec(chunk.to_vec());
            match module.borrow_mut().on_nfs_write(fho, vec![seg], chunk.len()) {
                Ok(stamp) => stamps.push(stamp),
                Err(_) => {
                    // Cache full: last resort, write the merged bytes
                    // physically — only up to the file's true end, so the
                    // file grows no further than the write does.
                    let end = (true_end.min(aligned_end) - aligned_start) as usize;
                    return self.host.fs.write(ino, aligned_start, &merged[..end]);
                }
            }
        }
        self.host.fs
            .write_logical(ino, aligned_start, merged.len(), &stamps)?;
        // The logical span may extend the file past the true end; restore
        // the correct size if the write did not actually grow it.
        if self.host.fs.getattr(ino)?.size != true_end {
            // write_logical only ever grows to aligned_end; shrink is not
            // supported, so only the grow case needs correction — and
            // aligned_end >= true_end always holds. Record the honest size.
            self.host.fs.set_size(ino, true_end)?;
        }
        Ok(())
    }

    /// Error reply for requests whose body fails to parse.
    fn garbage_reply(&mut self) -> NetBuf {
        self.stats.add(ERRORS, 1);
        let mut r = NetBuf::new(&self.host.ledger);
        r.push_header(&NFSERR_IO.to_be_bytes());
        r
    }

    /// Builds the body of an admission-control rejection: the procedure's
    /// own reply shape carrying [`NFSERR_JUKEBOX`] (so every client's
    /// normal decoder recognises it as a retryable status), with the
    /// suggested backoff in the reply's otherwise-unused trailing word.
    /// `after_ns` is advisory — the client's [`crate::control::RetryPolicy`]
    /// owns the actual backoff schedule.
    fn retry_later_reply(&mut self, proc: u32, _after_ns: u64) -> NetBuf {
        let mut r = NetBuf::new(&self.host.ledger);
        match proc {
            nfs::proc::WRITE => r.push_header(
                &WriteReply {
                    status: NFSERR_JUKEBOX,
                    ..WriteReply::default()
                }
                .encode_array(),
            ),
            nfs::proc::LOOKUP | nfs::proc::CREATE => r.push_header(
                &LookupReply {
                    status: NFSERR_JUKEBOX,
                    ..LookupReply::default()
                }
                .encode_array(),
            ),
            nfs::proc::REMOVE => r.push_header(
                &RemoveReply {
                    status: NFSERR_JUKEBOX,
                }
                .encode(),
            ),
            nfs::proc::READDIR => r.push_header(
                &ReaddirReply {
                    status: NFSERR_JUKEBOX,
                    ..ReaddirReply::default()
                }
                .encode(),
            ),
            nfs::proc::READ => r.push_header(
                &ReadReplyHeader {
                    status: NFSERR_JUKEBOX,
                    ..ReadReplyHeader::default()
                }
                .encode_array(),
            ),
            _ => r.push_header(&NFSERR_JUKEBOX.to_be_bytes()),
        }
        r
    }

    fn do_getattr(&mut self, req: &mut NetBuf) -> NetBuf {
        self.stats.add(METADATA_OPS, 1);
        let Some(args) = take_array::<{ GetattrArgs::LEN }>(req)
            .and_then(|b| GetattrArgs::decode(&b).ok())
        else {
            return self.garbage_reply();
        };
        let mut r = NetBuf::new(&self.host.ledger);
        match self.host.fs.getattr(fh_to_ino(args.fh)) {
            Ok(inode) => r.push_header(
                &GetattrReply {
                    status: NFS_OK,
                    attrs: fattr_of(args.fh, &inode),
                }
                .encode_array(),
            ),
            Err(e) => {
                self.stats.add(ERRORS, 1);
                r.push_header(&status_of(e).to_be_bytes());
            }
        }
        r
    }

    fn do_lookup(&mut self, req: &mut NetBuf) -> NetBuf {
        self.stats.add(METADATA_OPS, 1);
        let body = req.pull(req.payload_len());
        let Some(args) = LookupArgs::decode(&body).ok() else {
            return self.garbage_reply();
        };
        let mut r = NetBuf::new(&self.host.ledger);
        match self
            .fs
            .lookup(fh_to_ino(args.dir_fh), &args.name)
            .and_then(|ino| self.host.fs.getattr(ino).map(|inode| (ino, inode)))
        {
            Ok((ino, inode)) => {
                let fh = ino_to_fh(ino);
                r.push_header(
                    &LookupReply {
                        status: NFS_OK,
                        fh,
                        attrs: fattr_of(fh, &inode),
                    }
                    .encode_array(),
                );
            }
            Err(e) => {
                self.stats.add(ERRORS, 1);
                r.push_header(
                    &LookupReply {
                        status: status_of(e),
                        ..LookupReply::default()
                    }
                    .encode_array(),
                );
            }
        }
        r
    }

    fn do_read(&mut self, req: &mut NetBuf) -> (NetBuf, Option<Resolved>) {
        self.stats.add(READS, 1);
        let Some(args) = take_array::<{ ReadArgs::LEN }>(req)
            .and_then(|b| ReadArgs::decode(&b).ok())
        else {
            return (self.garbage_reply(), None);
        };
        let ino = fh_to_ino(args.fh);
        let offset = u64::from(args.offset);
        let count = args.count as usize;
        let mut reply = NetBuf::new(&self.host.ledger);
        let mut resolved = None;

        let outcome: Result<(usize, Fattr), FsError> = match self.host.mode {
            ServerMode::Original => self.read_copying(&mut reply, args.fh, offset, count),
            ServerMode::NCache | ServerMode::Baseline => {
                // Logical copy: attach the (placeholder) cache blocks by
                // reference; the daemon never touches the payload.
                let hit = self
                    .probe_read(args.fh, offset, count)
                    .map(|hit| self.finish_read(hit, &mut reply, args.fh));
                if let Some((n, attrs, resolution)) = hit {
                    resolved = resolution;
                    Ok((n, attrs))
                } else if offset.is_multiple_of(BLOCK as u64) {
                    // Not a pure hit, or fault recovery wants every key
                    // verified first: the miss-capable read, block by
                    // block, then resolve what came back.
                    self.host.fs.read_logical_per_block(ino, offset, count).and_then(|blocks| {
                        match self.host.resolve_fetched(&blocks) {
                            Ok(resolution) => {
                                resolved = resolution;
                                let attach = blocks.iter().map(|b| (&b.seg, b.valid_len));
                                let n = attach_blocks(&mut reply, attach);
                                let attrs = self.host.fs.getattr(ino).expect("read target exists");
                                Ok((n, fattr_of(args.fh, &attrs)))
                            }
                            // A chunk was evicted (or found corrupt) while
                            // its placeholder was still cached: degrade to
                            // real bytes, each block resolved the moment it
                            // is refetched — never a segment of stamps.
                            Err(_) => self.read_materialized(&mut reply, args.fh, offset, count),
                        }
                    })
                } else if self.host.mode == ServerMode::NCache {
                    // Unaligned reads cannot ride the key-moving path (a
                    // partial-block slice loses its stamp): materialize the
                    // real bytes from the network-centric cache.
                    self.read_materialized(&mut reply, args.fh, offset, count)
                } else {
                    // The baseline ships junk; the copying path suffices.
                    self.read_copying(&mut reply, args.fh, offset, count)
                }
            }
        };

        match outcome {
            Ok((n, attrs)) => {
                self.stats.add(BYTES_READ, n as u64);
                reply.push_header(
                    &ReadReplyHeader {
                        status: NFS_OK,
                        attrs,
                        count: n as u32,
                    }
                    .encode_array(),
                );
            }
            Err(e) => {
                self.stats.add(ERRORS, 1);
                let mut r = NetBuf::new(&self.host.ledger);
                r.push_header(
                    &ReadReplyHeader {
                        status: status_of(e),
                        ..ReadReplyHeader::default()
                    }
                    .encode_array(),
                );
                return (r, None);
            }
        }
        (reply, resolved)
    }

    /// The copying READ path. Copy 1: buffer cache → daemon buffer; copy 2:
    /// daemon buffer → network stack. The daemon buffer is handed off whole
    /// (`append_vec`), so the host does not duplicate it a third time.
    fn read_copying(
        &mut self,
        reply: &mut NetBuf,
        fh: u64,
        offset: u64,
        count: usize,
    ) -> Result<(usize, Fattr), FsError> {
        let ino = fh_to_ino(fh);
        let mut buf = vec![0u8; count];
        let n = self.host.fs.read(ino, offset, &mut buf)?;
        buf.truncate(n);
        reply.append_vec(buf);
        let attrs = self.host.fs.getattr(ino).expect("read target exists");
        Ok((n, fattr_of(fh, &attrs)))
    }

    /// The degraded READ path under NCache: the range's real bytes from
    /// [`ServerHost::materialize`], clipped at end of file. A block that
    /// still dangles after three fetches fails the READ (`NFSERR_IO`).
    fn read_materialized(
        &mut self,
        reply: &mut NetBuf,
        fh: u64,
        offset: u64,
        count: usize,
    ) -> Result<(usize, Fattr), FsError> {
        let ino = fh_to_ino(fh);
        let attrs = self.host.fs.getattr(ino)?;
        let want = count.min(attrs.size.saturating_sub(offset) as usize);
        let data = self.host.materialize(ino, offset, want)?;
        let n = data.len();
        reply.append_vec(data);
        Ok((n, fattr_of(fh, &attrs)))
    }

    /// The READ hit path — the same code for both engines — up to its
    /// commit point: probes the file system for a fully resident aligned
    /// range ([`Filesystem::walk_resident`]) and resolves every
    /// placeholder of it through the host's cache handle (never the
    /// module's mutex). `None`
    /// means not a pure hit — something cold, a hole, a dangling key, or
    /// fault recovery revalidating key by key — and *nothing* has been
    /// counted or charged anywhere: the caller takes the miss-capable
    /// path with the rig byte-identical. `Some` has counted the
    /// network-centric cache's side; serving it (`finish_read`) counts
    /// the file system's.
    pub fn probe_read(&self, fh: u64, offset: u64, count: usize) -> Option<ReadHit<'_>> {
        // Fault recovery verifies chunk checksums key by key first.
        let logical = self.host.mode != ServerMode::Original && offset.is_multiple_of(BLOCK as u64);
        if self.host.fault_recovery || !logical {
            return None;
        }
        let walk = self.host.fs.walk_resident(fh_to_ino(fh), offset, count)?;
        let resolved = self.host.resolve(walk.blocks().map(|b| (b.seg, b.len)));
        Some(ReadHit {
            walk,
            resolved: resolved.ok()?,
        })
    }

    /// The rest of the READ hit path: counts the file-system side of `hit`
    /// exactly as the per-block walk would have, attaches the (placeholder)
    /// blocks to `reply` by reference, and reads the attributes. Returns
    /// the bytes attached, the attributes, and the resolution for the
    /// transmit hook to splice.
    fn finish_read(
        &self,
        hit: ReadHit<'_>,
        reply: &mut NetBuf,
        fh: u64,
    ) -> (usize, Fattr, Option<Resolved>) {
        let ReadHit { walk, resolved } = hit;
        walk.commit(|_| self.host.fs.ledger().charge_logical_copy());
        let n = attach_blocks(reply, walk.blocks().map(|b| (b.seg, b.len)));
        (n, fattr_of(fh, walk.getattr()), resolved)
    }

    /// The concurrent read fast path: a cache-hit READ — `hit`, which
    /// [`NfsServer::probe_read`] returned for this very request under the
    /// same shared core guard — served end-to-end through `&self`, so many
    /// lanes can run it in parallel. The guard excludes every mutation, so
    /// what the probe saw cannot change underneath us. (`&self` cannot
    /// consult the admission gate: with a control plane installed every
    /// request must take the gated slow path.)
    ///
    /// Byte- and count-exact with the slow path, whose hit arm is this same
    /// code, and like it returns the reply finished by the transmit hook
    /// with the packets substituted: the duplicate-request cache is skipped
    /// (READ is idempotent — the armed DRC never answers it), and so is
    /// the write-back drain (a pure hit displaces nothing, and the drain is
    /// a silent no-op on an empty queue). The per-shard trace deltas are
    /// dropped: under a shared guard other lanes move the same shards.
    pub fn handle_read_fast(&self, mut req: NetBuf, hit: ReadHit<'_>) -> (NetBuf, u64) {
        let counts = self.stats.lane();
        counts.add(REQUESTS, 1);
        let req_bytes = req.payload_len() as u64;
        let call = take_array::<CALL_LEN>(&mut req)
            .and_then(|h| RpcCall::decode(&h).ok())
            .expect("fast path requires a well-formed call");
        let span = self
            .recorder
            .begin_span(proc_name(call.proc), self.host.mode.label(), req_bytes);
        counts.add(READS, 1);
        let args = take_array::<{ ReadArgs::LEN }>(&mut req)
            .and_then(|b| ReadArgs::decode(&b).ok())
            .expect("fast path requires well-formed READ args");
        let mut reply = NetBuf::new(&self.host.ledger);
        let (n, attrs, resolved) = self.finish_read(hit, &mut reply, args.fh);
        counts.add(BYTES_READ, n as u64);
        reply.push_header(
            &ReadReplyHeader {
                status: NFS_OK,
                attrs,
                count: n as u32,
            }
            .encode_array(),
        );
        reply.push_header(&RpcReply::new(call.xid).encode_array());
        let substituted = self
            .host
            .transmit(&mut reply, resolved.map(Resolved::without_shard_deltas));
        self.host.recorder.end_span(span);
        (reply, substituted)
    }

    fn do_write(&mut self, req: &mut NetBuf) -> NetBuf {
        self.stats.add(WRITES, 1);
        let Some(hdr) = take_array::<{ WriteArgsHeader::LEN }>(req)
            .and_then(|b| WriteArgsHeader::decode(&b).ok())
        else {
            return self.garbage_reply();
        };
        let ino = fh_to_ino(hdr.fh);
        let offset = u64::from(hdr.offset);
        let count = (hdr.count as usize).min(req.payload_len());

        let outcome: Result<(), FsError> = match self.host.mode {
            ServerMode::Original => {
                // One copy: network stack → buffer cache. (Extraction via
                // `peek` is free; the file system charges the copy.)
                let data = req.peek(0, count);
                self.host.fs.write(ino, offset, &data)
            }
            ServerMode::NCache => {
                // A write that ends inside a block the file still has
                // bytes past is a read-modify-write of that block, like an
                // unaligned one; a tail block the write reaches the end of
                // the file in is zero past it.
                let aligned = offset % BLOCK as u64 == 0
                    && (count.is_multiple_of(BLOCK)
                        || self.host.fs.getattr(ino).is_ok_and(|i| offset + count as u64 >= i.size));
                if aligned {
                    // Hook 2: park each block's wire segments in the FHO
                    // cache; plant stamps in the buffer cache. Under
                    // memory pressure the control plane bypasses the
                    // insertion — the write serves through the copying
                    // path (charged normally) without displacing cache
                    // state (DESIGN.md §15).
                    let bypass = self.host.bypass_insert();
                    let module = self.host.module.clone().expect("NCache mode has a module");
                    let segs = req.take_payload();
                    self.stamps.clear();
                    let mut admitted = !bypass;
                    for (i, mut group) in split_segments(&segs, BLOCK).enumerate() {
                        if !admitted {
                            break;
                        }
                        // Every chunk is a whole block: a short tail is
                        // padded with zeros that take no storage.
                        let len = group.byte_len();
                        if len < BLOCK {
                            group.push_back(netbuf::Segment::zeroed(BLOCK - len));
                        }
                        let fho = Fho::new(FileHandle(hdr.fh), offset + (i * BLOCK) as u64);
                        match module.borrow_mut().on_nfs_write(fho, group, BLOCK) {
                            Ok(stamp) => self.stamps.push(stamp),
                            Err(_) => {
                                admitted = false;
                                break;
                            }
                        }
                    }
                    if admitted {
                        self.host.fs.write_logical(ino, offset, count, &self.stamps)
                    } else {
                        // Cache full: fall back to the copying path. The
                        // wire segments are still held by `segs`.
                        let mut data = Vec::with_capacity(count);
                        for run in segs.iter().flat_map(netbuf::Segment::runs) {
                            data.extend_from_slice(run);
                        }
                        data.truncate(count);
                        self.host.fs.write(ino, offset, &data)
                    }
                } else {
                    // Unaligned write: merge into the real block contents
                    // (a physical read-modify-write of the boundary
                    // blocks), then store the merged blocks through the
                    // FHO cache like an aligned write.
                    self.unaligned_ncache_write(ino, hdr.fh, offset, count, req)
                }
            }
            ServerMode::Baseline => {
                // Copies removed outright: junk blocks, metadata updated.
                let stamps = vec![KeyStamp::new(); count.div_ceil(BLOCK)];
                self.host.fs.write_logical(ino, offset, count, &stamps)
            }
        };

        self.dirty_blocks_since_sync += (count as u64).div_ceil(4096);
        if self.dirty_blocks_since_sync >= DIRTY_FLUSH_THRESHOLD {
            // Write-behind: flush a batch of the oldest dirty blocks,
            // spreading flush work across requests as bdflush does.
            self.host.fs.sync_some(64).expect("sync");
            self.dirty_blocks_since_sync = self.host.fs.dirty_blocks() as u64;
        }
        let mut r = NetBuf::new(&self.host.ledger);
        match outcome.and_then(|()| self.host.fs.getattr(ino)) {
            Ok(inode) => {
                self.stats.add(BYTES_WRITTEN, count as u64);
                r.push_header(
                    &WriteReply {
                        status: NFS_OK,
                        attrs: fattr_of(hdr.fh, &inode),
                    }
                    .encode_array(),
                );
            }
            Err(e) => {
                self.stats.add(ERRORS, 1);
                r.push_header(
                    &WriteReply {
                        status: status_of(e),
                        ..WriteReply::default()
                    }
                    .encode_array(),
                );
            }
        }
        r
    }
}

/// The span label for an NFS procedure number.
fn proc_name(proc: u32) -> &'static str {
    match proc {
        nfs::proc::GETATTR => "getattr",
        nfs::proc::LOOKUP => "lookup",
        nfs::proc::READ => "read",
        nfs::proc::WRITE => "write",
        nfs::proc::CREATE => "create",
        nfs::proc::REMOVE => "remove",
        nfs::proc::READDIR => "readdir",
        _ => "unknown",
    }
}

/// Pulls an `N`-byte fixed-size header off the payload if available.
fn take_array<const N: usize>(req: &mut NetBuf) -> Option<[u8; N]> {
    (req.payload_len() >= N).then(|| req.pull_array::<N>())
}

/// Pulls the whole remaining reply body and decodes it: from a stack array
/// when the body is exactly the `N`-byte success form (every healthy
/// reply), from the heap otherwise (status-only errors, damaged frames).
/// Either way the pull charges the full remaining length.
fn with_body<const N: usize, T>(rx: &mut NetBuf, decode: impl FnOnce(&[u8]) -> T) -> T {
    if rx.payload_len() == N {
        decode(&rx.pull_array::<N>())
    } else {
        decode(&rx.pull(rx.payload_len()))
    }
}

/// Maps a file system error to an NFS status code.
fn status_of(e: FsError) -> u32 {
    match e {
        FsError::NotFound => NFSERR_NOENT,
        // NFSv2 has EEXIST = 17; the subset folds the rest to EIO.
        FsError::Exists => 17,
        _ => NFSERR_IO,
    }
}

/// File handles are inode numbers (a real server embeds generation
/// numbers; the reproduction does not need them).
pub fn ino_to_fh(ino: Ino) -> u64 {
    u64::from(ino.0)
}

/// Inverse of [`ino_to_fh`].
pub fn fh_to_ino(fh: u64) -> Ino {
    Ino(fh as u32)
}

fn fattr_of(fh: u64, inode: &simfs::inode::Inode) -> Fattr {
    Fattr {
        ftype: match inode.ftype {
            FileType::Regular => NfsFileType::Regular,
            FileType::Directory => NfsFileType::Directory,
        },
        size: inode.size as u32,
        fileid: fh as u32,
        mtime: inode.mtime,
    }
}

/// A minimal NFS client: builds request messages and parses replies.
/// Used by the workload generators and the integration tests.
#[derive(Debug)]
pub struct NfsClient {
    ledger: CopyLedger,
    next_xid: u32,
    /// The client's socket buffers: a WRITE's payload lands on these slabs
    /// one block each, and each comes home when the server lets go of the
    /// block — its FHO chunk evicted or replaced. Made by the first WRITE,
    /// so a client that only reads allocates none.
    pool: Option<BufPool>,
}

impl NfsClient {
    /// A client charging `ledger` (the client machine's CPU).
    pub fn new(ledger: &CopyLedger) -> Self {
        NfsClient::with_xid_base(ledger, 0)
    }

    /// A client whose xids start at `base + 1`. Concurrent sessions need
    /// disjoint xid spaces: the server's duplicate-request cache is keyed
    /// by xid, so two sessions both counting 1, 2, 3… would alias in it
    /// and a retransmission from one session could be answered with the
    /// other's cached reply.
    pub fn with_xid_base(ledger: &CopyLedger, base: u32) -> Self {
        NfsClient {
            ledger: ledger.clone(),
            next_xid: base + 1,
            pool: None,
        }
    }

    /// The slab pool WRITE payloads land on, once a WRITE has made it
    /// (diagnostics/tests).
    pub fn pool(&self) -> Option<&BufPool> {
        self.pool.as_ref()
    }

    /// The xid the next request will carry (diagnostics/tests).
    pub fn peek_xid(&self) -> u32 {
        self.next_xid
    }

    fn xid(&mut self) -> u32 {
        let x = self.next_xid;
        self.next_xid += 1;
        x
    }

    /// Builds a READ request message.
    pub fn read_request(&mut self, fh: u64, offset: u32, count: u32) -> NetBuf {
        let mut b = NetBuf::new(&self.ledger);
        b.push_header(&ReadArgs { fh, offset, count }.encode_array());
        b.push_header(&RpcCall::nfs(self.xid(), nfs::proc::READ).encode_array());
        b
    }

    /// Builds a WRITE request message carrying `data`, one pooled slab per
    /// block.
    pub fn write_request(&mut self, fh: u64, offset: u32, data: &[u8]) -> NetBuf {
        let mut b = NetBuf::new(&self.ledger);
        let pool = self.pool.get_or_insert_with(BufPool::slab_only);
        // A WRITE's slabs come home only once a later write, already
        // landed, replaces or evicts their chunks: keep that write's worth
        // filed as well.
        pool.stock(data.len().div_ceil(SLAB_SIZE).max(1));
        b.append_pooled(pool, data); // client-side copy into the socket
        b.push_header(
            &WriteArgsHeader {
                fh,
                offset,
                count: data.len() as u32,
            }
            .encode_array(),
        );
        b.push_header(&RpcCall::nfs(self.xid(), nfs::proc::WRITE).encode_array());
        b
    }

    /// Builds a GETATTR request message.
    pub fn getattr_request(&mut self, fh: u64) -> NetBuf {
        let mut b = NetBuf::new(&self.ledger);
        b.push_header(&GetattrArgs { fh }.encode_array());
        b.push_header(&RpcCall::nfs(self.xid(), nfs::proc::GETATTR).encode_array());
        b
    }

    /// Builds a LOOKUP request message.
    pub fn lookup_request(&mut self, dir_fh: u64, name: &str) -> NetBuf {
        let mut b = NetBuf::new(&self.ledger);
        b.push_header(
            &LookupArgs {
                dir_fh,
                name: name.to_string(),
            }
            .encode(),
        );
        b.push_header(&RpcCall::nfs(self.xid(), nfs::proc::LOOKUP).encode_array());
        b
    }

    /// Builds a CREATE request message.
    pub fn create_request(&mut self, dir_fh: u64, name: &str) -> NetBuf {
        let mut b = NetBuf::new(&self.ledger);
        b.push_header(
            &CreateArgs {
                dir_fh,
                name: name.to_string(),
            }
            .encode(),
        );
        b.push_header(&RpcCall::nfs(self.xid(), nfs::proc::CREATE).encode_array());
        b
    }

    /// Builds a REMOVE request message.
    pub fn remove_request(&mut self, dir_fh: u64, name: &str) -> NetBuf {
        let mut b = NetBuf::new(&self.ledger);
        b.push_header(
            &LookupArgs {
                dir_fh,
                name: name.to_string(),
            }
            .encode(),
        );
        b.push_header(&RpcCall::nfs(self.xid(), nfs::proc::REMOVE).encode_array());
        b
    }

    /// Builds a READDIR request message.
    pub fn readdir_request(&mut self, fh: u64, cookie: u32, count: u32) -> NetBuf {
        let mut b = NetBuf::new(&self.ledger);
        b.push_header(&ReaddirArgs { fh, cookie, count }.encode_array());
        b.push_header(&RpcCall::nfs(self.xid(), nfs::proc::READDIR).encode_array());
        b
    }

    /// Parses a CREATE reply (a `diropres`, like LOOKUP).
    ///
    /// # Panics
    ///
    /// Panics on malformed replies.
    pub fn parse_create_reply(&self, reply: &NetBuf) -> LookupReply {
        self.parse_lookup_reply(reply)
    }

    /// Parses a REMOVE reply.
    ///
    /// # Panics
    ///
    /// Panics on malformed replies.
    pub fn parse_remove_reply(&self, reply: &NetBuf) -> RemoveReply {
        self.try_parse_remove_reply(reply).expect("remove reply").1
    }

    /// Parses a READDIR reply.
    ///
    /// # Panics
    ///
    /// Panics on malformed replies.
    pub fn parse_readdir_reply(&self, reply: &NetBuf) -> ReaddirReply {
        let mut rx = crate::stack::deliver(reply, &self.ledger);
        let _rpc = RpcReply::decode(&rx.pull_array::<REPLY_LEN>()).expect("RPC reply");
        let body = rx.pull(rx.payload_len());
        ReaddirReply::decode(&body).expect("readdir reply")
    }

    /// Parses a READ reply: returns the header and the payload bytes
    /// (materialized — the client-side receive copy).
    ///
    /// # Panics
    ///
    /// Panics on malformed replies, a payload shorter than the header's
    /// count included (test infrastructure).
    pub fn parse_read_reply(&self, reply: &NetBuf) -> (ReadReplyHeader, Vec<u8>) {
        let (_, hdr, data) = self.try_parse_read_reply(reply).expect("read reply");
        (hdr, data)
    }

    /// Parses a WRITE reply.
    ///
    /// # Panics
    ///
    /// Panics on malformed replies.
    pub fn parse_write_reply(&self, reply: &NetBuf) -> WriteReply {
        self.try_parse_write_reply(reply).expect("write reply").1
    }

    /// Parses a LOOKUP reply.
    ///
    /// # Panics
    ///
    /// Panics on malformed replies.
    pub fn parse_lookup_reply(&self, reply: &NetBuf) -> LookupReply {
        self.try_parse_lookup_reply(reply).expect("lookup reply").1
    }

    /// Parses a GETATTR reply into (status, attributes).
    ///
    /// # Panics
    ///
    /// Panics on malformed replies.
    pub fn parse_getattr_reply(&self, reply: &NetBuf) -> (u32, Option<Fattr>) {
        let (_, status, attrs) = self.try_parse_getattr_reply(reply).expect("getattr reply");
        (status, attrs)
    }

    // --- Strict parsers ------------------------------------------------
    //
    // The one parser per reply: on a lossy link a reply can arrive
    // truncated or bit-flipped, so these validate instead of panicking
    // (the RPC/UDP checksum stand-in) and surface the reply's xid so the
    // retransmission loop can match it against the outstanding call.
    // `None` means: discard and retransmit. The `parse_*` forms above are
    // these plus `expect`, with the same pulls and the one payload copy.

    /// Takes delivery and peels the RPC reply header, validating lengths.
    fn try_open(&self, reply: &NetBuf) -> Option<(u32, NetBuf)> {
        let mut rx = crate::stack::deliver(reply, &self.ledger);
        if rx.payload_len() < REPLY_LEN {
            return None;
        }
        let rpc = RpcReply::decode(&rx.pull_array::<REPLY_LEN>()).ok()?;
        Some((rpc.xid, rx))
    }

    /// Strict [`NfsClient::parse_read_reply`]: `(xid, header, data)`,
    /// or `None` for a damaged reply. A payload shorter than the header's
    /// count (a truncated frame) is damage.
    pub fn try_parse_read_reply(&self, reply: &NetBuf) -> Option<(u32, ReadReplyHeader, Vec<u8>)> {
        let (xid, mut rx) = self.try_open(reply)?;
        if rx.payload_len() < 4 {
            return None;
        }
        let status = u32::from_be_bytes(rx.peek_array::<4>(0));
        if status != NFS_OK {
            let hdr = ReadReplyHeader::decode(&rx.pull_array::<4>()).ok()?;
            return Some((xid, hdr, Vec::new()));
        }
        if rx.payload_len() < ReadReplyHeader::OK_LEN {
            return None;
        }
        let hdr =
            ReadReplyHeader::decode(&rx.pull_array::<{ ReadReplyHeader::OK_LEN }>()).ok()?;
        let data = rx.copy_payload_to_vec();
        if data.len() != hdr.count as usize {
            return None;
        }
        Some((xid, hdr, data))
    }

    /// Strict [`NfsClient::parse_write_reply`]: `(xid, reply)`.
    pub fn try_parse_write_reply(&self, reply: &NetBuf) -> Option<(u32, WriteReply)> {
        let (xid, mut rx) = self.try_open(reply)?;
        let r = with_body::<{ WriteReply::OK_LEN }, _>(&mut rx, WriteReply::decode).ok()?;
        Some((xid, r))
    }

    /// Strict [`NfsClient::parse_lookup_reply`] (also CREATE).
    pub fn try_parse_lookup_reply(&self, reply: &NetBuf) -> Option<(u32, LookupReply)> {
        let (xid, mut rx) = self.try_open(reply)?;
        let r = with_body::<{ LookupReply::OK_LEN }, _>(&mut rx, LookupReply::decode).ok()?;
        Some((xid, r))
    }

    /// Strict [`NfsClient::parse_remove_reply`].
    pub fn try_parse_remove_reply(&self, reply: &NetBuf) -> Option<(u32, RemoveReply)> {
        let (xid, mut rx) = self.try_open(reply)?;
        let body = rx.pull(rx.payload_len());
        Some((xid, RemoveReply::decode(&body).ok()?))
    }

    /// Strict [`NfsClient::parse_getattr_reply`].
    pub fn try_parse_getattr_reply(&self, reply: &NetBuf) -> Option<(u32, u32, Option<Fattr>)> {
        let (xid, mut rx) = self.try_open(reply)?;
        if rx.payload_len() < 4 {
            return None;
        }
        let r = with_body::<{ GetattrReply::OK_LEN }, _>(&mut rx, GetattrReply::decode).ok()?;
        Some((xid, r.status, (r.status == NFS_OK).then_some(r.attrs)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::IscsiTarget;
    use simfs::FsParams;

    fn server(mode: ServerMode) -> (NfsServer, NfsClient) {
        let app = CopyLedger::new();
        let storage = CopyLedger::new();
        let client = CopyLedger::new();
        let target = sim::Shared::new(IscsiTarget::new(16 << 10, &storage));
        let module = (mode == ServerMode::NCache).then(|| {
            sim::Shared::new(ncache::NcacheModule::new(
                ncache::NcacheConfig::with_capacity(8 << 20),
                &app,
            ))
        });
        let initiator =
            crate::initiator::IscsiInitiator::new(target, &app, mode, module.clone());
        let fs = Filesystem::mkfs(initiator, FsParams::default(), &app).expect("mkfs");
        (
            NfsServer::new(ServerHost::new(mode, fs, module, &app)),
            NfsClient::new(&client),
        )
    }

    fn roundtrip(server: &mut NfsServer, req: NetBuf) -> NetBuf {
        let delivered = crate::stack::deliver(&req, &CopyLedger::new());
        server.handle_message(delivered)
    }

    #[test]
    fn stats_count_per_procedure() {
        let (mut srv, mut client) = server(ServerMode::Original);
        let root = srv.root_fh();
        let create = client.create_request(root, "f");
        let reply = roundtrip(&mut srv, create);
        let fh = client.parse_create_reply(&reply).fh;
        roundtrip(&mut srv, client.write_request(fh, 0, &[1u8; 4096]));
        roundtrip(&mut srv, client.read_request(fh, 0, 4096));
        roundtrip(&mut srv, client.getattr_request(fh));
        roundtrip(&mut srv, client.lookup_request(root, "f"));
        roundtrip(&mut srv, client.readdir_request(root, 0, 4096));
        let s = srv.stats();
        assert_eq!(s.requests, 6);
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.metadata_ops, 4);
        assert_eq!(s.bytes_read, 4096);
        assert_eq!(s.bytes_written, 4096);
        assert_eq!(s.errors, 0);
    }

    #[test]
    fn recorder_sees_balanced_spans_per_request() {
        let (mut srv, mut client) = server(ServerMode::NCache);
        let rec = obs::Recorder::new();
        rec.enable(obs::TraceConfig::default());
        srv.set_recorder(rec.clone());
        let root = srv.root_fh();
        let create = client.create_request(root, "f");
        let reply = roundtrip(&mut srv, create);
        let fh = client.parse_create_reply(&reply).fh;
        roundtrip(&mut srv, client.write_request(fh, 0, &[1u8; 4096]));
        roundtrip(&mut srv, client.read_request(fh, 0, 4096));
        assert!(rec.spans_balanced(), "every request span must close");
        assert_eq!(rec.spans_opened(), 3);
        assert_eq!(rec.counter("requests"), 3);
        assert_eq!(rec.counter("requests.ncache.create"), 1);
        assert_eq!(rec.counter("requests.ncache.write"), 1);
        assert_eq!(rec.counter("requests.ncache.read"), 1);
        // The data plane under the server reported into the same recorder:
        // the write inserted into the FHO tier, the read hit somewhere.
        assert!(rec.counter("cache.ncache-fho.insertions") >= 1);
    }

    #[test]
    fn reply_carries_the_calls_xid() {
        let (mut srv, mut client) = server(ServerMode::NCache);
        let root = srv.root_fh();
        let req = client.getattr_request(root);
        // Recover the xid this request carries.
        let xid = proto::rpc::RpcCall::decode(req.header()).expect("call").xid;
        let reply = roundtrip(&mut srv, req);
        let mut rx = crate::stack::deliver(&reply, &CopyLedger::new());
        let rpc = proto::rpc::RpcReply::decode(&rx.pull_array::<REPLY_LEN>()).expect("reply");
        assert_eq!(rpc.xid, xid);
    }

    #[test]
    fn fh_mapping_round_trips() {
        assert_eq!(fh_to_ino(ino_to_fh(Ino(42))), Ino(42));
        assert_eq!(ino_to_fh(Filesystem::<crate::IscsiInitiator>::ROOT), 0);
    }

    #[test]
    fn getattr_reports_directory_type_for_root() {
        let (mut srv, mut client) = server(ServerMode::Original);
        let root = srv.root_fh();
        let reply = roundtrip(&mut srv, client.getattr_request(root));
        let (status, attrs) = client.parse_getattr_reply(&reply);
        assert_eq!(status, NFS_OK);
        assert_eq!(
            attrs.expect("attrs").ftype,
            proto::nfs::FileType::Directory
        );
    }

    #[test]
    fn unaligned_read_falls_back_to_copying_in_ncache_mode() {
        let (mut srv, mut client) = server(ServerMode::NCache);
        let root = srv.root_fh();
        let reply = roundtrip(&mut srv, client.create_request(root, "u"));
        let fh = client.parse_create_reply(&reply).fh;
        roundtrip(&mut srv, client.write_request(fh, 0, &[7u8; 8192]));
        // An unaligned read must still return correct bytes.
        let reply = roundtrip(&mut srv, client.read_request(fh, 100, 1000));
        let (hdr, data) = client.parse_read_reply(&reply);
        assert_eq!(hdr.status, NFS_OK);
        assert_eq!(data, vec![7u8; 1000]);
    }

    #[test]
    fn retransmitted_write_is_never_reexecuted_below_the_window() {
        let (mut srv, mut client) = server(ServerMode::NCache);
        srv.set_fault_recovery(true);
        let root = srv.root_fh();
        let reply = roundtrip(&mut srv, client.create_request(root, "w"));
        let fh = client.parse_create_reply(&reply).fh;
        let req = client.write_request(fh, 0, &[5u8; 4096]);
        let first = srv.handle_message(crate::stack::deliver(&req, &CopyLedger::new()));
        // The client timed out and resends the identical call (same xid).
        let second = srv.handle_message(crate::stack::deliver(&req, &CopyLedger::new()));
        assert_eq!(first.header(), second.header(), "cached reply bytes");
        let s = srv.stats();
        assert_eq!(s.writes, 1, "the WRITE executed exactly once");
        assert_eq!(s.bytes_written, 4096);
        assert_eq!(s.drc_hits, 1);
        assert_eq!(s.drc_inserts, 2, "CREATE and WRITE are both cached");
        let reply = roundtrip(&mut srv, client.read_request(fh, 0, 4096));
        assert_eq!(client.parse_read_reply(&reply).1, vec![5u8; 4096]);
    }

    #[test]
    fn drc_eviction_is_counted_and_reopens_the_window() {
        let (mut srv, mut client) = server(ServerMode::Original);
        srv.set_fault_recovery(true);
        srv.set_drc_capacity(2);
        let root = srv.root_fh();
        let reply = roundtrip(&mut srv, client.create_request(root, "e"));
        let fh = client.parse_create_reply(&reply).fh;
        let oldest = client.write_request(fh, 0, &[1u8; 512]);
        srv.handle_message(crate::stack::deliver(&oldest, &CopyLedger::new()));
        roundtrip(&mut srv, client.write_request(fh, 512, &[2u8; 512]));
        roundtrip(&mut srv, client.write_request(fh, 1024, &[3u8; 512]));
        // CREATE + 3 WRITEs against depth 2: the two oldest entries fell out.
        assert_eq!(srv.stats().drc_evictions, 2);
        // A retransmission from past the window is re-executed, not served
        // from cache — the window is the guarantee's boundary.
        srv.handle_message(crate::stack::deliver(&oldest, &CopyLedger::new()));
        let s = srv.stats();
        assert_eq!(s.drc_hits, 0);
        assert_eq!(s.writes, 4, "evicted xid re-executes");
    }

    #[test]
    fn enable_control_sizes_the_drc_from_the_admission_bound() {
        let (mut srv, mut client) = server(ServerMode::Original);
        srv.set_fault_recovery(true);
        // A deliberately tiny depth, then the control plane re-sizes it to
        // 2 x max_inflight (floor DRC_CAPACITY) so a full burst of
        // retransmissions cannot evict an entry inside the window.
        srv.set_drc_capacity(1);
        let cfg = crate::control::ControlConfig {
            max_inflight: 100,
            ..crate::control::ControlConfig::unlimited()
        };
        srv.enable_control(cfg);
        let root = srv.root_fh();
        let reply = roundtrip(&mut srv, client.create_request(root, "c"));
        let fh = client.parse_create_reply(&reply).fh;
        for k in 0..199u64 {
            roundtrip(&mut srv, client.write_request(fh, (k * 512) as u32, &[9u8; 512]));
        }
        // CREATE + 199 WRITEs exactly fill the re-sized depth of 200.
        assert_eq!(srv.stats().drc_evictions, 0);
        roundtrip(&mut srv, client.write_request(fh, 0, &[9u8; 512]));
        assert_eq!(srv.stats().drc_evictions, 1, "201st entry evicts");
    }

    #[test]
    fn disjoint_xid_bases_do_not_alias_in_the_drc() {
        let (mut srv, _) = server(ServerMode::Original);
        srv.set_fault_recovery(true);
        let ledger = CopyLedger::new();
        let mut a = NfsClient::with_xid_base(&ledger, 0);
        let mut b = NfsClient::with_xid_base(&ledger, 1 << 16);
        assert_ne!(a.peek_xid(), b.peek_xid());
        let root = srv.root_fh();
        let reply = roundtrip(&mut srv, a.create_request(root, "x"));
        let fh = a.parse_create_reply(&reply).fh;
        let wa = a.write_request(fh, 0, &[1u8; 512]);
        let wb = b.write_request(fh, 512, &[2u8; 512]);
        srv.handle_message(crate::stack::deliver(&wa, &CopyLedger::new()));
        srv.handle_message(crate::stack::deliver(&wb, &CopyLedger::new()));
        // Both retransmissions hit their own cached reply; neither write
        // re-executes.
        srv.handle_message(crate::stack::deliver(&wa, &CopyLedger::new()));
        srv.handle_message(crate::stack::deliver(&wb, &CopyLedger::new()));
        let s = srv.stats();
        assert_eq!(s.drc_hits, 2);
        assert_eq!(s.writes, 2);
    }

    #[test]
    fn nfs_server_moves_across_threads() {
        // Regression: the server (file system, initiator, NCache module)
        // must stay `Send` so the lane-parallel engine can serve requests
        // from worker threads behind one lock — and `Sync`, because the
        // read fast path serves concurrent READs through a shared
        // `&NfsServer` under the core lock's read guard.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NfsServer>();
        let (mut srv, mut client) = server(ServerMode::NCache);
        let root = srv.root_fh();
        let reply = roundtrip(&mut srv, client.create_request(root, "t"));
        let fh = client.parse_create_reply(&reply).fh;
        let handle = std::thread::spawn(move || {
            roundtrip(&mut srv, client.write_request(fh, 0, &[3u8; 4096]));
            let reply = roundtrip(&mut srv, client.read_request(fh, 0, 4096));
            client.parse_read_reply(&reply).1
        });
        assert_eq!(handle.join().expect("worker"), vec![3u8; 4096]);
    }
}
