//! The in-kernel NFS server, in the paper's three builds, plus a test
//! client.
//!
//! The server is transport-agnostic: it consumes a delivered RPC message
//! (UDP payload, headers already pulled by [`crate::stack`]) and produces
//! the reply message. Per §3.3, only two packet kinds touch the
//! network-centric cache: incoming **WRITE request payloads** (cached under
//! FHO keys) and outgoing **READ reply payloads** (substituted at the
//! driver hook). Everything else — GETATTR, LOOKUP, READDIR, and all reply
//! headers — travels the ordinary copying path in every build. The daemon
//! itself is protocol only: what differs per build is [`ServerHost`]'s.

use std::collections::VecDeque;

use netbuf::{BufPool, CopyLedger, NetBuf, SLAB_SIZE};
use proto::nfs::{
    self, CreateArgs, Fattr, FileType as NfsFileType, GetattrArgs, GetattrReply, LookupArgs,
    LookupReply, ReadArgs, ReadReplyHeader, ReaddirArgs, ReaddirReply, RemoveReply,
    WriteArgsHeader, WriteReply, NFSERR_IO, NFSERR_JUKEBOX, NFSERR_NOENT, NFS_OK,
};
use proto::rpc::{RpcCall, RpcReply, CALL_LEN, REPLY_LEN};
use simfs::inode::FileType;
use sim::LaneCounters;
use simfs::{Filesystem, FsError, Ino};

use crate::control::OpClass;
use crate::host::{KeyedHit, Pending, RangeRead, ServerHost};
use crate::initiator::IscsiInitiator;

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
    /// Duplicate-request cache: recent (xid, complete reply bytes) for
    /// WRITE/CREATE/REMOVE, newest at the back. Consulted only with
    /// fault recovery armed.
    drc: VecDeque<(u32, Vec<u8>)>,
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

impl NfsServer {
    /// The NFS daemon over `host`.
    pub fn new(host: ServerHost) -> Self {
        NfsServer {
            host,
            stats: StatsCells::default(),
            drc: VecDeque::new(),
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
            0 => DRC_CAPACITY,
            bound => DRC_CAPACITY.max(2 * bound as usize),
        }
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
                .begin_span("malformed", self.host.build_label(), req_bytes);
            self.stats.add(ERRORS, 1);
            let mut r = self.host.header_only(&NFSERR_IO.to_be_bytes());
            r.push_header(&RpcReply::new(0).encode_array());
            self.host.recorder.end_span(span);
            return (r, 0);
        };
        let span =
            self.recorder
                .begin_span(proc_name(call.proc), self.host.build_label(), req_bytes);
        // Duplicate-request cache: a retransmission of a non-idempotent
        // call (the client timed out on a lost reply) is answered with the
        // original reply bytes, never re-executed.
        if self.host.fault_recovery && non_idempotent(call.proc) {
            if let Some((_, bytes)) = self.drc.iter().find(|(xid, _)| *xid == call.xid) {
                self.stats.add(DRC_HITS, 1);
                let r = self.host.header_only(bytes);
                self.host.recorder.add_counter("fault.drc_hits", 1);
                self.host.recorder.end_span(span);
                return (r, 0);
            }
        }
        // Admission control: past the duplicate-request cache (a cached
        // reply costs nothing to resend) but before any execution. A
        // rejected call has no side effects and is never cached, so a
        // later retransmission of the same xid re-decides admission. The
        // rejection is [`NFSERR_JUKEBOX`] in the status-only error form
        // every procedure's reply shares, so each client's own decoder
        // reads it as retryable; the client's
        // [`crate::control::RetryPolicy`] owns the backoff schedule.
        if self.host.admit(op_class(call.proc)).is_some() {
            let mut r = self.host.header_only(&NFSERR_JUKEBOX.to_be_bytes());
            r.push_header(&RpcReply::new(call.xid).encode_array());
            self.host.recorder.end_span(span);
            return (r, 0);
        }
        let mut pending = Pending::default();
        let mut reply = match call.proc {
            nfs::proc::GETATTR => self.do_getattr(&mut req),
            nfs::proc::LOOKUP => self.do_lookup(&mut req),
            nfs::proc::READ => {
                let (reply, resolution) = self.do_read(&mut req);
                pending = resolution;
                reply
            }
            nfs::proc::WRITE => self.do_write(&mut req),
            nfs::proc::CREATE => self.do_create(&mut req),
            nfs::proc::REMOVE => self.do_remove(&mut req),
            nfs::proc::READDIR => self.do_readdir(&mut req),
            _ => self.garbage_reply(),
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
        let substituted = self.host.transmit(&mut reply, pending);
        self.host.recorder.end_span(span);
        (reply, substituted)
    }

    fn do_create(&mut self, req: &mut NetBuf) -> NetBuf {
        self.stats.add(METADATA_OPS, 1);
        let body = req.pull(req.payload_len());
        let Some(args) = CreateArgs::decode(&body).ok() else {
            return self.garbage_reply();
        };
        let r = NetBuf::new(&self.host.ledger);
        let created = self.host.fs.create(fh_to_ino(args.dir_fh), &args.name);
        self.diropres(r, created)
    }

    /// Finishes `r` as the `diropres` reply of LOOKUP and CREATE: the
    /// handle and the attributes of the file `found` names.
    fn diropres(&mut self, mut r: NetBuf, found: Result<Ino, FsError>) -> NetBuf {
        let found = found.and_then(|ino| self.host.fs.getattr(ino).map(|inode| (ino, inode)));
        let reply = match found {
            Ok((ino, inode)) => {
                let fh = ino_to_fh(ino);
                LookupReply {
                    status: NFS_OK,
                    fh,
                    attrs: fattr_of(fh, &inode),
                }
            }
            Err(e) => {
                self.stats.add(ERRORS, 1);
                LookupReply {
                    status: status_of(e),
                    ..LookupReply::default()
                }
            }
        };
        r.push_header(&reply.encode_array());
        r
    }

    fn do_remove(&mut self, req: &mut NetBuf) -> NetBuf {
        self.stats.add(METADATA_OPS, 1);
        let body = req.pull(req.payload_len());
        let Some(args) = LookupArgs::decode(&body).ok() else {
            return self.garbage_reply();
        };
        let mut r = NetBuf::new(&self.host.ledger);
        let status = match self.host.remove(fh_to_ino(args.dir_fh), &args.name) {
            Ok(()) => NFS_OK,
            Err(e) => {
                self.stats.add(ERRORS, 1);
                status_of(e)
            }
        };
        r.push_header(&RemoveReply { status }.encode());
        r
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

    /// Error reply for requests whose body fails to parse.
    fn garbage_reply(&mut self) -> NetBuf {
        self.stats.add(ERRORS, 1);
        self.host.header_only(&NFSERR_IO.to_be_bytes())
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
        let r = NetBuf::new(&self.host.ledger);
        let found = self.host.fs.lookup(fh_to_ino(args.dir_fh), &args.name);
        self.diropres(r, found)
    }

    fn do_read(&mut self, req: &mut NetBuf) -> (NetBuf, Pending) {
        self.stats.add(READS, 1);
        let Some(args) = take_array::<{ ReadArgs::LEN }>(req)
            .and_then(|b| ReadArgs::decode(&b).ok())
        else {
            return (self.garbage_reply(), Pending::default());
        };
        let mut reply = NetBuf::new(&self.host.ledger);
        let read = self.host.read(
            fh_to_ino(args.fh),
            u64::from(args.offset),
            args.count as usize,
            &mut reply,
        );
        match read {
            Ok(read) => {
                self.stats.add(BYTES_READ, read.len as u64);
                push_read_header(&mut reply, args.fh, &read);
                (reply, read.pending)
            }
            Err(e) => {
                self.stats.add(ERRORS, 1);
                let header = ReadReplyHeader {
                    status: status_of(e),
                    ..ReadReplyHeader::default()
                };
                (
                    self.host.header_only(&header.encode_array()),
                    Pending::default(),
                )
            }
        }
    }

    /// The concurrent read fast path: a cache-hit READ — `hit`, which
    /// [`ServerHost::probe_keyed`] returned for this very request under the
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
    /// a silent no-op on an empty queue).
    pub fn handle_read_fast(&self, mut req: NetBuf, hit: KeyedHit<'_>) -> (NetBuf, u64) {
        let counts = self.stats.lane();
        counts.add(REQUESTS, 1);
        let req_bytes = req.payload_len() as u64;
        let call = take_array::<CALL_LEN>(&mut req)
            .and_then(|h| RpcCall::decode(&h).ok())
            .expect("fast path requires a well-formed call");
        let span =
            self.recorder
                .begin_span(proc_name(call.proc), self.host.build_label(), req_bytes);
        counts.add(READS, 1);
        let args = take_array::<{ ReadArgs::LEN }>(&mut req)
            .and_then(|b| ReadArgs::decode(&b).ok())
            .expect("fast path requires well-formed READ args");
        let mut reply = NetBuf::new(&self.host.ledger);
        let read = self.host.serve_hit(hit, &mut reply, true);
        counts.add(BYTES_READ, read.len as u64);
        push_read_header(&mut reply, args.fh, &read);
        reply.push_header(&RpcReply::new(call.xid).encode_array());
        let substituted = self.host.splice(&mut reply, read.pending);
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
        let count = (hdr.count as usize).min(req.payload_len());
        let outcome = self.host.write(ino, u64::from(hdr.offset), count, req);
        let mut r = NetBuf::new(&self.host.ledger);
        let reply = match outcome.and_then(|()| self.host.fs.getattr(ino)) {
            Ok(inode) => {
                self.stats.add(BYTES_WRITTEN, count as u64);
                WriteReply {
                    status: NFS_OK,
                    attrs: fattr_of(hdr.fh, &inode),
                }
            }
            Err(e) => {
                self.stats.add(ERRORS, 1);
                WriteReply {
                    status: status_of(e),
                    ..WriteReply::default()
                }
            }
        };
        r.push_header(&reply.encode_array());
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

/// Prepends a successful READ's reply header, attributes included.
fn push_read_header(reply: &mut NetBuf, fh: u64, read: &RangeRead) {
    let attrs = read.attrs.as_ref().expect("a READ reads the attributes");
    let header = ReadReplyHeader {
        status: NFS_OK,
        attrs: fattr_of(fh, attrs),
        count: read.len as u32,
    };
    reply.push_header(&header.encode_array());
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

    fn xid(&mut self) -> u32 {
        let x = self.next_xid;
        self.next_xid += 1;
        x
    }

    /// A call of `proc` carrying the encoded `args` and no payload.
    fn call(&mut self, proc: u32, args: &[u8]) -> NetBuf {
        let mut b = NetBuf::new(&self.ledger);
        b.push_header(args);
        b.push_header(&RpcCall::nfs(self.xid(), proc).encode_array());
        b
    }

    /// Builds a READ request message.
    pub fn read_request(&mut self, fh: u64, offset: u32, count: u32) -> NetBuf {
        let args = ReadArgs { fh, offset, count }.encode_array();
        self.call(nfs::proc::READ, &args)
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
        self.call(nfs::proc::GETATTR, &GetattrArgs { fh }.encode_array())
    }

    /// Builds a LOOKUP request message.
    pub fn lookup_request(&mut self, dir_fh: u64, name: &str) -> NetBuf {
        let name = name.to_string();
        self.call(nfs::proc::LOOKUP, &LookupArgs { dir_fh, name }.encode())
    }

    /// Builds a CREATE request message.
    pub fn create_request(&mut self, dir_fh: u64, name: &str) -> NetBuf { // test-api: namespace_ops and range_model drive CREATE
        let name = name.to_string();
        self.call(nfs::proc::CREATE, &CreateArgs { dir_fh, name }.encode())
    }

    /// Builds a REMOVE request message.
    pub fn remove_request(&mut self, dir_fh: u64, name: &str) -> NetBuf { // test-api: namespace_ops and range_model drive REMOVE
        let name = name.to_string();
        self.call(nfs::proc::REMOVE, &LookupArgs { dir_fh, name }.encode())
    }

    /// Builds a READDIR request message.
    pub fn readdir_request(&mut self, fh: u64, cookie: u32, count: u32) -> NetBuf { // test-api: namespace_ops drives READDIR
        let args = ReaddirArgs { fh, cookie, count }.encode_array();
        self.call(nfs::proc::READDIR, &args)
    }

    /// Parses a CREATE reply (a `diropres`, like LOOKUP).
    ///
    /// # Panics
    ///
    /// Panics on malformed replies.
    pub fn parse_create_reply(&self, reply: &NetBuf) -> LookupReply { // test-api: namespace_ops and range_model drive CREATE
        self.parse_lookup_reply(reply)
    }

    /// Parses a REMOVE reply.
    ///
    /// # Panics
    ///
    /// Panics on malformed replies.
    pub fn parse_remove_reply(&self, reply: &NetBuf) -> RemoveReply { // test-api: namespace_ops and range_model drive REMOVE
        self.try_parse_remove_reply(reply).expect("remove reply").1
    }

    /// Parses a READDIR reply.
    ///
    /// # Panics
    ///
    /// Panics on malformed replies.
    pub fn parse_readdir_reply(&self, reply: &NetBuf) -> ReaddirReply { // test-api: namespace_ops drives READDIR
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
    use crate::mode::ServerMode;
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
            NfsClient::with_xid_base(&client, 0),
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
    fn write_behind_counts_the_blocks_a_write_dirtied() {
        for mode in [ServerMode::Original, ServerMode::NCache] {
            let (mut srv, mut client) = server(mode);
            let root = srv.root_fh();
            let reply = roundtrip(&mut srv, client.create_request(root, "d"));
            let fh = client.parse_create_reply(&reply).fh;
            let mut dirtied = |offset: u32, len: usize| {
                let before = srv.dirty_blocks_since_sync;
                roundtrip(&mut srv, client.write_request(fh, offset, &vec![1u8; len]));
                srv.dirty_blocks_since_sync - before
            };
            assert_eq!(dirtied(4050, 100), 2, "{mode}: 100 bytes across a block boundary");
            assert_eq!(dirtied(10, 100), 1, "{mode}: 100 bytes inside a block");
            assert_eq!(dirtied(8192, 8192), 2, "{mode}: two whole blocks");
            assert_eq!(dirtied(16384, 5000), 2, "{mode}: a block and a short tail");
        }
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
        let root = srv.root_fh();
        let reply = roundtrip(&mut srv, client.create_request(root, "e"));
        let fh = client.parse_create_reply(&reply).fh;
        let oldest = client.write_request(fh, 0, &[1u8; 512]);
        srv.handle_message(crate::stack::deliver(&oldest, &CopyLedger::new()));
        for k in 1..=DRC_CAPACITY as u32 {
            roundtrip(&mut srv, client.write_request(fh, k * 512, &[2u8; 512]));
        }
        // CREATE + 129 WRITEs against depth 128: the two oldest entries fell out.
        assert_eq!(srv.stats().drc_evictions, 2);
        // A retransmission from past the window is re-executed, not served
        // from cache — the window is the guarantee's boundary.
        srv.handle_message(crate::stack::deliver(&oldest, &CopyLedger::new()));
        let s = srv.stats();
        assert_eq!(s.drc_hits, 0);
        assert_eq!(s.writes, DRC_CAPACITY as u64 + 2, "evicted xid re-executes");
    }

    #[test]
    fn enable_control_sizes_the_drc_from_the_admission_bound() {
        let (mut srv, mut client) = server(ServerMode::Original);
        srv.set_fault_recovery(true);
        // The control plane re-sizes the depth of 128 to 2 x max_inflight
        // (floor DRC_CAPACITY) so a full burst of retransmissions cannot
        // evict an entry inside the window.
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
