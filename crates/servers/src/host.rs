//! The pass-through server host: everything the NFS daemon and kHTTPd
//! share, written once, and the only place in the daemon path that names
//! the build.
//!
//! The paper's point is that NCache is application-independent — the same
//! module sits under both daemons with the daemons untouched (Table 1):
//! logical copying lives in the kernel's shared read, write and sendfile
//! paths, and the header/body split is classified on the transmit side.
//! So here: the build, the file system over the iSCSI initiator, the
//! module and its cache handle, the node's copy ledger, the recorder,
//! fault recovery, the overload control plane, write-behind, the
//! degradation path, and one body per operation (`ServerHost::read`,
//! `ServerHost::write`, `ServerHost::remove`, `ServerHost::sendfile`,
//! `ServerHost::transmit` and `ServerHost::transmit_stream`) are not
//! NFS or HTTP. A server is a [`ServerHost`] plus its codec, its op
//! handlers and its own counters ([`crate::nfs::NfsServer`] adds the
//! duplicate-request cache); both deref to the host, so `server.fs_mut()`
//! is the host's method on either. A read's `Pending` resolution passes
//! through the daemon to the transmit hook unopened.

use std::ops::Range;

use ncache::{HttpTxTracker, NcacheModule, NetCacheShards, Resolved, TxDisposition};
use netbuf::key::{Fho, FileHandle, KeyStamp, Lbn};
use netbuf::{CopyLedger, NetBuf, SegChain, Segment};
use simfs::fs::{LogicalBlock, ResidentWalk};
use simfs::inode::Inode;
use simfs::{Filesystem, FsError, Ino};

use crate::control::{ControlConfig, ControlPlane, ControlStats, Decision, OpClass, Pressure};
use crate::initiator::IscsiInitiator;
use crate::mode::ServerMode;
use crate::nfs::ino_to_fh;
use crate::util::split_segments;

const BLOCK: usize = simfs::BLOCK_SIZE;

/// Dirty blocks accumulated before the host flushes, modelling the
/// kernel's periodic write-back (bdflush). Keeping this low is also what
/// makes §3.4's remap-before-LBN-flush ordering hold: dirty placeholder
/// buffers leave the (small) file-system cache quickly, remapping their
/// FHO chunks so the network-centric cache never fills with unremapped
/// dirty entries.
const DIRTY_FLUSH_THRESHOLD: u64 = 256;

/// The file blocks `[offset, offset + len)` touches.
fn blocks_of(offset: u64, len: u64) -> Range<u64> {
    offset / BLOCK as u64..(offset + len).div_ceil(BLOCK as u64)
}

/// The application-independent half of a pass-through server.
#[derive(Debug)]
pub struct ServerHost {
    mode: ServerMode,
    pub(crate) fs: Filesystem<IscsiInitiator>,
    module: Option<sim::Shared<NcacheModule>>,
    /// The module's cache handle replies resolve and transmit through —
    /// `Some` only under NCache with substitution on — so neither step
    /// takes the module's mutex.
    cache: Option<NetCacheShards>,
    /// Whether substituted replies inherit stored checksums (off only in
    /// the ablation).
    csum_inherit: bool,
    pub(crate) ledger: CopyLedger,
    pub(crate) recorder: obs::Recorder,
    /// Fault recovery armed: placeholder revalidation verifies chunk
    /// integrity (invalidating corrupt entries), and the NFS server's
    /// duplicate-request cache answers retransmitted non-idempotent calls.
    pub(crate) fault_recovery: bool,
    /// The overload control plane, when installed (off by default — a
    /// server without one behaves exactly as before).
    control: Option<ControlPlane>,
    /// Blocks written since write-behind last flushed.
    pub(crate) dirty_blocks_since_sync: u64,
    /// The key stamps of the logical WRITE being served: cleared when one
    /// starts, never shrunk, so a WRITE allocates no list.
    stamps: Vec<KeyStamp>,
    /// The blocks the keyed read's miss-capable path fetched: emptied
    /// after each read, never shrunk, so a miss allocates no list.
    fetched: Vec<LogicalBlock>,
    /// The transmit-stream tracker of kHTTPd's one connection: it re-arms
    /// after each complete response.
    pub(crate) tracker: HttpTxTracker,
}

/// A reply's pending resolution: what the transmit hook splices.
#[derive(Debug, Default)]
pub(crate) struct Pending(Option<Resolved>);

/// A keyed read established as a pure hit and counted on the
/// network-centric cache's side, not yet on the file system's
/// ([`ServerHost::probe_keyed`]).
#[derive(Debug)]
pub struct KeyedHit<'a> {
    walk: ResidentWalk<'a>,
    pending: Pending,
}

/// What a read of a range attached to a reply.
#[derive(Debug)]
pub(crate) struct RangeRead {
    /// Payload bytes attached.
    pub(crate) len: usize,
    /// The resolution the transmit hook splices.
    pub(crate) pending: Pending,
    /// The file's attributes — when asked for.
    pub(crate) attrs: Option<Inode>,
}

impl ServerHost {
    /// A host in `mode` over `fs`. The module must be the same one the
    /// file system's initiator uses.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is [`ServerMode::NCache`] but no module is given.
    pub fn new(
        mode: ServerMode,
        fs: Filesystem<IscsiInitiator>,
        module: Option<sim::Shared<NcacheModule>>,
        ledger: &CopyLedger,
    ) -> Self {
        assert!(
            mode != ServerMode::NCache || module.is_some(),
            "NCache mode requires the NCache module"
        );
        let (cache, csum_inherit) = module.as_ref().map_or((None, true), |m| {
            let m = m.borrow();
            (m.resolver(), m.config().csum_inherit)
        });
        ServerHost {
            mode,
            fs,
            module,
            cache,
            csum_inherit,
            ledger: ledger.clone(),
            recorder: obs::Recorder::new(),
            fault_recovery: false,
            control: None,
            dirty_blocks_since_sync: 0,
            stamps: Vec::new(),
            fetched: Vec::new(),
            tracker: HttpTxTracker::new(),
        }
    }

    /// Installs the overload control plane (see
    /// [`crate::control::AdmissionGate`] for the policy).
    pub fn enable_control(&mut self, cfg: ControlConfig) {
        self.control = Some(ControlPlane::new(cfg));
    }

    /// Reports the timing layer's load to the control plane: the current
    /// in-flight depth. The next request's sim arrival instant, `_now_ns`,
    /// is unread — no admission policy depends on it. No-op without an
    /// installed plane.
    pub fn set_load(&mut self, _now_ns: u64, inflight: u64) {
        if let Some(cp) = &mut self.control {
            cp.set_load(inflight);
        }
    }

    /// The control plane's counters, when one is installed.
    pub fn control_stats(&self) -> Option<ControlStats> {
        self.control.as_ref().map(|cp| cp.stats())
    }

    /// Total control-plane rejections so far (0 without a plane) — the
    /// timing rigs diff this across a request to detect a rejection.
    pub fn control_rejections(&self) -> u64 {
        self.control.as_ref().map_or(0, |cp| cp.stats().rejected)
    }

    /// The installed plane's bound on in-flight requests (0 without a
    /// plane, or with one that does not bound the depth) — the NFS
    /// daemon sizes its duplicate-request cache from it.
    pub(crate) fn control_max_inflight(&self) -> u64 {
        self.control.as_ref().map_or(0, |cp| cp.config().max_inflight)
    }

    /// Samples the backpressure signal from the layers below: the
    /// buffer cache's dirty ratio and the NCache's pinned occupancy.
    fn pressure(&self) -> Pressure {
        let ncache_permille = self.module.as_ref().map_or(0, |m| {
            let m = m.borrow();
            let cap = m.config().capacity_bytes.max(1);
            ((m.pinned_bytes().saturating_mul(1000)) / cap).min(1000) as u32
        });
        Pressure {
            dirty_permille: self.fs.cache_dirty_permille(),
            ncache_permille,
        }
    }

    /// The installed plane and the backpressure it decides under.
    fn gate(&mut self) -> Option<(&mut ControlPlane, Pressure)> {
        let pressure = self.control.is_some().then(|| self.pressure())?;
        Some((self.control.as_mut()?, pressure))
    }

    /// The admission decision for one well-formed request of `class`,
    /// taken ahead of any execution: `Some(after_ns)` means reject with a
    /// retryable error carrying that backoff hint (and is counted as
    /// `control.rejected`); `None` means execute — always, without a plane.
    pub(crate) fn admit(&mut self, class: OpClass) -> Option<u64> {
        let (plane, pressure) = self.gate()?;
        let Decision::RetryLater { after_ns } = plane.decide(class, &pressure) else {
            return None;
        };
        self.recorder.add_counter("control.rejected", 1);
        Some(after_ns)
    }

    /// Whether an NCache insertion should be bypassed under memory
    /// pressure (counted as `control.insert_bypass`): the write then
    /// serves through the copying path without displacing cache state
    /// (DESIGN.md §15). Never without a plane.
    fn bypass_insert(&mut self) -> bool {
        let bypass = self
            .gate()
            .is_some_and(|(plane, pressure)| plane.bypass_insert(&pressure));
        if bypass {
            self.recorder.add_counter("control.insert_bypass", 1);
        }
        bypass
    }

    /// Arms fault recovery: placeholder revalidation verifies stored chunk
    /// checksums, invalidating corrupt entries so replies degrade to the
    /// copying path instead of shipping a poisoned chunk; the NFS server
    /// additionally answers retransmitted WRITE/CREATE/REMOVE calls from
    /// its duplicate-request cache (never re-executed).
    pub fn set_fault_recovery(&mut self, on: bool) {
        self.fault_recovery = on;
    }

    /// Wires a trace recorder through the server-side stack: per-request
    /// spans in the daemon, plus the file system, its initiator, and the
    /// NCache module when present.
    pub fn set_recorder(&mut self, rec: obs::Recorder) {
        self.fs.set_recorder(rec.clone());
        self.fs.store_mut().set_recorder(rec.clone());
        if let Some(module) = &self.module {
            module.borrow_mut().set_recorder(rec.clone());
        }
        self.recorder = rec;
    }

    /// A bodiless reply carrying `header`.
    pub(crate) fn header_only(&self, header: &[u8]) -> NetBuf {
        let mut r = NetBuf::new(&self.ledger);
        r.push_header(header);
        r
    }

    /// The build's label, for span names.
    pub(crate) fn build_label(&self) -> &'static str {
        self.mode.label()
    }

    /// The file system (for test setup: creating files, syncing).
    pub fn fs_mut(&mut self) -> &mut Filesystem<IscsiInitiator> {
        &mut self.fs
    }

    /// The NCache module, when running that build.
    pub fn module(&self) -> Option<&sim::Shared<NcacheModule>> {
        self.module.as_ref()
    }

    /// The recorder wired through this server (disabled unless
    /// [`Self::set_recorder`] ran).
    pub fn recorder(&self) -> &obs::Recorder {
        &self.recorder
    }

    /// Resolves a logical reply's placeholders, all or nothing, ahead of
    /// transmission — the commit point of a READ (DESIGN.md §9.2).
    /// An empty resolution when the build substitutes nothing; `Err`
    /// carries the first dangling block, nothing has been counted, and the
    /// request must degrade.
    fn resolve<'s>(
        &self,
        blocks: impl ExactSizeIterator<Item = (&'s Segment, usize)> + Clone,
    ) -> Result<Pending, usize> {
        self.cache
            .as_ref()
            .map(|cache| ncache::resolve_reply(cache, blocks))
            .transpose()
            .map(Pending)
    }

    /// [`ServerHost::resolve`] for blocks the miss-capable path fetched.
    /// With fault recovery armed every stamped placeholder is revalidated
    /// key by key first, under one borrow of the module: a chunk whose
    /// stored checksum no longer matches is invalidated and reported
    /// dangling, so the caller degrades ([`ServerHost::materialize`])
    /// instead of shipping poison.
    fn resolve_fetched(
        &self,
        blocks: &[LogicalBlock],
    ) -> Result<Pending, usize> {
        if let (true, Some(module)) = (self.fault_recovery, &self.module) {
            let mut m = module.borrow_mut();
            let verified = blocks
                .iter()
                .all(|b| match b.seg.stamp() {
                    Some(stamp) if stamp.is_keyed() => m.verify_resolvable(&stamp),
                    _ => true, // real data (or junk): nothing to resolve
                });
            if !verified {
                return Err(0);
            }
        }
        self.resolve(blocks.iter().map(|b| (&b.seg, b.valid_len)))
    }

    /// The probe of the keyed read — the same code for every daemon and
    /// both engines, up to its commit point (DESIGN.md §9.2): the file
    /// system's walk of a fully resident block-aligned range
    /// ([`Filesystem::walk_resident`]), then every placeholder of it
    /// resolved through the host's cache handle (never the module's
    /// mutex). `None` means not a pure hit — the copying build, an
    /// unaligned offset, something cold, a hole, a dangling key, or fault
    /// recovery revalidating key by key — and *nothing* has been counted
    /// or charged anywhere. `Some` has counted the network-centric cache's
    /// side; `ServerHost::serve_hit` counts the file system's.
    pub fn probe_keyed(&self, ino: Ino, offset: u64, len: usize) -> Option<KeyedHit<'_>> {
        if self.fault_recovery || !self.keyed(offset) {
            return None;
        }
        let walk = self.fs.walk_resident(ino, offset, len)?;
        let pending = self.resolve(walk.blocks().map(|b| (b.seg, b.len))).ok()?;
        Some(KeyedHit { walk, pending })
    }

    /// The rest of a hit: counts the file-system side of `hit` exactly as
    /// the per-block walk would have, attaches its (placeholder) blocks to
    /// `reply` by reference, and — with `attrs` — reads the attributes
    /// through the walk's inode entry. `&self`, so the lanes' READ fast
    /// path serves a hit under the shared guard.
    pub(crate) fn serve_hit(
        &self,
        hit: KeyedHit<'_>,
        reply: &mut NetBuf,
        attrs: bool,
    ) -> RangeRead {
        let KeyedHit { walk, pending } = hit;
        walk.commit(|_| self.fs.ledger().charge_logical_copy());
        RangeRead {
            len: attach_blocks(reply, walk.blocks().map(|b| (b.seg, b.len))),
            pending,
            attrs: attrs.then(|| walk.getattr().clone()),
        }
    }

    /// Whether a range at `offset` rides the key-moving path: a
    /// logical-copy build, at a block boundary.
    fn keyed(&self, offset: u64) -> bool {
        self.mode.is_zero_copy() && offset.is_multiple_of(BLOCK as u64)
    }

    /// The keyed read of a block-aligned range — the one logical-copy
    /// read of both daemons: the probe and [`ServerHost::serve_hit`] on a
    /// pure hit; otherwise the miss-capable fetch, block by block into a
    /// list the host keeps, whose placeholders are resolved
    /// ([`ServerHost::resolve_fetched`]) and attached. `Ok(None)` when a
    /// fetched placeholder dangles (evicted or corrupt): nothing has been
    /// attached.
    fn read_keyed(
        &mut self,
        ino: Ino,
        offset: u64,
        len: usize,
        reply: &mut NetBuf,
        attrs: bool,
    ) -> Result<Option<RangeRead>, FsError> {
        if let Some(hit) = self.probe_keyed(ino, offset, len) {
            return Ok(Some(self.serve_hit(hit, reply, attrs)));
        }
        let mut blocks = std::mem::take(&mut self.fetched);
        self.fs.read_logical_per_block_into(ino, offset, len, &mut blocks)?;
        let read = match self.resolve_fetched(&blocks) {
            Ok(pending) => Some(RangeRead {
                len: attach_blocks(reply, blocks.iter().map(|b| (&b.seg, b.valid_len))),
                pending,
                attrs: attrs.then(|| self.fs.getattr(ino)).transpose()?,
            }),
            Err(_) => None,
        };
        blocks.clear();
        self.fetched = blocks;
        Ok(read)
    }

    /// The read of `[offset, offset + len)` into `reply`, with the file's
    /// attributes. The logical-copy builds take a block-aligned range
    /// through the keyed read. NCache materializes an unaligned range (a
    /// partial-block slice loses its stamp), and an aligned one whose
    /// chunk was evicted (or found corrupt) under a cached placeholder,
    /// clipped at end of file. Otherwise the read copies: buffer cache →
    /// daemon buffer, handed off whole to the network stack.
    ///
    /// # Errors
    ///
    /// The file system's; [`FsError::Corrupt`] when a block still dangles
    /// after the lone fetch ([`ServerHost::materialize`]).
    pub(crate) fn read(
        &mut self,
        ino: Ino,
        offset: u64,
        len: usize,
        reply: &mut NetBuf,
    ) -> Result<RangeRead, FsError> {
        let keyed = self.keyed(offset);
        if keyed {
            if let Some(read) = self.read_keyed(ino, offset, len, reply, true)? {
                return Ok(read);
            }
        }
        let (n, attrs) = if keyed || self.mode == ServerMode::NCache {
            let attrs = self.fs.getattr(ino)?;
            let want = len.min(attrs.size.saturating_sub(offset) as usize);
            let data = self.materialize(ino, offset, want)?;
            let n = data.len();
            reply.append_vec(data);
            (n, attrs)
        } else {
            let mut buf = vec![0u8; len];
            let n = self.fs.read(ino, offset, &mut buf)?;
            buf.truncate(n);
            reply.append_vec(buf);
            (n, self.fs.getattr(ino).expect("read target exists"))
        };
        Ok(RangeRead {
            len: n,
            pending: Pending::default(),
            attrs: Some(attrs),
        })
    }

    /// sendfile of `[offset, offset + len)` into `reply`: one copy, buffer
    /// cache → network stack, in the copying build; the keyed read (§4.1's
    /// key-moving sendfile) in the others. `Ok(None)` when a placeholder
    /// dangles: nothing is attached, and the caller degrades by its own
    /// policy.
    ///
    /// # Errors
    ///
    /// The file system's.
    pub(crate) fn sendfile(
        &mut self,
        ino: Ino,
        offset: u64,
        len: usize,
        reply: &mut NetBuf,
    ) -> Result<Option<RangeRead>, FsError> {
        if self.mode.is_zero_copy() {
            return self.read_keyed(ino, offset, len, reply, false);
        }
        Ok(Some(RangeRead {
            len: self.fs.sendfile_into(ino, offset, len, reply)?,
            pending: Pending::default(),
            attrs: None,
        }))
    }

    /// The driver-boundary hook ([`NetCacheShards::transmit`]) on the
    /// host's cache handle, run once the whole stack has built the packet:
    /// splices `pending` (or substitutes the reply's placeholders) and
    /// returns the packets substituted. A no-op in the builds without a
    /// handle. The lanes' READ fast path calls it under a *shared* guard,
    /// with no drain, as a pure hit displaces nothing.
    pub(crate) fn splice(&self, reply: &mut NetBuf, pending: Pending) -> u64 {
        self.cache.as_ref().map_or(0, |cache| {
            cache
                .transmit(reply, pending.0, self.csum_inherit, &self.recorder)
                .substituted
        })
    }

    /// The transmit hook's datagram form: the splice, then whatever the
    /// module displaced goes back to storage.
    pub(crate) fn transmit(&mut self, reply: &mut NetBuf, pending: Pending) -> u64 {
        let substituted = self.splice(reply, pending);
        self.drain_writebacks();
        substituted
    }

    /// The transmit hook's stream form, for a response on kHTTPd's one TCP
    /// connection. The copying build's 2.4-era TCP path checksums the
    /// payload in software; NCache inherits stored checksums instead (§1),
    /// confirms a `page`'s header/body boundary on the stream (§4.3), then
    /// transmits; the ideal baseline assumes NIC offload. Returns the
    /// packets substituted and whether the boundary was confirmed.
    pub(crate) fn transmit_stream(
        &mut self,
        response: &mut NetBuf,
        pending: Pending,
        page: bool,
    ) -> (u64, bool) {
        match self.mode {
            ServerMode::Original => {
                if response.payload_len() > 0 {
                    response.compute_csum();
                }
                (0, false)
            }
            ServerMode::NCache => {
                if page {
                    self.track(response.header(), response.payload_len());
                }
                (self.transmit(response, pending), page)
            }
            ServerMode::Baseline => (0, false),
        }
    }

    /// Feeds a response through the stream tracker: the header, then the
    /// body classified without materializing it.
    fn track(&mut self, header: &[u8], body_len: usize) {
        self.tracker.feed(header, |d| {
            debug_assert_eq!(d, TxDisposition::Header(header.len()));
        });
        let body_seen = self.tracker.feed_body(body_len);
        debug_assert_eq!(body_seen, body_len, "tracker found the boundary");
        debug_assert!(!self.tracker.in_body(), "re-armed for the next response");
    }

    /// The write of `payload`'s first `count` bytes at `offset`. The
    /// copying build copies once, network stack → buffer cache (the file
    /// system charges it). NCache runs hook 2. The ideal baseline writes
    /// junk blocks where the range starts on a block and copies where it
    /// does not. Whatever the outcome, the blocks touched count toward
    /// write-behind, which flushes a batch of the oldest dirty blocks once
    /// [`DIRTY_FLUSH_THRESHOLD`] accumulate, as bdflush does.
    ///
    /// # Errors
    ///
    /// The file system's.
    pub(crate) fn write(
        &mut self,
        ino: Ino,
        offset: u64,
        count: usize,
        payload: &mut NetBuf,
    ) -> Result<(), FsError> {
        let outcome = match self.mode {
            ServerMode::NCache => self.ncache_write(ino, offset, count, payload),
            ServerMode::Baseline if offset.is_multiple_of(BLOCK as u64) => {
                self.stamps.clear();
                self.stamps.resize(count.div_ceil(BLOCK), KeyStamp::new());
                self.fs.write_logical(ino, offset, count, &self.stamps)
            }
            _ => self.fs.write(ino, offset, &payload.peek(0, count)),
        };
        let dirtied = blocks_of(offset, count as u64);
        self.dirty_blocks_since_sync += dirtied.end - dirtied.start;
        if self.dirty_blocks_since_sync >= DIRTY_FLUSH_THRESHOLD {
            self.fs.sync_some(64).expect("sync");
            self.dirty_blocks_since_sync = self.fs.dirty_blocks() as u64;
        }
        outcome
    }

    /// The NCache WRITE, hook 2: parks each block of the span in the FHO
    /// cache and plants its stamp in the buffer cache. A write that starts
    /// inside a block, or ends inside one the file still has bytes past,
    /// first builds the span's merged blocks ([`ServerHost::merged_blocks`]);
    /// a tail block the write reaches the end of the file in is zero past
    /// it. From there every WRITE takes the same steps. Under memory
    /// pressure the control plane bypasses the insertion (DESIGN.md §15);
    /// a bypassed or refused insertion serves through the copying path
    /// (charged normally) and drops the span's chunks.
    fn ncache_write(
        &mut self,
        ino: Ino,
        offset: u64,
        count: usize,
        payload: &mut NetBuf,
    ) -> Result<(), FsError> {
        let aligned = offset.is_multiple_of(BLOCK as u64)
            && (count.is_multiple_of(BLOCK)
                || self.fs.getattr(ino).is_ok_and(|i| offset + count as u64 >= i.size));
        let (start, len, segs) = if aligned {
            (offset, count, payload.take_payload())
        } else {
            self.merged_blocks(ino, offset, count, payload)?
        };
        let module = self.module.clone().expect("NCache mode has a module");
        let fh = FileHandle(ino_to_fh(ino));
        let bypass = self.bypass_insert();
        let stamps = &mut self.stamps;
        stamps.clear();
        let admitted = !bypass
            && split_segments(&segs, BLOCK).enumerate().all(|(i, mut group)| {
                // Every chunk is a whole block: a short tail is padded
                // with zeros that take no storage.
                let n = group.byte_len();
                if n < BLOCK {
                    group.push_back(Segment::zeroed(BLOCK - n));
                }
                let fho = Fho::new(fh, start + (i * BLOCK) as u64);
                let admitted = module.borrow_mut().on_nfs_write(fho, group, BLOCK);
                admitted.map(|stamp| stamps.push(stamp)).is_ok()
            });
        if admitted {
            return self.fs.write_logical(ino, start, len, &self.stamps);
        }
        // The copying path: the span's bytes are still held by `segs`.
        let mut data = Vec::with_capacity(len);
        for run in segs.iter().flat_map(Segment::runs) {
            data.extend_from_slice(run);
        }
        data.truncate(len);
        self.fs.write(ino, start, &data)?;
        // The buffer cache now holds the span's bytes: the chunks admitted
        // above, and an LBN chunk of a block's old bytes, would outlive
        // the flush. Not before the write — its read-modify-write may
        // resolve a placeholder.
        self.invalidate_blocks(ino, blocks_of(start, len as u64));
        Ok(())
    }

    /// The read-modify-write of an unaligned NCache WRITE: the whole
    /// blocks it touches, with the wire bytes merged into their real
    /// contents ([`ServerHost::materialize`], which resolves through the
    /// network-centric cache), one owned segment per block. Returns the
    /// span's start, its length up to the file's new end (so the logical
    /// write records the honest size) and the blocks.
    fn merged_blocks(
        &mut self,
        ino: Ino,
        offset: u64,
        count: usize,
        payload: &NetBuf,
    ) -> Result<(u64, usize, SegChain), FsError> {
        let span = blocks_of(offset, count as u64);
        let (start, end) = (span.start * BLOCK as u64, span.end * BLOCK as u64);
        let size = self.fs.getattr(ino)?.size;
        let mut merged = if start < size {
            self.materialize(ino, start, (end.min(size) - start) as usize)?
        } else {
            Vec::new()
        };
        merged.resize((end - start) as usize, 0);
        let at = (offset - start) as usize;
        merged[at..at + count].copy_from_slice(&payload.peek(0, count));
        let blocks: Vec<Segment> =
            merged.chunks(BLOCK).map(|b| Segment::from_vec(b.to_vec())).collect();
        let true_end = (offset + count as u64).max(size).min(end);
        Ok((start, (true_end - start) as usize, blocks.into()))
    }

    /// The remove of `name` from `dir`. Under NCache the file's cache
    /// chunks go first: a dirty FHO chunk of a removed file would stay
    /// pinned forever (unevictable until remapped, and no flush remaps it
    /// once the file is gone).
    ///
    /// # Errors
    ///
    /// The file system's.
    pub(crate) fn remove(&mut self, dir: Ino, name: &str) -> Result<(), FsError> {
        if self.module.is_some() {
            if let Ok(ino) = self.fs.lookup(dir, name) {
                if let Ok(inode) = self.fs.getattr(ino) {
                    self.invalidate_blocks(ino, blocks_of(0, inode.size));
                }
            }
        }
        self.fs.remove(dir, name)
    }

    /// Invalidates every network-centric cache chunk of the file's
    /// `blocks`: for each, the FHO key of that block and the LBN key its
    /// block map names. The walk reads the block map, never the data, so
    /// removing a file that is not resident fetches its indirect blocks
    /// and nothing else — no block is fetched (and cached, evicting live
    /// chunks) only to be invalidated. Callers hold no module guard.
    fn invalidate_blocks(&mut self, ino: Ino, blocks: Range<u64>) {
        let Some(module) = self.module.clone() else {
            return;
        };
        let fh = FileHandle(ino_to_fh(ino));
        let cache = module.borrow().cache_handle();
        for blk in blocks {
            let lbn = self.fs.block_lbn(ino, blk).ok().flatten();
            cache.invalidate(Fho::new(fh, blk * BLOCK as u64).into());
            if let Some(lbn) = lbn {
                cache.invalidate(Lbn(lbn).into());
            }
        }
    }

    /// The one degradation path of the daemon path: the real bytes of
    /// `[offset, offset + len)` under the NCache build, where the buffer
    /// cache holds key-stamped placeholders. Block by block, each stamp is
    /// resolved (FHO first) the moment the fetch admits its chunk — so the
    /// assembly succeeds even when the cache holds fewer chunks than the
    /// range — and a dangling one is discarded and refetched, up to three
    /// fetches, then once more with read-ahead off, so the block is
    /// admitted alone (behind its read-ahead, a cache of a few chunks can
    /// evict it again before it is resolved); unstamped blocks are used as
    /// they are. The assembly is a physical copy and is charged as one:
    /// unaligned requests and placeholders lost under pressure genuinely
    /// cost copies.
    ///
    /// # Errors
    ///
    /// The file system's, or [`FsError::Corrupt`] when a block still
    /// dangles after the lone fetch (a cache thrashing below one chunk).
    pub(crate) fn materialize(
        &mut self,
        ino: Ino,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>, FsError> {
        const BLOCK: u64 = simfs::BLOCK_SIZE as u64;
        const LONE_FETCH: u32 = 4;
        let cache = self
            .module
            .as_ref()
            .expect("NCache build")
            .borrow()
            .cache_handle();
        let (start, end) = (offset - offset % BLOCK, offset + len as u64);
        let mut out = Vec::with_capacity((end - start) as usize);
        let mut at = start;
        while at < end {
            let want = BLOCK.min(end - at) as usize;
            for fetch in 1.. {
                let alone = fetch == LONE_FETCH;
                let ahead = self.fs.read_ahead();
                if alone {
                    self.fs.set_read_ahead(0);
                }
                let fetched = self.fs.read_logical(ino, at, want);
                self.fs.set_read_ahead(ahead);
                let Some(b) = fetched?.into_iter().next() else {
                    break; // past the end of the file
                };
                let segs = match b.seg.stamp() {
                    Some(stamp) if stamp.is_keyed() => match cache.resolve(&stamp) {
                        Some((_, segs)) => segs,
                        None => {
                            // Dangling: drop the placeholder and refetch;
                            // the read re-admits the chunk.
                            if let Some(l) = b.lbn {
                                self.fs.discard_cached(l);
                            }
                            if alone {
                                return Err(FsError::Corrupt("placeholder thrashing"));
                            }
                            continue;
                        }
                    },
                    _ => vec![b.seg],
                };
                let mut room = b.valid_len;
                for seg in segs {
                    let take = seg.len().min(room);
                    seg.runs_in(0, take).for_each(|run| out.extend_from_slice(run));
                    room -= take;
                }
                break;
            }
            at += want as u64;
        }
        self.ledger.charge_payload_copy(len as u64);
        out.drain(..((offset - start) as usize).min(out.len()));
        out.truncate(len);
        Ok(out)
    }

    /// Dirty chunks displaced from the network-centric cache go back to
    /// storage through the initiator (which holds the same module handle;
    /// nothing to drain without one).
    fn drain_writebacks(&mut self) {
        self.fs.store_mut().drain_module_writebacks();
    }
}

/// The attach step of the keyed read: cache blocks go into `reply` by
/// reference — the daemon never touches the payload — each clipped to the
/// bytes the reply carries. Returns the bytes attached.
fn attach_blocks<'s>(
    reply: &mut NetBuf,
    blocks: impl ExactSizeIterator<Item = (&'s Segment, usize)>,
) -> usize {
    reply.reserve_segments(blocks.len());
    blocks
        .map(|(seg, len)| {
            reply.append_segment(seg.slice(0, len));
            len
        })
        .sum()
}
