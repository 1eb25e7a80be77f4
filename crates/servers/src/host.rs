//! The pass-through server host: everything the NFS daemon and kHTTPd
//! share, written once.
//!
//! The paper's point is that NCache is application-independent — the same
//! module sits under both daemons with the daemons untouched (Table 1).
//! The same holds for what surrounds a daemon on the application server:
//! the build it runs, the file system over the iSCSI initiator, the module
//! and its cache handle, the node's copy ledger, the recorder, fault
//! recovery, the overload control plane, the keyed read of a range
//! (probe, resolve, attach — [`ServerHost::read_keyed`]), the
//! driver-boundary transmit hook and the degradation path that
//! materializes real bytes are not NFS or HTTP. A server is a
//! [`ServerHost`] plus its codec, its op handlers and its own counters
//! ([`crate::nfs::NfsServer`] adds the duplicate-request cache); both
//! deref to the host, so `server.fs_mut()` or `server.set_load(..)` is the
//! host's method on either.

use ncache::{NcacheModule, NetCacheShards, Resolved};
use netbuf::{CopyLedger, NetBuf, Segment};
use simfs::fs::{LogicalBlock, ResidentWalk};
use simfs::inode::Inode;
use simfs::{Filesystem, FsError, Ino};

use crate::control::{ControlConfig, ControlPlane, ControlStats, Decision, OpClass, Pressure};
use crate::initiator::IscsiInitiator;
use crate::mode::ServerMode;

/// The application-independent half of a pass-through server.
#[derive(Debug)]
pub struct ServerHost {
    pub(crate) mode: ServerMode,
    pub(crate) fs: Filesystem<IscsiInitiator>,
    pub(crate) module: Option<sim::Shared<NcacheModule>>,
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
}

/// A keyed read established as a pure hit and counted on the
/// network-centric cache's side, not yet on the file system's
/// ([`ServerHost::probe_keyed`]).
#[derive(Debug)]
pub struct KeyedHit<'a> {
    walk: ResidentWalk<'a>,
    resolved: Option<Resolved>,
}

/// What the keyed read attached to a reply.
#[derive(Debug)]
pub(crate) struct KeyedRead {
    /// Payload bytes attached.
    pub(crate) len: usize,
    /// The resolution the transmit hook splices.
    pub(crate) resolved: Option<Resolved>,
    /// The file's attributes, read after the attach — when asked for.
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
        }
    }

    /// Installs the overload control plane (see
    /// [`crate::control::AdmissionGate`] for the policy).
    pub fn enable_control(&mut self, cfg: ControlConfig) {
        self.control = Some(ControlPlane::new(cfg));
    }

    /// Reports the timing layer's load to the control plane: the next
    /// request's sim arrival instant and the current in-flight depth.
    /// No-op without an installed plane.
    pub fn set_load(&mut self, now_ns: u64, inflight: u64) {
        if let Some(cp) = &mut self.control {
            cp.set_load(now_ns, inflight);
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
    pub(crate) fn bypass_insert(&mut self) -> bool {
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

    /// The build this server runs.
    pub fn mode(&self) -> ServerMode {
        self.mode
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
    /// `Ok(None)` when the build substitutes nothing; `Err` carries the
    /// first dangling block, nothing has been counted, and the request
    /// must degrade.
    pub(crate) fn resolve<'s>(
        &self,
        blocks: impl ExactSizeIterator<Item = (&'s Segment, usize)> + Clone,
    ) -> Result<Option<Resolved>, usize> {
        self.cache
            .as_ref()
            .map(|cache| ncache::resolve_reply(cache, self.recorder.is_enabled(), blocks))
            .transpose()
    }

    /// [`ServerHost::resolve`] for blocks the miss-capable path fetched.
    /// With fault recovery armed every stamped placeholder is revalidated
    /// key by key first, under one borrow of the module: a chunk whose
    /// stored checksum no longer matches is invalidated and reported
    /// dangling, so the caller degrades ([`ServerHost::materialize`])
    /// instead of shipping poison.
    pub(crate) fn resolve_fetched(
        &self,
        blocks: &[LogicalBlock],
    ) -> Result<Option<Resolved>, usize> {
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
    /// side; [`ServerHost::serve_hit`] counts the file system's.
    pub fn probe_keyed(&self, ino: Ino, offset: u64, len: usize) -> Option<KeyedHit<'_>> {
        let keyed =
            self.mode != ServerMode::Original && offset.is_multiple_of(simfs::BLOCK_SIZE as u64);
        if self.fault_recovery || !keyed {
            return None;
        }
        let walk = self.fs.walk_resident(ino, offset, len)?;
        let resolved = self.resolve(walk.blocks().map(|b| (b.seg, b.len))).ok()?;
        Some(KeyedHit { walk, resolved })
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
    ) -> KeyedRead {
        let KeyedHit { walk, resolved } = hit;
        walk.commit(|_| self.fs.ledger().charge_logical_copy());
        KeyedRead {
            len: attach_blocks(reply, walk.blocks().map(|b| (b.seg, b.len))),
            resolved,
            attrs: attrs.then(|| walk.getattr().clone()),
        }
    }

    /// The keyed read of a block-aligned range — the one logical-copy
    /// READ body of both daemons: the probe and [`ServerHost::serve_hit`]
    /// on a pure hit; otherwise the miss-capable fetch, block by block,
    /// whose placeholders are resolved ([`ServerHost::resolve_fetched`])
    /// and attached. `Ok(None)` when a fetched placeholder dangles
    /// (evicted or corrupt): nothing has been attached, and the daemon
    /// degrades by its own policy ([`ServerHost::materialize`]).
    ///
    /// # Errors
    ///
    /// The file system's, from the fetch or the attributes.
    pub(crate) fn read_keyed(
        &mut self,
        ino: Ino,
        offset: u64,
        len: usize,
        reply: &mut NetBuf,
        attrs: bool,
    ) -> Result<Option<KeyedRead>, FsError> {
        if let Some(hit) = self.probe_keyed(ino, offset, len) {
            return Ok(Some(self.serve_hit(hit, reply, attrs)));
        }
        let blocks = self.fs.read_logical_per_block(ino, offset, len)?;
        let Ok(resolved) = self.resolve_fetched(&blocks) else {
            return Ok(None);
        };
        Ok(Some(KeyedRead {
            len: attach_blocks(reply, blocks.iter().map(|b| (&b.seg, b.valid_len))),
            resolved,
            attrs: attrs.then(|| self.fs.getattr(ino)).transpose()?,
        }))
    }

    /// The driver-boundary hook ([`NetCacheShards::transmit`]) on the
    /// host's cache handle, run once the whole stack has built the packet:
    /// splices `resolved` (or substitutes the reply's placeholders) and
    /// returns the packets substituted. A no-op in the builds without a
    /// handle. `&self`, so the lanes' READ fast path finishes its reply
    /// with it under the shared guard; the exclusive paths then
    /// [`ServerHost::drain_writebacks`].
    pub(crate) fn transmit(&self, reply: &mut NetBuf, resolved: Option<Resolved>) -> u64 {
        self.cache.as_ref().map_or(0, |cache| {
            cache
                .transmit(reply, resolved, self.csum_inherit, &self.recorder)
                .substituted
        })
    }

    /// The one degradation path of both daemons: the real bytes of
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
    pub(crate) fn drain_writebacks(&mut self) {
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
