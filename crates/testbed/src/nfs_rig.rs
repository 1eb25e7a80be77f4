//! The NFS-over-iSCSI pass-through rig: what is NFS about [`Rig`] — the
//! request codec, files and their deterministic contents, READ / WRITE /
//! GETATTR / LOOKUP through the full request path, and the RPC accept test
//! (the reply parses and carries the call's xid).

use netbuf::{CopyLedger, NetBuf};
use proto::nfs::{ReadReplyHeader, WriteReply, NFS_OK};
use servers::initiator::IscsiInitiator;
use servers::nfs::{fh_to_ino, ino_to_fh, NfsClient, NfsServer};
use servers::ServerHost;
use sim::costs::CostModel;
use simfs::store::synthetic_block;
use simfs::{Filesystem, FsParams};

use crate::rig::{App, Geometry, Rig};
use crate::runner::DriverOp;
use crate::timing::Transport;

pub use crate::rig::{FaultCounters, NodeLedgers, MAX_RPC_ATTEMPTS};

/// The assembled NFS rig.
pub type NfsRig = Rig<NfsServer>;

/// Rig geometry. Defaults are scaled to run quickly; the benchmark harness
/// widens them per experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NfsRigParams {
    /// Exported volume size in blocks.
    pub volume_blocks: u64,
    /// File-system buffer-cache capacity in blocks. Under NCache this is
    /// deliberately small (§3.4: "the file system cache is configured to
    /// be much smaller than the network-centric cache").
    pub fs_cache_blocks: usize,
    /// NCache pinned capacity in bytes (NCache build only).
    pub ncache_bytes: u64,
    /// Read-ahead window in blocks (tuned to the request size, §5.4).
    pub read_ahead_blocks: u64,
    /// Inodes to provision.
    pub inode_count: u32,
    /// NCache shard count (NCache build only). Sharding only partitions
    /// the key space; every observable is identical at any shard count.
    pub shards: usize,
}

impl Default for NfsRigParams {
    fn default() -> Self {
        NfsRigParams {
            volume_blocks: 64 << 10, // 256 MiB volume
            fs_cache_blocks: 2 << 10,
            ncache_bytes: 64 << 20,
            read_ahead_blocks: 8,
            inode_count: 4 << 10,
            shards: 1,
        }
    }
}

impl From<NfsRigParams> for Geometry {
    fn from(p: NfsRigParams) -> Geometry {
        Geometry {
            fs: FsParams {
                total_blocks: p.volume_blocks,
                inode_count: p.inode_count,
                cache_blocks: p.fs_cache_blocks,
                read_ahead_blocks: p.read_ahead_blocks,
            },
            ncache_bytes: p.ncache_bytes,
            shards: p.shards,
        }
    }
}

impl App for NfsServer {
    type Params = NfsRigParams;
    type Client = NfsClient;
    const TRANSPORT: Transport = Transport::Udp;

    fn build(host: ServerHost) -> Self {
        NfsServer::new(host)
    }

    fn client(ledger: &CopyLedger, session: Option<usize>) -> NfsClient {
        NfsClient::with_xid_base(ledger, session.map_or(0, |sid| (sid as u32 + 1) << 20))
    }

    /// The runner fabricates WRITE payload bytes; LOOKUPs resolve in the
    /// export root.
    fn request(client: &mut NfsClient, op: &DriverOp) -> (NetBuf, u64) {
        match op {
            DriverOp::Read { fh, offset, len } => (client.read_request(*fh, *offset, *len), 0),
            DriverOp::Write { fh, offset, len } => {
                let data = vec![0xA5u8; *len as usize];
                (client.write_request(*fh, *offset, &data), u64::from(*len))
            }
            DriverOp::Getattr { fh } => (client.getattr_request(*fh), 0),
            DriverOp::Lookup { name } => (client.lookup_request(root_fh(), name), 0),
            DriverOp::Get { .. } => panic!("HTTP op on the NFS rig"),
        }
    }

    /// The reply parses as `op`'s and carries the call's xid; a READ
    /// accounts for its data, a WRITE for the bytes it carried.
    fn accept<'a>(
        client: &'a NfsClient,
        op: &'a DriverOp,
        request: &NetBuf,
    ) -> impl Fn(&NetBuf) -> Option<u64> + 'a {
        let xid = call_xid(request);
        move |r| {
            answering(
                xid,
                match op {
                    DriverOp::Read { .. } => client
                        .try_parse_read_reply(r)
                        .map(|(xid, _, data)| (xid, data.len() as u64)),
                    DriverOp::Write { len, .. } => client
                        .try_parse_write_reply(r)
                        .map(|(xid, _)| (xid, u64::from(*len))),
                    DriverOp::Getattr { .. } => {
                        client.try_parse_getattr_reply(r).map(|(xid, ..)| (xid, 0))
                    }
                    DriverOp::Lookup { .. } => {
                        client.try_parse_lookup_reply(r).map(|(xid, _)| (xid, 0))
                    }
                    DriverOp::Get { .. } => unreachable!("refused by `request`"),
                },
            )
        }
    }

    fn serve(&mut self, delivered: NetBuf) -> (NetBuf, u64) {
        self.handle(delivered)
    }

    fn stats_snapshot(&self) -> Box<dyn obs::StatsSnapshot> {
        Box::new(self.stats())
    }

    fn per_request_ns(costs: &CostModel) -> u64 {
        costs.nfs_req_ns
    }
}

/// The file handle of the export root (what [`NfsServer::root_fh`]
/// answers, without a server at hand).
fn root_fh() -> u64 {
    ino_to_fh(Filesystem::<IscsiInitiator>::ROOT)
}

/// The xid a rig-built RPC call carries — what the NFS accept test holds
/// every reply to.
fn call_xid(req: &NetBuf) -> u32 {
    proto::rpc::RpcCall::decode(req.header())
        .expect("rig-built request")
        .xid
}

/// A parsed reply's value, when the reply answers the call `xid`.
fn answering<T>(xid: u32, parsed: Option<(u32, T)>) -> Option<T> {
    parsed.and_then(|(got, v)| (got == xid).then_some(v))
}

impl Rig<NfsServer> {
    /// Creates a file and fills it with [`Self::pattern`] content (setup
    /// path, leaves the volume quiescent); returns its handle.
    pub fn create_file(&mut self, name: &str, size: u64) -> u64 {
        ino_to_fh(self.provision(name, size, false))
    }

    /// Creates a file whose blocks are *allocated but never written*: its
    /// contents are the storage server's deterministic synthetic blocks.
    /// Setup cost is O(metadata), so multi-gigabyte all-miss files are
    /// cheap. Use [`Self::expected_sparse`] for integrity checks.
    pub fn create_sparse_file(&mut self, name: &str, size: u64) -> u64 {
        ino_to_fh(self.provision(name, size, true))
    }

    /// The expected contents of a sparse file's range (the synthetic
    /// blocks at its mapped LBNs).
    pub fn expected_sparse(&mut self, fh: u64, offset: u64, len: usize) -> Vec<u8> { // test-api: integration tests model sparse reads
        assert_eq!(offset % 4096, 0, "block-aligned expectations only");
        let fs = self.server.fs_mut();
        let mut out = Vec::with_capacity(len);
        let mut blk = offset / 4096;
        while out.len() < len {
            let lbn = fs
                .block_lbn(fh_to_ino(fh), blk)
                .expect("file exists")
                .expect("allocated");
            let block = synthetic_block(lbn);
            let take = (len - out.len()).min(4096);
            out.extend_from_slice(&block[..take]);
            blk += 1;
        }
        out
    }

    /// Issues a READ through the full request path and returns the payload
    /// the client received.
    pub fn read(&mut self, fh: u64, offset: u32, count: u32) -> Vec<u8> {
        let (hdr, data) = self.read_with_header(fh, offset, count);
        assert_eq!(hdr.status, NFS_OK, "read failed");
        data
    }

    /// As [`Self::read`], returning the reply header too. No separate
    /// clean arm: a clean reply's payload always matches its header's
    /// count, so the strict accept test holds it on either link.
    pub fn read_with_header(
        &mut self,
        fh: u64,
        offset: u32,
        count: u32,
    ) -> (ReadReplyHeader, Vec<u8>) {
        self.try_read(fh, offset, count)
            .expect("read exhausted its retransmission budget")
    }

    /// Fault-aware READ: completes through retransmission, or fails
    /// cleanly (`None`) once the retry budget is spent.
    pub fn try_read(
        &mut self,
        fh: u64,
        offset: u32,
        count: u32,
    ) -> Option<(ReadReplyHeader, Vec<u8>)> {
        let req = self.session.client.read_request(fh, offset, count);
        self.rpc(req, |c, r| {
            c.try_parse_read_reply(r).map(|(xid, h, d)| (xid, (h, d)))
        })
    }

    /// Issues a WRITE through the full request path.
    pub fn write(&mut self, fh: u64, offset: u32, data: &[u8]) -> WriteReply {
        self.try_write(fh, offset, data)
            .expect("write exhausted its retransmission budget")
    }

    /// Fault-aware WRITE: retransmissions of an executed write are served
    /// from the server's duplicate-request cache, never re-executed.
    pub fn try_write(&mut self, fh: u64, offset: u32, data: &[u8]) -> Option<WriteReply> {
        let req = self.session.client.write_request(fh, offset, data);
        self.rpc(req, |c, r| c.try_parse_write_reply(r))
    }

    /// Issues a GETATTR; returns the reply's status.
    pub fn getattr(&mut self, fh: u64) -> u32 {
        let req = self.session.client.getattr_request(fh);
        self.rpc(req, |c, r| {
            c.try_parse_getattr_reply(r).map(|(xid, status, _)| (xid, status))
        })
        .expect("getattr exhausted its retransmission budget")
    }

    /// One RPC over the faulty (or clean) link ([`Rig::exchange`]) under
    /// the NFS accept test: the reply must parse and carry the call's xid.
    /// The clean link delivers and parses with exactly the pulls and the
    /// one payload copy the panicking `parse_*_reply` forms make, so there
    /// is no separate clean arm.
    fn rpc<T>(
        &mut self,
        req: NetBuf,
        parse: impl Fn(&NfsClient, &NetBuf) -> Option<(u32, T)>,
    ) -> Option<T> {
        let xid = call_xid(&req);
        self.exchange(req, |c, r| answering(xid, parse(c, r)))
    }

    /// Issues a LOOKUP in the export root (over the clean link, always).
    pub fn lookup(&mut self, name: &str) -> Option<u64> {
        let req = self.session.client.lookup_request(root_fh(), name);
        let reply = self.handle_raw(req);
        let parsed = self.session.client.parse_lookup_reply(&reply);
        (parsed.status == NFS_OK).then_some(parsed.fh)
    }

    /// The client-side request builder.
    pub fn client_mut(&mut self) -> &mut NfsClient {
        &mut self.session.client
    }

    /// Swaps the rig's client with `client` — several clients on disjoint
    /// xid bases over the rig's own link (the timing engines swap whole
    /// sessions, link included).
    pub fn swap_client(&mut self, client: &mut NfsClient) { // test-api: multi-client tests share one rig
        std::mem::swap(&mut self.session.client, client);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use servers::ServerMode;
    use sim::FaultSpec;

    #[test]
    fn end_to_end_read_original() {
        let mut rig = NfsRig::new(ServerMode::Original, NfsRigParams::default());
        let fh = rig.create_file("f", 64 << 10);
        let data = rig.read(fh, 8192, 16 << 10);
        assert_eq!(data, NfsRig::pattern(fh, 8192, 16 << 10));
    }

    #[test]
    fn end_to_end_read_ncache_substitutes_real_data() {
        let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
        let fh = rig.create_file("f", 64 << 10);
        let data = rig.read(fh, 0, 32 << 10);
        assert_eq!(
            data,
            NfsRig::pattern(fh, 0, 32 << 10),
            "the client must see real bytes, not placeholder junk"
        );
        let module = rig.module().expect("ncache build");
        assert!(module.borrow().substitution_totals().substituted > 0);
        assert_eq!(module.borrow().substitution_totals().missing, 0);
    }

    #[test]
    fn baseline_returns_junk_by_design() {
        let mut rig = NfsRig::new(ServerMode::Baseline, NfsRigParams::default());
        let fh = rig.create_file("f", 16 << 10);
        let data = rig.read(fh, 0, 4096);
        assert_eq!(data.len(), 4096);
        assert_ne!(
            data,
            NfsRig::pattern(fh, 0, 4096),
            "the baseline build sends placeholder bits (§5.1)"
        );
    }

    #[test]
    fn sparse_files_read_synthetic_content() {
        let mut rig = NfsRig::new(ServerMode::Original, NfsRigParams::default());
        let fh = rig.create_sparse_file("big", 1 << 20);
        let expect = rig.expected_sparse(fh, 64 << 10, 8 << 10);
        let data = rig.read(fh, 64 << 10, 8 << 10);
        assert_eq!(data, expect);
        // Setup wrote no data blocks to the target.
        assert!(rig.target().borrow().written_blocks() < 1000, "metadata only");
    }

    #[test]
    fn write_then_read_back_all_modes_freshness() {
        for mode in [ServerMode::Original, ServerMode::NCache] {
            let mut rig = NfsRig::new(mode, NfsRigParams::default());
            let fh = rig.create_file("f", 32 << 10);
            let new_data = vec![0xC3u8; 8 << 10];
            let reply = rig.write(fh, 8192, &new_data);
            assert_eq!(reply.status, NFS_OK, "{mode}");
            let read_back = rig.read(fh, 8192, 8 << 10);
            assert_eq!(read_back, new_data, "{mode}: freshest data wins");
            // Around the write, old content is intact.
            assert_eq!(rig.read(fh, 0, 8192), NfsRig::pattern(fh, 0, 8192), "{mode}");
        }
    }

    #[test]
    fn lookup_and_getattr() {
        let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
        let fh = rig.create_file("hello.dat", 4096);
        assert_eq!(rig.lookup("hello.dat"), Some(fh));
        assert_eq!(rig.lookup("absent"), None);
        assert_eq!(rig.getattr(fh), NFS_OK);
    }

    #[test]
    fn faulted_rig_with_zero_spec_never_recovers() {
        let mut rig = NfsRig::new_faulted(
            ServerMode::NCache,
            NfsRigParams::default(),
            &FaultSpec::default(),
            42,
        );
        assert!(rig.faults_armed());
        let fh = rig.create_file("f", 32 << 10);
        let (hdr, data) = rig.try_read(fh, 0, 16 << 10).expect("clean link");
        assert_eq!(hdr.status, NFS_OK);
        assert_eq!(data, NfsRig::pattern(fh, 0, 16 << 10));
        assert_eq!(rig.fault_counters(), FaultCounters::default());
        assert_eq!(rig.server_mut().fs_mut().store_mut().stats().retries, 0);
        assert_eq!(rig.server_mut().stats().drc_hits, 0);
    }

    #[test]
    fn faulted_rig_recovers_under_every_fault_kind() {
        for mode in [ServerMode::Original, ServerMode::NCache, ServerMode::Baseline] {
            let spec = FaultSpec {
                loss: 0.10,
                duplicate: 0.05,
                reorder: 0.05,
                delay: 0.05,
                truncate: 0.05,
                corrupt: 0.03,
                io: 0.05,
            };
            let mut rig = NfsRig::new_faulted(mode, NfsRigParams::default(), &spec, 1234);
            let fh = rig.create_file("f", 64 << 10);
            let mut completed = 0;
            for i in 0..24u32 {
                let off = (i % 16) * 4096;
                if let Some((hdr, data)) = rig.try_read(fh, off, 4096) {
                    assert_eq!(hdr.status, NFS_OK, "{mode}");
                    if mode != ServerMode::Baseline {
                        assert_eq!(
                            data,
                            NfsRig::pattern(fh, u64::from(off), 4096),
                            "{mode}: completed reads return correct bytes"
                        );
                    }
                    completed += 1;
                }
            }
            assert!(completed > 0, "{mode}: some reads complete");
            let fc = rig.fault_counters();
            assert!(
                fc.retransmits > 0,
                "{mode}: this schedule forces retransmission"
            );
        }
    }

    #[test]
    fn duplicated_writes_are_served_from_the_drc() {
        let spec = FaultSpec {
            duplicate: 0.6,
            ..FaultSpec::default()
        };
        let mut rig =
            NfsRig::new_faulted(ServerMode::Original, NfsRigParams::default(), &spec, 9);
        let fh = rig.create_file("f", 64 << 10);
        for i in 0..12u32 {
            let data = vec![i as u8; 4096];
            let reply = rig.try_write(fh, i * 4096, &data).expect("completes");
            assert_eq!(reply.status, NFS_OK);
            let (_, got) = rig.try_read(fh, i * 4096, 4096).expect("completes");
            assert_eq!(got, data, "acknowledged write visible");
        }
        assert!(rig.fault_counters().duplicates > 0, "schedule duplicated");
        assert!(
            rig.server_mut().stats().drc_hits > 0,
            "duplicate WRITEs replied from cache, not re-executed"
        );
    }

    #[test]
    fn delayed_write_replies_hit_the_drc_not_the_disk_twice() {
        let spec = FaultSpec {
            delay: 0.5,
            ..FaultSpec::default()
        };
        let mut rig =
            NfsRig::new_faulted(ServerMode::NCache, NfsRigParams::default(), &spec, 77);
        let fh = rig.create_file("f", 32 << 10);
        for i in 0..8u32 {
            let data = vec![0x40 | i as u8; 4096];
            let reply = rig.try_write(fh, i * 4096, &data).expect("completes");
            assert_eq!(reply.status, NFS_OK);
            let (_, got) = rig.try_read(fh, i * 4096, 4096).expect("completes");
            assert_eq!(got, data);
        }
        let fc = rig.fault_counters();
        assert!(fc.timeouts > 0, "delays fired");
        assert!(
            rig.server_mut().stats().drc_hits > 0,
            "retransmitted WRITEs served from the DRC"
        );
    }

    #[test]
    fn the_rigs_control_plane_sizes_the_drc_from_the_admission_bound() {
        // Installed through the rig — generic code that only sees the
        // host — the plane's in-flight bound must still reach the NFS
        // daemon's duplicate-request cache: 2 x 100 entries, so 150 distinct
        // WRITEs evict nothing (the default depth of 128 would evict 22 and
        // reopen their retransmission windows).
        let mut rig = NfsRig::new_faulted(
            ServerMode::NCache,
            NfsRigParams::default(),
            &FaultSpec::default(),
            3,
        );
        let fh = rig.create_file("f", 150 * 512);
        rig.enable_control(servers::ControlConfig {
            max_inflight: 100,
            ..servers::ControlConfig::unlimited()
        });
        for k in 0..150u32 {
            let reply = rig.write(fh, k * 512, &[k as u8; 512]);
            assert_eq!(reply.status, NFS_OK);
        }
        let stats = rig.server_mut().stats();
        assert_eq!(stats.drc_inserts, 150);
        assert_eq!(stats.drc_evictions, 0);
    }

    #[test]
    fn poisoned_ncache_chunks_invalidate_and_reads_stay_correct() {
        let spec = FaultSpec {
            corrupt: 0.9,
            ..FaultSpec::default()
        };
        let mut rig =
            NfsRig::new_faulted(ServerMode::NCache, NfsRigParams::default(), &spec, 5);
        let fh = rig.create_file("f", 64 << 10);
        let mut completed = 0;
        for pass in 0..3 {
            let _ = pass;
            for i in 0..16u32 {
                // At corrupt=0.9 the link itself may exhaust the retry
                // budget; a clean failure is acceptable, junk is not.
                let Some((hdr, data)) = rig.try_read(fh, i * 4096, 4096) else {
                    continue;
                };
                assert_eq!(hdr.status, NFS_OK);
                assert_eq!(
                    data,
                    NfsRig::pattern(fh, u64::from(i) * 4096, 4096),
                    "never junk, even when entries are poisoned"
                );
                completed += 1;
            }
        }
        assert!(completed > 0, "some reads complete");
        let module = rig.module().expect("ncache build");
        let inval = module.borrow().invalidations();
        assert!(inval > 0, "poisoned entries were detected and dropped");
    }

    #[test]
    fn same_seed_and_spec_replay_identically() {
        let spec = FaultSpec {
            loss: 0.15,
            duplicate: 0.05,
            delay: 0.05,
            io: 0.05,
            ..FaultSpec::default()
        };
        let run = |seed: u64| {
            let mut rig =
                NfsRig::new_faulted(ServerMode::NCache, NfsRigParams::default(), &spec, seed);
            let fh = rig.create_file("f", 32 << 10);
            let mut out = Vec::new();
            for i in 0..10u32 {
                out.push(rig.try_read(fh, (i % 8) * 4096, 4096).map(|(_, d)| d));
            }
            (out, rig.fault_counters())
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3).1, run(4).1, "different seeds, different schedules");
    }

    #[test]
    fn rig_moves_across_threads() {
        // Regression: every layer of the rig (slab pool, shard set,
        // shared target/module handles, ledgers) must stay `Send` so the
        // lane-parallel engine can drive one rig from worker threads —
        // and `Sync`, because the engine shares the rig across lanes as
        // `&LaneLock<NfsRig>` and the read fast path serves concurrent
        // READs under the read guard.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NfsRig>();
        assert_send_sync::<sim::LaneLock<NfsRig>>();
        let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
        let fh = rig.create_file("x", 16 << 10);
        let data = std::thread::spawn(move || rig.read(fh, 0, 8 << 10))
            .join()
            .expect("worker");
        assert_eq!(data, NfsRig::pattern(fh, 0, 8 << 10));
    }

    #[test]
    fn pattern_is_deterministic_and_offset_consistent() {
        // Reading [0, 8192) must equal reading [0,4096) ++ [4096, 8192).
        let whole = NfsRig::pattern(7, 0, 8192);
        let a = NfsRig::pattern(7, 0, 4096);
        let b = NfsRig::pattern(7, 4096, 4096);
        assert_eq!(&whole[..4096], &a[..]);
        assert_eq!(&whole[4096..], &b[..]);
        assert_ne!(a, b);
        assert_ne!(NfsRig::pattern(7, 0, 64), NfsRig::pattern(8, 0, 64));
        // Self-consistency at arbitrary (unaligned) offsets.
        let w = NfsRig::pattern(7, 0, 8192);
        assert_eq!(&w[100..1100], &NfsRig::pattern(7, 100, 1000)[..]);
        assert_eq!(&w[4095..4097], &NfsRig::pattern(7, 4095, 2)[..]);
        assert_eq!(&w[7..8], &NfsRig::pattern(7, 7, 1)[..]);
    }
}
