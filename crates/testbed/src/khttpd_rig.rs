//! The kHTTPd rig: what is HTTP about [`Rig`] — the request codec, pages
//! and their deterministic contents, GET through the full path, and the
//! HTTP accept test (the response parses and its status is one the server
//! can send).

use netbuf::{CopyLedger, NetBuf};
use proto::http::HttpResponseHeader;
use servers::initiator::IscsiInitiator;
use servers::khttpd::{HttpClient, KhttpdServer};
use servers::ServerHost;
use sim::costs::CostModel;
use simfs::{Filesystem, FsParams};

use crate::rig::{App, Geometry, Rig};
use crate::runner::DriverOp;
use crate::timing::Transport;

/// The assembled web rig.
pub type KhttpdRig = Rig<KhttpdServer>;

/// Rig geometry for the web experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KhttpdRigParams {
    /// Exported volume size in blocks.
    pub volume_blocks: u64,
    /// File-system buffer-cache capacity in blocks.
    pub fs_cache_blocks: usize,
    /// NCache pinned capacity in bytes (NCache build only).
    pub ncache_bytes: u64,
    /// Read-ahead window in blocks.
    pub read_ahead_blocks: u64,
    /// Inodes to provision (one per page).
    pub inode_count: u32,
    /// NCache shard count (NCache build only). Sharding only partitions
    /// the key space; every observable is identical at any shard count.
    pub shards: usize,
}

impl Default for KhttpdRigParams {
    fn default() -> Self {
        KhttpdRigParams {
            volume_blocks: 64 << 10,
            fs_cache_blocks: 2 << 10,
            ncache_bytes: 64 << 20,
            read_ahead_blocks: 8,
            inode_count: 16 << 10,
            shards: 1,
        }
    }
}

impl From<KhttpdRigParams> for Geometry {
    fn from(p: KhttpdRigParams) -> Geometry {
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

impl App for KhttpdServer {
    type Params = KhttpdRigParams;
    type Client = HttpClient;
    const TRANSPORT: Transport = Transport::Tcp;

    fn build(host: ServerHost) -> Self {
        KhttpdServer::new(host)
    }

    fn client(ledger: &CopyLedger, _session: Option<usize>) -> HttpClient {
        HttpClient::new(ledger)
    }

    fn request(client: &mut HttpClient, op: &DriverOp) -> (NetBuf, u64) {
        let DriverOp::Get { path } = op else {
            panic!("NFS op on the web rig");
        };
        (client.get_request(path), 0)
    }

    /// The response parses and its status is in the server's vocabulary;
    /// it accounts for its body.
    fn accept<'a>(
        client: &'a HttpClient,
        _op: &'a DriverOp,
        _request: &NetBuf,
    ) -> impl Fn(&NetBuf) -> Option<u64> + 'a {
        |r| response(client, r).map(|(_, body)| body.len() as u64)
    }

    fn serve(&mut self, delivered: NetBuf) -> (NetBuf, u64) {
        self.handle(&delivered)
    }

    fn stats_snapshot(&self) -> Box<dyn obs::StatsSnapshot> {
        Box::new(self.stats())
    }

    fn per_request_ns(costs: &CostModel) -> u64 {
        costs.http_req_ns
    }
}

/// The HTTP accept test: the response parses, and a status outside the
/// server's vocabulary is a mangled header that still framed correctly —
/// damage, retry.
fn response(client: &HttpClient, reply: &NetBuf) -> Option<(HttpResponseHeader, Vec<u8>)> {
    client
        .try_parse_response(reply)
        .filter(|(hdr, _)| matches!(hdr.status, 200 | 400 | 404 | 503))
}

impl Rig<KhttpdServer> {
    /// Publishes a page with deterministic content ([`Self::pattern`],
    /// keyed by the page's inode).
    pub fn publish(&mut self, name: &str, size: u64) { // test-api: integration tests publish pages by hand
        self.provision(name, size, false);
    }

    /// Publishes a page whose blocks are allocated but unwritten (cheap
    /// setup for working-set sweeps; contents are synthetic blocks).
    pub fn publish_sparse(&mut self, name: &str, size: u64) {
        self.provision(name, size, true);
    }

    /// The expected contents of a published (non-sparse) page.
    pub fn expected(&mut self, name: &str, size: u64) -> Vec<u8> { // test-api: the web tests compare each GET body with it
        let fs = self.server.fs_mut();
        let ino = fs
            .lookup(Filesystem::<IscsiInitiator>::ROOT, name)
            .expect("published page");
        Self::pattern(u64::from(ino.0), 0, size as usize)
    }

    /// Issues a GET through the full path; returns header + body. No
    /// separate clean arm: the unarmed exchange parses with the same pulls
    /// and body copy, and its one extra check (body length equals
    /// Content-Length) cannot fail on a clean link — kHTTPd derives the
    /// header from the bytes it attached or materialized (DESIGN.md §10;
    /// the thrash test below holds it at every cache size).
    pub fn get(&mut self, path: &str) -> (HttpResponseHeader, Vec<u8>) {
        self.try_get(path)
            .expect("GET exhausted its retransmission budget")
    }

    /// Fault-aware GET: completes through retried requests, or fails
    /// cleanly (`None`) once the retry budget is spent. GET is idempotent,
    /// so re-execution after a duplicated or delayed request is harmless.
    pub fn try_get(&mut self, path: &str) -> Option<(HttpResponseHeader, Vec<u8>)> {
        let req = self.session.client.get_request(path);
        self.exchange(req, response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::FaultCounters;
    use crate::runner::DriverOp;
    use servers::ServerMode;
    use sim::FaultSpec;

    #[test]
    fn faulted_get_with_zero_spec_is_clean() {
        let mut rig = KhttpdRig::new_faulted(
            ServerMode::NCache,
            KhttpdRigParams::default(),
            &FaultSpec::default(),
            11,
        );
        rig.publish("index.html", 20_000);
        let (hdr, body) = rig.try_get("/index.html").expect("clean link");
        assert_eq!(hdr.status, 200);
        assert_eq!(body, rig.expected("index.html", 20_000));
        assert_eq!(rig.fault_counters(), FaultCounters::default());
    }

    #[test]
    fn faulted_get_recovers_in_every_mode() {
        for mode in ServerMode::ALL {
            let spec = FaultSpec {
                loss: 0.10,
                duplicate: 0.05,
                delay: 0.05,
                truncate: 0.05,
                corrupt: 0.03,
                io: 0.05,
                ..FaultSpec::default()
            };
            let mut rig = KhttpdRig::new_faulted(mode, KhttpdRigParams::default(), &spec, 21);
            rig.publish("a.html", 30_000);
            let mut completed = 0;
            for _ in 0..12 {
                if let Some((hdr, body)) = rig.try_get("/a.html") {
                    assert_eq!(hdr.status, 200, "{mode}");
                    if mode != ServerMode::Baseline {
                        assert_eq!(
                            body,
                            rig.expected("a.html", 30_000),
                            "{mode}: completed GETs return correct bytes"
                        );
                    }
                    completed += 1;
                }
            }
            assert!(completed > 0, "{mode}: some GETs complete");
            assert!(rig.fault_counters().retransmits > 0, "{mode}");
        }
    }

    #[test]
    fn faulted_get_same_seed_replays_identically() {
        let spec = FaultSpec {
            loss: 0.15,
            delay: 0.05,
            io: 0.05,
            ..FaultSpec::default()
        };
        let run = |seed: u64| {
            let mut rig =
                KhttpdRig::new_faulted(ServerMode::NCache, KhttpdRigParams::default(), &spec, seed);
            rig.publish("a.html", 12_000);
            let mut out = Vec::new();
            for _ in 0..8 {
                out.push(rig.try_get("/a.html").map(|(_, b)| b));
            }
            (out, rig.fault_counters())
        };
        assert_eq!(run(6), run(6));
    }

    #[test]
    fn the_session_engine_serves_an_armed_rig_over_its_faulty_link() {
        // Timed GETs ride the rig's link like `try_get` does: every one
        // completes through retransmission, and the recovery is counted.
        let spec = FaultSpec {
            loss: 0.1,
            ..FaultSpec::default()
        };
        let mut rig =
            KhttpdRig::new_faulted(ServerMode::NCache, KhttpdRigParams::default(), &spec, 5);
        let pages = [("/a", 20_000u64), ("/b", 4096)];
        for (path, size) in pages {
            rig.publish(&path[1..], size);
        }
        let sessions: Vec<Vec<DriverOp>> = (0..4)
            .map(|sid| {
                (0..6)
                    .map(|k| DriverOp::Get {
                        path: pages[(sid + k) % 2].0.to_string(),
                    })
                    .collect()
            })
            .collect();
        let opts = crate::sessions::SessionsOptions::default();
        let (rig, r) = crate::sessions::run_sessions(rig, sessions, &opts, None);
        assert_eq!(r.ops, 24);
        assert_eq!(r.payload_bytes, 12 * (20_000 + 4096), "every GET delivered");
        let fc = rig.fault_counters();
        assert!(fc.retransmits > 0, "the link lost requests or replies");
        assert_eq!(fc.failed_requests, 0);
    }

    #[test]
    fn a_thrashing_ncache_never_breaks_content_length() {
        // `get` parses with the strict `try_parse_response`: a clean reply
        // whose body length differed from its Content-Length would surface
        // as a panic here. Caches below one chunk (the zero-fill arm after
        // `ServerHost::materialize`), of one chunk, and of a few chunks —
        // all smaller than the pages, whose sizes leave short tail blocks.
        const CHUNK: u64 = 4096 + 128;
        for ncache_bytes in [0, CHUNK - 1, CHUNK, 2 * CHUNK, 5 * CHUNK] {
            for fs_cache_blocks in [16, 2 << 10] {
                let params = KhttpdRigParams {
                    ncache_bytes,
                    fs_cache_blocks,
                    ..KhttpdRigParams::default()
                };
                let mut rig = KhttpdRig::new(ServerMode::NCache, params);
                let pages = [("a", (64u64 << 10) + 10), ("b", 3 * 4096 + 17), ("c", 1)];
                for (name, size) in pages {
                    rig.publish(name, size);
                }
                for round in 0..3 {
                    for (name, size) in pages {
                        let at = format!("{ncache_bytes} B / {fs_cache_blocks} blocks, round {round}, {name}");
                        let (hdr, body) = rig.get(&format!("/{name}"));
                        assert_eq!(hdr.status, 200, "{at}");
                        assert_eq!(hdr.content_length, size, "{at}");
                        assert_eq!(body.len() as u64, size, "{at}");
                        // Two chunks are what real bytes take (read-ahead
                        // admits behind the block being resolved); below
                        // that the page degrades to zeros, by design.
                        if ncache_bytes >= 2 * CHUNK {
                            assert!(body == rig.expected(name, size), "{at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn get_round_trip_original() {
        let mut rig = KhttpdRig::new(ServerMode::Original, KhttpdRigParams::default());
        rig.publish("index.html", 10_000);
        let (hdr, body) = rig.get("/index.html");
        assert_eq!(hdr.status, 200);
        assert_eq!(hdr.content_length, 10_000);
        assert_eq!(body, rig.expected("index.html", 10_000));
    }

    #[test]
    fn get_round_trip_ncache_substitutes() {
        let mut rig = KhttpdRig::new(ServerMode::NCache, KhttpdRigParams::default());
        rig.publish("page", 75_000);
        let (hdr, body) = rig.get("/page");
        assert_eq!(hdr.status, 200);
        assert_eq!(body, rig.expected("page", 75_000), "real bytes, not junk");
        let module = rig.module().expect("ncache build");
        let totals = module.borrow().substitution_totals();
        assert!(totals.substituted > 0);
        assert_eq!(totals.missing, 0);
        assert_eq!(rig.server_mut().stats().tracked_responses, 1);
    }

    #[test]
    fn baseline_sends_junk_with_correct_length() {
        let mut rig = KhttpdRig::new(ServerMode::Baseline, KhttpdRigParams::default());
        rig.publish("page", 20_000);
        let (hdr, body) = rig.get("/page");
        assert_eq!(hdr.status, 200);
        assert_eq!(body.len(), 20_000);
        assert_ne!(body, rig.expected("page", 20_000));
    }

    #[test]
    fn missing_page_is_404() {
        let mut rig = KhttpdRig::new(ServerMode::Original, KhttpdRigParams::default());
        let (hdr, body) = rig.get("/nope");
        assert_eq!(hdr.status, 404);
        assert!(body.is_empty());
        assert_eq!(rig.server_mut().stats().not_found, 1);
    }

    #[test]
    fn header_survives_substitution_untouched() {
        let mut rig = KhttpdRig::new(ServerMode::NCache, KhttpdRigParams::default());
        rig.publish("p", 4096);
        let (hdr, _) = rig.get("/p");
        assert_eq!(hdr, HttpResponseHeader::ok(4096));
    }
}
