//! kHTTPd: the in-kernel static web server, in the paper's three builds.
//!
//! The daemon is protocol only: it parses a GET, finds the page, serves
//! its body with the host's sendfile (`ServerHost::sendfile`) and hands
//! the response to the host's stream transmit
//! (`ServerHost::transmit_stream`). What differs per build lives there:
//! the original build's sendfile copies once, buffer cache → network
//! stack (Table 2); the NCache build moves only keys (§4.1's changed
//! sendfile interface), and its module confirms the header/body split the
//! way the real one tracks TCP streams (§4.3) before the driver-level hook
//! substitutes the body; the baseline build attaches the placeholder
//! blocks and sends the junk — the ideal zero-copy bound.

use netbuf::{CopyLedger, NetBuf, Segment};
use proto::http::{HttpRequest, HttpResponseHeader};
use simfs::{Filesystem, FsError, Ino};

use crate::control::OpClass;
use crate::host::{Pending, ServerHost};
use crate::initiator::IscsiInitiator;

/// kHTTPd counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KhttpdStats {
    /// GET requests served.
    pub requests: u64,
    /// 404 responses.
    pub not_found: u64,
    /// 400 responses (malformed or non-GET requests).
    pub bad_requests: u64,
    /// Body bytes served.
    pub bytes_served: u64,
    /// Responses whose header/body boundary the stream tracker confirmed.
    pub tracked_responses: u64,
    /// 503 responses from the overload control plane (retryable).
    pub retry_later: u64,
}

impl obs::StatsSnapshot for KhttpdStats {
    fn source(&self) -> &'static str {
        "khttpd"
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("requests", self.requests),
            ("not_found", self.not_found),
            ("bad_requests", self.bad_requests),
            ("bytes_served", self.bytes_served),
            ("tracked_responses", self.tracked_responses),
            ("retry_later", self.retry_later),
        ]
    }
}

/// The static web server: the HTTP codec, the page paths and their
/// counters over the [`ServerHost`] it derefs to.
#[derive(Debug)]
pub struct KhttpdServer {
    host: ServerHost,
    stats: KhttpdStats,
}

impl std::ops::Deref for KhttpdServer {
    type Target = ServerHost;

    fn deref(&self) -> &ServerHost {
        &self.host
    }
}

impl std::ops::DerefMut for KhttpdServer {
    fn deref_mut(&mut self) -> &mut ServerHost {
        &mut self.host
    }
}

impl KhttpdServer {
    /// kHTTPd over `host` (pages live in the root directory; path `/name`
    /// maps to file `name`).
    pub fn new(host: ServerHost) -> Self {
        KhttpdServer {
            host,
            stats: KhttpdStats::default(),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> KhttpdStats {
        self.stats
    }

    /// Serves one GET request (a delivered HTTP request payload) and
    /// returns the response stream as one buffer (header + body), already
    /// passed through the driver-level substitution hook.
    pub fn handle_request(&mut self, req: &NetBuf) -> NetBuf {
        self.handle(req).0
    }

    /// [`KhttpdServer::handle_request`], also returning the packets the
    /// transmit hook substituted into the response.
    pub fn handle(&mut self, req: &NetBuf) -> (NetBuf, u64) {
        self.stats.requests += 1;
        let req_bytes = req.payload_len() as u64;
        // A delivered request is all landed bytes: the path is parsed
        // where it lies.
        let gathered;
        let raw = match req.payload_contiguous() {
            Some(run) => run,
            None => {
                gathered = req.peek(0, req.payload_len());
                &gathered
            }
        };
        let Ok(path) = HttpRequest::parse_path(raw) else {
            // Malformed or unsupported requests get a 400, never a panic.
            let span = self
                .recorder
                .begin_span("malformed", self.host.build_label(), req_bytes);
            self.stats.bad_requests += 1;
            let r = self.header_only(HttpResponseHeader {
                status: 400,
                content_length: 0,
                retry_after_s: 0,
            });
            self.host.recorder.end_span(span);
            return (r, 0);
        };
        let span = self
            .host
            .recorder
            .begin_span("get", self.host.build_label(), req_bytes);
        // Admission control: a well-formed GET past the parser but ahead
        // of any file-system work gets the 503-with-Retry-After analog of
        // the NFS `RETRY_LATER` rejection.
        if let Some(after_ns) = self.host.admit(OpClass::Read) {
            self.stats.retry_later += 1;
            let after_s = after_ns.div_ceil(1_000_000_000).max(1) as u32;
            let r = self.header_only(HttpResponseHeader::service_unavailable(after_s));
            self.host.recorder.end_span(span);
            return (r, 0);
        }
        let name = path.trim_start_matches('/');
        let mut response = NetBuf::new(&self.host.ledger);
        let mut pending = Pending::default();

        let page = match self.find_page(name) {
            Ok((ino, size)) => {
                let size = size as usize;
                let sent = self.host.sendfile(ino, 0, size, &mut response);
                let body_len = match sent.expect("page readable") {
                    Some(sent) => {
                        pending = sent.pending;
                        sent.len
                    }
                    // A placeholder dangles (evicted or corrupt): degrade
                    // to a physical copy, correct even when the cache is
                    // smaller than the page. A cache below one chunk serves
                    // zeros rather than a raw placeholder, and never
                    // panics: the length still matches the header.
                    None => {
                        let body = self
                            .host
                            .materialize(ino, 0, size)
                            .unwrap_or_else(|_| vec![0; size]);
                        let n = body.len();
                        response.append_segment(Segment::from_vec(body));
                        n
                    }
                };
                self.stats.bytes_served += body_len as u64;
                push_response_header(&mut response, HttpResponseHeader::ok(body_len as u64));
                true
            }
            Err(_) => {
                self.stats.not_found += 1;
                push_response_header(&mut response, HttpResponseHeader::not_found());
                false
            }
        };

        // Driver-boundary hook: substitute body blocks from the cache.
        let (substituted, tracked) = self.host.transmit_stream(&mut response, pending, page);
        self.stats.tracked_responses += u64::from(tracked);
        self.host.recorder.end_span(span);
        (response, substituted)
    }

    fn find_page(&mut self, name: &str) -> Result<(Ino, u64), FsError> {
        let ino = self.host.fs.lookup(Filesystem::<IscsiInitiator>::ROOT, name)?;
        let attrs = self.host.fs.getattr(ino)?;
        Ok((ino, attrs.size))
    }

    /// A bodiless response.
    fn header_only(&self, header: HttpResponseHeader) -> NetBuf {
        let mut buf = [0u8; HttpResponseHeader::MAX_ENCODED_LEN];
        self.host.header_only(header.encode_into(&mut buf))
    }
}

/// Encodes `header` on the stack and prepends it to `response`.
fn push_response_header(response: &mut NetBuf, header: HttpResponseHeader) {
    response.push_header(header.encode_into(&mut [0u8; HttpResponseHeader::MAX_ENCODED_LEN]));
}

/// A minimal HTTP client for the workload generators and tests.
#[derive(Debug)]
pub struct HttpClient {
    ledger: CopyLedger,
}

impl HttpClient {
    /// A client charging `ledger`.
    pub fn new(ledger: &CopyLedger) -> Self {
        HttpClient {
            ledger: ledger.clone(),
        }
    }

    /// Builds a GET request for `path`.
    pub fn get_request(&self, path: &str) -> NetBuf {
        let mut b = NetBuf::new(&self.ledger);
        b.push_header(
            &HttpRequest {
                path: path.to_string(),
            }
            .encode(),
        );
        b
    }

    /// Parses a response stream into (header, body bytes). The body copy
    /// is the client-side receive copy.
    ///
    /// # Panics
    ///
    /// Panics on malformed responses (test infrastructure).
    pub fn parse_response(&self, response: &NetBuf) -> (HttpResponseHeader, Vec<u8>) {
        let rx = crate::stack::deliver(response, &self.ledger);
        let mut stream = rx.copy_payload_to_vec();
        let (header, body_at) = HttpResponseHeader::decode(&stream).expect("response header");
        // The stream buffer becomes the body: drop the header prefix in
        // place instead of copying the body out a second time.
        stream.drain(..body_at);
        (header, stream)
    }

    /// Non-panicking [`HttpClient::parse_response`] for faulty links:
    /// `None` when the header is undecodable or the body is shorter than
    /// the advertised content length (truncation), meaning the client must
    /// retry the request.
    pub fn try_parse_response(&self, response: &NetBuf) -> Option<(HttpResponseHeader, Vec<u8>)> {
        let rx = crate::stack::deliver(response, &self.ledger);
        let mut stream = rx.copy_payload_to_vec();
        let (header, body_at) = HttpResponseHeader::decode(&stream).ok()?;
        if stream.len().checked_sub(body_at)? != header.content_length as usize {
            return None;
        }
        stream.drain(..body_at);
        Some((header, stream))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::ControlConfig;
    use crate::mode::ServerMode;
    use ncache::NcacheModule;
    use crate::target::IscsiTarget;
    use simfs::FsParams;

    fn server(mode: ServerMode) -> (KhttpdServer, HttpClient) {
        let app = CopyLedger::new();
        let storage = CopyLedger::new();
        let target = sim::Shared::new(IscsiTarget::new(16 << 10, &storage));
        let module = (mode == ServerMode::NCache).then(|| {
            sim::Shared::new(NcacheModule::new(
                ncache::NcacheConfig::with_capacity(8 << 20),
                &app,
            ))
        });
        let initiator =
            crate::initiator::IscsiInitiator::new(target, &app, mode, module.clone());
        let fs = Filesystem::mkfs(initiator, FsParams::default(), &app).expect("mkfs");
        (
            KhttpdServer::new(ServerHost::new(mode, fs, module, &app)),
            HttpClient::new(&CopyLedger::new()),
        )
    }

    fn publish(srv: &mut KhttpdServer, name: &str, data: &[u8]) {
        let ino = srv
            .fs_mut()
            .create(Filesystem::<crate::IscsiInitiator>::ROOT, name)
            .expect("fresh");
        srv.fs_mut().write(ino, 0, data).expect("space");
        srv.fs_mut().sync().expect("sync");
    }

    fn get(srv: &mut KhttpdServer, client: &HttpClient, path: &str) -> (HttpResponseHeader, Vec<u8>) {
        let req = client.get_request(path);
        let delivered = crate::stack::deliver(&req, &CopyLedger::new());
        let response = srv.handle_request(&delivered);
        client.parse_response(&response)
    }

    #[test]
    fn serves_pages_and_counts_stats() {
        let (mut srv, client) = server(ServerMode::Original);
        publish(&mut srv, "index", b"hello web");
        let (hdr, body) = get(&mut srv, &client, "/index");
        assert_eq!(hdr.status, 200);
        assert_eq!(body, b"hello web");
        let (hdr, _) = get(&mut srv, &client, "/absent");
        assert_eq!(hdr.status, 404);
        let s = srv.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.not_found, 1);
        assert_eq!(s.bytes_served, 9);
    }

    #[test]
    fn original_checksums_but_ncache_inherits() {
        let app_original;
        {
            let (mut srv, client) = server(ServerMode::Original);
            publish(&mut srv, "p", &[5u8; 4096]);
            let before = srv.host.ledger.snapshot();
            get(&mut srv, &client, "/p");
            app_original = srv.host.ledger.snapshot().delta_since(&before);
        }
        assert_eq!(app_original.csum_bytes, 4096);
        let (mut srv, client) = server(ServerMode::NCache);
        publish(&mut srv, "p", &[5u8; 4096]);
        srv.fs_mut().set_cache_capacity(0);
        srv.fs_mut().set_cache_capacity(2048);
        let before = srv.host.ledger.snapshot();
        get(&mut srv, &client, "/p");
        let d = srv.host.ledger.snapshot().delta_since(&before);
        assert_eq!(d.csum_bytes, 0, "NCache inherits instead of recomputing");
    }

    #[test]
    fn overloaded_server_answers_503_with_retry_after_then_recovers() {
        let (mut srv, client) = server(ServerMode::NCache);
        publish(&mut srv, "page", b"still here");
        srv.enable_control(ControlConfig {
            max_inflight: 2,
            retry_after_ns: 3_000_000_000, // rounds up to whole seconds
            ..ControlConfig::unlimited()
        });
        srv.set_load(0, 2); // at the bound: the next GET is rejected
        let (hdr, body) = get(&mut srv, &client, "/page");
        assert_eq!(hdr.status, 503);
        assert_eq!(hdr.retry_after_s, 3, "rejection carries the server hint");
        assert!(body.is_empty(), "a rejection ships no payload");
        let s = srv.control_stats().expect("control installed");
        assert_eq!(s.rejected, 1);
        assert_eq!(s.inflight_rejects, 1);
        // The rejection did no file-system work.
        assert_eq!(srv.stats().bytes_served, 0);
        // Load drains; the retried GET succeeds.
        srv.set_load(5_000_000_000, 0);
        let (hdr, body) = get(&mut srv, &client, "/page");
        assert_eq!(hdr.status, 200);
        assert_eq!(body, b"still here");
    }

    #[test]
    fn names_at_the_edges_of_the_directory_compare() {
        for mode in [ServerMode::Original, ServerMode::NCache] {
            let (mut srv, client) = server(mode);
            publish(&mut srv, "page", b"found");
            publish(&mut srv, "gone", b"x");
            srv.fs_mut()
                .remove(Filesystem::<crate::IscsiInitiator>::ROOT, "gone")
                .expect("present");
            let mut status = |path: &str| get(&mut srv, &client, path).0.status;
            // The empty name must not match the free slots around `page`.
            assert_eq!(status("/"), 404);
            assert_eq!(status(""), 400, "no path at all is malformed");
            assert_eq!(status("//page"), 200, "leading slashes are trimmed");
            assert_eq!(status("/page/"), 404);
            assert_eq!(status("/pag"), 404, "a strict prefix of a stored name");
            assert_eq!(status("/pages"), 404, "a stored name is a prefix of it");
            assert_eq!(status(&format!("/{}", "n".repeat(40))), 404, "longer than a slot holds");
            assert_eq!(status("/page\0"), 404);
            assert_eq!(status("/gone"), 404);
            let s = srv.stats();
            assert_eq!((s.requests, s.not_found, s.bad_requests), (9, 7, 1));
        }
    }

    #[test]
    fn one_tracker_follows_every_response_of_the_connection() {
        let (mut srv, client) = server(ServerMode::NCache);
        publish(&mut srv, "big", &[7u8; 3 * 4096 + 5]);
        publish(&mut srv, "empty", b"");
        for path in ["/big", "/absent", "/empty", "/big", "", "/big"] {
            get(&mut srv, &client, path);
        }
        // Only 200s reach the tracker; each leaves it re-armed (the debug
        // assertions in `ServerHost::track` fail the GET after one that did not).
        assert_eq!(srv.stats().tracked_responses, 4);
        assert_eq!(srv.tracker.responses_seen(), 4);
        assert!(!srv.tracker.in_body());
    }

    #[test]
    fn a_request_split_across_segments_still_parses() {
        let (mut srv, client) = server(ServerMode::Original);
        publish(&mut srv, "page", b"found");
        let wire = client.get_request("/page").to_wire();
        let mut req = NetBuf::new(&CopyLedger::new());
        req.append_bytes(&wire[..7]);
        req.append_bytes(&wire[7..]);
        let (hdr, body) = client.parse_response(&srv.handle_request(&req));
        assert_eq!((hdr.status, &body[..]), (200, &b"found"[..]));
    }

    #[test]
    fn zero_length_page() {
        let (mut srv, client) = server(ServerMode::NCache);
        publish(&mut srv, "empty", b"");
        let (hdr, body) = get(&mut srv, &client, "/empty");
        assert_eq!(hdr.status, 200);
        assert_eq!(hdr.content_length, 0);
        assert!(body.is_empty());
    }
}
