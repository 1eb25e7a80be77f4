//! HTTP transmit-stream tracking for kHTTPd (§3.5, §4.3).
//!
//! NCache applied to a web server must tell response *headers* (metadata:
//! pass through untouched) from response *bodies* (regular data: eligible
//! for substitution). The tracker watches each connection's outgoing byte
//! stream, finds the `\r\n\r\n` boundary, reads `Content-Length`, and
//! classifies every transmitted byte range. After a body completes it
//! re-arms for the next response on the connection.

use proto::http::{find_header_end, HttpResponseHeader};

/// Classification of a range of outgoing stream bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxDisposition {
    /// Header bytes: metadata, pass through.
    Header(usize),
    /// Body bytes: regular data, eligible for substitution.
    Body(usize),
}

impl TxDisposition {
    /// The byte count this range covers.
    pub fn len(&self) -> usize {
        match *self {
            TxDisposition::Header(n) | TxDisposition::Body(n) => n,
        }
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[derive(Debug)]
enum State {
    /// Accumulating header bytes in `seen` until the boundary appears.
    Header,
    /// Inside a body with `remaining` bytes to go.
    Body { remaining: u64 },
}

/// Per-connection transmit tracker: one lives as long as its stream and
/// re-arms after every response.
///
/// # Examples
///
/// ```
/// use ncache::tracker::{HttpTxTracker, TxDisposition};
///
/// let mut t = HttpTxTracker::new();
/// let header = b"HTTP/1.0 200 OK\r\nContent-Length: 5\r\n\r\n";
/// let mut stream = header.to_vec();
/// stream.extend_from_slice(b"hello");
/// let mut parts = Vec::new();
/// t.feed(&stream, |d| parts.push(d));
/// assert_eq!(parts, vec![
///     TxDisposition::Header(header.len()),
///     TxDisposition::Body(5),
/// ]);
/// ```
#[derive(Debug)]
pub struct HttpTxTracker {
    state: State,
    /// The header bytes of the response being scanned. Emptied, not
    /// dropped, on re-arm: a connection's second response reuses the
    /// first one's buffer.
    seen: Vec<u8>,
    responses_seen: u64,
}

impl HttpTxTracker {
    /// A tracker at the start of a connection.
    pub fn new() -> Self {
        HttpTxTracker {
            state: State::Header,
            seen: Vec::new(),
            responses_seen: 0,
        }
    }

    /// Responses whose headers have completed so far.
    pub fn responses_seen(&self) -> u64 { // test-api: the tracker and kHTTPd stream tests count completed headers
        self.responses_seen
    }

    /// Whether the tracker is currently inside a response body.
    pub fn in_body(&self) -> bool {
        matches!(self.state, State::Body { .. })
    }

    /// Feeds the next `chunk` of outgoing stream bytes, handing `sink` the
    /// classification of each sub-range in order. Ranges never overlap and
    /// exactly cover the chunk.
    pub fn feed(&mut self, chunk: &[u8], mut sink: impl FnMut(TxDisposition)) {
        let mut at = 0usize;
        while at < chunk.len() {
            match self.state {
                State::Header => {
                    let start_len = self.seen.len();
                    self.seen.extend_from_slice(&chunk[at..]);
                    match find_header_end(&self.seen) {
                        Some(end) => {
                            // Bytes of *this chunk* that belong to the header:
                            let header_in_chunk = end - start_len;
                            sink(TxDisposition::Header(header_in_chunk));
                            let content_length = HttpResponseHeader::decode(&self.seen)
                                .map(|(h, _)| h.content_length)
                                .unwrap_or(0);
                            self.responses_seen += 1;
                            self.state = State::Body {
                                remaining: content_length,
                            };
                            at += header_in_chunk;
                            // Zero-length bodies re-arm immediately.
                            self.maybe_rearm();
                        }
                        None => {
                            // Whole remainder is header-so-far.
                            sink(TxDisposition::Header(chunk.len() - at));
                            at = chunk.len();
                        }
                    }
                }
                State::Body { .. } => {
                    let take = self.feed_body(chunk.len() - at);
                    sink(TxDisposition::Body(take));
                    at += take;
                }
            }
        }
    }

    /// Classifies the next `len` stream bytes by length alone — body bytes
    /// are never read, so a sender that knows its body's length need not
    /// show them. Returns how many of them were body: fewer than `len`
    /// when the body ends first (0 outside a body), and the rest, the next
    /// response's header, must go through [`HttpTxTracker::feed`].
    pub fn feed_body(&mut self, len: usize) -> usize {
        let State::Body { remaining } = &mut self.state else {
            return 0;
        };
        let take = (len as u64).min(*remaining) as usize;
        *remaining -= take as u64;
        self.maybe_rearm();
        take
    }

    fn maybe_rearm(&mut self) {
        if let State::Body { remaining: 0 } = self.state {
            self.state = State::Header;
            self.seen.clear();
        }
    }
}

impl Default for HttpTxTracker {
    fn default() -> Self {
        HttpTxTracker::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(body_len: usize) -> Vec<u8> {
        let mut v =
            format!("HTTP/1.0 200 OK\r\nContent-Length: {body_len}\r\n\r\n").into_bytes();
        v.extend(std::iter::repeat_n(0x42u8, body_len));
        v
    }

    fn feed(t: &mut HttpTxTracker, chunk: &[u8]) -> Vec<TxDisposition> {
        let mut parts = Vec::new();
        t.feed(chunk, |d| parts.push(d));
        parts
    }

    #[test]
    fn whole_response_in_one_chunk() {
        let mut t = HttpTxTracker::new();
        let resp = response(10);
        let header_len = resp.len() - 10;
        assert_eq!(
            feed(&mut t, &resp),
            vec![TxDisposition::Header(header_len), TxDisposition::Body(10)]
        );
        assert_eq!(t.responses_seen(), 1);
        assert!(!t.in_body(), "re-armed after body completes");
    }

    #[test]
    fn split_mid_header() {
        let mut t = HttpTxTracker::new();
        let resp = response(4);
        let header_len = resp.len() - 4;
        let cut = 10; // inside the header
        let p1 = feed(&mut t, &resp[..cut]);
        assert_eq!(p1, vec![TxDisposition::Header(cut)]);
        let p2 = feed(&mut t, &resp[cut..]);
        assert_eq!(
            p2,
            vec![
                TxDisposition::Header(header_len - cut),
                TxDisposition::Body(4)
            ]
        );
    }

    #[test]
    fn split_mid_body() {
        let mut t = HttpTxTracker::new();
        let resp = response(1000);
        let header_len = resp.len() - 1000;
        feed(&mut t, &resp[..header_len + 100]);
        assert!(t.in_body());
        let p = feed(&mut t, &resp[header_len + 100..]);
        assert_eq!(p, vec![TxDisposition::Body(900)]);
        assert!(!t.in_body());
    }

    #[test]
    fn byte_at_a_time() {
        let mut t = HttpTxTracker::new();
        let resp = response(3);
        let mut header = 0usize;
        let mut body = 0usize;
        for b in &resp {
            for d in feed(&mut t, std::slice::from_ref(b)) {
                match d {
                    TxDisposition::Header(n) => header += n,
                    TxDisposition::Body(n) => body += n,
                }
            }
        }
        assert_eq!(header, resp.len() - 3);
        assert_eq!(body, 3);
    }

    #[test]
    fn consecutive_responses_on_one_connection() {
        let mut t = HttpTxTracker::new();
        let mut stream = response(5);
        stream.extend(response(7));
        let parts = feed(&mut t, &stream);
        let bodies: usize = parts
            .iter()
            .filter_map(|d| match d {
                TxDisposition::Body(n) => Some(*n),
                _ => None,
            })
            .sum();
        assert_eq!(bodies, 12);
        assert_eq!(t.responses_seen(), 2);
    }

    #[test]
    fn zero_length_body_rearms() {
        let mut t = HttpTxTracker::new();
        let resp = response(0);
        let parts = feed(&mut t, &resp);
        assert_eq!(parts, vec![TxDisposition::Header(resp.len())]);
        assert!(!t.in_body());
        // Next response parses fine.
        let r2 = response(2);
        let parts = feed(&mut t, &r2);
        assert_eq!(
            parts,
            vec![TxDisposition::Header(r2.len() - 2), TxDisposition::Body(2)]
        );
    }

    #[test]
    fn ranges_exactly_cover_every_chunk() {
        let mut t = HttpTxTracker::new();
        let mut stream = response(100);
        stream.extend(response(0));
        stream.extend(response(55));
        for chunk in stream.chunks(13) {
            let total: usize = feed(&mut t, chunk).iter().map(TxDisposition::len).sum();
            assert_eq!(total, chunk.len());
        }
        assert_eq!(t.responses_seen(), 3);
    }

    #[test]
    fn bodies_fed_by_length_classify_like_bodies_fed_as_bytes() {
        let mut t = HttpTxTracker::new();
        assert_eq!(t.feed_body(5), 0, "no body before a header");
        for _ in 0..2 {
            let resp = response(1000);
            let header_len = resp.len() - 1000;
            let parts = feed(&mut t, &resp[..header_len]);
            assert_eq!(parts, vec![TxDisposition::Header(header_len)]);
            assert_eq!(t.feed_body(600), 600);
            assert!(t.in_body());
            assert_eq!(t.feed_body(1000), 400, "the body ends first");
            assert!(!t.in_body(), "re-armed for the connection's next response");
            assert_eq!(t.feed_body(1), 0);
        }
        assert_eq!(t.responses_seen(), 2);
    }

    #[test]
    fn disposition_len_and_empty() {
        assert_eq!(TxDisposition::Header(4).len(), 4);
        assert_eq!(TxDisposition::Body(0).len(), 0);
        assert!(TxDisposition::Body(0).is_empty());
        assert!(!TxDisposition::Header(1).is_empty());
    }
}
