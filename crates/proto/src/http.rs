//! HTTP/1.0 subset for the kHTTPd experiments.
//!
//! kHTTPd serves only static pages; NCache tracks its outgoing TCP streams
//! and splits each response at the `\r\n\r\n` header/body boundary: header
//! packets pass through untouched, body packets are substituted from the
//! cache (paper §3.5, §4.3).

use crate::error::{DecodeError, Result};

/// A parsed HTTP/1.0 GET request.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct HttpRequest {
    /// Request path (e.g. `/dir0/file3.html`).
    pub path: String,
}

impl HttpRequest {
    /// Builds the wire form of a GET for `path`.
    pub fn encode(&self) -> Vec<u8> {
        format!("GET {} HTTP/1.0\r\nHost: testbed\r\n\r\n", self.path).into_bytes()
    }

    /// Parses a request from `buf`.
    ///
    /// # Errors
    ///
    /// As [`HttpRequest::parse_path`].
    pub fn decode(buf: &[u8]) -> Result<HttpRequest> {
        Ok(HttpRequest {
            path: HttpRequest::parse_path(buf)?.to_string(),
        })
    }

    /// Parses a request from `buf` down to its path, borrowed from `buf` —
    /// all a static server needs of it, and no allocation to get it.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] when the blank line has not arrived yet,
    /// [`DecodeError::BadField`] on a malformed request line,
    /// [`DecodeError::Unsupported`] on non-GET methods.
    pub fn parse_path(buf: &[u8]) -> Result<&str> {
        let end = find_header_end(buf).ok_or(DecodeError::Truncated {
            need: buf.len() + 1,
            have: buf.len(),
        })?;
        let head = std::str::from_utf8(&buf[..end]).map_err(|_| DecodeError::BadField("utf-8"))?;
        let line = head.lines().next().ok_or(DecodeError::BadField("request line"))?;
        let mut parts = line.split_whitespace();
        let method = parts.next().ok_or(DecodeError::BadField("method"))?;
        if method != "GET" {
            return Err(DecodeError::Unsupported("non-GET method"));
        }
        let path = parts.next().ok_or(DecodeError::BadField("path"))?;
        let version = parts.next().ok_or(DecodeError::BadField("version"))?;
        if !version.starts_with("HTTP/1.") {
            return Err(DecodeError::BadField("version"));
        }
        Ok(path)
    }
}

/// A parsed (or to-be-built) HTTP/1.0 response header.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct HttpResponseHeader {
    /// Status code (200, 404, 503, ...).
    pub status: u16,
    /// Declared body length in bytes.
    pub content_length: u64,
    /// `Retry-After` hint in seconds; emitted only when non-zero. The
    /// overload control plane's 503 rejections carry this so clients
    /// back off instead of hammering a shedding server.
    pub retry_after_s: u32,
}

impl HttpResponseHeader {
    /// A 200 OK header for a `content_length`-byte body.
    pub fn ok(content_length: u64) -> Self {
        HttpResponseHeader {
            status: 200,
            content_length,
            retry_after_s: 0,
        }
    }

    /// A 404 header.
    pub fn not_found() -> Self {
        HttpResponseHeader {
            status: 404,
            content_length: 0,
            retry_after_s: 0,
        }
    }

    /// A 503 Service Unavailable header with a `Retry-After` hint —
    /// the kHTTPd analog of the NFS `RETRY_LATER` rejection.
    pub fn service_unavailable(retry_after_s: u32) -> Self {
        HttpResponseHeader {
            status: 503,
            content_length: 0,
            retry_after_s,
        }
    }

    /// Room for the longest header [`HttpResponseHeader::encode_into`]
    /// writes: a 503 with a ten-digit `Retry-After` and a twenty-digit
    /// `Content-Length` is 115 bytes.
    pub const MAX_ENCODED_LEN: usize = 128;

    /// Builds the header bytes, ending in the `\r\n\r\n` boundary.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_into(&mut [0u8; Self::MAX_ENCODED_LEN]).to_vec()
    }

    /// [`HttpResponseHeader::encode`] into a caller's (stack) buffer;
    /// returns the written prefix.
    pub fn encode_into<'a>(&self, buf: &'a mut [u8; Self::MAX_ENCODED_LEN]) -> &'a [u8] {
        use std::io::Write;
        let reason = match self.status {
            200 => "OK",
            404 => "Not Found",
            503 => "Service Unavailable",
            _ => "Unknown",
        };
        let mut rest = &mut buf[..];
        let fits = "MAX_ENCODED_LEN holds the longest header";
        write!(rest, "HTTP/1.0 {} {}\r\nServer: khttpd\r\n", self.status, reason).expect(fits);
        if self.retry_after_s > 0 {
            write!(rest, "Retry-After: {}\r\n", self.retry_after_s).expect(fits);
        }
        write!(rest, "Content-Length: {}\r\n\r\n", self.content_length).expect(fits);
        let written = Self::MAX_ENCODED_LEN - rest.len();
        &buf[..written]
    }

    /// Parses the response header at the start of a stream, returning the
    /// header and the offset where the body begins.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] when the boundary has not arrived,
    /// [`DecodeError::BadField`] on malformed status line or missing
    /// `Content-Length`.
    pub fn decode(buf: &[u8]) -> Result<(HttpResponseHeader, usize)> {
        let end = find_header_end(buf).ok_or(DecodeError::Truncated {
            need: buf.len() + 1,
            have: buf.len(),
        })?;
        let head = std::str::from_utf8(&buf[..end]).map_err(|_| DecodeError::BadField("utf-8"))?;
        let mut lines = head.lines();
        let status_line = lines.next().ok_or(DecodeError::BadField("status line"))?;
        let mut parts = status_line.split_whitespace();
        let version = parts.next().ok_or(DecodeError::BadField("version"))?;
        if !version.starts_with("HTTP/1.") {
            return Err(DecodeError::BadField("version"));
        }
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or(DecodeError::BadField("status code"))?;
        let mut content_length = None;
        let mut retry_after_s = 0;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse::<u64>().ok();
                } else if name.eq_ignore_ascii_case("retry-after") {
                    retry_after_s = value.trim().parse::<u32>().unwrap_or(0);
                }
            }
        }
        let content_length = content_length.ok_or(DecodeError::BadField("content-length"))?;
        Ok((
            HttpResponseHeader {
                status,
                content_length,
                retry_after_s,
            },
            end,
        ))
    }
}

/// Finds the index just past the `\r\n\r\n` header/body boundary — the
/// pattern the NCache HTTP tracker scans for (paper §3.5).
pub fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use check::gen::*;
    use check::{prop_assert, prop_assert_eq, property};

    #[test]
    fn request_round_trip() {
        let r = HttpRequest {
            path: "/specweb/dir04/class2_7".to_string(),
        };
        assert_eq!(HttpRequest::decode(&r.encode()), Ok(r));
    }

    #[test]
    fn request_incomplete_is_truncated() {
        assert!(matches!(
            HttpRequest::decode(b"GET /x HTTP/1.0\r\nHost:"),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn request_rejects_non_get() {
        let buf = b"POST /x HTTP/1.0\r\n\r\n";
        assert_eq!(
            HttpRequest::decode(buf),
            Err(DecodeError::Unsupported("non-GET method"))
        );
    }

    #[test]
    fn request_rejects_malformed() {
        assert!(HttpRequest::decode(b"GARBAGE\r\n\r\n").is_err());
        assert!(HttpRequest::decode(b"GET /x SPDY/9\r\n\r\n").is_err());
        assert!(HttpRequest::decode(b"GET\r\n\r\n").is_err());
    }

    #[test]
    fn response_round_trip() {
        let h = HttpResponseHeader::ok(75_000);
        let enc = h.encode();
        let (parsed, body_at) = HttpResponseHeader::decode(&enc).expect("valid");
        assert_eq!(parsed, h);
        assert_eq!(body_at, enc.len());
        assert!(enc.ends_with(b"\r\n\r\n"));
    }

    #[test]
    fn response_body_offset_points_at_body() {
        let h = HttpResponseHeader::ok(3);
        let mut stream = h.encode();
        stream.extend_from_slice(b"abc");
        let (parsed, body_at) = HttpResponseHeader::decode(&stream).expect("valid");
        assert_eq!(&stream[body_at..], b"abc");
        assert_eq!(parsed.content_length, 3);
    }

    #[test]
    fn response_404() {
        let h = HttpResponseHeader::not_found();
        let (parsed, _) = HttpResponseHeader::decode(&h.encode()).expect("valid");
        assert_eq!(parsed.status, 404);
        assert_eq!(parsed.content_length, 0);
    }

    #[test]
    fn response_503_round_trips_retry_after() {
        let h = HttpResponseHeader::service_unavailable(2);
        let enc = h.encode();
        let text = std::str::from_utf8(&enc).expect("ascii header");
        assert!(text.contains("503 Service Unavailable"));
        assert!(text.contains("Retry-After: 2\r\n"));
        let (parsed, body_at) = HttpResponseHeader::decode(&enc).expect("valid");
        assert_eq!(parsed, h);
        assert_eq!(body_at, enc.len());
        // A zero hint is simply omitted from the wire form.
        let quiet = HttpResponseHeader::ok(9).encode();
        assert!(!std::str::from_utf8(&quiet).unwrap().contains("Retry-After"));
    }

    #[test]
    fn the_longest_header_fits_the_stack_buffer() {
        let h = HttpResponseHeader {
            status: u16::MAX,
            content_length: u64::MAX,
            retry_after_s: u32::MAX,
        };
        let mut buf = [0u8; HttpResponseHeader::MAX_ENCODED_LEN];
        let enc = h.encode_into(&mut buf);
        assert_eq!(enc.len(), 105);
        assert_eq!(HttpResponseHeader::decode(enc).expect("valid").0, h);
        let h = HttpResponseHeader { status: 503, ..h };
        assert_eq!(h.encode_into(&mut buf).len(), 115, "the longest reason phrase");
        assert_eq!(h.encode(), h.encode_into(&mut buf));
    }

    #[test]
    fn the_borrowed_path_is_the_decoded_one() {
        let buf = b"GET //a/b HTTP/1.1\r\nHost: x\r\n\r\nbody";
        assert_eq!(HttpRequest::parse_path(buf), Ok("//a/b"));
        assert_eq!(HttpRequest::decode(buf).map(|r| r.path), Ok("//a/b".to_string()));
        assert_eq!(
            HttpRequest::parse_path(b"PUT / HTTP/1.0\r\n\r\n"),
            Err(DecodeError::Unsupported("non-GET method"))
        );
    }

    #[test]
    fn response_missing_content_length_rejected() {
        let buf = b"HTTP/1.0 200 OK\r\nServer: x\r\n\r\n";
        assert_eq!(
            HttpResponseHeader::decode(buf),
            Err(DecodeError::BadField("content-length"))
        );
    }

    #[test]
    fn header_end_detection() {
        assert_eq!(find_header_end(b"ab\r\n\r\ncd"), Some(6));
        assert_eq!(find_header_end(b"ab\r\ncd"), None);
        assert_eq!(find_header_end(b""), None);
        assert_eq!(find_header_end(b"\r\n\r\n"), Some(4));
    }

    property! {
        fn prop_request_round_trip(
            path in string_of(URL_PATH, 0..61).map(|tail| format!("/{tail}")),
        ) {
            let r = HttpRequest { path };
            prop_assert_eq!(HttpRequest::decode(&r.encode()), Ok(r.clone()));
        }

        fn prop_response_round_trip(len in any_u64()) {
            let h = HttpResponseHeader::ok(len);
            let (parsed, _) = HttpResponseHeader::decode(&h.encode()).unwrap();
            prop_assert_eq!(parsed, h);
        }

        fn prop_header_end_never_past_buffer(data in bytes(0..256)) {
            if let Some(end) = find_header_end(&data) {
                prop_assert!(end <= data.len());
                prop_assert_eq!(&data[end - 4..end], b"\r\n\r\n");
            }
        }
    }
}
