//! Spans recorded from outside: one around every call the benchmark makes
//! into a layer, kept in memory and written out as JSONL when the run
//! ends. Per-seam totals and per-class request latencies accumulate for
//! every request; span records are kept for the first [`SPAN_REQUESTS`]
//! requests only, so a trace file stays tens of megabytes.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::seams::{Observer, Seam};
use crate::verify::Shadow;
use crate::workloads::{Op, OpClass};

/// Requests whose spans are kept and written to the trace file.
pub const SPAN_REQUESTS: u32 = 50_000;

/// One recorded span. `parent` 0 means a root; ids count from 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request_id: u32,
}

/// The traced run's observer: times every seam, byte-checks every reply.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Index into `spans` of the current request's root span, if kept.
    root: Option<usize>,
    request_start_ns: u64,
    request_id: u32,
    /// Σ ns per seam, indexed as [`Seam::ALL`].
    pub seam_ns: [u64; 4],
    /// Σ ns of whole requests, first seam to last (verification of a
    /// reply happens after its request's clock stopped).
    pub request_ns: u64,
    /// Whole-request host ns by class: reads (and GETs), writes, metadata.
    pub read_ns: Vec<u64>,
    pub write_ns: Vec<u64>,
    pub meta_ns: Vec<u64>,
    shadow: Shadow,
}

fn seam_index(seam: Seam) -> usize {
    Seam::ALL
        .iter()
        .position(|s| *s == seam)
        .expect("listed in ALL")
}

impl Tracer {
    /// A tracer for a run of `requests` requests. Span and sample storage
    /// is reserved up front so no request pays for a reallocation.
    pub fn new(shadow: Shadow, requests: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(
                requests.min(SPAN_REQUESTS as usize) * (1 + Seam::ALL.len()) + 4,
            ),
            root: None,
            request_start_ns: 0,
            request_id: 0,
            seam_ns: [0; 4],
            request_ns: 0,
            read_ns: Vec::with_capacity(requests),
            write_ns: Vec::with_capacity(requests),
            meta_ns: Vec::with_capacity(requests),
            shadow,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span around a whole engine call (no per-request seams).
    pub fn engine_span(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: 0,
            request_id: 0,
        });
    }

    /// All request latencies, in arrival order of their class buckets.
    pub fn all_request_ns(&self) -> Vec<u64> {
        let mut v = self.read_ns.clone();
        v.extend_from_slice(&self.write_ns);
        v.extend_from_slice(&self.meta_ns);
        v
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the kept spans as JSONL: `id, name, start_ns, end_ns,
    /// parent, request_id` per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request_id\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.request_id
            )?;
        }
        w.flush()
    }
}

impl Observer for Tracer {
    fn begin(&mut self, k: usize, _op: &Op) {
        self.request_id = k as u32 + 1;
        self.request_start_ns = self.now_ns();
        self.root = (self.request_id <= SPAN_REQUESTS).then(|| {
            self.spans.push(Span {
                name: "request",
                start_ns: self.request_start_ns,
                end_ns: 0,
                parent: 0,
                request_id: self.request_id,
            });
            self.spans.len() - 1
        });
    }

    fn seam<T>(&mut self, seam: Seam, f: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.seam_ns[seam_index(seam)] += end - start;
        if let Some(root) = self.root {
            self.spans.push(Span {
                name: seam.span_name(),
                start_ns: start,
                end_ns: end,
                parent: root as u32 + 1,
                request_id: self.request_id,
            });
        }
        out
    }

    fn end(&mut self, k: usize, op: &Op, payload: &[u8]) -> bool {
        let end = self.now_ns();
        if let Some(root) = self.root {
            self.spans[root].end_ns = end;
        }
        let ns = end - self.request_start_ns;
        self.request_ns += ns;
        match op.class() {
            OpClass::Read => self.read_ns.push(ns),
            OpClass::Write => self.write_ns.push(ns),
            OpClass::Meta => self.meta_ns.push(ns),
        }
        // Verification runs after the request's clock stopped.
        self.shadow.check(k, op, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seams::{json_parse, Pristine};

    fn tracer() -> Tracer {
        let shadow = Shadow::new(Pristine::Patterned { fhs: vec![1] }, &[8192], None);
        Tracer::new(shadow, 4)
    }

    #[test]
    fn spans_nest_under_their_request_and_share_its_id() {
        let mut t = tracer();
        let op = Op::Getattr { file: 0 };
        for k in 0..2 {
            t.begin(k, &op);
            assert_eq!(t.seam(Seam::ClientEncode, || 5), 5);
            t.seam(Seam::Handle, || ());
            assert!(t.end(k, &op, &[]));
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[0].name, "request");
        assert_eq!((spans[1].parent, spans[2].parent), (1, 1));
        assert_eq!((spans[3].name, spans[3].request_id), ("request", 2));
        assert_eq!(spans[5].parent, 4);
        for s in spans {
            assert!(s.end_ns >= s.start_ns);
        }
        let root = spans[0];
        assert!(spans[1].start_ns >= root.start_ns && spans[2].end_ns <= root.end_ns);
        assert_eq!(t.meta_ns.len(), 2);
        assert!(t.seam_ns[seam_index(Seam::StackDeliver)] == 0);
    }

    #[test]
    fn jsonl_lines_parse_and_carry_the_five_fields() {
        let mut t = tracer();
        let op = Op::Getattr { file: 0 };
        t.begin(0, &op);
        t.seam(Seam::Handle, || ());
        t.end(0, &op, &[]);
        t.engine_span("testbed.run_sessions", 10, 20);
        let dir = std::env::temp_dir().join(format!("hostbench-trace-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        t.write_jsonl(&path).expect("writable temp dir");
        let text = std::fs::read_to_string(&path).expect("written");
        std::fs::remove_dir_all(&dir).expect("cleanup");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            let j = json_parse(line).expect("valid JSON");
            for key in ["name", "start_ns", "end_ns", "parent", "request_id"] {
                assert!(j.get(key).is_some(), "{key} in {line}");
            }
        }
        assert!(lines[2].contains("testbed.run_sessions"));
    }

    #[test]
    fn a_wrong_payload_fails_the_request() {
        let mut t = tracer();
        let op = Op::Read {
            file: 0,
            offset: 0,
            len: 4096,
        };
        t.begin(0, &op);
        assert!(!t.end(0, &op, &[0u8; 4096]), "zeros are not the pattern");
    }
}
