//! NFS trace format and player.
//!
//! The paper drives its micro-benchmarks "by means of synthetic traces and
//! an *Active Trace Player*" (§5.3, the paper's reference 20). This module provides
//! the equivalent: a line-oriented trace format, a writer, and a player
//! that replays ops in order. Synthetic traces from the [`crate::micro`]
//! generators round-trip through it.
//!
//! Format, one op per line:
//!
//! ```text
//! R <file> <offset> <len>
//! W <file> <offset> <len>
//! G <file>
//! L <file>
//! ```

use std::fmt::Write as _;

use crate::{FileId, NfsOp};

/// Error parsing a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub reason: &'static str,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseTraceError {}

/// Serializes ops into the trace format.
pub fn write_trace<'a>(ops: impl IntoIterator<Item = &'a NfsOp>) -> String {
    let mut out = String::new();
    for op in ops {
        match op {
            NfsOp::Read { file, offset, len } => {
                writeln!(out, "R {} {} {}", file.0, offset, len).expect("string write");
            }
            NfsOp::Write { file, offset, len } => {
                writeln!(out, "W {} {} {}", file.0, offset, len).expect("string write");
            }
            NfsOp::Getattr { file } => writeln!(out, "G {}", file.0).expect("string write"),
            NfsOp::Lookup { file } => writeln!(out, "L {}", file.0).expect("string write"),
        }
    }
    out
}

/// Parses a trace. Blank lines and `#` comments are skipped.
///
/// # Errors
///
/// [`ParseTraceError`] with the offending line number.
pub fn parse_trace(text: &str) -> Result<Vec<NfsOp>, ParseTraceError> {
    let mut ops = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |reason| ParseTraceError {
            line: i + 1,
            reason,
        };
        let mut parts = line.split_whitespace();
        let kind = parts.next().ok_or_else(|| err("missing op kind"))?;
        let file = FileId(
            parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| err("bad file id"))?,
        );
        let op = match kind {
            "R" | "W" => {
                let offset = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("bad offset"))?;
                let len = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("bad length"))?;
                if kind == "R" {
                    NfsOp::Read { file, offset, len }
                } else {
                    NfsOp::Write { file, offset, len }
                }
            }
            "G" => NfsOp::Getattr { file },
            "L" => NfsOp::Lookup { file },
            _ => return Err(err("unknown op kind")),
        };
        if parts.next().is_some() {
            return Err(err("trailing fields"));
        }
        ops.push(op);
    }
    Ok(ops)
}

/// The Active-Trace-Player analogue: replays a parsed trace, tracking
/// position and progress.
#[derive(Clone, Debug)]
pub struct TracePlayer {
    ops: Vec<NfsOp>,
    at: usize,
}

impl TracePlayer {
    /// A player over `ops`.
    pub fn new(ops: Vec<NfsOp>) -> Self {
        TracePlayer { ops, at: 0 }
    }

    /// Parses and wraps a textual trace.
    ///
    /// # Errors
    ///
    /// [`ParseTraceError`] as for [`parse_trace`].
    pub fn from_text(text: &str) -> Result<Self, ParseTraceError> {
        Ok(TracePlayer::new(parse_trace(text)?))
    }

    /// Total ops in the trace.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl Iterator for TracePlayer {
    type Item = NfsOp;

    fn next(&mut self) -> Option<NfsOp> {
        let op = self.ops.get(self.at).cloned()?;
        self.at += 1;
        Some(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro::SeqRead;

    #[test]
    fn round_trip() {
        let ops = vec![
            NfsOp::Read {
                file: FileId(1),
                offset: 4096,
                len: 8192,
            },
            NfsOp::Write {
                file: FileId(2),
                offset: 0,
                len: 4096,
            },
            NfsOp::Getattr { file: FileId(3) },
            NfsOp::Lookup { file: FileId(4) },
        ];
        let text = write_trace(&ops);
        assert_eq!(parse_trace(&text), Ok(ops));
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "# a synthetic trace\n\nR 0 0 4096\n  \n# done\n";
        let ops = parse_trace(text).expect("valid");
        assert_eq!(ops.len(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        assert_eq!(
            parse_trace("R 0 0 4096\nX 1").unwrap_err(),
            ParseTraceError {
                line: 2,
                reason: "unknown op kind"
            }
        );
        assert_eq!(parse_trace("R zero 0 1").unwrap_err().reason, "bad file id");
        assert_eq!(parse_trace("R 0 a 1").unwrap_err().reason, "bad offset");
        assert_eq!(parse_trace("R 0 0 b").unwrap_err().reason, "bad length");
        assert_eq!(parse_trace("G 0 9").unwrap_err().reason, "trailing fields");
        assert!(parse_trace("R 0 0 4096\nX 1")
            .unwrap_err()
            .to_string()
            .contains("line 2"));
    }

    #[test]
    fn player_replays_in_order() {
        let ops: Vec<NfsOp> = SeqRead::new(FileId(0), 16 << 10, 4 << 10).collect();
        let mut player = TracePlayer::new(ops.clone());
        assert_eq!(player.len(), 4);
        assert_eq!(player.ops.len() - player.at, 4);
        let replayed: Vec<NfsOp> = player.by_ref().collect();
        assert_eq!(replayed, ops);
        assert_eq!(player.ops.len() - player.at, 0);
        assert_eq!(player.next(), None);
    }

    #[test]
    fn synthetic_trace_through_text_round_trip() {
        let ops: Vec<NfsOp> = SeqRead::new(FileId(7), 64 << 10, 16 << 10).collect();
        let text = write_trace(&ops);
        let player = TracePlayer::from_text(&text).expect("valid");
        assert_eq!(player.collect::<Vec<_>>(), ops);
    }

    #[test]
    fn empty_trace() {
        let player = TracePlayer::from_text("").expect("valid");
        assert!(player.is_empty());
    }
}
