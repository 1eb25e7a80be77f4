//! Decode errors shared by all protocol modules.

use std::fmt;

/// Error produced when parsing a protocol header fails.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The input was shorter than the header requires.
    Truncated {
        /// Bytes the decoder needed.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// A magic number, version, or fixed field had the wrong value.
    BadField(&'static str),
    /// The value is syntactically valid but not supported by this subset.
    Unsupported(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { need, have } => {
                write!(f, "truncated header: need {need} bytes, have {have}")
            }
            DecodeError::BadField(what) => write!(f, "invalid field: {what}"),
            DecodeError::Unsupported(what) => write!(f, "unsupported: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Convenience alias used by every decoder in this crate.
pub type Result<T> = std::result::Result<T, DecodeError>;

/// Checks that `buf` holds at least `need` bytes.
pub(crate) fn need(buf: &[u8], need: usize) -> Result<()> {
    if buf.len() < need {
        Err(DecodeError::Truncated {
            need,
            have: buf.len(),
        })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            DecodeError::Truncated { need: 8, have: 3 }.to_string(),
            "truncated header: need 8 bytes, have 3"
        );
        assert_eq!(
            DecodeError::BadField("version").to_string(),
            "invalid field: version"
        );
        assert_eq!(
            DecodeError::Unsupported("opcode").to_string(),
            "unsupported: opcode"
        );
    }

    #[test]
    fn need_helper() {
        assert!(need(&[0; 4], 4).is_ok());
        assert_eq!(
            need(&[0; 3], 4),
            Err(DecodeError::Truncated { need: 4, have: 3 })
        );
    }

    #[test]
    fn error_is_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(DecodeError::BadField("magic"));
        assert!(e.to_string().contains("magic"));
    }
}
