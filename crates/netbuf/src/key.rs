//! Logical-copy keys.
//!
//! Under NCache, the layers of a pass-through server exchange *keys* instead
//! of payloads (paper §3.1). Two kinds of key identify a cached block:
//!
//! * [`Lbn`] — the logical block number of an iSCSI read/write, keying data
//!   that arrived from (or is bound for) the storage server;
//! * [`Fho`] — a ⟨file handle, offset⟩ pair, keying data that arrived in an
//!   NFS write request from a client.
//!
//! A key travels *inside* the placeholder block that the file-system buffer
//! cache stores ("the retrieved block contains only a key and some junk
//! data", §3.2). [`KeyStamp`] is that in-block encoding; a block may carry
//! both keys at once ("some NFS read replies may contain both an FHO key
//! and an LBN key", §3.4), and the substitution engine must then consult the
//! FHO cache before the LBN cache to preserve freshness.

use std::fmt;

/// A logical block number on the storage server's virtual disk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lbn(pub u64);

impl fmt::Display for Lbn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lbn:{}", self.0)
    }
}

/// An opaque NFS file handle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileHandle(pub u64);

impl fmt::Display for FileHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fh:{:x}", self.0)
    }
}

/// A ⟨file handle, byte offset⟩ pair — the unique identity of a file block
/// written by an NFS client (paper §3.4).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fho {
    /// The file's NFS handle.
    pub fh: FileHandle,
    /// Byte offset of the block within the file.
    pub offset: u64,
}

impl Fho {
    /// Creates a key for the block of `fh` at byte `offset`.
    pub fn new(fh: FileHandle, offset: u64) -> Self {
        Fho { fh, offset }
    }
}

impl fmt::Display for Fho {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fho:{:x}+{}", self.fh.0, self.offset)
    }
}

/// Either kind of cache key; the index type of the network-centric cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CacheKey {
    /// Keys the LBN cache (data from the storage server).
    Lbn(Lbn),
    /// Keys the FHO cache (data from NFS write requests).
    Fho(Fho),
}

impl From<Lbn> for CacheKey {
    fn from(l: Lbn) -> Self {
        CacheKey::Lbn(l)
    }
}

impl From<Fho> for CacheKey {
    fn from(f: Fho) -> Self {
        CacheKey::Fho(f)
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheKey::Lbn(l) => l.fmt(f),
            CacheKey::Fho(o) => o.fmt(f),
        }
    }
}

/// The encoded stamp a placeholder block carries in lieu of payload.
///
/// Wire layout (25 bytes):
/// `magic "NCKY" (4) | flags (1) | fh (8 LE) | offset (8 LE) | lbn (8 LE)`
/// where flag bit 0 = FHO present, bit 1 = LBN present. The remainder of the
/// block is junk (zeroes).
///
/// # Examples
///
/// ```
/// use netbuf::key::{Fho, FileHandle, KeyStamp, Lbn};
///
/// let stamp = KeyStamp::new()
///     .with_fho(Fho::new(FileHandle(0xBEEF), 8192))
///     .with_lbn(Lbn(77));
/// let mut block = vec![0u8; 4096];
/// stamp.encode_into(&mut block);
/// assert_eq!(KeyStamp::decode(&block), Some(stamp));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct KeyStamp {
    /// FHO key, present when the block was last written by an NFS client.
    pub fho: Option<Fho>,
    /// LBN key, present when the block was read from the storage server.
    pub lbn: Option<Lbn>,
}

impl KeyStamp {
    /// Magic prefix marking a placeholder block.
    pub const MAGIC: [u8; 4] = *b"NCKY";
    /// Encoded size in bytes.
    pub const LEN: usize = 4 + 1 + 8 + 8 + 8;

    /// Creates an empty stamp (no keys).
    pub fn new() -> Self {
        KeyStamp::default()
    }

    /// Returns the stamp with the FHO key set.
    pub fn with_fho(mut self, fho: Fho) -> Self {
        self.fho = Some(fho);
        self
    }

    /// Returns the stamp with the LBN key set.
    pub fn with_lbn(mut self, lbn: Lbn) -> Self {
        self.lbn = Some(lbn);
        self
    }

    /// Whether the stamp carries at least one key.
    pub fn is_keyed(&self) -> bool {
        self.fho.is_some() || self.lbn.is_some()
    }

    /// The stamp's wire form.
    pub fn encode(&self) -> [u8; Self::LEN] {
        let mut out = [0u8; Self::LEN];
        out[0..4].copy_from_slice(&Self::MAGIC);
        out[4] = u8::from(self.fho.is_some()) | u8::from(self.lbn.is_some()) << 1;
        let fho = self.fho.unwrap_or_default();
        out[5..13].copy_from_slice(&fho.fh.0.to_le_bytes());
        out[13..21].copy_from_slice(&fho.offset.to_le_bytes());
        out[21..29].copy_from_slice(&self.lbn.unwrap_or_default().0.to_le_bytes());
        out
    }

    /// Writes the stamp into the head of `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is shorter than [`KeyStamp::LEN`].
    pub fn encode_into(&self, block: &mut [u8]) {
        assert!(
            block.len() >= Self::LEN,
            "block of {} bytes too small for a {}-byte key stamp",
            block.len(),
            Self::LEN
        );
        block[..Self::LEN].copy_from_slice(&self.encode());
    }

    /// Parses a stamp from the head of `block`. Returns `None` when the
    /// block does not carry the magic (i.e. it holds real payload).
    pub fn decode(block: &[u8]) -> Option<KeyStamp> {
        if block.len() < Self::LEN || block[0..4] != Self::MAGIC {
            return None;
        }
        let flags = block[4];
        let fh = u64::from_le_bytes(block[5..13].try_into().expect("8 bytes"));
        let off = u64::from_le_bytes(block[13..21].try_into().expect("8 bytes"));
        let lbn = u64::from_le_bytes(block[21..29].try_into().expect("8 bytes"));
        Some(KeyStamp {
            fho: (flags & 1 != 0).then_some(Fho::new(FileHandle(fh), off)),
            lbn: (flags & 2 != 0).then_some(Lbn(lbn)),
        })
    }
}

impl fmt::Display for KeyStamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stamp[")?;
        if let Some(fho) = self.fho {
            write!(f, "{fho}")?;
        }
        if let Some(lbn) = self.lbn {
            if self.fho.is_some() {
                write!(f, ",")?;
            }
            write!(f, "{lbn}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_round_trip_all_combinations() {
        let fho = Fho::new(FileHandle(0x1234_5678_9abc_def0), 65_536);
        let lbn = Lbn(424_242);
        for stamp in [
            KeyStamp::new(),
            KeyStamp::new().with_fho(fho),
            KeyStamp::new().with_lbn(lbn),
            KeyStamp::new().with_fho(fho).with_lbn(lbn),
        ] {
            let mut block = vec![0u8; 64];
            stamp.encode_into(&mut block);
            assert_eq!(KeyStamp::decode(&block), Some(stamp));
        }
    }

    #[test]
    fn decode_rejects_real_payload() {
        assert_eq!(KeyStamp::decode(&[0u8; 64]), None);
        assert_eq!(KeyStamp::decode(b"hello world padding padding pad"), None);
        assert_eq!(KeyStamp::decode(&[]), None);
        // Too short even with magic.
        assert_eq!(KeyStamp::decode(b"NCKY"), None);
    }

    #[test]
    fn is_keyed() {
        assert!(!KeyStamp::new().is_keyed());
        assert!(KeyStamp::new().with_lbn(Lbn(1)).is_keyed());
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn encode_into_small_block_panics() {
        KeyStamp::new().encode_into(&mut [0u8; 8]);
    }

    #[test]
    fn cache_key_conversions_and_display() {
        let k: CacheKey = Lbn(5).into();
        assert_eq!(k, CacheKey::Lbn(Lbn(5)));
        let k2: CacheKey = Fho::new(FileHandle(0xff), 4096).into();
        assert_eq!(k.to_string(), "lbn:5");
        assert_eq!(k2.to_string(), "fho:ff+4096");
        assert_eq!(
            KeyStamp::new().with_lbn(Lbn(9)).to_string(),
            "stamp[lbn:9]"
        );
    }

    #[test]
    fn cache_keys_order_and_hash() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(CacheKey::from(Lbn(1)), "a");
        m.insert(CacheKey::from(Fho::new(FileHandle(1), 0)), "b");
        assert_eq!(m.len(), 2);
        assert_eq!(m[&CacheKey::Lbn(Lbn(1))], "a");
    }
}
