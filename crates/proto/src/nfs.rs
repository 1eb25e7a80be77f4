//! NFS version 2 message subset: GETATTR, LOOKUP, READ, WRITE.
//!
//! These are the procedures the paper's evaluation exercises. READ replies
//! and WRITE requests carry regular-data payloads — the two packet kinds
//! NCache caches/substitutes (§3.3) — while everything else is metadata and
//! travels the conventional copying path.
//!
//! Encoders produce *header bytes only*; bulk data rides as attached
//! `NetBuf` segments so the zero-copy paths can splice it without movement.

use crate::error::{need, DecodeError, Result};

/// NFSv2 procedure numbers (RFC 1094).
pub mod proc {
    /// Null procedure.
    pub const NULL: u32 = 0; // test-api: hostile_bytes drives every procedure
    /// Fetch file attributes.
    pub const GETATTR: u32 = 1;
    /// Look a name up in a directory.
    pub const LOOKUP: u32 = 4;
    /// Read from a file.
    pub const READ: u32 = 6;
    /// Write to a file.
    pub const WRITE: u32 = 8;
    /// Create a file.
    pub const CREATE: u32 = 9;
    /// Remove a file.
    pub const REMOVE: u32 = 10;
    /// Read directory entries.
    pub const READDIR: u32 = 16;
}

/// NFSv2 file handles are 32 opaque bytes.
pub const FH_LEN: usize = 32;
/// Encoded length of the fattr attribute block.
pub const FATTR_LEN: usize = 68;
/// NFS status: success.
pub const NFS_OK: u32 = 0;
/// NFS status: no such file or directory.
pub const NFSERR_NOENT: u32 = 2;
/// NFS status: I/O error.
pub const NFSERR_IO: u32 = 5;
/// NFS status: retryable rejection — the server is overloaded (or the
/// data is temporarily unavailable) and the client should back off and
/// retransmit. Modelled on NFSv3's `NFS3ERR_JUKEBOX`; the overload
/// control plane (DESIGN.md §15) uses it as its `RETRY_LATER` reply.
pub const NFSERR_JUKEBOX: u32 = 10008;

/// File type, as carried in fattr.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum FileType {
    /// A regular file — its blocks are *regular data* to NCache.
    #[default]
    Regular,
    /// A directory — its blocks are metadata.
    Directory,
}

impl FileType {
    fn to_u32(self) -> u32 {
        match self {
            FileType::Regular => 1,
            FileType::Directory => 2,
        }
    }

    fn from_u32(v: u32) -> Result<FileType> {
        match v {
            1 => Ok(FileType::Regular),
            2 => Ok(FileType::Directory),
            _ => Err(DecodeError::Unsupported("file type")),
        }
    }
}

fn put_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_be_bytes());
}

fn set_u32(b: &mut [u8], at: usize, v: u32) {
    b[at..at + 4].copy_from_slice(&v.to_be_bytes());
}

/// Writes a handle into the first 8 of its [`FH_LEN`] bytes at `at`; the
/// opaque remainder stays as the caller zeroed it.
fn set_fh(b: &mut [u8], at: usize, fh: u64) {
    b[at..at + 8].copy_from_slice(&fh.to_be_bytes());
}

/// An encoded header on the stack: the first `len` of `N` bytes. Replies
/// whose error form is just the status word are shorter than their
/// success form, so the fixed-size encoders return this instead of a bare
/// array; it dereferences to the encoded bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Encoded<const N: usize> {
    buf: [u8; N],
    len: usize,
}

impl<const N: usize> Encoded<N> {
    /// A status-only (error) reply body.
    fn status_only(status: u32) -> Self {
        let mut buf = [0u8; N];
        set_u32(&mut buf, 0, status);
        Encoded { buf, len: 4 }
    }
}

impl<const N: usize> std::ops::Deref for Encoded<N> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

fn get_u32(b: &[u8], at: usize) -> u32 {
    u32::from_be_bytes(b[at..at + 4].try_into().expect("4 bytes"))
}

fn put_fh(b: &mut Vec<u8>, fh: u64) {
    b.extend_from_slice(&fh.to_be_bytes());
    b.extend_from_slice(&[0u8; FH_LEN - 8]);
}

fn get_fh(b: &[u8], at: usize) -> u64 {
    u64::from_be_bytes(b[at..at + 8].try_into().expect("8 bytes"))
}

/// NFSv2 file attributes (the fields this reproduction carries; the rest
/// of the 68-byte fattr encodes as zero).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Fattr {
    /// File type.
    pub ftype: FileType,
    /// Size in bytes.
    pub size: u32,
    /// File id (inode number).
    pub fileid: u32,
    /// Modification time, seconds.
    pub mtime: u32,
}

impl Fattr {
    /// Writes the fattr into the zeroed [`FATTR_LEN`] bytes at `b[at..]`.
    /// uid, gid, rdev, fsid, atime and the usec halves encode as zero.
    fn put(&self, b: &mut [u8], at: usize) {
        set_u32(b, at, self.ftype.to_u32());
        set_u32(b, at + 4, 0o644); // mode
        set_u32(b, at + 8, 1); // nlink
        set_u32(b, at + 20, self.size);
        set_u32(b, at + 24, 4096); // blocksize
        set_u32(b, at + 32, self.size.div_ceil(4096)); // blocks
        set_u32(b, at + 40, self.fileid);
        set_u32(b, at + 52, self.mtime);
        set_u32(b, at + 60, self.mtime); // ctime
    }

    /// Encodes the 68-byte fattr on the stack.
    pub fn encode_array(&self) -> [u8; FATTR_LEN] {
        let mut b = [0u8; FATTR_LEN];
        self.put(&mut b, 0);
        b
    }

    /// Appends the 68-byte fattr to `b`.
    pub fn encode_into(&self, b: &mut Vec<u8>) {
        b.extend_from_slice(&self.encode_array());
    }

    /// Decodes a 68-byte fattr from `b[at..]`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] on short input, [`DecodeError::Unsupported`]
    /// on an unknown file type.
    pub fn decode(b: &[u8], at: usize) -> Result<Fattr> {
        need(b, at + FATTR_LEN)?;
        Ok(Fattr {
            ftype: FileType::from_u32(get_u32(b, at))?,
            size: get_u32(b, at + 20),
            fileid: get_u32(b, at + 40),
            mtime: get_u32(b, at + 52),
        })
    }
}

/// GETATTR request body: just a file handle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct GetattrArgs {
    /// Target file handle.
    pub fh: u64,
}

impl GetattrArgs {
    /// Encoded length.
    pub const LEN: usize = FH_LEN;

    /// Encodes the body on the stack.
    pub fn encode_array(&self) -> [u8; Self::LEN] {
        let mut b = [0u8; Self::LEN];
        set_fh(&mut b, 0, self.fh);
        b
    }

    /// [`GetattrArgs::encode_array`] as an owned vector.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_array().to_vec()
    }

    /// Decodes the body.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] on short input.
    pub fn decode(b: &[u8]) -> Result<GetattrArgs> {
        need(b, Self::LEN)?;
        Ok(GetattrArgs { fh: get_fh(b, 0) })
    }
}

/// LOOKUP request body: directory handle + name.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct LookupArgs {
    /// Directory to search.
    pub dir_fh: u64,
    /// Name to look up.
    pub name: String,
}

impl LookupArgs {
    /// Encodes the body (XDR string: length, bytes, pad to 4).
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        put_fh(&mut b, self.dir_fh);
        put_u32(&mut b, self.name.len() as u32);
        b.extend_from_slice(self.name.as_bytes());
        while b.len() % 4 != 0 {
            b.push(0);
        }
        b
    }

    /// Decodes the body.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] on short input, [`DecodeError::BadField`]
    /// if the name is not UTF-8.
    pub fn decode(b: &[u8]) -> Result<LookupArgs> {
        need(b, FH_LEN + 4)?;
        let len = get_u32(b, FH_LEN) as usize;
        need(b, FH_LEN + 4 + len)?;
        let name = std::str::from_utf8(&b[FH_LEN + 4..FH_LEN + 4 + len])
            .map_err(|_| DecodeError::BadField("name utf-8"))?
            .to_string();
        Ok(LookupArgs {
            dir_fh: get_fh(b, 0),
            name,
        })
    }
}

/// LOOKUP reply body: status, handle, attributes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct LookupReply {
    /// NFS status ([`NFS_OK`] on success).
    pub status: u32,
    /// Handle of the found object (valid when status is OK).
    pub fh: u64,
    /// Its attributes.
    pub attrs: Fattr,
}

impl LookupReply {
    /// Encoded length of a success body.
    pub const OK_LEN: usize = 4 + FH_LEN + FATTR_LEN;

    /// Encodes the body on the stack (error replies carry only the status
    /// word).
    pub fn encode_array(&self) -> Encoded<{ LookupReply::OK_LEN }> {
        let mut e = Encoded::status_only(self.status);
        if self.status == NFS_OK {
            set_fh(&mut e.buf, 4, self.fh);
            self.attrs.put(&mut e.buf, 4 + FH_LEN);
            e.len = Self::OK_LEN;
        }
        e
    }

    /// [`LookupReply::encode_array`] as an owned vector.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_array().to_vec()
    }

    /// Decodes the body.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] on short input.
    pub fn decode(b: &[u8]) -> Result<LookupReply> {
        need(b, 4)?;
        let status = get_u32(b, 0);
        if status != NFS_OK {
            return Ok(LookupReply {
                status,
                ..LookupReply::default()
            });
        }
        need(b, Self::OK_LEN)?;
        Ok(LookupReply {
            status,
            fh: get_fh(b, 4),
            attrs: Fattr::decode(b, 4 + FH_LEN)?,
        })
    }
}

/// READ request body.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ReadArgs {
    /// Target file handle.
    pub fh: u64,
    /// Byte offset to read from.
    pub offset: u32,
    /// Bytes requested.
    pub count: u32,
}

impl ReadArgs {
    /// Encoded length.
    pub const LEN: usize = FH_LEN + 12;

    /// Encodes the body on the stack.
    pub fn encode_array(&self) -> [u8; Self::LEN] {
        let mut b = [0u8; Self::LEN];
        set_fh(&mut b, 0, self.fh);
        set_u32(&mut b, FH_LEN, self.offset);
        set_u32(&mut b, FH_LEN + 4, self.count);
        set_u32(&mut b, FH_LEN + 8, self.count); // totalcount (unused, RFC 1094)
        b
    }

    /// [`ReadArgs::encode_array`] as an owned vector.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_array().to_vec()
    }

    /// Decodes the body.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] on short input.
    pub fn decode(b: &[u8]) -> Result<ReadArgs> {
        need(b, Self::LEN)?;
        Ok(ReadArgs {
            fh: get_fh(b, 0),
            offset: get_u32(b, FH_LEN),
            count: get_u32(b, FH_LEN + 4),
        })
    }
}

/// READ reply *header*: status, attributes, and the byte count; the data
/// itself is attached as payload segments after this header.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ReadReplyHeader {
    /// NFS status.
    pub status: u32,
    /// Post-read attributes.
    pub attrs: Fattr,
    /// Number of payload bytes following the header.
    pub count: u32,
}

impl ReadReplyHeader {
    /// Encoded length of a success header.
    pub const OK_LEN: usize = 4 + FATTR_LEN + 4;

    /// Encodes the header on the stack (error replies carry only the
    /// status word).
    pub fn encode_array(&self) -> Encoded<{ ReadReplyHeader::OK_LEN }> {
        let mut e = Encoded::status_only(self.status);
        if self.status == NFS_OK {
            self.attrs.put(&mut e.buf, 4);
            set_u32(&mut e.buf, 4 + FATTR_LEN, self.count);
            e.len = Self::OK_LEN;
        }
        e
    }

    /// [`ReadReplyHeader::encode_array`] as an owned vector.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_array().to_vec()
    }

    /// Decodes the header.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] on short input.
    pub fn decode(b: &[u8]) -> Result<ReadReplyHeader> {
        need(b, 4)?;
        let status = get_u32(b, 0);
        if status != NFS_OK {
            return Ok(ReadReplyHeader {
                status,
                ..ReadReplyHeader::default()
            });
        }
        need(b, Self::OK_LEN)?;
        Ok(ReadReplyHeader {
            status,
            attrs: Fattr::decode(b, 4)?,
            count: get_u32(b, 4 + FATTR_LEN),
        })
    }
}

/// WRITE request *header*: handle, offset, count; data follows as payload.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct WriteArgsHeader {
    /// Target file handle.
    pub fh: u64,
    /// Byte offset to write at.
    pub offset: u32,
    /// Number of payload bytes following the header.
    pub count: u32,
}

impl WriteArgsHeader {
    /// Encoded length.
    pub const LEN: usize = FH_LEN + 16;

    /// Encodes the header on the stack (beginoffset and totalcount are
    /// unused, RFC 1094, and encode as zero).
    pub fn encode_array(&self) -> [u8; Self::LEN] {
        let mut b = [0u8; Self::LEN];
        set_fh(&mut b, 0, self.fh);
        set_u32(&mut b, FH_LEN + 4, self.offset);
        set_u32(&mut b, FH_LEN + 12, self.count);
        b
    }

    /// [`WriteArgsHeader::encode_array`] as an owned vector.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_array().to_vec()
    }

    /// Decodes the header.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] on short input.
    pub fn decode(b: &[u8]) -> Result<WriteArgsHeader> {
        need(b, Self::LEN)?;
        Ok(WriteArgsHeader {
            fh: get_fh(b, 0),
            offset: get_u32(b, FH_LEN + 4),
            count: get_u32(b, FH_LEN + 12),
        })
    }
}

/// WRITE reply body: status + attributes (RFC 1094's `attrstat`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct WriteReply {
    /// NFS status.
    pub status: u32,
    /// Post-write attributes.
    pub attrs: Fattr,
}

impl WriteReply {
    /// Encoded length of a success body.
    pub const OK_LEN: usize = 4 + FATTR_LEN;

    /// Encodes the body on the stack (error replies carry only the status
    /// word).
    pub fn encode_array(&self) -> Encoded<{ WriteReply::OK_LEN }> {
        let mut e = Encoded::status_only(self.status);
        if self.status == NFS_OK {
            self.attrs.put(&mut e.buf, 4);
            e.len = Self::OK_LEN;
        }
        e
    }

    /// [`WriteReply::encode_array`] as an owned vector.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_array().to_vec()
    }

    /// Decodes the body.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] on short input.
    pub fn decode(b: &[u8]) -> Result<WriteReply> {
        need(b, 4)?;
        let status = get_u32(b, 0);
        if status != NFS_OK {
            return Ok(WriteReply {
                status,
                ..WriteReply::default()
            });
        }
        Ok(WriteReply {
            status,
            attrs: Fattr::decode(b, 4)?,
        })
    }
}

/// GETATTR replies are `attrstat`, the same shape as [`WriteReply`].
pub type GetattrReply = WriteReply;

/// CREATE request body: directory handle + name + (ignored) sattr.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct CreateArgs {
    /// Directory to create in.
    pub dir_fh: u64,
    /// Name of the new file.
    pub name: String,
}

/// Size of the (zeroed) sattr block trailing CREATE args.
const SATTR_LEN: usize = 32;

impl CreateArgs {
    /// Encodes the body (the sattr block encodes as zeros — the
    /// reproduction's files take default attributes).
    pub fn encode(&self) -> Vec<u8> {
        let mut b = LookupArgs {
            dir_fh: self.dir_fh,
            name: self.name.clone(),
        }
        .encode();
        b.extend_from_slice(&[0u8; SATTR_LEN]);
        b
    }

    /// Decodes the body.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] on short input, [`DecodeError::BadField`]
    /// on a non-UTF-8 name.
    pub fn decode(b: &[u8]) -> Result<CreateArgs> {
        let inner = LookupArgs::decode(b)?;
        need(b, inner.encode().len() + SATTR_LEN)?;
        Ok(CreateArgs {
            dir_fh: inner.dir_fh,
            name: inner.name,
        })
    }
}

/// REMOVE reply body: just the status word.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct RemoveReply {
    /// NFS status.
    pub status: u32,
}

impl RemoveReply {
    /// Encodes the body.
    pub fn encode(&self) -> Vec<u8> {
        self.status.to_be_bytes().to_vec()
    }

    /// Decodes the body.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] on short input.
    pub fn decode(b: &[u8]) -> Result<RemoveReply> {
        need(b, 4)?;
        Ok(RemoveReply {
            status: get_u32(b, 0),
        })
    }
}

/// READDIR request body.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ReaddirArgs {
    /// Directory handle.
    pub fh: u64,
    /// Resume cookie: number of entries to skip (0 starts over).
    pub cookie: u32,
    /// Maximum reply bytes.
    pub count: u32,
}

impl ReaddirArgs {
    /// Encoded length.
    pub const LEN: usize = FH_LEN + 8;

    /// Encodes the body on the stack.
    pub fn encode_array(&self) -> [u8; Self::LEN] {
        let mut b = [0u8; Self::LEN];
        set_fh(&mut b, 0, self.fh);
        set_u32(&mut b, FH_LEN, self.cookie);
        set_u32(&mut b, FH_LEN + 4, self.count);
        b
    }

    /// Decodes the body.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] on short input.
    pub fn decode(b: &[u8]) -> Result<ReaddirArgs> {
        need(b, Self::LEN)?;
        Ok(ReaddirArgs {
            fh: get_fh(b, 0),
            cookie: get_u32(b, FH_LEN),
            count: get_u32(b, FH_LEN + 4),
        })
    }
}

/// One READDIR entry.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct DirEntry {
    /// File id (inode number).
    pub fileid: u32,
    /// Entry name.
    pub name: String,
}

/// READDIR reply body.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct ReaddirReply {
    /// NFS status.
    pub status: u32,
    /// Entries in this page.
    pub entries: Vec<DirEntry>,
    /// Whether the listing is complete.
    pub eof: bool,
}

impl ReaddirReply {
    /// Encodes the body (XDR-style: a 1-marker before each entry, a
    /// 0-marker after the last, then the EOF flag).
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        put_u32(&mut b, self.status);
        if self.status != NFS_OK {
            return b;
        }
        for e in &self.entries {
            put_u32(&mut b, 1);
            put_u32(&mut b, e.fileid);
            put_u32(&mut b, e.name.len() as u32);
            b.extend_from_slice(e.name.as_bytes());
            while b.len() % 4 != 0 {
                b.push(0);
            }
        }
        put_u32(&mut b, 0);
        put_u32(&mut b, u32::from(self.eof));
        b
    }

    /// Decodes the body.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] on short input, [`DecodeError::BadField`]
    /// on a non-UTF-8 name.
    pub fn decode(b: &[u8]) -> Result<ReaddirReply> {
        need(b, 4)?;
        let status = get_u32(b, 0);
        if status != NFS_OK {
            return Ok(ReaddirReply {
                status,
                ..ReaddirReply::default()
            });
        }
        let mut entries = Vec::new();
        let mut at = 4;
        loop {
            need(b, at + 4)?;
            let marker = get_u32(b, at);
            at += 4;
            if marker == 0 {
                break;
            }
            need(b, at + 8)?;
            let fileid = get_u32(b, at);
            let len = get_u32(b, at + 4) as usize;
            at += 8;
            need(b, at + len)?;
            let name = std::str::from_utf8(&b[at..at + len])
                .map_err(|_| DecodeError::BadField("name utf-8"))?
                .to_string();
            at += len;
            while at % 4 != 0 {
                at += 1;
            }
            entries.push(DirEntry { fileid, name });
        }
        need(b, at + 4)?;
        Ok(ReaddirReply {
            status,
            entries,
            eof: get_u32(b, at) != 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use check::gen::*;
    use check::{prop_assert_eq, property};

    fn attrs() -> Fattr {
        Fattr {
            ftype: FileType::Regular,
            size: 123_456,
            fileid: 17,
            mtime: 1_000_000,
        }
    }

    #[test]
    fn fattr_round_trip() {
        let mut b = Vec::new();
        attrs().encode_into(&mut b);
        assert_eq!(b.len(), FATTR_LEN);
        assert_eq!(Fattr::decode(&b, 0), Ok(attrs()));
    }

    #[test]
    fn fattr_directory_round_trip() {
        let a = Fattr {
            ftype: FileType::Directory,
            ..attrs()
        };
        let mut b = Vec::new();
        a.encode_into(&mut b);
        assert_eq!(Fattr::decode(&b, 0), Ok(a));
    }

    #[test]
    fn fattr_bad_type_rejected() {
        let mut b = Vec::new();
        attrs().encode_into(&mut b);
        b[3] = 9;
        assert_eq!(Fattr::decode(&b, 0), Err(DecodeError::Unsupported("file type")));
    }

    #[test]
    fn getattr_round_trip() {
        let a = GetattrArgs { fh: 0xfeed_f00d };
        assert_eq!(GetattrArgs::decode(&a.encode()), Ok(a));
    }

    #[test]
    fn lookup_round_trip_with_padding() {
        for name in ["a", "ab", "abc", "abcd", "a-longer-name.txt"] {
            let a = LookupArgs {
                dir_fh: 1,
                name: name.to_string(),
            };
            let enc = a.encode();
            assert_eq!(enc.len() % 4, 0, "XDR padding");
            assert_eq!(LookupArgs::decode(&enc), Ok(a));
        }
    }

    #[test]
    fn lookup_reply_ok_and_error() {
        let ok = LookupReply {
            status: NFS_OK,
            fh: 9,
            attrs: attrs(),
        };
        assert_eq!(LookupReply::decode(&ok.encode()), Ok(ok));
        let err = LookupReply {
            status: NFSERR_NOENT,
            ..LookupReply::default()
        };
        let enc = err.encode();
        assert_eq!(enc.len(), 4, "error replies are status-only");
        assert_eq!(LookupReply::decode(&enc), Ok(err));
    }

    #[test]
    fn read_args_round_trip() {
        let a = ReadArgs {
            fh: 3,
            offset: 65_536,
            count: 32_768,
        };
        assert_eq!(ReadArgs::decode(&a.encode()), Ok(a));
    }

    #[test]
    fn read_reply_header_round_trip() {
        let h = ReadReplyHeader {
            status: NFS_OK,
            attrs: attrs(),
            count: 8_192,
        };
        let enc = h.encode();
        assert_eq!(enc.len(), ReadReplyHeader::OK_LEN);
        assert_eq!(ReadReplyHeader::decode(&enc), Ok(h));
        let err = ReadReplyHeader {
            status: NFSERR_IO,
            ..ReadReplyHeader::default()
        };
        assert_eq!(ReadReplyHeader::decode(&err.encode()), Ok(err));
    }

    #[test]
    fn write_round_trip() {
        let h = WriteArgsHeader {
            fh: 4,
            offset: 4_096,
            count: 4_096,
        };
        assert_eq!(h.encode().len(), WriteArgsHeader::LEN);
        assert_eq!(WriteArgsHeader::decode(&h.encode()), Ok(h));
        let r = WriteReply {
            status: NFS_OK,
            attrs: attrs(),
        };
        assert_eq!(WriteReply::decode(&r.encode()), Ok(r));
    }

    #[test]
    fn truncated_bodies() {
        assert!(GetattrArgs::decode(&[0; 31]).is_err());
        assert!(LookupArgs::decode(&[0; 35]).is_err());
        assert!(ReadArgs::decode(&[0; 43]).is_err());
        assert!(ReadReplyHeader::decode(&[]).is_err());
        assert!(WriteArgsHeader::decode(&[0; 47]).is_err());
        assert!(WriteReply::decode(&[0; 3]).is_err());
    }

    #[test]
    fn create_round_trip() {
        let a = CreateArgs {
            dir_fh: 3,
            name: "new.txt".to_string(),
        };
        let enc = a.encode();
        assert_eq!(enc.len() % 4, 0);
        assert_eq!(CreateArgs::decode(&enc), Ok(a));
        assert!(CreateArgs::decode(&enc[..enc.len() - 8]).is_err(), "sattr required");
    }

    #[test]
    fn remove_reply_round_trip() {
        let r = RemoveReply { status: NFS_OK };
        assert_eq!(RemoveReply::decode(&r.encode()), Ok(r));
        assert!(RemoveReply::decode(&[0; 3]).is_err());
    }

    #[test]
    fn readdir_args_round_trip() {
        let a = ReaddirArgs {
            fh: 0,
            cookie: 7,
            count: 4096,
        };
        assert_eq!(ReaddirArgs::decode(&a.encode_array()), Ok(a));
    }

    #[test]
    fn readdir_reply_round_trip() {
        let r = ReaddirReply {
            status: NFS_OK,
            entries: vec![
                DirEntry { fileid: 1, name: "a".to_string() },
                DirEntry { fileid: 22, name: "file-two".to_string() },
            ],
            eof: true,
        };
        assert_eq!(ReaddirReply::decode(&r.encode()), Ok(r));
        let empty = ReaddirReply {
            status: NFS_OK,
            entries: Vec::new(),
            eof: false,
        };
        assert_eq!(ReaddirReply::decode(&empty.encode()), Ok(empty));
        let err = ReaddirReply {
            status: NFSERR_IO,
            ..ReaddirReply::default()
        };
        assert_eq!(ReaddirReply::decode(&err.encode()), Ok(err));
    }

    /// The field-by-field XDR layout the stack encoders must reproduce,
    /// written the slow way: every word appended in wire order.
    fn fattr_reference(a: &Fattr, b: &mut Vec<u8>) {
        for w in [
            a.ftype.to_u32(),
            0o644, // mode
            1,     // nlink
            0,     // uid
            0,     // gid
            a.size,
            4096, // blocksize
            0,    // rdev
            a.size.div_ceil(4096),
            0, // fsid
            a.fileid,
            0, // atime sec
            0, // atime usec
            a.mtime,
            0, // mtime usec
            a.mtime,
            0, // ctime usec
        ] {
            put_u32(b, w);
        }
    }

    #[test]
    fn error_replies_encode_as_the_status_word_only() {
        let st = NFSERR_JUKEBOX.to_be_bytes();
        assert_eq!(&*ReadReplyHeader { status: NFSERR_JUKEBOX, ..Default::default() }.encode_array(), &st);
        assert_eq!(&*WriteReply { status: NFSERR_JUKEBOX, ..Default::default() }.encode_array(), &st);
        assert_eq!(&*LookupReply { status: NFSERR_JUKEBOX, ..Default::default() }.encode_array(), &st);
    }

    property! {
        fn prop_readdir_reply_round_trip(
            names in vec_of((string_of(ALNUM_LOWER, 1..21), any_u32()), 0..20),
            eof in any_bool(),
        ) {
            let r = ReaddirReply {
                status: NFS_OK,
                entries: names
                    .into_iter()
                    .map(|(name, fileid)| DirEntry { fileid, name })
                    .collect(),
                eof,
            };
            prop_assert_eq!(ReaddirReply::decode(&r.encode()), Ok(r.clone()));
        }

        fn prop_stack_encoders_match_the_wire_order_reference(
            fh in any_u64(),
            words in (any_u32(), any_u32(), any_u32(), any_u32(), any_u32()),
            dir in any_bool(),
        ) {
            let (size, fileid, mtime, offset, count) = words;
            let ftype = if dir { FileType::Directory } else { FileType::Regular };
            let attrs = Fattr { ftype, size, fileid, mtime };
            let mut want_attrs = Vec::new();
            fattr_reference(&attrs, &mut want_attrs);
            prop_assert_eq!(attrs.encode_array().to_vec(), want_attrs.clone());

            let mut fh_bytes = Vec::new();
            put_fh(&mut fh_bytes, fh);
            prop_assert_eq!(GetattrArgs { fh }.encode(), fh_bytes.clone());

            let mut want = fh_bytes.clone();
            for w in [offset, count, count] {
                put_u32(&mut want, w);
            }
            prop_assert_eq!(ReadArgs { fh, offset, count }.encode(), want);

            let mut want = fh_bytes.clone();
            for w in [0, offset, 0, count] {
                put_u32(&mut want, w);
            }
            prop_assert_eq!(WriteArgsHeader { fh, offset, count }.encode(), want);

            let mut want = fh_bytes.clone();
            for w in [offset, count] {
                put_u32(&mut want, w);
            }
            prop_assert_eq!(ReaddirArgs { fh, cookie: offset, count }.encode_array().to_vec(), want);

            let mut want = NFS_OK.to_be_bytes().to_vec();
            want.extend_from_slice(&want_attrs);
            prop_assert_eq!(WriteReply { status: NFS_OK, attrs }.encode(), want.clone());
            put_u32(&mut want, count);
            prop_assert_eq!(ReadReplyHeader { status: NFS_OK, attrs, count }.encode(), want);

            let mut want = NFS_OK.to_be_bytes().to_vec();
            want.extend_from_slice(&fh_bytes);
            want.extend_from_slice(&want_attrs);
            prop_assert_eq!(LookupReply { status: NFS_OK, fh, attrs }.encode(), want);
        }

        fn prop_read_args_round_trip(fh in any_u64(), off in any_u32(), cnt in any_u32()) {
            let a = ReadArgs { fh, offset: off, count: cnt };
            prop_assert_eq!(ReadArgs::decode(&a.encode()), Ok(a));
        }

        fn prop_write_header_round_trip(fh in any_u64(), off in any_u32(), cnt in any_u32()) {
            let h = WriteArgsHeader { fh, offset: off, count: cnt };
            prop_assert_eq!(WriteArgsHeader::decode(&h.encode()), Ok(h));
        }

        fn prop_lookup_round_trip(fh in any_u64(), name in string_of(FILENAME, 0..65)) {
            let a = LookupArgs { dir_fh: fh, name };
            prop_assert_eq!(LookupArgs::decode(&a.encode()), Ok(a.clone()));
        }

        fn prop_fattr_round_trip(size in any_u32(), id in any_u32(), mt in any_u32()) {
            let a = Fattr { ftype: FileType::Regular, size, fileid: id, mtime: mt };
            let mut b = Vec::new();
            a.encode_into(&mut b);
            prop_assert_eq!(Fattr::decode(&b, 0), Ok(a));
        }
    }
}
