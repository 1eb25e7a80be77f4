//! The file system proper: layout, inode/block mapping, directories, and
//! both data-movement interfaces (physical copying and NCache's logical
//! key-moving), all running over a [`BlockStore`] through the
//! [`BufferCache`].

use netbuf::key::KeyStamp;
use netbuf::{BufPool, CopyLedger, NetBuf, Segment};

use crate::alloc::Bitmap;
use crate::cache::{BufferCache, CacheStats, Probed, Writeback};
use crate::dir::{self, DirEntry};
use crate::error::FsError;
use crate::inode::{
    block_path, BlockPath, FileType, Ino, Inode, INODES_PER_BLOCK, INODE_SIZE, NO_BLOCK,
    PTRS_PER_BLOCK,
};
use crate::store::{BlockClass, BlockStore};
use crate::BLOCK_SIZE;

/// Geometry and tuning parameters for a new file system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FsParams {
    /// Volume size in blocks.
    pub total_blocks: u64,
    /// Number of inodes to provision.
    pub inode_count: u32,
    /// Buffer-cache capacity in blocks.
    pub cache_blocks: usize,
    /// Read-ahead window in blocks (the paper tunes this to match the NFS
    /// request size, §5.4).
    pub read_ahead_blocks: u64,
}

impl Default for FsParams {
    fn default() -> Self {
        FsParams {
            total_blocks: 16_384,
            inode_count: 1_024,
            cache_blocks: 2_048,
            read_ahead_blocks: 8,
        }
    }
}

const SB_MAGIC: u32 = 0x4e43_4653; // "NCFS"

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Superblock {
    total_blocks: u64,
    inode_count: u32,
    ibitmap_start: u64,
    ibitmap_blocks: u64,
    dbitmap_start: u64,
    dbitmap_blocks: u64,
    itable_start: u64,
    itable_blocks: u64,
    data_start: u64,
}

impl Superblock {
    fn layout(total_blocks: u64, inode_count: u32) -> Superblock {
        let ibitmap_start = 1;
        let ibitmap_blocks = u64::from(inode_count)
            .div_ceil(crate::alloc::BITS_PER_BLOCK)
            .max(1);
        let itable_start = ibitmap_start + ibitmap_blocks;
        let itable_blocks = u64::from(inode_count)
            .div_ceil(INODES_PER_BLOCK as u64)
            .max(1);
        let dbitmap_start = itable_start + itable_blocks;
        // Data bitmap sized for the remaining blocks (slightly generous:
        // it also covers its own blocks, which are marked used at mkfs).
        let remaining = total_blocks.saturating_sub(dbitmap_start);
        let dbitmap_blocks = remaining.div_ceil(crate::alloc::BITS_PER_BLOCK).max(1);
        let data_start = dbitmap_start + dbitmap_blocks;
        Superblock {
            total_blocks,
            inode_count,
            ibitmap_start,
            ibitmap_blocks,
            dbitmap_start,
            dbitmap_blocks,
            itable_start,
            itable_blocks,
            data_start,
        }
    }

    fn data_blocks(&self) -> u64 {
        self.total_blocks.saturating_sub(self.data_start)
    }

    fn encode(&self) -> Vec<u8> {
        let mut b = vec![0u8; BLOCK_SIZE];
        b[0..4].copy_from_slice(&SB_MAGIC.to_le_bytes());
        b[8..16].copy_from_slice(&self.total_blocks.to_le_bytes());
        b[16..20].copy_from_slice(&self.inode_count.to_le_bytes());
        b[24..32].copy_from_slice(&self.ibitmap_start.to_le_bytes());
        b[32..40].copy_from_slice(&self.ibitmap_blocks.to_le_bytes());
        b[40..48].copy_from_slice(&self.dbitmap_start.to_le_bytes());
        b[48..56].copy_from_slice(&self.dbitmap_blocks.to_le_bytes());
        b[56..64].copy_from_slice(&self.itable_start.to_le_bytes());
        b[64..72].copy_from_slice(&self.itable_blocks.to_le_bytes());
        b[72..80].copy_from_slice(&self.data_start.to_le_bytes());
        b
    }

    fn decode(b: &[u8]) -> Result<Superblock, FsError> {
        if b.len() < BLOCK_SIZE {
            return Err(FsError::Corrupt("short superblock"));
        }
        if u32::from_le_bytes(b[0..4].try_into().expect("4 bytes")) != SB_MAGIC {
            return Err(FsError::Corrupt("superblock magic"));
        }
        let g64 = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"));
        Ok(Superblock {
            total_blocks: g64(8),
            inode_count: u32::from_le_bytes(b[16..20].try_into().expect("4 bytes")),
            ibitmap_start: g64(24),
            ibitmap_blocks: g64(32),
            dbitmap_start: g64(40),
            dbitmap_blocks: g64(48),
            itable_start: g64(56),
            itable_blocks: g64(64),
            data_start: g64(72),
        })
    }
}

/// One block returned by the logical (key-moving) read path: the cached
/// segment attached by reference plus its identity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogicalBlock {
    /// File block index.
    pub file_index: u64,
    /// Volume block address (the LBN the storage server knows it by), or
    /// `None` for an unallocated hole.
    pub lbn: Option<u64>,
    /// The cached block contents, shared (not copied).
    pub seg: Segment,
    /// Bytes of this block that fall inside the requested range and file.
    pub valid_len: usize,
}

/// Longest range, in blocks, [`Filesystem::walk_resident`] serves: every
/// NFS READ and every page up to 128 KiB. The probed entries live in the
/// walk itself, on the stack, so a hit allocates nothing for them.
pub const WALK_BLOCKS: usize = 32;

/// Distinct indirect blocks a walk of [`WALK_BLOCKS`] blocks can cross: a
/// single-indirect block, then two double-indirect roots with a
/// second-level block each (plus one of slack).
const WALK_METAS: usize = 6;

/// One data block of a [`ResidentWalk`], in file order.
#[derive(Clone, Copy, Debug)]
pub struct WalkBlock<'a> {
    /// File block index.
    pub file_index: u64,
    /// Volume block address.
    pub lbn: u64,
    /// The cached block, by reference.
    pub seg: &'a Segment,
    /// Where the walked range starts inside this block (non-zero only in
    /// the first block of an unaligned range).
    pub in_off: usize,
    /// Bytes of this block inside the walked range and the file.
    pub len: usize,
}

/// A fully resident range, probed but not yet counted (see
/// [`Filesystem::walk_resident`]). Dropping it leaves no trace;
/// [`ResidentWalk::commit`] counts it.
#[derive(Debug)]
pub struct ResidentWalk<'a> {
    cache: &'a BufferCache,
    inode: Inode,
    inode_entry: Probed<'a>,
    offset: u64,
    /// Bytes in the range, clipped to end of file.
    len: usize,
    data: [Option<(u64, Probed<'a>)>; WALK_BLOCKS],
    blocks: usize,
    /// Each distinct indirect block met so far, with the index of its
    /// last access in the walk.
    metas: [Option<(u64, Probed<'a>, u64)>; WALK_METAS],
    /// Counted accesses the per-block walk makes over this range.
    accesses: u64,
}

impl<'a> ResidentWalk<'a> {
    /// Reads pointer `slot` of indirect block `lbn` as the walk's next
    /// access, probing the block the first time it is met. `None` for a
    /// hole (`lbn` or the pointer unallocated) or a non-resident block.
    fn ptr(&mut self, lbn: u64, slot: usize) -> Option<u64> {
        let lbn = nonzero(lbn)?;
        let at = self.accesses;
        self.accesses += 1;
        let known = self
            .metas
            .iter_mut()
            .map_while(Option::as_mut)
            .find(|(l, ..)| *l == lbn);
        let block = match known {
            Some((_, block, last)) => {
                *last = at;
                *block
            }
            None => {
                let block = self.cache.probe(lbn)?;
                *self.metas.iter_mut().find(|m| m.is_none())? = Some((lbn, block, at));
                block
            }
        };
        nonzero(ptr_at(block.seg().as_slice(), slot))
    }

    /// [`Filesystem::getattr`] after the walk: the same counted
    /// inode-table access, through the entry the walk already holds.
    pub fn getattr(&self) -> &Inode {
        self.inode_entry.promote(self.cache.count_hits(1));
        self.cache.emit_hits(1);
        &self.inode
    }

    /// Data blocks in the range.
    pub fn block_count(&self) -> usize {
        self.blocks
    }

    /// The range's data blocks in file order.
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = WalkBlock<'a>> + Clone + '_ {
        let first = self.offset / BLOCK_SIZE as u64;
        let head = (self.offset % BLOCK_SIZE as u64) as usize;
        self.data[..self.blocks].iter().enumerate().map(move |(i, d)| {
            let (lbn, block) = d.expect("a returned walk probed every block");
            let in_off = if i == 0 { head } else { 0 };
            WalkBlock {
                file_index: first + i as u64,
                lbn,
                seg: block.seg(),
                in_off,
                len: (head + self.len - i * BLOCK_SIZE - in_off).min(BLOCK_SIZE - in_off),
            }
        })
    }

    /// Counts the walk: exactly the accesses the per-block walk makes on
    /// an all-hit range — the inode, then per block each indirect level
    /// and the data block — with the same tally, hit count, event order
    /// and recency stamps, drawn in one reservation (access `k` gets
    /// `base + k`; promotion is via max, so an indirect block read for
    /// several data blocks takes only its last stamp). `each` runs right
    /// after a block's data access, where the per-block paths charge
    /// their copy.
    pub fn commit(&self, mut each: impl FnMut(WalkBlock<'a>)) {
        let base = self.cache.count_hits(self.accesses);
        self.cache.emit_hits(1);
        self.inode_entry.promote(base);
        let mut at = base + 1;
        for (b, d) in self.blocks().zip(&self.data) {
            let levels = match block_path(b.file_index).expect("walked") {
                BlockPath::Direct { .. } => 0,
                BlockPath::Single { .. } => 1,
                BlockPath::Double { .. } => 2,
            };
            self.cache.emit_hits(levels + 1);
            at += levels as u64;
            d.expect("walked").1.promote(at);
            at += 1;
            each(b);
        }
        for (_, block, last) in self.metas.iter().map_while(|m| m.as_ref()) {
            block.promote(base + last);
        }
    }
}

/// The file system. The root directory is inode 0.
///
/// # Examples
///
/// ```
/// use netbuf::CopyLedger;
/// use simfs::{Filesystem, FsParams, MemStore};
///
/// let ledger = CopyLedger::new();
/// let store = MemStore::new(16_384);
/// let mut fs = Filesystem::mkfs(store, FsParams::default(), &ledger)?;
/// let ino = fs.create(Filesystem::<MemStore>::ROOT, "hello.txt")?;
/// fs.write(ino, 0, b"hello world")?;
/// let mut buf = [0u8; 11];
/// assert_eq!(fs.read(ino, 0, &mut buf)?, 11);
/// assert_eq!(&buf, b"hello world");
/// # Ok::<(), simfs::FsError>(())
/// ```
#[derive(Debug)]
pub struct Filesystem<S> {
    store: S,
    sb: Superblock,
    cache: BufferCache,
    ibitmap: Bitmap,
    dbitmap: Bitmap,
    ledger: CopyLedger,
    read_ahead: u64,
    alloc_cursor: u64,
    recorder: Option<obs::Recorder>,
    /// Stamp-sized stores for the placeholder blocks of logical writes.
    stamps: BufPool,
}

impl<S: BlockStore> Filesystem<S> {
    /// The root directory's inode number.
    pub const ROOT: Ino = Ino(0);

    /// Formats `store` and returns the mounted file system.
    ///
    /// # Errors
    ///
    /// [`FsError::NoSpace`] if the volume is too small for the layout.
    pub fn mkfs(mut store: S, params: FsParams, ledger: &CopyLedger) -> Result<Self, FsError> {
        let sb = Superblock::layout(params.total_blocks, params.inode_count);
        if sb.data_start >= params.total_blocks {
            return Err(FsError::NoSpace);
        }
        store.write_block(0, BlockClass::Meta, &Segment::from_vec(sb.encode()));
        // Zero the inode table so free slots decode as free.
        let zero = Segment::zeroed(BLOCK_SIZE);
        for i in 0..sb.itable_blocks {
            store.write_block(sb.itable_start + i, BlockClass::Meta, &zero);
        }
        let mut ibitmap = Bitmap::new(u64::from(params.inode_count));
        let dbitmap = Bitmap::new(sb.data_blocks());
        // Root directory: inode 0, empty.
        ibitmap.set(0);
        let mut fs = Filesystem {
            store,
            sb,
            cache: BufferCache::new(params.cache_blocks),
            ibitmap,
            dbitmap,
            ledger: ledger.clone(),
            read_ahead: params.read_ahead_blocks,
            alloc_cursor: 0,
            recorder: None,
            stamps: BufPool::stamp_only(),
        };
        fs.store_inode(Self::ROOT, &Inode::new(FileType::Directory))?;
        fs.write_bitmaps_full();
        fs.sync()?;
        Ok(fs)
    }

    /// Mounts an existing file system.
    ///
    /// # Errors
    ///
    /// [`FsError::Corrupt`] if the superblock does not verify.
    pub fn mount(
        mut store: S,
        cache_blocks: usize,
        read_ahead_blocks: u64,
        ledger: &CopyLedger,
    ) -> Result<Self, FsError> {
        let sb = Superblock::decode(store.read_block(0, BlockClass::Meta).as_slice())?;
        let mut iraw = Vec::new();
        for i in 0..sb.ibitmap_blocks {
            iraw.extend_from_slice(
                store.read_block(sb.ibitmap_start + i, BlockClass::Meta).as_slice(),
            );
        }
        let mut draw = Vec::new();
        for i in 0..sb.dbitmap_blocks {
            draw.extend_from_slice(
                store.read_block(sb.dbitmap_start + i, BlockClass::Meta).as_slice(),
            );
        }
        Ok(Filesystem {
            ibitmap: Bitmap::from_raw(u64::from(sb.inode_count), &iraw),
            dbitmap: Bitmap::from_raw(sb.data_blocks(), &draw),
            store,
            sb,
            cache: BufferCache::new(cache_blocks),
            ledger: ledger.clone(),
            read_ahead: read_ahead_blocks,
            alloc_cursor: 0,
            recorder: None,
            stamps: BufPool::stamp_only(),
        })
    }

    /// Emits buffer-cache events and write-back batches on `rec`.
    pub fn set_recorder(&mut self, rec: obs::Recorder) {
        self.cache.set_recorder(rec.clone());
        self.recorder = Some(rec);
    }

    /// The copy ledger this file system charges.
    pub fn ledger(&self) -> &CopyLedger {
        &self.ledger
    }

    /// Buffer-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Blocks currently resident in the buffer cache.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Checks the buffer cache's LRU indexes against its block map (see
    /// [`BufferCache::check_invariants`]) and the placeholder store list.
    ///
    /// # Errors
    ///
    /// A description of the first violation found.
    pub fn check_cache_invariants(&self) -> Result<(), String> {
        self.cache.check_invariants()?;
        self.stamps.check_invariants()
    }

    /// Dirty fraction of the buffer cache in permille — the control
    /// plane's backpressure signal.
    pub fn cache_dirty_permille(&self) -> u32 {
        self.cache.dirty_permille()
    }

    /// Resizes the buffer cache (the NCache configuration shrinks it to
    /// whatever RAM the pinned network-centric cache leaves, §4.1).
    pub fn set_cache_capacity(&mut self, blocks: usize) {
        let wb = self.cache.set_capacity(blocks);
        self.do_writebacks(wb);
    }

    /// Current buffer-cache capacity in blocks (the FS side of the split).
    pub fn cache_capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Attaches a ghost LRU tail to the buffer cache (see
    /// [`BufferCache::enable_ghost`]).
    pub fn enable_cache_ghost(&mut self, cap: usize) {
        self.cache.enable_ghost(cap);
    }

    /// Counters of the buffer cache's ghost tail, or `None` when none is
    /// attached.
    pub fn cache_ghost_stats(&self) -> Option<sim::GhostStats> {
        self.cache.ghost_stats()
    }

    /// Advances the buffer cache's plain recency counter past `stamp`
    /// (see [`BufferCache::advance_seq_past`]).
    pub fn advance_cache_seq_past(&self, stamp: u64) {
        self.cache.advance_seq_past(stamp);
    }

    /// The read-ahead window in blocks.
    pub fn read_ahead(&self) -> u64 {
        self.read_ahead
    }

    /// Sets the read-ahead window in blocks.
    pub fn set_read_ahead(&mut self, blocks: u64) {
        self.read_ahead = blocks;
    }

    /// Free data blocks remaining.
    pub fn free_blocks(&self) -> u64 {
        self.dbitmap.free_count()
    }

    /// Access to the backing store (for test inspection).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Exclusive access to the backing store (the NCache build drains the
    /// module's eviction writebacks through the initiator living here).
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    // ----- namespace operations (metadata paths) -----

    /// Creates an empty regular file `name` in directory `parent`.
    ///
    /// # Errors
    ///
    /// [`FsError::Exists`] if the name is taken, [`FsError::NotADirectory`]
    /// if `parent` is not a directory, [`FsError::InvalidName`] /
    /// [`FsError::NoSpace`] as applicable.
    pub fn create(&mut self, parent: Ino, name: &str) -> Result<Ino, FsError> {
        dir::validate_name(name)?;
        let mut dnode = self.load_inode(parent)?;
        if dnode.ftype != FileType::Directory {
            return Err(FsError::NotADirectory);
        }
        if self.dir_find(&dnode, name)?.is_some() {
            return Err(FsError::Exists);
        }
        let ino_idx = self.ibitmap.alloc(0)?;
        let ino = Ino(ino_idx as u32);
        self.store_inode(ino, &Inode::new(FileType::Regular))?;
        self.dir_add(parent, &mut dnode, name, ino)?;
        Ok(ino)
    }

    /// Looks `name` up in directory `parent`.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] if absent; [`FsError::NotADirectory`] if
    /// `parent` is not a directory.
    pub fn lookup(&mut self, parent: Ino, name: &str) -> Result<Ino, FsError> {
        let dnode = self.load_inode(parent)?;
        if dnode.ftype != FileType::Directory {
            return Err(FsError::NotADirectory);
        }
        match self.dir_find(&dnode, name)? {
            Some((_, _, ino)) => Ok(ino),
            None => Err(FsError::NotFound),
        }
    }

    /// Returns the attributes of `ino`.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] if the inode is free or out of range.
    pub fn getattr(&mut self, ino: Ino) -> Result<Inode, FsError> {
        self.load_inode(ino)
    }

    /// Lists directory `parent`.
    ///
    /// # Errors
    ///
    /// [`FsError::NotADirectory`] if `parent` is not a directory.
    pub fn readdir(&mut self, parent: Ino) -> Result<Vec<DirEntry>, FsError> {
        let dnode = self.load_inode(parent)?;
        if dnode.ftype != FileType::Directory {
            return Err(FsError::NotADirectory);
        }
        let mut out = Vec::new();
        for idx in 0..dnode.size_blocks() {
            if let Some(lbn) = self.map_block_mut(&dnode, idx)? {
                let seg = self.read_block_cached(lbn, BlockClass::Meta);
                out.extend(dir::entries_in_block(seg.as_slice()));
            }
        }
        Ok(out)
    }

    /// Removes file `name` from directory `parent`, freeing its inode and
    /// blocks.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] if absent; [`FsError::NotAFile`] if the entry
    /// is a directory (directories cannot be unlinked in this subset).
    pub fn remove(&mut self, parent: Ino, name: &str) -> Result<(), FsError> {
        let dnode = self.load_inode(parent)?;
        if dnode.ftype != FileType::Directory {
            return Err(FsError::NotADirectory);
        }
        let (blk_idx, slot, ino) = self.dir_find(&dnode, name)?.ok_or(FsError::NotFound)?;
        let victim = self.load_inode(ino)?;
        if victim.ftype != FileType::Regular {
            return Err(FsError::NotAFile);
        }
        // Clear the directory slot.
        let lbn = self
            .map_block_mut(&dnode, blk_idx)?
            .ok_or(FsError::Corrupt("directory hole"))?;
        let seg = self.read_block_cached(lbn, BlockClass::Meta);
        let mut block = seg.as_slice().to_vec();
        dir::clear_entry(&mut block, slot);
        self.write_block_cached(lbn, BlockClass::Meta, Segment::from_vec(block));
        // Free the file's storage.
        self.free_file_blocks(&victim)?;
        let table_lbn = self.inode_lbn(ino);
        let seg = self.read_block_cached(table_lbn, BlockClass::Meta);
        let mut block = seg.as_slice().to_vec();
        let at = (ino.0 as usize % INODES_PER_BLOCK) * INODE_SIZE;
        block[at..at + INODE_SIZE].fill(0);
        self.write_block_cached(table_lbn, BlockClass::Meta, Segment::from_vec(block));
        self.ibitmap.free(u64::from(ino.0));
        Ok(())
    }

    // ----- physical (copying) data paths -----

    /// Reads up to `out.len()` bytes at `offset`, physically copying each
    /// covered block out of the buffer cache (charged to the ledger).
    /// Returns the bytes read (short at end of file).
    ///
    /// # Errors
    ///
    /// [`FsError::NotAFile`] on directories; [`FsError::NotFound`] on free
    /// inodes.
    pub fn read(&mut self, ino: Ino, offset: u64, out: &mut [u8]) -> Result<usize, FsError> {
        if let Some(walk) = self.walk_resident(ino, offset, out.len()) {
            let mut done = 0usize;
            walk.commit(|b| {
                b.seg.read_at(b.in_off, &mut out[done..done + b.len]);
                self.ledger.charge_payload_copy(b.len as u64);
                done += b.len;
            });
            return Ok(done);
        }
        let inode = self.load_inode(ino)?;
        if inode.ftype != FileType::Regular {
            return Err(FsError::NotAFile);
        }
        if offset >= inode.size {
            return Ok(0);
        }
        let len = out.len().min((inode.size - offset) as usize);
        let mut done = 0usize;
        while done < len {
            let pos = offset + done as u64;
            let blk = pos / BLOCK_SIZE as u64;
            let in_off = (pos % BLOCK_SIZE as u64) as usize;
            let take = (BLOCK_SIZE - in_off).min(len - done);
            match self.map_and_fetch(&inode, blk)? {
                Some(seg) => seg.read_at(in_off, &mut out[done..done + take]),
                None => out[done..done + take].fill(0),
            }
            self.ledger.charge_payload_copy(take as u64);
            done += take;
        }
        Ok(len)
    }

    /// Writes `data` at `offset`, physically copying it into the buffer
    /// cache (charged), allocating and dirtying blocks as needed.
    ///
    /// # Errors
    ///
    /// [`FsError::NotAFile`], [`FsError::NoSpace`], or
    /// [`FsError::InvalidRange`] beyond the maximum file size.
    pub fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> Result<(), FsError> {
        let mut inode = self.load_inode(ino)?;
        if inode.ftype != FileType::Regular {
            return Err(FsError::NotAFile);
        }
        let mut done = 0usize;
        while done < data.len() {
            let pos = offset + done as u64;
            let blk = pos / BLOCK_SIZE as u64;
            let in_off = (pos % BLOCK_SIZE as u64) as usize;
            let take = (BLOCK_SIZE - in_off).min(data.len() - done);
            let (lbn, fresh) = self.map_block_alloc(ino, &mut inode, blk)?;
            let mut block = if take == BLOCK_SIZE || fresh {
                vec![0u8; BLOCK_SIZE]
            } else {
                self.read_block_cached(lbn, BlockClass::Data).to_vec()
            };
            block[in_off..in_off + take].copy_from_slice(&data[done..done + take]);
            self.ledger.charge_payload_copy(take as u64);
            self.write_block_cached(lbn, BlockClass::Data, Segment::from_vec(block));
            done += take;
        }
        if offset + data.len() as u64 > inode.size {
            inode.size = offset + data.len() as u64;
        }
        inode.mtime += 1;
        self.store_inode(ino, &inode)
    }

    /// sendfile: copies file bytes straight from the buffer cache into an
    /// outgoing packet — one physical copy, the kHTTPd fast path of
    /// Table 2. Returns the bytes appended (short at end of file).
    ///
    /// # Errors
    ///
    /// Same as [`Filesystem::read`].
    pub fn sendfile_into(
        &mut self,
        ino: Ino,
        offset: u64,
        len: usize,
        out: &mut NetBuf,
    ) -> Result<usize, FsError> {
        if let Some(walk) = self.walk_resident(ino, offset, len) {
            out.reserve_segments(walk.block_count());
            walk.commit(|b| out.append_vec(b.seg.slice(b.in_off, b.len).to_vec()));
            return Ok(walk.len);
        }
        let inode = self.load_inode(ino)?;
        if inode.ftype != FileType::Regular {
            return Err(FsError::NotAFile);
        }
        if offset >= inode.size {
            return Ok(0);
        }
        let len = len.min((inode.size - offset) as usize);
        // One segment per block touched: size the chain once.
        out.reserve_segments(((offset % BLOCK_SIZE as u64) as usize + len).div_ceil(BLOCK_SIZE));
        let mut done = 0usize;
        while done < len {
            let pos = offset + done as u64;
            let blk = pos / BLOCK_SIZE as u64;
            let in_off = (pos % BLOCK_SIZE as u64) as usize;
            let take = (BLOCK_SIZE - in_off).min(len - done);
            match self.map_and_fetch(&inode, blk)? {
                Some(seg) => out.append_vec(seg.slice(in_off, take).to_vec()),
                None => out.append_vec(vec![0u8; take]),
            }
            done += take;
        }
        Ok(len)
    }

    // ----- logical (key-moving) data paths: the NCache interfaces -----

    /// Reads blocks *by reference*: no payload bytes move; the returned
    /// segments share storage with the buffer cache. Under the NCache
    /// configuration these blocks contain a [`KeyStamp`] plus junk, and the
    /// server composes replies from them without looking at the contents.
    ///
    /// # Errors
    ///
    /// [`FsError::InvalidRange`] if `offset` is not block-aligned; the
    /// rest as [`Filesystem::read`].
    pub fn read_logical(
        &mut self,
        ino: Ino,
        offset: u64,
        len: usize,
    ) -> Result<Vec<LogicalBlock>, FsError> {
        if !offset.is_multiple_of(BLOCK_SIZE as u64) {
            return Err(FsError::InvalidRange);
        }
        if let Some(walk) = self.walk_resident(ino, offset, len) {
            let mut out = Vec::with_capacity(walk.block_count());
            walk.commit(|b| {
                self.ledger.charge_logical_copy();
                out.push(LogicalBlock {
                    file_index: b.file_index,
                    lbn: Some(b.lbn),
                    seg: b.seg.clone(),
                    valid_len: b.len,
                });
            });
            return Ok(out);
        }
        self.read_logical_per_block(ino, offset, len)
    }

    /// [`Filesystem::read_logical`] one block at a time, each mapped,
    /// looked up and — on a miss — fetched on its own: the path whenever
    /// some block is not resident, and the reference the resident walk is
    /// held to where all are.
    ///
    /// # Errors
    ///
    /// As [`Filesystem::read_logical`].
    pub fn read_logical_per_block(
        &mut self,
        ino: Ino,
        offset: u64,
        len: usize,
    ) -> Result<Vec<LogicalBlock>, FsError> {
        if !offset.is_multiple_of(BLOCK_SIZE as u64) {
            return Err(FsError::InvalidRange);
        }
        let inode = self.load_inode(ino)?;
        if inode.ftype != FileType::Regular {
            return Err(FsError::NotAFile);
        }
        if offset >= inode.size {
            return Ok(Vec::new());
        }
        let len = len.min((inode.size - offset) as usize);
        let first = offset / BLOCK_SIZE as u64;
        let nblocks = (len as u64).div_ceil(BLOCK_SIZE as u64);
        let mut out = Vec::with_capacity(nblocks as usize);
        for i in 0..nblocks {
            let blk = first + i;
            let valid = (len - (i as usize * BLOCK_SIZE)).min(BLOCK_SIZE);
            let lbn = self.map_block_mut(&inode, blk)?;
            let seg = match lbn {
                Some(l) => {
                    let s = self.fetch_block(&inode, blk, l)?;
                    self.ledger.charge_logical_copy();
                    s
                }
                None => Segment::zeroed(BLOCK_SIZE),
            };
            out.push(LogicalBlock {
                file_index: blk,
                lbn,
                seg,
                valid_len: valid,
            });
        }
        Ok(out)
    }

    /// The resident walk — the one hit path every read interface shares.
    /// Probes the inode, each *distinct* indirect block and each data
    /// block of `[offset, offset + len)` once, counting, charging and
    /// promoting nothing. `None` if anything on the way is not in the
    /// buffer cache, is a hole, or the range spans more than
    /// [`WALK_BLOCKS`] blocks: the caller takes the per-block,
    /// miss-capable path with the file system untouched. `Some` lets
    /// [`ResidentWalk::commit`] replay, from the probed entries alone,
    /// exactly the counted accesses the per-block walk would have made;
    /// the borrow on `self` keeps the cache from changing in between.
    pub fn walk_resident(&self, ino: Ino, offset: u64, len: usize) -> Option<ResidentWalk<'_>> {
        if u64::from(ino.0) >= u64::from(self.sb.inode_count) {
            return None;
        }
        let inode_entry = self.cache.probe(self.inode_lbn(ino))?;
        let inode = decode_inode(inode_entry.seg().as_slice(), ino).ok()?;
        if inode.ftype != FileType::Regular || offset >= inode.size {
            return None;
        }
        let len = len.min((inode.size - offset) as usize);
        let first = offset / BLOCK_SIZE as u64;
        let head = (offset % BLOCK_SIZE as u64) as usize;
        let blocks = if len == 0 { 0 } else { (head + len).div_ceil(BLOCK_SIZE) };
        if blocks > WALK_BLOCKS {
            return None;
        }
        let mut walk = ResidentWalk {
            cache: &self.cache,
            inode,
            inode_entry,
            offset,
            len,
            data: [None; WALK_BLOCKS],
            blocks,
            metas: [None; WALK_METAS],
            // Access 0 is the inode-table block.
            accesses: 1,
        };
        for i in 0..blocks {
            let lbn = match block_path(first + i as u64).ok()? {
                BlockPath::Direct { slot } => walk.inode.direct[slot],
                BlockPath::Single { slot } => walk.ptr(walk.inode.single, slot)?,
                BlockPath::Double {
                    which,
                    outer,
                    inner,
                } => {
                    let mid = walk.ptr(walk.inode.double[which], outer)?;
                    walk.ptr(mid, inner)?
                }
            };
            walk.data[i] = Some((lbn, self.cache.probe(nonzero(lbn)?)?));
            walk.accesses += 1;
        }
        Some(walk)
    }

    /// Writes placeholder blocks carrying `stamps` instead of payload —
    /// the NCache write path: the real data stays in the network-centric
    /// cache, keyed by FHO; the buffer cache holds key + junk (§3.2).
    ///
    /// # Errors
    ///
    /// [`FsError::InvalidRange`] if `offset` is not block-aligned or
    /// `stamps` does not cover `len`; the rest as [`Filesystem::write`].
    pub fn write_logical(
        &mut self,
        ino: Ino,
        offset: u64,
        len: usize,
        stamps: &[KeyStamp],
    ) -> Result<(), FsError> {
        if !offset.is_multiple_of(BLOCK_SIZE as u64) {
            return Err(FsError::InvalidRange);
        }
        let nblocks = (len as u64).div_ceil(BLOCK_SIZE as u64);
        if stamps.len() as u64 != nblocks {
            return Err(FsError::InvalidRange);
        }
        let mut inode = self.load_inode(ino)?;
        if inode.ftype != FileType::Regular {
            return Err(FsError::NotAFile);
        }
        let first = offset / BLOCK_SIZE as u64;
        for (i, stamp) in stamps.iter().enumerate() {
            let (lbn, _) = self.map_block_alloc(ino, &mut inode, first + i as u64)?;
            // Stamp the block with its LBN identity as well: after the
            // flush remaps the FHO entry into the LBN cache, replies
            // composed from this placeholder must still resolve (§3.4's
            // dual-key replies, FHO consulted first).
            let stamp = if stamp.is_keyed() && stamp.lbn.is_none() {
                stamp.with_lbn(netbuf::key::Lbn(lbn))
            } else {
                *stamp
            };
            // A block that stores its stamp and nothing else, on a
            // recycled store: writing the stamp is the only byte work.
            let block = self.stamps.placeholder(&stamp, BLOCK_SIZE);
            self.ledger.charge_logical_copy();
            self.ledger.charge_header_bytes(KeyStamp::LEN as u64);
            self.write_block_cached(lbn, BlockClass::Data, block);
        }
        if offset + len as u64 > inode.size {
            inode.size = offset + len as u64;
        }
        inode.mtime += 1;
        self.store_inode(ino, &inode)
    }

    /// Allocates blocks for `[0, size)` and sets the file size *without
    /// writing data* — the blocks keep whatever the backing store holds.
    /// Experiment setup uses this to pre-populate multi-gigabyte files
    /// whose contents are the store's deterministic synthetic blocks,
    /// avoiding materializing the data.
    ///
    /// # Errors
    ///
    /// As [`Filesystem::write`].
    pub fn allocate(&mut self, ino: Ino, size: u64) -> Result<(), FsError> {
        let mut inode = self.load_inode(ino)?;
        if inode.ftype != FileType::Regular {
            return Err(FsError::NotAFile);
        }
        for blk in 0..size.div_ceil(BLOCK_SIZE as u64) {
            self.map_block_alloc(ino, &mut inode, blk)?;
        }
        if size > inode.size {
            inode.size = size;
        }
        inode.mtime += 1;
        self.store_inode(ino, &inode)
    }

    /// The volume LBN a file block maps to, if allocated (used by servers
    /// to translate FHO keys into LBNs at flush time).
    ///
    /// # Errors
    ///
    /// As [`Filesystem::read`].
    pub fn block_lbn(&mut self, ino: Ino, file_block: u64) -> Result<Option<u64>, FsError> {
        let inode = self.load_inode(ino)?;
        self.map_block_mut(&inode, file_block)
    }

    // ----- flushing -----

    /// Writes every dirty cache block (and the allocation bitmaps) to the
    /// backing store.
    ///
    /// # Errors
    ///
    /// Currently infallible; returns `Result` for interface stability.
    pub fn sync(&mut self) -> Result<(), FsError> {
        let wbs = self.cache.flush_dirty();
        self.emit_writeback_batch(wbs.len());
        self.do_writebacks(wbs);
        self.write_dirty_bitmaps();
        Ok(())
    }

    /// Write-behind: flushes up to `n` of the oldest dirty blocks.
    ///
    /// # Errors
    ///
    /// Currently infallible; returns `Result` for interface stability.
    pub fn sync_some(&mut self, n: usize) -> Result<(), FsError> {
        let wbs = self.cache.flush_oldest(n);
        self.emit_writeback_batch(wbs.len());
        self.do_writebacks(wbs);
        Ok(())
    }

    fn emit_writeback_batch(&self, blocks: usize) {
        if blocks == 0 {
            return;
        }
        if let Some(rec) = &self.recorder {
            rec.emit(obs::EventKind::Writeback {
                blocks: blocks as u64,
            });
        }
    }

    /// Dirty blocks resident in the buffer cache.
    pub fn dirty_blocks(&self) -> usize {
        self.cache.dirty_len()
    }

    /// Drops a block from the buffer cache without writeback (used to
    /// invalidate dangling placeholders; the next access refetches).
    pub fn discard_cached(&mut self, lbn: u64) {
        self.cache.discard(lbn);
    }

    /// Overrides a file's recorded size (servers use this to correct the
    /// block-granular growth of [`Filesystem::write_logical`] after an
    /// unaligned request).
    ///
    /// # Errors
    ///
    /// [`FsError::NotAFile`] on directories; [`FsError::NotFound`] on free
    /// inodes.
    pub fn set_size(&mut self, ino: Ino, size: u64) -> Result<(), FsError> {
        let mut inode = self.load_inode(ino)?;
        if inode.ftype != FileType::Regular {
            return Err(FsError::NotAFile);
        }
        inode.size = size;
        self.store_inode(ino, &inode)
    }

    // ----- internals -----

    fn inode_lbn(&self, ino: Ino) -> u64 {
        self.sb.itable_start + u64::from(ino.0) / INODES_PER_BLOCK as u64
    }

    fn load_inode(&mut self, ino: Ino) -> Result<Inode, FsError> {
        if u64::from(ino.0) >= u64::from(self.sb.inode_count) {
            return Err(FsError::NotFound);
        }
        let lbn = self.inode_lbn(ino);
        let seg = self.read_block_cached(lbn, BlockClass::Meta);
        decode_inode(seg.as_slice(), ino).map_err(|_| FsError::NotFound)
    }

    fn store_inode(&mut self, ino: Ino, inode: &Inode) -> Result<(), FsError> {
        let lbn = self.inode_lbn(ino);
        let seg = self.read_block_cached(lbn, BlockClass::Meta);
        let mut block = seg.as_slice().to_vec();
        let at = (ino.0 as usize % INODES_PER_BLOCK) * INODE_SIZE;
        inode.encode_into(&mut block[at..at + INODE_SIZE]);
        self.write_block_cached(lbn, BlockClass::Meta, Segment::from_vec(block));
        Ok(())
    }

    fn read_block_cached(&mut self, lbn: u64, class: BlockClass) -> Segment {
        if let Some(seg) = self.cache.get(lbn) {
            return seg;
        }
        let seg = self.store.read_block(lbn, class);
        let wb = self.cache.insert(lbn, seg.clone(), class, false);
        self.do_writebacks(wb);
        seg
    }

    fn write_block_cached(&mut self, lbn: u64, class: BlockClass, seg: Segment) {
        if self.cache.contains(lbn) {
            self.cache.update(lbn, seg);
        } else {
            let wb = self.cache.insert(lbn, seg, class, true);
            self.do_writebacks(wb);
        }
    }

    fn do_writebacks(&mut self, wbs: Vec<Writeback>) {
        for wb in wbs {
            self.store.write_block(wb.lbn, wb.class, &wb.seg);
        }
    }

    fn write_bitmaps_full(&mut self) {
        for i in 0..self.ibitmap.block_count() {
            let lbn = self.sb.ibitmap_start + i as u64;
            let seg = Segment::from_vec(self.ibitmap.block_bytes(i).to_vec());
            self.write_block_cached(lbn, BlockClass::Meta, seg);
        }
        for i in 0..self.dbitmap.block_count() {
            let lbn = self.sb.dbitmap_start + i as u64;
            let seg = Segment::from_vec(self.dbitmap.block_bytes(i).to_vec());
            self.write_block_cached(lbn, BlockClass::Meta, seg);
        }
        self.ibitmap.take_dirty_blocks();
        self.dbitmap.take_dirty_blocks();
    }

    fn write_dirty_bitmaps(&mut self) {
        for i in self.ibitmap.take_dirty_blocks() {
            let lbn = self.sb.ibitmap_start + i as u64;
            let data = Segment::from_vec(self.ibitmap.block_bytes(i).to_vec());
            self.store.write_block(lbn, BlockClass::Meta, &data);
        }
        for i in self.dbitmap.take_dirty_blocks() {
            let lbn = self.sb.dbitmap_start + i as u64;
            let data = Segment::from_vec(self.dbitmap.block_bytes(i).to_vec());
            self.store.write_block(lbn, BlockClass::Meta, &data);
        }
    }

    fn alloc_block(&mut self) -> Result<u64, FsError> {
        let idx = self.dbitmap.alloc(self.alloc_cursor)?;
        self.alloc_cursor = idx + 1;
        Ok(self.sb.data_start + idx)
    }

    /// Maps a file block for writing, allocating data and indirect blocks
    /// as needed, persisting any inode change. Returns the LBN and whether
    /// the data block was freshly allocated (so callers never read stale
    /// store contents when hole-filling).
    fn map_block_alloc(
        &mut self,
        ino: Ino,
        inode: &mut Inode,
        blk: u64,
    ) -> Result<(u64, bool), FsError> {
        match block_path(blk)? {
            BlockPath::Direct { slot } => {
                if let Some(l) = nonzero(inode.direct[slot]) {
                    return Ok((l, false));
                }
                let l = self.alloc_block()?;
                inode.direct[slot] = l;
                self.store_inode(ino, inode)?;
                Ok((l, true))
            }
            BlockPath::Single { slot } => {
                let ind = match nonzero(inode.single) {
                    Some(l) => l,
                    None => {
                        let l = self.alloc_indirect()?;
                        inode.single = l;
                        self.store_inode(ino, inode)?;
                        l
                    }
                };
                self.alloc_in_indirect(ind, slot)
            }
            BlockPath::Double {
                which,
                outer,
                inner,
            } => {
                let root = match nonzero(inode.double[which]) {
                    Some(l) => l,
                    None => {
                        let l = self.alloc_indirect()?;
                        inode.double[which] = l;
                        self.store_inode(ino, inode)?;
                        l
                    }
                };
                let mid = {
                    let seg = self.read_block_cached(root, BlockClass::Meta);
                    match nonzero(ptr_at(seg.as_slice(), outer)) {
                        Some(l) => l,
                        None => {
                            let l = self.alloc_indirect()?;
                            self.set_ptr(root, outer, l);
                            l
                        }
                    }
                };
                self.alloc_in_indirect(mid, inner)
            }
        }
    }

    fn alloc_in_indirect(&mut self, ind_lbn: u64, slot: usize) -> Result<(u64, bool), FsError> {
        let seg = self.read_block_cached(ind_lbn, BlockClass::Meta);
        if let Some(l) = nonzero(ptr_at(seg.as_slice(), slot)) {
            return Ok((l, false));
        }
        let l = self.alloc_block()?;
        self.set_ptr(ind_lbn, slot, l);
        Ok((l, true))
    }

    fn alloc_indirect(&mut self) -> Result<u64, FsError> {
        let l = self.alloc_block()?;
        self.write_block_cached(l, BlockClass::Meta, Segment::zeroed(BLOCK_SIZE));
        Ok(l)
    }

    fn set_ptr(&mut self, ind_lbn: u64, slot: usize, value: u64) {
        let seg = self.read_block_cached(ind_lbn, BlockClass::Meta);
        let mut block = seg.as_slice().to_vec();
        block[slot * 8..slot * 8 + 8].copy_from_slice(&value.to_le_bytes());
        self.write_block_cached(ind_lbn, BlockClass::Meta, Segment::from_vec(block));
    }

    /// Maps then fetches a block for reading, with read-ahead on miss.
    fn map_and_fetch(&mut self, inode: &Inode, blk: u64) -> Result<Option<Segment>, FsError> {
        match self.map_block_mut(inode, blk)? {
            Some(lbn) => Ok(Some(self.fetch_block(inode, blk, lbn)?)),
            None => Ok(None),
        }
    }

    /// Read-only block mapping that may consult the store for indirect
    /// blocks (hence `&mut self`).
    fn map_block_mut(&mut self, inode: &Inode, blk: u64) -> Result<Option<u64>, FsError> {
        match block_path(blk)? {
            BlockPath::Direct { slot } => Ok(nonzero(inode.direct[slot])),
            BlockPath::Single { slot } => {
                let ind = match nonzero(inode.single) {
                    Some(l) => l,
                    None => return Ok(None),
                };
                let seg = self.read_block_cached(ind, BlockClass::Meta);
                Ok(nonzero(ptr_at(seg.as_slice(), slot)))
            }
            BlockPath::Double {
                which,
                outer,
                inner,
            } => {
                let root = match nonzero(inode.double[which]) {
                    Some(l) => l,
                    None => return Ok(None),
                };
                let seg = self.read_block_cached(root, BlockClass::Meta);
                let mid = match nonzero(ptr_at(seg.as_slice(), outer)) {
                    Some(l) => l,
                    None => return Ok(None),
                };
                let seg = self.read_block_cached(mid, BlockClass::Meta);
                Ok(nonzero(ptr_at(seg.as_slice(), inner)))
            }
        }
    }

    fn fetch_block(&mut self, inode: &Inode, blk: u64, lbn: u64) -> Result<Segment, FsError> {
        if let Some(seg) = self.cache.get(lbn) {
            return Ok(seg);
        }
        // Miss: fetch the block and its read-ahead window.
        let seg = {
            let s = self.store.read_block(lbn, BlockClass::Data);
            let wb = self.cache.insert(lbn, s.clone(), BlockClass::Data, false);
            self.do_writebacks(wb);
            s
        };
        let last = inode.size_blocks();
        for ahead in 1..=self.read_ahead {
            let nblk = blk + ahead;
            if nblk >= last {
                break;
            }
            if let Some(nlbn) = self.map_block_mut(inode, nblk)? {
                if !self.cache.contains(nlbn) {
                    let s = self.store.read_block(nlbn, BlockClass::Data);
                    let wb = self.cache.insert(nlbn, s, BlockClass::Data, false);
                    self.do_writebacks(wb);
                }
            }
        }
        Ok(seg)
    }

    // ----- directory internals -----

    fn dir_find(
        &mut self,
        dnode: &Inode,
        name: &str,
    ) -> Result<Option<(u64, usize, Ino)>, FsError> {
        for idx in 0..dnode.size_blocks() {
            if let Some(lbn) = self.map_block_mut(dnode, idx)? {
                let seg = self.read_block_cached(lbn, BlockClass::Meta);
                if let Some((slot, ino)) = dir::find_in_block(seg.as_slice(), name) {
                    return Ok(Some((idx, slot, ino)));
                }
            }
        }
        Ok(None)
    }

    fn dir_add(
        &mut self,
        parent: Ino,
        dnode: &mut Inode,
        name: &str,
        ino: Ino,
    ) -> Result<(), FsError> {
        // Try existing blocks first.
        for idx in 0..dnode.size_blocks() {
            if let Some(lbn) = self.map_block_mut(dnode, idx)? {
                let seg = self.read_block_cached(lbn, BlockClass::Meta);
                if let Some(slot) = dir::free_slot(seg.as_slice()) {
                    let mut block = seg.as_slice().to_vec();
                    dir::encode_entry(&mut block, slot, name, ino);
                    self.write_block_cached(lbn, BlockClass::Meta, Segment::from_vec(block));
                    return Ok(());
                }
            }
        }
        // Extend the directory by one block.
        let idx = dnode.size_blocks();
        let (lbn, _) = self.map_block_alloc(parent, dnode, idx)?;
        let mut block = vec![0u8; BLOCK_SIZE];
        dir::encode_entry(&mut block, 0, name, ino);
        self.write_block_cached(lbn, BlockClass::Meta, Segment::from_vec(block));
        dnode.size = (idx + 1) * BLOCK_SIZE as u64;
        self.store_inode(parent, dnode)
    }

    fn free_file_blocks(&mut self, inode: &Inode) -> Result<(), FsError> {
        let release = |fsel: &mut Self, lbn: u64| {
            fsel.cache.discard(lbn);
            fsel.dbitmap.free(lbn - fsel.sb.data_start);
        };
        for d in inode.direct {
            if let Some(l) = nonzero(d) {
                release(self, l);
            }
        }
        if let Some(single) = nonzero(inode.single) {
            let seg = self.read_block_cached(single, BlockClass::Meta);
            let ptrs: Vec<u64> = (0..PTRS_PER_BLOCK)
                .filter_map(|s| nonzero(ptr_at(seg.as_slice(), s)))
                .collect();
            for l in ptrs {
                release(self, l);
            }
            release(self, single);
        }
        for root in inode.double {
            if let Some(root) = nonzero(root) {
                let seg = self.read_block_cached(root, BlockClass::Meta);
                let mids: Vec<u64> = (0..PTRS_PER_BLOCK)
                    .filter_map(|s| nonzero(ptr_at(seg.as_slice(), s)))
                    .collect();
                for mid in mids {
                    let seg = self.read_block_cached(mid, BlockClass::Meta);
                    let ptrs: Vec<u64> = (0..PTRS_PER_BLOCK)
                        .filter_map(|s| nonzero(ptr_at(seg.as_slice(), s)))
                        .collect();
                    for l in ptrs {
                        release(self, l);
                    }
                    release(self, mid);
                }
                release(self, root);
            }
        }
        Ok(())
    }
}

/// Decodes `ino`'s slot of its inode-table block.
fn decode_inode(block: &[u8], ino: Ino) -> Result<Inode, FsError> {
    let at = (ino.0 as usize % INODES_PER_BLOCK) * INODE_SIZE;
    Inode::decode(&block[at..at + INODE_SIZE])
}

fn nonzero(lbn: u64) -> Option<u64> {
    (lbn != NO_BLOCK).then_some(lbn)
}

fn ptr_at(block: &[u8], slot: usize) -> u64 {
    u64::from_le_bytes(block[slot * 8..slot * 8 + 8].try_into().expect("8 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::epoch::take_tally;
    use crate::store::MemStore;
    use netbuf::key::{Fho, FileHandle, Lbn};

    type Fs = Filesystem<MemStore>;

    fn newfs() -> Fs {
        let ledger = CopyLedger::new();
        Fs::mkfs(MemStore::new(16_384), FsParams::default(), &ledger).expect("mkfs")
    }

    #[test]
    fn mkfs_and_mount_round_trip() {
        let ledger = CopyLedger::new();
        let mut fs =
            Fs::mkfs(MemStore::new(16_384), FsParams::default(), &ledger).expect("mkfs");
        let ino = fs.create(Fs::ROOT, "f").expect("create");
        fs.write(ino, 0, b"persisted").expect("write");
        fs.sync().expect("sync");
        let store = fs.store().clone();
        let mut fs2 = Fs::mount(store, 256, 8, &ledger).expect("mount");
        let found = fs2.lookup(Fs::ROOT, "f").expect("lookup");
        assert_eq!(found, ino);
        let mut buf = [0u8; 9];
        fs2.read(found, 0, &mut buf).expect("read");
        assert_eq!(&buf, b"persisted");
    }

    #[test]
    fn mount_rejects_garbage() {
        let ledger = CopyLedger::new();
        assert_eq!(
            Fs::mount(MemStore::new(64), 16, 1, &ledger).unwrap_err(),
            FsError::Corrupt("superblock magic")
        );
    }

    #[test]
    fn create_lookup_getattr() {
        let mut fs = newfs();
        let a = fs.create(Fs::ROOT, "a.txt").expect("create");
        let b = fs.create(Fs::ROOT, "b.txt").expect("create");
        assert_ne!(a, b);
        assert_eq!(fs.lookup(Fs::ROOT, "a.txt").expect("lookup"), a);
        assert_eq!(fs.lookup(Fs::ROOT, "missing"), Err(FsError::NotFound));
        assert_eq!(fs.create(Fs::ROOT, "a.txt"), Err(FsError::Exists));
        let attrs = fs.getattr(a).expect("getattr");
        assert_eq!(attrs.ftype, FileType::Regular);
        assert_eq!(attrs.size, 0);
        let root = fs.getattr(Fs::ROOT).expect("root attrs");
        assert_eq!(root.ftype, FileType::Directory);
    }

    #[test]
    fn namespace_errors() {
        let mut fs = newfs();
        let f = fs.create(Fs::ROOT, "f").expect("create");
        assert_eq!(fs.create(f, "x"), Err(FsError::NotADirectory));
        assert_eq!(fs.lookup(f, "x"), Err(FsError::NotADirectory));
        assert_eq!(fs.create(Fs::ROOT, "bad/name"), Err(FsError::InvalidName));
        assert_eq!(fs.getattr(Ino(9999)), Err(FsError::NotFound));
        assert_eq!(fs.getattr(Ino(500)), Err(FsError::NotFound), "free inode");
    }

    #[test]
    fn readdir_lists_entries() {
        let mut fs = newfs();
        for i in 0..5 {
            fs.create(Fs::ROOT, &format!("file{i}")).expect("create");
        }
        let names: Vec<String> = fs
            .readdir(Fs::ROOT)
            .expect("readdir")
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names.len(), 5);
        assert!(names.contains(&"file3".to_string()));
    }

    #[test]
    fn directory_grows_past_one_block() {
        let mut fs = newfs();
        let n = dir::ENTRIES_PER_BLOCK + 10;
        for i in 0..n {
            fs.create(Fs::ROOT, &format!("f{i}")).expect("create");
        }
        assert_eq!(fs.readdir(Fs::ROOT).expect("readdir").len(), n);
        // And all entries remain findable.
        assert!(fs.lookup(Fs::ROOT, &format!("f{}", n - 1)).is_ok());
        assert!(fs.lookup(Fs::ROOT, "f0").is_ok());
    }

    #[test]
    fn write_read_small() {
        let mut fs = newfs();
        let f = fs.create(Fs::ROOT, "f").expect("create");
        fs.write(f, 0, b"hello").expect("write");
        let mut buf = [0u8; 16];
        let n = fs.read(f, 0, &mut buf).expect("read");
        assert_eq!(n, 5);
        assert_eq!(&buf[..5], b"hello");
        assert_eq!(fs.getattr(f).expect("attrs").size, 5);
    }

    #[test]
    fn write_read_crosses_indirect_boundaries() {
        let mut fs = newfs();
        let f = fs.create(Fs::ROOT, "big").expect("create");
        // Write a pattern spanning direct (16) into single-indirect range.
        let blocks = 40u64;
        for i in 0..blocks {
            let data = vec![i as u8; BLOCK_SIZE];
            fs.write(f, i * BLOCK_SIZE as u64, &data).expect("write");
        }
        for i in (0..blocks).rev() {
            let mut buf = vec![0u8; BLOCK_SIZE];
            fs.read(f, i * BLOCK_SIZE as u64, &mut buf).expect("read");
            assert_eq!(buf, vec![i as u8; BLOCK_SIZE], "block {i}");
        }
    }

    #[test]
    fn write_read_reaches_double_indirect() {
        let mut fs = newfs();
        let f = fs.create(Fs::ROOT, "huge").expect("create");
        // Block index 16 + 512 = 528 lives in the double-indirect range.
        let idx = 530u64;
        let data = vec![0xCD; BLOCK_SIZE];
        fs.write(f, idx * BLOCK_SIZE as u64, &data).expect("write");
        let mut buf = vec![0u8; BLOCK_SIZE];
        fs.read(f, idx * BLOCK_SIZE as u64, &mut buf).expect("read");
        assert_eq!(buf, data);
        // The hole before it reads as zeros.
        let mut hole = vec![0xFF; 100];
        fs.read(f, 0, &mut hole).expect("read hole");
        assert_eq!(hole, vec![0u8; 100]);
    }

    #[test]
    fn partial_block_overwrite_preserves_rest() {
        let mut fs = newfs();
        let f = fs.create(Fs::ROOT, "f").expect("create");
        fs.write(f, 0, &vec![0xAA; BLOCK_SIZE]).expect("write");
        fs.write(f, 100, b"XYZ").expect("overwrite");
        let mut buf = vec![0u8; BLOCK_SIZE];
        fs.read(f, 0, &mut buf).expect("read");
        assert_eq!(buf[99], 0xAA);
        assert_eq!(&buf[100..103], b"XYZ");
        assert_eq!(buf[103], 0xAA);
        assert_eq!(fs.getattr(f).expect("attrs").size, BLOCK_SIZE as u64);
    }

    #[test]
    fn read_past_eof() {
        let mut fs = newfs();
        let f = fs.create(Fs::ROOT, "f").expect("create");
        fs.write(f, 0, b"abc").expect("write");
        let mut buf = [0u8; 4];
        assert_eq!(fs.read(f, 10, &mut buf).expect("read"), 0);
        assert_eq!(fs.read(f, 2, &mut buf).expect("read"), 1);
    }

    #[test]
    fn read_write_on_directory_fails() {
        let mut fs = newfs();
        let mut buf = [0u8; 4];
        assert_eq!(fs.read(Fs::ROOT, 0, &mut buf), Err(FsError::NotAFile));
        assert_eq!(fs.write(Fs::ROOT, 0, b"x"), Err(FsError::NotAFile));
    }

    #[test]
    fn physical_read_write_charge_the_ledger() {
        let mut fs = newfs();
        let f = fs.create(Fs::ROOT, "f").expect("create");
        let before = fs.ledger().snapshot();
        fs.write(f, 0, &vec![1u8; BLOCK_SIZE]).expect("write");
        let after_write = fs.ledger().snapshot().delta_since(&before);
        assert_eq!(after_write.payload_copies, 1);
        assert_eq!(after_write.payload_bytes_copied, BLOCK_SIZE as u64);

        let before = fs.ledger().snapshot();
        let mut buf = vec![0u8; BLOCK_SIZE];
        fs.read(f, 0, &mut buf).expect("read");
        let after_read = fs.ledger().snapshot().delta_since(&before);
        assert_eq!(after_read.payload_copies, 1);
    }

    #[test]
    fn sendfile_is_one_copy() {
        let mut fs = newfs();
        let f = fs.create(Fs::ROOT, "f").expect("create");
        fs.write(f, 0, &vec![7u8; 2 * BLOCK_SIZE]).expect("write");
        let ledger = fs.ledger().clone();
        let before = ledger.snapshot();
        let mut pkt = NetBuf::new(&ledger);
        let n = fs
            .sendfile_into(f, 0, 2 * BLOCK_SIZE, &mut pkt)
            .expect("sendfile");
        assert_eq!(n, 2 * BLOCK_SIZE);
        let d = ledger.snapshot().delta_since(&before);
        assert_eq!(d.payload_copies, 2, "one copy per block, single pass");
        assert_eq!(pkt.payload_len(), 2 * BLOCK_SIZE);
        assert_eq!(pkt.copy_payload_to_vec(), vec![7u8; 2 * BLOCK_SIZE]);
    }

    #[test]
    fn logical_read_shares_cache_storage_and_copies_nothing() {
        let mut fs = newfs();
        let f = fs.create(Fs::ROOT, "f").expect("create");
        fs.write(f, 0, &vec![9u8; 2 * BLOCK_SIZE]).expect("write");
        let before = fs.ledger().snapshot();
        let blocks = fs.read_logical(f, 0, 2 * BLOCK_SIZE).expect("logical");
        let d = fs.ledger().snapshot().delta_since(&before);
        assert_eq!(d.payload_copies, 0, "logical read moves no payload");
        assert_eq!(d.logical_copies, 2);
        assert_eq!(blocks.len(), 2);
        assert!(blocks[0].lbn.is_some());
        assert_eq!(blocks[0].valid_len, BLOCK_SIZE);
        assert_eq!(blocks[0].seg.as_slice(), &vec![9u8; BLOCK_SIZE][..]);
    }

    #[test]
    fn resident_walk_is_free_and_bails_on_cold_or_holey_walks() {
        let mut fs = newfs();
        let f = fs.create(Fs::ROOT, "f").expect("create");
        // Write past the single-indirect boundary so the probe exercises
        // indirect-block residency too.
        let size = 40 * BLOCK_SIZE;
        fs.write(f, 0, &vec![7u8; size]).expect("write");
        let before = (fs.ledger().snapshot(), fs.cache_stats());
        let _ = take_tally().fs;
        let walked = |fs: &Fs, offset: u64, len: usize| fs.walk_resident(f, offset, len).is_some();
        assert!(walked(&fs, 0, WALK_BLOCKS * BLOCK_SIZE), "warm file probes ready");
        assert!(walked(&fs, 8 * BLOCK_SIZE as u64, size), "to EOF, across the boundary");
        assert!(walked(&fs, 4096, 8192));
        assert!(!walked(&fs, 0, size), "longer than the walk's scratch");
        assert!(!walked(&fs, size as u64, 4096), "past EOF");
        assert!(fs.walk_resident(Ino(999_999), 0, 1).is_none(), "bad inode");
        // The walk hands out every covered data block in place, with the
        // span of the range inside it.
        let walk = fs.walk_resident(f, 10 * BLOCK_SIZE as u64 + 100, 3 * BLOCK_SIZE).expect("warm");
        let spans: Vec<(u64, usize, usize)> =
            walk.blocks().map(|b| (b.file_index, b.in_off, b.len)).collect();
        assert_eq!(
            spans,
            [(10, 100, BLOCK_SIZE - 100), (11, 0, BLOCK_SIZE), (12, 0, BLOCK_SIZE), (13, 0, 100)]
        );
        assert!(walk.blocks().all(|b| b.seg.as_slice() == [7u8; BLOCK_SIZE]));
        assert_eq!(fs.ledger().snapshot(), before.0, "probe charges nothing");
        assert_eq!(fs.cache_stats(), before.1, "probe counts nothing");
        assert_eq!(take_tally().fs, 0, "probe leaves no op tally");
        // Dropping one covered block from the cache fails the probe.
        let lbn = fs.block_lbn(f, 2).expect("mapped").expect("allocated");
        fs.discard_cached(lbn);
        assert!(!walked(&fs, 0, 8 * BLOCK_SIZE), "cold block bails");
        assert!(walked(&fs, 0, 2 * BLOCK_SIZE), "range before it still probes");
        // So does a hole.
        let h = fs.create(Fs::ROOT, "holey").expect("create");
        fs.write(h, 2 * BLOCK_SIZE as u64, &[1u8; BLOCK_SIZE]).expect("write");
        assert!(fs.walk_resident(h, 0, 3 * BLOCK_SIZE).is_none(), "hole bails");
        assert!(fs.walk_resident(h, 2 * BLOCK_SIZE as u64, BLOCK_SIZE).is_some());
    }

    #[test]
    fn resident_walk_mirrors_the_per_block_read_exactly() {
        // Two identical warm file systems: one serves through the
        // per-block path, the other through the resident walk (once via
        // `read_logical`, once committed by hand as the servers do). Every
        // observable — returned blocks, ledger charges, cache stats, op
        // tally, recency order — must coincide.
        let build = || {
            let mut fs = newfs();
            let f = fs.create(Fs::ROOT, "f").expect("create");
            fs.write(f, 0, &vec![3u8; 20 * BLOCK_SIZE]).expect("write");
            (fs, f)
        };
        let (offset, len) = (2 * BLOCK_SIZE as u64, 16 * BLOCK_SIZE + 10);
        let (mut a, fa) = build();
        let (mut b, fb) = build();
        let (c, fc) = build();
        let snaps = [a.ledger().snapshot(), b.ledger().snapshot(), c.ledger().snapshot()];
        let _ = take_tally().fs;
        let blocks_a = a.read_logical_per_block(fa, offset, len).expect("read");
        let attr_a = a.getattr(fa).expect("getattr");
        let tally_a = take_tally().fs;
        let blocks_b = b.read_logical(fb, offset, len).expect("read");
        let attr_b = b.getattr(fb).expect("getattr");
        let tally_b = take_tally().fs;
        let walk = c.walk_resident(fc, offset, len).expect("warm");
        let mut blocks_c = Vec::new();
        walk.commit(|blk| {
            c.ledger().charge_logical_copy();
            blocks_c.push((blk.file_index, blk.lbn, blk.seg.clone(), blk.len));
        });
        let attr_c = walk.getattr().clone();
        let tally_c = take_tally().fs;
        assert_eq!(blocks_a.len(), 17);
        assert_eq!(blocks_a, blocks_b);
        for (x, y) in blocks_a.iter().zip(&blocks_c) {
            assert_eq!((x.file_index, x.lbn, &x.seg, x.valid_len), (y.0, Some(y.1), &y.2, y.3));
        }
        assert_eq!((&attr_a, &attr_a), (&attr_b, &attr_c));
        assert_eq!((tally_a, tally_a), (tally_b, tally_c), "same counted access count");
        let deltas = [&a, &b, &c].map(|fs| fs.cache_stats());
        assert_eq!((deltas[0], deltas[0]), (deltas[1], deltas[2]), "same hit/miss counters");
        let charged: Vec<_> = [&a, &b, &c]
            .iter()
            .zip(&snaps)
            .map(|(fs, snap)| fs.ledger().snapshot().delta_since(snap))
            .collect();
        assert_eq!((charged[0], charged[0]), (charged[1], charged[2]), "same ledger charges");
        // Same stamps: shrinking the caches evicts the same blocks.
        for cap in (0..a.cache_len()).rev() {
            a.set_cache_capacity(cap);
            b.set_cache_capacity(cap);
            let resident = |fs: &Fs| -> Vec<bool> {
                (0..fs.sb.total_blocks).map(|l| fs.cache.contains(l)).collect()
            };
            assert_eq!(resident(&a), resident(&b), "victim at capacity {cap}");
        }
    }

    #[test]
    fn logical_read_alignment_enforced() {
        let mut fs = newfs();
        let f = fs.create(Fs::ROOT, "f").expect("create");
        fs.write(f, 0, b"x").expect("write");
        assert_eq!(fs.read_logical(f, 1, 4), Err(FsError::InvalidRange));
    }

    #[test]
    fn logical_read_partial_tail() {
        let mut fs = newfs();
        let f = fs.create(Fs::ROOT, "f").expect("create");
        fs.write(f, 0, &vec![3u8; BLOCK_SIZE + 100]).expect("write");
        let blocks = fs.read_logical(f, 0, 2 * BLOCK_SIZE).expect("logical");
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].valid_len, BLOCK_SIZE);
        assert_eq!(blocks[1].valid_len, 100, "clipped at end of file");
    }

    #[test]
    fn write_logical_plants_stamps() {
        let mut fs = newfs();
        let f = fs.create(Fs::ROOT, "f").expect("create");
        let stamp = KeyStamp::new().with_fho(Fho::new(FileHandle(0xAB), 0));
        let before = fs.ledger().snapshot();
        fs.write_logical(f, 0, BLOCK_SIZE, &[stamp]).expect("write");
        let d = fs.ledger().snapshot().delta_since(&before);
        assert_eq!(d.payload_copies, 0, "logical write moves no payload");
        assert_eq!(fs.getattr(f).expect("attrs").size, BLOCK_SIZE as u64);
        // The block now carries the stamp, augmented with the block's LBN
        // identity so replies resolve even after remapping (§3.4).
        let blocks = fs.read_logical(f, 0, BLOCK_SIZE).expect("logical");
        let planted = blocks[0].seg.stamp().expect("stamped");
        assert_eq!(planted.fho, stamp.fho);
        // A key, not a page: the stamp is all the block stores.
        assert_eq!(blocks[0].seg.len(), BLOCK_SIZE);
        assert_eq!(blocks[0].seg.stored_len(), KeyStamp::LEN);
        assert_eq!(planted.lbn.map(|l| Some(l.0)), Some(blocks[0].lbn));
    }

    #[test]
    fn write_logical_validation() {
        let mut fs = newfs();
        let f = fs.create(Fs::ROOT, "f").expect("create");
        let stamp = KeyStamp::new().with_lbn(Lbn(1));
        assert_eq!(
            fs.write_logical(f, 1, BLOCK_SIZE, &[stamp]),
            Err(FsError::InvalidRange),
            "unaligned offset"
        );
        assert_eq!(
            fs.write_logical(f, 0, 2 * BLOCK_SIZE, &[stamp]),
            Err(FsError::InvalidRange),
            "stamp count mismatch"
        );
    }

    #[test]
    fn block_lbn_translates() {
        let mut fs = newfs();
        let f = fs.create(Fs::ROOT, "f").expect("create");
        assert_eq!(fs.block_lbn(f, 0).expect("map"), None, "hole");
        fs.write(f, 0, &vec![1u8; BLOCK_SIZE]).expect("write");
        let lbn = fs.block_lbn(f, 0).expect("map").expect("mapped");
        assert!(lbn >= fs.sb.data_start);
    }

    #[test]
    fn sequential_allocation_is_contiguous() {
        let mut fs = newfs();
        let f = fs.create(Fs::ROOT, "f").expect("create");
        fs.write(f, 0, &vec![0u8; 8 * BLOCK_SIZE]).expect("write");
        let lbns: Vec<u64> = (0..8)
            .map(|i| fs.block_lbn(f, i).expect("map").expect("mapped"))
            .collect();
        for w in lbns.windows(2) {
            assert_eq!(w[1], w[0] + 1, "sequential files allocate contiguously");
        }
    }

    #[test]
    fn remove_frees_space_and_name() {
        let mut fs = newfs();
        let f = fs.create(Fs::ROOT, "f").expect("create");
        fs.write(f, 0, &vec![1u8; 20 * BLOCK_SIZE]).expect("write");
        let free_before = fs.free_blocks();
        fs.remove(Fs::ROOT, "f").expect("remove");
        assert!(fs.free_blocks() > free_before, "blocks returned");
        assert_eq!(fs.lookup(Fs::ROOT, "f"), Err(FsError::NotFound));
        assert_eq!(fs.getattr(f), Err(FsError::NotFound), "inode freed");
        // The name and inode are reusable.
        let f2 = fs.create(Fs::ROOT, "f").expect("recreate");
        assert_eq!(f2, f, "inode slot reused");
    }

    #[test]
    fn the_empty_name_is_not_found_among_free_slots() {
        let mut fs = newfs();
        assert_eq!(fs.lookup(Fs::ROOT, ""), Err(FsError::NotFound), "empty directory");
        fs.create(Fs::ROOT, "a").expect("create");
        fs.create(Fs::ROOT, "b").expect("create");
        fs.remove(Fs::ROOT, "a").expect("remove");
        // A cleared slot ahead of a live one, and free slots after it.
        assert_eq!(fs.lookup(Fs::ROOT, ""), Err(FsError::NotFound));
        assert_eq!(fs.remove(Fs::ROOT, ""), Err(FsError::NotFound));
    }

    #[test]
    fn create_after_remove_reuses_the_cleared_slot() {
        let mut fs = newfs();
        for name in ["a", "b", "c"] {
            fs.create(Fs::ROOT, name).expect("create");
        }
        fs.remove(Fs::ROOT, "b").expect("remove");
        fs.create(Fs::ROOT, "bb").expect("create");
        let names: Vec<String> =
            fs.readdir(Fs::ROOT).expect("readdir").into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["a", "bb", "c"], "the new entry sits where the old one was");
        assert_eq!(fs.lookup(Fs::ROOT, "b"), Err(FsError::NotFound), "a prefix of bb");
    }

    #[test]
    fn remove_missing_fails() {
        let mut fs = newfs();
        assert_eq!(fs.remove(Fs::ROOT, "nope"), Err(FsError::NotFound));
    }

    #[test]
    fn cache_misses_hit_the_store_with_read_ahead() {
        let ledger = CopyLedger::new();
        let params = FsParams {
            cache_blocks: 4,
            read_ahead_blocks: 4,
            ..FsParams::default()
        };
        let mut fs = Fs::mkfs(MemStore::new(16_384), params, &ledger).expect("mkfs");
        let f = fs.create(Fs::ROOT, "f").expect("create");
        fs.write(f, 0, &vec![5u8; 16 * BLOCK_SIZE]).expect("write");
        fs.sync().expect("sync");
        // Evict everything by filling the tiny cache with other reads.
        fs.set_cache_capacity(0);
        fs.set_cache_capacity(8);
        let h0 = fs.cache_stats();
        let mut buf = vec![0u8; BLOCK_SIZE];
        fs.read(f, 0, &mut buf).expect("read");
        let h1 = fs.cache_stats();
        assert_eq!(buf, vec![5u8; BLOCK_SIZE]);
        assert!(h1.misses > h0.misses, "cold read misses");
        // Read-ahead brought the next block in: this read hits.
        fs.read(f, BLOCK_SIZE as u64, &mut buf).expect("read");
        let h2 = fs.cache_stats();
        assert_eq!(h2.misses, h1.misses, "read-ahead made this a hit");
    }

    #[test]
    fn no_space_is_reported() {
        let ledger = CopyLedger::new();
        let params = FsParams {
            total_blocks: 80,
            inode_count: 16,
            cache_blocks: 16,
            read_ahead_blocks: 1,
        };
        let mut fs = Fs::mkfs(MemStore::new(80), params, &ledger).expect("mkfs");
        let f = fs.create(Fs::ROOT, "f").expect("create");
        let big = vec![0u8; 200 * BLOCK_SIZE];
        assert_eq!(fs.write(f, 0, &big), Err(FsError::NoSpace));
    }

    #[test]
    fn dirty_data_survives_cache_pressure() {
        let ledger = CopyLedger::new();
        let params = FsParams {
            cache_blocks: 8,
            ..FsParams::default()
        };
        let mut fs = Fs::mkfs(MemStore::new(16_384), params, &ledger).expect("mkfs");
        let f = fs.create(Fs::ROOT, "f").expect("create");
        // Write far more than the cache holds, forcing dirty evictions.
        for i in 0..64u64 {
            fs.write(f, i * BLOCK_SIZE as u64, &vec![i as u8; BLOCK_SIZE])
                .expect("write");
        }
        for i in (0..64u64).rev() {
            let mut buf = vec![0u8; BLOCK_SIZE];
            fs.read(f, i * BLOCK_SIZE as u64, &mut buf).expect("read");
            assert_eq!(buf, vec![i as u8; BLOCK_SIZE], "block {i}");
        }
    }
}
