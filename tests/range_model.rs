//! The whole pass-through server against a `path -> bytes` model, per file
//! range rather than per packet.
//!
//! A generated op list — aligned and unaligned WRITEs, READs anywhere in
//! and past a file, CREATE and REMOVE over the wire, a forced `sync`, and a
//! forced buffer-cache eviction (capacity 0, then back) — runs through one
//! rig of each build, at 1 and 8 shards, with a network-centric cache of 2
//! chunks, 7 chunks (both smaller than some requests) or ample room, and
//! under the control plane's insertion bypass (every NCache WRITE —
//! aligned, unaligned or ending mid-block — takes the copying path, and
//! leaves no FHO chunk of its blocks behind). Every READ must return
//! exactly the newest acknowledged bytes of the model's file — so no key
//! stamp, no zero tail of a placeholder and no chunk of a block's old
//! bytes ever reaches a client — and after every op the shard set's and
//! the buffer cache's invariants must hold; after a `sync`, the shard set
//! must hold no dirty chunk (every dirty chunk is one a flush reaches).
//! (The Baseline build
//! ships junk by design: there READs are held to the model's lengths.)

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use check::gen::*;
use check::{prop_assert, prop_assert_eq, property, PropResult};

use ncache_repro::netbuf::key::{Fho, FileHandle};
use ncache_repro::proto::nfs::NFS_OK;
use ncache_repro::servers::{ControlConfig, ServerMode};
use ncache_repro::testbed::nfs_rig::{NfsRig, NfsRigParams};

const BLOCK: u32 = 4096;
/// Files the ops name; file 0 exists from the start.
const FILES: u8 = 3;

#[derive(Clone, Debug)]
enum Op {
    /// `len` bytes at `block * 4096 + skew`.
    Write {
        file: u8,
        block: u32,
        skew: u32,
        len: u32,
    },
    Read {
        file: u8,
        offset: u32,
        len: u32,
    },
    Create {
        file: u8,
    },
    Remove {
        file: u8,
    },
    Sync,
    Evict,
}

fn op() -> impl Gen<Value = Op> {
    let file = || ints(0u8..FILES);
    check::one_of![
        // Aligned: whole blocks or a short tail.
        (file(), ints(0u32..12), ints(1u32..4), any_bool()).map(|(file, block, n, tail)| {
            Op::Write {
                file,
                block,
                skew: 0,
                len: n * BLOCK - if tail { 1000 } else { 0 },
            }
        }),
        (
            file(),
            ints(0u32..12),
            ints(1u32..BLOCK),
            ints(1u32..3 * BLOCK)
        )
            .map(|(file, block, skew, len)| Op::Write {
                file,
                block,
                skew,
                len
            }),
        (file(), ints(0u32..15 * BLOCK), ints(1u32..3 * BLOCK))
            .map(|(file, offset, len)| { Op::Read { file, offset, len } }),
        (file(), ints(0u32..4)).map(|(file, block)| Op::Read {
            file,
            offset: block * BLOCK,
            len: 8 * BLOCK,
        }),
        file().map(|file| Op::Create { file }),
        file().map(|file| Op::Remove { file }),
        just(Op::Sync),
        just(Op::Evict),
    ]
}

/// Bytes a write tagged `tag` carries: distinct per op and per offset, and
/// never a run of zeros or a key stamp's magic.
fn payload(tag: usize, len: u32) -> Vec<u8> {
    (0..len as usize)
        .map(|i| 1 + ((tag * 131 + i) % 251) as u8)
        .collect()
}

fn name(file: u8) -> String {
    format!("m{file}")
}

/// One rig and the model it is held to.
struct World {
    rig: NfsRig,
    mode: ServerMode,
    /// The control plane bypasses every NCache insertion.
    bypass: bool,
    fhs: HashMap<u8, u64>,
    files: HashMap<u8, Vec<u8>>,
}

impl World {
    fn new(mode: ServerMode, shards: usize, ncache_chunks: u64, bypass: bool) -> World {
        let params = NfsRigParams {
            volume_blocks: 4096,
            fs_cache_blocks: 16,
            ncache_bytes: ncache_chunks * (u64::from(BLOCK) + 128),
            read_ahead_blocks: 2,
            inode_count: 64,
            shards,
        };
        let mut rig = NfsRig::new(mode, params);
        if bypass {
            rig.enable_control(ControlConfig {
                ncache_hi_permille: 0,
                ..ControlConfig::unlimited()
            });
        }
        let size = 5 * BLOCK + 700;
        let fh = rig.create_file(&name(0), u64::from(size));
        let bytes = NfsRig::pattern(fh, 0, size as usize);
        World {
            rig,
            mode,
            bypass,
            fhs: HashMap::from([(0, fh)]),
            files: HashMap::from([(0, bytes)]),
        }
    }

    fn apply(&mut self, tag: usize, op: &Op) -> PropResult {
        let mode = self.mode;
        match *op {
            Op::Write {
                file,
                block,
                skew,
                len,
            } => {
                let Some(&fh) = self.fhs.get(&file) else {
                    return Ok(());
                };
                let offset = block * BLOCK + skew;
                let data = payload(tag, len);
                let reply = self.rig.write(fh, offset, &data);
                prop_assert_eq!(reply.status, NFS_OK, "{} write {:?}", mode, op);
                let model = self.files.get_mut(&file).expect("open file");
                let end = (offset + len) as usize;
                if model.len() < end {
                    model.resize(end, 0);
                }
                model[offset as usize..end].copy_from_slice(&data);
                prop_assert_eq!(
                    u64::from(reply.attrs.size),
                    model.len() as u64,
                    "{} size",
                    mode
                );
                if let (true, Some(module)) = (self.bypass, self.rig.module()) {
                    let first = u64::from(offset / BLOCK);
                    for blk in first..u64::from(offset + len).div_ceil(u64::from(BLOCK)) {
                        let fho = Fho::new(FileHandle(fh), blk * u64::from(BLOCK));
                        prop_assert!(
                            !module.borrow().cache_handle().contains(fho.into()),
                            "{} write {:?} under the bypass left block {}'s FHO chunk",
                            mode,
                            op,
                            blk
                        );
                    }
                }
            }
            Op::Read { file, offset, len } => {
                let Some(&fh) = self.fhs.get(&file) else {
                    return Ok(());
                };
                let (hdr, got) = self.rig.read_with_header(fh, offset, len);
                prop_assert_eq!(hdr.status, NFS_OK, "{} read {:?}", mode, op);
                let model = &self.files[&file];
                let from = (offset as usize).min(model.len());
                let to = (offset as usize + len as usize).min(model.len());
                let want = &model[from..to];
                if mode == ServerMode::Baseline {
                    prop_assert_eq!(got.len(), want.len(), "{} read {:?}", mode, op);
                } else {
                    prop_assert!(
                        got == want,
                        "{} read {:?}: {} bytes differ from the newest acknowledged ones (first at {:?})",
                        mode,
                        op,
                        got.len(),
                        got.iter().zip(want).position(|(a, b)| a != b)
                    );
                }
            }
            Op::Create { file } => {
                let root = self.rig.server_mut().root_fh();
                let req = self.rig.client_mut().create_request(root, &name(file));
                let reply = self.rig.handle_raw(req);
                let created = self.rig.client_mut().parse_create_reply(&reply);
                match self.fhs.entry(file) {
                    Entry::Occupied(_) => {
                        prop_assert_eq!(created.status, 17, "{} create of an existing name", mode);
                    }
                    Entry::Vacant(slot) => {
                        prop_assert_eq!(created.status, NFS_OK, "{} create", mode);
                        slot.insert(created.fh);
                        self.files.insert(file, Vec::new());
                    }
                }
            }
            Op::Remove { file } => {
                let root = self.rig.server_mut().root_fh();
                let req = self.rig.client_mut().remove_request(root, &name(file));
                let reply = self.rig.handle_raw(req);
                let removed = self.rig.client_mut().parse_remove_reply(&reply);
                let existed = self.fhs.remove(&file).is_some();
                self.files.remove(&file);
                prop_assert_eq!(removed.status == NFS_OK, existed, "{} remove", mode);
            }
            Op::Sync => {
                self.rig.server_mut().fs_mut().sync().expect("sync");
                if let Some(module) = self.rig.module() {
                    let shards = module.borrow().cache_handle();
                    let dirty = shards.len() - shards.clean_keys().len();
                    prop_assert_eq!(dirty, 0, "{} dirty chunks after sync", mode);
                }
            }
            Op::Evict => {
                let fs = self.rig.server_mut().fs_mut();
                let blocks = fs.cache_capacity();
                fs.set_cache_capacity(0);
                fs.set_cache_capacity(blocks);
            }
        }
        self.check_invariants()
    }

    fn check_invariants(&mut self) -> PropResult {
        if let Some(module) = self.rig.module() {
            let shards = module.borrow().cache_handle();
            prop_assert_eq!(shards.check_invariants(), Ok(()), "{} shard set", self.mode);
        }
        prop_assert_eq!(
            self.rig.server_mut().fs_mut().check_cache_invariants(),
            Ok(()),
            "{} buffer cache",
            self.mode
        );
        Ok(())
    }
}

property! {
    #![cases(24)]

    fn prop_every_read_returns_the_newest_acknowledged_bytes(
        ops in vec_of(op(), 1..40),
    ) {
        for mode in [ServerMode::NCache, ServerMode::Original, ServerMode::Baseline] {
            let configs: &[(usize, u64, bool)] = if mode == ServerMode::NCache {
                &[
                    (1, 2, false),
                    (8, 2, false),
                    (1, 7, false),
                    (8, 7, false),
                    (1, 4096, false),
                    (8, 4096, false),
                    (8, 7, true),
                    (1, 4096, true),
                ]
            } else {
                &[(1, 4096, false)]
            };
            for &(shards, chunks, bypass) in configs {
                let mut world = World::new(mode, shards, chunks, bypass);
                for (tag, op) in ops.iter().enumerate() {
                    world.apply(tag, op).map_err(|e| {
                        check::Failed::new(format!(
                            "shards {shards}, {chunks} chunks, bypass {bypass}: {}",
                            e.message
                        ))
                    })?;
                }
            }
        }
    }
}
