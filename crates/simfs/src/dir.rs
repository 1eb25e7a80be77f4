//! Directory blocks: fixed-size entries, single-level directories.
//!
//! Directory contents are metadata: their blocks travel the physical-copy
//! path in every server configuration (§3.3).

use crate::error::FsError;
use crate::inode::Ino;
use crate::BLOCK_SIZE;

/// Maximum file name length.
pub const NAME_MAX: usize = 27;
/// Encoded entry size: 1 length byte + name + 4-byte inode.
pub const ENTRY_SIZE: usize = 32;
/// Entries per directory block.
pub const ENTRIES_PER_BLOCK: usize = BLOCK_SIZE / ENTRY_SIZE;

/// One directory entry.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct DirEntry {
    /// Entry name.
    pub name: String,
    /// Target inode.
    pub ino: Ino,
}

/// Validates a name for use in a directory.
///
/// # Errors
///
/// [`FsError::InvalidName`] when empty, too long, or containing `/` or NUL.
pub fn validate_name(name: &str) -> Result<(), FsError> {
    if name.is_empty() || name.len() > NAME_MAX {
        return Err(FsError::InvalidName);
    }
    if name.bytes().any(|b| b == b'/' || b == 0) {
        return Err(FsError::InvalidName);
    }
    Ok(())
}

/// Parses every live entry in a directory block.
pub fn entries_in_block(block: &[u8]) -> Vec<DirEntry> {
    let mut out = Vec::new();
    for slot in block.chunks_exact(ENTRY_SIZE) {
        if let Some(e) = decode_entry(slot) {
            out.push(e);
        }
    }
    out
}

/// The name bytes of a live slot; `None` if the slot is free (length 0,
/// or a length no [`encode_entry`] writes).
fn slot_name(slot: &[u8]) -> Option<&[u8]> {
    let len = slot[0] as usize;
    (1..=NAME_MAX).contains(&len).then(|| &slot[1..1 + len])
}

fn slot_ino(slot: &[u8]) -> Ino {
    Ino(u32::from_le_bytes(slot[NAME_MAX + 1..NAME_MAX + 5].try_into().expect("4 bytes")))
}

/// Decodes the entry in one 32-byte slot; `None` if the slot is free (a
/// name that is not UTF-8 counts as free too).
pub fn decode_entry(slot: &[u8]) -> Option<DirEntry> {
    let name = std::str::from_utf8(slot_name(slot)?).ok()?.to_string();
    Some(DirEntry {
        name,
        ino: slot_ino(slot),
    })
}

/// Writes the entry `name` → `ino` into slot `slot_idx` of `block`.
///
/// # Panics
///
/// Panics if the slot index is out of range or the name is invalid
/// (callers must [`validate_name`] first).
pub fn encode_entry(block: &mut [u8], slot_idx: usize, name: &str, ino: Ino) {
    assert!(slot_idx < ENTRIES_PER_BLOCK, "slot out of range");
    validate_name(name).expect("caller must validate the name");
    let at = slot_idx * ENTRY_SIZE;
    let slot = &mut block[at..at + ENTRY_SIZE];
    slot.fill(0);
    slot[0] = name.len() as u8;
    slot[1..1 + name.len()].copy_from_slice(name.as_bytes());
    slot[NAME_MAX + 1..NAME_MAX + 5].copy_from_slice(&ino.0.to_le_bytes());
}

/// Clears slot `slot_idx` of `block`.
///
/// # Panics
///
/// Panics if the slot index is out of range.
pub fn clear_entry(block: &mut [u8], slot_idx: usize) {
    assert!(slot_idx < ENTRIES_PER_BLOCK, "slot out of range");
    let at = slot_idx * ENTRY_SIZE;
    block[at..at + ENTRY_SIZE].fill(0);
}

/// Finds `name` in a directory block, returning its slot index and inode.
/// The name is compared where it lies: a lookup builds no entry for the
/// slots it walks past. (A free slot has length 0, which an empty `name`
/// must not match: `slot_name` rejects it first.)
pub fn find_in_block(block: &[u8], name: &str) -> Option<(usize, Ino)> {
    block
        .chunks_exact(ENTRY_SIZE)
        .enumerate()
        .find(|(_, slot)| slot_name(slot) == Some(name.as_bytes()))
        .map(|(i, slot)| (i, slot_ino(slot)))
}

/// Finds the first free slot in a directory block — exactly the slots
/// [`decode_entry`] reads as `None`.
pub fn free_slot(block: &[u8]) -> Option<usize> {
    block
        .chunks_exact(ENTRY_SIZE)
        .position(|slot| slot_name(slot).is_none_or(|n| std::str::from_utf8(n).is_err()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use check::gen::*;
    use check::{prop_assert_eq, property};

    fn entry(name: &str, ino: u32) -> DirEntry {
        DirEntry {
            name: name.to_string(),
            ino: Ino(ino),
        }
    }

    #[test]
    fn entry_round_trip() {
        let mut block = vec![0u8; BLOCK_SIZE];
        let e = entry("hello.txt", 42);
        encode_entry(&mut block, 3, &e.name, e.ino);
        assert_eq!(decode_entry(&block[3 * ENTRY_SIZE..4 * ENTRY_SIZE]), Some(e.clone()));
        assert_eq!(entries_in_block(&block), vec![e]);
        assert_eq!(find_in_block(&block, "hello.txt"), Some((3, Ino(42))));
        assert_eq!(find_in_block(&block, "missing"), None);
    }

    #[test]
    fn free_slot_skips_used() {
        let mut block = vec![0u8; BLOCK_SIZE];
        assert_eq!(free_slot(&block), Some(0));
        encode_entry(&mut block, 0, "a", Ino(1));
        assert_eq!(free_slot(&block), Some(1));
    }

    #[test]
    fn clear_entry_frees_slot() {
        let mut block = vec![0u8; BLOCK_SIZE];
        encode_entry(&mut block, 0, "a", Ino(1));
        clear_entry(&mut block, 0);
        assert!(entries_in_block(&block).is_empty());
    }

    #[test]
    fn full_block_has_no_free_slot() {
        let mut block = vec![0u8; BLOCK_SIZE];
        for i in 0..ENTRIES_PER_BLOCK {
            encode_entry(&mut block, i, &format!("f{i}"), Ino(i as u32));
        }
        assert_eq!(free_slot(&block), None);
        assert_eq!(entries_in_block(&block).len(), ENTRIES_PER_BLOCK);
    }

    #[test]
    fn the_empty_name_never_matches_a_free_slot() {
        // A free slot has length 0; so has the name `GET /` asks for.
        let mut block = vec![0u8; BLOCK_SIZE];
        assert_eq!(find_in_block(&block, ""), None);
        encode_entry(&mut block, 1, "a", Ino(1));
        assert_eq!(find_in_block(&block, ""), None);
    }

    #[test]
    fn names_match_whole_not_by_prefix() {
        let mut block = vec![0u8; BLOCK_SIZE];
        encode_entry(&mut block, 0, "page10", Ino(10));
        encode_entry(&mut block, 1, "pa", Ino(2));
        // A strict prefix of a stored name, and a name a stored one prefixes.
        assert_eq!(find_in_block(&block, "page1"), None);
        assert_eq!(find_in_block(&block, "page"), None);
        assert_eq!(find_in_block(&block, "page100"), None);
        assert_eq!(find_in_block(&block, "pa"), Some((1, Ino(2))));
        assert_eq!(find_in_block(&block, "page10"), Some((0, Ino(10))));
        // Bytes left in a slot past its length byte's reach do not count.
        assert_eq!(find_in_block(&block, "pa\0"), None);
    }

    #[test]
    fn slots_no_encoder_wrote_are_free_and_match_nothing() {
        let mut block = vec![0u8; BLOCK_SIZE];
        // A length past NAME_MAX, and a name that is not UTF-8.
        block[0] = NAME_MAX as u8 + 1;
        block[ENTRY_SIZE] = 2;
        block[ENTRY_SIZE + 1..ENTRY_SIZE + 3].copy_from_slice(&[0xff, 0xfe]);
        encode_entry(&mut block, 2, "ok", Ino(7));
        assert_eq!(entries_in_block(&block), vec![entry("ok", 7)]);
        assert_eq!(free_slot(&block), Some(0));
        block[0] = 1;
        block[1] = b'x';
        assert_eq!(free_slot(&block), Some(1), "the invalid-UTF-8 slot is free");
    }

    #[test]
    fn name_validation() {
        assert!(validate_name("ok-name.txt").is_ok());
        assert_eq!(validate_name(""), Err(FsError::InvalidName));
        assert_eq!(validate_name(&"x".repeat(28)), Err(FsError::InvalidName));
        assert!(validate_name(&"x".repeat(27)).is_ok());
        assert_eq!(validate_name("a/b"), Err(FsError::InvalidName));
        assert_eq!(validate_name("a\0b"), Err(FsError::InvalidName));
    }

    #[test]
    #[should_panic(expected = "slot out of range")]
    fn encode_bad_slot_panics() {
        let mut block = vec![0u8; BLOCK_SIZE];
        encode_entry(&mut block, ENTRIES_PER_BLOCK, "a", Ino(0));
    }

    property! {
        fn prop_entry_round_trip(
            name in string_of(FILENAME, 1..28),
            ino in any_u32(),
            slot in ints(0usize..ENTRIES_PER_BLOCK),
        ) {
            let mut block = vec![0u8; BLOCK_SIZE];
            let e = DirEntry { name, ino: Ino(ino) };
            encode_entry(&mut block, slot, &e.name, e.ino);
            prop_assert_eq!(find_in_block(&block, &e.name), Some((slot, e.ino)));
            prop_assert_eq!(entries_in_block(&block), vec![e.clone()]);
            prop_assert_eq!(free_slot(&block), Some(usize::from(slot == 0)));
        }
    }
}
