//! iSCSI PDU subset: SCSI command / Data-In / Data-Out / response.
//!
//! The NFS server's backing store speaks iSCSI; read responses (Data-In
//! PDUs) carry the logical block numbers that key the LBN half of the
//! network-centric cache (paper §3.2: "Packets returned by the iSCSI
//! storage server come with logical block numbers, which can serve as
//! keys"). Note §3.3's caveat: the iSCSI header alone cannot say whether a
//! block is metadata or regular data — that classification comes from the
//! request context (inode type) the initiator attaches, modelled in the
//! `servers` crate.
//!
//! PDUs use a fixed 48-byte basic header segment; bulk data rides as
//! attached payload segments after the header.

use crate::error::{need, DecodeError, Result};

/// Length of the basic header segment.
pub const BHS_LEN: usize = 48;
/// Block size of the virtual disk the target exports (matches the FS
/// block size so one iSCSI block is one cacheable unit).
pub const BLOCK_SIZE: usize = 4096;

const OP_SCSI_COMMAND: u8 = 0x01;
const OP_DATA_OUT: u8 = 0x05;
const OP_RESPONSE: u8 = 0x21;
const OP_DATA_IN: u8 = 0x25;
const OP_R2T: u8 = 0x31;

const FLAG_FINAL: u8 = 0x80;
const FLAG_READ: u8 = 0x40;
const FLAG_WRITE: u8 = 0x20;

/// Direction of a SCSI command.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ScsiOp {
    /// READ: move blocks target → initiator.
    #[default]
    Read,
    /// WRITE: move blocks initiator → target.
    Write,
}

/// A SCSI command PDU (read or write of whole blocks).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ScsiCommand {
    /// Initiator task tag: correlates the command with its data/response.
    pub itt: u32,
    /// Direction.
    pub op: ScsiOp,
    /// First logical block number.
    pub lbn: u64,
    /// Number of blocks to transfer.
    pub blocks: u32,
}

/// A Data-In PDU: one burst of read data from the target.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct DataIn {
    /// Task tag of the command being answered.
    pub itt: u32,
    /// Logical block number of the first byte in this burst.
    pub lbn: u64,
    /// Payload bytes following the header.
    pub data_len: u32,
    /// Whether this is the final burst of the command.
    pub is_final: bool,
}

/// A Data-Out PDU: one burst of write data to the target.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct DataOut {
    /// Task tag of the write command.
    pub itt: u32,
    /// Logical block number of the first byte in this burst.
    pub lbn: u64,
    /// Payload bytes following the header.
    pub data_len: u32,
}

/// A Ready-To-Transfer PDU: the target grants the initiator permission to
/// send a burst of write data (iSCSI's flow-control handshake for writes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ReadyToTransfer {
    /// Task tag of the write command being solicited.
    pub itt: u32,
    /// First logical block the target is ready to receive.
    pub lbn: u64,
    /// Bytes the initiator may now send.
    pub desired_len: u32,
}

impl ReadyToTransfer {
    /// Encodes the 48-byte header.
    pub fn encode(&self) -> [u8; BHS_LEN] {
        bhs(OP_R2T, FLAG_FINAL, 0, self.itt, self.lbn, self.desired_len)
    }
}

/// A SCSI response PDU (command completion).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ScsiResponse {
    /// Task tag of the completed command.
    pub itt: u32,
    /// SCSI status (0 = GOOD).
    pub status: u8,
}

/// Any PDU this subset speaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IscsiPdu {
    /// SCSI command.
    Command(ScsiCommand),
    /// Read data burst.
    DataIn(DataIn),
    /// Write data burst.
    DataOut(DataOut),
    /// Completion.
    Response(ScsiResponse),
    /// Write-data solicitation.
    R2T(ReadyToTransfer),
}

fn bhs(opcode: u8, flags: u8, dsl: u32, itt: u32, lbn: u64, extra: u32) -> [u8; BHS_LEN] {
    let mut b = [0u8; BHS_LEN];
    b[0] = opcode;
    b[1] = flags;
    b[4..8].copy_from_slice(&dsl.to_be_bytes());
    b[16..20].copy_from_slice(&itt.to_be_bytes());
    b[20..28].copy_from_slice(&lbn.to_be_bytes());
    b[28..32].copy_from_slice(&extra.to_be_bytes());
    b
}

fn get_u32(b: &[u8], at: usize) -> u32 {
    u32::from_be_bytes(b[at..at + 4].try_into().expect("4 bytes"))
}

fn get_u64(b: &[u8], at: usize) -> u64 {
    u64::from_be_bytes(b[at..at + 8].try_into().expect("8 bytes"))
}

impl ScsiCommand {
    /// Encodes the 48-byte header.
    pub fn encode(&self) -> [u8; BHS_LEN] {
        let dir = match self.op {
            ScsiOp::Read => FLAG_READ,
            ScsiOp::Write => FLAG_WRITE,
        };
        bhs(
            OP_SCSI_COMMAND,
            FLAG_FINAL | dir,
            0,
            self.itt,
            self.lbn,
            self.blocks,
        )
    }
}

impl DataIn {
    /// Encodes the 48-byte header.
    pub fn encode(&self) -> [u8; BHS_LEN] {
        let f = if self.is_final { FLAG_FINAL } else { 0 };
        bhs(OP_DATA_IN, f, self.data_len, self.itt, self.lbn, 0)
    }
}

impl DataOut {
    /// Encodes the 48-byte header.
    pub fn encode(&self) -> [u8; BHS_LEN] {
        bhs(OP_DATA_OUT, FLAG_FINAL, self.data_len, self.itt, self.lbn, 0)
    }
}

impl ScsiResponse {
    /// Encodes the 48-byte header.
    pub fn encode(&self) -> [u8; BHS_LEN] {
        let mut b = bhs(OP_RESPONSE, FLAG_FINAL, 0, self.itt, 0, 0);
        b[3] = self.status;
        b
    }
}

impl IscsiPdu {

    /// Decodes a PDU header from the head of `buf`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] on short input,
    /// [`DecodeError::Unsupported`] on an opcode outside the subset.
    pub fn decode(buf: &[u8]) -> Result<IscsiPdu> {
        need(buf, BHS_LEN)?;
        let itt = get_u32(buf, 16);
        let lbn = get_u64(buf, 20);
        match buf[0] {
            OP_SCSI_COMMAND => {
                let op = if buf[1] & FLAG_READ != 0 {
                    ScsiOp::Read
                } else if buf[1] & FLAG_WRITE != 0 {
                    ScsiOp::Write
                } else {
                    return Err(DecodeError::BadField("command direction"));
                };
                Ok(IscsiPdu::Command(ScsiCommand {
                    itt,
                    op,
                    lbn,
                    blocks: get_u32(buf, 28),
                }))
            }
            OP_DATA_IN => Ok(IscsiPdu::DataIn(DataIn {
                itt,
                lbn,
                data_len: get_u32(buf, 4),
                is_final: buf[1] & FLAG_FINAL != 0,
            })),
            OP_DATA_OUT => Ok(IscsiPdu::DataOut(DataOut {
                itt,
                lbn,
                data_len: get_u32(buf, 4),
            })),
            OP_RESPONSE => Ok(IscsiPdu::Response(ScsiResponse {
                itt,
                status: buf[3],
            })),
            OP_R2T => Ok(IscsiPdu::R2T(ReadyToTransfer {
                itt,
                lbn,
                desired_len: get_u32(buf, 28),
            })),
            _ => Err(DecodeError::Unsupported("iSCSI opcode")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use check::gen::*;
    use check::{prop_assert_eq, property};

    #[test]
    fn command_round_trip_read_and_write() {
        for op in [ScsiOp::Read, ScsiOp::Write] {
            let c = ScsiCommand {
                itt: 7,
                op,
                lbn: 123_456_789,
                blocks: 8,
            };
            assert_eq!(IscsiPdu::decode(&c.encode()), Ok(IscsiPdu::Command(c)));
        }
    }

    #[test]
    fn data_in_round_trip_final_and_not() {
        for is_final in [true, false] {
            let d = DataIn {
                itt: 9,
                lbn: 42,
                data_len: 4096,
                is_final,
            };
            assert_eq!(IscsiPdu::decode(&d.encode()), Ok(IscsiPdu::DataIn(d)));
        }
    }

    #[test]
    fn data_out_round_trip() {
        let d = DataOut {
            itt: 5,
            lbn: 99,
            data_len: 8192,
        };
        assert_eq!(IscsiPdu::decode(&d.encode()), Ok(IscsiPdu::DataOut(d)));
    }

    #[test]
    fn response_round_trip() {
        let r = ScsiResponse { itt: 3, status: 0 };
        assert_eq!(IscsiPdu::decode(&r.encode()), Ok(IscsiPdu::Response(r)));
        let bad = ScsiResponse { itt: 3, status: 2 };
        assert_eq!(IscsiPdu::decode(&bad.encode()), Ok(IscsiPdu::Response(bad)));
    }

    #[test]
    fn r2t_round_trip() {
        let r = ReadyToTransfer {
            itt: 11,
            lbn: 77,
            desired_len: 4096,
        };
        assert_eq!(IscsiPdu::decode(&r.encode()), Ok(IscsiPdu::R2T(r)));
    }

    #[test]
    fn unknown_opcode_rejected() {
        let mut b = [0u8; BHS_LEN];
        b[0] = 0x77;
        assert_eq!(
            IscsiPdu::decode(&b),
            Err(DecodeError::Unsupported("iSCSI opcode"))
        );
    }

    #[test]
    fn command_without_direction_rejected() {
        let mut b = ScsiCommand::default().encode();
        b[1] = FLAG_FINAL; // clear direction bits
        assert_eq!(
            IscsiPdu::decode(&b),
            Err(DecodeError::BadField("command direction"))
        );
    }

    #[test]
    fn truncated() {
        assert!(IscsiPdu::decode(&[0; 47]).is_err());
    }

    property! {
        fn prop_command_round_trip(itt in any_u32(), lbn in any_u64(), blocks in any_u32(), write in any_bool()) {
            let c = ScsiCommand {
                itt,
                op: if write { ScsiOp::Write } else { ScsiOp::Read },
                lbn,
                blocks,
            };
            prop_assert_eq!(IscsiPdu::decode(&c.encode()), Ok(IscsiPdu::Command(c)));
        }

        fn prop_data_in_round_trip(itt in any_u32(), lbn in any_u64(), len in any_u32(), fin in any_bool()) {
            let d = DataIn { itt, lbn, data_len: len, is_final: fin };
            prop_assert_eq!(IscsiPdu::decode(&d.encode()), Ok(IscsiPdu::DataIn(d)));
        }
    }
}
