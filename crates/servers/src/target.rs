//! The iSCSI target: the storage server behind the pass-through server.
//!
//! Holds the volume image (sparse: unwritten blocks synthesize
//! deterministic contents) and speaks the `proto::iscsi` PDU subset. Its
//! behaviour is identical across all three server configurations — the
//! point of the paper is what happens on the *application* server — so
//! every read copies disk buffer → PDU and every write copies PDU → disk
//! buffer, charged to the storage server's own ledger.

use netbuf::{BufPool, CopyLedger, NetBuf, SlabStats};
use proto::iscsi::{
    DataIn, IscsiPdu, ReadyToTransfer, ScsiCommand, ScsiOp, ScsiResponse, BHS_LEN, BLOCK_SIZE,
};
use sim::MixMap;
use simfs::store::{synthetic_block, synthetic_words};

/// SCSI status signalling a transient device error (retry the command).
pub const STATUS_IO_ERROR: u8 = 1;
/// SCSI status signalling a malformed or incomplete write burst.
pub const STATUS_PROTOCOL_ERROR: u8 = 2;

/// Operation counters for the storage server.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TargetStats {
    /// READ commands served.
    pub read_cmds: u64,
    /// WRITE commands served.
    pub write_cmds: u64,
    /// Blocks sent to initiators.
    pub blocks_read: u64,
    /// Blocks written by initiators.
    pub blocks_written: u64,
    /// Commands failed with a transient (injected) device error.
    pub io_errors: u64,
    /// Write bursts rejected for damaged or missing Data-Out PDUs.
    pub bad_write_bursts: u64,
}

impl obs::StatsSnapshot for TargetStats {
    fn source(&self) -> &'static str {
        "iscsi-target"
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("read_cmds", self.read_cmds),
            ("write_cmds", self.write_cmds),
            ("blocks_read", self.blocks_read),
            ("blocks_written", self.blocks_written),
            ("io_errors", self.io_errors),
            ("bad_write_bursts", self.bad_write_bursts),
        ]
    }
}

/// The storage server.
///
/// # Examples
///
/// ```
/// use netbuf::CopyLedger;
/// use servers::IscsiTarget;
/// use proto::iscsi::{ScsiCommand, ScsiOp};
///
/// let ledger = CopyLedger::new();
/// let mut target = IscsiTarget::new(1024, &ledger);
/// let pdus = target.handle_command(ScsiCommand {
///     itt: 1,
///     op: ScsiOp::Read,
///     lbn: 0,
///     blocks: 2,
/// }, Vec::new());
/// // Two Data-In PDUs plus the SCSI response.
/// assert_eq!(pdus.len(), 3);
/// ```
#[derive(Debug)]
pub struct IscsiTarget {
    image: MixMap<u64, Vec<u8>>,
    block_count: u64,
    ledger: CopyLedger,
    stats: TargetStats,
    /// Slab free list for Data-In payload buffers (per-packet recycling;
    /// never ledger-visible).
    pool: BufPool,
    /// Deterministic transient device errors (None = perfect disk).
    faults: Option<blockdev::TransientFaults>,
    /// Under fault injection, damaged write bursts are runtime conditions
    /// (rejected with a status), not initiator bugs (panics).
    lenient: bool,
}

impl IscsiTarget {
    /// A target exporting `block_count` blocks, charging `ledger`.
    pub fn new(block_count: u64, ledger: &CopyLedger) -> Self {
        IscsiTarget {
            image: MixMap::default(),
            block_count,
            ledger: ledger.clone(),
            stats: TargetStats::default(),
            pool: BufPool::slab_only(),
            faults: None,
            lenient: false,
        }
    }

    /// Arms deterministic transient device errors: affected commands
    /// complete with [`STATUS_IO_ERROR`] instead of data, and damaged
    /// write bursts are rejected with [`STATUS_PROTOCOL_ERROR`] rather
    /// than panicking. A zero-rate stream still arms the lenient
    /// validation (link faults can damage PDUs even on a perfect disk)
    /// but draws nothing, so the fault-free paths stay byte-identical.
    pub fn set_transient_faults(&mut self, faults: blockdev::TransientFaults) {
        self.lenient = true;
        if !faults.is_zero() {
            self.faults = Some(faults);
        }
    }

    /// Exported volume size in blocks.
    pub fn block_count(&self) -> u64 {
        self.block_count
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TargetStats {
        self.stats
    }

    /// The storage server's ledger.
    pub fn ledger(&self) -> &CopyLedger {
        &self.ledger
    }

    /// Counters of the Data-In slab free list.
    pub fn pool_stats(&self) -> SlabStats { // test-api: alloc_budget reads the slab free list; the host-time benchmark should too
        self.pool.slab_stats()
    }

    /// Blocks that have been explicitly written (diagnostic).
    pub fn written_blocks(&self) -> usize { // test-api: alloc_budget checks that a flush overwrote in place
        self.image.len()
    }

    /// Raw contents of a block (integrity checks in tests).
    pub fn block_contents(&self, lbn: u64) -> Vec<u8> { // test-api: lifecycle reads what reached the disk
        self.image
            .get(&lbn)
            .cloned()
            .unwrap_or_else(|| synthetic_block(lbn))
    }

    /// Grants an R2T for a write command — the target's half of the iSCSI
    /// write handshake: the initiator sends its Data-Out PDUs only after
    /// receiving this solicitation.
    pub fn solicit(&self, cmd: ScsiCommand) -> NetBuf { // test-api: portability checks the R2T grant
        debug_assert_eq!(cmd.op, ScsiOp::Write, "R2T solicits write data");
        let mut pdu = NetBuf::new(&self.ledger);
        pdu.push_header(
            &ReadyToTransfer {
                itt: cmd.itt,
                lbn: cmd.lbn,
                desired_len: cmd.blocks * BLOCK_SIZE as u32,
            }
            .encode(),
        );
        pdu
    }

    /// Serves a SCSI command. For reads, `data_out` must be empty and the
    /// result is one Data-In PDU per block followed by the response. For
    /// writes, `data_out` carries one Data-Out PDU per block (payload
    /// attached, sent after the [`IscsiTarget::solicit`] R2T) and the
    /// result is just the response.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range addresses or mismatched Data-Out payloads —
    /// initiator bugs, not runtime conditions.
    pub fn handle_command(&mut self, cmd: ScsiCommand, mut data_out: Vec<NetBuf>) -> Vec<NetBuf> {
        let mut out = Vec::new();
        self.handle_command_into(cmd, &mut data_out, &mut out);
        out
    }

    /// [`IscsiTarget::handle_command`] over lists the caller keeps: the
    /// Data-Out burst is drained from `data_out` and the reply PDUs are
    /// pushed onto `out`, so an initiator issuing command after command
    /// allocates neither list again.
    pub fn handle_command_into(
        &mut self,
        cmd: ScsiCommand,
        data_out: &mut Vec<NetBuf>,
        out: &mut Vec<NetBuf>,
    ) {
        assert!(
            cmd.lbn + u64::from(cmd.blocks) <= self.block_count,
            "I/O beyond end of volume"
        );
        if self.faults.as_mut().is_some_and(|f| f.next_io_fails()) {
            // The device transiently failed the whole command; the
            // initiator sees a non-zero status and retries.
            self.stats.io_errors += 1;
            data_out.clear();
            out.push(self.response(cmd.itt, STATUS_IO_ERROR));
            return;
        }
        match cmd.op {
            ScsiOp::Read => {
                assert!(data_out.is_empty(), "read commands carry no Data-Out");
                self.stats.read_cmds += 1;
                out.reserve(cmd.blocks as usize + 1);
                for i in 0..u64::from(cmd.blocks) {
                    let lbn = cmd.lbn + i;
                    let mut pdu = NetBuf::new(&self.ledger);
                    // Disk buffer → outgoing network buffer: the storage
                    // server's copy, charged to its CPU.
                    match self.image.get(&lbn) {
                        Some(block) => pdu.append_pooled(&self.pool, block),
                        None => pdu.append_written(&self.pool, BLOCK_SIZE, |w| {
                            synthetic_words(lbn).for_each(|word| w.put(&word));
                        }),
                    }
                    pdu.push_header(
                        &DataIn {
                            itt: cmd.itt,
                            lbn,
                            data_len: BLOCK_SIZE as u32,
                            is_final: i + 1 == u64::from(cmd.blocks),
                        }
                        .encode(),
                    );
                    self.stats.blocks_read += 1;
                    out.push(pdu);
                }
                out.push(self.response(cmd.itt, 0));
            }
            ScsiOp::Write => {
                self.stats.write_cmds += 1;
                let status = match self.apply_data_out(&cmd, data_out) {
                    Ok(()) => 0,
                    // Under fault injection a damaged burst is a runtime
                    // condition: reject it and let the initiator resend.
                    Err(_why) if self.lenient => {
                        self.stats.bad_write_bursts += 1;
                        STATUS_PROTOCOL_ERROR
                    }
                    // On a perfect link it is an initiator bug.
                    Err(why) => panic!("{why}"),
                };
                out.push(self.response(cmd.itt, status));
            }
        }
    }

    /// Validates and applies a write command's Data-Out burst. Blocks are
    /// applied as they validate; a failed burst is re-sent in full by the
    /// initiator, and block writes are idempotent, so partial application
    /// is safe.
    fn apply_data_out(
        &mut self,
        cmd: &ScsiCommand,
        data_out: &mut Vec<NetBuf>,
    ) -> Result<(), String> {
        if data_out.len() != cmd.blocks as usize {
            data_out.clear();
            return Err("write command needs one Data-Out per block".into());
        }
        // (An early return drops the drain, and with it the rest of the
        // burst: a failed one is re-sent in full.)
        for mut pdu in data_out.drain(..) {
            if pdu.total_len() < BHS_LEN {
                return Err("Data-Out truncated below a BHS".into());
            }
            let hdr = pdu.pull_array::<BHS_LEN>();
            let decoded = match IscsiPdu::decode(&hdr) {
                Ok(p) => p,
                Err(e) => return Err(format!("undecodable Data-Out header: {e:?}")),
            };
            let IscsiPdu::DataOut(d) = decoded else {
                return Err(format!("expected Data-Out, got {decoded:?}"));
            };
            if d.itt != cmd.itt {
                return Err("Data-Out for a different command".into());
            }
            // Header-digest stand-in: every BHS field must agree with the
            // command, or a flipped bit could silently redirect the write.
            if d.lbn < cmd.lbn || d.lbn >= cmd.lbn + u64::from(cmd.blocks) {
                return Err("Data-Out LBN outside the command's range".into());
            }
            if d.data_len != BLOCK_SIZE as u32 {
                return Err("Data-Out data_len is not one block".into());
            }
            if pdu.payload_len() != BLOCK_SIZE {
                return Err("Data-Out payload must be one block".into());
            }
            // Incoming network buffer → disk buffer: the storage
            // server's receive copy, one block either way. A block written
            // before is overwritten where it lies.
            match self.image.get_mut(&d.lbn) {
                Some(block) => pdu.copy_payload_into(block),
                None => {
                    self.image.insert(d.lbn, pdu.copy_payload_to_vec());
                }
            }
            self.stats.blocks_written += 1;
        }
        Ok(())
    }

    fn response(&self, itt: u32, status: u8) -> NetBuf {
        let mut pdu = NetBuf::new(&self.ledger);
        pdu.push_header(&ScsiResponse { itt, status }.encode());
        pdu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbuf::Segment;
    use proto::iscsi::DataOut;

    fn target() -> IscsiTarget {
        IscsiTarget::new(1024, &CopyLedger::new())
    }

    fn write_one(t: &mut IscsiTarget, lbn: u64, fill: u8) {
        let mut pdu = NetBuf::new(t.ledger());
        pdu.append_segment(Segment::from_vec(vec![fill; BLOCK_SIZE]));
        pdu.push_header(
            &DataOut {
                itt: 9,
                lbn,
                data_len: BLOCK_SIZE as u32,
            }
            .encode(),
        );
        // Deliver converts the built headers into leading payload bytes,
        // as the initiator's send path does.
        let pdu = crate::stack::deliver(&pdu, t.ledger());
        let resp = t.handle_command(
            ScsiCommand {
                itt: 9,
                op: ScsiOp::Write,
                lbn,
                blocks: 1,
            },
            vec![pdu],
        );
        assert_eq!(resp.len(), 1);
    }

    #[test]
    fn read_returns_per_block_data_in_pdus_with_lbns() {
        let mut t = target();
        let pdus = t.handle_command(
            ScsiCommand {
                itt: 1,
                op: ScsiOp::Read,
                lbn: 10,
                blocks: 3,
            },
            Vec::new(),
        );
        assert_eq!(pdus.len(), 4);
        for (i, pdu) in pdus[..3].iter().enumerate() {
            let hdr = pdu.peek(0, 0); // headers live in the header area here
            assert!(hdr.is_empty());
            let decoded = IscsiPdu::decode(pdu.header()).expect("valid");
            let IscsiPdu::DataIn(d) = decoded else {
                panic!("expected Data-In")
            };
            assert_eq!(d.lbn, 10 + i as u64, "LBNs ride in the PDUs (§3.2)");
            assert_eq!(d.is_final, i == 2);
            assert_eq!(pdu.payload_len(), BLOCK_SIZE);
        }
        let IscsiPdu::Response(r) = IscsiPdu::decode(pdus[3].header()).expect("valid") else {
            panic!("expected response")
        };
        assert_eq!(r.itt, 1);
        assert_eq!(t.stats().blocks_read, 3);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut t = target();
        write_one(&mut t, 42, 0xAB);
        assert_eq!(t.written_blocks(), 1);
        let pdus = t.handle_command(
            ScsiCommand {
                itt: 2,
                op: ScsiOp::Read,
                lbn: 42,
                blocks: 1,
            },
            Vec::new(),
        );
        assert_eq!(pdus[0].copy_payload_to_vec(), vec![0xAB; BLOCK_SIZE]);
        assert_eq!(t.stats().write_cmds, 1);
        assert_eq!(t.stats().read_cmds, 1);
    }

    #[test]
    fn a_caller_kept_reply_list_is_filled_in_place_and_slabs_recycle() {
        let mut t = target();
        let (mut burst, mut replies) = (Vec::new(), Vec::new());
        for itt in 0..3 {
            let cmd = ScsiCommand {
                itt,
                op: ScsiOp::Read,
                lbn: 5,
                blocks: 2,
            };
            replies.clear();
            t.handle_command_into(cmd, &mut burst, &mut replies);
            assert_eq!(replies.len(), 3, "appended to, not replaced");
            assert_eq!(replies[1].copy_payload_to_vec(), synthetic_block(6));
        }
        // Two Data-In slabs in flight at a time: the first command takes
        // them fresh, the later ones take what `clear` sent home.
        let pool = t.pool_stats();
        assert_eq!((pool.allocs, pool.recycles), (2, 4));
    }

    #[test]
    fn unwritten_blocks_read_synthetic() {
        let mut t = target();
        let pdus = t.handle_command(
            ScsiCommand {
                itt: 3,
                op: ScsiOp::Read,
                lbn: 7,
                blocks: 1,
            },
            Vec::new(),
        );
        assert_eq!(pdus[0].copy_payload_to_vec(), synthetic_block(7));
    }

    #[test]
    fn copies_charged_to_storage_ledger() {
        let ledger = CopyLedger::new();
        let mut t = IscsiTarget::new(64, &ledger);
        let before = ledger.snapshot();
        t.handle_command(
            ScsiCommand {
                itt: 1,
                op: ScsiOp::Read,
                lbn: 0,
                blocks: 2,
            },
            Vec::new(),
        );
        let d = ledger.snapshot().delta_since(&before);
        assert_eq!(d.payload_copies, 2, "one disk→PDU copy per block");
        assert_eq!(d.payload_bytes_copied, 2 * BLOCK_SIZE as u64);
    }

    #[test]
    fn an_overwrite_lands_in_place_and_is_charged_as_a_first_write() {
        let mut t = target();
        let written = |t: &mut IscsiTarget, lbn, fill| {
            let before = t.ledger().snapshot();
            write_one(t, lbn, fill);
            t.ledger().snapshot().delta_since(&before)
        };
        let first = written(&mut t, 4, 0x11);
        assert_eq!((first.payload_copies, first.payload_bytes_copied), (1, BLOCK_SIZE as u64));
        assert_eq!(t.written_blocks(), 1);
        let again = written(&mut t, 4, 0x22);
        assert_eq!(again, first, "the same charge, block for block");
        assert_eq!(t.written_blocks(), 1, "no second copy of the block");
        let read = ScsiCommand {
            itt: 10,
            op: ScsiOp::Read,
            lbn: 4,
            blocks: 1,
        };
        let pdus = t.handle_command(read, Vec::new());
        assert_eq!(pdus[0].copy_payload_to_vec(), vec![0x22; BLOCK_SIZE]);
        assert_eq!(t.stats().blocks_written, 2);
    }

    #[test]
    fn transient_errors_return_status_and_are_bounded() {
        let mut t = target();
        t.set_transient_faults(blockdev::TransientFaults::new(5, 1_000_000));
        let mut failed = 0;
        let mut ok = 0;
        for i in 0..32u32 {
            let pdus = t.handle_command(
                ScsiCommand {
                    itt: i,
                    op: ScsiOp::Read,
                    lbn: 0,
                    blocks: 1,
                },
                Vec::new(),
            );
            let IscsiPdu::Response(r) =
                IscsiPdu::decode(pdus.last().unwrap().header()).expect("valid")
            else {
                panic!("expected response")
            };
            if r.status == STATUS_IO_ERROR {
                assert_eq!(pdus.len(), 1, "an errored command carries no data");
                failed += 1;
            } else {
                assert_eq!(pdus.len(), 2);
                ok += 1;
            }
        }
        assert!(failed > 0, "rate-1.0 errors fired");
        assert!(ok > 0, "the consecutive-failure bound forces successes");
        assert_eq!(t.stats().io_errors, failed);
    }

    #[test]
    fn damaged_write_burst_rejected_not_panicked_under_faults() {
        let mut t = target();
        // Rate so low it never fires, but arms lenient validation.
        t.set_transient_faults(blockdev::TransientFaults::new(5, 1));
        // A write claiming one block but carrying none.
        let resp = t.handle_command(
            ScsiCommand {
                itt: 3,
                op: ScsiOp::Write,
                lbn: 0,
                blocks: 1,
            },
            Vec::new(),
        );
        let IscsiPdu::Response(r) = IscsiPdu::decode(resp[0].header()).expect("valid") else {
            panic!("expected response")
        };
        assert_eq!(r.status, STATUS_PROTOCOL_ERROR);
        assert_eq!(t.stats().bad_write_bursts, 1);
        // The target still serves.
        write_one(&mut t, 4, 0x11);
        assert_eq!(t.block_contents(4), vec![0x11; BLOCK_SIZE]);
    }

    #[test]
    #[should_panic(expected = "beyond end of volume")]
    fn out_of_range_io_panics() {
        target().handle_command(
            ScsiCommand {
                itt: 1,
                op: ScsiOp::Read,
                lbn: 1023,
                blocks: 2,
            },
            Vec::new(),
        );
    }

    #[test]
    #[should_panic(expected = "one Data-Out per block")]
    fn write_without_data_panics() {
        target().handle_command(
            ScsiCommand {
                itt: 1,
                op: ScsiOp::Write,
                lbn: 0,
                blocks: 1,
            },
            Vec::new(),
        );
    }
}
