//! From measured operations to simulated time.
//!
//! The data plane executes each request functionally and *counts* what it
//! did: physical copies (per-node ledgers), NCache management operations,
//! buffer-cache operations, block I/Os to the storage server. This module
//! turns those counts into service demands at the simulated hardware using
//! the calibrated [`CostModel`] — so NCache is only ever faster because it
//! demonstrably performed fewer expensive operations.

use netbuf::LedgerSnapshot;
use servers::initiator::IoRecord;
use sim::costs::CostModel;
use sim::time::Duration;

use crate::rig::NodeLedgers;

/// Transport of the client-facing leg (NFS runs on UDP, HTTP on TCP —
/// §5.5 attributes part of kHTTPd's higher per-packet cost to this).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// UDP per-packet costs.
    Udp,
    /// TCP per-packet costs.
    Tcp,
}

/// A coalesced run of contiguous, same-direction block I/O — one iSCSI
/// command on the wire (the file system's read-ahead makes the average
/// disk request match the NFS request size, §5.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StorageBurst {
    /// First block.
    pub lbn: u64,
    /// Blocks in the run.
    pub blocks: u64,
    /// Direction.
    pub is_write: bool,
}

impl StorageBurst {
    /// Payload bytes this burst moves.
    pub fn bytes(&self) -> u64 {
        self.blocks * 4096
    }
}

/// Coalesces a request's block I/O log into bursts: adjacent records
/// merge when they continue the same direction contiguously.
pub fn coalesce(io: &[IoRecord]) -> Vec<StorageBurst> {
    let mut out: Vec<StorageBurst> = Vec::new();
    for rec in io {
        if let Some(last) = out.last_mut() {
            if last.is_write == rec.is_write && last.lbn + last.blocks == rec.lbn {
                last.blocks += 1;
                continue;
            }
        }
        out.push(StorageBurst {
            lbn: rec.lbn,
            blocks: 1,
            is_write: rec.is_write,
        });
    }
    out
}

/// Everything observed while one request executed on the data plane.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Observation {
    /// The application server's ledger delta.
    pub app: LedgerSnapshot,
    /// NCache management operations (lookups + insertions + remaps).
    pub ncache_ops: u64,
    /// Packets substituted at the driver hook.
    pub substituted_pkts: u64,
    /// Buffer-cache operations (lookups + insertions).
    pub bufcache_ops: u64,
    /// Coalesced storage I/O.
    pub bursts: Vec<StorageBurst>,
    /// Client→server message bytes (headers + payload).
    pub request_bytes: u64,
    /// Server→client message bytes.
    pub reply_bytes: u64,
    /// The server's admission gate rejected this request with a
    /// retryable error (NFS `RETRY_LATER` / HTTP 503): the reply is a
    /// short rejection header, no payload was delivered, and the client
    /// should back off and retransmit under its retry budget.
    pub rejected: bool,
}

/// Brackets one operation on the calling thread and produces its
/// [`Observation`] — the one place a request's counts are collected,
/// whichever engine ran it.
///
/// The mechanism is per-thread attribution: a ledger window
/// ([`netbuf::CopyLedger::begin_window`]) over the application ledger and
/// the two caches' op tally ([`sim::epoch::take_tally`]). Each
/// accumulates exactly this thread's charges, and every charge of an
/// operation — the transmit hook's included, which runs inside the server
/// step on every path — happens on the thread that runs it, so the bracket
/// is exact under a *shared* core guard (concurrent lanes serving hits) as
/// well as an exclusive one, which a delta of two snapshots of the shared
/// counters is not.
#[derive(Debug)]
#[must_use]
pub(crate) struct OpMeter(());

impl OpMeter {
    /// Opens the bracket: drains whatever earlier work left on this
    /// thread's tally and opens the ledger window. Everything here is
    /// the calling thread's own, so a lane may open its bracket before it
    /// takes the core lock — waiting charges nothing.
    pub(crate) fn open(ledgers: &NodeLedgers) -> OpMeter {
        let _ = sim::epoch::take_tally();
        ledgers.app.begin_window();
        OpMeter(())
    }

    /// Closes the bracket once the server step has finished the reply, and
    /// completes the observation with what only the caller knows: the wire
    /// sizes, the storage I/O the operation logged, the packets the
    /// transmit hook substituted, and whether the server's admission gate
    /// rejected the request (only the sequential rig can see one: the
    /// lanes refuse a rig with a control plane).
    pub(crate) fn finish(
        self,
        ledgers: &NodeLedgers,
        request_bytes: u64,
        reply_bytes: u64,
        io: &[IoRecord],
        substituted_pkts: u64,
        rejected: bool,
    ) -> Observation {
        let tally = sim::epoch::take_tally();
        Observation {
            app: ledgers.app.end_window(),
            bufcache_ops: tally.fs,
            ncache_ops: tally.ncache,
            substituted_pkts,
            bursts: coalesce(io),
            request_bytes,
            reply_bytes,
            rejected,
        }
    }
}

/// The request's derived service demands.
#[derive(Clone, Debug)]
pub struct RequestDemands {
    /// Application-server CPU time.
    pub app_cpu: Duration,
    /// The storage I/O, each with its storage-server CPU demand. Read
    /// bursts are foreground (the request waits); write bursts are
    /// background write-behind (they consume resources but do not extend
    /// the request's latency).
    pub bursts: Vec<(StorageBurst, Duration)>,
    /// Client→server wire bytes.
    pub request_bytes: u64,
    /// Server→client wire bytes.
    pub reply_bytes: u64,
}

/// Derives simulated service demands from an observation.
///
/// The application CPU pays: fixed per-request processing, per-packet
/// costs on the client leg (`transport`) and the storage leg (TCP), the
/// measured physical copies and checksums, buffer-cache bookkeeping, and —
/// only in the NCache build, because only it performs them — cache
/// management and substitution. The storage CPU pays per-command, packet,
/// copy, and per-byte target costs.
pub fn derive(
    costs: &CostModel,
    transport: Transport,
    per_request_ns: u64,
    obs: &Observation,
) -> RequestDemands {
    // Client-leg packets at the app server: the request in, the reply out.
    let client_pkts = costs.segments(obs.request_bytes) + costs.segments(obs.reply_bytes);
    let client_pkt_cost = match transport {
        Transport::Udp => costs.udp_pkt_cost(client_pkts),
        Transport::Tcp => costs.tcp_pkt_cost(client_pkts),
    };

    // Storage-leg packets at *both* ends: data segments plus one
    // command/response exchange per burst. iSCSI rides TCP. The storage
    // server's CPU demand is computed per burst (the target's copies are
    // one per block per direction, verified by its ledger in tests).
    let mut storage_pkts = 0u64;
    let mut bursts = Vec::with_capacity(obs.bursts.len());
    for b in &obs.bursts {
        let pkts = costs.segments(b.bytes()) + 2;
        storage_pkts += pkts;
        let cpu = Duration::from_nanos(costs.iscsi_req_ns)
            + costs.tcp_pkt_cost(pkts)
            + costs.copy_cost(b.bytes())
            + costs.iscsi_byte_cost(b.bytes());
        bursts.push((*b, cpu));
    }

    let app_cpu = Duration::from_nanos(per_request_ns)
        + client_pkt_cost
        + costs.tcp_pkt_cost(storage_pkts)
        + costs.copy_cost(
            obs.app.payload_bytes_copied + obs.app.meta_bytes_copied + obs.app.header_bytes,
        )
        + costs.csum_cost(obs.app.csum_bytes)
        + costs.bufcache_ops_cost(obs.bufcache_ops)
        + costs.ncache_ops_cost(obs.ncache_ops)
        + costs.ncache_subst_cost(obs.substituted_pkts);

    RequestDemands {
        app_cpu,
        bursts,
        request_bytes: obs.request_bytes,
        reply_bytes: obs.reply_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simfs::BlockClass;

    fn rec(lbn: u64, is_write: bool) -> IoRecord {
        IoRecord {
            lbn,
            is_write,
            class: BlockClass::Data,
        }
    }

    #[test]
    fn coalesce_merges_contiguous_runs() {
        let io = vec![rec(10, false), rec(11, false), rec(12, false), rec(20, false)];
        let bursts = coalesce(&io);
        assert_eq!(
            bursts,
            vec![
                StorageBurst {
                    lbn: 10,
                    blocks: 3,
                    is_write: false
                },
                StorageBurst {
                    lbn: 20,
                    blocks: 1,
                    is_write: false
                },
            ]
        );
        assert_eq!(bursts[0].bytes(), 3 * 4096);
    }

    #[test]
    fn coalesce_splits_on_direction_change() {
        let io = vec![rec(10, false), rec(11, true), rec(12, true)];
        let bursts = coalesce(&io);
        assert_eq!(bursts.len(), 2);
        assert!(!bursts[0].is_write);
        assert!(bursts[1].is_write);
        assert_eq!(bursts[1].blocks, 2);
    }

    #[test]
    fn coalesce_empty() {
        assert!(coalesce(&[]).is_empty());
    }

    #[test]
    fn more_copies_cost_more_app_cpu() {
        let costs = CostModel::pentium3_gige();
        let mut with_copies = Observation {
            reply_bytes: 32 << 10,
            request_bytes: 128,
            ..Observation::default()
        };
        let without = derive(&costs, Transport::Udp, costs.nfs_req_ns, &with_copies);
        with_copies.app.payload_bytes_copied = 2 * (32 << 10);
        with_copies.app.payload_copies = 2;
        let with = derive(&costs, Transport::Udp, costs.nfs_req_ns, &with_copies);
        assert!(with.app_cpu > without.app_cpu);
        let delta = with.app_cpu - without.app_cpu;
        assert_eq!(delta, costs.copy_cost(2 * (32 << 10)));
    }

    #[test]
    fn ncache_management_is_charged() {
        let costs = CostModel::pentium3_gige();
        let base = Observation {
            reply_bytes: 32 << 10,
            request_bytes: 128,
            ..Observation::default()
        };
        let plain = derive(&costs, Transport::Udp, costs.nfs_req_ns, &base);
        let mut managed = base;
        managed.ncache_ops = 8;
        managed.substituted_pkts = 8;
        let with = derive(&costs, Transport::Udp, costs.nfs_req_ns, &managed);
        assert!(with.app_cpu > plain.app_cpu, "overhead separates NCache from baseline");
    }

    #[test]
    fn tcp_leg_costs_more_than_udp() {
        let costs = CostModel::pentium3_gige();
        let obs = Observation {
            reply_bytes: 64 << 10,
            request_bytes: 200,
            ..Observation::default()
        };
        let udp = derive(&costs, Transport::Udp, 0, &obs);
        let tcp = derive(&costs, Transport::Tcp, 0, &obs);
        assert!(tcp.app_cpu > udp.app_cpu);
    }

    #[test]
    fn storage_bursts_load_both_cpus() {
        let costs = CostModel::pentium3_gige();
        let obs = Observation {
            bursts: vec![StorageBurst {
                lbn: 0,
                blocks: 8,
                is_write: false,
            }],
            ..Observation::default()
        };
        let d = derive(&costs, Transport::Udp, 0, &obs);
        assert_eq!(d.bursts.len(), 1);
        assert!(d.bursts[0].1 > Duration::ZERO, "bursts carry storage CPU");
        assert!(d.app_cpu > Duration::ZERO, "PDU processing costs app CPU too");
    }
}
