//! Calibrated cost model for the paper's testbed.
//!
//! The evaluation hardware (paper §5.2): Pentium III 1 GHz nodes, PC133-era
//! memory, Intel Pro/1000 Gigabit NICs with checksum offload enabled, MTU
//! 1500, a NetGear Gigabit switch, and a storage server with 4 IDE disks
//! (IBM DTLA-307075) in RAID-0.
//!
//! All constants here are *per-operation unit costs*; the testbed derives a
//! request's CPU demand from the data plane's **counted** operations
//! (physical copies, packets, checksummed bytes, cache operations), so the
//! model stays honest: NCache only gets faster because it demonstrably
//! performs fewer of the expensive operations.
//!
//! Calibration targets (shape, not absolute):
//! * all-hit NFS at 32 KB, CPU-bound: NCache ≈ +92 % over original,
//!   zero-copy baseline ≈ +143 % (Fig 5b);
//! * all-miss NFS ≥16 KB: +29-36 %, storage-server CPU saturated (Fig 4);
//! * kHTTPd all-hit: +8 % @16 KB rising to ~+47 % @128 KB (Fig 6b).

use crate::time::Duration;

/// Unit costs for every operation the data plane counts.
///
/// # Examples
///
/// ```
/// use sim::costs::CostModel;
/// let m = CostModel::pentium3_gige();
/// // Copying a 4 KiB block costs a few microseconds on this hardware.
/// let d = m.copy_cost(4096);
/// assert!(d > sim::Duration::ZERO);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CostModel {
    /// CPU cost per byte physically copied (memcpy through the cache
    /// hierarchy). PIII-class hardware sustains roughly 300 MB/s for
    /// kernel-path copies → ~3.3 ns/B.
    pub copy_ns_per_byte: f64,
    /// CPU cost per byte checksummed in software. Charged for whatever
    /// checksum passes the data plane actually performed: the NFS/UDP
    /// paths rely on the Intel NICs' checksum offload (paper §5.2) and
    /// never compute one; the original kHTTPd's TCP sendfile path does,
    /// while NCache *inherits* stored checksums (§1) and the ideal
    /// baseline is modelled with offload. Offload is the testbed's, not a
    /// knob: every model here assumes the UDP/NFS paths have it.
    pub csum_ns_per_byte: f64,
    /// Fixed CPU cost per UDP packet sent or received (driver, IRQ, IP+UDP
    /// processing).
    pub udp_pkt_ns: u64,
    /// Fixed CPU cost per TCP packet sent or received. Higher than UDP
    /// (paper §5.5: "the per-packet overhead of HTTP is higher than that of
    /// NFS because HTTP runs on TCP and NFS runs on UDP").
    pub tcp_pkt_ns: u64,
    /// Per-request CPU cost of NFS server processing (RPC decode, fh
    /// lookup, reply construction) excluding copies and packet costs.
    pub nfs_req_ns: u64,
    /// Per-request CPU cost of kHTTPd processing: HTTP parse, response
    /// header construction, and — dominating — the per-connection TCP
    /// work (handshake, teardown, socket setup) that HTTP/1.0's
    /// connection-per-request model pays. This is the "aggregate per
    /// request overhead" whose amortization makes Figure 6(b)'s gains grow
    /// with request size.
    pub http_req_ns: u64,
    /// Per-request CPU cost on the storage server for an iSCSI command
    /// (PDU parse, SCSI emulation, completion).
    pub iscsi_req_ns: u64,
    /// Extra per-byte CPU cost on the storage server's data path (target
    /// buffer management beyond the raw copies it performs).
    pub iscsi_ns_per_byte: f64,
    /// NCache management: one hash lookup / insert / remap of a cache
    /// entry. Charged per cache operation counted by the module.
    pub ncache_op_ns: u64,
    /// NCache management: substituting one outgoing packet's payload with
    /// the cached network buffer (pointer surgery at the driver boundary).
    pub ncache_subst_pkt_ns: u64,
    /// Per-block CPU cost of buffer-cache bookkeeping (lookup/insert of a
    /// page-cache entry). Applies to every configuration.
    pub bufcache_op_ns: u64,
    /// Payload bandwidth of one Gigabit link, bytes/second, after
    /// Ethernet/IP overheads (~117 MB/s of payload on GbE at MTU 1500).
    pub link_bytes_per_sec: f64,
    /// MSS: TCP/UDP payload bytes per full-size Ethernet frame at MTU 1500.
    pub mss: usize,
}

impl CostModel {
    /// The paper's testbed: PIII 1 GHz, GbE with checksum offload, MTU 1500.
    pub fn pentium3_gige() -> Self {
        CostModel {
            copy_ns_per_byte: 3.3,
            csum_ns_per_byte: 2.0,
            udp_pkt_ns: 5_000,
            tcp_pkt_ns: 6_500,
            nfs_req_ns: 30_000,
            http_req_ns: 500_000,
            iscsi_req_ns: 15_000,
            iscsi_ns_per_byte: 4.0,
            ncache_op_ns: 2_000,
            ncache_subst_pkt_ns: 1_500,
            bufcache_op_ns: 800,
            link_bytes_per_sec: 117.0e6,
            mss: 1_448,
        }
    }

    /// CPU time for physically copying `bytes` bytes once.
    pub fn copy_cost(&self, bytes: u64) -> Duration {
        Duration::from_secs_f64(bytes as f64 * self.copy_ns_per_byte * 1e-9)
    }

    /// CPU time for software-checksumming `bytes` bytes. The data plane
    /// only reports bytes it really checksummed, so this is charged
    /// unconditionally.
    pub fn csum_cost(&self, bytes: u64) -> Duration {
        Duration::from_secs_f64(bytes as f64 * self.csum_ns_per_byte * 1e-9)
    }

    /// CPU time for processing `packets` UDP packets.
    pub fn udp_pkt_cost(&self, packets: u64) -> Duration {
        Duration::from_nanos(self.udp_pkt_ns * packets)
    }

    /// CPU time for processing `packets` TCP packets.
    pub fn tcp_pkt_cost(&self, packets: u64) -> Duration {
        Duration::from_nanos(self.tcp_pkt_ns * packets)
    }

    /// CPU time for `ops` NCache cache operations (lookup/insert/remap).
    pub fn ncache_ops_cost(&self, ops: u64) -> Duration {
        Duration::from_nanos(self.ncache_op_ns * ops)
    }

    /// CPU time for substituting `packets` outgoing packets from the cache.
    pub fn ncache_subst_cost(&self, packets: u64) -> Duration {
        Duration::from_nanos(self.ncache_subst_pkt_ns * packets)
    }

    /// CPU time for `ops` buffer-cache operations.
    pub fn bufcache_ops_cost(&self, ops: u64) -> Duration {
        Duration::from_nanos(self.bufcache_op_ns * ops)
    }

    /// Extra storage-server CPU time for moving `bytes` bytes through the
    /// iSCSI target data path.
    pub fn iscsi_byte_cost(&self, bytes: u64) -> Duration {
        Duration::from_secs_f64(bytes as f64 * self.iscsi_ns_per_byte * 1e-9)
    }

    /// Wire transmission time for `payload` bytes of application payload on
    /// one link, including full-frame segmentation overheads.
    pub fn link_tx_time(&self, payload: u64) -> Duration {
        // Account per-frame overhead (headers + preamble + IFG ≈ 90 B) by
        // working in frames of `mss` payload each.
        let frames = payload.div_ceil(self.mss as u64).max(1);
        let wire_bytes = payload + frames * 90;
        Duration::from_secs_f64(wire_bytes as f64 / (self.link_bytes_per_sec * 1.10))
    }

    /// Number of full-or-partial MSS-sized segments needed for `payload`
    /// bytes (at least one, for header-only packets).
    pub fn segments(&self, payload: u64) -> u64 {
        payload.div_ceil(self.mss as u64).max(1)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::pentium3_gige()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_cost_scales_linearly() {
        let m = CostModel::pentium3_gige();
        let one = m.copy_cost(1_000);
        let ten = m.copy_cost(10_000);
        assert_eq!(ten.as_nanos(), one.as_nanos() * 10);
    }

    #[test]
    fn computed_checksums_always_cost() {
        let m = CostModel::pentium3_gige();
        assert!(m.csum_cost(100_000) > Duration::ZERO);
        assert_eq!(m.csum_cost(0), Duration::ZERO);
    }

    #[test]
    fn tcp_packets_cost_more_than_udp() {
        let m = CostModel::pentium3_gige();
        assert!(m.tcp_pkt_cost(10) > m.udp_pkt_cost(10));
    }

    #[test]
    fn segments_round_up_and_floor_at_one() {
        let m = CostModel::pentium3_gige();
        assert_eq!(m.segments(0), 1);
        assert_eq!(m.segments(1), 1);
        assert_eq!(m.segments(1_448), 1);
        assert_eq!(m.segments(1_449), 2);
        assert_eq!(m.segments(32_768), 23);
    }

    #[test]
    fn link_tx_time_is_near_nominal_rate() {
        let m = CostModel::pentium3_gige();
        // 117 MB of payload should take roughly one second (within 10%).
        let t = m.link_tx_time(117_000_000);
        let secs = t.as_secs_f64();
        assert!((0.9..1.1).contains(&secs), "got {secs}");
    }

    #[test]
    fn all_hit_calibration_shape_holds() {
        // Reconstruct the Fig 5(b) arithmetic at 32 KB from unit costs and
        // Table-2 copy counts: original does 2 payload copies per read hit;
        // baseline does none; NCache does none but pays management.
        let m = CostModel::pentium3_gige();
        let s: u64 = 32 * 1024;
        let pkts = m.segments(s);
        let base = m.udp_pkt_cost(pkts) + Duration::from_nanos(m.nfs_req_ns);
        let orig = base + m.copy_cost(2 * s);
        let blocks = s / 4096;
        let nc = base + m.ncache_ops_cost(blocks) + m.ncache_subst_cost(pkts);

        let thr = |c: Duration| s as f64 / c.as_secs_f64();
        let gain_nc = thr(nc) / thr(orig) - 1.0;
        let gain_base = thr(base) / thr(orig) - 1.0;
        // Paper: +92 % (NCache) and +143 % (baseline); require the right
        // band rather than exact equality.
        assert!(
            (0.75..1.15).contains(&gain_nc),
            "NCache all-hit gain at 32K = {gain_nc:.2}"
        );
        assert!(
            (1.2..1.8).contains(&gain_base),
            "baseline all-hit gain at 32K = {gain_base:.2}"
        );
        // And the CPU-bound original sits in the right absolute ballpark
        // (paper: ~89 MB/s).
        let orig_mb = thr(orig) / 1e6;
        assert!((70.0..110.0).contains(&orig_mb), "original = {orig_mb} MB/s");
    }

    #[test]
    fn default_is_the_testbed_model() {
        assert_eq!(CostModel::default(), CostModel::pentium3_gige());
    }
}
