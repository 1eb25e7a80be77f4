//! The benchmark's names: every metric with its unit and direction, and
//! the regression bound of each end-to-end metric. `BENCHMARK.json` at
//! the repository root must say the same (a test compares them).

use crate::stats::Better::{self, Higher, Lower};

/// `(name, unit, better, bound)`: what a user of the system would see.
/// The bound is the share of the parent's median by which the metric may
/// worsen before a change counts as a regression. The driver runs every
/// measurement on another seed and on a shared 2-vCPU host, so each bound
/// is at least three times the widest quartile spread seen over ten
/// seeds (README, "Bounds"): the clocks drift by 3-12% run to run with
/// 20% slow phases, and the seed alone moves the exact counts by up to
/// 6% (`sim_ops_per_s` on `nfs_specsfs`). At one seed the counts repeat
/// exactly; `compare` prints every ratio so a move inside the bound shows.
pub const END_TO_END: [(&str, &str, Better, f64); 7] = [
    ("setup_s", "s", Lower, 0.25),
    ("req_per_s", "1/s", Higher, 0.25),
    ("sim_ops_per_s", "1/s", Higher, 0.25),
    ("allocs_per_req", "count", Lower, 0.06),
    ("app_copied_bytes_per_req", "bytes", Lower, 0.10),
    ("peak_rss_mb", "MiB", Lower, 0.20),
    ("completed_req_share", "ratio", Higher, 0.01),
];

/// `(name, unit, better)`: single layers, measured by the traced run. A
/// layer a workload never reaches reads 0 there.
pub const PER_LAYER: [(&str, &str, Better); 88] = [
    // Seam spans: mean host ns per request around each call the benchmark
    // makes, and whole-request percentiles.
    ("servers.client_encode_ns", "ns", Lower),
    ("servers.stack_deliver_ns", "ns", Lower),
    ("servers.handle_ns", "ns", Lower),
    ("servers.client_decode_ns", "ns", Lower),
    ("servers.handle_residual_ns", "ns", Lower),
    ("request.ns_p50", "ns", Lower),
    ("request.ns_p99", "ns", Lower),
    ("request.read_ns_p50", "ns", Lower),
    ("request.write_ns_p50", "ns", Lower),
    ("request.write_ns_p99", "ns", Lower),
    ("request.meta_ns_p50", "ns", Lower),
    // Exact counts from the crates' public stats, per request.
    ("netbuf.app.payload_copies_per_req", "count", Lower),
    ("netbuf.app.logical_copies_per_req", "count", Lower),
    ("netbuf.app.csum_bytes_per_req", "bytes", Lower),
    ("netbuf.app.csum_inherited_per_req", "count", Higher),
    ("netbuf.app.allocations_per_req", "count", Lower),
    ("netbuf.app.header_bytes_per_req", "bytes", Lower),
    ("netbuf.storage.copied_bytes_per_req", "bytes", Lower),
    ("netbuf.client.copied_bytes_per_req", "bytes", Lower),
    ("netbuf.pool.slab_allocs_per_req", "count", Lower),
    ("netbuf.pool.slab_recycle_share", "ratio", Higher),
    ("netbuf.pool.peak_pinned_mb", "MiB", Lower),
    ("ncache.lookups_per_req", "count", Lower),
    ("ncache.hit_ratio", "ratio", Higher),
    ("ncache.insertions_per_req", "count", Lower),
    ("ncache.remaps_per_req", "count", Lower),
    ("ncache.evicted_clean_per_req", "count", Lower),
    ("ncache.evicted_dirty_per_req", "count", Lower),
    ("ncache.substituted_pkts_per_req", "count", Higher),
    ("ncache.invalidations", "count", Lower),
    ("simfs.cache_lookups_per_req", "count", Lower),
    ("simfs.cache_hit_ratio", "ratio", Higher),
    ("simfs.evicted_clean_per_req", "count", Lower),
    ("simfs.evicted_dirty_per_req", "count", Lower),
    ("servers.initiator.blocks_read_per_req", "count", Lower),
    ("servers.initiator.blocks_written_per_req", "count", Lower),
    (
        "servers.initiator.second_level_hits_per_req",
        "count",
        Higher,
    ),
    ("servers.initiator.zero_copy_reads_per_req", "count", Higher),
    (
        "servers.initiator.zero_copy_writes_per_req",
        "count",
        Higher,
    ),
    ("servers.initiator.admission_failures", "count", Lower),
    ("servers.target.cmds_per_req", "count", Lower),
    ("servers.nfs.drc_inserts_per_req", "count", Lower),
    ("servers.nfs.errors", "count", Lower),
    ("servers.control.rejected_share", "ratio", Lower),
    ("servers.control.shed_share", "ratio", Lower),
    ("bench.alloc_bytes_per_req", "bytes", Lower),
    // Layer-direct timings: each layer's public functions called with the
    // inputs the workload produced, host ns per call.
    ("proto.nfs_codec_ns", "ns", Lower),
    ("proto.http_codec_ns", "ns", Lower),
    ("proto.iscsi_codec_ns", "ns", Lower),
    ("proto.csum_ns_per_kb", "ns", Lower),
    ("netbuf.pool_cycle_ns", "ns", Lower),
    ("netbuf.buf_build_ns", "ns", Lower),
    ("simfs.read_ns_per_req", "ns", Lower),
    ("simfs.write_ns_per_req", "ns", Lower),
    ("simfs.lookup_ns", "ns", Lower),
    ("ncache.lookup_ns", "ns", Lower),
    ("ncache.substitute_ns_per_req", "ns", Lower),
    ("ncache.insert_ns", "ns", Lower),
    ("ncache.remap_ns", "ns", Lower),
    ("servers.target.read_cmd_ns", "ns", Lower),
    ("blockdev.raid_io_ns", "ns", Lower),
    ("sim.engine_event_ns", "ns", Lower),
    ("sim.resource_serve_ns", "ns", Lower),
    ("testbed.derive_ns", "ns", Lower),
    ("testbed.run_op_overhead_ns", "ns", Lower),
    ("workload.gen_ns_per_op", "ns", Lower),
    ("obs.hist_record_ns", "ns", Lower),
    // Engines: call wall time minus the data plane's share of it.
    ("testbed.sessions.engine_ns_per_req", "ns", Lower),
    ("testbed.openloop.engine_ns_per_req", "ns", Lower),
    ("testbed.lanes.functional_ns_per_req_t1", "ns", Lower),
    ("testbed.lanes.functional_ns_per_req_t2", "ns", Lower),
    ("testbed.lanes.replay_ns_per_req", "ns", Lower),
    ("testbed.lanes.speedup_t2", "ratio", Higher),
    ("testbed.lanes.oracle_drift_pct", "%", Lower),
    // The three builds on one op slice, observation cost, sim-time
    // results, and the benchmark's own overheads.
    ("build.ncache.ns_per_req", "ns", Lower),
    ("build.original.ns_per_req", "ns", Lower),
    ("build.baseline.ns_per_req", "ns", Lower),
    ("build.original.allocs_per_req", "count", Lower),
    ("build.baseline.allocs_per_req", "count", Lower),
    ("ncache.mgmt_ns_per_req", "ns", Lower),
    ("obs.recorder_on_overhead_pct", "%", Lower),
    ("sim.throughput_mbs", "MB/s", Higher),
    ("sim.app_cpu_util", "ratio", Lower),
    ("sim.storage_cpu_util", "ratio", Lower),
    ("sim.p99_latency_us", "us", Lower),
    ("bench.trace_overhead_pct", "%", Lower),
    ("bench.timer_ns", "ns", Lower),
    ("bench.reps_spread_pct", "%", Lower),
];

/// Unit of the metric called `name`, from either list.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seams::{json_parse, Json};
    use crate::workloads::SPECS;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json_parse(&text).expect("valid JSON")
    }

    fn names_valid(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.0, m.1))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
            .chain(SPECS.iter().map(|s| (s.name, "count")))
        {
            assert!(names_valid(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().all(|m| m.3 <= 0.25));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_says_the_same() {
        let j = benchmark_json();
        let keys: Vec<&str> = j
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let s = |v: &Json, k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let workloads = j
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        assert_eq!(workloads.len(), SPECS.len());
        for (w, spec) in workloads.iter().zip(&SPECS) {
            assert_eq!(
                (s(w, "name"), s(w, "why")),
                (spec.name.to_string(), spec.why.to_string())
            );
        }
        let direction = |b: Better| if b == Lower { "lower" } else { "higher" };
        let e2e = j
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(s(m, "name"), want.0);
            assert_eq!(s(m, "unit"), want.1);
            assert_eq!(s(m, "better"), direction(want.2));
            assert_eq!(
                m.get("bound").and_then(Json::as_num),
                Some(want.3),
                "{}",
                want.0
            );
        }
        let layers = j
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(
                (s(m, "name"), s(m, "unit"), s(m, "better")),
                (want.0.into(), want.1.into(), direction(want.2).into())
            );
        }
        assert_eq!(
            j.get("paths").and_then(Json::as_arr).map(|p| p.len()),
            Some(1)
        );
    }
}
