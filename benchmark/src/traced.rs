//! The traced run: the per-layer ledger, measured from outside.
//!
//! It replays the identical op stream on a fresh rig with (1) a span
//! around each call the benchmark makes into a layer, (2) exact counter
//! deltas read from public stats at the same boundaries, and (3)
//! layer-direct probes, because the server's inner layers are not
//! separable from outside. Every READ/GET payload is byte-compared with
//! the shadow model. End-to-end numbers never come from here.

use std::path::Path;
use std::time::Instant;

use crate::report::{Metric, RunResult};
use crate::schema::PER_LAYER;
use crate::seams::{self, Bench, Mode, Unobserved, ENGINE_WRITE_BYTE};
use crate::stats::{median, supported_percentile};
use crate::timed::{account, repetition, sim_replay, untraced, Repetition};
use crate::trace::Tracer;
use crate::verify::{Corrupt, Shadow};
use crate::workloads::{self, Driver, Op, OpClass, Spec, Stream, SIM_REPLAY_OPS};

/// Untraced repetitions the traced run makes, to measure what tracing
/// costs and how far repetitions spread.
const BASE_REPETITIONS: usize = 2;
/// Share of the stream the three-build and recorder comparisons run on.
const SLICE_DIVISOR: usize = 4;
/// Ops the layer-direct probes replay (at scale 1).
const PROBE_OPS: u64 = 20_000;

/// Files metrics under their schema units.
struct Sheet<'a> {
    result: &'a mut RunResult,
}

impl Sheet<'_> {
    fn put(&mut self, name: &str, value: f64) {
        let unit =
            crate::schema::unit_of(name).unwrap_or_else(|| panic!("{name} is not in the schema"));
        self.result.metrics.push(Metric::new(name, value, unit));
    }

    /// The highest supported percentile up to `want` of `samples`; notes
    /// the sample count and any fallback.
    fn percentile(&mut self, name: &str, samples: &mut [u64], want: f64) {
        match supported_percentile(samples, want) {
            Some((p, v)) => {
                if p != want {
                    self.result.notes.push(format!(
                        "{name}: p{p} of {} samples (p{want} lacks ten samples beyond it)",
                        samples.len()
                    ));
                } else {
                    self.result
                        .notes
                        .push(format!("{name}: {} samples", samples.len()));
                }
                self.put(name, v as f64);
            }
            None => self.put(name, 0.0),
        }
    }
}

/// Host ns of one `Instant::now()` pair: the floor under every span.
fn timer_ns() -> f64 {
    let n = 100_000;
    let t = Instant::now();
    let mut acc = 0u128;
    for _ in 0..n {
        let s = Instant::now();
        acc += s.elapsed().as_nanos();
    }
    std::hint::black_box(acc);
    t.elapsed().as_nanos() as f64 / n as f64
}

/// One untraced repetition on `stream` in `mode`, optionally with an
/// enabled recorder installed.
fn slice_run(spec: &Spec, mode: Mode, stream: &Stream, recorder: bool) -> Repetition {
    let observe = |b: &mut Bench| {
        if recorder {
            b.enable_recorder();
        }
        Unobserved
    };
    repetition(spec, mode, stream, observe, false).0
}

/// The per-layer metrics of `spec` for `seed`; the trace goes to
/// `trace_path`.
pub fn run(
    spec: &Spec,
    seed: u64,
    scale: f64,
    corrupt: Option<Corrupt>,
    trace_path: &Path,
) -> RunResult {
    let mut result = RunResult::default();
    let t = Instant::now();
    let stream = workloads::generate(spec, seed, scale);
    let gen_ns = t.elapsed().as_nanos() as f64;
    let n = stream.len() as f64;
    let offered = spec.offered_requests(scale);
    let direct = matches!(spec.driver, Driver::NfsDirect | Driver::WebDirect);

    // Untraced repetitions: the base the tracing overhead is taken from.
    let base_rates: Vec<f64> = (0..BASE_REPETITIONS)
        .map(|i| {
            let rep = untraced(spec, Mode::NCache, &stream);
            account(
                &mut result,
                &format!("untraced {i}"),
                &rep,
                offered,
                corrupt,
            );
            offered as f64 / rep.timed_s
        })
        .collect();

    // The traced replay: same stream, fresh rig, every reply byte-checked.
    // The shadow model snapshots the warmed rig, so the observer is made
    // between set-up and the run.
    let (traced, mut tracer, mut bench) = repetition(
        spec,
        Mode::NCache,
        &stream,
        |b| {
            Tracer::new(
                Shadow::new(b.pristine(), &b.file_sizes(), corrupt),
                stream.len(),
            )
        },
        true,
    );
    account(&mut result, "traced", &traced, offered, corrupt);
    let Repetition {
        timed_s: traced_s,
        outcome,
        allocs,
        counters: delta,
        ..
    } = traced;

    // Engine workloads deliver payloads inside the engine: verify content
    // after the run instead, by reading the file back.
    if !direct {
        let mut shadow = Shadow::new(bench.pristine(), &bench.file_sizes(), corrupt);
        for op in stream.lanes.iter().flatten() {
            if let Op::Write { file, offset, len } = *op {
                shadow.wrote(file, u64::from(offset), u64::from(len), ENGINE_WRITE_BYTE);
            }
        }
        result.attempted += 1;
        if !shadow.matches(0, 0, &bench.read_back_file0()) {
            result.failed += 1;
            result
                .notes
                .push("read-back after the run differs from the shadow model".into());
        }
    }
    drop(bench);

    let mut l = Sheet {
        result: &mut result,
    };

    // --- seam spans and request percentiles ------------------------------
    let [encode, deliver, handle, decode] = tracer.seam_ns.map(|ns| ns as f64 / n);
    l.put("servers.client_encode_ns", encode);
    l.put("servers.stack_deliver_ns", deliver);
    l.put("servers.handle_ns", handle);
    l.put("servers.client_decode_ns", decode);
    let mut all_ns = if direct {
        tracer.all_request_ns()
    } else {
        outcome.run_op_samples.clone()
    };
    l.percentile("request.ns_p50", &mut all_ns, 50.0);
    l.percentile("request.ns_p99", &mut all_ns, 99.0);
    l.percentile("request.read_ns_p50", &mut tracer.read_ns, 50.0);
    l.percentile("request.write_ns_p50", &mut tracer.write_ns, 50.0);
    l.percentile("request.write_ns_p99", &mut tracer.write_ns, 99.0);
    l.percentile("request.meta_ns_p50", &mut tracer.meta_ns, 50.0);
    l.put("obs.hist_record_ns", seams::hist_record_ns(&all_ns));

    // --- exact counts per request ----------------------------------------
    let per = |v: u64| v as f64 / offered as f64;
    let share = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    };
    l.put(
        "netbuf.app.payload_copies_per_req",
        per(delta.app.payload_copies),
    );
    l.put(
        "netbuf.app.logical_copies_per_req",
        per(delta.app.logical_copies),
    );
    l.put("netbuf.app.csum_bytes_per_req", per(delta.app.csum_bytes));
    l.put(
        "netbuf.app.csum_inherited_per_req",
        per(delta.app.csum_inherited),
    );
    l.put("netbuf.app.allocations_per_req", per(delta.app.allocations));
    l.put(
        "netbuf.app.header_bytes_per_req",
        per(delta.app.header_bytes),
    );
    l.put(
        "netbuf.storage.copied_bytes_per_req",
        per(delta.storage.payload_bytes_copied + delta.storage.meta_bytes_copied),
    );
    l.put(
        "netbuf.client.copied_bytes_per_req",
        per(delta.client.payload_bytes_copied + delta.client.meta_bytes_copied),
    );
    l.put("netbuf.pool.slab_allocs_per_req", per(delta.slab_allocs));
    l.put(
        "netbuf.pool.slab_recycle_share",
        share(delta.slab_recycles, delta.slab_allocs + delta.slab_recycles),
    );
    l.put(
        "netbuf.pool.peak_pinned_mb",
        delta.pool_peak_pinned as f64 / (1 << 20) as f64,
    );
    l.put("ncache.lookups_per_req", per(delta.nc_lookups));
    l.put("ncache.hit_ratio", share(delta.nc_hits, delta.nc_lookups));
    l.put("ncache.insertions_per_req", per(delta.nc_insertions));
    l.put("ncache.remaps_per_req", per(delta.nc_remaps));
    l.put("ncache.evicted_clean_per_req", per(delta.nc_evicted_clean));
    l.put("ncache.evicted_dirty_per_req", per(delta.nc_evicted_dirty));
    l.put("ncache.substituted_pkts_per_req", per(delta.nc_substituted));
    l.put("ncache.invalidations", delta.nc_invalidations as f64);
    l.put(
        "simfs.cache_lookups_per_req",
        per(delta.fs_hits + delta.fs_misses),
    );
    l.put(
        "simfs.cache_hit_ratio",
        share(delta.fs_hits, delta.fs_hits + delta.fs_misses),
    );
    l.put("simfs.evicted_clean_per_req", per(delta.fs_evicted_clean));
    l.put("simfs.evicted_dirty_per_req", per(delta.fs_evicted_dirty));
    l.put(
        "servers.initiator.blocks_read_per_req",
        per(delta.ini_blocks_read),
    );
    l.put(
        "servers.initiator.blocks_written_per_req",
        per(delta.ini_blocks_written),
    );
    l.put(
        "servers.initiator.second_level_hits_per_req",
        per(delta.ini_second_level_hits),
    );
    l.put(
        "servers.initiator.zero_copy_reads_per_req",
        per(delta.ini_zero_copy_reads),
    );
    l.put(
        "servers.initiator.zero_copy_writes_per_req",
        per(delta.ini_zero_copy_writes),
    );
    l.put(
        "servers.initiator.admission_failures",
        delta.ini_admission_failures as f64,
    );
    l.put("servers.target.cmds_per_req", per(delta.target_cmds));
    l.put("servers.nfs.drc_inserts_per_req", per(delta.drc_inserts));
    l.put("servers.nfs.errors", delta.server_errors as f64);
    l.put(
        "servers.control.rejected_share",
        share(delta.ctl_rejected, delta.ctl_offered),
    );
    l.put(
        "servers.control.shed_share",
        share(outcome.shed, offered / 2),
    );
    l.put("bench.alloc_bytes_per_req", per(allocs.bytes));

    // --- layer-direct probes ---------------------------------------------
    let probe_n = workloads::scaled(PROBE_OPS, scale, 64) as usize;
    let probe_ops = &stream.lanes[0][..probe_n.min(stream.lanes[0].len())];
    let probes = seams::layer_probes(spec, &stream, probe_ops);
    let probe = |name: &str| {
        probes
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    for (name, value) in &probes {
        l.put(name, *value);
    }
    let (run_op_overhead, derive_ns) =
        seams::run_op_probes(spec, &stream, &probe_ops[..probe_ops.len() / 4]);
    l.put("testbed.run_op_overhead_ns", run_op_overhead);
    l.put("testbed.derive_ns", derive_ns);
    l.put(
        "workload.gen_ns_per_op",
        gen_ns / (stream.warm.len() as f64 + n),
    );
    // What the direct probes explain of the server's handle span, per
    // request of this op mix; the rest is the server's own glue (RPC
    // dispatch, reply assembly, stats) — reported, not hidden.
    let class_share = |c: OpClass| {
        stream.lanes[0].iter().filter(|o| o.class() == c).count() as f64
            / stream.lanes[0].len() as f64
    };
    let lookups_per_req = match spec.driver {
        Driver::WebDirect => 1.0,
        _ => class_share(OpClass::Meta),
    };
    let explained = probe("proto.nfs_codec_ns")
        + probe("proto.http_codec_ns")
        + class_share(OpClass::Read)
            * (probe("simfs.read_ns_per_req") + probe("ncache.substitute_ns_per_req"))
        + class_share(OpClass::Write) * probe("simfs.write_ns_per_req")
        + lookups_per_req * probe("simfs.lookup_ns");
    l.put(
        "servers.handle_residual_ns",
        if direct { handle - explained } else { 0.0 },
    );

    // --- engines -----------------------------------------------------------
    let e = outcome.engine;
    let half = (offered / 2).max(1) as f64;
    let (mut sessions_ns, mut openloop_ns) = (0.0, 0.0);
    if spec.driver == Driver::Overload {
        sessions_ns = (e.sessions_wall_ns - e.sessions_run_op_ns) as f64 / half;
        openloop_ns = (e.openloop_wall_ns - e.openloop_run_op_ns) as f64 / half;
        tracer.engine_span("testbed.run_sessions", 0, e.sessions_wall_ns);
        tracer.engine_span(
            "testbed.run_open_loop",
            e.sessions_wall_ns,
            e.sessions_wall_ns + e.openloop_wall_ns,
        );
    }
    l.put("testbed.sessions.engine_ns_per_req", sessions_ns);
    l.put("testbed.openloop.engine_ns_per_req", openloop_ns);
    let mut lanes = [0.0; 5];
    if spec.driver == Driver::Lanes {
        tracer.engine_span(
            "testbed.run_nfs_sessions_parallel_timed",
            0,
            e.lanes_wall_ns,
        );
        // The traced replay above was the 2-thread run.
        let two = &outcome;
        let one = Bench::setup(spec, Mode::NCache, &stream).run_lanes(&stream, 1);
        let oracle = Bench::setup(spec, Mode::NCache, &stream).run_lanes_sequential(&stream);
        l.result.attempted += one.attempted;
        l.result.failed += one.failed;
        l.result
            .notes
            .extend(one.notes.iter().map(|note| format!("lanes t1: {note}")));
        // The engine promises the sequential engine's result; what must
        // hold exactly is every request accounted for and every byte
        // delivered. Sim time drifts once write-behind flushes land on
        // different ops than in the sequential interleaving — reported.
        for (label, sim) in [("t1", one.sim), ("t2", two.sim)] {
            if (sim.ops, sim.payload_bytes) != (oracle.ops, oracle.payload_bytes) {
                l.result.failed += 1;
                l.result.notes.push(format!(
                    "lanes {label}: {} ops / {} bytes, the sequential oracle has {} / {}",
                    sim.ops, sim.payload_bytes, oracle.ops, oracle.payload_bytes
                ));
            }
        }
        let t1 = one.engine.lanes_functional_ns as f64 / n;
        let t2 = two.engine.lanes_functional_ns as f64 / n;
        lanes = [
            t1,
            t2,
            (two.engine.lanes_wall_ns - two.engine.lanes_functional_ns) as f64 / n,
            t1 / t2,
            100.0 * (two.sim.ops_per_sec - oracle.ops_per_sec).abs() / oracle.ops_per_sec,
        ];
    }
    l.put("testbed.lanes.functional_ns_per_req_t1", lanes[0]);
    l.put("testbed.lanes.functional_ns_per_req_t2", lanes[1]);
    l.put("testbed.lanes.replay_ns_per_req", lanes[2]);
    l.put("testbed.lanes.speedup_t2", lanes[3]);
    l.put("testbed.lanes.oracle_drift_pct", lanes[4]);

    // --- the three builds and the recorder, on one op slice ---------------
    let slice = stream.prefix(stream.len() / SLICE_DIVISOR);
    let ncache = slice_run(spec, Mode::NCache, &slice, false);
    let original = slice_run(spec, Mode::Original, &slice, false);
    let baseline = slice_run(spec, Mode::Baseline, &slice, false);
    let recorded = slice_run(spec, Mode::NCache, &slice, true);
    for (label, rep) in [
        ("ncache", &ncache),
        ("original", &original),
        ("baseline", &baseline),
        ("recorder", &recorded),
    ] {
        // The slice's own offered count differs from the run's; check
        // status and length only.
        l.result.attempted += rep.outcome.attempted;
        l.result.failed += rep.outcome.failed;
        l.result.notes.extend(
            rep.outcome
                .notes
                .iter()
                .map(|note| format!("slice {label}: {note}")),
        );
    }
    l.put("build.ncache.ns_per_req", ncache.ns_per_req());
    l.put("build.original.ns_per_req", original.ns_per_req());
    l.put("build.baseline.ns_per_req", baseline.ns_per_req());
    l.put("build.original.allocs_per_req", original.allocs_per_req());
    l.put("build.baseline.allocs_per_req", baseline.allocs_per_req());
    l.put(
        "ncache.mgmt_ns_per_req",
        ncache.ns_per_req() - baseline.ns_per_req(),
    );
    l.put(
        "obs.recorder_on_overhead_pct",
        100.0 * (recorded.timed_s - ncache.timed_s) / ncache.timed_s,
    );

    // --- sim-time results and the benchmark's own overheads ---------------
    let sim = sim_replay(spec, &stream, scale);
    let sim_n = workloads::scaled(SIM_REPLAY_OPS, scale, 64) as usize;
    let (app_util, storage_util) = seams::sim_utilization(
        Bench::setup(spec, Mode::NCache, &stream),
        &stream.lanes[0][..sim_n.min(stream.lanes[0].len())],
    );
    l.put("sim.throughput_mbs", sim.throughput_mbs);
    l.put("sim.app_cpu_util", app_util);
    l.put("sim.storage_cpu_util", storage_util);
    l.put("sim.p99_latency_us", sim.p99_latency_us);
    let base_rate = median(&base_rates);
    // Direct workloads: the traced rate is taken over the request spans,
    // so the byte-compare of each reply is not billed to tracing.
    let traced_rate = if direct {
        n * 1e9 / tracer.request_ns as f64
    } else {
        offered as f64 / traced_s
    };
    l.put(
        "bench.trace_overhead_pct",
        100.0 * (base_rate - traced_rate) / base_rate,
    );
    l.put("bench.timer_ns", timer_ns());
    let (lo, hi) = base_rates
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &r| (lo.min(r), hi.max(r)));
    l.put("bench.reps_spread_pct", 100.0 * (hi - lo) / base_rate);

    if let Err(e) = tracer.write_jsonl(trace_path) {
        result.failed += 1;
        result
            .notes
            .push(format!("cannot write {}: {e}", trace_path.display()));
    }

    // Report in schema order, every name exactly once.
    let mut ordered = Vec::with_capacity(PER_LAYER.len());
    for (name, _, _) in &PER_LAYER {
        let at = result
            .metrics
            .iter()
            .position(|m| m.name == *name)
            .unwrap_or_else(|| panic!("traced run did not produce {name}"));
        ordered.push(result.metrics.swap_remove(at));
    }
    assert!(
        result.metrics.is_empty(),
        "unlisted metrics: {:?}",
        result.metrics
    );
    result.metrics = ordered;
    result
}
