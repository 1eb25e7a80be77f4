//! One bench per row of the experiment registry (`experiments::ALL`).
//!
//! Each bench renders the corresponding experiment at a reduced scale and
//! reports its wall-clock; the printed SeriesTable rows themselves come
//! from the `repro` binary. Keeping the experiments inside `cargo bench`
//! means `cargo bench --workspace` regenerates every artifact of §5 and
//! leaves per-experiment timings in `BENCH_figures.json`.

use check::bench::Harness;
use servers::ServerMode;
use testbed::experiments::{Exp, Scale, ALL};
use testbed::nfs_rig::{NfsRig, NfsRigParams};
use testbed::runner::DriverOp;
use testbed::sessions::{run_nfs_sessions_parallel_timed, SessionsOptions};

fn bench_scale() -> Scale {
    Scale {
        allmiss_file: 4 << 20,
        allhit_file: 1 << 20,
        allhit_passes: 1,
        specweb_working_sets: vec![8 << 20, 16 << 20],
        web_cache_bytes: 12 << 20,
        specweb_requests: 150,
        specsfs_ops: 400,
        specsfs_files: 16,
        specsfs_file_size: 128 << 10,
        overload_requests: 192,
    }
}

fn main() {
    let scale = bench_scale();
    let exp = Exp::new(&scale);
    let threads = exp.threads;
    let mut h = Harness::new("figures");
    h.threads(threads);

    {
        let mut g = h.group("figures");
        g.sample_size(10);
        for e in &ALL {
            g.bench(e.selector, || (e.run)(&exp).to_string());
        }
    }

    // The quantile engine itself: record a deterministic heavy-tailed
    // stream into the sub-bucketed histogram, merge a second recorder's
    // worth, and read a quantile ladder from the snapshot. This is the
    // hot path of every latency report, so ci.sh gates its median.
    {
        let mut g = h.group("obs");
        g.sample_size(20);
        g.bench("quantile_engine", || {
            let mut a = obs::Histogram::new();
            let mut b = obs::Histogram::new();
            let mut x = 0x9e3779b97f4a7c15u64;
            for i in 0..4096u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let v = (x % 1_000_000) << (i % 12);
                if i % 2 == 0 {
                    a.record(v);
                } else {
                    b.record(v);
                }
            }
            a.absorb(&b);
            let snap = a.snapshot();
            let mut acc = 0u64;
            for q in 1..=1000 {
                acc ^= snap.quantile(q as f64 / 1000.0);
            }
            acc
        });
    }

    // Functional-phase wall clock of the lane-parallel engine on a
    // read-heavy warm workload, at 1 / 2 / max host threads, and the
    // derived speedup. The timed entry point measures only the phase
    // that actually runs on host threads (the timing replay is serial
    // by design). On a single-CPU host the speedup sits near 1.0 —
    // the metric records what the host delivered, it does not fake a
    // multi-core result.
    {
        const FILE: u64 = 4 << 20;
        const SPAN: u32 = 16 << 10;
        let build = || {
            let mut rig = NfsRig::new(
                ServerMode::NCache,
                NfsRigParams {
                    shards: 8,
                    ..NfsRigParams::default()
                },
            );
            let fh = rig.create_file("speedup", FILE);
            let mut off = 0u64;
            while off < FILE {
                rig.read(fh, off as u32, 64 << 10);
                off += 64 << 10;
            }
            (rig, fh)
        };
        let sessions_for = |fh: u64| -> Vec<Vec<DriverOp>> {
            (0..64u64)
                .map(|sid| {
                    (0..16u64)
                        .map(|k| DriverOp::Read {
                            fh,
                            offset: (((sid * 31 + k * 7) % (FILE / u64::from(SPAN)))
                                * u64::from(SPAN)) as u32,
                            len: SPAN,
                        })
                        .collect()
                })
                .collect()
        };
        // Rounds alternate the thread counts, so a burst of host noise
        // lands on every count alike. Each count reports its best round;
        // the two-thread gate reads the median of the per-round t2 / t1
        // ratios, which a busy minute moves far less than one best-of-3.
        const ROUNDS: usize = 7;
        let mut counts: Vec<usize> = vec![1, 2, threads];
        counts.sort_unstable();
        counts.dedup();
        let mut walls = vec![Vec::with_capacity(ROUNDS); counts.len()];
        for _ in 0..ROUNDS {
            for (&t, wall) in counts.iter().zip(&mut walls) {
                let (rig, fh) = build();
                let (_, _, elapsed) = run_nfs_sessions_parallel_timed(
                    rig,
                    sessions_for(fh),
                    &SessionsOptions::default(),
                    t,
                    0xBEEF,
                );
                wall.push(elapsed.as_secs_f64() * 1e3);
            }
        }
        let best = |wall: &[f64]| wall.iter().copied().fold(f64::INFINITY, f64::min);
        for (&t, wall) in counts.iter().zip(&walls) {
            h.metric(format!("sessions.parallel_wall_ms.t{t}"), best(wall));
        }
        // `counts` starts 1, 2: rounds pair up index by index.
        let mut ratios: Vec<f64> = walls[0]
            .iter()
            .zip(&walls[1])
            .map(|(t1, t2)| t2 / t1)
            .collect();
        ratios.sort_by(f64::total_cmp);
        h.metric("sessions.parallel_ratio_t2_t1", ratios[ROUNDS / 2]);
        let tmax = best(walls.last().expect("at least one thread count"));
        h.metric("sessions.parallel_speedup", best(&walls[0]) / tmax);
    }

    h.finish();
}
