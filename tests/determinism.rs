//! Determinism regression (DESIGN invariant 7): the simulation is a pure
//! function of its inputs. Running the same experiment twice in one
//! process must produce bit-identical series — no wall-clock, no global
//! RNG, no iteration-order dependence may leak into results.

use ncache_repro::testbed::experiments::{self, Exp, Scale};

/// Small-but-nontrivial sizing: big enough to exercise eviction, read-ahead
/// and both cache halves, small enough to run twice in a test.
fn scale() -> Scale {
    Scale {
        allmiss_file: 2 << 20,
        allhit_file: 1 << 20,
        allhit_passes: 1,
        specweb_working_sets: vec![4 << 20, 8 << 20],
        web_cache_bytes: 6 << 20,
        specweb_requests: 80,
        specsfs_ops: 200,
        specsfs_files: 8,
        specsfs_file_size: 64 << 10,
        overload_requests: 96,
    }
}

#[test]
fn fig4_all_miss_is_bit_identical_across_runs() {
    let s = scale();
    let (thr_a, cpu_a) = experiments::fig4(&Exp::new(&s));
    let (thr_b, cpu_b) = experiments::fig4(&Exp::new(&s));
    assert_eq!(thr_a, thr_b, "throughput series diverged between runs");
    assert_eq!(cpu_a, cpu_b, "CPU-utilization series diverged between runs");
}

#[test]
fn fig7_specsfs_is_bit_identical_across_runs() {
    // SPECsfs drives its own seeded RNG through namespace ops — the
    // experiment most likely to pick up accidental nondeterminism.
    let s = scale();
    let a = experiments::fig7(&Exp::new(&s));
    let b = experiments::fig7(&Exp::new(&s));
    assert_eq!(a, b, "SPECsfs series diverged between runs");
}
