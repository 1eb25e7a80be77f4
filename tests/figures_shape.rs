//! Shape assertions for every figure in the paper's evaluation (§5.4-§5.5),
//! at a scale small enough that the whole file runs in seconds. The claims
//! themselves live in `tests/claims`, which `tests/golden_figures.rs` also
//! applies to the quick-scale golden tables.

mod claims;

use ncache_repro::testbed::experiments::{fig4, fig5, fig6a, fig6b, fig7, Exp, Scale};

fn tiny() -> Scale {
    Scale {
        allmiss_file: 8 << 20,
        allhit_file: 2 << 20,
        allhit_passes: 2,
        specweb_working_sets: vec![8 << 20, 16 << 20, 32 << 20],
        web_cache_bytes: 16 << 20,
        specweb_requests: 300,
        specsfs_ops: 900,
        specsfs_files: 24,
        specsfs_file_size: 256 << 10,
        overload_requests: 96,
    }
}

#[test]
fn fig4_all_miss_shape() {
    let (thr, cpu) = fig4(&Exp::new(&tiny()));
    claims::fig4(&thr, &cpu);
}

#[test]
fn fig5_all_hit_shape() {
    let (cpu1, thr2) = fig5(&Exp::new(&tiny()));
    claims::fig5(&cpu1, &thr2);
}

#[test]
fn fig6a_specweb_shape() {
    claims::fig6a(&fig6a(&Exp::new(&tiny())));
}

#[test]
fn fig6b_khttpd_request_size_shape() {
    claims::fig6b(&fig6b(&Exp::new(&tiny())));
}

#[test]
fn fig7_specsfs_shape() {
    claims::fig7(&fig7(&Exp::new(&tiny())));
}
