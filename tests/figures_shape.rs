//! Shape assertions for every figure in the paper's evaluation (§5.4-§5.5).
//!
//! Absolute throughput depends on the calibrated cost model; these tests
//! pin down what must hold regardless: who wins, roughly by how much, and
//! which resource is the bottleneck. Scales are kept small so the whole
//! file runs in seconds; EXPERIMENTS.md records the quick-scale numbers
//! next to the paper's.

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
    for &req_kb in &[16.0, 32.0] {
        let orig = thr.get(req_kb, "original").expect("cell");
        let nc = thr.get(req_kb, "ncache").expect("cell");
        let base = thr.get(req_kb, "baseline").expect("cell");
        // Paper: 29-36 % gain at ≥16 KB, NCache similar to baseline.
        let gain = nc / orig - 1.0;
        assert!(
            (0.15..0.70).contains(&gain),
            "all-miss gain at {req_kb} KB = {gain:.2}"
        );
        assert!(base >= nc * 0.95, "baseline at least matches NCache");
        // The original's server CPU is pinned; NCache's falls below it.
        let cpu_orig = cpu.get(req_kb, "original").expect("cell");
        let cpu_nc = cpu.get(req_kb, "ncache").expect("cell");
        assert!(cpu_orig > 85.0, "original CPU saturated: {cpu_orig}");
        assert!(cpu_nc < cpu_orig, "NCache relieves the server CPU");
    }
    // CPU utilization of the zero-copy builds falls as requests grow.
    let nc4 = cpu.get(4.0, "ncache").expect("cell");
    let nc32 = cpu.get(32.0, "ncache").expect("cell");
    assert!(nc32 < nc4, "NCache CPU decreases with request size");
}

#[test]
fn fig5_all_hit_shape() {
    let (cpu1, thr2) = fig5(&Exp::new(&tiny()));
    // (a) one NIC: the original's CPU saturates throughout; the zero-copy
    // builds' utilization falls with request size once the link binds.
    for &req_kb in &[4.0, 8.0, 16.0, 32.0] {
        let orig = cpu1.get(req_kb, "original").expect("cell");
        assert!(orig > 95.0, "original saturated at {req_kb} KB: {orig}");
    }
    let nc32 = cpu1.get(32.0, "ncache").expect("cell");
    let base32 = cpu1.get(32.0, "baseline").expect("cell");
    assert!(nc32 < 90.0, "NCache CPU relieved at 32 KB: {nc32}");
    assert!(base32 < nc32, "baseline saves even more CPU");

    // (b) two NICs, CPU-bound: the paper's headline — +92 % for NCache,
    // +143 % for the ideal baseline at 32 KB; original flattens after 8 KB.
    let orig8 = thr2.get(8.0, "original").expect("cell");
    let orig32 = thr2.get(32.0, "original").expect("cell");
    assert!(
        orig32 < orig8 * 1.45,
        "original saturates: {orig8} → {orig32}"
    );
    let nc32t = thr2.get(32.0, "ncache").expect("cell");
    let base32t = thr2.get(32.0, "baseline").expect("cell");
    let gain_nc = nc32t / orig32 - 1.0;
    let gain_base = base32t / orig32 - 1.0;
    assert!(
        (0.6..1.4).contains(&gain_nc),
        "NCache all-hit gain at 32 KB = {gain_nc:.2} (paper: 0.92)"
    );
    assert!(
        (1.0..1.9).contains(&gain_base),
        "baseline all-hit gain at 32 KB = {gain_base:.2} (paper: 1.43)"
    );
    // NCache grows continuously with request size.
    let nc4 = thr2.get(4.0, "ncache").expect("cell");
    let nc16 = thr2.get(16.0, "ncache").expect("cell");
    assert!(nc4 < nc16 && nc16 < nc32t, "NCache keeps growing");
}

#[test]
fn fig6a_specweb_shape() {
    let scale = tiny();
    let thr = fig6a(&Exp::new(&scale));
    let ws: Vec<f64> = thr.xs();
    for &w in &ws {
        let orig = thr.get(w, "original").expect("cell");
        let nc = thr.get(w, "ncache").expect("cell");
        let base = thr.get(w, "baseline").expect("cell");
        // Paper: 10-20 % NCache gain, larger for the baseline.
        assert!(nc > orig, "NCache wins at {w} MB: {nc} vs {orig}");
        assert!(base > orig, "baseline wins at {w} MB");
    }
    // Throughput drops for every build as the working set outgrows the
    // caches.
    for series in ["original", "ncache", "baseline"] {
        let first = thr.get(ws[0], series).expect("cell");
        let last = thr.get(*ws.last().expect("non-empty"), series).expect("cell");
        assert!(
            last < first,
            "{series}: throughput must fall with working set ({first} → {last})"
        );
    }
}

#[test]
fn fig6b_khttpd_request_size_shape() {
    let thr = fig6b(&Exp::new(&tiny()));
    // Gain grows with request size (paper: ~8 % at 16 KB → ~47 % at 128 KB).
    let gain = |req: f64| {
        thr.get(req, "ncache").expect("cell") / thr.get(req, "original").expect("cell") - 1.0
    };
    let g16 = gain(16.0);
    let g128 = gain(128.0);
    assert!(g16 > 0.0, "NCache wins at 16 KB: {g16:.2}");
    assert!(
        g128 > g16 + 0.10,
        "gain grows with request size: {g16:.2} → {g128:.2}"
    );
    assert!(
        (0.2..0.7).contains(&g128),
        "gain at 128 KB = {g128:.2} (paper: 0.47)"
    );
    // The ideal baseline bounds NCache from above.
    for &req in &[16.0, 32.0, 64.0, 128.0] {
        assert!(
            thr.get(req, "baseline").expect("cell") >= thr.get(req, "ncache").expect("cell"),
            "baseline ≥ NCache at {req} KB"
        );
    }
}

#[test]
fn fig7_specsfs_shape() {
    let table = fig7(&Exp::new(&tiny()));
    for &pct in &[30.0, 45.0, 60.0, 75.0] {
        let orig = table.get(pct, "original").expect("cell");
        let nc = table.get(pct, "ncache").expect("cell");
        let base = table.get(pct, "baseline").expect("cell");
        // Paper: NCache consistently above the original (16-19 %).
        assert!(
            nc > orig * 0.98,
            "NCache at {pct}% data ops: {nc:.0} vs {orig:.0}"
        );
        // The zero-copy baseline bounds what any cache organization gains.
        assert!(
            base >= nc,
            "baseline at {pct}% data ops: {base:.0} vs NCache {nc:.0}"
        );
    }
    // The gain is larger when regular-data operations dominate.
    let gain_lo = table.get(30.0, "ncache").expect("cell")
        / table.get(30.0, "original").expect("cell");
    let gain_hi = table.get(75.0, "ncache").expect("cell")
        / table.get(75.0, "original").expect("cell");
    assert!(
        gain_hi > gain_lo - 0.02,
        "gain should not shrink as data ops grow: {gain_lo:.2} → {gain_hi:.2}"
    );
}
