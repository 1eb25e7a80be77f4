//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Each ablation flips exactly one mechanism of the NCache design and
//! measures what the paper's choice buys:
//!
//! 1. **Substitution off** — the headline mechanism. Without it the junk
//!    placeholders go out (as in the baseline build), so this isolates the
//!    CPU cost of substitution itself.
//! 2. **Checksum inheritance off** — substituted packets recompute their
//!    checksums in software (§1 argues inheritance avoids exactly this).
//! 3. **FS-cache share sweep** — the double-buffering question (§3.4):
//!    how much of the memory budget should the (duplicated) file-system
//!    cache keep when the network-centric cache backs it as a second
//!    level?
//! 4. **LBN-before-FHO lookup** — flipping §3.4's resolution order, which
//!    must produce stale reads after writes.

use ncache::NcacheConfig;
use servers::ServerMode;
use sim::stats::SeriesTable;

use crate::experiments::Exp;
use crate::khttpd_rig::{KhttpdRig, KhttpdRigParams};
use crate::nfs_rig::{NfsRig, NfsRigParams};
use crate::rig::Geometry;
use crate::runner::{run, DriverOp, RigDriver, RunOptions};

// Not `experiments::seq_ops`: that clips a trailing partial READ to EOF,
// this drops it, and the two differ whenever `req` does not divide `total`.
fn seq_reads(fh: u64, total: u64, req: u32) -> Vec<DriverOp> {
    (0..total / u64::from(req))
        .map(|i| DriverOp::Read {
            fh,
            offset: (i * u64::from(req)) as u32,
            len: req,
        })
        .collect()
}

/// Ablation 1 + 2: all-hit NFS (2 NICs, 32 KB requests) with substitution
/// and checksum inheritance set as given; returns `[MB/s, CPU %]`.
fn mechanism_run(hot_file: u64, substitution: bool, csum_inherit: bool) -> [f64; 2] {
    let mut rig = mechanism_rig(substitution, csum_inherit);
    let fh = rig.create_file("hot", hot_file);
    for op in seq_reads(fh, hot_file, 32 << 10) {
        rig.run_op(&op);
    }
    let result = run(
        &mut rig,
        seq_reads(fh, hot_file, 32 << 10),
        &RunOptions {
            nics: 2,
            ..RunOptions::default()
        },
    );
    [result.throughput_mbs, result.app_cpu_util * 100.0]
}

/// The default NFS rig of the NCache build with the module's substitution
/// and checksum inheritance set as given — one row of the mechanisms
/// ablation.
pub(crate) fn mechanism_rig(substitution: bool, csum_inherit: bool) -> NfsRig {
    let g: Geometry = NfsRigParams::default().into();
    let config = NcacheConfig {
        substitution,
        csum_inherit,
        ..NcacheConfig::with_capacity(g.ncache_bytes)
    };
    NfsRig::assemble(ServerMode::NCache, g.fs, config)
}

/// The mechanisms ablation's `(substitution, csum_inherit)` variants, each
/// with the name its row prints.
const MECHANISM_VARIANTS: [((bool, bool), &str); 3] = [
    ((true, true), "full ncache"),
    ((true, false), "no csum inheritance"),
    ((false, true), "no substitution"),
];

/// The FS shares, in percent, the double-buffering sweep tries.
const FS_SHARES: [u64; 5] = [6, 12, 25, 50, 75];

/// Ablation 3: the double-buffering sweep. A fixed memory budget is split
/// between the FS buffer cache and the network-centric cache; the paper's
/// design keeps the FS share small. Returns the kHTTPd MB/s when the FS
/// cache keeps `share_pct` percent of `budget`.
fn fs_share_run(budget: u64, working_set: u64, requests: usize, share_pct: u64) -> f64 {
    let fs_bytes = budget * share_pct / 100;
    let params = KhttpdRigParams {
        volume_blocks: (working_set / 4096) * 2 + 4096,
        fs_cache_blocks: (fs_bytes / 4096) as usize,
        ncache_bytes: (budget - fs_bytes).max(1 << 20),
        read_ahead_blocks: 8,
        inode_count: 64 << 10,
        ..KhttpdRigParams::default()
    };
    let mut rig = KhttpdRig::new(ServerMode::NCache, params);
    let set = workload::specweb::PageSet::with_working_set(working_set);
    for (name, size) in set.pages() {
        rig.publish_sparse(&name, size);
    }
    rig.quiesce();
    let gen = workload::specweb::SpecWeb::new(set, 99);
    let ops: Vec<DriverOp> = gen
        .take(requests + requests / 3)
        .map(|op| DriverOp::Get { path: op.path })
        .collect();
    let (warm, measured) = ops.split_at(requests / 3);
    for op in warm {
        rig.run_op(op);
    }
    run(&mut rig, measured.to_vec(), &RunOptions::default()).throughput_mbs
}

/// Ablation 4: the FHO-before-LBN resolution order, flipped when
/// `lbn_first`. Returns the stale reads over a read → write → read pattern
/// across `blocks` blocks.
fn stale_reads(blocks: u32, lbn_first: bool) -> u32 {
    let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
    let fh = rig.create_file("order", u64::from(blocks) * 4096);
    if let Some(module) = rig.module() {
        module
            .borrow_mut()
            .cache_mut()
            .set_resolve_lbn_first(lbn_first);
    }
    let mut stale = 0;
    for blk in 0..blocks {
        // Read first: the block lands in the LBN cache.
        rig.read(fh, blk * 4096, 4096);
        // Overwrite: the fresh data lands in the FHO cache; the stale
        // LBN chunk is still resident.
        let fresh = vec![blk as u8 ^ 0x77; 4096];
        rig.write(fh, blk * 4096, &fresh);
        // Read back: the paper's order must return the fresh bytes.
        if rig.read(fh, blk * 4096, 4096) != fresh {
            stale += 1;
        }
    }
    stale
}

/// One cell of the ablations: one variant of one study.
#[derive(Clone, Copy)]
enum Cell {
    /// A mechanisms variant: its index in [`MECHANISM_VARIANTS`].
    Mechanism(usize),
    /// The FS cache's share of the budget, percent.
    FsShare(u64),
    /// The resolution order, LBN first when set.
    LookupOrder(bool),
}

/// Every ablation at `x.scale`, rendered as `repro --ablations` prints it.
/// Each variant of each study is one cell of `x`'s sweep, so the studies
/// run on `x.threads` workers and merge in cell order.
pub fn render(x: &Exp) -> String {
    let scale = x.scale;
    let cells: Vec<Cell> = (0..MECHANISM_VARIANTS.len())
        .map(Cell::Mechanism)
        .chain(FS_SHARES.map(Cell::FsShare))
        .chain([false, true].map(Cell::LookupOrder))
        .collect();
    // Each cell's figures: `[MB/s, CPU %]` of a mechanisms run, MB/s of a
    // share, stale reads of a resolution order.
    let results = x.sweep(&cells, |_, cell, _| match cell {
        Cell::Mechanism(i) => {
            let ((substitution, csum_inherit), _) = MECHANISM_VARIANTS[i];
            mechanism_run(scale.allhit_file, substitution, csum_inherit)
        }
        Cell::FsShare(pct) => {
            let budget = scale.web_cache_bytes;
            [fs_share_run(budget, budget, scale.specweb_requests / 2, pct), 0.0]
        }
        Cell::LookupOrder(lbn_first) => [f64::from(stale_reads(32, lbn_first)), 0.0],
    });
    let mut mechanisms = SeriesTable::new(
        "Ablation: NCache mechanisms (all-hit NFS, 32 KB, 2 NICs, MB/s)",
        "variant",
    );
    let mut shares = SeriesTable::new(
        "Ablation: FS-cache share of the memory budget (kHTTPd, MB/s)",
        "fs share %",
    );
    let mut stale = [0.0; 2];
    for (cell, [a, b]) in results {
        match cell {
            Cell::Mechanism(i) => {
                mechanisms.put(i as f64, "MB/s", a);
                mechanisms.put(i as f64, "cpu %", b);
            }
            Cell::FsShare(pct) => shares.put(pct as f64, "MB/s", a),
            Cell::LookupOrder(lbn_first) => stale[usize::from(lbn_first)] = a,
        }
    }
    let variants: String = MECHANISM_VARIANTS
        .iter()
        .enumerate()
        .map(|(i, (_, name))| format!("  variant {i} = {name}\n"))
        .collect();
    let [fresh, stale] = stale;
    format!(
        "{mechanisms}\n{variants}\n{shares}\n\
         # Ablation: resolution order (32 read-write-read blocks)\n\
         FHO-first (paper): {fresh} stale reads\n\
         LBN-first (flipped): {stale} stale reads\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substitution_and_inheritance_cost_what_they_save() {
        let [full, _] = mechanism_run(1 << 20, true, true);
        let [no_csum, _] = mechanism_run(1 << 20, true, false);
        let [no_subst, _] = mechanism_run(1 << 20, false, true);
        // Recomputing checksums costs throughput on the CPU-bound path.
        assert!(
            no_csum < full,
            "inheritance must help: {no_csum} vs {full}"
        );
        // Without substitution the server does strictly less work (it
        // ships junk), so it cannot be slower than the full design; the
        // gap is the substitution cost the paper accepts for correctness.
        assert!(no_subst >= full * 0.98, "{no_subst} vs {full}");
    }

    #[test]
    fn small_fs_cache_share_wins_under_pressure() {
        // With the working set around the budget, giving most memory to
        // the network-centric cache (small FS share) must beat giving most
        // of it to the duplicating FS cache.
        let small = fs_share_run(24 << 20, 24 << 20, 300, 12);
        let large = fs_share_run(24 << 20, 24 << 20, 300, 75);
        assert!(
            small > large,
            "small FS share {small} must beat large {large} (double buffering)"
        );
    }

    #[test]
    fn lbn_first_order_serves_stale_data() {
        assert_eq!(stale_reads(16, false), 0, "the paper's FHO-first order is always fresh");
        assert!(
            stale_reads(16, true) > 0,
            "LBN-first must exhibit the staleness bug (§3.4)"
        );
    }
}
