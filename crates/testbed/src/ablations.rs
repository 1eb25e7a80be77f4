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

/// Ablation 1 + 2: all-hit NFS throughput (2 NICs, 32 KB requests) with
/// substitution and checksum-inheritance toggled. Returns a table with one
/// row per variant.
pub fn ablation_mechanisms(hot_file: u64) -> SeriesTable {
    let mut table = SeriesTable::new(
        "Ablation: NCache mechanisms (all-hit NFS, 32 KB, 2 NICs, MB/s)",
        "variant",
    );
    // `(substitution, csum_inherit)`, in `MECHANISM_VARIANTS` order.
    let variants = [(true, true), (true, false), (false, true)];
    for (i, (substitution, csum_inherit)) in variants.into_iter().enumerate() {
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
        table.put(i as f64, "MB/s", result.throughput_mbs);
        table.put(i as f64, "cpu %", result.app_cpu_util * 100.0);
    }
    table
}

/// The default NFS rig of the NCache build with the module's substitution
/// and checksum inheritance set as given — one row of
/// [`ablation_mechanisms`].
pub(crate) fn mechanism_rig(substitution: bool, csum_inherit: bool) -> NfsRig {
    let g: Geometry = NfsRigParams::default().into();
    let config = NcacheConfig {
        substitution,
        csum_inherit,
        ..NcacheConfig::with_capacity(g.ncache_bytes).with_shards(g.shards)
    };
    NfsRig::assemble(ServerMode::NCache, g.fs, config)
}

/// Human-readable variant names for [`ablation_mechanisms`] rows.
pub const MECHANISM_VARIANTS: [&str; 3] =
    ["full ncache", "no csum inheritance", "no substitution"];

/// Ablation 3: the double-buffering sweep. A fixed memory budget is split
/// between the FS buffer cache and the network-centric cache; the paper's
/// design keeps the FS share small. Returns throughput per FS share.
pub fn ablation_fs_cache_share(budget: u64, working_set: u64, requests: usize) -> SeriesTable {
    let mut table = SeriesTable::new(
        "Ablation: FS-cache share of the memory budget (kHTTPd, MB/s)",
        "fs share %",
    );
    for share_pct in [6u64, 12, 25, 50, 75] {
        let fs_bytes = budget * share_pct / 100;
        let params = KhttpdRigParams {
            volume_blocks: (working_set / 4096) * 2 + 4096,
            fs_cache_blocks: (fs_bytes / 4096) as usize,
            ncache_bytes: (budget - fs_bytes).max(1 << 20),
            read_ahead_blocks: 8,
            inode_count: 64 << 10,
            shards: 1,
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
        let result = run(&mut rig, measured.to_vec(), &RunOptions::default());
        table.put(share_pct as f64, "MB/s", result.throughput_mbs);
    }
    table
}

/// Ablation 4: flip the FHO-before-LBN resolution order and count stale
/// reads. Returns `(stale_reads_with_paper_order, stale_reads_lbn_first)`
/// over a read → write → read pattern across `blocks` blocks.
pub fn ablation_lookup_order(blocks: u32) -> (u32, u32) {
    let mut stale = [0u32; 2];
    for (variant, lbn_first) in [(0usize, false), (1, true)] {
        let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
        let fh = rig.create_file("order", u64::from(blocks) * 4096);
        if let Some(module) = rig.module() {
            module
                .borrow_mut()
                .cache_mut()
                .set_resolve_lbn_first(lbn_first);
        }
        for blk in 0..blocks {
            // Read first: the block lands in the LBN cache.
            rig.read(fh, blk * 4096, 4096);
            // Overwrite: the fresh data lands in the FHO cache; the stale
            // LBN chunk is still resident.
            let fresh = vec![blk as u8 ^ 0x77; 4096];
            rig.write(fh, blk * 4096, &fresh);
            // Read back: the paper's order must return the fresh bytes.
            let got = rig.read(fh, blk * 4096, 4096);
            if got != fresh {
                stale[variant] += 1;
            }
        }
    }
    (stale[0], stale[1])
}

/// Every ablation at `scale`, rendered as `repro --ablations` prints it.
pub fn render(scale: &crate::experiments::Scale) -> String {
    let variants: String = MECHANISM_VARIANTS
        .iter()
        .enumerate()
        .map(|(i, name)| format!("  variant {i} = {name}\n"))
        .collect();
    let (fresh, stale) = ablation_lookup_order(32);
    format!(
        "{}\n{variants}\n{}\n\
         # Ablation: resolution order (32 read-write-read blocks)\n\
         FHO-first (paper): {fresh} stale reads\n\
         LBN-first (flipped): {stale} stale reads\n",
        ablation_mechanisms(scale.allhit_file),
        ablation_fs_cache_share(
            scale.web_cache_bytes,
            scale.web_cache_bytes,
            scale.specweb_requests / 2,
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substitution_and_inheritance_cost_what_they_save() {
        let t = ablation_mechanisms(1 << 20);
        let full = t.get(0.0, "MB/s").expect("cell");
        let no_csum = t.get(1.0, "MB/s").expect("cell");
        let no_subst = t.get(2.0, "MB/s").expect("cell");
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
        let t = ablation_fs_cache_share(24 << 20, 24 << 20, 300);
        let small = t.get(12.0, "MB/s").expect("cell");
        let large = t.get(75.0, "MB/s").expect("cell");
        assert!(
            small > large,
            "small FS share {small} must beat large {large} (double buffering)"
        );
    }

    #[test]
    fn lbn_first_order_serves_stale_data() {
        let (paper_order, lbn_first) = ablation_lookup_order(16);
        assert_eq!(paper_order, 0, "the paper's FHO-first order is always fresh");
        assert!(
            lbn_first > 0,
            "LBN-first must exhibit the staleness bug (§3.4)"
        );
    }
}
