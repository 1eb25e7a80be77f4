//! The timing engine's event order, pinned by digest.
//!
//! `trace_determinism` compares two runs of the same build; this file
//! compares every run against a committed record. Each traced run below
//! exports its events as JSONL, and the FNV-1a 64-bit hash of those bytes
//! is one line of `tests/golden/trace_digests.txt`. A request event
//! carries its sim-time stamp, lane and per-stage queue/service breakdown,
//! so any change in the order the engine serves stages, breaks a
//! same-instant tie or fires an arrival moves a digest even where every
//! aggregate in the rendered tables stays put.
//!
//! The four runs cover the engine's arrival processes: `fig4` (the shared
//! queue, with write-behind background chains), `clients_sweep` (one lane
//! per session), the protected overload sweep (the open-loop schedule,
//! gate rejections, retry backoff and same-instant ties) and the adaptive
//! sweep (controller epoch ticks over the tiered backend).

use ncache_repro::obs::{export_jsonl, Recorder, TraceConfig};
use ncache_repro::testbed::experiments::{self, Exp, Scale};

fn scale() -> Scale {
    Scale {
        allmiss_file: 2 << 20,
        allhit_file: 1 << 20,
        allhit_passes: 1,
        specweb_working_sets: vec![4 << 20],
        web_cache_bytes: 6 << 20,
        specweb_requests: 60,
        specsfs_ops: 100,
        specsfs_files: 8,
        specsfs_file_size: 64 << 10,
        overload_requests: 64,
    }
}

/// FNV-1a, 64-bit: a hash whose value is fixed by its definition, not by
/// the toolchain (unlike `DefaultHasher`).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The digest line of one traced run: its name, the hash of its JSONL
/// export and the export's length in bytes. The export must contain each
/// of `covers`, the evidence that the run exercises what it is here for.
fn digest(name: &str, covers: &[&str], run: impl FnOnce(&Exp)) -> String {
    let rec = Recorder::new();
    rec.enable(TraceConfig::default());
    let scale = scale();
    run(&Exp {
        rec: Some(&rec),
        ..Exp::new(&scale)
    });
    assert_eq!(rec.dropped(), 0, "{name}: the ring buffer must not drop at this scale");
    let jsonl = export_jsonl(&rec.events());
    for needle in covers {
        assert!(jsonl.contains(needle), "{name}: no {needle} in the trace");
    }
    format!("{name} {:016x} {}\n", fnv1a(jsonl.as_bytes()), jsonl.len())
}

#[test]
fn traced_runs_match_their_recorded_digests() {
    let rendered = [
        digest("fig4", &[r#""stage":"disk""#], |x| drop(experiments::fig4(x))),
        digest("clients_sweep", &[r#""lane":2,"#], |x| drop(experiments::clients_sweep(x))),
        digest(
            "overload_sweep_protected",
            &[r#""stage":"client-backoff""#, r#""path":"shed""#],
            |x| drop(experiments::overload_ablation(x)),
        ),
        digest("adaptive_sweep", &[r#""stage":"disk""#], |x| {
            drop(experiments::adaptive_ablation(x))
        }),
    ]
    .concat();
    let path = format!("{}/tests/golden/trace_digests.txt", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).expect("golden file");
    assert_eq!(rendered, golden, "traced event streams depart from {path}");
}

#[test]
fn the_digest_is_fnv1a() {
    // The published FNV-1a 64 test vectors.
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
}
