//! The seven workloads: geometry, request counts, why each exists, and
//! the seeded op-stream generators. Pure data plus generators — nothing
//! here touches a rig; [`crate::seams`] turns a [`Spec`] into one.
//!
//! The seed feeds only the generators below. The rigs receive generated
//! ops, never the seed.

use crate::seams::{self, Rng};

/// Requests per repetition are sized for `--seconds 10` (five repetitions
/// of about two seconds each on the 2-CPU reference host); other run
/// lengths scale every count by `seconds / 10`.
pub const REFERENCE_SECONDS: f64 = 10.0;

/// Timed repetitions per run; every timed metric is their median.
pub const REPETITIONS: usize = 5;

/// Ops of the stream replayed through the sim-time session engine for
/// `sim_ops_per_s` (at scale 1), and the session count it uses.
pub const SIM_REPLAY_OPS: u64 = 20_000;
pub const SIM_REPLAY_SESSIONS: usize = 8;

/// Block size of the file system and the NCache chunk payload.
pub const BLOCK: u64 = 4096;

/// One generated operation. Files and pages are indices into the set the
/// rig creates at setup ([`Files`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// NFS READ.
    Read { file: u32, offset: u32, len: u32 },
    /// NFS WRITE.
    Write { file: u32, offset: u32, len: u32 },
    /// NFS GETATTR.
    Getattr { file: u32 },
    /// NFS LOOKUP of the file's name in the export root.
    Lookup { file: u32 },
    /// HTTP GET of page `page`.
    Get { page: u32 },
}

/// The coarse class a request is timed under in the traced run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpClass {
    Read,
    Write,
    Meta,
}

impl Op {
    pub fn class(&self) -> OpClass {
        match self {
            Op::Read { .. } | Op::Get { .. } => OpClass::Read,
            Op::Write { .. } => OpClass::Write,
            Op::Getattr { .. } | Op::Lookup { .. } => OpClass::Meta,
        }
    }
}

/// The file set a rig is populated with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Files {
    /// `count` files of `size` bytes holding the rig's deterministic
    /// pattern (written at setup).
    Patterned { count: u32, size: u64 },
    /// `count` files whose blocks are allocated but never written; their
    /// content is the storage server's synthetic blocks.
    Sparse { count: u32, size: u64 },
    /// The SPECweb page set covering `working_set` bytes (sparse pages).
    Pages { working_set: u64 },
}

/// How the timed section is driven.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Driver {
    /// One closed-loop client calling encode → deliver → handle → decode.
    NfsDirect,
    /// The same against the kHTTPd server.
    WebDirect,
    /// Phase A closed-loop sessions, phase B open-loop at 1.5x capacity
    /// with admission control and client retries.
    Overload,
    /// The lane-parallel functional engine on two host threads.
    Lanes,
}

/// Which op mix a workload's generator draws.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Traffic {
    /// 32 KiB reads at 32 KiB-aligned offsets of the hot file.
    HitReads,
    /// 32 KiB reads at block-aligned offsets of the whole file.
    MissReads,
    /// 2 reads : 1 write, 32 KiB, block-aligned.
    WriteMix,
    /// The SPECsfs-like mix, 30 % data ops, 5:1 read:write.
    SpecSfs,
    /// SPECweb GETs, Zipf over the page set.
    SpecWeb,
    /// 50 % 4 KiB hot reads, 50 % GETATTR.
    SmallOps,
    /// Per lane: 95 % 8 KiB reads of the upper half, 5 % 8 KiB writes to
    /// the lane's own slice of the lower half.
    Lanes,
}

/// What the warm pass does before the clock starts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Warm {
    /// Read every file once, sequentially, in `len`-byte requests.
    ReadAll { len: u32 },
    /// Run this many extra generated ops (drawn before the timed ones).
    Ops(u64),
}

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    pub driver: Driver,
    pub traffic: Traffic,
    /// Requests per repetition at `--seconds 10`.
    pub requests: u64,
    pub files: Files,
    pub volume_blocks: u64,
    pub fs_cache_blocks: usize,
    pub ncache_bytes: u64,
    pub shards: usize,
    pub warm: Warm,
}

/// Lanes of `nfs_lanes_t2` and host threads they run on (= `nproc` of the
/// reference host).
pub const LANES: usize = 8;
pub const LANE_THREADS: usize = 2;
/// Sessions of `sim_overload` phase A.
pub const OVERLOAD_SESSIONS: usize = 64;
/// Phase B offers this multiple of phase A's measured sim ops/s.
pub const OVERLOAD_FACTOR: f64 = 1.5;

const HOT_FILE: u64 = 5 << 20;

pub const SPECS: [Spec; 7] = [
    Spec {
        name: "nfs_hit",
        why: "Fig 5 all-hit: 32 KiB reads of a 5 MiB file that fits both caches; codec, stack, NFS hit path and NCache substitution do all the work",
        driver: Driver::NfsDirect,
        traffic: Traffic::HitReads,
        requests: 250_000,
        files: Files::Patterned { count: 1, size: HOT_FILE },
        volume_blocks: 64 << 10,
        fs_cache_blocks: 2048,
        ncache_bytes: 64 << 20,
        shards: 1,
        warm: Warm::ReadAll { len: 32 << 10 },
    },
    Spec {
        name: "nfs_miss",
        why: "Fig 4 all-miss: 32 KiB reads over a 256 MiB file, 16x the NCache; simfs miss path, initiator, iSCSI, target, insert and eviction dominate",
        driver: Driver::NfsDirect,
        traffic: Traffic::MissReads,
        requests: 50_000,
        files: Files::Sparse { count: 1, size: 256 << 20 },
        volume_blocks: 128 << 10,
        fs_cache_blocks: 1024,
        ncache_bytes: 16 << 20,
        shards: 1,
        warm: Warm::Ops(1024),
    },
    Spec {
        name: "nfs_write_mix",
        why: "2 reads : 1 write, 32 KiB, over 32 MiB: reads are second-level NCache hits, writes insert FHO chunks, flushes remap and write back",
        driver: Driver::NfsDirect,
        traffic: Traffic::WriteMix,
        requests: 60_000,
        files: Files::Patterned { count: 1, size: 32 << 20 },
        volume_blocks: 64 << 10,
        fs_cache_blocks: 1024,
        ncache_bytes: 48 << 20,
        shards: 1,
        warm: Warm::ReadAll { len: 32 << 10 },
    },
    Spec {
        name: "nfs_specsfs",
        why: "Fig 7: SPECsfs mix, 70% GETATTR/LOOKUP of ~100-byte messages; per-request cost with almost no payload, so payload work should not move it",
        driver: Driver::NfsDirect,
        traffic: Traffic::SpecSfs,
        requests: 300_000,
        files: Files::Sparse { count: 64, size: 1 << 20 },
        // Caches sized to fit the 64 MiB file set, split as fig7 does.
        volume_blocks: 48 << 10,
        fs_cache_blocks: 3072,
        ncache_bytes: 84 << 20,
        shards: 1,
        warm: Warm::ReadAll { len: 64 << 10 },
    },
    Spec {
        name: "web_specweb",
        why: "Fig 6(a): SPECweb GETs, Zipf over a 64 MiB page set with a 32 MiB NCache; HTTP codec, TCP segmentation, sendfile, partial hit ratio under skew",
        driver: Driver::WebDirect,
        traffic: Traffic::SpecWeb,
        requests: 30_000,
        files: Files::Pages { working_set: 64 << 20 },
        volume_blocks: 32 << 10,
        fs_cache_blocks: 1024,
        ncache_bytes: 32 << 20,
        shards: 1,
        warm: Warm::Ops(5_000),
    },
    Spec {
        name: "sim_overload",
        why: "Cheapest requests (4 KiB hits, GETATTR) through the closed- and open-loop timing engines at 1.5x capacity; engine, admission and retry cost dominate",
        driver: Driver::Overload,
        traffic: Traffic::SmallOps,
        // Phase A and phase B each offer this many.
        requests: 180_000,
        files: Files::Patterned { count: 1, size: HOT_FILE },
        volume_blocks: 64 << 10,
        fs_cache_blocks: 2048,
        ncache_bytes: 64 << 20,
        shards: 1,
        warm: Warm::ReadAll { len: 32 << 10 },
    },
    Spec {
        name: "nfs_lanes_t2",
        why: "The only multi-thread workload: 8 lanes of 8 KiB hits with 5% writes on 2 threads; shard locks, pool mutex and the core write lock",
        driver: Driver::Lanes,
        traffic: Traffic::Lanes,
        requests: 420_000,
        files: Files::Patterned { count: 1, size: HOT_FILE },
        volume_blocks: 64 << 10,
        fs_cache_blocks: 2048,
        ncache_bytes: 64 << 20,
        shards: 8,
        warm: Warm::ReadAll { len: 32 << 10 },
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// `count` scaled to the run length, never below `floor`.
pub fn scaled(count: u64, scale: f64, floor: u64) -> u64 {
    ((count as f64 * scale).round() as u64).max(floor)
}

impl Spec {
    /// Timed requests per repetition at `scale`. Lane and session streams
    /// are dealt evenly, so the count is a multiple of the lane count.
    pub fn timed_requests(&self, scale: f64) -> u64 {
        let n = scaled(self.requests, scale, 64);
        match self.driver {
            Driver::Lanes => n.div_ceil(LANES as u64) * LANES as u64,
            Driver::Overload => n.div_ceil(OVERLOAD_SESSIONS as u64) * OVERLOAD_SESSIONS as u64,
            _ => n,
        }
    }

    /// Requests the run offers per repetition (`sim_overload` offers its
    /// stream twice: closed loop, then open loop).
    pub fn offered_requests(&self, scale: f64) -> u64 {
        match self.driver {
            Driver::Overload => 2 * self.timed_requests(scale),
            _ => self.timed_requests(scale),
        }
    }

    /// Warm ops drawn from the generator ahead of the timed ones.
    pub fn warm_ops(&self) -> u64 {
        match self.warm {
            Warm::Ops(n) => n,
            Warm::ReadAll { .. } => 0,
        }
    }

    /// `(file count, file size)` of an NFS file set.
    pub fn nfs_files(&self) -> (u32, u64) {
        match self.files {
            Files::Patterned { count, size } | Files::Sparse { count, size } => (count, size),
            Files::Pages { .. } => (0, 0),
        }
    }
}

/// A generated op stream: `warm` runs before the clock starts, `lanes`
/// holds the timed ops (one lane for the single-client workloads).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stream {
    pub warm: Vec<Op>,
    pub lanes: Vec<Vec<Op>>,
}

impl Stream {
    /// Timed ops across all lanes.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(Vec::len).sum()
    }

    /// The same stream cut to its first `n` timed ops (spread evenly over
    /// the lanes of a lane workload); the warm ops stay.
    pub fn prefix(&self, n: usize) -> Stream {
        let per = n.div_ceil(self.lanes.len());
        Stream {
            warm: self.warm.clone(),
            lanes: self
                .lanes
                .iter()
                .map(|l| l[..per.min(l.len())].to_vec())
                .collect(),
        }
    }

    /// The first `n` timed ops dealt round-robin into `sessions` streams
    /// (lane workloads keep their own lanes, truncated evenly).
    pub fn sessions(&self, n: usize, sessions: usize) -> Vec<Vec<Op>> {
        if self.lanes.len() > 1 {
            let per = n.div_ceil(self.lanes.len());
            return self
                .lanes
                .iter()
                .map(|l| l[..per.min(l.len())].to_vec())
                .collect();
        }
        let ops = &self.lanes[0][..n.min(self.lanes[0].len())];
        let mut out = vec![Vec::with_capacity(ops.len() / sessions + 1); sessions];
        for (k, op) in ops.iter().enumerate() {
            out[k % sessions].push(*op);
        }
        out
    }
}

/// Draws a block-aligned offset so `len` bytes stay inside `size`.
fn aligned_offset(rng: &mut Rng, size: u64, len: u32, align: u64) -> u32 {
    let slots = (size - u64::from(len)) / align + 1;
    (rng.next_below(slots) * align) as u32
}

/// Generates `spec`'s op stream for `seed` at `scale`.
pub fn generate(spec: &Spec, seed: u64, scale: f64) -> Stream {
    let n = spec.timed_requests(scale) as usize;
    let warm_n = spec.warm_ops() as usize;
    let mut rng = Rng::new(seed);
    let read32k = 32u32 << 10;
    let single = |ops: Vec<Op>| {
        let mut ops = ops;
        let timed = ops.split_off(warm_n);
        Stream {
            warm: ops,
            lanes: vec![timed],
        }
    };
    match spec.traffic {
        Traffic::HitReads => single(
            (0..warm_n + n)
                .map(|_| Op::Read {
                    file: 0,
                    offset: aligned_offset(&mut rng, HOT_FILE, read32k, u64::from(read32k)),
                    len: read32k,
                })
                .collect(),
        ),
        Traffic::MissReads => {
            let (_, size) = spec.nfs_files();
            single(
                (0..warm_n + n)
                    .map(|_| Op::Read {
                        file: 0,
                        offset: aligned_offset(&mut rng, size, read32k, BLOCK),
                        len: read32k,
                    })
                    .collect(),
            )
        }
        Traffic::WriteMix => {
            let (_, size) = spec.nfs_files();
            single(
                (0..warm_n + n)
                    .map(|_| {
                        let offset = aligned_offset(&mut rng, size, read32k, BLOCK);
                        if rng.next_below(3) == 0 {
                            Op::Write {
                                file: 0,
                                offset,
                                len: read32k,
                            }
                        } else {
                            Op::Read {
                                file: 0,
                                offset,
                                len: read32k,
                            }
                        }
                    })
                    .collect(),
            )
        }
        Traffic::SpecSfs => {
            let (count, size) = spec.nfs_files();
            single(seams::specsfs_ops(seed, count, size, 0.30, 5, warm_n + n))
        }
        Traffic::SpecWeb => {
            let Files::Pages { working_set } = spec.files else {
                unreachable!("web_specweb serves a page set");
            };
            single(seams::specweb_ops(seed, working_set, warm_n + n))
        }
        Traffic::SmallOps => single(
            (0..warm_n + n)
                .map(|_| {
                    if rng.next_below(2) == 0 {
                        Op::Read {
                            file: 0,
                            offset: aligned_offset(&mut rng, HOT_FILE, BLOCK as u32, BLOCK),
                            len: BLOCK as u32,
                        }
                    } else {
                        Op::Getattr { file: 0 }
                    }
                })
                .collect(),
        ),
        Traffic::Lanes => {
            // Reads stay in the read-only upper half; lane `l` writes only
            // its own slice of the lower half, so any interleaving of
            // different lanes commutes on file content.
            let span = 8u32 << 10;
            let half = HOT_FILE / 2;
            let region = half / LANES as u64 / u64::from(span) * u64::from(span);
            let lanes = (0..LANES)
                .map(|lane| {
                    (0..n / LANES)
                        .map(|_| {
                            if rng.next_below(20) == 0 {
                                let base = lane as u64 * region;
                                Op::Write {
                                    file: 0,
                                    offset: base as u32
                                        + aligned_offset(&mut rng, region, span, u64::from(span)),
                                    len: span,
                                }
                            } else {
                                Op::Read {
                                    file: 0,
                                    offset: half as u32
                                        + aligned_offset(&mut rng, half, span, u64::from(span)),
                                    len: span,
                                }
                            }
                        })
                        .collect()
                })
                .collect();
            Stream {
                warm: Vec::new(),
                lanes,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_findable() {
        for (i, s) in SPECS.iter().enumerate() {
            assert_eq!(find(s.name).map(|f| f.name), Some(s.name));
            assert!(
                SPECS[..i].iter().all(|t| t.name != s.name),
                "{} repeats",
                s.name
            );
            assert!(
                s.why.len() <= 200 && !s.why.contains('\n'),
                "{}: why fits one line",
                s.name
            );
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for spec in &SPECS {
            let a = generate(spec, 7, 0.01);
            assert_eq!(a, generate(spec, 7, 0.01), "{}", spec.name);
            assert_ne!(a, generate(spec, 8, 0.01), "{}", spec.name);
            assert_eq!(a.len() as u64, spec.timed_requests(0.01), "{}", spec.name);
            assert_eq!(a.warm.len() as u64, spec.warm_ops(), "{}", spec.name);
        }
    }

    #[test]
    fn every_op_stays_inside_its_file() {
        for spec in SPECS.iter().filter(|s| s.driver != Driver::WebDirect) {
            let (count, size) = spec.nfs_files();
            let stream = generate(spec, 3, 0.02);
            for op in stream.warm.iter().chain(stream.lanes.iter().flatten()) {
                match *op {
                    Op::Read { file, offset, len } | Op::Write { file, offset, len } => {
                        assert!(file < count, "{}", spec.name);
                        assert_eq!(u64::from(offset) % BLOCK, 0, "{}: aligned", spec.name);
                        assert!(u64::from(offset) + u64::from(len) <= size, "{}", spec.name);
                    }
                    Op::Getattr { file } | Op::Lookup { file } => assert!(file < count),
                    Op::Get { .. } => panic!("{}: HTTP op on an NFS workload", spec.name),
                }
            }
        }
    }

    #[test]
    fn lane_writes_are_disjoint_and_below_the_read_half() {
        let spec = find("nfs_lanes_t2").expect("workload exists");
        let stream = generate(spec, 11, 0.05);
        assert_eq!(stream.lanes.len(), LANES);
        let mut owner = std::collections::BTreeMap::new();
        let mut writes = 0;
        for (lane, ops) in stream.lanes.iter().enumerate() {
            for op in ops {
                match *op {
                    Op::Write { offset, len, .. } => {
                        writes += 1;
                        assert!(u64::from(offset + len) <= HOT_FILE / 2, "writes stay low");
                        assert_eq!(
                            *owner.entry(offset).or_insert(lane),
                            lane,
                            "one lane per slot"
                        );
                    }
                    Op::Read { offset, .. } => assert!(u64::from(offset) >= HOT_FILE / 2),
                    _ => panic!("lanes issue reads and writes only"),
                }
            }
        }
        assert!(writes > 0, "the 5% write share shows at this scale");
    }

    #[test]
    fn write_mix_is_about_one_third_writes() {
        let spec = find("nfs_write_mix").expect("workload exists");
        let stream = generate(spec, 5, 0.1);
        let writes = stream.lanes[0]
            .iter()
            .filter(|o| o.class() == OpClass::Write)
            .count();
        let share = writes as f64 / stream.len() as f64;
        assert!((0.30..0.37).contains(&share), "write share {share}");
    }

    #[test]
    fn sessions_deal_round_robin_and_keep_lanes() {
        let spec = find("nfs_hit").expect("workload exists");
        let stream = generate(spec, 1, 0.001);
        let dealt = stream.sessions(100, 8);
        assert_eq!(dealt.len(), 8);
        assert_eq!(dealt.iter().map(Vec::len).sum::<usize>(), 100);
        assert_eq!(dealt[3][0], stream.lanes[0][3]);
        let lanes = generate(find("nfs_lanes_t2").expect("exists"), 1, 0.001);
        let kept = lanes.sessions(80, 8);
        assert_eq!(kept.len(), LANES);
        assert!(kept.iter().all(|l| l.len() == 10));
    }

    #[test]
    fn prefix_keeps_warm_ops_and_cuts_every_lane() {
        let lanes = generate(find("nfs_lanes_t2").expect("exists"), 1, 0.001);
        let cut = lanes.prefix(16);
        assert_eq!(cut.lanes.len(), LANES);
        assert!(cut
            .lanes
            .iter()
            .zip(&lanes.lanes)
            .all(|(c, l)| c[..] == l[..2]));
        let miss = generate(find("nfs_miss").expect("exists"), 1, 0.01);
        let cut = miss.prefix(10);
        assert_eq!((cut.warm.len(), cut.len()), (miss.warm.len(), 10));
    }

    #[test]
    fn scaling_rounds_and_floors() {
        assert_eq!(scaled(250_000, 0.5, 64), 125_000);
        assert_eq!(scaled(100, 0.001, 64), 64);
        let lanes = find("nfs_lanes_t2").expect("exists");
        assert_eq!(lanes.timed_requests(0.0) % LANES as u64, 0);
        let over = find("sim_overload").expect("exists");
        assert_eq!(over.offered_requests(1.0), 2 * over.timed_requests(1.0));
    }
}
