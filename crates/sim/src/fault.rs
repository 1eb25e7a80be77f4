//! Deterministic fault injection for the pass-through data path.
//!
//! A [`FaultPlan`] is a seeded source of fault decisions for the two
//! network links of the testbed (client ⇄ NFS/kHTTPd server and iSCSI
//! initiator ⇄ target) plus the block device underneath the target. Each
//! link owns an independent [`SplitMix64`] stream
//! derived from the plan seed, so the decision sequence on one link never
//! depends on traffic (or thread scheduling) on another: the same seed and
//! [`FaultSpec`] reproduce the same faults byte for byte at any worker
//! count, because each experiment cell owns its own plan seeded by the
//! executor's `derive_seed`.
//!
//! Faults are drawn per PDU in parts-per-million space — one `u64` draw
//! partitioned into [drop | duplicate | reorder | delay | truncate |
//! corrupt | deliver] bands — and a plan never injects more than
//! [`MAX_CONSECUTIVE_FAULTS`] faults in a row on one link. Together with
//! each layer's bounded retries this guarantees the headline liveness
//! invariant: under *any* schedule every request eventually completes or
//! fails cleanly.

use crate::rng::SplitMix64;

/// Fault rates are fixed-point parts-per-million so decisions are pure
/// integer comparisons (no float accumulation anywhere in the draw path).
pub const PPM: u64 = 1_000_000;

/// A plan never injects more than this many faults in a row on one link;
/// the draw after the bound is reached is forced to deliver cleanly. With
/// every retry loop in the stack allowing at least this many attempts plus
/// one, recovery always terminates.
pub const MAX_CONSECUTIVE_FAULTS: u32 = 3;

/// The interposition points a [`FaultPlan`] covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultLink {
    /// The client ⇄ NFS (or kHTTPd) server link, both directions.
    ClientServer,
    /// The iSCSI initiator ⇄ target link, both directions.
    InitiatorTarget,
    /// Transient read/write errors of the block device under the target.
    BlockIo,
}

impl FaultLink {
    fn index(self) -> usize {
        match self {
            FaultLink::ClientServer => 0,
            FaultLink::InitiatorTarget => 1,
            FaultLink::BlockIo => 2,
        }
    }
}

/// One injected fault, with the parameters the interposer needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The PDU vanishes; the receiver never sees it.
    Drop,
    /// The PDU arrives twice back to back.
    Duplicate,
    /// A stale copy of the *previous* PDU on this link arrives first
    /// (the synchronous testbed's rendering of reordering).
    Reorder,
    /// The PDU arrives after the sender's timeout already fired, so the
    /// sender retransmits even though the receiver processed it.
    Delay,
    /// The PDU arrives cut short; `keep_ppm`/[`PPM`] of its bytes survive.
    Truncate {
        /// Fraction of the PDU that survives, in parts per million.
        keep_ppm: u32,
    },
    /// A single bit of the PDU flips in flight.
    Corrupt {
        /// Raw byte-position draw; reduce modulo the PDU length.
        pos: u64,
        /// Which bit of that byte flips (0..8).
        bit: u8,
    },
}

/// Per-category fault rates, parsed from a `--faults` spec string.
///
/// # Examples
///
/// ```
/// use sim::fault::FaultSpec;
/// let spec = FaultSpec::parse("loss=0.05,corrupt=0.01").unwrap();
/// assert_eq!(spec.loss, 0.05);
/// assert!(FaultSpec::parse("loss=0").unwrap().is_zero());
/// assert!(FaultSpec::parse("bogus=1").is_err());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultSpec {
    /// Probability a PDU is dropped in flight.
    pub loss: f64,
    /// Probability a PDU is delivered twice.
    pub duplicate: f64,
    /// Probability a stale previous PDU is replayed first.
    pub reorder: f64,
    /// Probability a PDU is delayed past the sender's timeout.
    pub delay: f64,
    /// Probability a PDU is truncated in flight.
    pub truncate: f64,
    /// Probability a single bit of a PDU flips in flight.
    pub corrupt: f64,
    /// Probability one block-device read/write fails transiently.
    pub io: f64,
}

impl FaultSpec {
    /// Parses a comma-separated `key=rate` list. Keys: `loss`, `dup` (or
    /// `duplicate`), `reorder`, `delay`, `truncate`, `corrupt`, `io`.
    /// Rates are probabilities in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on unknown keys, malformed
    /// numbers, or rates outside `[0, 1]`.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let mut spec = FaultSpec::default();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec `{part}`: expected key=rate"))?;
            let rate: f64 = value
                .trim()
                .parse()
                .map_err(|_| format!("fault spec `{part}`: `{value}` is not a number"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("fault spec `{part}`: rate must be in [0, 1]"));
            }
            match key.trim() {
                "loss" => spec.loss = rate,
                "dup" | "duplicate" => spec.duplicate = rate,
                "reorder" => spec.reorder = rate,
                "delay" => spec.delay = rate,
                "truncate" => spec.truncate = rate,
                "corrupt" => spec.corrupt = rate,
                "io" => spec.io = rate,
                other => {
                    return Err(format!(
                        "fault spec: unknown key `{other}` (expected loss, dup, \
                         reorder, delay, truncate, corrupt, io)"
                    ));
                }
            }
        }
        Ok(spec)
    }

    /// True when every rate is zero — an all-zero spec must inject nothing
    /// and leave every counter at zero.
    pub fn is_zero(&self) -> bool {
        self.to_ppm().iter().all(|&r| r == 0) && ppm(self.io) == 0
    }

    /// Link-fault rates in draw order, parts per million.
    fn to_ppm(self) -> [u64; 6] {
        [
            ppm(self.loss),
            ppm(self.duplicate),
            ppm(self.reorder),
            ppm(self.delay),
            ppm(self.truncate),
            ppm(self.corrupt),
        ]
    }

    /// The transient block-I/O error rate in parts per million (consumed
    /// by `blockdev`'s transient fault stream).
    pub fn io_ppm(&self) -> u32 {
        ppm(self.io) as u32
    }
}

fn ppm(rate: f64) -> u64 {
    (rate.clamp(0.0, 1.0) * PPM as f64).round() as u64
}

#[derive(Clone, Debug)]
struct LinkState {
    rng: SplitMix64,
    consecutive: u32,
}

/// A seeded, per-link-deterministic source of fault decisions.
///
/// # Examples
///
/// ```
/// use sim::fault::{FaultLink, FaultPlan, FaultSpec};
/// let spec = FaultSpec::parse("loss=0.5").unwrap();
/// let mut a = FaultPlan::new(&spec, 7);
/// let mut b = FaultPlan::new(&spec, 7);
/// for _ in 0..100 {
///     assert_eq!(
///         a.draw(FaultLink::ClientServer),
///         b.draw(FaultLink::ClientServer)
///     );
/// }
/// ```
#[derive(Clone, Debug)]
pub struct FaultPlan {
    rates: [u64; 6],
    links: [LinkState; 3],
}

impl FaultPlan {
    /// Builds a plan for `spec`, all link streams derived from `seed`.
    pub fn new(spec: &FaultSpec, seed: u64) -> FaultPlan {
        let link = |i: u64| LinkState {
            rng: SplitMix64::new(
                seed ^ (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ),
            consecutive: 0,
        };
        FaultPlan {
            rates: spec.to_ppm(),
            links: [link(0), link(1), link(2)],
        }
    }

    /// Draws the fault (if any) for the next PDU crossing `link`. One call
    /// per PDU; `None` means clean delivery. At most
    /// [`MAX_CONSECUTIVE_FAULTS`] consecutive calls return a fault.
    pub fn draw(&mut self, link: FaultLink) -> Option<FaultKind> {
        let rates = self.rates;
        let st = &mut self.links[link.index()];
        if st.consecutive >= MAX_CONSECUTIVE_FAULTS {
            st.consecutive = 0;
            return None;
        }
        let mut x = st.rng.next_u64() % PPM;
        let mut kind = None;
        for (i, &rate) in rates.iter().enumerate() {
            if x < rate {
                kind = Some(i);
                break;
            }
            x -= rate;
        }
        let kind = match kind? {
            0 => FaultKind::Drop,
            1 => FaultKind::Duplicate,
            2 => FaultKind::Reorder,
            3 => FaultKind::Delay,
            4 => FaultKind::Truncate {
                keep_ppm: (st.rng.next_u64() % PPM) as u32,
            },
            _ => FaultKind::Corrupt {
                pos: st.rng.next_u64(),
                bit: (st.rng.next_u64() % 8) as u8,
            },
        };
        st.consecutive += 1;
        Some(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_every_key() {
        let spec = FaultSpec::parse(
            "loss=0.1, dup=0.2, reorder=0.05, delay=0.01, truncate=0.02, corrupt=0.03, io=0.04",
        )
        .unwrap();
        assert_eq!(spec.loss, 0.1);
        assert_eq!(spec.duplicate, 0.2);
        assert_eq!(spec.reorder, 0.05);
        assert_eq!(spec.delay, 0.01);
        assert_eq!(spec.truncate, 0.02);
        assert_eq!(spec.corrupt, 0.03);
        assert_eq!(spec.io, 0.04);
        assert_eq!(spec.io_ppm(), 40_000);
        assert!(!spec.is_zero());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultSpec::parse("nope=0.1").is_err());
        assert!(FaultSpec::parse("loss").is_err());
        assert!(FaultSpec::parse("loss=x").is_err());
        assert!(FaultSpec::parse("loss=1.5").is_err());
        assert!(FaultSpec::parse("loss=-0.5").is_err());
    }

    #[test]
    fn empty_spec_is_zero() {
        assert!(FaultSpec::parse("").unwrap().is_zero());
        assert!(FaultSpec::default().is_zero());
    }

    #[test]
    fn links_are_independent_streams() {
        let spec = FaultSpec::parse("loss=0.5").unwrap();
        // Draining one link must not disturb another: compare a fresh
        // plan's InitiatorTarget stream against one whose ClientServer
        // stream was heavily consumed.
        let mut fresh = FaultPlan::new(&spec, 42);
        let mut used = FaultPlan::new(&spec, 42);
        for _ in 0..1000 {
            used.draw(FaultLink::ClientServer);
        }
        for _ in 0..100 {
            assert_eq!(
                fresh.draw(FaultLink::InitiatorTarget),
                used.draw(FaultLink::InitiatorTarget)
            );
        }
    }

    #[test]
    fn consecutive_faults_are_bounded() {
        let spec = FaultSpec::parse("loss=1").unwrap();
        let mut plan = FaultPlan::new(&spec, 1);
        let mut consecutive = 0u32;
        for _ in 0..1000 {
            match plan.draw(FaultLink::ClientServer) {
                Some(_) => {
                    consecutive += 1;
                    assert!(consecutive <= MAX_CONSECUTIVE_FAULTS);
                }
                None => consecutive = 0,
            }
        }
    }

    #[test]
    fn zero_rate_never_faults() {
        let mut plan = FaultPlan::new(&FaultSpec::default(), 99);
        for _ in 0..1000 {
            assert_eq!(plan.draw(FaultLink::ClientServer), None);
            assert_eq!(plan.draw(FaultLink::InitiatorTarget), None);
        }
    }

    #[test]
    fn rates_partition_the_draw_space() {
        // With loss=1.0 every draw inside the bound is a Drop; with
        // corrupt=1.0 every one is a Corrupt.
        let mut plan = FaultPlan::new(&FaultSpec::parse("loss=1").unwrap(), 5);
        assert_eq!(plan.draw(FaultLink::ClientServer), Some(FaultKind::Drop));
        let spec = FaultSpec {
            corrupt: 1.0,
            ..FaultSpec::default()
        };
        let mut plan = FaultPlan::new(&spec, 5);
        assert!(matches!(
            plan.draw(FaultLink::ClientServer),
            Some(FaultKind::Corrupt { .. })
        ));
    }
}
