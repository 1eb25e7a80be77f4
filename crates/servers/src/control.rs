//! Overload control plane: deterministic per-server admission control,
//! dirty-cache backpressure, and client retry policy.
//!
//! The servers in this crate execute functionally at arrival instants;
//! queueing is simulated separately by the timing layer. Without a
//! control plane, an open-loop arrival stream past capacity just grows
//! the simulated queues without bound — goodput collapses while every
//! admitted request's latency diverges (the congestion-collapse curve
//! the `--overload-sweep` observatory measures). This module supplies
//! the *prevention* side (DESIGN.md §15):
//!
//! * [`AdmissionGate`] — bounded in-flight and queue-depth watermarks
//!   with hysteresis (the rig reports each request's in-flight depth via
//!   `set_load`), so every decision is a pure function of the schedule
//!   and replays byte-identically at any host thread or shard count.
//! * [`Pressure`] — the backpressure signal sampled from the layers
//!   below the server: the file-system buffer cache's dirty ratio and
//!   the NCache's pinned occupancy. Under pressure the gate sheds
//!   writes before reads, and the server bypasses NCache *insertion*
//!   (serve-through without caching) instead of evicting hot entries.
//! * [`RetryPolicy`] — the client half: a bounded per-request retry
//!   budget with jittered-but-seeded exponential backoff. Jitter comes
//!   from a [`SplitMix64`] stream keyed by `(seed, request, attempt)`,
//!   so backoff delays are deterministic per request yet decorrelated
//!   across requests (no synchronized retry storms).
//! * [`RetryBudget`] — the client-wide limit on top of it: a token
//!   bucket that rejections drain and admitted replies refill, so a
//!   client stops retransmitting once most of what it sends is rejected
//!   (retries cannot multiply the load an overloaded server sheds).
//!
//! A server with no control plane installed behaves exactly as before —
//! the plane is opt-in and, when configured with
//! [`ControlConfig::unlimited`], provably unobservable (see the
//! `control_plane_property` tests in `crates/testbed`).

use obs::StatsSnapshot;
use sim::SplitMix64;

/// Admission classes: the gate sheds [`OpClass::Write`] first when the
/// cache backpressure watermarks trip (reads drain the caches, writes
/// fill them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpClass {
    /// Read-side work (READ, GETATTR, LOOKUP, READDIR, HTTP GET).
    Read,
    /// Write-side work (WRITE, CREATE, REMOVE).
    Write,
}

/// The backpressure signal sampled from the layers below the server.
/// Both fields are permille (0..=1000) so the watermark comparison is
/// exact integer arithmetic — no float drift across platforms.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Pressure {
    /// Dirty fraction of the file-system buffer cache, in permille.
    pub dirty_permille: u32,
    /// Pinned-bytes fraction of the NCache capacity, in permille
    /// (zero when the build has no NCache).
    pub ncache_permille: u32,
}

/// Watermarks and budgets for one server's [`AdmissionGate`].
///
/// Every threshold has an explicit "off" encoding (0 for the bounds,
/// `> 1000` for the permille watermarks) so [`ControlConfig::unlimited`]
/// admits everything — the configuration the zero-rejection
/// unobservability property pins down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ControlConfig {
    /// Hard bound on concurrently in-flight requests (0 = unbounded).
    pub max_inflight: u64,
    /// Queue-depth high watermark: at or above this in-flight depth the
    /// gate enters shedding mode and rejects writes (0 = disabled).
    pub queue_hi: u64,
    /// Queue-depth low watermark: shedding mode clears once the
    /// in-flight depth falls to or below this.
    pub queue_lo: u64,
    /// Dirty-cache watermark in permille: writes shed at or above this
    /// dirty ratio (`> 1000` = disabled).
    pub dirty_hi_permille: u32,
    /// NCache occupancy watermark in permille: insertion bypasses the
    /// cache at or above this pinned fraction (`> 1000` = disabled).
    pub ncache_hi_permille: u32,
    /// Retry-after hint carried in rejection replies, in sim-ns.
    pub retry_after_ns: u64,
}

impl ControlConfig {
    /// A configuration that admits everything: all bounds off, all
    /// watermarks above 1000 permille. A gate with this config must be
    /// unobservable (the property test pins this).
    pub fn unlimited() -> Self { // test-api: integration tests arm a gate field by field
        ControlConfig {
            max_inflight: 0,
            queue_hi: 0,
            queue_lo: 0,
            dirty_hi_permille: 1001,
            ncache_hi_permille: 1001,
            retry_after_ns: 0,
        }
    }

    /// The protective preset used by the overload ablation: bounded
    /// in-flight, write shedding past the high watermark, and a
    /// retry-after hint of one millisecond of sim time.
    pub fn protective() -> Self {
        ControlConfig {
            max_inflight: 16,
            queue_hi: 12,
            queue_lo: 8,
            dirty_hi_permille: 600,
            ncache_hi_permille: 900,
            retry_after_ns: 1_000_000,
        }
    }
}

impl Default for ControlConfig {
    fn default() -> Self {
        Self::protective()
    }
}

/// One admission verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Execute the request.
    Admit,
    /// Reject with a retryable error; the client should back off at
    /// least `after_ns` of sim time before retransmitting.
    RetryLater {
        /// Suggested backoff, echoed into the rejection reply.
        after_ns: u64,
    },
}

/// Control-plane counters, snapshotted into [`obs::MetricsReport`] under
/// the `control` source.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ControlStats {
    /// Requests offered to the gate.
    pub offered: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests rejected (sum of the reject reasons below).
    pub rejected: u64,
    /// Rejected read-class requests.
    pub rejected_reads: u64,
    /// Rejected write-class requests.
    pub rejected_writes: u64,
    /// Rejections from the hard in-flight bound.
    pub inflight_rejects: u64,
    /// Write rejections from queue-watermark shedding mode.
    pub queue_sheds: u64,
    /// Write rejections from the dirty-cache watermark.
    pub dirty_sheds: u64,
    /// NCache insertions bypassed under occupancy/dirty pressure
    /// (served through without caching; not a rejection).
    pub insert_bypass: u64,
}

impl StatsSnapshot for ControlStats {
    fn source(&self) -> &'static str {
        "control"
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("offered", self.offered),
            ("admitted", self.admitted),
            ("rejected", self.rejected),
            ("rejected_reads", self.rejected_reads),
            ("rejected_writes", self.rejected_writes),
            ("inflight_rejects", self.inflight_rejects),
            ("queue_sheds", self.queue_sheds),
            ("dirty_sheds", self.dirty_sheds),
            ("insert_bypass", self.insert_bypass),
        ]
    }
}

/// The per-server admission gate. All state evolves deterministically
/// from the `(inflight, class, pressure)` sequence the server feeds it —
/// there is no wall-clock input anywhere.
#[derive(Clone, Debug)]
pub struct AdmissionGate {
    cfg: ControlConfig,
    /// Queue-watermark shedding mode (hysteresis between `queue_hi`
    /// and `queue_lo`).
    shedding: bool,
    stats: ControlStats,
}

impl AdmissionGate {
    /// A gate that is not shedding.
    pub fn new(cfg: ControlConfig) -> Self {
        AdmissionGate {
            cfg,
            shedding: false,
            stats: ControlStats::default(),
        }
    }

    /// The gate's configuration.
    pub fn config(&self) -> &ControlConfig {
        &self.cfg
    }

    /// The gate's counters.
    pub fn stats(&self) -> ControlStats {
        self.stats
    }

    /// Decides admission for one request of `class` arriving with
    /// `inflight` requests already in flight (this one excluded), under
    /// the sampled cache `pressure`.
    ///
    /// Policy order: the hard in-flight bound first (protects the
    /// server unconditionally), then write shedding from the queue
    /// watermarks (with hysteresis) and the dirty-cache watermark
    /// (writes shed before reads).
    pub fn decide(&mut self, inflight: u64, class: OpClass, pressure: &Pressure) -> Decision {
        self.stats.offered += 1;
        if self.cfg.queue_hi > 0 {
            if inflight >= self.cfg.queue_hi {
                self.shedding = true;
            } else if inflight <= self.cfg.queue_lo {
                self.shedding = false;
            }
        }
        let verdict = if self.cfg.max_inflight > 0 && inflight >= self.cfg.max_inflight {
            self.stats.inflight_rejects += 1;
            Some(())
        } else if class == OpClass::Write && self.shedding {
            self.stats.queue_sheds += 1;
            Some(())
        } else if class == OpClass::Write
            && pressure.dirty_permille >= self.cfg.dirty_hi_permille
        {
            self.stats.dirty_sheds += 1;
            Some(())
        } else {
            None
        };
        match verdict {
            Some(()) => {
                self.stats.rejected += 1;
                match class {
                    OpClass::Read => self.stats.rejected_reads += 1,
                    OpClass::Write => self.stats.rejected_writes += 1,
                }
                Decision::RetryLater {
                    after_ns: self.cfg.retry_after_ns,
                }
            }
            None => {
                self.stats.admitted += 1;
                Decision::Admit
            }
        }
    }

    /// Whether NCache insertion should be bypassed under `pressure`
    /// (serve through without caching). Counted, never rejected: the
    /// request still completes, it just stops displacing cache state
    /// while the cache is under memory pressure.
    pub fn bypass_insert(&mut self, pressure: &Pressure) -> bool {
        let hit = pressure.dirty_permille >= self.cfg.dirty_hi_permille
            || pressure.ncache_permille >= self.cfg.ncache_hi_permille;
        if hit {
            self.stats.insert_bypass += 1;
        }
        hit
    }
}

/// The control plane a server embeds: the gate plus the load inputs the
/// rig pushes in before each request ([`ControlPlane::set_load`]).
#[derive(Clone, Debug)]
pub struct ControlPlane {
    gate: AdmissionGate,
    inflight: u64,
}

impl ControlPlane {
    /// A plane around a fresh gate.
    pub fn new(cfg: ControlConfig) -> Self {
        ControlPlane {
            gate: AdmissionGate::new(cfg),
            inflight: 0,
        }
    }

    /// Reports the current in-flight depth (from the timing layer's
    /// open-loop state) ahead of the next request.
    pub fn set_load(&mut self, inflight: u64) {
        self.inflight = inflight;
    }

    /// Decides admission under the load last reported via `set_load`.
    pub fn decide(&mut self, class: OpClass, pressure: &Pressure) -> Decision {
        self.gate.decide(self.inflight, class, pressure)
    }

    /// See [`AdmissionGate::bypass_insert`].
    pub fn bypass_insert(&mut self, pressure: &Pressure) -> bool {
        self.gate.bypass_insert(pressure)
    }

    /// The gate's configuration.
    pub fn config(&self) -> &ControlConfig {
        self.gate.config()
    }

    /// The gate's counters.
    pub fn stats(&self) -> ControlStats {
        self.gate.stats()
    }
}

/// The client-wide half of retry control: a token bucket, in integer
/// tenths of a token, that every rejection reply drains by one token and
/// every admitted reply refills by a tenth (gRPC's retry throttling,
/// proposal A6). A retransmission is sent only while the bucket is above
/// half, so once rejections outnumber a tenth of the admitted replies
/// the client stops amplifying them: a shed request costs the server one
/// rejection, not `1 + budget`. Nothing rejected, the bucket stays full
/// and is never consulted.
///
/// Sized by measurement on the overload ablation (`repro --overload-sweep
/// --protected`): of 10, 20, 30 and 60 tokens, 30 is the smallest that
/// leaves every 16 KiB row below 2x capacity exactly as it was without a
/// bucket. gRPC's default of 10 and a bucket of 20 drain on the 1.0x
/// burst and lose goodput there; 60 gives back goodput at 2x.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryBudget {
    tenths: u32,
}

impl RetryBudget {
    /// Bucket capacity in tenths (30 tokens); a default budget is full.
    pub const CAPACITY_TENTHS: u32 = 300;
    /// Refill per admitted reply, in tenths (0.1 token).
    pub const REFILL_TENTHS: u32 = 1;
    /// Drain per rejection reply, in tenths (one token).
    pub const COST_TENTHS: u32 = 10;
    /// A retransmission is allowed only above this level (half).
    pub const THRESHOLD_TENTHS: u32 = Self::CAPACITY_TENTHS / 2;

    /// A reply reached the client: an admitted one refills the bucket,
    /// a rejection drains it.
    pub fn on_reply(&mut self, admitted: bool) {
        self.tenths = if admitted {
            (self.tenths + Self::REFILL_TENTHS).min(Self::CAPACITY_TENTHS)
        } else {
            self.tenths.saturating_sub(Self::COST_TENTHS)
        };
    }

    /// Whether a retransmission may be sent now.
    pub fn allows_retry(&self) -> bool {
        self.tenths > Self::THRESHOLD_TENTHS
    }
}

impl Default for RetryBudget {
    fn default() -> Self {
        RetryBudget {
            tenths: Self::CAPACITY_TENTHS,
        }
    }
}

/// Client-side retry policy: a bounded budget of retransmissions per
/// request with seeded, capped exponential backoff ([`RetryPolicy::BASE_NS`]
/// doubling up to [`RetryPolicy::CAP_NS`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retransmissions allowed per request (total transmissions are
    /// bounded by `1 + budget`; exhaustion is a counted client-visible
    /// error, never a loop).
    pub budget: u32,
    /// Jitter stream seed; combined with `(request, attempt)` so every
    /// delay is deterministic yet decorrelated across requests.
    pub seed: u64,
}

impl RetryPolicy {
    /// Backoff before the first retransmission, in sim-ns.
    pub const BASE_NS: u64 = 200_000;
    /// Backoff ceiling, in sim-ns.
    pub const CAP_NS: u64 = 2_000_000;

    /// The ablation's default: two retransmissions.
    pub fn standard(seed: u64) -> Self {
        RetryPolicy { budget: 2, seed }
    }

    /// The backoff before retransmission `attempt` (1-based) of request
    /// `request_idx`: capped exponential with full jitter in
    /// `[half, full]`, drawn from a stream keyed by
    /// `(seed, request_idx, attempt)`. Pure function — replays
    /// byte-identically anywhere.
    pub fn backoff_ns(&self, request_idx: u64, attempt: u32) -> u64 {
        let exp = Self::BASE_NS
            .saturating_mul(1u64 << (attempt.saturating_sub(1)).min(20))
            .min(Self::CAP_NS);
        let key = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(request_idx)
            .wrapping_mul(0x2545_f491_4f6c_dd1d)
            .wrapping_add(u64::from(attempt));
        let mut rng = SplitMix64::new(key);
        let half = exp / 2;
        half + rng.next_u64() % (exp - half + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_gate_admits_everything() {
        let mut gate = AdmissionGate::new(ControlConfig::unlimited());
        let full = Pressure {
            dirty_permille: 1000,
            ncache_permille: 1000,
        };
        for i in 0..10_000u64 {
            let class = if i % 3 == 0 { OpClass::Write } else { OpClass::Read };
            assert_eq!(gate.decide(i, class, &full), Decision::Admit);
        }
        assert!(!gate.bypass_insert(&full));
        assert_eq!(gate.stats().rejected, 0);
        assert_eq!(gate.stats().insert_bypass, 0);
        assert_eq!(gate.stats().admitted, 10_000);
    }

    #[test]
    fn inflight_bound_is_hard() {
        let cfg = ControlConfig {
            max_inflight: 4,
            ..ControlConfig::unlimited()
        };
        let mut gate = AdmissionGate::new(cfg);
        let p = Pressure::default();
        assert_eq!(gate.decide(3, OpClass::Read, &p), Decision::Admit);
        assert_eq!(
            gate.decide(4, OpClass::Read, &p),
            Decision::RetryLater { after_ns: 0 }
        );
        assert_eq!(gate.stats().inflight_rejects, 1);
    }

    #[test]
    fn queue_watermarks_shed_writes_with_hysteresis() {
        let cfg = ControlConfig {
            queue_hi: 8,
            queue_lo: 4,
            retry_after_ns: 7,
            ..ControlConfig::unlimited()
        };
        let mut gate = AdmissionGate::new(cfg);
        let p = Pressure::default();
        assert_eq!(gate.decide(7, OpClass::Write, &p), Decision::Admit);
        // Crossing the high watermark trips shedding: writes rejected,
        // reads still admitted.
        assert_eq!(
            gate.decide(8, OpClass::Write, &p),
            Decision::RetryLater { after_ns: 7 }
        );
        assert_eq!(gate.decide(8, OpClass::Read, &p), Decision::Admit);
        // Still shedding between the watermarks (hysteresis).
        assert_eq!(
            gate.decide(6, OpClass::Write, &p),
            Decision::RetryLater { after_ns: 7 }
        );
        // Clears at the low watermark.
        assert_eq!(gate.decide(4, OpClass::Write, &p), Decision::Admit);
        assert_eq!(gate.stats().queue_sheds, 2);
    }

    #[test]
    fn dirty_watermark_sheds_writes_not_reads() {
        let cfg = ControlConfig {
            dirty_hi_permille: 500,
            ..ControlConfig::unlimited()
        };
        let mut gate = AdmissionGate::new(cfg);
        let dirty = Pressure {
            dirty_permille: 700,
            ncache_permille: 0,
        };
        assert_eq!(
            gate.decide(0, OpClass::Write, &dirty),
            Decision::RetryLater { after_ns: 0 }
        );
        assert_eq!(gate.decide(0, OpClass::Read, &dirty), Decision::Admit);
        assert_eq!(gate.stats().dirty_sheds, 1);
        assert!(gate.bypass_insert(&dirty));
    }

    #[test]
    fn retry_budget_stays_full_when_nothing_is_rejected() {
        let mut b = RetryBudget::default();
        for _ in 0..1_000 {
            b.on_reply(true);
            assert_eq!(b.tenths, RetryBudget::CAPACITY_TENTHS);
            assert!(b.allows_retry());
        }
    }

    #[test]
    fn retry_budget_drains_to_its_threshold() {
        let mut b = RetryBudget::default();
        let allowed = (0..100)
            .take_while(|_| {
                b.on_reply(false);
                b.allows_retry()
            })
            .count();
        // 30 tokens, one per rejection, retries only above 15: the 15th
        // rejection leaves exactly half, and half is not enough.
        assert_eq!(allowed, 14);
        assert_eq!(b.tenths, RetryBudget::THRESHOLD_TENTHS);
        for _ in 0..100 {
            b.on_reply(false);
        }
        assert_eq!(b.tenths, 0, "drains to empty, never below");
    }

    #[test]
    fn retry_budget_refills_a_tenth_per_admitted_reply() {
        let mut b = RetryBudget::default();
        while b.allows_retry() {
            b.on_reply(false);
        }
        // Ten admitted replies buy back one rejection's token.
        for _ in 0..RetryBudget::COST_TENTHS / RetryBudget::REFILL_TENTHS - 1 {
            b.on_reply(true);
        }
        assert_eq!(b.tenths, RetryBudget::THRESHOLD_TENTHS + 9);
        assert!(b.allows_retry(), "above half again");
        b.on_reply(false);
        assert!(!b.allows_retry());
        for _ in 0..10_000 {
            b.on_reply(true);
        }
        assert_eq!(b.tenths, RetryBudget::CAPACITY_TENTHS, "refill caps at capacity");
    }

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let policy = RetryPolicy::standard(42);
        for req in 0..64u64 {
            for attempt in 1..=4u32 {
                let a = policy.backoff_ns(req, attempt);
                let b = policy.backoff_ns(req, attempt);
                assert_eq!(a, b, "pure function of (seed, request, attempt)");
                let exp = (RetryPolicy::BASE_NS << (attempt - 1)).min(RetryPolicy::CAP_NS);
                assert!(a >= exp / 2 && a <= exp, "jitter in [half, full]");
            }
        }
        // Different requests draw different jitter (decorrelated storms).
        let delays: std::collections::BTreeSet<u64> =
            (0..64).map(|r| policy.backoff_ns(r, 1)).collect();
        assert!(delays.len() > 32, "jitter varies across requests");
    }
}
