//! The [`Recorder`]: typed event emission, counters, gauges and
//! log-bucketed histograms over simulated time.

use crate::hist::{Histogram, HistogramSnapshot};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// One stage of a request's latency breakdown: how long the request
/// waited behind the named resource, then how long the resource worked
/// on it, both in simulated nanoseconds. A request's stages sum exactly
/// to its end-to-end latency (asserted by the trace validators).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageNs {
    /// Stage name ("app-cpu", "disk", ...), from the runner's fixed set.
    pub stage: &'static str,
    /// Nanoseconds spent queued before service began.
    pub queue_ns: u64,
    /// Nanoseconds in service.
    pub service_ns: u64,
}

/// One traced occurrence on the data plane or the timing plane.
///
/// Variants carry `&'static str` labels wherever the label set is fixed at
/// compile time, so emission does not allocate; only resource names (built
/// at rig construction) are owned strings.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// A request span opened ([`Recorder::begin_span`]).
    SpanBegin {
        /// Operation ("read", "write", "get", ...).
        op: &'static str,
        /// Server configuration ("original", "ncache", "baseline").
        config: &'static str,
        /// Request size in bytes (message payload).
        bytes: u64,
    },
    /// The matching span closed.
    SpanEnd,
    /// A cache lookup on some tier ("fs", "ncache", "ncache-lbn", ...).
    CacheAccess {
        /// Which cache.
        tier: &'static str,
        /// Hit or miss.
        hit: bool,
    },
    /// A block/chunk entered a cache tier.
    CacheInsert {
        /// Which cache.
        tier: &'static str,
        /// Inserted dirty (write path) or clean.
        dirty: bool,
    },
    /// A block/chunk was reclaimed from a cache tier.
    Eviction {
        /// Which cache.
        tier: &'static str,
        /// "data" or "meta".
        class: &'static str,
        /// Dirty evictions imply a writeback.
        dirty: bool,
    },
    /// An FHO→LBN remap (the paper's §3.3 key move).
    Remap,
    /// Driver-boundary substitution of placeholder payload.
    Substitution {
        /// Placeholders substituted from the cache.
        substituted: u64,
        /// Placeholders whose chunk was missing (must be zero in
        /// correctness runs).
        missing: u64,
    },
    /// A write-back batch left the file system.
    Writeback {
        /// Blocks flushed in this batch.
        blocks: u64,
    },
    /// A copy-ledger charge ("payload", "meta", "logical", "header",
    /// "csum", "csum_inherited", "alloc").
    Copy {
        /// The ledger category.
        category: &'static str,
        /// Bytes moved / checksummed (zero for count-only categories).
        bytes: u64,
    },
    /// A completed foreground request with exact simulated interval and
    /// its per-stage latency breakdown.
    Request {
        /// Operation label.
        op: &'static str,
        /// Data path the request took ("hit", "substitution", "disk").
        path: &'static str,
        /// Issue instant, simulated ns.
        start_ns: u64,
        /// Completion instant, simulated ns.
        end_ns: u64,
        /// Queue/service time per stage, in execution order; sums
        /// exactly to `end_ns - start_ns`.
        stages: Vec<StageNs>,
    },
    /// A FIFO resource served one job over an exact busy interval.
    ResourceBusy {
        /// Resource name ("app-cpu", "storage-tx", ...).
        resource: String,
        /// Server slot within the resource.
        slot: u32,
        /// Busy-start instant, simulated ns.
        start_ns: u64,
        /// Busy-end instant, simulated ns.
        end_ns: u64,
    },
    /// A sampled scalar (timeline series point).
    Gauge {
        /// Series name.
        name: &'static str,
        /// Sampled value.
        value: f64,
    },
}

/// A recorded event: simulated timestamp, owning request span (0 when none
/// was open), and the payload.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Simulated nanoseconds (the owning request's issue instant for
    /// functional events; exact instants for `Request`/`ResourceBusy`).
    pub ts_ns: u64,
    /// Request span id, or 0 outside any span.
    pub req: u64,
    /// Session lane the event belongs to (0 for single-session runs).
    /// The multi-client engine stamps each session's events with its
    /// session id so the Chrome exporter can render one row per session.
    pub lane: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Recorder tuning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring-buffer capacity in events; the oldest events drop
    /// (deterministically) past this. Counters keep aggregating regardless.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { capacity: 1 << 20 }
    }
}

/// The per-path latency histogram key for a request path label.
fn path_hist_key(path: &str) -> Option<&'static str> {
    match path {
        "hit" => Some("request.latency_ns.hit"),
        "substitution" => Some("request.latency_ns.substitution"),
        "disk" => Some("request.latency_ns.disk"),
        _ => None,
    }
}

/// The `(queue, service)` histogram keys for a stage name. Keys must be
/// `&'static str` (the histogram map never allocates key strings), so
/// the stage set is closed here; unknown stages aggregate nowhere.
fn stage_hist_keys(stage: &str) -> Option<(&'static str, &'static str)> {
    match stage {
        "app-rx" => Some(("stage.app-rx.queue_ns", "stage.app-rx.service_ns")),
        "app-cpu" => Some(("stage.app-cpu.queue_ns", "stage.app-cpu.service_ns")),
        "app-tx" => Some(("stage.app-tx.queue_ns", "stage.app-tx.service_ns")),
        "storage-rx" => Some(("stage.storage-rx.queue_ns", "stage.storage-rx.service_ns")),
        "storage-cpu" => Some(("stage.storage-cpu.queue_ns", "stage.storage-cpu.service_ns")),
        "storage-tx" => Some(("stage.storage-tx.queue_ns", "stage.storage-tx.service_ns")),
        "disk" => Some(("stage.disk.queue_ns", "stage.disk.service_ns")),
        _ => None,
    }
}

#[derive(Debug)]
struct State {
    cfg: TraceConfig,
    now_ns: u64,
    lane: u64,
    next_span: u64,
    /// Open span ids, innermost last.
    span_stack: Vec<u64>,
    events: VecDeque<Event>,
    dropped: u64,
    spans_opened: u64,
    spans_closed: u64,
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<&'static str, Histogram>,
}

impl State {
    fn new() -> Self {
        State {
            cfg: TraceConfig::default(),
            now_ns: 0,
            lane: 0,
            next_span: 1,
            span_stack: Vec::new(),
            events: VecDeque::new(),
            dropped: 0,
            spans_opened: 0,
            spans_closed: 0,
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
        }
    }

    fn bump(&mut self, name: &str, delta: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Folds an event into the aggregate counters/histograms. Runs for
    /// every emission, stored or dropped, so `--metrics` is always exact.
    fn aggregate(&mut self, kind: &EventKind) {
        match kind {
            EventKind::SpanBegin { op, config, .. } => {
                self.bump("requests", 1);
                self.bump(&format!("requests.{config}.{op}"), 1);
            }
            EventKind::SpanEnd => {}
            EventKind::CacheAccess { tier, hit } => {
                let what = if *hit { "hits" } else { "misses" };
                self.bump(&format!("cache.{tier}.{what}"), 1);
            }
            EventKind::CacheInsert { tier, .. } => {
                self.bump(&format!("cache.{tier}.insertions"), 1);
            }
            EventKind::Eviction { tier, dirty, .. } => {
                let kind = if *dirty { "dirty" } else { "clean" };
                self.bump(&format!("cache.{tier}.evicted_{kind}"), 1);
            }
            EventKind::Remap => self.bump("ncache.remaps", 1),
            EventKind::Substitution {
                substituted,
                missing,
            } => {
                self.bump("ncache.substituted", *substituted);
                self.bump("ncache.substitution_missing", *missing);
            }
            EventKind::Writeback { blocks } => {
                self.bump("fs.writeback.batches", 1);
                self.bump("fs.writeback.blocks", *blocks);
            }
            EventKind::Copy { category, bytes } => {
                self.bump(&format!("copy.{category}.ops"), 1);
                self.bump(&format!("copy.{category}.bytes"), *bytes);
                if *category == "payload" {
                    self.hists.entry("copy.payload.bytes").or_default().record(*bytes);
                }
            }
            EventKind::Request {
                path,
                start_ns,
                end_ns,
                stages,
                ..
            } => {
                let latency = end_ns.saturating_sub(*start_ns);
                self.hists
                    .entry("request.latency_ns")
                    .or_default()
                    .record(latency);
                if let Some(key) = path_hist_key(path) {
                    self.hists.entry(key).or_default().record(latency);
                }
                for st in stages {
                    if let Some((qk, sk)) = stage_hist_keys(st.stage) {
                        self.hists.entry(qk).or_default().record(st.queue_ns);
                        self.hists.entry(sk).or_default().record(st.service_ns);
                    }
                }
            }
            EventKind::ResourceBusy {
                resource,
                start_ns,
                end_ns,
                ..
            } => {
                self.bump(
                    &format!("resource.{resource}.busy_ns"),
                    end_ns.saturating_sub(*start_ns),
                );
            }
            EventKind::Gauge { .. } => {}
        }
    }

    fn store(&mut self, ev: Event) {
        if self.events.len() >= self.cfg.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// Stores `kind` at the current instant and lane, owned by span `req`.
    fn record(&mut self, req: u64, kind: EventKind) {
        let (ts_ns, lane) = (self.now_ns, self.lane);
        self.store(Event {
            ts_ns,
            req,
            lane,
            kind,
        });
    }
}

#[derive(Debug)]
struct RecorderInner {
    enabled: AtomicBool,
    state: Mutex<State>,
}

/// Shared handle to the trace/metrics recorder. Cloning shares state; a rig
/// hands clones to every instrumented component.
///
/// # Examples
///
/// ```
/// use obs::{EventKind, Recorder, TraceConfig};
///
/// let rec = Recorder::new();
/// rec.emit(EventKind::Remap); // disabled: dropped for free
/// rec.enable(TraceConfig::default());
/// rec.set_now(1_000);
/// let span = rec.begin_span("read", "ncache", 4096);
/// rec.emit(EventKind::CacheAccess { tier: "fs", hit: true });
/// rec.end_span(span);
/// let events = rec.events();
/// assert_eq!(events.len(), 3);
/// assert_eq!(events[1].ts_ns, 1_000);
/// assert_eq!(events[1].req, span);
/// assert_eq!(rec.counter("cache.fs.hits"), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Recorder {
    inner: Arc<RecorderInner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A disabled recorder (enable with [`Recorder::enable`]).
    pub fn new() -> Self {
        Recorder {
            inner: Arc::new(RecorderInner {
                enabled: AtomicBool::new(false),
                state: Mutex::new(State::new()),
            }),
        }
    }

    /// Whether two handles share state.
    pub fn same_recorder(&self, other: &Recorder) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Starts recording under `cfg`, clearing any previous state.
    pub fn enable(&self, cfg: TraceConfig) {
        let mut st = self.lock();
        *st = State::new();
        st.cfg = cfg;
        drop(st);
        self.inner.enabled.store(true, Ordering::Release);
    }

    /// The fast-path gate every emission checks first.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Acquire)
    }

    /// Sets the simulated clock that stamps subsequent events.
    pub fn set_now(&self, ns: u64) {
        if !self.is_enabled() {
            return;
        }
        self.lock().now_ns = ns;
    }

    /// Sets the session lane that stamps subsequent events (0 = the
    /// default single-session lane). The multi-client engine switches
    /// lanes as it switches sessions, like [`Recorder::set_now`].
    pub fn set_lane(&self, lane: u64) {
        if !self.is_enabled() {
            return;
        }
        self.lock().lane = lane;
    }

    /// Opens a request span; returns its id (0 when disabled). All events
    /// emitted before the matching [`Recorder::end_span`] carry this id.
    pub fn begin_span(&self, op: &'static str, config: &'static str, bytes: u64) -> u64 {
        if !self.is_enabled() {
            return 0;
        }
        let mut st = self.lock();
        let id = st.next_span;
        st.next_span += 1;
        st.spans_opened += 1;
        let kind = EventKind::SpanBegin { op, config, bytes };
        st.aggregate(&kind);
        st.record(id, kind);
        st.span_stack.push(id);
        id
    }

    /// Closes the span `id` (no-op for id 0 or when disabled).
    pub fn end_span(&self, id: u64) {
        if id == 0 || !self.is_enabled() {
            return;
        }
        let mut st = self.lock();
        let Some(pos) = st.span_stack.iter().rposition(|&sid| sid == id) else {
            return;
        };
        st.span_stack.remove(pos);
        st.spans_closed += 1;
        st.record(id, EventKind::SpanEnd);
    }

    /// Records one event at the current simulated time, attributed to the
    /// innermost open span, and aggregates it into the counters.
    pub fn emit(&self, kind: EventKind) {
        if !self.is_enabled() {
            return;
        }
        let mut st = self.lock();
        st.aggregate(&kind);
        let req = st.span_stack.last().copied().unwrap_or(0);
        st.record(req, kind);
    }

    /// Adds `delta` to a named counter directly.
    pub fn add_counter(&self, name: &str, delta: u64) {
        if !self.is_enabled() {
            return;
        }
        self.lock().bump(name, delta);
    }

    /// A counter's current value (0 if never bumped).
    pub fn counter(&self, name: &str) -> u64 { // test-api: integration tests read single counters
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.lock().counters.clone()
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> BTreeMap<String, HistogramSnapshot> {
        self.lock()
            .hists
            .iter()
            .map(|(k, v)| (k.to_string(), v.snapshot()))
            .collect()
    }

    /// The stored events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.lock().events.iter().cloned().collect()
    }

    /// Events dropped by the ring buffer.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Spans opened so far.
    pub fn spans_opened(&self) -> u64 {
        self.lock().spans_opened
    }

    /// Whether every opened span has closed (the span invariant).
    pub fn spans_balanced(&self) -> bool {
        let st = self.lock();
        st.spans_opened == st.spans_closed && st.span_stack.is_empty()
    }

    /// The active trace configuration (the default when never enabled).
    pub fn config(&self) -> TraceConfig {
        self.lock().cfg
    }

    /// Merges `cell`'s recorded state into this recorder, exactly as if
    /// every one of `cell`'s emissions had happened here, in order, after
    /// everything recorded so far. The parallel experiment executor gives
    /// each cell its own recorder and absorbs them **in deterministic cell
    /// order**, which makes the merged stream independent of thread count:
    ///
    /// * span ids are renumbered by the spans already issued here, so ids
    ///   stay dense and unique across cells;
    /// * events append through the same ring buffer (capacity drops behave
    ///   identically to one shared recorder, because each cell's ring has
    ///   the same capacity and therefore retains a superset of the final
    ///   window);
    /// * counters, histograms, span totals, and drop counts sum;
    /// * the clock adopts the cell's final instant, as a sequential run
    ///   would leave it.
    ///
    /// No-op when this recorder is disabled.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is this recorder (the merge would self-deadlock).
    pub fn absorb(&self, cell: &Recorder) {
        assert!(
            !self.same_recorder(cell),
            "a recorder cannot absorb itself"
        );
        if !self.is_enabled() {
            return;
        }
        let other = cell.lock();
        let mut st = self.lock();
        let base = st.next_span - 1;
        for ev in &other.events {
            let mut ev = ev.clone();
            if ev.req != 0 {
                ev.req += base;
            }
            st.store(ev);
        }
        st.dropped += other.dropped;
        st.next_span += other.next_span - 1;
        st.spans_opened += other.spans_opened;
        st.spans_closed += other.spans_closed;
        st.now_ns = other.now_ns;
        for (name, v) in &other.counters {
            st.bump(name, *v);
        }
        for (name, hist) in &other.hists {
            st.hists.entry(name).or_default().absorb(hist);
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.inner.state.lock().expect("recorder poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_stores_nothing() {
        let r = Recorder::new();
        assert_eq!(r.begin_span("read", "original", 1), 0);
        r.emit(EventKind::Remap);
        r.end_span(0);
        assert!(r.events().is_empty());
        assert!(r.counters().is_empty());
        assert!(r.spans_balanced());
    }

    #[test]
    fn events_carry_the_current_lane() {
        let r = Recorder::new();
        r.enable(TraceConfig::default());
        let s = r.begin_span("read", "ncache", 1);
        r.end_span(s);
        r.set_lane(3);
        let s = r.begin_span("read", "ncache", 1);
        r.emit(EventKind::Remap);
        r.end_span(s);
        r.set_lane(0);
        r.emit(EventKind::Remap);
        let evs = r.events();
        assert_eq!(
            evs.iter().map(|e| e.lane).collect::<Vec<_>>(),
            vec![0, 0, 3, 3, 3, 0],
            "lane sticks like the clock until switched"
        );
    }

    #[test]
    fn events_carry_sim_time_and_span() {
        let r = Recorder::new();
        r.enable(TraceConfig::default());
        r.set_now(500);
        let s = r.begin_span("write", "ncache", 8192);
        assert_eq!(s, 1);
        r.set_now(500); // functional events share the issue instant
        r.emit(EventKind::Copy {
            category: "payload",
            bytes: 4096,
        });
        r.end_span(s);
        r.emit(EventKind::Remap); // outside any span
        let evs = r.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[1].req, 1);
        assert_eq!(evs[1].ts_ns, 500);
        assert_eq!(evs[3].req, 0);
        assert!(r.spans_balanced());
    }

    #[test]
    fn ring_buffer_drops_oldest_deterministically() {
        let r = Recorder::new();
        r.enable(TraceConfig { capacity: 3 });
        for i in 0..5 {
            r.set_now(i);
            r.emit(EventKind::Remap);
        }
        let evs = r.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(r.dropped(), 2);
        assert_eq!(evs[0].ts_ns, 2);
        assert_eq!(r.counter("ncache.remaps"), 5, "counters never drop");
    }

    #[test]
    fn request_latency_feeds_histogram() {
        let r = Recorder::new();
        r.enable(TraceConfig::default());
        r.emit(EventKind::Request {
            op: "read",
            path: "hit",
            start_ns: 100,
            end_ns: 1100,
            stages: vec![
                StageNs {
                    stage: "app-rx",
                    queue_ns: 0,
                    service_ns: 400,
                },
                StageNs {
                    stage: "app-cpu",
                    queue_ns: 100,
                    service_ns: 500,
                },
            ],
        });
        let hists = r.histograms();
        let h = &hists["request.latency_ns"];
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 1000);
        assert_eq!(hists["request.latency_ns.hit"].sum, 1000);
        assert_eq!(hists["stage.app-rx.queue_ns"].sum, 0);
        assert_eq!(hists["stage.app-rx.service_ns"].sum, 400);
        assert_eq!(hists["stage.app-cpu.queue_ns"].sum, 100);
        assert_eq!(hists["stage.app-cpu.service_ns"].sum, 500);
        assert!(!hists.contains_key("request.latency_ns.disk"));
    }

    #[test]
    fn enable_clears_previous_state() {
        let r = Recorder::new();
        r.enable(TraceConfig::default());
        r.emit(EventKind::Remap);
        r.enable(TraceConfig::default());
        assert!(r.events().is_empty());
        assert_eq!(r.counter("ncache.remaps"), 0);
    }

    #[test]
    fn clones_share_state() {
        let a = Recorder::new();
        let b = a.clone();
        a.enable(TraceConfig::default());
        b.emit(EventKind::Remap);
        assert_eq!(a.counter("ncache.remaps"), 1);
        assert!(a.same_recorder(&b));
        assert!(!a.same_recorder(&Recorder::new()));
    }

    fn emit_workload(r: &Recorder, cells: &[u64]) {
        for &salt in cells {
            r.set_now(salt * 100);
            let s = r.begin_span("read", "ncache", salt);
            r.emit(EventKind::Copy {
                category: "payload",
                bytes: 4096 + salt,
            });
            r.emit(EventKind::Request {
                op: "read",
                path: "disk",
                start_ns: salt,
                end_ns: salt + 1000,
                stages: vec![StageNs {
                    stage: "disk",
                    queue_ns: salt,
                    service_ns: 1000 - salt,
                }],
            });
            r.end_span(s);
            r.emit(EventKind::Remap);
        }
    }

    #[test]
    fn absorbing_per_cell_recorders_equals_one_shared_recorder() {
        for capacity in [1 << 10, 4usize] {
            let cfg = TraceConfig { capacity };
            let seq = Recorder::new();
            seq.enable(cfg);
            emit_workload(&seq, &[1]);
            emit_workload(&seq, &[2, 3]);

            let merged = Recorder::new();
            merged.enable(cfg);
            for cell in [&[1u64][..], &[2, 3][..]] {
                let r = Recorder::new();
                r.enable(cfg);
                emit_workload(&r, cell);
                merged.absorb(&r);
            }

            assert_eq!(seq.events(), merged.events(), "capacity {capacity}");
            assert_eq!(seq.counters(), merged.counters());
            assert_eq!(seq.histograms(), merged.histograms());
            assert_eq!(seq.dropped(), merged.dropped());
            assert_eq!(seq.spans_opened(), merged.spans_opened());
            assert!(merged.spans_balanced());
        }
    }

    #[test]
    fn absorb_renumbers_span_ids_densely() {
        let a = Recorder::new();
        a.enable(TraceConfig::default());
        let s = a.begin_span("read", "original", 0);
        a.end_span(s);
        let b = Recorder::new();
        b.enable(TraceConfig::default());
        let s = b.begin_span("write", "original", 0);
        b.end_span(s);
        a.absorb(&b);
        let spans: Vec<u64> = a.events().iter().map(|e| e.req).collect();
        assert_eq!(spans, vec![1, 1, 2, 2]);
        let s = a.begin_span("get", "original", 0);
        assert_eq!(s, 3, "next local span continues after absorbed ids");
        a.end_span(s);
    }

    #[test]
    fn absorb_into_disabled_recorder_is_a_noop() {
        let a = Recorder::new();
        let b = Recorder::new();
        b.enable(TraceConfig::default());
        b.emit(EventKind::Remap);
        a.absorb(&b);
        assert!(a.events().is_empty());
        assert!(a.counters().is_empty());
    }

    #[test]
    fn recorder_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Recorder>();
    }
}
