//! The copy ledger: counts every data-movement operation in the data plane.
//!
//! Table 2 of the paper reports *data copying operations per request* for
//! each server configuration and path. Rather than asserting those numbers,
//! the reproduction measures them: every physical copy, logical copy,
//! checksum pass and header movement flows through a [`CopyLedger`], and the
//! testbed's CPU model converts the counted operations into simulated time.
//!
//! Since the concurrent-data-plane refactor the counters are atomics (a
//! per-charge mutex would serialize the read fast path right back into a
//! global lock), striped lane-major ([`sim::LaneCounters`]): a charge adds
//! to the charging thread's own padded stripe — a plain load and store,
//! since no other thread writes it — so two lanes charging one ledger
//! never write the same cache line, and [`CopyLedger::snapshot`] sums the
//! stripes. The ledger additionally supports
//! *per-thread observation windows*
//! ([`CopyLedger::begin_window`]/[`CopyLedger::end_window`]): a window
//! accumulates only the charges made by the calling thread, which is
//! exactly a request's charge set in the lane-parallel engine (every
//! charge of an op happens on its lane's thread). Windows are what let
//! concurrent readers attribute charges per-op without excluding each
//! other the way snapshot-delta attribution under a big lock did.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use sim::LaneCounters;

/// A point-in-time copy of the ledger's counters.
///
/// Subtract two snapshots ([`LedgerSnapshot::delta_since`]) to obtain the
/// operations performed by a single request — this is how the Table 2
/// benchmark extracts per-request copy counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LedgerSnapshot {
    /// Number of physical *regular-data* payload copy operations (each
    /// moves one payload's worth of bytes between layers). This is the
    /// column Table 2 reports.
    pub payload_copies: u64,
    /// Total payload bytes moved by physical copies.
    pub payload_bytes_copied: u64,
    /// Number of physical copies of *metadata* blocks (inodes,
    /// directories, bitmaps, indirect blocks). The paper's servers copy
    /// these in every build; they cost CPU but are not Table 2's regular
    /// data copies.
    pub meta_copies: u64,
    /// Total metadata bytes moved by physical copies.
    pub meta_bytes_copied: u64,
    /// Number of logical copies (key/pointer movements instead of payload).
    pub logical_copies: u64,
    /// Header bytes built or moved (metadata; the paper treats these as
    /// negligible but we count them for completeness).
    pub header_bytes: u64,
    /// Bytes checksummed in software.
    pub csum_bytes: u64,
    /// Checksum passes avoided by inheritance/pre-computation (NCache §1).
    pub csum_inherited: u64,
    /// Buffer allocations performed.
    pub allocations: u64,
}

impl LedgerSnapshot {
    /// The operations performed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `earlier` is not actually earlier;
    /// counters are monotone.
    pub fn delta_since(&self, earlier: &LedgerSnapshot) -> LedgerSnapshot {
        LedgerSnapshot {
            payload_copies: self.payload_copies - earlier.payload_copies,
            payload_bytes_copied: self.payload_bytes_copied - earlier.payload_bytes_copied,
            meta_copies: self.meta_copies - earlier.meta_copies,
            meta_bytes_copied: self.meta_bytes_copied - earlier.meta_bytes_copied,
            logical_copies: self.logical_copies - earlier.logical_copies,
            header_bytes: self.header_bytes - earlier.header_bytes,
            csum_bytes: self.csum_bytes - earlier.csum_bytes,
            csum_inherited: self.csum_inherited - earlier.csum_inherited,
            allocations: self.allocations - earlier.allocations,
        }
    }
}

impl obs::StatsSnapshot for LedgerSnapshot {
    fn source(&self) -> &'static str {
        "copy-ledger"
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("payload_copies", self.payload_copies),
            ("payload_bytes_copied", self.payload_bytes_copied),
            ("meta_copies", self.meta_copies),
            ("meta_bytes_copied", self.meta_bytes_copied),
            ("logical_copies", self.logical_copies),
            ("header_bytes", self.header_bytes),
            ("csum_bytes", self.csum_bytes),
            ("csum_inherited", self.csum_inherited),
            ("allocations", self.allocations),
        ]
    }
}

impl fmt::Display for LedgerSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "copies={} ({} B), meta={} ({} B), logical={}, hdr={} B, csum={} B (inherited {}), allocs={}",
            self.payload_copies,
            self.payload_bytes_copied,
            self.meta_copies,
            self.meta_bytes_copied,
            self.logical_copies,
            self.header_bytes,
            self.csum_bytes,
            self.csum_inherited,
            self.allocations
        )
    }
}

// Counter indices into the ledger's [`LaneCounters`], one per
// [`LedgerSnapshot`] field.
const PAYLOAD_COPIES: usize = 0;
const PAYLOAD_BYTES_COPIED: usize = 1;
const META_COPIES: usize = 2;
const META_BYTES_COPIED: usize = 3;
const LOGICAL_COPIES: usize = 4;
const HEADER_BYTES: usize = 5;
const CSUM_BYTES: usize = 6;
const CSUM_INHERITED: usize = 7;
const ALLOCATIONS: usize = 8;
const FIELDS: usize = 9;

/// The shared state behind every clone of a ledger handle. The counters
/// are relaxed lane-striped sums: each field is an independent monotone
/// event count, and whole-snapshot reads are only compared at quiescent
/// points (sequential code, or after the lane threads have joined), where
/// every load reads a settled value.
#[derive(Debug, Default)]
struct Shared {
    counts: LaneCounters<FIELDS>,
    /// Cheap gate in front of the recorder mutex: charges skip the lock
    /// entirely until a recorder is attached.
    has_recorder: AtomicBool,
    /// Mirror every charge as an [`obs::EventKind::Copy`] event. Lives
    /// inside the shared state so attaching once propagates to all clones
    /// of the handle. The recorder never calls back into the ledger, so
    /// emitting under this lock cannot deadlock.
    recorder: Mutex<Option<obs::Recorder>>,
}

thread_local! {
    /// Open observation windows on this thread: (ledger identity, charges
    /// accumulated since the window opened). A Vec because windows on
    /// *different* ledgers routinely nest (an op windows the app and
    /// storage ledgers together).
    static WINDOWS: RefCell<Vec<(usize, LedgerSnapshot)>> =
        const { RefCell::new(Vec::new()) };
}

/// Shared handle to a copy ledger. Cloning the handle shares the counters.
///
/// # Examples
///
/// ```
/// use netbuf::CopyLedger;
/// let ledger = CopyLedger::new();
/// let before = ledger.snapshot();
/// ledger.charge_payload_copy(4096);
/// let delta = ledger.snapshot().delta_since(&before);
/// assert_eq!(delta.payload_copies, 1);
/// assert_eq!(delta.payload_bytes_copied, 4096);
/// ```
#[derive(Clone, Debug, Default)]
pub struct CopyLedger {
    shared: Arc<Shared>,
}

impl CopyLedger {
    /// Creates a ledger with all counters at zero.
    pub fn new() -> Self {
        CopyLedger::default()
    }

    /// Mirrors every subsequent charge (from any clone of this handle) as
    /// an [`obs::EventKind::Copy`] event on `rec`.
    pub fn attach_recorder(&self, rec: &obs::Recorder) {
        *self.shared.recorder.lock().expect("copy ledger poisoned") = Some(rec.clone());
        self.shared.has_recorder.store(true, Ordering::Relaxed);
    }

    fn emit(&self, category: &'static str, bytes: u64) {
        if self.shared.has_recorder.load(Ordering::Relaxed) {
            if let Some(rec) = &*self.shared.recorder.lock().expect("copy ledger poisoned") {
                rec.emit(obs::EventKind::Copy { category, bytes });
            }
        }
    }

    fn ledger_id(&self) -> usize {
        Arc::as_ptr(&self.shared) as usize
    }

    /// Applies `add` to every window this thread has open on this ledger.
    fn tally_windows(&self, add: impl Fn(&mut LedgerSnapshot)) {
        let id = self.ledger_id();
        WINDOWS.with(|w| {
            for (k, snap) in w.borrow_mut().iter_mut() {
                if *k == id {
                    add(snap);
                }
            }
        });
    }

    /// Opens an observation window: until the matching
    /// [`CopyLedger::end_window`], every charge made *by this thread*
    /// through any clone of this handle also accumulates into the window.
    /// Windows on the same ledger nest (each sees the charges made while
    /// it is open); windows on different ledgers are independent.
    pub fn begin_window(&self) {
        let id = self.ledger_id();
        WINDOWS.with(|w| w.borrow_mut().push((id, LedgerSnapshot::default())));
    }

    /// Closes the innermost window this thread has open on this ledger
    /// and returns the charges it observed.
    ///
    /// # Panics
    ///
    /// Panics if this thread has no open window on this ledger.
    pub fn end_window(&self) -> LedgerSnapshot {
        let id = self.ledger_id();
        WINDOWS.with(|w| {
            let mut w = w.borrow_mut();
            let idx = w
                .iter()
                .rposition(|(k, _)| *k == id)
                .expect("end_window without a matching begin_window");
            w.remove(idx).1
        })
    }

    /// Records one physical copy of `bytes` payload bytes.
    pub fn charge_payload_copy(&self, bytes: u64) {
        let lane = self.shared.counts.lane();
        lane.add(PAYLOAD_COPIES, 1);
        lane.add(PAYLOAD_BYTES_COPIED, bytes);
        self.tally_windows(|s| {
            s.payload_copies += 1;
            s.payload_bytes_copied += bytes;
        });
        self.emit("payload", bytes);
    }

    /// Records one physical copy of `bytes` metadata bytes.
    pub fn charge_meta_copy(&self, bytes: u64) {
        let lane = self.shared.counts.lane();
        lane.add(META_COPIES, 1);
        lane.add(META_BYTES_COPIED, bytes);
        self.tally_windows(|s| {
            s.meta_copies += 1;
            s.meta_bytes_copied += bytes;
        });
        self.emit("meta", bytes);
    }

    /// Records one logical copy (a key or pointer moved instead of data).
    pub fn charge_logical_copy(&self) {
        self.shared.counts.add(LOGICAL_COPIES, 1);
        self.tally_windows(|s| s.logical_copies += 1);
        self.emit("logical", 0);
    }

    /// Records `bytes` of protocol header construction or movement.
    pub fn charge_header_bytes(&self, bytes: u64) {
        self.shared.counts.add(HEADER_BYTES, bytes);
        self.tally_windows(|s| s.header_bytes += bytes);
        self.emit("header", bytes);
    }

    /// Records a software checksum pass over `bytes` bytes.
    pub fn charge_csum(&self, bytes: u64) {
        self.shared.counts.add(CSUM_BYTES, bytes);
        self.tally_windows(|s| s.csum_bytes += bytes);
        self.emit("csum", bytes);
    }

    /// Records a checksum pass that was *avoided* by inheriting or reusing
    /// a stored checksum.
    pub fn charge_csum_inherited(&self) {
        self.shared.counts.add(CSUM_INHERITED, 1);
        self.tally_windows(|s| s.csum_inherited += 1);
        self.emit("csum_inherited", 0);
    }

    /// Records a buffer allocation.
    pub fn charge_allocation(&self) {
        self.shared.counts.add(ALLOCATIONS, 1);
        self.tally_windows(|s| s.allocations += 1);
        self.emit("alloc", 0);
    }

    /// Current counter values, summed across lanes.
    pub fn snapshot(&self) -> LedgerSnapshot {
        let t = self.shared.counts.totals();
        LedgerSnapshot {
            payload_copies: t[PAYLOAD_COPIES],
            payload_bytes_copied: t[PAYLOAD_BYTES_COPIED],
            meta_copies: t[META_COPIES],
            meta_bytes_copied: t[META_BYTES_COPIED],
            logical_copies: t[LOGICAL_COPIES],
            header_bytes: t[HEADER_BYTES],
            csum_bytes: t[CSUM_BYTES],
            csum_inherited: t[CSUM_INHERITED],
            allocations: t[ALLOCATIONS],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let l = CopyLedger::new();
        l.charge_payload_copy(100);
        l.charge_payload_copy(200);
        l.charge_meta_copy(50);
        l.charge_logical_copy();
        l.charge_header_bytes(42);
        l.charge_csum(300);
        l.charge_csum_inherited();
        l.charge_allocation();
        let s = l.snapshot();
        assert_eq!(s.payload_copies, 2);
        assert_eq!(s.payload_bytes_copied, 300);
        assert_eq!(s.meta_copies, 1);
        assert_eq!(s.meta_bytes_copied, 50);
        assert_eq!(s.logical_copies, 1);
        assert_eq!(s.header_bytes, 42);
        assert_eq!(s.csum_bytes, 300);
        assert_eq!(s.csum_inherited, 1);
        assert_eq!(s.allocations, 1);
    }

    #[test]
    fn clones_share_counters() {
        let a = CopyLedger::new();
        let b = a.clone();
        b.charge_payload_copy(10);
        assert_eq!(a.snapshot().payload_copies, 1);
        assert_eq!(CopyLedger::new().snapshot().payload_copies, 0);
    }

    #[test]
    fn delta_since_isolates_a_request() {
        let l = CopyLedger::new();
        l.charge_payload_copy(10);
        let before = l.snapshot();
        l.charge_payload_copy(20);
        l.charge_logical_copy();
        let d = l.snapshot().delta_since(&before);
        assert_eq!(d.payload_copies, 1);
        assert_eq!(d.payload_bytes_copied, 20);
        assert_eq!(d.logical_copies, 1);
    }

    #[test]
    fn display_is_nonempty() {
        let s = CopyLedger::new().snapshot().to_string();
        assert!(s.contains("copies=0"));
    }

    #[test]
    fn attached_recorder_mirrors_charges() {
        let l = CopyLedger::new();
        let rec = obs::Recorder::new();
        rec.enable(obs::TraceConfig::default());
        l.attach_recorder(&rec);
        let clone = l.clone(); // attach propagates through shared state
        clone.charge_payload_copy(4096);
        l.charge_csum(4096);
        l.charge_logical_copy();
        assert_eq!(rec.counter("copy.payload.ops"), 1);
        assert_eq!(rec.counter("copy.payload.bytes"), 4096);
        assert_eq!(rec.counter("copy.csum.bytes"), 4096);
        assert_eq!(rec.counter("copy.logical.ops"), 1);
        assert_eq!(rec.events().len(), 3);
    }

    #[test]
    fn snapshot_exposes_stats_counters() {
        use obs::StatsSnapshot;
        let l = CopyLedger::new();
        l.charge_payload_copy(100);
        let snap = l.snapshot();
        assert_eq!(snap.source(), "copy-ledger");
        let counters = snap.counters();
        assert!(counters.contains(&("payload_copies", 1)));
        assert!(counters.contains(&("payload_bytes_copied", 100)));
    }

    #[test]
    fn ledger_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CopyLedger>();
    }

    #[test]
    fn window_sees_only_this_threads_charges() {
        let l = CopyLedger::new();
        l.charge_payload_copy(1); // before the window: invisible
        l.begin_window();
        l.charge_payload_copy(10);
        l.charge_header_bytes(42);
        // A charge from another thread lands in the global counters but
        // not in this thread's window.
        std::thread::scope(|s| {
            let l2 = l.clone();
            s.spawn(move || l2.charge_payload_copy(100));
        });
        let w = l.end_window();
        assert_eq!(w.payload_copies, 1);
        assert_eq!(w.payload_bytes_copied, 10);
        assert_eq!(w.header_bytes, 42);
        let total = l.snapshot();
        assert_eq!(total.payload_copies, 3);
        assert_eq!(total.payload_bytes_copied, 111);
    }

    #[test]
    fn windows_on_different_ledgers_are_independent() {
        let a = CopyLedger::new();
        let b = CopyLedger::new();
        a.begin_window();
        b.begin_window();
        a.charge_meta_copy(7);
        b.charge_csum(9);
        let wa = a.end_window();
        let wb = b.end_window();
        assert_eq!(wa.meta_copies, 1);
        assert_eq!(wa.meta_bytes_copied, 7);
        assert_eq!(wa.csum_bytes, 0);
        assert_eq!(wb.csum_bytes, 9);
        assert_eq!(wb.meta_copies, 0);
    }

    #[test]
    fn nested_windows_on_one_ledger_both_observe() {
        let l = CopyLedger::new();
        l.begin_window();
        l.charge_logical_copy();
        l.begin_window();
        l.charge_logical_copy();
        let inner = l.end_window();
        l.charge_logical_copy();
        let outer = l.end_window();
        assert_eq!(inner.logical_copies, 1);
        assert_eq!(outer.logical_copies, 3);
    }

    #[test]
    fn window_charges_go_through_any_clone() {
        let l = CopyLedger::new();
        let clone = l.clone();
        l.begin_window();
        clone.charge_allocation();
        assert_eq!(l.end_window().allocations, 1);
    }

    #[test]
    #[should_panic(expected = "end_window without a matching begin_window")]
    fn end_window_without_begin_panics() {
        CopyLedger::new().end_window();
    }

    #[test]
    fn concurrent_charges_sum_exactly() {
        let l = CopyLedger::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let l = l.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        l.charge_payload_copy(3);
                    }
                });
            }
        });
        let snap = l.snapshot();
        assert_eq!(snap.payload_copies, 4000);
        assert_eq!(snap.payload_bytes_copied, 12000);
    }
}
