//! The pass-through server host: everything the NFS daemon and kHTTPd
//! share, written once.
//!
//! The paper's point is that NCache is application-independent — the same
//! module sits under both daemons with the daemons untouched (Table 1).
//! The same holds for what surrounds a daemon on the application server:
//! the build it runs, the file system over the iSCSI initiator, the module
//! handle, the node's copy ledger, the recorder, fault recovery, the
//! overload control plane and the driver-boundary transmit hook are not
//! NFS or HTTP. A server is a [`ServerHost`] plus its codec, its op
//! handlers and its own counters ([`crate::nfs::NfsServer`] adds the
//! duplicate-request cache); both deref to the host, so `server.fs_mut()`
//! or `server.set_load(..)` is the host's method on either.

use ncache::{NcacheModule, Resolved};
use netbuf::{CopyLedger, NetBuf};
use simfs::Filesystem;

use crate::control::{ControlConfig, ControlPlane, ControlStats, Decision, OpClass, Pressure};
use crate::initiator::IscsiInitiator;
use crate::mode::ServerMode;

/// The application-independent half of a pass-through server.
#[derive(Debug)]
pub struct ServerHost {
    pub(crate) mode: ServerMode,
    pub(crate) fs: Filesystem<IscsiInitiator>,
    pub(crate) module: Option<sim::Shared<NcacheModule>>,
    pub(crate) ledger: CopyLedger,
    pub(crate) recorder: obs::Recorder,
    /// Fault recovery armed: placeholder revalidation verifies chunk
    /// integrity (invalidating corrupt entries), and the NFS server's
    /// duplicate-request cache answers retransmitted non-idempotent calls.
    pub(crate) fault_recovery: bool,
    /// The overload control plane, when installed (off by default — a
    /// server without one behaves exactly as before).
    control: Option<ControlPlane>,
}

impl ServerHost {
    /// A host in `mode` over `fs`. The module must be the same one the
    /// file system's initiator uses.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is [`ServerMode::NCache`] but no module is given.
    pub fn new(
        mode: ServerMode,
        fs: Filesystem<IscsiInitiator>,
        module: Option<sim::Shared<NcacheModule>>,
        ledger: &CopyLedger,
    ) -> Self {
        assert!(
            mode != ServerMode::NCache || module.is_some(),
            "NCache mode requires the NCache module"
        );
        ServerHost {
            mode,
            fs,
            module,
            ledger: ledger.clone(),
            recorder: obs::Recorder::new(),
            fault_recovery: false,
            control: None,
        }
    }

    /// Installs the overload control plane (see
    /// [`crate::control::AdmissionGate`] for the policy).
    pub fn enable_control(&mut self, cfg: ControlConfig) {
        self.control = Some(ControlPlane::new(cfg));
    }

    /// Reports the timing layer's load to the control plane: the next
    /// request's sim arrival instant and the current in-flight depth.
    /// No-op without an installed plane.
    pub fn set_load(&mut self, now_ns: u64, inflight: u64) {
        if let Some(cp) = &mut self.control {
            cp.set_load(now_ns, inflight);
        }
    }

    /// The control plane's counters, when one is installed.
    pub fn control_stats(&self) -> Option<ControlStats> {
        self.control.as_ref().map(|cp| cp.stats())
    }

    /// Total control-plane rejections so far (0 without a plane) — the
    /// timing rigs diff this across a request to detect a rejection.
    pub fn control_rejections(&self) -> u64 {
        self.control.as_ref().map_or(0, |cp| cp.stats().rejected)
    }

    /// The installed plane's bound on in-flight requests (0 without a
    /// plane, or with one that does not bound the depth) — the NFS
    /// daemon sizes its duplicate-request cache from it.
    pub(crate) fn control_max_inflight(&self) -> u64 {
        self.control.as_ref().map_or(0, |cp| cp.config().max_inflight)
    }

    /// Samples the backpressure signal from the layers below: the
    /// buffer cache's dirty ratio and the NCache's pinned occupancy.
    fn pressure(&self) -> Pressure {
        let ncache_permille = self.module.as_ref().map_or(0, |m| {
            let m = m.borrow();
            let cap = m.config().capacity_bytes.max(1);
            ((m.pinned_bytes().saturating_mul(1000)) / cap).min(1000) as u32
        });
        Pressure {
            dirty_permille: self.fs.cache_dirty_permille(),
            ncache_permille,
        }
    }

    /// The installed plane and the backpressure it decides under.
    fn gate(&mut self) -> Option<(&mut ControlPlane, Pressure)> {
        let pressure = self.control.is_some().then(|| self.pressure())?;
        Some((self.control.as_mut()?, pressure))
    }

    /// The admission decision for one well-formed request of `class`,
    /// taken ahead of any execution: `Some(after_ns)` means reject with a
    /// retryable error carrying that backoff hint (and is counted as
    /// `control.rejected`); `None` means execute — always, without a plane.
    pub(crate) fn admit(&mut self, class: OpClass) -> Option<u64> {
        let (plane, pressure) = self.gate()?;
        let Decision::RetryLater { after_ns } = plane.decide(class, &pressure) else {
            return None;
        };
        self.recorder.add_counter("control.rejected", 1);
        Some(after_ns)
    }

    /// Whether an NCache insertion should be bypassed under memory
    /// pressure (counted as `control.insert_bypass`): the write then
    /// serves through the copying path without displacing cache state
    /// (DESIGN.md §15). Never without a plane.
    pub(crate) fn bypass_insert(&mut self) -> bool {
        let bypass = self
            .gate()
            .is_some_and(|(plane, pressure)| plane.bypass_insert(&pressure));
        if bypass {
            self.recorder.add_counter("control.insert_bypass", 1);
        }
        bypass
    }

    /// Arms fault recovery: placeholder revalidation verifies stored chunk
    /// checksums, invalidating corrupt entries so replies degrade to the
    /// copying path instead of shipping a poisoned chunk; the NFS server
    /// additionally answers retransmitted WRITE/CREATE/REMOVE calls from
    /// its duplicate-request cache (never re-executed).
    pub fn set_fault_recovery(&mut self, on: bool) {
        self.fault_recovery = on;
    }

    /// Wires a trace recorder through the server-side stack: per-request
    /// spans in the daemon, plus the file system, its initiator, and the
    /// NCache module when present.
    pub fn set_recorder(&mut self, rec: obs::Recorder) {
        self.fs.set_recorder(rec.clone());
        self.fs.store_mut().set_recorder(rec.clone());
        if let Some(module) = &self.module {
            module.borrow_mut().set_recorder(rec.clone());
        }
        self.recorder = rec;
    }

    /// The build this server runs.
    pub fn mode(&self) -> ServerMode {
        self.mode
    }

    /// The file system (for test setup: creating files, syncing).
    pub fn fs_mut(&mut self) -> &mut Filesystem<IscsiInitiator> {
        &mut self.fs
    }

    /// The NCache module, when running that build.
    pub fn module(&self) -> Option<&sim::Shared<NcacheModule>> {
        self.module.as_ref()
    }

    /// The recorder wired through this server (disabled unless
    /// [`Self::set_recorder`] ran).
    pub fn recorder(&self) -> &obs::Recorder {
        &self.recorder
    }

    /// The driver-boundary hook, run once the whole stack has built the
    /// packet: the module substitutes cached payload for the reply's
    /// placeholders (splicing `resolved` when the daemon resolved them
    /// ahead of transmission), then whatever the module displaced goes
    /// back to storage. A no-op in the builds without a module.
    pub(crate) fn transmit(&mut self, reply: &mut NetBuf, resolved: Option<Resolved>) {
        if let Some(module) = &self.module {
            module.borrow_mut().on_transmit(reply, resolved);
        }
        self.drain_writebacks();
    }

    /// Dirty chunks displaced from the network-centric cache go back to
    /// storage through the initiator (which holds the same module handle;
    /// nothing to drain without one).
    pub(crate) fn drain_writebacks(&mut self) {
        self.fs.store_mut().drain_module_writebacks();
    }
}
