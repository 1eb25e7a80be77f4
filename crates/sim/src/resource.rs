//! FIFO-queued service resources (CPUs, network links, disks).
//!
//! A [`Resource`] models `k` identical work-conserving FIFO servers using
//! exact virtual-time bookkeeping: a job arriving at `t` with demand `d` is
//! assigned to the earliest-free server and completes at
//! `max(t, server_free) + d`. Between events nothing changes, so this is an
//! exact discrete-event simulation of a FIFO multi-server queue while being
//! far cheaper than token-based process simulation.
//!
//! Utilization is tracked as accumulated busy time per server, which is how
//! the paper reports "CPU utilization ratio" in Figures 4 and 5.

use crate::time::{Duration, SimTime};

/// A work-conserving FIFO resource with one or more identical servers.
///
/// # Examples
///
/// ```
/// use sim::resource::Resource;
/// use sim::time::{Duration, SimTime};
///
/// let mut cpu = Resource::new("cpu", 1);
/// let t0 = SimTime::ZERO;
/// let c1 = cpu.serve(t0, Duration::from_micros(10));
/// let c2 = cpu.serve(t0, Duration::from_micros(10));
/// assert_eq!(c1, SimTime::from_micros(10));
/// assert_eq!(c2, SimTime::from_micros(20)); // queued behind the first job
/// assert_eq!(cpu.utilization(c2), 1.0);
/// ```
#[derive(Clone, Debug)]
pub struct Resource {
    name: String,
    /// Earliest instant each server becomes free.
    free_at: Vec<SimTime>,
    busy: Duration,
    /// Mirrors each exact busy interval as an
    /// [`obs::EventKind::ResourceBusy`] event.
    recorder: Option<obs::Recorder>,
}

impl Resource {
    /// Creates a resource with `servers` identical FIFO servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    pub fn new(name: impl Into<String>, servers: usize) -> Self {
        assert!(servers > 0, "a resource needs at least one server");
        Resource {
            name: name.into(),
            free_at: vec![SimTime::ZERO; servers],
            busy: Duration::ZERO,
            recorder: None,
        }
    }

    /// The resource's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Emits every subsequent busy interval (server slot plus exact
    /// `[start, done)` in simulated time) on `rec`.
    pub fn set_recorder(&mut self, rec: obs::Recorder) {
        self.recorder = Some(rec);
    }

    /// Enqueues a job arriving at `now` with service demand `demand`;
    /// returns its completion instant.
    pub fn serve(&mut self, now: SimTime, demand: Duration) -> SimTime {
        self.serve_timed(now, demand).1
    }

    /// As [`Resource::serve`], but also returns the instant service
    /// began: `start - now` is the job's queue wait, `done - start` its
    /// service time — the split the latency-attribution layer records.
    pub fn serve_timed(&mut self, now: SimTime, demand: Duration) -> (SimTime, SimTime) {
        let slot = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .map(|(i, _)| i)
            .expect("at least one server");
        let start = self.free_at[slot].max(now);
        let done = start + demand;
        self.free_at[slot] = done;
        self.busy += demand;
        if demand > Duration::ZERO {
            if let Some(rec) = &self.recorder {
                rec.emit(obs::EventKind::ResourceBusy {
                    resource: self.name.clone(),
                    slot: slot as u32,
                    start_ns: start.as_nanos(),
                    end_ns: done.as_nanos(),
                });
            }
        }
        (start, done)
    }

    /// Utilization in `[0, 1]` over the window `[0, elapsed_until]`:
    /// busy time divided by (elapsed × servers). Demand scheduled beyond
    /// `elapsed_until` is excluded so mid-run samples never exceed 1.
    pub fn utilization(&self, elapsed_until: SimTime) -> f64 {
        if elapsed_until == SimTime::ZERO {
            return 0.0;
        }
        // Busy time that falls after the sampling instant must not count.
        let overhang: Duration = self
            .free_at
            .iter()
            .map(|&t| t.saturating_since(elapsed_until))
            .sum();
        let busy = self.busy.saturating_sub(overhang);
        let capacity = elapsed_until.as_secs_f64() * self.free_at.len() as f64;
        (busy.as_secs_f64() / capacity).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_server_fifo_queues() {
        let mut r = Resource::new("r", 1);
        let c1 = r.serve(SimTime::ZERO, Duration::from_nanos(100));
        let c2 = r.serve(SimTime::from_nanos(10), Duration::from_nanos(50));
        assert_eq!(c1, SimTime::from_nanos(100));
        assert_eq!(c2, SimTime::from_nanos(150));
    }

    #[test]
    fn idle_gap_is_not_busy() {
        let mut r = Resource::new("r", 1);
        r.serve(SimTime::ZERO, Duration::from_nanos(100));
        // Arrives long after the first completes: the gap is idle.
        let c = r.serve(SimTime::from_nanos(1_000), Duration::from_nanos(100));
        assert_eq!(c, SimTime::from_nanos(1_100));
        let util = r.utilization(SimTime::from_nanos(1_100));
        assert!((util - 200.0 / 1_100.0).abs() < 1e-12);
    }

    #[test]
    fn two_servers_run_in_parallel() {
        let mut r = Resource::new("r", 2);
        let c1 = r.serve(SimTime::ZERO, Duration::from_nanos(100));
        let c2 = r.serve(SimTime::ZERO, Duration::from_nanos(100));
        let c3 = r.serve(SimTime::ZERO, Duration::from_nanos(100));
        assert_eq!(c1, SimTime::from_nanos(100));
        assert_eq!(c2, SimTime::from_nanos(100));
        assert_eq!(c3, SimTime::from_nanos(200));
        assert_eq!(r.free_at.len(), 2);
    }

    #[test]
    fn utilization_excludes_overhang() {
        let mut r = Resource::new("r", 1);
        r.serve(SimTime::ZERO, Duration::from_nanos(1_000));
        // Sample halfway through the job: only half the demand has run.
        let util = r.utilization(SimTime::from_nanos(500));
        assert!((util - 1.0).abs() < 1e-12);
        // And it never exceeds 1.
        r.serve(SimTime::ZERO, Duration::from_nanos(1_000));
        assert!(r.utilization(SimTime::from_nanos(100)) <= 1.0);
    }

    #[test]
    fn utilization_at_time_zero_is_zero() {
        let r = Resource::new("r", 1);
        assert_eq!(r.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_panics() {
        let _ = Resource::new("r", 0);
    }

    #[test]
    fn recorder_sees_exact_busy_intervals() {
        let rec = obs::Recorder::new();
        rec.enable(obs::TraceConfig::default());
        let mut r = Resource::new("cpu", 1);
        r.set_recorder(rec.clone());
        r.serve(SimTime::from_nanos(10), Duration::from_nanos(100));
        // Queued job: starts when the first frees, not at its arrival.
        r.serve(SimTime::from_nanos(20), Duration::from_nanos(50));
        // Zero-demand jobs occupy no time and emit nothing.
        r.serve(SimTime::from_nanos(20), Duration::ZERO);
        let evs = rec.events();
        assert_eq!(evs.len(), 2);
        match &evs[1].kind {
            obs::EventKind::ResourceBusy {
                resource,
                slot,
                start_ns,
                end_ns,
            } => {
                assert_eq!(resource, "cpu");
                assert_eq!(*slot, 0);
                assert_eq!(*start_ns, 110);
                assert_eq!(*end_ns, 160);
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert_eq!(rec.counter("resource.cpu.busy_ns"), 150);
    }

    #[test]
    fn serve_timed_splits_queue_and_service() {
        let mut r = Resource::new("r", 1);
        // Idle resource: starts at arrival.
        let (s1, d1) = r.serve_timed(SimTime::from_nanos(10), Duration::from_nanos(100));
        assert_eq!(s1, SimTime::from_nanos(10));
        assert_eq!(d1, SimTime::from_nanos(110));
        // Queued job: starts when the first frees.
        let (s2, d2) = r.serve_timed(SimTime::from_nanos(20), Duration::from_nanos(50));
        assert_eq!(s2, SimTime::from_nanos(110));
        assert_eq!(d2, SimTime::from_nanos(160));
        // serve() is exactly the completion half.
        let done = r.serve(SimTime::from_nanos(20), Duration::from_nanos(50));
        assert_eq!(done, SimTime::from_nanos(210));
    }
}
