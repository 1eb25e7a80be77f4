//! The discrete-event engine.
//!
//! [`Engine`] owns a user-supplied world `W` plus an event queue. Events are
//! boxed closures invoked as `f(&mut W, &mut Scheduler)`; handlers mutate the
//! world and schedule follow-up events. Events at the same instant fire in
//! `(lane, scheduling-seq)` order: a lane is a session/actor identifier (0
//! when unused), so a multi-session run interleaves deterministically by
//! `(time, session, seq)` — the tiebreak the client-scaling experiments and
//! their determinism gates rely on.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{Duration, SimTime};

/// An event handler: mutates the world and may schedule further events.
pub type EventFn<W> = Box<dyn FnOnce(&mut W, &mut Scheduler<W>)>;

struct QueuedEvent<W> {
    at: SimTime,
    lane: u64,
    seq: u64,
    run: EventFn<W>,
}

impl<W> PartialEq for QueuedEvent<W> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.lane == other.lane && self.seq == other.seq
    }
}
impl<W> Eq for QueuedEvent<W> {}
impl<W> PartialOrd for QueuedEvent<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for QueuedEvent<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest
        // (time, lane, seq) pops first.
        (other.at, other.lane, other.seq).cmp(&(self.at, self.lane, self.seq))
    }
}

/// The part of the engine visible to event handlers: the clock and the
/// ability to schedule more events.
pub struct Scheduler<W> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<QueuedEvent<W>>,
    events_run: u64,
}

impl<W> Scheduler<W> {
    fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            events_run: 0,
        }
    }

    /// Schedules `f` to run at absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut W, &mut Scheduler<W>) + 'static) {
        self.schedule_at_lane(at, 0, f);
    }

    /// Schedules `f` at absolute instant `at` on `lane`. Among events at
    /// the same instant, lower lanes fire first; within a lane, scheduling
    /// order wins.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at_lane(
        &mut self,
        at: SimTime,
        lane: u64,
        f: impl FnOnce(&mut W, &mut Scheduler<W>) + 'static,
    ) {
        assert!(at >= self.now, "cannot schedule into the past");
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(QueuedEvent {
            at,
            lane,
            seq,
            run: Box::new(f),
        });
    }

    /// Schedules `f` to run `delay` after the current instant.
    pub fn schedule_in(
        &mut self,
        delay: Duration,
        f: impl FnOnce(&mut W, &mut Scheduler<W>) + 'static,
    ) {
        let at = self.now + delay;
        self.schedule_at(at, f);
    }
}

/// A deterministic discrete-event simulation over a world `W`.
///
/// # Examples
///
/// ```
/// use sim::engine::Engine;
/// use sim::time::Duration;
///
/// let mut engine: Engine<Vec<u32>> = Engine::new(Vec::new());
/// engine.schedule(Duration::from_nanos(2), |w, _| w.push(2));
/// engine.schedule(Duration::from_nanos(1), |w, _| w.push(1));
/// engine.run();
/// assert_eq!(engine.into_world(), vec![1, 2]);
/// ```
pub struct Engine<W> {
    world: W,
    sched: Scheduler<W>,
}

impl<W> Engine<W> {
    /// Creates an engine at time zero over `world`.
    pub fn new(world: W) -> Self {
        Engine {
            world,
            sched: Scheduler::new(),
        }
    }

    /// Consumes the engine and returns the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Schedules `f` to run `delay` after the current instant.
    pub fn schedule(&mut self, delay: Duration, f: impl FnOnce(&mut W, &mut Scheduler<W>) + 'static) {
        self.sched.schedule_in(delay, f);
    }

    /// Schedules `f` at an absolute instant.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut W, &mut Scheduler<W>) + 'static) {
        self.sched.schedule_at(at, f);
    }

    /// Runs until the event queue is empty. Returns the final time.
    pub fn run(&mut self) -> SimTime {
        self.run_until(SimTime::from_nanos(u64::MAX))
    }

    /// Runs until the queue is empty or the next event would fire after
    /// `deadline`. Events exactly at `deadline` still run. The clock is left
    /// at the last executed event (or `deadline` if it was reached).
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        while let Some(ev) = self.sched.queue.peek() {
            if ev.at > deadline {
                self.sched.now = deadline;
                return self.sched.now;
            }
            let ev = self.sched.queue.pop().expect("peeked event must exist");
            debug_assert!(ev.at >= self.sched.now, "event queue went backwards");
            self.sched.now = ev.at;
            self.sched.events_run += 1;
            (ev.run)(&mut self.world, &mut self.sched);
        }
        self.sched.now
    }
}

impl<W: std::fmt::Debug> std::fmt::Debug for Engine<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.sched.now)
            .field("pending", &self.sched.queue.len())
            .field("events_run", &self.sched.events_run)
            .field("world", &self.world)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut e: Engine<Vec<u64>> = Engine::new(Vec::new());
        for &d in &[5u64, 1, 3, 2, 4] {
            e.schedule(Duration::from_nanos(d), move |w, _| w.push(d));
        }
        e.run();
        assert_eq!(e.world, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn ties_fire_in_scheduling_order() {
        let mut e: Engine<Vec<u32>> = Engine::new(Vec::new());
        for i in 0..10u32 {
            e.schedule(Duration::from_nanos(7), move |w, _| w.push(i));
        }
        e.run();
        assert_eq!(e.world, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn same_instant_ties_break_by_lane_then_seq() {
        let mut e: Engine<Vec<(u64, u32)>> = Engine::new(Vec::new());
        // Schedule out of lane order at one instant: lane order must win.
        e.schedule(Duration::from_nanos(1), |_, s| {
            for (lane, tag) in [(3u64, 0u32), (1, 1), (2, 2), (1, 3), (0, 4)] {
                let at = s.now + Duration::from_nanos(5);
                s.schedule_at_lane(at, lane, move |w, _| {
                    w.push((lane, tag));
                });
            }
        });
        e.run();
        assert_eq!(
            e.world,
            vec![(0, 4), (1, 1), (1, 3), (2, 2), (3, 0)],
            "lanes ascending; scheduling order within a lane"
        );
    }

    #[test]
    fn time_dominates_lane() {
        let mut e: Engine<Vec<u64>> = Engine::new(Vec::new());
        e.schedule(Duration::from_nanos(1), |_, s| {
            let now = s.now;
            s.schedule_at_lane(now + Duration::from_nanos(9), 0, |w, _| w.push(0));
            s.schedule_at_lane(now + Duration::from_nanos(1), 7, |w, _| w.push(7));
        });
        e.run();
        assert_eq!(e.world, vec![7, 0], "an earlier event on a higher lane still fires first");
    }

    #[test]
    fn handlers_can_chain_events() {
        let mut e: Engine<u32> = Engine::new(0);
        e.schedule(Duration::from_nanos(1), |w, s| {
            *w += 1;
            s.schedule_in(Duration::from_nanos(1), |w, s| {
                *w += 10;
                s.schedule_in(Duration::from_nanos(1), |w, _| *w += 100);
            });
        });
        let end = e.run();
        assert_eq!(e.world, 111);
        assert_eq!(end, SimTime::from_nanos(3));
        assert_eq!(e.sched.events_run, 3);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut e: Engine<u32> = Engine::new(0);
        e.schedule(Duration::from_nanos(5), |w, _| *w += 1);
        e.schedule(Duration::from_nanos(15), |w, _| *w += 1);
        let t = e.run_until(SimTime::from_nanos(10));
        assert_eq!(e.world, 1);
        assert_eq!(t, SimTime::from_nanos(10));
        // The remaining event still runs afterwards.
        e.run();
        assert_eq!(e.world, 2);
    }

    #[test]
    fn event_exactly_at_deadline_runs() {
        let mut e: Engine<u32> = Engine::new(0);
        e.schedule(Duration::from_nanos(10), |w, _| *w += 1);
        e.run_until(SimTime::from_nanos(10));
        assert_eq!(e.world, 1);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut e: Engine<u32> = Engine::new(0);
        e.schedule(Duration::from_nanos(10), |_, s| {
            s.schedule_at(SimTime::from_nanos(5), |_, _| {});
        });
        e.run();
    }

    #[test]
    fn empty_run_leaves_clock_at_zero() {
        let mut e: Engine<()> = Engine::new(());
        assert_eq!(e.run(), SimTime::ZERO);
        assert_eq!(e.sched.events_run, 0);
    }
}
