//! The discrete-event core: a typed event calendar and the single time
//! authority ([`SimClock`]) that both environments advance through.
//!
//! The calendar is a binary min-heap of typed events — task [`EventKind::Arrival`],
//! running-task [`EventKind::Completion`], workflow-root [`EventKind::Release`] —
//! with a fully deterministic total order on equal timestamps:
//!
//! 1. completions before arrivals before root releases (resources free up
//!    before the queue grows, exactly as the stepped scans ordered them);
//! 2. completions on a lower-indexed VM first (the stepped core released
//!    VMs in index order);
//! 3. otherwise FIFO by insertion sequence number (which, for completions
//!    on one VM, is placement order — the running-list order the stepped
//!    core released in).
//!
//! Under this order the event engine is **bit-identical** to the stepped
//! reference engine: the clock reaches exactly the same decision points and
//! applies exactly the same state transitions in the same order, so rewards,
//! metrics, and telemetry fingerprints match to the last bit (checked on
//! every dataset by the workspace's `event_equivalence` suite). The
//! calendar only changes *how* the next decision point is found: an O(log n)
//! pop instead of an O(VMs · running) scan per advance, which is what lets a
//! sparse trace jump dead time at millions of events per second.

use std::cmp::Ordering;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which mechanism advances the simulation clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimeEngine {
    /// The legacy reference engine: linear completion scans
    /// (`Cluster::release_to` / `Cluster::next_completion`) and cursor
    /// sweeps. Kept for the equivalence suite and as the perf baseline.
    Stepped,
    /// The event-calendar engine (default): completions and arrivals live
    /// in a binary heap; advancing pops due events in deterministic order.
    #[default]
    Event,
}

/// What happens at an event's timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The running task `task_id` on VM `vm` finishes and its resources
    /// release.
    Completion {
        /// VM index within the cluster.
        vm: u32,
        /// Id of the finishing task (`TaskSpec::id`; the flattened global
        /// index in the DAG environment).
        task_id: u64,
    },
    /// The trace task at arrival-sorted `index` arrives (flat environment;
    /// scheduled lazily, one pending arrival at a time).
    Arrival {
        /// Index into the arrival-sorted episode trace.
        index: u32,
    },
    /// The dependency-free workflow task `gid` is released at its
    /// submission time (DAG environment; scheduled lazily like arrivals).
    Release {
        /// Flattened global task index.
        gid: u32,
    },
}

impl EventKind {
    /// Same-timestamp class rank: completions, then arrivals, then root
    /// releases.
    fn class(self) -> u8 {
        match self {
            EventKind::Completion { .. } => 0,
            EventKind::Arrival { .. } => 1,
            EventKind::Release { .. } => 2,
        }
    }

    /// Same-timestamp, same-class lane: VM index for completions (the
    /// stepped core released VMs in index order), 0 otherwise.
    fn lane(self) -> u32 {
        match self {
            EventKind::Completion { vm, .. } => vm,
            _ => 0,
        }
    }
}

/// One scheduled event. Ordering (via [`EventCalendar`]) is total and
/// deterministic: `(time, class, lane, insertion seq)`.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Simulation step at which the event fires.
    pub time: u64,
    /// The typed payload.
    pub kind: EventKind,
    /// Insertion sequence number (FIFO tie-break within a lane).
    seq: u64,
}

impl Event {
    /// Insertion sequence number assigned by the calendar.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    fn key(&self) -> (u64, u8, u32, u64) {
        (self.time, self.kind.class(), self.kind.lane(), self.seq)
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// The typed event calendar: a binary min-heap with deterministic
/// tie-breaking (see the module docs for the exact order).
#[derive(Debug, Clone, Default)]
pub struct EventCalendar {
    heap: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
}

impl EventCalendar {
    /// An empty calendar.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events and restarts the sequence counter,
    /// retaining heap capacity (episode reset on warm workspaces).
    pub fn clear(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
    }

    /// Schedules `kind` at `time`. O(log n); FIFO among same-lane ties.
    pub fn schedule(&mut self, time: u64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Event { time, kind, seq }));
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Pops the earliest pending event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    /// Pops the earliest pending event iff it fires at or before `horizon`.
    pub fn pop_due(&mut self, horizon: u64) -> Option<Event> {
        if self.peek_time()? <= horizon {
            self.pop()
        } else {
            None
        }
    }
}

/// How an environment reacts to the passage of time. The [`SimClock`] owns
/// the *decision* of where the clock goes next; implementors own the state
/// transitions. The two `scan_*` methods are the legacy reference engine's
/// mechanism and must apply exactly the same transitions as the
/// corresponding [`TimeDriven::on_event`] calls would.
pub trait TimeDriven {
    /// Applies one calendar event (event engine). Handlers may schedule
    /// follow-up events into `calendar` (e.g. the next lazy arrival).
    fn on_event(&mut self, ev: Event, calendar: &mut EventCalendar);

    /// Applies every event with timestamp `<= now` by scanning (stepped
    /// reference engine). Returns the number of logical events applied.
    fn scan_to(&mut self, now: u64) -> u64;

    /// Earliest pending event timestamp by scanning (stepped reference
    /// engine).
    fn next_event_scan(&self) -> Option<u64>;
}

/// The single time authority: owns `now`, the calendar, and the one copy of
/// the fast-forward logic both environments previously duplicated. All
/// clock movement goes through here; environments never mutate time
/// directly.
#[derive(Debug, Clone)]
pub struct SimClock {
    engine: TimeEngine,
    now: u64,
    calendar: EventCalendar,
}

impl SimClock {
    /// A clock at step 0 with an empty calendar.
    pub fn new(engine: TimeEngine) -> Self {
        Self { engine, now: 0, calendar: EventCalendar::new() }
    }

    /// The active engine.
    pub fn engine(&self) -> TimeEngine {
        self.engine
    }

    /// Switches engines, dropping any pending events (only meaningful
    /// between episodes; the environments enforce that).
    pub fn set_engine(&mut self, engine: TimeEngine) {
        self.engine = engine;
        self.calendar.clear();
    }

    /// Current simulation time (steps).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Pending calendar size (0 under the stepped engine).
    pub fn pending_events(&self) -> usize {
        self.calendar.len()
    }

    /// Rewinds to step 0 and clears the calendar (episode reset).
    pub fn reset(&mut self) {
        self.now = 0;
        self.calendar.clear();
    }

    /// Schedules an event (no-op under the stepped engine, whose mechanism
    /// re-derives events by scanning).
    pub fn schedule(&mut self, time: u64, kind: EventKind) {
        if self.engine == TimeEngine::Event {
            self.calendar.schedule(time, kind);
        }
    }

    /// Earliest pending event timestamp under the active engine.
    pub fn next_event<H: TimeDriven>(&self, h: &H) -> Option<u64> {
        match self.engine {
            TimeEngine::Event => self.calendar.peek_time(),
            TimeEngine::Stepped => h.next_event_scan(),
        }
    }

    /// Applies every event due at or before the current time without
    /// advancing (used once per episode reset). Returns events applied.
    pub fn drain_due<H: TimeDriven>(&mut self, h: &mut H) -> u64 {
        match self.engine {
            TimeEngine::Event => {
                let mut n = 0;
                while let Some(ev) = self.calendar.pop_due(self.now) {
                    h.on_event(ev, &mut self.calendar);
                    n += 1;
                }
                n
            }
            TimeEngine::Stepped => h.scan_to(self.now),
        }
    }

    /// Moves the clock to `target`, applying all events in
    /// `(now, target]` in calendar order. Returns events applied.
    ///
    /// # Panics
    /// Debug-asserts `target > now` (time is monotone).
    pub fn advance_to<H: TimeDriven>(&mut self, target: u64, h: &mut H) -> u64 {
        debug_assert!(target > self.now, "advance_to must move time forward");
        self.now = target;
        self.drain_due(h)
    }

    /// Advances exactly one step (the per-minute contract of a denied
    /// placement or a lazy wait). Returns events applied.
    pub fn advance_one<H: TimeDriven>(&mut self, h: &mut H) -> u64 {
        self.advance_to(self.now + 1, h)
    }

    /// Jumps straight to the next pending event. Returns `None` (clock
    /// unmoved) if nothing is pending.
    pub fn advance_next<H: TimeDriven>(&mut self, h: &mut H) -> Option<u64> {
        let t = self.next_event(h)?;
        debug_assert!(t > self.now, "pending events are always in the future");
        Some(self.advance_to(t, h))
    }

    /// The shared fast-forward decision (previously duplicated by the flat
    /// and DAG environments): jump to the next event when fast-forwarding
    /// and one is pending in the future, else tick one step. Returns events
    /// applied.
    pub fn advance_auto<H: TimeDriven>(&mut self, fast_forward: bool, h: &mut H) -> u64 {
        let target = match self.next_event(h) {
            Some(t) if fast_forward && t > self.now => t,
            _ => self.now + 1,
        };
        self.advance_to(target, h)
    }
}

impl Default for SimClock {
    fn default() -> Self {
        Self::new(TimeEngine::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completion(vm: u32, task_id: u64) -> EventKind {
        EventKind::Completion { vm, task_id }
    }

    #[test]
    fn pops_in_time_order() {
        let mut cal = EventCalendar::new();
        cal.schedule(30, EventKind::Arrival { index: 2 });
        cal.schedule(10, EventKind::Arrival { index: 0 });
        cal.schedule(20, EventKind::Arrival { index: 1 });
        let times: Vec<u64> = std::iter::from_fn(|| cal.pop()).map(|e| e.time).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn equal_time_completions_order_by_vm_then_insertion() {
        let mut cal = EventCalendar::new();
        // Inserted out of VM order; same timestamp.
        cal.schedule(5, completion(2, 100));
        cal.schedule(5, completion(0, 101));
        cal.schedule(5, completion(2, 102));
        cal.schedule(5, completion(1, 103));
        let ids: Vec<u64> = std::iter::from_fn(|| cal.pop())
            .map(|e| match e.kind {
                EventKind::Completion { task_id, .. } => task_id,
                _ => unreachable!(),
            })
            .collect();
        // VM 0 first, then VM 1, then VM 2's two tasks in insertion order.
        assert_eq!(ids, vec![101, 103, 100, 102]);
    }

    #[test]
    fn completions_precede_arrivals_and_releases_at_equal_time() {
        let mut cal = EventCalendar::new();
        cal.schedule(7, EventKind::Release { gid: 9 });
        cal.schedule(7, EventKind::Arrival { index: 3 });
        cal.schedule(7, completion(5, 1));
        let classes: Vec<u8> = std::iter::from_fn(|| cal.pop())
            .map(|e| match e.kind {
                EventKind::Completion { .. } => 0,
                EventKind::Arrival { .. } => 1,
                EventKind::Release { .. } => 2,
            })
            .collect();
        assert_eq!(classes, vec![0, 1, 2]);
    }

    #[test]
    fn pop_due_respects_horizon() {
        let mut cal = EventCalendar::new();
        cal.schedule(4, EventKind::Arrival { index: 0 });
        cal.schedule(9, EventKind::Arrival { index: 1 });
        assert!(cal.pop_due(3).is_none());
        assert_eq!(cal.pop_due(4).unwrap().time, 4);
        assert!(cal.pop_due(8).is_none());
        assert_eq!(cal.peek_time(), Some(9));
    }

    #[test]
    fn clear_restarts_fifo_sequence() {
        let mut cal = EventCalendar::new();
        cal.schedule(1, EventKind::Arrival { index: 0 });
        cal.clear();
        assert!(cal.is_empty());
        cal.schedule(1, EventKind::Arrival { index: 1 });
        assert_eq!(cal.pop().unwrap().seq(), 0);
    }

    /// A handler that logs events and lazily schedules follow-ups, plus a
    /// scan mechanism over the same schedule, to exercise both engines.
    struct Ledger {
        /// (time, index) of every arrival not yet applied, sorted.
        pending: Vec<(u64, u32)>,
        cursor: usize,
        applied: Vec<(u64, u32)>,
        lazy: bool,
    }

    impl TimeDriven for Ledger {
        fn on_event(&mut self, ev: Event, calendar: &mut EventCalendar) {
            let EventKind::Arrival { index } = ev.kind else { unreachable!() };
            assert_eq!(index as usize, self.cursor);
            self.applied.push((ev.time, index));
            self.cursor += 1;
            if self.lazy {
                if let Some(&(t, i)) = self.pending.get(self.cursor) {
                    calendar.schedule(t, EventKind::Arrival { index: i });
                }
            }
        }

        fn scan_to(&mut self, now: u64) -> u64 {
            let mut n = 0;
            while let Some(&(t, i)) = self.pending.get(self.cursor) {
                if t > now {
                    break;
                }
                self.applied.push((t, i));
                self.cursor += 1;
                n += 1;
            }
            n
        }

        fn next_event_scan(&self) -> Option<u64> {
            self.pending.get(self.cursor).map(|&(t, _)| t)
        }
    }

    fn ledger(times: &[u64], lazy: bool) -> Ledger {
        Ledger {
            pending: times.iter().enumerate().map(|(i, &t)| (t, i as u32)).collect(),
            cursor: 0,
            applied: Vec::new(),
            lazy,
        }
    }

    /// Both engines reach identical decision points and apply identical
    /// event sequences on the same schedule.
    #[test]
    fn engines_agree_on_a_lazy_schedule() {
        let times = [0, 0, 3, 3, 10, 50];
        let mut stepped = ledger(&times, false);
        let mut clock_s = SimClock::new(TimeEngine::Stepped);
        let mut event = ledger(&times, true);
        let mut clock_e = SimClock::new(TimeEngine::Event);
        clock_e.schedule(times[0], EventKind::Arrival { index: 0 });

        let mut trace_s = vec![(clock_s.now(), clock_s.drain_due(&mut stepped))];
        let mut trace_e = vec![(clock_e.now(), clock_e.drain_due(&mut event))];
        for _ in 0..8 {
            let n = clock_s.advance_auto(true, &mut stepped);
            trace_s.push((clock_s.now(), n));
            let n = clock_e.advance_auto(true, &mut event);
            trace_e.push((clock_e.now(), n));
        }
        assert_eq!(trace_s, trace_e);
        assert_eq!(stepped.applied, event.applied);
        assert_eq!(clock_s.now(), clock_e.now());
    }

    #[test]
    fn advance_auto_ticks_one_step_without_events_or_fast_forward() {
        let mut h = ledger(&[100], true);
        let mut clock = SimClock::new(TimeEngine::Event);
        clock.schedule(100, EventKind::Arrival { index: 0 });
        clock.advance_auto(false, &mut h);
        assert_eq!(clock.now(), 1);
        assert!(h.applied.is_empty());
        clock.advance_auto(true, &mut h);
        assert_eq!(clock.now(), 100);
        assert_eq!(h.applied, vec![(100, 0)]);
        // Calendar drained: auto now falls back to a single tick.
        clock.advance_auto(true, &mut h);
        assert_eq!(clock.now(), 101);
    }

    #[test]
    fn advance_next_jumps_or_reports_empty() {
        let mut h = ledger(&[42], true);
        let mut clock = SimClock::new(TimeEngine::Event);
        clock.schedule(42, EventKind::Arrival { index: 0 });
        assert_eq!(clock.advance_next(&mut h), Some(1));
        assert_eq!(clock.now(), 42);
        assert_eq!(clock.advance_next(&mut h), None);
        assert_eq!(clock.now(), 42);
    }

    #[test]
    fn stepped_engine_ignores_schedule() {
        let mut clock = SimClock::new(TimeEngine::Stepped);
        clock.schedule(5, EventKind::Arrival { index: 0 });
        assert_eq!(clock.pending_events(), 0);
    }
}
