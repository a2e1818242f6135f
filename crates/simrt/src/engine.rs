//! The event loop: virtual clock + priority queue of pending events.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use simdc_types::{SimDuration, SimInstant};

/// A simulation world: the mutable state acted upon by events.
///
/// Composition roots typically define one enum wrapping every subsystem's
/// events and implement `World` by delegating to subsystem state machines.
pub trait World: Sized {
    /// The event alphabet of this world.
    type Event;

    /// Reacts to `event` occurring at `ctx.now()`, possibly scheduling
    /// follow-up events through `ctx`.
    fn handle(&mut self, ctx: &mut EngineCtx<'_, Self::Event>, event: Self::Event);
}

/// Handle given to [`World::handle`] for reading the clock and scheduling
/// follow-up events.
#[derive(Debug)]
pub struct EngineCtx<'a, E> {
    now: SimInstant,
    queue: &'a mut EventQueue<E>,
}

impl<E> EngineCtx<'_, E> {
    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimInstant {
        self.now
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Schedules `event` at an absolute instant.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — time travel would break determinism.
    pub fn schedule_at(&mut self, at: SimInstant, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past ({at} < {})",
            self.now
        );
        self.queue.push(at, event);
    }

    /// Number of events currently pending.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// The discrete-event engine owning the clock, the queue and the world.
#[derive(Debug)]
pub struct Engine<W: World> {
    clock: SimInstant,
    queue: EventQueue<W::Event>,
    world: W,
    executed: u64,
}

impl<W: World> Engine<W> {
    /// Creates an engine at [`SimInstant::EPOCH`] with an empty queue.
    pub fn new(world: W) -> Self {
        Engine {
            clock: SimInstant::EPOCH,
            queue: EventQueue::new(),
            world,
            executed: 0,
        }
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimInstant {
        self.clock
    }

    /// Total number of events executed so far.
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Shared access to the world state.
    #[must_use]
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world state (between steps).
    #[must_use]
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consumes the engine, returning the world.
    #[must_use]
    pub fn into_world(self) -> W {
        self.world
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: W::Event) {
        self.queue.push(self.clock + delay, event);
    }

    /// Schedules an event at an absolute instant.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time.
    pub fn schedule_at(&mut self, at: SimInstant, event: W::Event) {
        assert!(
            at >= self.clock,
            "cannot schedule event in the past ({at} < {})",
            self.clock
        );
        self.queue.push(at, event);
    }

    /// Number of pending events.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Timestamp of the next pending event, if any.
    #[must_use]
    pub fn next_event_at(&self) -> Option<SimInstant> {
        self.queue.peek_time()
    }

    /// Executes the next event, advancing the clock to its timestamp.
    ///
    /// Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        let Some((at, event)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.clock, "event queue returned a past event");
        self.clock = at;
        self.executed += 1;
        let mut ctx = EngineCtx {
            now: self.clock,
            queue: &mut self.queue,
        };
        self.world.handle(&mut ctx, event);
        true
    }

    /// Runs until the queue drains. Returns the number of events executed.
    pub fn run(&mut self) -> u64 {
        let start = self.executed;
        while self.step() {}
        self.executed - start
    }

    /// Runs every event scheduled at or before `deadline`, then advances the
    /// clock to `deadline`. Returns the number of events executed.
    ///
    /// Events scheduled after `deadline` stay queued.
    pub fn run_until(&mut self, deadline: SimInstant) -> u64 {
        let start = self.executed;
        while let Some(at) = self.queue.peek_time() {
            if at > deadline {
                break;
            }
            self.step();
        }
        if deadline > self.clock {
            self.clock = deadline;
        }
        self.executed - start
    }
}

/// Priority queue ordered by `(time, insertion sequence)`.
///
/// The sequence number guarantees FIFO order among simultaneous events,
/// which is what makes runs deterministic. Public so that schedulers built
/// on top of the engine (and the property-test suite) can exercise the
/// ordering contract directly.
///
/// Two containers hold the pending set: a push that is not earlier than
/// the last one appended to `run` is appended there, every other push goes
/// to `heap`. `seq` only rises, so `run` is sorted by `(time, seq)` and the
/// overall minimum is the smaller of the two fronts — a stream that
/// arrives in firing order never pays for a sift.
#[derive(Debug)]
pub struct EventQueue<E> {
    run: VecDeque<Entry<E>>,
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            run: VecDeque::new(),
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Enqueues `event` at instant `at`.
    pub fn push(&mut self, at: SimInstant, event: E) {
        let entry = Entry {
            at,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        if self.run.back().is_none_or(|last| last.at <= at) {
            self.run.push_back(entry);
        } else {
            self.heap.push(entry);
        }
    }

    /// Pops the earliest `(time, insertion order)` event.
    pub fn pop(&mut self) -> Option<(SimInstant, E)> {
        // `Entry` orders the earliest `(time, seq)` greatest (it sits in a
        // max-heap) and an empty side's `None` is below any entry.
        let entry = if self.run.front() > self.heap.peek() {
            self.run.pop_front()
        } else {
            self.heap.pop()
        };
        entry.map(|e| (e.at, e.event))
    }

    /// Pops the earliest event only if it is due at or before `deadline`;
    /// later events stay queued. Drivers that interleave an internal event
    /// stream with an external one (e.g. task completions vs. workload
    /// arrivals) use this to drain everything due before the next external
    /// instant.
    pub fn pop_before(&mut self, deadline: SimInstant) -> Option<(SimInstant, E)> {
        if self.peek_time()? > deadline {
            return None;
        }
        self.pop()
    }

    /// Timestamp of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimInstant> {
        self.run.front().max(self.heap.peek()).map(|e| e.at)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
    }
}

struct Entry<E> {
    at: SimInstant,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) wins.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> std::fmt::Debug for Entry<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Entry")
            .field("at", &self.at)
            .field("seq", &self.seq)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recorder {
        log: Vec<(u64, &'static str)>,
    }

    enum Ev {
        Mark(&'static str),
        Fanout,
    }

    impl World for Recorder {
        type Event = Ev;
        fn handle(&mut self, ctx: &mut EngineCtx<'_, Ev>, event: Ev) {
            match event {
                Ev::Mark(name) => self.log.push((ctx.now().as_micros(), name)),
                Ev::Fanout => {
                    ctx.schedule_in(SimDuration::from_micros(5), Ev::Mark("late"));
                    ctx.schedule_in(SimDuration::ZERO, Ev::Mark("now"));
                }
            }
        }
    }

    fn engine() -> Engine<Recorder> {
        Engine::new(Recorder { log: Vec::new() })
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut eng = engine();
        eng.schedule_in(SimDuration::from_micros(30), Ev::Mark("c"));
        eng.schedule_in(SimDuration::from_micros(10), Ev::Mark("a"));
        eng.schedule_in(SimDuration::from_micros(20), Ev::Mark("b"));
        assert_eq!(eng.run(), 3);
        assert_eq!(eng.world().log, vec![(10, "a"), (20, "b"), (30, "c")]);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut eng = engine();
        eng.schedule_in(SimDuration::from_micros(7), Ev::Mark("first"));
        eng.schedule_in(SimDuration::from_micros(7), Ev::Mark("second"));
        eng.schedule_in(SimDuration::from_micros(7), Ev::Mark("third"));
        eng.run();
        let names: Vec<_> = eng.world().log.iter().map(|(_, n)| *n).collect();
        assert_eq!(names, vec!["first", "second", "third"]);
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut eng = engine();
        eng.schedule_in(SimDuration::from_micros(1), Ev::Fanout);
        eng.run();
        assert_eq!(eng.world().log, vec![(1, "now"), (6, "late")]);
    }

    #[test]
    fn run_until_leaves_future_events_queued() {
        let mut eng = engine();
        eng.schedule_in(SimDuration::from_micros(5), Ev::Mark("early"));
        eng.schedule_in(SimDuration::from_micros(50), Ev::Mark("late"));
        let n = eng.run_until(SimInstant::from_micros(10));
        assert_eq!(n, 1);
        assert_eq!(eng.now(), SimInstant::from_micros(10));
        assert_eq!(eng.pending(), 1);
        eng.run();
        assert_eq!(eng.world().log.len(), 2);
    }

    #[test]
    fn run_until_advances_clock_even_without_events() {
        let mut eng = engine();
        eng.run_until(SimInstant::from_micros(99));
        assert_eq!(eng.now(), SimInstant::from_micros(99));
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut eng = engine();
        eng.schedule_in(SimDuration::from_micros(10), Ev::Mark("x"));
        eng.run();
        eng.schedule_at(SimInstant::from_micros(5), Ev::Mark("y"));
    }

    /// The boundary the platform's arrival sync leans on: an event due
    /// at *exactly* the deadline is admitted — `pop_before` is `<=`, not
    /// `<`. A task completing at the same instant a new task arrives must
    /// release its lease before the arrival's scheduling pass, or the
    /// freed capacity is invisible and the tie resolves wrongly.
    #[test]
    fn pop_before_admits_at_exactly_the_deadline() {
        let mut q: EventQueue<&'static str> = EventQueue::new();
        q.push(SimInstant::from_micros(10), "due");
        q.push(SimInstant::from_micros(11), "later");
        assert_eq!(
            q.pop_before(SimInstant::from_micros(10)),
            Some((SimInstant::from_micros(10), "due"))
        );
        assert_eq!(q.pop_before(SimInstant::from_micros(10)), None);
        assert_eq!(q.len(), 1, "the later event stays queued");
    }

    #[test]
    fn pop_before_respects_the_deadline() {
        let mut q: EventQueue<&'static str> = EventQueue::new();
        q.push(SimInstant::from_micros(5), "early");
        q.push(SimInstant::from_micros(5), "tie");
        q.push(SimInstant::from_micros(50), "late");
        assert_eq!(
            q.pop_before(SimInstant::from_micros(10)),
            Some((SimInstant::from_micros(5), "early"))
        );
        assert_eq!(
            q.pop_before(SimInstant::from_micros(10)),
            Some((SimInstant::from_micros(5), "tie"))
        );
        assert_eq!(q.pop_before(SimInstant::from_micros(10)), None);
        assert_eq!(q.len(), 1, "late event stays queued");
        assert_eq!(
            q.pop_before(SimInstant::from_micros(50)),
            Some((SimInstant::from_micros(50), "late"))
        );
        assert_eq!(q.pop_before(SimInstant::from_micros(99)), None);
    }

    #[test]
    fn step_returns_false_when_empty() {
        let mut eng = engine();
        assert!(!eng.step());
        assert_eq!(eng.executed(), 0);
    }
}
