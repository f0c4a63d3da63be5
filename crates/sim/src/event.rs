//! The discrete-event core: a deterministic event queue and the ready
//! (dispatch) queue.
//!
//! Both queues are binary heaps with **fully deterministic ordering**:
//!
//! * [`EventQueue`] orders by `(time, kind-priority, seq)` — time first,
//!   then [`EventKind`] priority (releases outrank chunk wakeups at the
//!   same timestamp, mirroring the engine's admission-before-maintenance
//!   contract), then the monotone insertion sequence number. Two queues
//!   built from the same multiset of events pop identically regardless
//!   of insertion order; same-timestamp, same-kind events pop in
//!   insertion order.
//! * [`ReadyQueue`] orders released, runnable jobs by the scheduling
//!   class's dispatch key — `(task, release)` under RM (the task index
//!   *is* the priority), `(absolute deadline, task, release)` under EDF —
//!   with the job index as a final, never-reached-in-practice tiebreak.
//!
//! The engine pops from these queues instead of scanning every job per
//! event, which is what turns the per-event cost from `O(jobs)` into
//! `O(log jobs)` (see `docs/ENGINE.md`).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What an engine event means. The numeric discriminant is the
/// **kind-priority**: at equal timestamps, smaller pops first.
///
/// These are the only events the engine queues: completions, budget
/// exhaustions and speed changes are *derived* events — the dispatch
/// handler computes the earliest of them directly from the executing
/// speed, so no queued event ever needs cancelling (see
/// `docs/ENGINE.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// A job instance is released (becomes eligible to execute).
    Release = 0,
    /// A throttled job's next chunk window opens.
    ChunkWakeup = 1,
}

/// One queued event: a timestamp, a kind, and the job it concerns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Virtual time of the event, in ms within the hyper-period.
    pub time: f64,
    /// What happens at `time`.
    pub kind: EventKind,
    /// Index of the job the event concerns.
    pub job: usize,
}

/// A queued event plus its insertion sequence number (the deterministic
/// last-resort tiebreak).
#[derive(Debug, Clone, Copy)]
struct QueuedEvent {
    event: Event,
    seq: u64,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for QueuedEvent {}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        self.event
            .time
            .total_cmp(&other.event.time)
            .then_with(|| self.event.kind.cmp(&other.event.kind))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// A deterministic min-heap of engine events, keyed by
/// `(time, kind-priority, seq)`.
///
/// `seq` is assigned by the queue at push time, so for events equal in
/// `(time, kind)` the pop order is exactly the insertion order — the
/// queue is a pure function of its push sequence, never of heap
/// internals. The queue also tracks its high-water mark and the total
/// number of events popped, which the engine surfaces in
/// [`SimReport`](crate::SimReport).
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<std::cmp::Reverse<QueuedEvent>>,
    next_seq: u64,
    high_water: usize,
    popped: usize,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Creates an empty queue with room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            ..EventQueue::default()
        }
    }

    /// Empties the queue and resets the sequence counter and the
    /// per-run statistics, keeping the heap's backing allocation. A
    /// cleared queue is indistinguishable from a freshly constructed
    /// one (capacity aside) — the engine recycles one queue across
    /// hyper-periods instead of allocating per hyper-period.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
        self.high_water = 0;
        self.popped = 0;
    }

    /// Enqueues `event`; its sequence number is the push order.
    pub fn push(&mut self, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap
            .push(std::cmp::Reverse(QueuedEvent { event, seq }));
        self.high_water = self.high_water.max(self.heap.len());
    }

    /// The earliest event without removing it.
    pub fn peek(&self) -> Option<&Event> {
        self.heap.peek().map(|q| &q.0.event)
    }

    /// The earliest event's timestamp, `f64::INFINITY` when empty (the
    /// identity of the engine's next-event `min`-chain).
    pub fn next_time(&self) -> f64 {
        self.peek().map_or(f64::INFINITY, |e| e.time)
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        let e = self.heap.pop().map(|q| q.0.event);
        if e.is_some() {
            self.popped += 1;
        }
        e
    }

    /// Removes and returns the earliest event if `pred` accepts it.
    pub fn pop_if(&mut self, pred: impl FnOnce(&Event) -> bool) -> Option<Event> {
        if pred(self.peek()?) {
            self.pop()
        } else {
            None
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Largest number of events ever queued at once.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Total number of events popped over the queue's lifetime.
    pub fn popped(&self) -> usize {
        self.popped
    }
}

/// Dispatch key of one ready job. Under RM `deadline` is held at `0.0`
/// for every entry, so the ordering degenerates to `(task, release)` —
/// exactly the fixed-priority order; under EDF it is the job's absolute
/// deadline. Distinct jobs always differ in `(task, release)` (two
/// instances of one task have distinct releases), so `job` is a pure
/// formality for `Ord` totality.
#[derive(Debug, Clone, Copy)]
pub struct ReadyKey {
    /// Absolute deadline in ms (0 under RM — see above).
    pub deadline: f64,
    /// Task index (the RM priority).
    pub task: usize,
    /// Release time in ms.
    pub release: f64,
    /// Job index (final tiebreak).
    pub job: usize,
}

impl PartialEq for ReadyKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for ReadyKey {}

impl PartialOrd for ReadyKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ReadyKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.deadline
            .total_cmp(&other.deadline)
            .then_with(|| self.task.cmp(&other.task))
            .then_with(|| self.release.total_cmp(&other.release))
            .then_with(|| self.job.cmp(&other.job))
    }
}

/// The ready queue: a min-heap of [`ReadyKey`]s. Popping yields the
/// job the scheduling class dispatches next in `O(log n)`.
///
/// Membership is managed strictly by the engine (a job is pushed
/// exactly when it becomes runnable and popped exactly when selected),
/// so the queue never holds stale entries and needs no lazy deletion.
#[derive(Debug, Default)]
pub struct ReadyQueue {
    heap: BinaryHeap<std::cmp::Reverse<ReadyKey>>,
}

impl ReadyQueue {
    /// Creates an empty ready queue.
    pub fn new() -> Self {
        ReadyQueue::default()
    }

    /// Empties the queue, keeping its backing allocation (hyper-period
    /// recycling, like [`EventQueue::clear`]).
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Inserts a runnable job.
    pub fn push(&mut self, key: ReadyKey) {
        self.heap.push(std::cmp::Reverse(key));
    }

    /// Removes and returns the most eligible job.
    pub fn pop(&mut self) -> Option<ReadyKey> {
        self.heap.pop().map(|q| q.0)
    }

    /// The most eligible job without removing it.
    pub fn peek(&self) -> Option<&ReadyKey> {
        self.heap.peek().map(|q| &q.0)
    }

    /// Number of ready jobs.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no job is ready.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: f64, kind: EventKind, job: usize) -> Event {
        Event { time, kind, job }
    }

    #[test]
    fn pops_in_time_then_kind_then_seq_order() {
        let mut q = EventQueue::new();
        q.push(ev(5.0, EventKind::ChunkWakeup, 0));
        q.push(ev(3.0, EventKind::ChunkWakeup, 1));
        q.push(ev(3.0, EventKind::Release, 2));
        q.push(ev(3.0, EventKind::Release, 3));
        q.push(ev(1.0, EventKind::ChunkWakeup, 4));
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|e| e.job).collect();
        // time 1 first; at time 3 the Release events outrank the wakeup,
        // in insertion order (job 2 then 3); time 5 last.
        assert_eq!(order, vec![4, 2, 3, 1, 0]);
        assert_eq!(q.popped(), 5);
        assert_eq!(q.high_water(), 5);
    }

    #[test]
    fn same_key_pops_in_insertion_order() {
        let mut q = EventQueue::new();
        for job in 0..100 {
            q.push(ev(7.0, EventKind::Release, job));
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|e| e.job).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn next_time_is_infinity_when_empty() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_time(), f64::INFINITY);
        q.push(ev(2.5, EventKind::Release, 0));
        assert_eq!(q.next_time(), 2.5);
        assert!(q.pop_if(|e| e.time <= 3.0).is_some());
        assert!(q.pop_if(|e| e.time <= 3.0).is_none());
    }

    #[test]
    fn ready_queue_rm_order_ignores_deadline() {
        let mut r = ReadyQueue::new();
        // RM keys carry deadline 0: order is (task, release).
        r.push(ReadyKey {
            deadline: 0.0,
            task: 2,
            release: 0.0,
            job: 0,
        });
        r.push(ReadyKey {
            deadline: 0.0,
            task: 0,
            release: 10.0,
            job: 1,
        });
        r.push(ReadyKey {
            deadline: 0.0,
            task: 0,
            release: 0.0,
            job: 2,
        });
        let order: Vec<usize> = std::iter::from_fn(|| r.pop()).map(|k| k.job).collect();
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn ready_queue_edf_order_uses_deadline_first() {
        let mut r = ReadyQueue::new();
        r.push(ReadyKey {
            deadline: 20.0,
            task: 0,
            release: 0.0,
            job: 0,
        });
        r.push(ReadyKey {
            deadline: 15.0,
            task: 2,
            release: 5.0,
            job: 1,
        });
        r.push(ReadyKey {
            deadline: 15.0,
            task: 1,
            release: 5.0,
            job: 2,
        });
        let order: Vec<usize> = std::iter::from_fn(|| r.pop()).map(|k| k.job).collect();
        assert_eq!(order, vec![2, 1, 0]);
    }
}
