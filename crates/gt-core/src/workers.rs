//! The one worker set: a platform's slot table of [`Queue`]s, the thread
//! that consumes each, and the protocol that kills, restarts and stops
//! them.
//!
//! Both stand-in platforms run one thread per slot — `tide-store`'s
//! shards, `tide-graph`'s workers — and contain crashes and recover from
//! them the same way:
//!
//! * **Crash.** [`WorkerSet::inject`] queues the platform's crash message
//!   on a slot behind its backlog: a deterministic position in the slot's
//!   message stream. The thread that takes it calls
//!   [`abandon`] and ends with nothing, like a killed process: its queue
//!   closes, its backlog is written off, and later posts are refused and
//!   counted lost by their posters.
//! * **Log.** In supervised mode each slot keeps the messages ingest
//!   posted to it, with their weights ([`WorkerSet::log`]), also while the
//!   slot is dead. Unsupervised, a log call is one branch: no clone, no
//!   lock.
//! * **Restart.** [`WorkerSet::restart`] waits for the crashed slot's
//!   queue to close, then, with the caller's ingest excluded and the slot
//!   table write-locked, replays the slot's log into a fresh queue in one
//!   push, spawns a thread on it and swaps it in. Every post is either in
//!   the log before the swap or reaches the fresh queue after it: recovery
//!   is exactly-once.
//! * **Shutdown.** [`WorkerSet::shutdown`] finishes every queue — each
//!   thread stops behind its backlog — and joins the threads tolerantly: a
//!   thread that panicked is counted, not propagated.
//! * **Drop.** A set dropped without a shutdown closes every queue, so its
//!   threads exit instead of waiting for posts that cannot come. Threads
//!   hold the slot table ([`Slots`]), never the set, so the set can drop.
//!
//! What differs stays with the platform: what a thread does with its
//! messages, what a message weighs, what it counts as replayed, and how it
//! quiesces.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::queue::{Consumer, Queue};
use crate::sync::{lock, read, write};

/// How long a restart waits for the crash it repairs to land.
const CRASH_WAIT: Duration = Duration::from_secs(5);

/// What a slot's thread runs on its queue: `Some` when the queue ends,
/// `None` when the thread crashes.
pub type Run<M, B, T> = Box<dyn FnOnce(Consumer<M, B>) -> Option<T> + Send>;

/// Per slot, `(message, weight)` in the order posted.
type Logs<M> = Vec<Vec<(M, u64)>>;

/// What the threads share: every slot's current queue and the marker
/// sightings.
pub struct Slots<M, B = ()> {
    /// Every slot's current queue. A restart swaps one under the write
    /// lock, so a post made under the read lock is either in the slot's
    /// log before the restart or on its fresh queue.
    pub queues: RwLock<Vec<Arc<Queue<M, B>>>>,
    /// `(interned name, slot, value)` in the order they were booked; what
    /// the value is — events applied, microseconds since start — is the
    /// platform's.
    pub sightings: Mutex<Vec<(Arc<str>, usize, u64)>>,
}

/// A platform's slots, their threads and, in supervised mode, their logs
/// (see the module docs).
pub struct WorkerSet<M, B, T> {
    /// The slot table, for the threads to hold.
    pub slots: Arc<Slots<M, B>>,
    /// Thread names are `{name}-{slot}`.
    name: &'static str,
    /// A fresh queue.
    fresh: Box<dyn Fn() -> Queue<M, B> + Send + Sync>,
    /// Every thread ever spawned; a restarted slot's dead one first.
    threads: Mutex<Vec<JoinHandle<Option<T>>>>,
    /// In supervised mode only: the slots' logs.
    logs: Option<Mutex<Logs<M>>>,
    /// Set by shutdown; refuses further crashes and restarts.
    stopping: AtomicBool,
}

impl<M: Clone + Send + 'static, B: Send + 'static, T: Send + 'static> WorkerSet<M, B, T> {
    /// `slots` slots, each on a `fresh` queue, no thread yet
    /// ([`WorkerSet::start`]); `logged` (supervised) keeps the logs.
    pub fn new(
        name: &'static str,
        slots: usize,
        fresh: impl Fn() -> Queue<M, B> + Send + Sync + 'static,
        logged: bool,
    ) -> Self {
        let queues = (0..slots).map(|_| Arc::new(fresh()));
        WorkerSet {
            slots: Arc::new(Slots {
                queues: RwLock::new(queues.collect()),
                sightings: Mutex::new(Vec::new()),
            }),
            name,
            fresh: Box::new(fresh),
            threads: Mutex::new(Vec::with_capacity(slots)),
            logs: logged.then(|| Mutex::new(vec![Vec::new(); slots])),
            stopping: AtomicBool::new(false),
        }
    }

    /// Spawns each slot's thread, running what `prepare(slot)` returns on
    /// the calling thread.
    pub fn start(&self, prepare: impl Fn(usize) -> Run<M, B, T>) {
        for (slot, queue) in read(&self.slots.queues).iter().enumerate() {
            self.spawn(slot, queue, prepare(slot));
        }
    }

    /// Whether shutdown has begun.
    pub fn is_stopping(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }

    /// Appends the message `msg` builds, worth `weight` items, to `slot`'s
    /// log in supervised mode; unsupervised, `msg` is not called. The
    /// caller excludes a restart of `slot` (see [`WorkerSet::restart`])
    /// from the log call to the post.
    pub fn log(&self, slot: usize, weight: u64, msg: impl FnOnce() -> M) {
        if let Some(logs) = &self.logs {
            lock(logs)[slot].push((msg(), weight));
        }
    }

    /// Queues `crash`, worth `weight` items, on `slot`; `false` for a slot
    /// out of range, a dead one, or once shutdown has begun.
    pub fn inject(&self, slot: usize, crash: M, weight: u64) -> bool {
        let queues = read(&self.slots.queues);
        let queue = queues.get(slot).filter(|_| !self.is_stopping());
        queue.is_some_and(|queue| queue.push(crash, weight).is_ok())
    }

    /// Restarts `slot` after a crash (see the module docs), in supervised
    /// mode only. `exclude` is taken before the slot table's write lock
    /// and held throughout, to shut out ingest that posts without that
    /// lock's read side. Returns the sum of `replayed` over the log, or
    /// `None` when the slot is out of range, unsupervised, still alive
    /// after a few seconds, or the set is stopping.
    pub fn restart<G>(
        &self,
        slot: usize,
        exclude: impl FnOnce() -> G,
        prepare: impl FnOnce(usize) -> Run<M, B, T>,
        replayed: impl Fn(&M, u64) -> u64,
    ) -> Option<u64> {
        let logs = self.logs.as_ref()?;
        // The crash travels through the slot's backlog; give it time to
        // land before declaring the restart impossible.
        let deadline = Instant::now() + CRASH_WAIT;
        while read(&self.slots.queues).get(slot)?.is_open() {
            if Instant::now() > deadline || self.is_stopping() {
                return None;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let _excluded = exclude();
        let mut queues = write(&self.slots.queues);
        if self.is_stopping() {
            return None;
        }
        // A fresh queue starts a fresh account: what the dead thread left
        // was written off when it died. One push, past the bound if need
        // be: the new thread finds the whole log queued.
        let queue = Arc::new((self.fresh)());
        let log = &lock(logs)[slot];
        let weight = log.iter().map(|(_, weight)| weight).sum();
        let _ = queue.push_with(log, weight, |log, msgs, _| {
            msgs.extend(log.iter().map(|(msg, _)| msg.clone()))
        });
        self.spawn(slot, &queue, prepare(slot));
        queues[slot] = queue;
        Some(log.iter().map(|(msg, weight)| replayed(msg, *weight)).sum())
    }

    /// Stops the set: refuses crashes and restarts, finishes every queue,
    /// so each thread stops behind its backlog, and joins every thread.
    /// Returns what the stopped threads left (a crashed one leaves
    /// nothing) and how many panicked.
    pub fn shutdown(&self) -> (Vec<T>, u64) {
        self.stopping.store(true, Ordering::SeqCst);
        read(&self.slots.queues).iter().for_each(|q| q.finish());
        let threads = std::mem::take(&mut *lock(&self.threads));
        let ends: Vec<_> = threads.into_iter().map(JoinHandle::join).collect();
        let panicked = ends.iter().filter(|end| end.is_err()).count() as u64;
        (ends.into_iter().flatten().flatten().collect(), panicked)
    }

    fn spawn(&self, slot: usize, queue: &Arc<Queue<M, B>>, run: Run<M, B, T>) {
        let queue = Consumer(Arc::clone(queue));
        let thread = std::thread::Builder::new()
            .name(format!("{}-{slot}", self.name))
            .spawn(move || run(queue))
            .expect("spawn a worker thread");
        lock(&self.threads).push(thread);
    }
}

/// The set is gone without a shutdown: close every queue, so its threads
/// wake up and exit.
impl<M, B, T> Drop for WorkerSet<M, B, T> {
    fn drop(&mut self) {
        read(&self.slots.queues).iter().for_each(|q| q.close());
    }
}

/// A slot's thread dies: closes its queue and writes its backlog off.
/// `in_hand` of it — items taken and not yet done, the crash among them —
/// were not abandoned. Returns the items abandoned, for the platform to
/// count lost.
pub fn abandon<M, B>(queue: &Queue<M, B>, in_hand: u64) -> u64 {
    queue.close();
    let backlog = queue.backlog();
    queue.done(backlog);
    backlog.saturating_sub(in_hand)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone)]
    enum Msg {
        Add(u64),
        Crash,
    }

    type Set = WorkerSet<Msg, (), u64>;

    fn unbounded() -> Queue<Msg> {
        Queue::new(usize::MAX, 0)
    }

    /// A slot's thread: sums what it takes; on a crash, returns nothing
    /// and adds what it abandoned to `lost`.
    fn summer(lost: &Arc<Mutex<u64>>) -> impl Fn(usize) -> Run<Msg, (), u64> + '_ {
        move |_| {
            let lost = Arc::clone(lost);
            Box::new(move |queue: Consumer<Msg>| {
                let mut sum = 0;
                while let Some(msg) = queue.take(None, || true) {
                    match msg {
                        Msg::Add(n) => sum += n,
                        Msg::Crash => {
                            *lock(&lost) += abandon(&queue, 1);
                            return None;
                        }
                    }
                    queue.done(1);
                }
                Some(sum)
            })
        }
    }

    /// Logs and posts `n` to `slot` under the slot table's read guard.
    fn post(set: &Set, slot: usize, n: u64) -> bool {
        let queues = read(&set.slots.queues);
        set.log(slot, 1, || Msg::Add(n));
        queues[slot].push(Msg::Add(n), 1).is_ok()
    }

    fn wait_closed(set: &Set, slot: usize) {
        let deadline = Instant::now() + CRASH_WAIT;
        while read(&set.slots.queues)[slot].is_open() {
            assert!(Instant::now() < deadline, "the crash never landed");
            std::thread::yield_now();
        }
    }

    /// Posts while a slot is dead are refused but logged, and the restart
    /// replays the whole log once: the final sums are every post's.
    #[test]
    fn a_restart_replays_the_log_once() {
        let lost = Arc::new(Mutex::new(0));
        let set = Set::new("test-worker", 2, unbounded, true);
        set.start(summer(&lost));
        (1..=10).for_each(|n| assert!(post(&set, n as usize % 2, n)));
        assert!(set.inject(0, Msg::Crash, 1));
        wait_closed(&set, 0);
        assert!(!set.inject(0, Msg::Crash, 1), "a dead slot takes no crash");
        assert!(!post(&set, 0, 100), "a dead slot refuses posts");
        let replayed = set.restart(0, || (), summer(&lost), |_, weight| weight);
        assert_eq!(replayed, Some(6), "2, 4, 6, 8, 10 and 100");
        assert!(post(&set, 0, 1_000));
        let (mut ends, panicked) = set.shutdown();
        ends.sort_unstable();
        assert_eq!((ends, panicked), (vec![25, 1_130], 0));
        assert!(!set.inject(1, Msg::Crash, 1), "stopping");
    }

    /// Unsupervised, out of range, or stopping: no restart, no wait.
    #[test]
    fn a_restart_is_refused_without_a_log_or_a_slot() {
        let lost = Arc::new(Mutex::new(0));
        let unsupervised = Set::new("test-worker", 1, unbounded, false);
        unsupervised.start(summer(&lost));
        assert!(unsupervised.inject(0, Msg::Crash, 1));
        wait_closed(&unsupervised, 0);
        assert_eq!(
            unsupervised.restart(0, || (), summer(&lost), |_, w| w),
            None
        );
        let supervised = Set::new("test-worker", 1, unbounded, true);
        supervised.start(summer(&lost));
        assert!(!supervised.inject(1, Msg::Crash, 1));
        assert_eq!(supervised.restart(1, || (), summer(&lost), |_, w| w), None);
        assert_eq!(supervised.shutdown(), (vec![0], 0));
        assert_eq!(supervised.restart(0, || (), summer(&lost), |_, w| w), None);
    }

    /// A crash behind a backlog writes it off item by item, and a thread
    /// that panics is counted at shutdown, not propagated.
    #[test]
    fn a_crash_abandons_its_backlog_and_a_panic_is_contained() {
        let lost = Arc::new(Mutex::new(0));
        let set = Set::new("test-worker", 2, unbounded, false);
        let gate = Arc::new(Mutex::new(()));
        let held = lock(&gate);
        let prepare = |slot: usize| {
            let (gate, lost) = (Arc::clone(&gate), Arc::clone(&lost));
            let run: Run<Msg, (), u64> = Box::new(move |queue| {
                drop(lock(&gate));
                assert_ne!(slot, 1, "slot 1 panics");
                summer(&lost)(slot)(queue)
            });
            run
        };
        set.start(prepare);
        assert!(set.inject(0, Msg::Crash, 1));
        let queue = Arc::clone(&read(&set.slots.queues)[0]);
        (0..5).for_each(|n| queue.push(Msg::Add(n), 1).unwrap());
        drop(held);
        // The joins order the threads' bookings before the checks.
        assert_eq!(set.shutdown(), (vec![], 1));
        assert_eq!(*lock(&lost), 5);
        assert_eq!(queue.account(), (6, 6));
    }

    /// A set dropped without a shutdown, with or without a backlog: every
    /// thread exits, and the slot table goes with the last of them.
    #[test]
    fn a_dropped_set_lets_its_threads_exit() {
        for backlog in [0, 10_000] {
            let lost = Arc::new(Mutex::new(0));
            let set = Set::new("test-worker", 3, unbounded, false);
            set.start(summer(&lost));
            (0..backlog).for_each(|n| assert!(post(&set, n as usize % 3, n)));
            let slots = Arc::downgrade(&set.slots);
            drop(set);
            let deadline = Instant::now() + CRASH_WAIT;
            while slots.strong_count() > 0 {
                assert!(Instant::now() < deadline, "a thread never exited");
                std::thread::yield_now();
            }
        }
    }

    /// Producers post and log under the read guard while one slot crashes
    /// and restarts over and over: no post is lost or applied twice.
    #[test]
    fn restarts_under_concurrent_posts_are_exactly_once() {
        const POSTS: u64 = 20_000;
        let lost = Arc::new(Mutex::new(0));
        let set = Set::new("test-worker", 2, || Queue::new(64, 0), true);
        set.start(summer(&lost));
        std::thread::scope(|scope| {
            for producer in 0..2u64 {
                let set = &set;
                scope.spawn(move || {
                    for n in 0..POSTS {
                        post(set, (n % 2) as usize, producer * POSTS + n);
                    }
                });
            }
            for _ in 0..20 {
                assert!(set.inject(1, Msg::Crash, 1));
                assert!(set.restart(1, || (), summer(&lost), |_, w| w).is_some());
            }
        });
        let (ends, panicked) = set.shutdown();
        let total: u64 = (0..2 * POSTS).sum();
        assert_eq!((ends.iter().sum::<u64>(), panicked), (total, 0));
    }
}
