//! The one hand-off queue: every message that crosses from one thread to
//! another goes through a [`Queue`].
//!
//! The replay session's reader hands chunks of entries to its emitter,
//! the load front's router to each client, `tide-store`'s clients hand
//! transactions to the timestamper and its sequencers hand batches to the
//! shards, and `tide-graph`'s workers post events and shares to each
//! other: one type, one wait/wake rule, one account.
//!
//! * **Bounded or not.** A push waits while `bound` messages are queued
//!   (`usize::MAX`: never). Many threads may push; one takes.
//! * **One wait/wake rule.** A thread that must wait first snoozes —
//!   spins, then yields, re-checking after each round, as std's channels
//!   do — so a hop whose other side is a few microseconds away costs no
//!   futex round trip. Only then does it count itself in under the lock
//!   and park, and whoever changes what it waits for signals it if the
//!   count is not zero — so a thread that keeps up costs no wake-up call,
//!   and several producers can wait on a full queue at once.
//! * **Buffers go home.** The consumer hands a spent buffer `B` back with
//!   its next take; it waits in a pool of at most `spares`, and a producer
//!   gets one back from its next [`Queue::exchange`]. A buffer is then
//!   reused, and freed if ever, by the thread that allocated it: the
//!   allocator returns memory freed on a foreign thread to its owner's
//!   arena under that arena's lock, which costs more than the hop.
//! * **An item-exact account.** Each push carries a weight — the entries
//!   of a chunk, the events of a batch, the shares of a block — added to
//!   `enqueued` under the lock while the queue is open; the consumer adds
//!   to `processed` with [`Queue::done`] once it is through with them. The
//!   difference is what a `quiesce` waits for, whatever a message holds.
//! * **Two ways to end.** [`Queue::finish`]: the producers are done, the
//!   consumer drains what is queued. [`Queue::close`]: the consumer is
//!   gone, what is queued is dropped. Either way a later push is refused —
//!   its message comes back to the pusher, who counts it lost — and every
//!   waiting thread wakes. A [`Consumer`] closes its queue when dropped,
//!   so a hop whose consumer ends or panics never leaves a producer
//!   waiting.

use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::sync::{lock, wait};

/// Snooze rounds before a waiting thread parks: spins of 1, 2, … 32
/// hints, then yields.
const SPIN_ROUNDS: u32 = 6;
const SNOOZE_ROUNDS: u32 = SPIN_ROUNDS + 4;

/// A multi-producer queue of messages `M` with a pool of spent buffers
/// `B` (see the module docs).
pub struct Queue<M, B = ()> {
    /// Locked through [`crate::sync`], which ignores poison: no caller
    /// code but a [`Queue::push_with`] fill runs under it, and every
    /// update leaves the queue whole.
    state: Mutex<State<M, B>>,
    /// Signalled when a message is queued, and on finish or close.
    ready: Condvar,
    /// Signalled when a message is taken, and on finish or close.
    room: Condvar,
    bound: usize,
    spares: usize,
    /// Pushes are accepted. Written under the lock only.
    open: AtomicBool,
    /// Messages queued, written under the lock: what a snoozing thread
    /// watches without taking it.
    queued: AtomicUsize,
    enqueued: AtomicU64,
    processed: AtomicU64,
}

struct State<M, B> {
    msgs: VecDeque<M>,
    spare: Vec<B>,
    /// Threads parked on `ready` and on `room`.
    takers: usize,
    pushers: usize,
}

impl<M, B> Queue<M, B> {
    /// A queue that holds at most `bound` messages and keeps at most
    /// `spares` handed-back buffers; `usize::MAX` lifts either limit.
    pub fn new(bound: usize, spares: usize) -> Self {
        Queue {
            state: Mutex::new(State {
                msgs: VecDeque::new(),
                spare: Vec::new(),
                takers: 0,
                pushers: 0,
            }),
            ready: Condvar::new(),
            room: Condvar::new(),
            bound: bound.max(1),
            spares,
            open: AtomicBool::new(true),
            queued: AtomicUsize::new(0),
            enqueued: AtomicU64::new(0),
            processed: AtomicU64::new(0),
        }
    }

    /// Queues `msg`, worth `weight` items, waiting while the queue is
    /// full; `Err(msg)` once it is finished or closed.
    pub fn push(&self, msg: M, weight: u64) -> Result<(), M> {
        self.push_with(msg, weight, |msg, msgs, _| msgs.push_back(msg))
    }

    /// [`Queue::push`], taking the buffer handed back last out of the pool
    /// in return.
    pub fn exchange(&self, msg: M, weight: u64) -> Result<Option<B>, M> {
        self.push_with(msg, weight, |msg, msgs, spare| {
            msgs.push_back(msg);
            spare.pop()
        })
    }

    /// The one push: once the queue has room, books `weight` items and
    /// runs `fill` under the lock with `input`, the queued messages and
    /// the pool — to queue a message, or to pack `input` into the tail
    /// message and as many more as it needs. `Err(input)` once the queue
    /// is finished or closed.
    pub fn push_with<X, R>(
        &self,
        input: X,
        weight: u64,
        fill: impl FnOnce(X, &mut VecDeque<M>, &mut Vec<B>) -> R,
    ) -> Result<R, X> {
        let full = |queued| queued >= self.bound;
        let mut state = self.wait_while(lock(&self.state), &self.room, full, |s| &mut s.pushers);
        if !self.is_open() {
            return Err(input);
        }
        self.enqueued.fetch_add(weight, Ordering::SeqCst);
        let State { msgs, spare, .. } = &mut *state;
        let filled = fill(input, msgs, spare);
        self.queued.store(msgs.len(), Ordering::Relaxed);
        let waiting = state.takers > 0;
        drop(state);
        if waiting {
            self.ready.notify_one();
        }
        Ok(filled)
    }

    /// Hands `spent` back to the pool and takes the next message; `None`
    /// once the queue is finished and drained, or closed. When none is
    /// queued, `before_wait` runs, without the lock, and says whether to
    /// wait for one (`false`: `None` at once).
    pub fn take(&self, spent: Option<B>, before_wait: impl FnOnce() -> bool) -> Option<M> {
        let mut state = self.hand_back(spent);
        if state.msgs.is_empty() && self.is_open() {
            drop(state);
            if !before_wait() {
                return None;
            }
            state = lock(&self.state);
        }
        state = self.wait_while(state, &self.ready, |queued| queued == 0, |s| &mut s.takers);
        self.pop(state)
    }

    /// Marks `items` processed: the consumer's call, once it is through
    /// with what it took.
    pub fn done(&self, items: u64) {
        self.processed.fetch_add(items, Ordering::SeqCst);
    }

    /// `(enqueued, processed)`. `processed` is read first: both only grow,
    /// so the pair never shows more done than queued.
    pub fn account(&self) -> (u64, u64) {
        let processed = self.processed.load(Ordering::SeqCst);
        (self.enqueued.load(Ordering::SeqCst), processed)
    }

    /// Items queued, or taken and not yet done.
    pub fn backlog(&self) -> u64 {
        let (enqueued, processed) = self.account();
        enqueued.saturating_sub(processed)
    }

    /// Whether pushes are still accepted.
    pub fn is_open(&self) -> bool {
        self.open.load(Ordering::SeqCst)
    }

    /// The producers are done: later pushes are refused, and the consumer
    /// drains what is queued.
    pub fn finish(&self) {
        let _state = self.end();
    }

    /// The consumer is gone: what is queued is dropped (once the lock is
    /// released), later pushes are refused, and the account stops moving
    /// except for `processed`.
    pub fn close(&self) {
        let _abandoned = std::mem::take(&mut self.end().msgs);
    }

    /// Waits while the queue is open and `blocked` by the number of
    /// messages queued: snoozes first, off the lock (see the module docs),
    /// then parks on `condvar` counted in `waiters`.
    fn wait_while<'a>(
        &'a self,
        mut state: MutexGuard<'a, State<M, B>>,
        condvar: &Condvar,
        blocked: impl Fn(usize) -> bool,
        waiters: fn(&mut State<M, B>) -> &mut usize,
    ) -> MutexGuard<'a, State<M, B>> {
        let mut round = 0;
        while self.is_open() && blocked(state.msgs.len()) {
            if round < SNOOZE_ROUNDS {
                drop(state);
                while round < SNOOZE_ROUNDS
                    && self.is_open()
                    && blocked(self.queued.load(Ordering::Relaxed))
                {
                    match round < SPIN_ROUNDS {
                        true => (0..1 << round).for_each(|_| std::hint::spin_loop()),
                        false => std::thread::yield_now(),
                    }
                    round += 1;
                }
                state = lock(&self.state);
                continue;
            }
            *waiters(&mut state) += 1;
            state = wait(condvar, state);
            *waiters(&mut state) -= 1;
        }
        state
    }

    /// Refuses pushes from now on and wakes every waiting thread to find
    /// out, under the lock it returns.
    fn end(&self) -> MutexGuard<'_, State<M, B>> {
        let state = lock(&self.state);
        self.open.store(false, Ordering::SeqCst);
        self.ready.notify_all();
        self.room.notify_all();
        state
    }

    /// Locks the queue, keeping `spent` in the pool while producers can
    /// still use it and the pool has room.
    fn hand_back(&self, spent: Option<B>) -> MutexGuard<'_, State<M, B>> {
        let mut state = lock(&self.state);
        if let Some(buffer) = spent.filter(|_| self.is_open() && state.spare.len() < self.spares) {
            state.spare.push(buffer);
        }
        state
    }

    /// Takes the head message, waking a producer that waits for room.
    fn pop(&self, mut state: MutexGuard<'_, State<M, B>>) -> Option<M> {
        let msg = state.msgs.pop_front()?;
        self.queued.store(state.msgs.len(), Ordering::Relaxed);
        let waiting = state.pushers > 0;
        drop(state);
        if waiting {
            self.room.notify_one();
        }
        Some(msg)
    }
}

/// A queue's consumer: closes the queue when dropped — on a panic too —
/// so producers waiting on it, or pushing later, are refused instead of
/// left waiting.
pub struct Consumer<M, B = ()>(pub Arc<Queue<M, B>>);

impl<M, B> Deref for Consumer<M, B> {
    type Target = Queue<M, B>;

    fn deref(&self) -> &Queue<M, B> {
        &self.0
    }
}

impl<M, B> Drop for Consumer<M, B> {
    fn drop(&mut self) {
        self.0.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::mpsc::channel;
    use std::time::Duration;

    const UNBOUNDED: usize = usize::MAX;

    /// One step of a single-threaded script: push `(weight)` or take.
    #[derive(Debug, Clone)]
    enum Op {
        Push(u64),
        Exchange(u64),
        Take { hand_back: bool, done: bool },
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..5).prop_map(Op::Push),
            (0u64..5).prop_map(Op::Exchange),
            (any::<bool>(), any::<bool>())
                .prop_map(|(hand_back, done)| Op::Take { hand_back, done }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On one thread, bounded or not, the queue is a `VecDeque` and a
        /// `Vec` pool: every take yields the reference's head, a spare
        /// comes back last in first out, and the account is exact.
        #[test]
        fn one_thread_sees_the_reference_sequence(
            ops in proptest::collection::vec(op(), 1..200),
            bound in prop_oneof![Just(UNBOUNDED), 1usize..6],
            spares in 0usize..4,
        ) {
            let queue = Queue::<(u64, u64), u64>::new(bound, spares);
            let mut reference = VecDeque::new();
            let mut pool = Vec::new();
            let (mut next, mut enqueued, mut processed) = (0u64, 0u64, 0u64);
            for op in ops {
                match op {
                    Op::Push(weight) | Op::Exchange(weight) if reference.len() < bound => {
                        next += 1;
                        if let Op::Push(_) = op {
                            queue.push((next, weight), weight).unwrap();
                        } else {
                            prop_assert_eq!(queue.exchange((next, weight), weight).unwrap(), pool.pop());
                        }
                        reference.push_back((next, weight));
                        enqueued += weight;
                    }
                    Op::Push(_) | Op::Exchange(_) => {}
                    Op::Take { hand_back, done } => {
                        let spent = hand_back.then_some(next);
                        if let Some(buffer) = spent {
                            if pool.len() < spares {
                                pool.push(buffer);
                            }
                        }
                        let got = queue.take(spent, || false);
                        prop_assert_eq!(got, reference.pop_front());
                        if let (Some((_, weight)), true) = (got, done) {
                            queue.done(weight);
                            processed += weight;
                        }
                    }
                }
                prop_assert_eq!(queue.account(), (enqueued, processed));
            }
        }

        /// Several producers, bounded or not, random weights: the consumer
        /// sees each producer's messages in its order and none twice, and
        /// the account closes.
        #[test]
        fn many_producers_keep_their_order(
            weights in proptest::collection::vec(proptest::collection::vec(0u64..9, 0..300), 1..5),
            bound in prop_oneof![Just(UNBOUNDED), 1usize..4],
        ) {
            let queue = Arc::new(Queue::<(usize, usize, u64)>::new(bound, 0));
            let got = std::thread::scope(|scope| {
                let producers: Vec<_> = weights
                    .iter()
                    .enumerate()
                    .map(|(p, weights)| {
                        let queue = &queue;
                        scope.spawn(move || {
                            for (i, &weight) in weights.iter().enumerate() {
                                queue.push((p, i, weight), weight).unwrap();
                            }
                        })
                    })
                    .collect();
                let consumer = scope.spawn(|| {
                    let mut got = Vec::new();
                    while let Some(msg) = queue.take(None, || true) {
                        queue.done(msg.2);
                        got.push(msg);
                    }
                    got
                });
                producers.into_iter().for_each(|p| p.join().unwrap());
                queue.finish();
                consumer.join().unwrap()
            });
            for (p, weights) in weights.iter().enumerate() {
                let mine: Vec<u64> = got.iter().filter(|m| m.0 == p).map(|m| m.2).collect();
                let order: Vec<usize> = got.iter().filter(|m| m.0 == p).map(|m| m.1).collect();
                prop_assert_eq!(&mine, weights);
                prop_assert_eq!(order, (0..weights.len()).collect::<Vec<_>>());
            }
            let total: u64 = weights.iter().flatten().sum();
            prop_assert_eq!(queue.account(), (total, total));
        }
    }

    /// Producers parked on a full queue and the consumer parked on an
    /// empty one, 10 000 rounds: a lost wake-up hangs here.
    #[test]
    fn no_wake_up_is_lost() {
        const ROUNDS: u64 = 10_000;
        const PRODUCERS: u64 = 3;
        let queue = Queue::<u64>::new(1, 0);
        std::thread::scope(|scope| {
            for _ in 0..PRODUCERS {
                scope.spawn(|| {
                    for i in 0..ROUNDS {
                        queue.push(i, 1).unwrap();
                    }
                });
            }
            let mut sum = 0;
            for _ in 0..PRODUCERS * ROUNDS {
                sum += queue.take(None, || true).unwrap();
                // Now and then let every producer park on the full queue.
                if sum % 97 == 0 {
                    std::thread::yield_now();
                }
            }
            assert_eq!(sum, PRODUCERS * ROUNDS * (ROUNDS - 1) / 2);
            assert!(queue.take(None, || false).is_none());
        });
    }

    /// `close` while pushes wait on a full queue: each is refused, its
    /// message handed back, and nothing more is booked.
    #[test]
    fn close_refuses_a_waiting_push() {
        let queue = Consumer(Arc::new(Queue::<u32>::new(1, 0)));
        queue.push(0, 1).unwrap();
        let producer = Arc::clone(&queue.0);
        std::thread::scope(|scope| {
            let waiting: Vec<_> = (1..3)
                .map(|i| {
                    let producer = &producer;
                    scope.spawn(move || producer.push(i, 1))
                })
                .collect();
            std::thread::sleep(Duration::from_millis(20));
            drop(queue);
            let mut refused: Vec<_> = waiting.into_iter().map(|w| w.join().unwrap()).collect();
            refused.sort();
            assert_eq!(refused, [Err(1), Err(2)]);
        });
        assert_eq!(producer.push(3, 1), Err(3));
        assert_eq!(producer.account(), (1, 0));
        assert!(
            producer.take(None, || false).is_none(),
            "the queued message is dropped"
        );
    }

    /// `finish` while the consumer waits on an empty queue: it wakes, and
    /// what was queued before the finish is still delivered.
    #[test]
    fn finish_wakes_a_waiting_take_after_the_drain() {
        let queue = Arc::new(Queue::<u32>::new(UNBOUNDED, 0));
        let (parked, gate) = channel();
        std::thread::scope(|scope| {
            let consumer = scope.spawn(|| {
                let mut got = Vec::new();
                while let Some(msg) = queue.take(None, || parked.send(()).is_ok()) {
                    got.push(msg);
                }
                got
            });
            gate.recv().unwrap();
            std::thread::sleep(Duration::from_millis(20));
            queue.push(7, 1).unwrap();
            queue.push(8, 1).unwrap();
            queue.finish();
            assert_eq!(consumer.join().unwrap(), [7, 8]);
        });
        assert_eq!(queue.push(9, 1), Err(9));
    }

    /// A handed-back buffer comes back to the next exchange by address;
    /// the pool keeps at most `spares`, and nothing once the queue ends.
    #[test]
    fn a_handed_back_buffer_returns_by_address() {
        let queue = Queue::<Vec<u8>, Vec<u8>>::new(UNBOUNDED, 1);
        queue.push(vec![1; 8], 8).unwrap();
        queue.push(vec![2; 8], 8).unwrap();
        let first = queue.take(None, || true).unwrap();
        let address = first.as_ptr();
        let second = queue.take(Some(first), || true).unwrap();
        // The pool is full: the second buffer is dropped.
        assert!(queue.take(Some(second), || false).is_none());
        let spare = queue.exchange(Vec::new(), 0).unwrap().unwrap();
        assert_eq!(spare.as_ptr(), address);
        assert_eq!(queue.exchange(Vec::new(), 0).unwrap(), None);
        queue.finish();
        assert!(queue.take(Some(spare), || true).is_some());
        assert!(queue.take(None, || true).is_some());
        assert!(queue.take(None, || true).is_none());
    }
}
