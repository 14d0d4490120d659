//! Worker mailboxes: one FIFO per worker carrying mutation events,
//! watermarks *and* shares — the shared resource of the Chronograph
//! experiment — with an item-exact account beside it.
//!
//! # Transport vs. scheduling
//!
//! Shares travel in *blocks* of up to [`BLOCK_SHARES`]: a round's shares
//! for one destination are packed into the mailbox's queued tail block
//! while it has room, and into a fresh block after that. The receiver
//! still consumes a block in place, item by item, inside rounds of
//! `EngineConfig::drain_batch` items, exactly as if every share were its
//! own message — a block already popped belongs to its receiver, so
//! packing only ever extends a block no one has started, and every
//! mailbox sees the same item sequence it would with one message per
//! share. Spent blocks go back to the mailbox they came from, which
//! keeps up to [`SPARE_BLOCKS`] of them for the next posts: in steady
//! state a share crosses a mailbox without an allocation.
//!
//! Because a block hides its items from the queue's length, each mailbox
//! keeps an `enqueued`/`processed` item counter pair from which the
//! queue gauge, the backlog probe and `Engine::quiesce` are derived.
//!
//! A post signals the receiver only when it is parked waiting for one, so
//! a busy worker's mailbox costs no wake-up call per post.
//!
//! Public only for the transport contract tests; the engine is the one
//! user.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crossbeam::channel::Sender;
use gt_core::prelude::*;

/// Shares one mailbox block holds.
pub const BLOCK_SHARES: usize = 512;

/// Spent blocks a mailbox keeps for the shares posted to it next.
pub const SPARE_BLOCKS: usize = 8;

/// Shares as `(receiving vertex, payload)` pairs in production order.
pub type Batch<M> = Vec<(VertexId, M)>;

/// One mailbox message. Every variant is one item, except `Shares`,
/// which is as many items as it holds shares.
pub enum Msg<M> {
    /// A mutation event with its global ingest sequence number (stream
    /// position), carried so out-of-order worker processing can still
    /// stamp Level-2 tracepoints against the replayer-side stages.
    Event(SharedGraphEvent, u64),
    /// Broadcast half of vertex removal: strip edges pointing at the id.
    Purge(VertexId),
    /// A block of shares for this worker, at most [`BLOCK_SHARES`] of
    /// them. The unit of *transport*; the receiver still schedules its
    /// items one by one.
    Shares(Batch<M>),
    /// A watermark: queued behind everything already in the mailbox, so
    /// its processing time measures the ingest-to-process latency of the
    /// events streamed before it (§4.5's watermark pattern). The optional
    /// channel acknowledges processing (the marker barrier). The name is
    /// interned: the per-worker broadcast bumps a refcount instead of
    /// cloning a `String` per mailbox.
    Marker(Arc<str>, Option<Sender<()>>),
    /// A simulated worker kill: the worker discards its partition state
    /// and exits immediately, as if the process died. Queued like any
    /// message, so the crash lands at a deterministic position in the
    /// worker's message stream.
    Crash,
    /// Ends the worker after everything queued before it.
    Stop,
}

/// One worker's mailbox and item account.
///
/// `enqueued` is advanced by whoever posts, under the queue's lock and
/// only if the mailbox is alive; `processed` by the receiver, only after
/// the round that consumed the items has posted its own output. Work a
/// round spawns is therefore counted on its destination before the items
/// that spawned it are marked done, so the engine-wide
/// `enqueued − processed` never touches zero while anything is still
/// queued, being processed, or about to be posted.
pub struct Mailbox<M> {
    queue: Mutex<Queue<M>>,
    posted: Condvar,
    alive: AtomicBool,
    enqueued: AtomicU64,
    processed: AtomicU64,
}

struct Queue<M> {
    msgs: VecDeque<Msg<M>>,
    /// Emptied blocks, each of capacity [`BLOCK_SHARES`].
    spare: Vec<Batch<M>>,
    /// The receiver is blocked in [`Mailbox::recv`]; the next post
    /// clears the flag and signals it.
    parked: bool,
}

impl<M> Default for Mailbox<M> {
    fn default() -> Self {
        Mailbox {
            queue: Mutex::new(Queue {
                msgs: VecDeque::new(),
                spare: Vec::new(),
                parked: false,
            }),
            posted: Condvar::new(),
            alive: AtomicBool::new(true),
            enqueued: AtomicU64::new(0),
            processed: AtomicU64::new(0),
        }
    }
}

impl<M> Mailbox<M> {
    /// Queues one message that is not a share (one item). Returns the
    /// items lost: 0, or 1 if the mailbox is closed.
    pub fn post(&self, msg: Msg<M>) -> u64 {
        debug_assert!(
            !matches!(msg, Msg::Shares(_)),
            "shares go through post_shares"
        );
        let Some(mut queue) = self.lock_alive() else {
            return 1;
        };
        self.enqueued.fetch_add(1, Ordering::SeqCst);
        queue.msgs.push_back(msg);
        self.wake(queue);
        0
    }

    /// Moves every share of `shares` into the queue, in order: into the
    /// queued tail block while it has room, then into spare or new blocks
    /// of [`BLOCK_SHARES`]. `shares` is left empty, its buffer kept.
    /// Returns the items lost: 0, or all of them if the mailbox is
    /// closed.
    pub fn post_shares(&self, shares: &mut Batch<M>) -> u64 {
        let items = shares.len() as u64;
        let Some(mut guard) = self.lock_alive() else {
            shares.clear();
            return items;
        };
        self.enqueued.fetch_add(items, Ordering::SeqCst);
        let queue = &mut *guard;
        let mut rest = shares.drain(..);
        if let Some(Msg::Shares(tail)) = queue.msgs.back_mut() {
            let room = BLOCK_SHARES.saturating_sub(tail.len());
            tail.extend(rest.by_ref().take(room));
        }
        while rest.len() > 0 {
            let mut block = queue
                .spare
                .pop()
                .unwrap_or_else(|| Vec::with_capacity(BLOCK_SHARES));
            block.extend(rest.by_ref().take(BLOCK_SHARES));
            queue.msgs.push_back(Msg::Shares(block));
        }
        drop(rest);
        self.wake(guard);
        0
    }

    /// The next message, blocking while there is none; `None` once the
    /// mailbox is closed. `spent` — the receiver's consumed block — is
    /// emptied and handed back first (see [`try_recv`](Self::try_recv)).
    pub fn recv(&self, spent: &mut Batch<M>) -> Option<Msg<M>> {
        let mut queue = self.hand_back(spent);
        loop {
            if let Some(msg) = queue.msgs.pop_front() {
                return Some(msg);
            }
            if !self.is_alive() {
                return None;
            }
            queue.parked = true;
            queue = self
                .posted
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
            queue.parked = false;
        }
    }

    /// The next message if one is queued. `spent` — the receiver's
    /// consumed block — is emptied first and, while the spare list has
    /// room, kept for the next shares posted here.
    pub fn try_recv(&self, spent: &mut Batch<M>) -> Option<Msg<M>> {
        self.hand_back(spent).msgs.pop_front()
    }

    /// Closes the mailbox: what is queued is dropped, later posts are
    /// refused (and counted lost by their posters), and a parked receiver
    /// wakes to find it closed. The account stops moving except for
    /// `processed`.
    pub fn close(&self) {
        let mut queue = self.lock();
        self.alive.store(false, Ordering::SeqCst);
        let abandoned = std::mem::take(&mut queue.msgs);
        self.wake(queue);
        drop(abandoned);
    }

    /// Whether the mailbox still takes posts.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Marks `items` processed: the receiver's call, once the round that
    /// consumed them has posted what it produced.
    pub fn done(&self, items: u64) {
        self.processed.fetch_add(items, Ordering::SeqCst);
    }

    /// Items marked processed so far.
    pub fn processed(&self) -> u64 {
        self.processed.load(Ordering::SeqCst)
    }

    /// `(enqueued, processed)`. `processed` is read first: both only
    /// grow, so the pair never shows more done than queued.
    pub fn account(&self) -> (u64, u64) {
        let processed = self.processed();
        (self.enqueued.load(Ordering::SeqCst), processed)
    }

    /// Items queued here or in a round still running.
    pub fn backlog(&self) -> u64 {
        let (enqueued, processed) = self.account();
        enqueued.saturating_sub(processed)
    }

    /// The queue. Poison is ignored: no program code runs under this lock
    /// and every update (a push, a pop, a block extended by moves) leaves
    /// the queue whole, so a panic elsewhere never leaves it half-changed.
    fn lock(&self) -> MutexGuard<'_, Queue<M>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The queue, unless the mailbox is closed. `alive` only changes
    /// under this lock, so a post that got it is on the account.
    fn lock_alive(&self) -> Option<MutexGuard<'_, Queue<M>>> {
        let queue = self.lock();
        self.is_alive().then_some(queue)
    }

    fn hand_back(&self, spent: &mut Batch<M>) -> MutexGuard<'_, Queue<M>> {
        spent.clear();
        let mut queue = self.lock();
        if spent.capacity() == BLOCK_SHARES && queue.spare.len() < SPARE_BLOCKS {
            queue.spare.push(std::mem::take(spent));
        }
        queue
    }

    /// Releases the queue, signalling the receiver if it is parked.
    fn wake(&self, mut queue: MutexGuard<'_, Queue<M>>) {
        let parked = std::mem::take(&mut queue.parked);
        drop(queue);
        if parked {
            self.posted.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shares(n: usize) -> Batch<f64> {
        (0..n).map(|i| (VertexId(i as u64), i as f64)).collect()
    }

    #[test]
    fn spent_blocks_are_reused_and_the_spare_list_stays_bounded() {
        let mailbox = Mailbox::<f64>::default();
        mailbox.post_shares(&mut shares(3 * BLOCK_SHARES * SPARE_BLOCKS));
        let mut blocks = Vec::new();
        let mut spent = Vec::new();
        while let Some(Msg::Shares(block)) = mailbox.try_recv(&mut spent) {
            assert_eq!(block.capacity(), BLOCK_SHARES);
            blocks.push(block);
        }
        assert_eq!(blocks.len(), 3 * SPARE_BLOCKS);
        let addresses: Vec<_> = blocks.iter().map(|block| block.as_ptr()).collect();
        for block in blocks {
            spent = block;
            assert!(mailbox.try_recv(&mut spent).is_none());
            assert!(spent.is_empty());
        }
        assert_eq!(mailbox.lock().spare.len(), SPARE_BLOCKS);

        // The next posts fill the spare blocks before asking for new ones.
        mailbox.post_shares(&mut shares(SPARE_BLOCKS * BLOCK_SHARES));
        let mut spent = Vec::new();
        while let Some(Msg::Shares(block)) = mailbox.try_recv(&mut spent) {
            assert!(addresses.contains(&block.as_ptr()), "a fresh block");
            assert_eq!(block.len(), BLOCK_SHARES);
        }
        assert!(mailbox.lock().spare.is_empty());
    }

    #[test]
    fn shares_pack_into_the_tail_block_only() {
        let mailbox = Mailbox::<f64>::default();
        mailbox.post_shares(&mut shares(10));
        mailbox.post_shares(&mut shares(BLOCK_SHARES));
        mailbox.post(Msg::Purge(VertexId(7)));
        mailbox.post_shares(&mut shares(5));
        mailbox.post_shares(&mut Vec::new());
        let mut spent = Vec::new();
        let mut lens = Vec::new();
        while let Some(msg) = mailbox.try_recv(&mut spent) {
            lens.push(match msg {
                Msg::Shares(block) => block.len(),
                _ => 0,
            });
        }
        assert_eq!(lens, [BLOCK_SHARES, 10, 0, 5]);
        assert_eq!(mailbox.backlog(), (10 + BLOCK_SHARES + 1 + 5) as u64);
    }

    #[test]
    fn a_closed_mailbox_refuses_posts_item_by_item() {
        let mailbox = Mailbox::<f64>::default();
        assert_eq!(mailbox.post_shares(&mut shares(3)), 0);
        mailbox.close();
        assert!(!mailbox.is_alive());
        let mut rest = shares(700);
        assert_eq!(mailbox.post_shares(&mut rest), 700);
        assert!(rest.is_empty());
        assert_eq!(mailbox.post(Msg::Stop), 1);
        assert_eq!(mailbox.account(), (3, 0));
        assert!(mailbox.recv(&mut Vec::new()).is_none());
    }
}
