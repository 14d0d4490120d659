//! Worker mailboxes: one FIFO per worker carrying mutation events,
//! watermarks *and* shares — the shared resource of the Chronograph
//! experiment — with an item-exact account beside it. Each is `gt_core`'s
//! one hand-off queue ([`gt_core::queue`]), unbounded: the replayer never
//! blocks on a worker's backlog, which is what fig 3d's drain tail
//! measures. Posts and receives go through [`Transport`], which keeps the
//! share packing and the block pool.
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
//! share. The packing runs as a fill under the queue's lock
//! (`Queue::push_with`). Spent blocks go back to the mailbox they came
//! from, whose pool keeps up to `SPARE_BLOCKS` of them for the next
//! posts: in steady state a share crosses a mailbox without an
//! allocation.
//!
//! Because a block hides its items from the queue's length, each post is
//! weighted by its items, and the queue's `enqueued`/`processed` account
//! is what the queue gauge, the backlog probe and `Engine::quiesce` read.
//! The queue signals the receiver only when it is parked waiting, so a
//! busy worker's mailbox costs no wake-up call per post.
//!
//! Public only for the transport contract tests; the engine is the one
//! user.

use std::sync::Arc;

use gt_core::prelude::*;
use gt_core::queue::Queue;

/// Shares one mailbox block holds.
pub const BLOCK_SHARES: usize = 512;

/// Spent blocks a mailbox keeps for the shares posted to it next.
const SPARE_BLOCKS: usize = 8;

/// Shares as `(receiving vertex, payload)` pairs in production order.
pub type Batch<M> = Vec<(VertexId, M)>;

/// One mailbox message. Every variant is one item, except `Shares`,
/// which is as many items as it holds shares.
#[derive(Clone)]
pub enum Msg<M> {
    /// A mutation event with its global ingest sequence number (stream
    /// position), carried so out-of-order worker processing can still
    /// stamp Level-2 tracepoints against the replayer-side stages.
    Event(GraphEvent, u64),
    /// Broadcast half of vertex removal: strip edges pointing at the id.
    Purge(VertexId),
    /// A block of shares for this worker, at most [`BLOCK_SHARES`] of
    /// them. The unit of *transport*; the receiver still schedules its
    /// items one by one.
    Shares(Batch<M>),
    /// A watermark: queued behind everything already in the mailbox, so
    /// its processing time measures the ingest-to-process latency of the
    /// events streamed before it (§4.5's watermark pattern). The name is
    /// interned: the per-worker broadcast bumps a refcount instead of
    /// cloning a `String` per mailbox.
    Marker(Arc<str>),
    /// A simulated worker kill: the worker discards its partition state
    /// and exits immediately, as if the process died. Queued like any
    /// message, so the crash lands at a deterministic position in the
    /// worker's message stream.
    Crash,
}

/// One worker's mailbox and item account: `gt_core`'s one [`Queue`],
/// unbounded — the replayer never blocks on a backlog, which is fig 3d's
/// point — with spent blocks in its pool.
///
/// A post books its items only while the mailbox is open; `processed`
/// advances by the receiver, only after the round that consumed the items
/// has posted its own output. Work a round spawns is therefore counted on
/// its destination before the items that spawned it are marked done, so
/// the engine-wide `enqueued − processed` never touches zero while
/// anything is still queued, being processed, or about to be posted.
pub type Mailbox<M> = Queue<Msg<M>, Batch<M>>;

/// A fresh mailbox.
pub fn mailbox<M>() -> Mailbox<M> {
    Queue::new(usize::MAX, SPARE_BLOCKS)
}

/// How messages enter and leave a [`Mailbox`]: shares packed into blocks,
/// spent blocks handed back.
pub trait Transport<M> {
    /// Queues one message that is not a share (one item). Returns the
    /// items lost: 0, or 1 if the mailbox is closed.
    fn post(&self, msg: Msg<M>) -> u64;

    /// Moves every share of `shares` into the queue, in order: into the
    /// queued tail block while it has room, then into spare or new blocks
    /// of [`BLOCK_SHARES`]. `shares` is left empty, its buffer kept.
    /// Returns the items lost: 0, or all of them if the mailbox is
    /// closed.
    fn post_shares(&self, shares: &mut Batch<M>) -> u64;

    /// The next message, blocking while there is none; `None` once the
    /// mailbox is finished and drained, or closed. `spent` — the
    /// receiver's consumed block — is handed back first (see
    /// [`try_recv`](Self::try_recv)).
    fn recv(&self, spent: &mut Batch<M>) -> Option<Msg<M>>;

    /// The next message if one is queued. `spent` — the receiver's
    /// consumed block — is emptied first and, while the spare pool has
    /// room, kept for the next shares posted here.
    fn try_recv(&self, spent: &mut Batch<M>) -> Option<Msg<M>>;
}

impl<M> Transport<M> for Mailbox<M> {
    fn post(&self, msg: Msg<M>) -> u64 {
        debug_assert!(
            !matches!(msg, Msg::Shares(_)),
            "shares go through post_shares"
        );
        u64::from(self.push(msg, 1).is_err())
    }

    fn post_shares(&self, shares: &mut Batch<M>) -> u64 {
        let items = shares.len() as u64;
        let packed = self.push_with(shares, items, |shares, msgs, spare| {
            let mut rest = shares.drain(..);
            if let Some(Msg::Shares(tail)) = msgs.back_mut() {
                let room = BLOCK_SHARES.saturating_sub(tail.len());
                tail.extend(rest.by_ref().take(room));
            }
            while rest.len() > 0 {
                let mut block = spare
                    .pop()
                    .unwrap_or_else(|| Vec::with_capacity(BLOCK_SHARES));
                block.extend(rest.by_ref().take(BLOCK_SHARES));
                msgs.push_back(Msg::Shares(block));
            }
        });
        match packed {
            Ok(()) => 0,
            Err(shares) => {
                shares.clear();
                items
            }
        }
    }

    fn recv(&self, spent: &mut Batch<M>) -> Option<Msg<M>> {
        self.take(spent_block(spent), || true)
    }

    fn try_recv(&self, spent: &mut Batch<M>) -> Option<Msg<M>> {
        self.take(spent_block(spent), || false)
    }
}

/// A consumed block, emptied, to hand back: a block is worth keeping only
/// at full capacity.
fn spent_block<M>(spent: &mut Batch<M>) -> Option<Batch<M>> {
    spent.clear();
    (spent.capacity() == BLOCK_SHARES).then(|| std::mem::take(spent))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A mailbox slot's size is paid per queued message: moving the queue
    /// onto `gt_core::queue` adds no byte to it (56 before the move).
    #[test]
    fn a_message_is_at_most_seven_words() {
        assert!(std::mem::size_of::<Msg<f64>>() <= 56);
    }

    fn shares(n: usize) -> Batch<f64> {
        (0..n).map(|i| (VertexId(i as u64), i as f64)).collect()
    }

    #[test]
    fn spent_blocks_are_reused_and_the_spare_list_stays_bounded() {
        let mailbox = mailbox::<f64>();
        mailbox.post_shares(&mut shares(3 * BLOCK_SHARES * SPARE_BLOCKS));
        let mut blocks = Vec::new();
        let mut spent = Vec::new();
        while let Some(Msg::Shares(block)) = mailbox.try_recv(&mut spent) {
            assert_eq!(block.capacity(), BLOCK_SHARES);
            blocks.push(block);
        }
        assert_eq!(blocks.len(), 3 * SPARE_BLOCKS);
        // Handed back in this order, the pool keeps the first
        // `SPARE_BLOCKS` and frees the rest.
        let kept: Vec<_> = (blocks.iter().take(SPARE_BLOCKS))
            .map(|block| block.as_ptr())
            .collect();
        for block in blocks {
            spent = block;
            assert!(mailbox.try_recv(&mut spent).is_none());
            assert!(spent.is_empty());
        }

        // The next posts take every kept block, the last handed back
        // first, and only then a new one: one block more than the cap
        // shows both the cap and the pool emptied.
        mailbox.post_shares(&mut shares((SPARE_BLOCKS + 1) * BLOCK_SHARES));
        let mut received = Vec::new();
        while let Some(Msg::Shares(block)) = mailbox.try_recv(&mut Vec::new()) {
            assert_eq!(block.len(), BLOCK_SHARES);
            received.push(block.as_ptr());
        }
        let reused: Vec<_> = kept.into_iter().rev().collect();
        assert_eq!(received.len(), SPARE_BLOCKS + 1);
        assert_eq!(received[..SPARE_BLOCKS], reused[..]);
        assert!(
            !reused.contains(&received[SPARE_BLOCKS]),
            "a kept block twice"
        );
    }

    #[test]
    fn shares_pack_into_the_tail_block_only() {
        let mailbox = mailbox::<f64>();
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
        let mailbox = mailbox::<f64>();
        assert_eq!(mailbox.post_shares(&mut shares(3)), 0);
        mailbox.close();
        assert!(!mailbox.is_open());
        let mut rest = shares(700);
        assert_eq!(mailbox.post_shares(&mut rest), 700);
        assert!(rest.is_empty());
        assert_eq!(mailbox.post(Msg::Crash), 1);
        assert_eq!(mailbox.account(), (3, 0));
        assert!(mailbox.recv(&mut Vec::new()).is_none());
    }
}
