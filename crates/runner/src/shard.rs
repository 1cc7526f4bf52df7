//! Persistent sharded worker pool with reusable batch buffers.
//!
//! [`parallel_map_owned`](crate::parallel_map_owned) pays a full
//! thread-spawn/join cycle and a fresh set of allocations per call —
//! fine for a coarse experiment grid, ruinous for a streaming engine
//! that dispatches a batch every few hundred samples. [`ShardPool`]
//! amortises both costs:
//!
//! * **threads persist** — workers are spawned once and park on a job
//!   channel between rounds, so a round costs two channel hops instead
//!   of a spawn/join;
//! * **buffers cycle** — the shard `Vec`s that carry items out and
//!   results back are recycled round over round, so the steady state
//!   allocates nothing;
//! * **items return in input order** — each item travels tagged with
//!   its input index and is restored to its original position, so a
//!   caller that owns long-lived stateful items (the engine's session
//!   table) sees them permuted by *nothing*.
//!
//! Results are appended in shard-completion order, which is
//! scheduling-dependent; callers needing a deterministic stream must
//! impose their own total order (the engine sorts events by a unique
//! `(seq, sub)` key, which makes the completion order unobservable).
//!
//! A pool of width 1 spawns no thread at all: every round steps inline
//! on the caller's thread, as any round with a single item does, so a
//! caller can hold one pool at every width and keep one code path.

use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One round-trip unit: a slice of the caller's items (tagged with
/// their input indices) and the results produced from them.
struct Shard<T, R> {
    items: Vec<(usize, T)>,
    out: Vec<R>,
}

impl<T, R> Shard<T, R> {
    fn new() -> Self {
        Shard { items: Vec::new(), out: Vec::new() }
    }
}

/// A persistent pool of workers that repeatedly runs a fixed `step`
/// function over the caller's owned items — see the module docs.
pub struct ShardPool<T, R> {
    /// One job channel per worker thread; empty at width 1.
    txs: Vec<mpsc::Sender<Shard<T, R>>>,
    res_rx: mpsc::Receiver<Shard<T, R>>,
    handles: Vec<JoinHandle<()>>,
    /// Recycled shard buffers (both `Vec`s retain their capacity).
    spare: Vec<Shard<T, R>>,
    /// Recycled order-restoration scratch.
    restore: Vec<Option<T>>,
    /// The caller's step function, kept for inline rounds and for the
    /// fallback when a worker cannot accept a shard.
    step: Box<dyn Fn(&mut T, &mut Vec<R>) + Send + Sync>,
}

impl<T, R> ShardPool<T, R>
where
    T: Send + 'static,
    R: Send + 'static,
{
    /// A pool `workers` wide (floored at 1). Above width 1 it spawns
    /// that many persistent worker threads, each running `step` over
    /// every item of every shard it receives; at width 1 it spawns none.
    pub fn new<F>(workers: usize, step: F) -> Self
    where
        F: Fn(&mut T, &mut Vec<R>) + Send + Sync + Clone + 'static,
    {
        let threads = if workers > 1 { workers } else { 0 };
        let (res_tx, res_rx) = mpsc::channel::<Shard<T, R>>();
        let mut txs = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (tx, rx) = mpsc::channel::<Shard<T, R>>();
            txs.push(tx);
            let res = res_tx.clone();
            let step = step.clone();
            handles.push(std::thread::spawn(move || {
                for mut shard in rx {
                    for (_, item) in shard.items.iter_mut() {
                        step(item, &mut shard.out);
                    }
                    // The pool dropping its receiver mid-round means the
                    // round's results are unwanted; exit quietly.
                    if res.send(shard).is_err() {
                        break;
                    }
                }
            }));
        }
        // Workers hold the only result senders, so `res_rx` disconnects
        // exactly when every worker has exited.
        drop(res_tx);
        ShardPool {
            txs,
            res_rx,
            handles,
            spare: Vec::new(),
            restore: Vec::new(),
            step: Box::new(step),
        }
    }

    /// The pool's width: how many shards a round splits into at most.
    pub fn workers(&self) -> usize {
        self.txs.len().max(1)
    }

    /// Runs one round: every item of `items` is stepped exactly once
    /// (round-robin sharded across the workers), results are appended
    /// to `out`, and `items` comes back in its original order.
    ///
    /// Results arrive in shard-completion order — impose a total order
    /// downstream if the output must be deterministic.
    pub fn run_sharded(&mut self, items: &mut Vec<T>, out: &mut Vec<R>) {
        let n = items.len();
        let workers = self.txs.len().min(n);
        if workers <= 1 {
            // One shard would serialise through a worker anyway (and a
            // width-1 pool has none); step inline and skip the channel
            // round-trip.
            for item in items.iter_mut() {
                (self.step)(item, out);
            }
            return;
        }
        let mut done = self.dispatch_round(items, workers);
        for shard in done.iter_mut() {
            out.append(&mut shard.out);
        }
        self.restore_items(n, &mut done, items);
        self.spare.extend(done);
    }

    /// Shards `items` round-robin, ships the shards to the workers and
    /// collects them back (stepping inline if a worker is gone).
    /// Returned shards still carry their index-tagged items.
    fn dispatch_round(&mut self, items: &mut Vec<T>, workers: usize) -> Vec<Shard<T, R>> {
        let mut shards: Vec<Shard<T, R>> = Vec::with_capacity(workers);
        while shards.len() < workers {
            shards.push(self.spare.pop().unwrap_or_else(Shard::new));
        }
        for (i, item) in items.drain(..).enumerate() {
            if let Some(shard) = shards.get_mut(i % workers) {
                shard.items.push((i, item));
            }
        }
        let mut pending = 0usize;
        let mut done: Vec<Shard<T, R>> = Vec::with_capacity(workers);
        for (tx, shard) in self.txs.iter().zip(shards) {
            match tx.send(shard) {
                Ok(()) => pending += 1,
                Err(mpsc::SendError(mut shard)) => {
                    // The worker is gone (see the liveness note below);
                    // keep the round lossless by stepping inline.
                    for (_, item) in shard.items.iter_mut() {
                        (self.step)(item, &mut shard.out);
                    }
                    done.push(shard);
                }
            }
        }
        while pending > 0 {
            match self.res_rx.recv_timeout(Duration::from_millis(100)) {
                Ok(shard) => {
                    done.push(shard);
                    pending -= 1;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    // Workers only exit when the pool closes their job
                    // channel — unless `step` panicked. That shard's
                    // items are unrecoverable, and continuing with a
                    // truncated item set would silently corrupt the
                    // caller's state; mirror the panic-propagation of
                    // `std::thread::scope` and die loudly. A merely
                    // *slow* step is fine: the timeout only re-arms the
                    // liveness check.
                    if self.handles.iter().any(|h| h.is_finished()) {
                        std::process::abort();
                    }
                }
                // Every worker exited mid-round: the same corruption
                // argument as above, with no survivors to wait for.
                Err(mpsc::RecvTimeoutError::Disconnected) => std::process::abort(),
            }
        }
        done
    }

    /// Restores `items` to input order from the index tags carried by
    /// `done`, reusing the restoration scratch.
    fn restore_items(&mut self, n: usize, done: &mut Vec<Shard<T, R>>, items: &mut Vec<T>) {
        self.restore.clear();
        self.restore.resize_with(n, || None);
        for shard in done.iter_mut() {
            for (i, item) in shard.items.drain(..) {
                if let Some(slot) = self.restore.get_mut(i) {
                    *slot = Some(item);
                }
            }
        }
        items.extend(self.restore.drain(..).flatten());
    }
}

impl<T, R> Drop for ShardPool<T, R> {
    fn drop(&mut self) {
        // Closing the job channels ends every worker's receive loop.
        self.txs.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<T, R> std::fmt::Debug for ShardPool<T, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool")
            .field("workers", &self.txs.len().max(1))
            .field("spare", &self.spare.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_come_back_in_input_order() {
        let mut pool: ShardPool<u64, u64> =
            ShardPool::new(4, |item: &mut u64, out: &mut Vec<u64>| {
                out.push(*item * 10);
                *item += 1;
            });
        let mut items: Vec<u64> = (0..57).collect();
        let mut out = Vec::new();
        pool.run_sharded(&mut items, &mut out);
        let expected: Vec<u64> = (1..58).collect();
        assert_eq!(items, expected, "items must return in input order, each stepped once");
        let mut sorted = out.clone();
        sorted.sort_unstable();
        let want: Vec<u64> = (0..57).map(|i| i * 10).collect();
        assert_eq!(sorted, want, "every item produced its result exactly once");
    }

    #[test]
    fn rounds_reuse_the_pool_and_buffers() {
        let mut pool: ShardPool<u64, u64> =
            ShardPool::new(3, |item: &mut u64, out: &mut Vec<u64>| out.push(*item));
        let mut items: Vec<u64> = (0..16).collect();
        for round in 0..50u64 {
            let mut out = Vec::new();
            pool.run_sharded(&mut items, &mut out);
            assert_eq!(out.len(), 16, "round {round}");
            assert_eq!(items.len(), 16, "round {round}");
        }
        // Buffers were recycled: at most one shard set is parked.
        assert!(pool.spare.len() <= 3);
    }

    #[test]
    fn degenerate_shapes_work() {
        let mut pool: ShardPool<u64, u64> =
            ShardPool::new(8, |item: &mut u64, out: &mut Vec<u64>| out.push(*item));
        let mut empty: Vec<u64> = Vec::new();
        let mut out = Vec::new();
        pool.run_sharded(&mut empty, &mut out);
        assert!(out.is_empty());
        // More workers than items.
        let mut tiny = vec![7u64, 8];
        pool.run_sharded(&mut tiny, &mut out);
        assert_eq!(tiny, vec![7, 8]);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![7, 8]);
        // Zero workers floors to one.
        let mut single: ShardPool<u64, u64> =
            ShardPool::new(0, |item: &mut u64, out: &mut Vec<u64>| out.push(*item));
        assert_eq!(single.workers(), 1);
        assert!(single.handles.is_empty(), "a width-1 pool spawns no thread");
        let mut items = vec![1u64, 2, 3];
        let mut out = Vec::new();
        single.run_sharded(&mut items, &mut out);
        assert_eq!(out, vec![1, 2, 3], "single worker steps inline, in order");
    }

    #[test]
    fn stateful_items_accumulate_across_rounds() {
        // The engine's shape: long-lived stateful items (sessions)
        // stepped every round, with results merged downstream.
        struct Counter {
            id: usize,
            ticks: u64,
        }
        let mut pool: ShardPool<Counter, (usize, u64)> =
            ShardPool::new(4, |c: &mut Counter, out: &mut Vec<(usize, u64)>| {
                c.ticks += 1;
                out.push((c.id, c.ticks));
            });
        let mut items: Vec<Counter> =
            (0..10).map(|id| Counter { id, ticks: 0 }).collect();
        let mut out = Vec::new();
        for _ in 0..20 {
            pool.run_sharded(&mut items, &mut out);
        }
        for (i, c) in items.iter().enumerate() {
            assert_eq!(c.id, i, "order preserved");
            assert_eq!(c.ticks, 20, "every round stepped every item once");
        }
        assert_eq!(out.len(), 200);
    }
}
