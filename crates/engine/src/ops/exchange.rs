//! Exchange: merges partitioned producer threads back into one ordered
//! vector stream.
//!
//! Producers (e.g. the scan workers in `scc-storage`) run on their own
//! threads and send [`Partition`]s — a sequence number and the batches
//! it covers, or the error that stopped it — over a bounded channel;
//! the exchange reorders them and emits batches in
//! strictly increasing sequence order. The consumer side therefore sees
//! *exactly* the serial stream — same batch boundaries, same row order,
//! and the same first error at the same point — regardless of worker
//! count or scheduling, which is what makes parallel plans drop-in
//! replacements for serial ones.
//!
//! Errors travel in-band: a partition that fails sends `Err` under its
//! sequence number, and the exchange surfaces it only when that
//! sequence becomes next, then shuts the pipeline down (drops the
//! receiver so producers unblock, joins the workers). Worker *panics*
//! are propagated on join rather than silently truncating the stream.
//!
//! A producer that ran operators of its own (a scan, a pushed-down
//! select) attaches that plan fragment's [`ExplainNode`] to each
//! partition; the exchange sums the fragments and reports them as its
//! child, so EXPLAIN sees the work done behind the channel.

use crate::batch::Batch;
use crate::explain::{ExplainNode, OpProfile};
use crate::ops::Operator;
use scc_core::Error;
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::Receiver;
use std::thread::JoinHandle;

/// One partition's payload.
#[derive(Debug)]
pub struct Partition {
    /// Position in the serial order.
    pub seq: u64,
    /// The batches it produced, or the error that stopped it.
    pub result: Result<Vec<Batch>, Error>,
    /// Explain tree of the plan fragment that produced it, if the
    /// producer ran one.
    pub fragment: Option<ExplainNode>,
}

impl Partition {
    /// A partition with no fragment profile.
    pub fn new(seq: u64, result: Result<Vec<Batch>, Error>) -> Self {
        Self { seq, result, fragment: None }
    }
}

/// The ordered-merge operator over partitioned producer threads.
pub struct Exchange {
    rx: Option<Receiver<Partition>>,
    workers: Vec<JoinHandle<()>>,
    n_workers: usize,
    /// Partitions received ahead of their turn, keyed by sequence.
    pending: BTreeMap<u64, Result<Vec<Batch>, Error>>,
    /// Batches of the current partition, drained one per `try_next`.
    ready: VecDeque<Batch>,
    next_seq: u64,
    total_seqs: u64,
    done: bool,
    profile: OpProfile,
    /// Sum of the fragment trees received so far.
    fragments: Option<ExplainNode>,
}

// Exchanges (and the plans built on them) can themselves move across
// threads.
const _: () = {
    const fn check<T: Send>() {}
    check::<Exchange>();
};

impl Exchange {
    /// Builds an exchange expecting partitions `0..total_seqs` from the
    /// channel, with `workers` the producer threads to join at end of
    /// stream (or on shutdown).
    pub fn new(total_seqs: u64, rx: Receiver<Partition>, workers: Vec<JoinHandle<()>>) -> Self {
        let n_workers = workers.len();
        Self {
            rx: Some(rx),
            workers,
            n_workers,
            pending: BTreeMap::new(),
            ready: VecDeque::new(),
            next_seq: 0,
            total_seqs,
            done: false,
            profile: OpProfile::default(),
            fragments: None,
        }
    }

    /// Number of producer threads feeding this exchange.
    pub fn workers(&self) -> usize {
        self.n_workers
    }

    /// Drops the receiver (unblocking any producer parked on the bounded
    /// channel, whose next send then fails) and joins the workers,
    /// propagating a worker panic unless already unwinding.
    fn shutdown(&mut self) {
        self.rx = None;
        for handle in self.workers.drain(..) {
            if let Err(payload) = handle.join() {
                if !std::thread::panicking() {
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }

    fn produce(&mut self) -> Result<Option<Batch>, Error> {
        if self.done {
            return Ok(None);
        }
        loop {
            if let Some(batch) = self.ready.pop_front() {
                return Ok(Some(batch));
            }
            if self.next_seq >= self.total_seqs {
                self.done = true;
                self.shutdown();
                return Ok(None);
            }
            if let Some(result) = self.pending.remove(&self.next_seq) {
                self.next_seq += 1;
                match result {
                    Ok(batches) => self.ready.extend(batches),
                    Err(e) => {
                        self.done = true;
                        self.shutdown();
                        return Err(e);
                    }
                }
                continue;
            }
            let rx = self.rx.as_ref().expect("receiver alive while partitions outstanding");
            match rx.recv() {
                Ok(Partition { seq, result, fragment }) => {
                    self.pending.insert(seq, result);
                    match (&mut self.fragments, fragment) {
                        (Some(sum), Some(f)) => sum.merge(&f),
                        (None, f) => self.fragments = f,
                        (Some(_), None) => {}
                    }
                }
                Err(_) => {
                    // Every sender hung up with partitions still owed:
                    // a worker died. Joining surfaces its panic; if all
                    // joins succeed the producers were miswired.
                    self.done = true;
                    self.shutdown();
                    panic!(
                        "exchange producers disconnected at partition {} of {}",
                        self.next_seq, self.total_seqs
                    );
                }
            }
        }
    }
}

impl Operator for Exchange {
    fn try_next(&mut self) -> Result<Option<Batch>, Error> {
        let start = scc_obs::clock();
        let out = self.produce();
        self.profile.record(start, &out);
        out
    }

    fn label(&self) -> String {
        format!("Exchange(partitions={}, workers={})", self.total_seqs, self.n_workers)
    }

    fn profile(&self) -> OpProfile {
        self.profile
    }

    fn explain(&self) -> ExplainNode {
        ExplainNode::new(self.label(), self.profile, self.fragments.iter().cloned().collect())
    }
}

impl Drop for Exchange {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Vector;
    use crate::ops::try_collect;
    use std::sync::mpsc::sync_channel;

    fn batch(values: Vec<i64>) -> Batch {
        Batch::new(vec![Vector::I64(values)])
    }

    #[test]
    fn reorders_partitions_into_serial_order() {
        let (tx, rx) = sync_channel::<Partition>(8);
        // Deliver out of order: 2, 0, 1.
        tx.send(Partition::new(2, Ok(vec![batch(vec![4])]))).unwrap();
        tx.send(Partition::new(0, Ok(vec![batch(vec![0]), batch(vec![1])]))).unwrap();
        tx.send(Partition::new(1, Ok(vec![]))).unwrap(); // an empty partition is fine
        drop(tx);
        let mut ex = Exchange::new(3, rx, Vec::new());
        let out = try_collect(&mut ex).unwrap();
        assert_eq!(out.col(0).as_i64(), &[0, 1, 4]);
        assert_eq!(ex.profile().rows, 3);
    }

    #[test]
    fn error_surfaces_at_its_serial_position() {
        let (tx, rx) = sync_channel::<Partition>(8);
        tx.send(Partition::new(1, Err(Error::UnalignedRange { start: 7 }))).unwrap();
        tx.send(Partition::new(0, Ok(vec![batch(vec![10])]))).unwrap();
        // Partition 2 succeeded elsewhere, but the stream must stop at 1.
        tx.send(Partition::new(2, Ok(vec![batch(vec![99])]))).unwrap();
        drop(tx);
        let mut ex = Exchange::new(3, rx, Vec::new());
        assert_eq!(ex.try_next().unwrap().unwrap().col(0).as_i64(), &[10]);
        assert_eq!(ex.try_next(), Err(Error::UnalignedRange { start: 7 }));
        // After the error the stream is over, not resumed mid-order.
        assert_eq!(ex.try_next(), Ok(None));
    }

    #[test]
    fn joins_real_worker_threads() {
        let (tx, rx) = sync_channel::<Partition>(2);
        let workers: Vec<_> = (0..3u64)
            .map(|seq| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    tx.send(Partition::new(seq, Ok(vec![batch(vec![seq as i64])]))).unwrap();
                })
            })
            .collect();
        drop(tx);
        let mut ex = Exchange::new(3, rx, workers);
        let out = try_collect(&mut ex).unwrap();
        assert_eq!(out.col(0).as_i64(), &[0, 1, 2]);
        assert_eq!(ex.workers(), 3);
    }

    #[test]
    fn dropping_undrained_exchange_unblocks_producers() {
        let (tx, rx) = sync_channel::<Partition>(1);
        let worker = std::thread::spawn(move || {
            // The bounded channel fills; once the exchange drops the
            // receiver the pending send errors and the loop exits.
            for seq in 0..100u64 {
                if tx.send(Partition::new(seq, Ok(vec![batch(vec![1])]))).is_err() {
                    return;
                }
            }
            panic!("send never failed: receiver leaked");
        });
        let mut ex = Exchange::new(100, rx, vec![worker]);
        assert!(ex.try_next().unwrap().is_some());
        drop(ex); // must not deadlock, and must join the worker cleanly
    }

    #[test]
    #[should_panic(expected = "worker exploded")]
    fn worker_panic_propagates() {
        let (tx, rx) = sync_channel::<Partition>(1);
        let worker = std::thread::spawn(move || {
            let _tx = tx; // hold the sender so disconnect implies death
            panic!("worker exploded");
        });
        let mut ex = Exchange::new(1, rx, vec![worker]);
        let _ = ex.try_next();
    }

    #[test]
    fn empty_exchange_ends_immediately() {
        let (tx, rx) = sync_channel::<Partition>(1);
        drop(tx);
        let mut ex = Exchange::new(0, rx, Vec::new());
        assert_eq!(ex.try_next(), Ok(None));
        assert!(ex.label().contains("partitions=0"));
    }
}
