//! Exchange under multi-source feeds: several producer threads (the
//! shape of a cluster coordinator, one thread per shard) each owning a
//! slice of the partition space, delivering out of order and at
//! adversarial relative speeds. The merged stream must be *exactly* the
//! serial stream — same rows, same order, same first error at the same
//! position — for every interleaving.

use scc_core::Error;
use scc_engine::ops::exchange::{Exchange, Partition};
use scc_engine::ops::{try_collect, Operator};
use scc_engine::{Batch, Vector};
use std::sync::mpsc::sync_channel;
use std::time::Duration;

fn batch(values: Vec<i64>) -> Batch {
    Batch::new(vec![Vector::I64(values)])
}

/// Splitmix-style mixer for deterministic per-test scheduling jitter.
fn mix(seed: u64, i: u64) -> u64 {
    let mut x = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The rows partition `seq` contributes, split into `seq % 3 + 1`
/// batches so batch boundaries differ per partition.
fn partition_batches(seq: u64) -> Vec<Batch> {
    let rows: Vec<i64> = (0..12).map(|r| (seq * 100 + r) as i64).collect();
    let cuts = seq as usize % 3 + 1;
    rows.chunks(rows.len() / cuts).map(|c| batch(c.to_vec())).collect()
}

/// Serial oracle: partitions in order, rows in order.
fn serial_rows(total: u64) -> Vec<i64> {
    (0..total).flat_map(|s| (0..12).map(move |r| (s * 100 + r) as i64)).collect()
}

#[test]
fn multi_source_out_of_order_streams_merge_into_serial_order() {
    for seed in 0..8u64 {
        const SOURCES: u64 = 4;
        const TOTAL: u64 = 16;
        let (tx, rx) = sync_channel::<Partition>(2);
        let workers: Vec<_> = (0..SOURCES)
            .map(|w| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    // Source w owns seqs w, w+SOURCES, ... and delivers
                    // its own slice in reverse with jittered pacing, so
                    // arrival order is thoroughly scrambled across and
                    // within sources.
                    let mut own: Vec<u64> = (w..TOTAL).step_by(SOURCES as usize).collect();
                    own.reverse();
                    for seq in own {
                        std::thread::sleep(Duration::from_micros(mix(seed, seq) % 500));
                        if tx.send(Partition::new(seq, Ok(partition_batches(seq)))).is_err() {
                            return;
                        }
                    }
                })
            })
            .collect();
        drop(tx);
        let mut ex = Exchange::new(TOTAL, rx, workers);
        let out = try_collect(&mut ex).unwrap();
        assert_eq!(out.col(0).as_i64(), serial_rows(TOTAL), "seed {seed}");
    }
}

#[test]
fn error_from_one_source_surfaces_at_its_serial_position_not_its_arrival_time() {
    // The failing partition is delivered *first* in wall-clock time,
    // but sits at serial position 5: every row of partitions 0..5 must
    // still come out, then exactly this error, then end of stream.
    const TOTAL: u64 = 8;
    const FAIL_SEQ: u64 = 5;
    let (tx, rx) = sync_channel::<Partition>(TOTAL as usize);
    let failer = {
        let tx = tx.clone();
        std::thread::spawn(move || {
            tx.send(Partition::new(
                FAIL_SEQ,
                Err(Error::ReadFailed { chunk: (7, 7, 0), attempts: 3 }),
            ))
            .unwrap();
        })
    };
    failer.join().unwrap(); // error is en route before any data
    let workers: Vec<_> = (0..2u64)
        .map(|w| {
            let tx = tx.clone();
            std::thread::spawn(move || {
                for seq in (w..TOTAL).step_by(2).filter(|&s| s != FAIL_SEQ) {
                    std::thread::sleep(Duration::from_micros(mix(9, seq) % 300));
                    if tx.send(Partition::new(seq, Ok(partition_batches(seq)))).is_err() {
                        return;
                    }
                }
            })
        })
        .collect();
    drop(tx);
    let mut ex = Exchange::new(TOTAL, rx, workers);
    let mut rows: Vec<i64> = Vec::new();
    let err = loop {
        match ex.try_next() {
            Ok(Some(b)) => rows.extend(b.col(0).as_i64()),
            Ok(None) => panic!("stream ended without surfacing the error"),
            Err(e) => break e,
        }
    };
    assert_eq!(rows, serial_rows(FAIL_SEQ), "full prefix before the failing partition");
    assert_eq!(err, Error::ReadFailed { chunk: (7, 7, 0), attempts: 3 });
    // The stream is over — no resumption past an error.
    assert_eq!(ex.try_next(), Ok(None));
}

#[test]
fn slow_source_stalls_but_never_reorders() {
    // One source is an order of magnitude slower than the others; the
    // merge waits for it at each of its turns rather than skipping.
    const TOTAL: u64 = 6;
    let (tx, rx) = sync_channel::<Partition>(1);
    let workers: Vec<_> = (0..3u64)
        .map(|w| {
            let tx = tx.clone();
            std::thread::spawn(move || {
                for seq in (w..TOTAL).step_by(3) {
                    if w == 0 {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    if tx.send(Partition::new(seq, Ok(partition_batches(seq)))).is_err() {
                        return;
                    }
                }
            })
        })
        .collect();
    drop(tx);
    let mut ex = Exchange::new(TOTAL, rx, workers);
    let out = try_collect(&mut ex).unwrap();
    assert_eq!(out.col(0).as_i64(), serial_rows(TOTAL));
}
