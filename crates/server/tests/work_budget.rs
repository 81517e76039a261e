//! Deterministic work budgets for the served path: the bytes allocated by
//! one request, summed over the client and the in-process server's
//! threads. Allocation counts do not drift with the host's clock the way
//! timings do, so a change that re-introduces a copy of the shipped
//! segments fails here in tier-1.
//!
//! This file is its own test binary with one test, so its counting global
//! allocator sees only this work. Each case runs once to warm up (lazy
//! metric handles, the connection) and is then counted on its second run.

use scc_server::{Catalog, Client, Server, ServerConfig};
use scc_storage::TableBuilder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter has no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator's `alloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes allocated by the second of two runs of `op`.
fn warm_bytes(mut op: impl FnMut()) -> u64 {
    op();
    let before = BYTES.load(Ordering::SeqCst);
    op();
    BYTES.load(Ordering::SeqCst) - before
}

#[test]
fn served_requests_stay_within_their_allocation_budgets() {
    // Four 64 Ki-row segments of an `i64` column that PFOR packs at
    // about 20 bits a value: each stored segment image is 165 944 B.
    const ROWS: usize = 4 * scc_storage::SEGMENT_ROWS;
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let values: Vec<i64> = (0..ROWS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 1_000_000) as i64
        })
        .collect();
    let table = TableBuilder::new("t").add_i64("v", values.clone()).build();
    let mut catalog = Catalog::new();
    catalog.add(table);
    let server = Server::start(ServerConfig::default(), catalog).expect("bind ephemeral port");
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");

    // One raw read of 1 024 rows inside segment 1.
    let start = scc_storage::SEGMENT_ROWS + 5_000;
    let raw_read = warm_bytes(|| {
        let got = client.segment_range("t", "v", start as u64, 1024, true).expect("raw read");
        assert_eq!(got.as_i64(), &values[start..start + 1024]);
    });
    // 674 528 B: the request and response payloads and frames, and the
    // loaded segment image. Before segments were served from their
    // resident image, this read allocated 1 004 488 B.
    assert!(raw_read <= 690_000, "raw 1 024-row read allocated {raw_read} B");

    // One stored-form scan of the whole column: 4 761 886 B, of which
    // 2 MiB is the decoded column. Before, 6 579 042 B.
    let scan = warm_bytes(|| {
        let (batch, rows) = client.scan("t", &["v"], None, 1).expect("stored-form scan");
        assert_eq!(rows as usize, ROWS);
        assert_eq!(batch.columns[0].as_i64(), &values[..]);
    });
    assert!(scan <= 4_860_000, "stored-form scan allocated {scan} B");
    drop(client); // a stopping server waits out idle connections
    drop(server);
}
