//! The simulated disk, fault injection, and per-scan accounting.
//!
//! The container this reproduction runs in has no RAID to measure, so
//! I/O is modeled analytically: a read of `n` bytes costs
//! `n / bandwidth` seconds (sequential scans; seek costs are negligible
//! at multi-megabyte chunk sizes, which is why ColumnBM sizes chunks
//! that way). Scans overlap I/O with computation through DMA-style
//! prefetching (Figure 1), so reported *stall* time is
//! `max(0, io_seconds - cpu_seconds)`.
//!
//! The [`DiskRead`] trait abstracts the delivery of one chunk so a scan
//! can run over either the clean [`Disk`] or a [`FaultyDisk`] decorator
//! that injects deterministic, seeded faults (bit flips, truncated
//! reads, transient failures). Corrupt deliveries are caught by the
//! wire-format checksums (v2 segments); chunks that stay corrupt past
//! the retry budget are quarantined and every later read of them fails
//! fast.

use crate::pool::ChunkId;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A bandwidth-modeled disk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Disk {
    /// Sequential bandwidth in bytes per second.
    pub bandwidth: f64,
}

impl Disk {
    /// The paper's low-end config: 4-disk RAID, ~80 MB/s.
    pub fn low_end() -> Self {
        Self { bandwidth: 80.0 * 1024.0 * 1024.0 }
    }

    /// The paper's middle-end config: 12-disk RAID, ~350 MB/s.
    pub fn middle_end() -> Self {
        Self { bandwidth: 350.0 * 1024.0 * 1024.0 }
    }

    /// Seconds to deliver `bytes` sequentially.
    pub fn read_seconds(&self, bytes: u64) -> f64 {
        bytes as f64 / self.bandwidth
    }
}

/// The result of delivering one chunk from a [`DiskRead`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The stored bytes arrived intact.
    Clean,
    /// The read completed but delivered these (damaged) bytes instead of
    /// the stored ones. Only possible when the caller supplied a payload
    /// to damage; the caller validates them against the wire checksums.
    Corrupted(Vec<u8>),
    /// The read failed outright (transient device error); no bytes.
    Failed,
}

/// A source of chunk reads: the clean modeled [`Disk`] or a fault
/// injector wrapped around it.
pub trait DiskRead {
    /// Modeled seconds to deliver `bytes` sequentially.
    fn read_seconds(&self, bytes: u64) -> f64;

    /// Delivers chunk `id`. `attempt` starts at 1 and increments per
    /// retry so injectors can fault deterministically per *attempt*.
    /// `payload` is the chunk's serialized bytes when the caller has a
    /// checksummed representation to damage (compressed segments);
    /// `None` for representations without checksums (plain / LZ pages),
    /// whose corruption is undetectable by design and therefore never
    /// injected.
    fn read_chunk(&mut self, id: ChunkId, attempt: u32, payload: Option<&[u8]>) -> ReadOutcome;

    /// Marks a chunk as permanently bad. Default: no bookkeeping.
    fn quarantine(&mut self, _id: ChunkId) {}

    /// True when the chunk was quarantined earlier. Default: never.
    fn is_quarantined(&self, _id: ChunkId) -> bool {
        false
    }
}

impl DiskRead for Disk {
    fn read_seconds(&self, bytes: u64) -> f64 {
        Disk::read_seconds(self, bytes)
    }

    fn read_chunk(&mut self, _id: ChunkId, _attempt: u32, _payload: Option<&[u8]>) -> ReadOutcome {
        ReadOutcome::Clean
    }
}

/// Per-read fault probabilities for a [`FaultyDisk`], drawn
/// deterministically from `seed` and the `(chunk, attempt)` pair — the
/// same plan over the same scan replays the exact same fault sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-(chunk, attempt) hash.
    pub seed: u64,
    /// Probability a read delivers the payload with one bit flipped.
    pub bit_flip: f64,
    /// Probability a read delivers a truncated copy of the payload.
    pub truncate: f64,
    /// Probability a read fails outright (retriable transient error).
    pub transient_fail: f64,
}

impl FaultPlan {
    /// A plan that never faults (useful as a baseline in tests).
    pub fn none(seed: u64) -> Self {
        Self { seed, bit_flip: 0.0, truncate: 0.0, transient_fail: 0.0 }
    }
}

/// SplitMix64 finalizer: the one-round mixer behind the deterministic
/// fault draws.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fault-injecting decorator over the modeled [`Disk`].
///
/// Faults are a pure function of `(plan.seed, chunk id, attempt)`: a
/// read that corrupts on attempt 1 may deliver cleanly on attempt 2,
/// exactly the behaviour bounded retry exploits. Quarantined chunks are
/// remembered here so independent scans sharing the disk all fail fast
/// on them.
#[derive(Debug)]
pub struct FaultyDisk {
    /// The wrapped bandwidth model.
    pub disk: Disk,
    /// The fault probabilities and seed.
    pub plan: FaultPlan,
    quarantined: HashSet<ChunkId>,
}

impl FaultyDisk {
    /// Wraps `disk` with the given fault plan.
    pub fn new(disk: Disk, plan: FaultPlan) -> Self {
        Self { disk, plan, quarantined: HashSet::new() }
    }

    /// Uniform draw in `[0, 1)` for one fault decision.
    fn draw(&self, id: ChunkId, attempt: u32, salt: u64) -> f64 {
        let chunk = ((id.0 as u64) << 42) ^ ((id.1 as u64) << 21) ^ id.2 as u64;
        let h = mix(self.plan.seed ^ mix(chunk) ^ mix((attempt as u64) << 8 | salt));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Raw 64-bit draw (for picking which bit / where to cut).
    fn draw_u64(&self, id: ChunkId, attempt: u32, salt: u64) -> u64 {
        let chunk = ((id.0 as u64) << 42) ^ ((id.1 as u64) << 21) ^ id.2 as u64;
        mix(self.plan.seed ^ mix(chunk) ^ mix((attempt as u64) << 8 | salt))
    }

    /// Chunks currently quarantined.
    pub fn quarantined_chunks(&self) -> usize {
        self.quarantined.len()
    }
}

impl DiskRead for FaultyDisk {
    fn read_seconds(&self, bytes: u64) -> f64 {
        self.disk.read_seconds(bytes)
    }

    fn read_chunk(&mut self, id: ChunkId, attempt: u32, payload: Option<&[u8]>) -> ReadOutcome {
        if self.draw(id, attempt, 1) < self.plan.transient_fail {
            return ReadOutcome::Failed;
        }
        if let Some(bytes) = payload {
            if !bytes.is_empty() && self.draw(id, attempt, 2) < self.plan.bit_flip {
                let mut damaged = bytes.to_vec();
                let bit = self.draw_u64(id, attempt, 3) % (damaged.len() as u64 * 8);
                damaged[(bit / 8) as usize] ^= 1 << (bit % 8);
                return ReadOutcome::Corrupted(damaged);
            }
            if !bytes.is_empty() && self.draw(id, attempt, 4) < self.plan.truncate {
                let cut = (self.draw_u64(id, attempt, 5) % bytes.len() as u64) as usize;
                return ReadOutcome::Corrupted(bytes[..cut].to_vec());
            }
        }
        ReadOutcome::Clean
    }

    fn quarantine(&mut self, id: ChunkId) {
        self.quarantined.insert(id);
    }

    fn is_quarantined(&self, id: ChunkId) -> bool {
        self.quarantined.contains(&id)
    }
}

/// Bounded retry for chunk reads that fail or arrive corrupt.
///
/// Every attempt is charged full chunk I/O; attempts after the first
/// additionally charge a doubling backoff (`backoff_seconds`,
/// `2*backoff_seconds`, ...) to the scan's modeled `io_seconds`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per chunk read, including the first (>= 1).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per further retry.
    pub backoff_seconds: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 3, backoff_seconds: 0.001 }
    }
}

impl RetryPolicy {
    /// Modeled backoff charged before retry attempt `attempt` (2-based:
    /// the first read carries no backoff).
    pub fn backoff_before(&self, attempt: u32) -> f64 {
        if attempt < 2 {
            0.0
        } else {
            self.backoff_seconds * (1u64 << (attempt - 2).min(62)) as f64
        }
    }
}

/// A point-in-time copy of a scan ledger: plain values for readers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanSnapshot {
    /// Bytes charged against the disk (buffer-pool misses only).
    pub io_bytes: u64,
    /// Modeled I/O nanoseconds for those bytes.
    pub io_ns: u64,
    /// Measured wall nanoseconds spent inside decompression kernels.
    pub decompress_ns: u64,
    /// Bytes of decompressed data handed to the query engine.
    pub output_bytes: u64,
    /// RAM traffic in bytes: compressed reads plus, in page-wise mode,
    /// the full decompressed page written back and re-read (the Figure 7
    /// effect).
    pub ram_traffic_bytes: u64,
    /// Buffer-pool hits.
    pub pool_hits: u64,
    /// Buffer-pool misses.
    pub pool_misses: u64,
    /// Re-read attempts beyond the first, across all chunks.
    pub retries: u64,
    /// Deliveries rejected by wire-format checksum verification.
    pub checksum_failures: u64,
    /// Chunks quarantined after exhausting the retry budget corrupt.
    pub quarantined_chunks: u64,
}

impl ScanSnapshot {
    /// Modeled I/O seconds.
    pub fn io_seconds(&self) -> f64 {
        self.io_ns as f64 / 1e9
    }

    /// Measured decompression seconds.
    pub fn decompress_seconds(&self) -> f64 {
        self.decompress_ns as f64 / 1e9
    }

    /// I/O stall seconds given measured CPU seconds, under prefetching.
    pub fn stall_seconds(&self, cpu_seconds: f64) -> f64 {
        (self.io_seconds() - cpu_seconds).max(0.0)
    }

    /// Effective decompression bandwidth in bytes/s of output.
    pub fn decompression_bandwidth(&self) -> f64 {
        if self.decompress_ns == 0 {
            f64::INFINITY
        } else {
            self.output_bytes as f64 / self.decompress_seconds()
        }
    }
}

impl std::fmt::Display for ScanSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        const MIB: f64 = 1024.0 * 1024.0;
        write!(
            f,
            "io {:.2} MiB / {:.4}s, decompress {:.4}s, output {:.2} MiB, \
             ram {:.2} MiB, pool {}/{} hit/miss",
            self.io_bytes as f64 / MIB,
            self.io_seconds(),
            self.decompress_seconds(),
            self.output_bytes as f64 / MIB,
            self.ram_traffic_bytes as f64 / MIB,
            self.pool_hits,
            self.pool_misses,
        )?;
        if self.retries + self.checksum_failures + self.quarantined_chunks > 0 {
            write!(
                f,
                ", retries {}, checksum failures {}, quarantined {}",
                self.retries, self.checksum_failures, self.quarantined_chunks
            )?;
        }
        Ok(())
    }
}

/// The scan ledger: every accounting event of a scan is booked here
/// exactly once, by whichever thread does the work — the serial scan or
/// a parallel worker, decoding or entering a segment. Relaxed atomics suffice: each cell is an
/// independent statistic that publishes no other data. The `charge_*`
/// methods are also the only writers of the `storage.scan.*` registry
/// counters.
#[derive(Debug, Default)]
pub struct ScanStats {
    io_bytes: AtomicU64,
    io_ns: AtomicU64,
    decompress_ns: AtomicU64,
    output_bytes: AtomicU64,
    ram_traffic_bytes: AtomicU64,
    pool_hits: AtomicU64,
    pool_misses: AtomicU64,
    retries: AtomicU64,
    checksum_failures: AtomicU64,
    quarantined_chunks: AtomicU64,
}

/// Books `$n` into a ledger cell and its `storage.scan.*` counter.
macro_rules! book {
    ($cell:expr, $counter:literal, $n:expr) => {{
        let n: u64 = $n;
        $cell.fetch_add(n, Relaxed);
        scc_obs::counter_add!($counter, n);
    }};
}

impl ScanStats {
    /// Chunk bytes streamed through RAM (or a page written and re-read).
    pub fn charge_ram_traffic(&self, bytes: u64) {
        book!(self.ram_traffic_bytes, "storage.scan.ram_traffic_bytes", bytes);
    }

    /// One chunk access answered by the buffer pool (`hit`) or not. The
    /// pool books its own `storage.pool.*` counters.
    pub fn charge_pool_access(&self, hit: bool) {
        let cell = if hit { &self.pool_hits } else { &self.pool_misses };
        cell.fetch_add(1, Relaxed);
    }

    /// One read attempt of `bytes` costing `seconds` of modeled I/O.
    pub fn charge_io(&self, bytes: u64, seconds: f64) {
        book!(self.io_bytes, "storage.scan.io_bytes", bytes);
        book!(self.io_ns, "storage.scan.io_ns", (seconds * 1e9) as u64);
    }

    /// One re-read attempt beyond a chunk's first.
    pub fn charge_retry(&self) {
        book!(self.retries, "storage.scan.retries", 1);
    }

    /// One delivery rejected by its wire checksums.
    pub fn charge_checksum_failure(&self) {
        book!(self.checksum_failures, "storage.scan.checksum_failures", 1);
    }

    /// One chunk quarantined after exhausting its retry budget.
    pub fn charge_quarantine(&self) {
        book!(self.quarantined_chunks, "storage.scan.quarantined_chunks", 1);
    }

    /// Wall time spent inside a decompression kernel.
    pub fn charge_decompress(&self, elapsed: Duration) {
        book!(self.decompress_ns, "storage.scan.decompress_ns", elapsed.as_nanos() as u64);
    }

    /// Bytes delivered into output vectors.
    pub fn charge_output(&self, bytes: u64) {
        book!(self.output_bytes, "storage.scan.output_bytes", bytes);
    }

    fn read(&self, cell: impl Fn(&AtomicU64) -> u64) -> ScanSnapshot {
        ScanSnapshot {
            io_bytes: cell(&self.io_bytes),
            io_ns: cell(&self.io_ns),
            decompress_ns: cell(&self.decompress_ns),
            output_bytes: cell(&self.output_bytes),
            ram_traffic_bytes: cell(&self.ram_traffic_bytes),
            pool_hits: cell(&self.pool_hits),
            pool_misses: cell(&self.pool_misses),
            retries: cell(&self.retries),
            checksum_failures: cell(&self.checksum_failures),
            quarantined_chunks: cell(&self.quarantined_chunks),
        }
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> ScanSnapshot {
        self.read(|c| c.load(Relaxed))
    }

    /// Takes the accumulated counters, leaving zeros behind. Benches
    /// that reuse one [`StatsHandle`] across timed runs call this at the
    /// end of each run so every run observes a true per-run delta
    /// instead of a running total.
    pub fn take(&self) -> ScanSnapshot {
        self.read(|c| c.swap(0, Relaxed))
    }
}

/// Shared handle to a fault-injecting disk. `Send` is part of the
/// trait-object type so scans holding the handle can move to worker
/// threads; the mutex keeps the quarantine set and fault draws
/// consistent across concurrent scans of the same disk.
pub type DiskHandle = std::sync::Arc<Mutex<dyn DiskRead + Send>>;

/// Shared handle to a scan ledger; cloned into every worker that does
/// work on the scan's behalf.
pub type StatsHandle = Arc<ScanStats>;

/// Creates a fresh stats handle.
pub fn stats_handle() -> StatsHandle {
    Arc::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_time_scales_with_bandwidth() {
        let slow = Disk::low_end();
        let fast = Disk::middle_end();
        let bytes = 800 * 1024 * 1024;
        assert!(slow.read_seconds(bytes) > 4.0 * fast.read_seconds(bytes));
    }

    #[test]
    fn stall_is_clamped_at_zero() {
        let stats = ScanSnapshot { io_ns: 1_000_000_000, ..Default::default() };
        assert_eq!(stats.stall_seconds(2.0), 0.0);
        assert_eq!(stats.stall_seconds(0.25), 0.75);
    }

    #[test]
    fn decompression_bandwidth_handles_zero_time() {
        let stats = ScanSnapshot::default();
        assert!(stats.decompression_bandwidth().is_infinite());
    }

    #[test]
    fn clean_disk_always_delivers_clean() {
        let mut disk = Disk::low_end();
        for seg in 0..100 {
            assert_eq!(disk.read_chunk((1, 2, seg), 1, Some(&[1, 2, 3])), ReadOutcome::Clean);
        }
        assert!(!DiskRead::is_quarantined(&disk, (1, 2, 3)));
    }

    #[test]
    fn faulty_disk_is_deterministic_per_seed() {
        let plan = FaultPlan { seed: 42, bit_flip: 0.3, truncate: 0.2, transient_fail: 0.2 };
        let payload = vec![7u8; 256];
        let run = || {
            let mut d = FaultyDisk::new(Disk::low_end(), plan);
            (0..200u32)
                .map(|seg| d.read_chunk((1, 1, seg), 1 + seg % 3, Some(&payload)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
        // A different seed produces a different fault sequence.
        let mut other = FaultyDisk::new(Disk::low_end(), FaultPlan { seed: 43, ..plan });
        let a = run();
        let b: Vec<_> = (0..200u32)
            .map(|seg| other.read_chunk((1, 1, seg), 1 + seg % 3, Some(&payload)))
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn faulty_disk_damages_exactly_one_bit_on_flip() {
        let plan = FaultPlan { seed: 7, bit_flip: 1.0, truncate: 0.0, transient_fail: 0.0 };
        let mut d = FaultyDisk::new(Disk::low_end(), plan);
        let payload = vec![0u8; 64];
        match d.read_chunk((0, 0, 0), 1, Some(&payload)) {
            ReadOutcome::Corrupted(bytes) => {
                assert_eq!(bytes.len(), payload.len());
                let flipped: u32 = bytes.iter().map(|b| b.count_ones()).sum();
                assert_eq!(flipped, 1, "exactly one bit flipped");
            }
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn faulty_disk_never_corrupts_checksumless_payloads() {
        let plan = FaultPlan { seed: 9, bit_flip: 1.0, truncate: 1.0, transient_fail: 0.0 };
        let mut d = FaultyDisk::new(Disk::low_end(), plan);
        assert_eq!(d.read_chunk((0, 0, 0), 1, None), ReadOutcome::Clean);
    }

    #[test]
    fn quarantine_is_remembered() {
        let mut d = FaultyDisk::new(Disk::low_end(), FaultPlan::none(0));
        assert!(!d.is_quarantined((1, 2, 3)));
        d.quarantine((1, 2, 3));
        assert!(d.is_quarantined((1, 2, 3)));
        assert_eq!(d.quarantined_chunks(), 1);
    }

    /// Charges every event once per unit of `scale`.
    fn charge_all(ledger: &ScanStats, scale: u64) {
        for _ in 0..scale {
            ledger.charge_ram_traffic(150);
            ledger.charge_pool_access(true);
            ledger.charge_pool_access(false);
            ledger.charge_io(100, 0.5);
            ledger.charge_retry();
            ledger.charge_checksum_failure();
            ledger.charge_quarantine();
            ledger.charge_decompress(Duration::from_millis(250));
            ledger.charge_output(400);
        }
    }

    fn sample_snapshot(scale: u64) -> ScanSnapshot {
        ScanSnapshot {
            io_bytes: 100 * scale,
            io_ns: 500_000_000 * scale,
            decompress_ns: 250_000_000 * scale,
            output_bytes: 400 * scale,
            ram_traffic_bytes: 150 * scale,
            pool_hits: scale,
            pool_misses: scale,
            retries: scale,
            checksum_failures: scale,
            quarantined_chunks: scale,
        }
    }

    #[test]
    fn every_charge_lands_in_its_own_cell() {
        let handle = stats_handle();
        charge_all(&handle, 2);
        assert_eq!(handle.snapshot(), sample_snapshot(2));
        // A snapshot does not disturb the accumulation.
        assert_eq!(handle.snapshot(), sample_snapshot(2));
    }

    #[test]
    fn take_resets_and_returns_delta() {
        let handle = stats_handle();
        charge_all(&handle, 2);
        assert_eq!(handle.take(), sample_snapshot(2));
        assert_eq!(handle.snapshot(), ScanSnapshot::default());
        // A second take observes only what accumulated since.
        handle.charge_io(7, 0.0);
        assert_eq!(handle.take().io_bytes, 7);
    }

    #[test]
    fn one_ledger_sums_charges_from_many_threads() {
        let handle = stats_handle();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| charge_all(&handle, 250));
            }
        });
        assert_eq!(handle.snapshot(), sample_snapshot(1000));
    }

    #[test]
    fn display_is_compact_and_gates_fault_counters() {
        let clean =
            ScanSnapshot { io_bytes: 1024 * 1024, io_ns: 500_000_000, ..Default::default() };
        let text = format!("{clean}");
        assert!(text.contains("io 1.00 MiB / 0.5000s"), "{text}");
        assert!(!text.contains("retries"), "{text}");
        let faulted = ScanSnapshot { retries: 2, checksum_failures: 1, ..Default::default() };
        let text = format!("{faulted}");
        assert!(text.contains("retries 2, checksum failures 1, quarantined 0"), "{text}");
    }

    #[test]
    fn backoff_doubles_per_retry() {
        let p = RetryPolicy { max_attempts: 4, backoff_seconds: 0.5 };
        assert_eq!(p.backoff_before(1), 0.0);
        assert_eq!(p.backoff_before(2), 0.5);
        assert_eq!(p.backoff_before(3), 1.0);
        assert_eq!(p.backoff_before(4), 2.0);
    }
}
