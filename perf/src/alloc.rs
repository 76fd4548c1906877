//! A counting global allocator for the traced run.
//!
//! Forwards every call to [`System`]. While the static flag is off —
//! always, in timed runs — the only added cost is one relaxed load per
//! call and every counter stays zero. While it is on, calls, live bytes
//! and peak live bytes are counted for the whole process, so the server's
//! connection threads and the runtime's executor workers are included.
//!
//! Counting must not itself slow a multi-threaded build by a tenth (the
//! traced run reports its own overhead), so the hot counters are sharded:
//! each thread adds to the shard its stack address hashes to, on its own
//! cache line, and only moves its net bytes into the shared live/peak pair
//! once they exceed [`FLUSH_BYTES`]. Calls are exact; the peak is exact to
//! within `SHARDS × FLUSH_BYTES` (64 KiB), and to
//! within `FLUSH_BYTES` for single-threaded code such as the probes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// The allocator installed by `main.rs`.
pub struct Counting;

const SHARDS: usize = 16;
const FLUSH_BYTES: i64 = 4 << 10;

#[repr(align(128))]
struct Shard {
    calls: AtomicU64,
    /// Net bytes allocated minus freed, not yet moved into `LIVE`.
    pending: AtomicI64,
}

#[allow(clippy::declare_interior_mutable_const)] // array-repeat initialiser
const EMPTY: Shard = Shard {
    calls: AtomicU64::new(0),
    pending: AtomicI64::new(0),
};

// Statistics only: none of these publishes other data, so `Relaxed`
// suffices throughout.
static ENABLED: AtomicBool = AtomicBool::new(false);
static SHARD: [Shard; SHARDS] = [EMPTY; SHARDS];
/// Live bytes relative to the start of counting; negative while memory
/// allocated before the start is being freed.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// The calling thread's shard: threads' stacks are megabytes apart, so
/// the address of a local, shifted down, spreads them without any
/// thread-local storage (which a global allocator must not touch).
fn shard() -> &'static Shard {
    let marker = 0u8;
    &SHARD[((&marker as *const u8 as usize) >> 16) % SHARDS]
}

fn flush(shard: &Shard) {
    let moved = shard.pending.swap(0, Ordering::Relaxed);
    let live = LIVE.fetch_add(moved, Ordering::Relaxed) + moved;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn on_change(calls: u64, bytes: i64) {
    let shard = shard();
    if calls > 0 {
        shard.calls.fetch_add(calls, Ordering::Relaxed);
    }
    let pending = shard.pending.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if pending.abs() >= FLUSH_BYTES {
        flush(shard);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory
// being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            on_change(1, layout.size() as i64);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            on_change(1, layout.size() as i64);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Ordering::Relaxed) {
            on_change(0, -(layout.size() as i64));
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            on_change(1, new_size as i64 - layout.size() as i64);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// What was counted between [`start`] and [`stop`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counted {
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    pub calls: u64,
    /// Highest live byte count reached, relative to the start (memory
    /// already live when counting began is not included).
    pub peak_bytes: u64,
}

fn reset() {
    for shard in &SHARD {
        shard.calls.store(0, Ordering::Relaxed);
        shard.pending.store(0, Ordering::Relaxed);
    }
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
}

fn calls() -> u64 {
    SHARD.iter().map(|s| s.calls.load(Ordering::Relaxed)).sum()
}

/// Zeroes the counters and turns counting on.
pub fn start() {
    reset();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns counting off and returns what was counted since [`start`].
pub fn stop() -> Counted {
    ENABLED.store(false, Ordering::Relaxed);
    SHARD.iter().for_each(flush);
    Counted {
        calls: calls(),
        peak_bytes: PEAK.load(Ordering::Relaxed).max(0) as u64,
    }
}

/// Counts around `f` when `enabled`, otherwise just runs it.
pub fn counted<R>(enabled: bool, f: impl FnOnce() -> R) -> (R, Counted) {
    if !enabled {
        return (f(), Counted::default());
    }
    start();
    let r = f();
    (r, stop())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The counters are process-wide and `cargo test` runs tests on
    // parallel threads: the two tests below serialise on this lock, and
    // no other test in the crate turns counting on.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn off_means_every_counter_stays_zero() {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        // Holding the lock means no test has counting on right now.
        reset();
        let v: Vec<u64> = (0..4096).collect();
        std::hint::black_box(&v);
        drop(v);
        assert_eq!(calls(), 0);
        assert!(SHARD.iter().all(|s| s.pending.load(Ordering::Relaxed) == 0));
        assert_eq!(LIVE.load(Ordering::Relaxed), 0);
        assert_eq!(PEAK.load(Ordering::Relaxed), 0);
        let (_, c) = counted(false, || vec![0u8; 1 << 16]);
        assert_eq!(c, Counted::default());
    }

    #[test]
    fn on_counts_calls_and_peak() {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let (v, c) = counted(true, || {
            let big = vec![1u8; 1 << 20];
            std::hint::black_box(&big);
            drop(big);
            vec![2u8; 1 << 10]
        });
        std::hint::black_box(&v);
        // Other test threads allocate concurrently, so the call count is a
        // lower bound; they also free what they allocated before counting
        // began, which pulls the live total (and so the peak) a little
        // under what this thread alone holds.
        assert!(c.calls >= 2, "calls {}", c.calls);
        assert!(
            c.peak_bytes >= (1 << 20) - (64 << 10),
            "peak {}",
            c.peak_bytes
        );
    }
}
