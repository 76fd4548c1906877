//! The host-speed yardstick: a fixed kernel of the harness's own, timed
//! between the operations of a timed run, by which the run's timings are
//! scaled towards a reference host speed.
//!
//! The sandbox is a small VM on a shared host. With nothing else running
//! in the VM and steal time under 0.2 %, one and the same 2-thread
//! `dgreedy_abs` build read 680-720 ms for minutes on end, then 900-1050 ms
//! for three minutes, then 700 again; ten-run medians of `build-greedy`
//! taken an hour apart read 790 and 963 ms, and of `serve-point`'s round
//! trip 43 and 60 us. A dependent multiply chain timed beside the builds
//! did not move at all, a sort or a tree walk did: neighbours on the host's
//! cores slow whatever keeps a core's execution units and caches busy.
//! Such a phase outlasts whole runs, so no statistic *within* a run sees
//! through it; the acceptance driver's first check of this benchmark found
//! `build-greedy` spread 25 % between identical runs.
//!
//! The yardstick is read throughout a timed run, beside the operations it
//! times, and shares their fate. A run reports its times multiplied, and
//! its rates divided, by
//!
//! ```text
//! (NOMINAL_MS / lower quartile of the run's yardstick readings) ^ DAMPING
//! ```
//!
//! the readings taken at the same favourable quartile as the operations
//! (see [`crate::stats::quartile_low`]). The kernel is the benchmark's,
//! not the product's, and is frozen here: a change to the product moves
//! the measured time only. What it costs is the yardstick's own noise and
//! that it follows each workload's sensitivity to the host only roughly
//! (see [`DAMPING`]). Every run prints the host speed it saw, and the
//! traced run reports it as `bench.host_speed`, so host seconds can be had
//! back; per-layer metrics are never scaled.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::stats;

/// What one reading takes on the reference sandbox in its fast state, at
/// the lower quartile. Only a scale: it puts the host speed at about 1
/// there, so scaled times read like wall times of the fast state.
pub const NOMINAL_MS: f64 = 88.0;

/// How much of the yardstick's deviation from [`NOMINAL_MS`] a run's
/// timings are corrected by, as an exponent. The kernel keeps two cores'
/// execution units busier than the product does and feels the host's
/// neighbours about twice as much: over 108 runs of the six workloads in a
/// calm and a loud phase of the host, `ln(operation time)` regressed on
/// `ln(yardstick)` with slopes between 0.1 and 0.9, 0.45 in the middle.
/// Correcting in full overcorrects the memory-bound workloads; half is
/// the compromise that helped or was neutral on every workload.
pub const DAMPING: f64 = 0.5;

/// Readings are at least this far apart, however often [`Yardstick::read`]
/// is called: a run of many short operations is not to spend itself on
/// the yardstick.
const MIN_GAP: Duration = Duration::from_millis(400);

const SORT_KEYS: usize = 1 << 18;
const SORT_PASSES: usize = 4;
const HAAR_LEN: usize = 1 << 16;
const HAAR_ROUNDS: usize = 40;
const MAP_INSERTS: usize = 100_000;
const ALU_STEPS: u64 = 12_000_000;

/// One thread's buffers, allocated once so that a reading allocates
/// nothing but the map's nodes.
struct Scratch {
    keys: Vec<u64>,
    vals: Vec<f64>,
    tmp: Vec<f64>,
}

impl Scratch {
    fn new() -> Self {
        Scratch {
            keys: vec![0; SORT_KEYS],
            vals: vec![0.0; HAAR_LEN],
            tmp: vec![0.0; HAAR_LEN],
        }
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The kernel: a quarter each of what the product's hot loops are made
/// of — comparison sorting, a Haar-style float transform, an ordered map
/// under random inserts, and independent integer chains. Same work on
/// every call.
fn kernel(s: &mut Scratch, seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut acc = 0u64;
    for _ in 0..SORT_PASSES {
        for k in s.keys.iter_mut() {
            *k = xorshift(&mut x);
        }
        s.keys.sort_unstable();
        acc ^= s.keys[SORT_KEYS / 2];
    }

    for v in s.vals.iter_mut() {
        *v = (xorshift(&mut x) >> 40) as f64;
    }
    for _ in 0..HAAR_ROUNDS {
        let mut n = HAAR_LEN;
        while n > 1 {
            let h = n / 2;
            for i in 0..h {
                let (a, b) = (s.vals[2 * i], s.vals[2 * i + 1]);
                s.tmp[i] = (a + b) * 0.5;
                s.tmp[h + i] = (a - b) * 0.5;
            }
            s.vals[..n].copy_from_slice(&s.tmp[..n]);
            n = h;
        }
        acc ^= s.vals[1].to_bits();
        for (i, v) in s.vals.iter_mut().enumerate() {
            *v = (*v * 1.0001 + i as f64).abs() % 4096.0;
        }
    }

    let mut map = BTreeMap::new();
    for _ in 0..MAP_INSERTS {
        *map.entry(xorshift(&mut x) >> 44).or_insert(0u64) += 1;
    }
    for (k, v) in &map {
        acc = acc.wrapping_add(k ^ v);
    }

    let (mut a, mut b, mut c, mut d) = (x, x ^ 3, x ^ 5, x ^ 7);
    for i in 0..ALU_STEPS {
        a = a.wrapping_mul(6364136223846793005).wrapping_add(i);
        b = (b ^ (b >> 7)).wrapping_add(a);
        c = c.rotate_left(13) ^ i;
        d = d.wrapping_add(c & 0xff);
    }
    acc ^ a ^ b ^ c ^ d
}

/// One kernel thread. It lives as long as the yardstick, parked between
/// readings: a thread spawned per reading would take one of the
/// allocator's per-thread arenas each time and hand it back in another
/// order, so that a build's executor threads find their predecessors'
/// freed memory or do not, and `peak_rss_mb` moved by a quarter between
/// identical runs.
struct Worker {
    go: Sender<()>,
    done: Receiver<()>,
    thread: JoinHandle<()>,
}

impl Worker {
    fn spawn(index: usize) -> Worker {
        let (go, start) = channel::<()>();
        let (finished, done) = channel::<()>();
        let thread = std::thread::spawn(move || {
            let mut scratch = Scratch::new();
            while start.recv().is_ok() {
                black_box(kernel(&mut scratch, index as u64 + 7));
                if finished.send(()).is_err() {
                    break;
                }
            }
        });
        Worker { go, done, thread }
    }
}

/// The yardstick of one run.
pub struct Yardstick {
    workers: Vec<Worker>,
    last: Option<Instant>,
    readings_ms: Vec<f64>,
}

impl Yardstick {
    /// A yardstick that loads `threads` cores at once, as the operations
    /// it is read beside do.
    pub fn new(threads: usize) -> Self {
        Yardstick {
            workers: (0..threads).map(Worker::spawn).collect(),
            last: None,
            readings_ms: Vec::new(),
        }
    }

    /// A yardstick that is never read and whose scale is 1 (traced runs:
    /// per-layer metrics stay in host seconds).
    pub fn off() -> Self {
        Yardstick::new(0)
    }

    /// Takes a reading — the kernel on every thread at once, timed until
    /// the last is done — unless the previous one ended less than
    /// [`MIN_GAP`] ago.
    pub fn read(&mut self) {
        if self.workers.is_empty() || self.last.is_some_and(|at| at.elapsed() < MIN_GAP) {
            return;
        }
        let start = Instant::now();
        for w in &self.workers {
            w.go.send(()).expect("yardstick thread");
        }
        for w in &self.workers {
            w.done.recv().expect("yardstick thread");
        }
        let end = Instant::now();
        self.readings_ms.push((end - start).as_secs_f64() * 1e3);
        self.last = Some(end);
    }

    /// The lower quartile of the readings, ms (0 with none).
    fn quartile_ms(&self) -> f64 {
        stats::quartile_low(&stats::sorted(self.readings_ms.clone()))
    }

    /// The host's speed over this run as a share of the reference's:
    /// [`NOMINAL_MS`] ÷ the readings' lower quartile; 1 with no readings.
    pub fn host_speed(&self) -> f64 {
        match self.quartile_ms() {
            q if q > 0.0 => NOMINAL_MS / q,
            _ => 1.0,
        }
    }

    /// By what to multiply a time measured in this run, and divide a rate,
    /// to state it at the reference host speed: `host_speed ^ DAMPING`.
    pub fn time_scale(&self) -> f64 {
        self.host_speed().powf(DAMPING)
    }
}

impl Drop for Yardstick {
    fn drop(&mut self) {
        for w in self.workers.drain(..) {
            // A closed channel ends the thread's loop.
            drop(w.go);
            let _ = w.thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        let (mut a, mut b) = (Scratch::new(), Scratch::new());
        assert_eq!(kernel(&mut a, 7), kernel(&mut b, 7));
        // Scratch left over from an earlier call changes nothing.
        assert_eq!(kernel(&mut a, 7), kernel(&mut b, 7));
    }

    #[test]
    fn off_reads_nothing_and_scales_by_one() {
        let mut y = Yardstick::off();
        y.read();
        assert!(y.readings_ms.is_empty());
        assert_eq!(y.host_speed(), 1.0);
        assert_eq!(y.time_scale(), 1.0);
    }

    #[test]
    fn readings_keep_their_distance_and_set_the_factor() {
        let mut y = Yardstick::new(1);
        y.read();
        y.read();
        assert_eq!(y.readings_ms.len(), 1, "second call came inside MIN_GAP");
        let q = y.quartile_ms();
        assert!(q > 0.0);
        assert!((y.host_speed() - NOMINAL_MS / q).abs() < 1e-12);
        assert!((y.time_scale() - y.host_speed().sqrt()).abs() < 1e-12);
    }
}
