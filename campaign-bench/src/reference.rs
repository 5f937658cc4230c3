//! Host speed, read from a fixed reference kernel while campaigns run.
//!
//! The benchmark host is a shared VM whose cores switch between a fast and
//! a slow state (the simulator runs about 1.6× slower in the slow one), in
//! episodes from under a second to over a minute, as other guests load
//! the physical cores. Repeating a campaign does not average that out: a
//! run that falls in a long slow episode is slow in every repetition. So a
//! sampler thread times a small kernel at a fixed interval while each
//! campaign runs, and the campaign's times are scaled by how slow the
//! kernel ran. The kernel is the benchmark's own code and calls nothing in
//! the program, so no change to the program can move it.
//!
//! Not every kernel slows like the simulator. Timed alternately with 7 ms
//! simulator runs (Quarc, n = 16, M = 16) for 100 s on the benchmark host,
//! the slow state stretched random read-modify-writes over a 16–32 KiB
//! table by 1.04–1.05×, sorting 2–4 K integers by 1.32–1.36×, `HashMap`
//! updates by 1.33–1.39× and one multiply-rotate chain with a small table
//! by 1.40–1.42×, while the simulator slowed by 1.59–1.67×. Two such chains
//! interleaved, the kernel below, slowed by 1.62×.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Entries in each chain's table (1 KiB each, L1-resident).
const TABLE_LEN: usize = 128;

/// Kernel steps per timed sample (about 1 ms on the benchmark host).
const STEPS: u32 = 330_000;

/// Samples per reading. The reading is the fastest of them, so a sample
/// that was preempted or interrupted does not move it; the host's state
/// lasts far longer than a reading.
const SAMPLES: usize = 3;

/// Pause between the sampler's readings.
const INTERVAL: Duration = Duration::from_millis(100);

/// One reading on a quiet core of the benchmark host (a 2-vCPU Intel Xeon
/// VM), seconds. Scaled times are seconds at this speed.
pub const QUIET_SECONDS: f64 = 0.00105;

/// One chain of the kernel: a multiplicative congruential step feeding a
/// shift-rotate mix, a store into the table and a dependent load from it.
#[derive(Clone, Copy)]
struct Chain {
    a: u64,
    b: u64,
    c: u64,
    d: u64,
    table: [u64; TABLE_LEN],
}

impl Chain {
    fn new(seed: u64) -> Chain {
        Chain { a: seed, b: seed + 1, c: seed + 2, d: seed + 3, table: [0; TABLE_LEN] }
    }

    #[inline(always)]
    fn step(&mut self, i: u32) {
        self.a =
            self.a.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        self.b ^= self.a >> 29;
        self.c = self.c.rotate_left(7).wrapping_add(self.b);
        let k = (self.c as usize) & (TABLE_LEN - 1);
        self.table[k] = self.table[k].wrapping_add(self.d);
        self.d ^= self.table[(self.a as usize) & (TABLE_LEN - 1)];
        if i & 7 == 0 {
            self.d = self.d.wrapping_add(self.c);
        }
    }
}

/// The reference kernel: two independent chains, stepped in turn.
pub struct Reference {
    chains: [Chain; 2],
}

impl Reference {
    pub fn new() -> Reference {
        Reference { chains: [Chain::new(1), Chain::new(5)] }
    }

    /// One timed kernel sample.
    fn sample(&mut self) -> f64 {
        let t = Instant::now();
        let [x, y] = &mut self.chains;
        for i in 0..STEPS {
            x.step(i);
            y.step(i);
        }
        black_box(&mut self.chains);
        t.elapsed().as_secs_f64()
    }

    /// One reading: the fastest of `SAMPLES` samples, seconds.
    pub fn read(&mut self) -> f64 {
        (0..SAMPLES).map(|_| self.sample()).fold(f64::INFINITY, f64::min)
    }
}

/// How much slower than quiet the host ran over a set of readings: their
/// mean over `QUIET_SECONDS`.
pub fn slowdown(readings: &[f64]) -> f64 {
    readings.iter().sum::<f64>() / readings.len() as f64 / QUIET_SECONDS
}

/// A thread taking a reading every `INTERVAL` until stopped.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<f64>>,
}

impl Sampler {
    /// Start sampling; the first reading is taken at once.
    pub fn start() -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut kernel = Reference::new();
            let mut readings = Vec::new();
            loop {
                readings.push(kernel.read());
                std::thread::park_timeout(INTERVAL);
                if flag.load(Ordering::Relaxed) {
                    return readings;
                }
            }
        });
        Sampler { stop, thread }
    }

    /// Stop sampling and return every reading (at least the one taken at
    /// the start). No reading is taken after the campaign has ended.
    pub fn finish(self) -> Vec<f64> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.thread().unpark();
        self.thread.join().expect("the sampler thread panicked")
    }
}
