//! The reference kernel: a fixed quantum of self-contained work whose
//! wall time tracks the host's current speed, so the benchmark's wall
//! metrics can be rescaled to a pinned nominal speed.
//!
//! It is a binary-heap discrete-event loop over 64k nodes with a working
//! set of about 5 MiB — the same shape of work as the simulator (heap
//! pops, scattered state updates), so it slows down in the same host
//! phases. It uses `std` only and calls no crate of the repository, so no
//! change to the measured program can change it. Each event pops one
//! entry and pushes one, so the heap never grows: the timed part
//! allocates nothing (checked by `quantum`).
//!
//! Changing anything here — sizes, the loop, [`NOMINAL_NS_PER_EVENT`] —
//! changes every normalised number and needs a fresh baseline.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

const NODES: usize = 1 << 16;
/// Events in one timed quantum.
pub const QUANTUM_EVENTS: u64 = 50_000;
/// Untimed events run before each quantum to re-warm caches the measured
/// program evicted.
const WARMUP_EVENTS: u64 = 20_000;
/// Nominal cost of one reference event, ns. Normalised times are wall
/// times rescaled to a host on which the kernel runs at exactly this
/// speed. Pinned near the median measured over the steadiness runs on a
/// 2-vCPU Intel Xeon VM (rustc 1.95, release profile), where a quantum
/// took 10–13 ms.
pub const NOMINAL_NS_PER_EVENT: f64 = 250.0;

pub struct RefKernel {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    state: Vec<[u64; 8]>,
    /// Quanta timed so far and their total wall seconds.
    quanta: u64,
    total_s: f64,
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl RefKernel {
    pub fn new() -> Self {
        let mut heap = BinaryHeap::with_capacity(NODES);
        for n in 0..NODES as u64 {
            heap.push(Reverse((mix(n) % 4096, n as u32)));
        }
        let state = (0..NODES as u64).map(|n| [mix(n); 8]).collect();
        RefKernel {
            heap,
            state,
            quanta: 0,
            total_s: 0.0,
        }
    }

    fn run(&mut self, events: u64) -> u64 {
        let mut sum = 0u64;
        for _ in 0..events {
            let Reverse((t, n)) = self.heap.pop().expect("the heap always holds NODES events");
            let s = &mut self.state[n as usize];
            let x = mix(s[0] ^ t);
            s[0] = x;
            s[(x & 7) as usize] = s[(x & 7) as usize].wrapping_add(1);
            let m = ((x >> 16) as usize) & (NODES - 1);
            self.state[m][1] ^= x;
            sum = sum.wrapping_add(x);
            self.heap.push(Reverse((t + 1 + (x >> 52), m as u32)));
        }
        sum
    }

    /// Run one warm-up pass and one timed quantum; returns the quantum's
    /// wall time in seconds.
    pub fn quantum(&mut self) -> f64 {
        black_box(self.run(WARMUP_EVENTS));
        let before = crate::alloc::counts();
        let t0 = Instant::now();
        black_box(self.run(black_box(QUANTUM_EVENTS)));
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(
            crate::alloc::counts(),
            before,
            "the reference kernel allocated inside its timed quantum"
        );
        self.quanta += 1;
        self.total_s += secs;
        secs
    }

    /// Mean measured cost of one reference event over every quantum run.
    pub fn measured_ns_per_event(&self) -> f64 {
        self.total_s * 1e9 / (self.quanta.max(1) * QUANTUM_EVENTS) as f64
    }
}

/// Nominal wall time of one quantum, seconds.
pub fn nominal_quantum_s() -> f64 {
    NOMINAL_NS_PER_EVENT * QUANTUM_EVENTS as f64 * 1e-9
}
