//! A fixed reference kernel that measures the host's speed during a run.
//!
//! On a shared virtual machine the CPU time of the same work drifted by
//! up to 1.7x within minutes, with the load of other guests (the CPU
//! clock leaves out time the host takes away, but not the slowdown a busy
//! neighbour causes in the code that does run). The kernel here runs
//! between the timed operations of a run, and its least CPU time gives
//! the host's speed at the quietest moments the run saw. The end-to-end
//! times are the program's least times scaled by [`NOMINAL_MS`] over the
//! kernel's: the program's cost on a host as fast as the one
//! [`NOMINAL_MS`] was taken on.
//!
//! The kernel is breadth-first search with a floating-point relaxation
//! per edge over a fixed pseudo-random graph in CSR form: the access
//! pattern of the flow kernels (indirect loads, data-dependent branches)
//! but none of the program's code, so a change to the program cannot move
//! it. Its graph, about 1.7 MB with the search state, is the same in
//! every run.

use crate::cpu;

/// The kernel's least CPU time on an otherwise idle 2-vCPU KVM guest
/// (Intel Xeon), in ms.
pub const NOMINAL_MS: f64 = 14.0;
/// Nodes of the graph.
const NODES: usize = 16_384;
/// Out-edges per node.
const DEGREE: usize = 8;
/// Searches per sample, each from its own source.
const SEARCHES: usize = 12;

/// The graph, scratch space and each search's least CPU time so far.
pub struct Reference {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<f64>,
    level: Vec<u32>,
    dist: Vec<f64>,
    queue: Vec<u32>,
    least_ms: [f64; SEARCHES],
    samples: usize,
}

impl Default for Reference {
    fn default() -> Reference {
        Reference::new()
    }
}

impl Reference {
    /// Build the graph (the same on every call).
    pub fn new() -> Reference {
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let targets = (0..NODES * DEGREE)
            .map(|_| (next() % NODES as u64) as u32)
            .collect();
        let weights = (0..NODES * DEGREE)
            .map(|_| (next() % 1000) as f64 / 100.0 + 0.5)
            .collect();
        Reference {
            offsets: (0..=NODES).map(|v| (v * DEGREE) as u32).collect(),
            targets,
            weights,
            level: vec![0; NODES],
            dist: vec![0.0; NODES],
            queue: Vec::with_capacity(NODES),
            least_ms: [f64::INFINITY; SEARCHES],
            samples: 0,
        }
    }

    /// Run the kernel `times` times, keeping each search's least CPU time.
    pub fn sample(&mut self, times: usize) {
        for _ in 0..times {
            for s in 0..SEARCHES {
                let c0 = cpu::process_s();
                std::hint::black_box(self.search(s * NODES / SEARCHES));
                let ms = (cpu::process_s() - c0) * 1e3;
                self.least_ms[s] = self.least_ms[s].min(ms);
            }
            self.samples += 1;
        }
    }

    /// The kernel's time at the quietest moments of the run: the sum of
    /// the searches' least times. Like the operations' floors, it is a sum
    /// of many minima, each of which alone moved by several per cent
    /// between runs.
    fn least_total_ms(&self) -> f64 {
        self.least_ms.iter().sum()
    }

    /// The factor that scales a CPU time taken in this run to the host
    /// speed of [`NOMINAL_MS`].
    pub fn scale(&self) -> f64 {
        NOMINAL_MS / self.least_total_ms()
    }

    /// One line for the run's output.
    pub fn describe(&self) -> String {
        format!(
            "reference kernel: {:.4} ms over {} samples (nominal {NOMINAL_MS} ms), scale {:.4}",
            self.least_total_ms(),
            self.samples,
            self.scale()
        )
    }

    /// One search from `source`; returns a checksum so the work cannot be
    /// elided.
    fn search(&mut self, source: usize) -> f64 {
        self.level.fill(u32::MAX);
        self.dist.fill(f64::INFINITY);
        self.queue.clear();
        self.level[source] = 0;
        self.dist[source] = 0.0;
        self.queue.push(source as u32);
        let mut head = 0;
        while head < self.queue.len() {
            let v = self.queue[head] as usize;
            head += 1;
            for e in self.offsets[v] as usize..self.offsets[v + 1] as usize {
                let w = self.targets[e] as usize;
                let d = self.dist[v] + self.weights[e];
                if d < self.dist[w] {
                    self.dist[w] = d;
                }
                if self.level[w] == u32::MAX {
                    self.level[w] = self.level[v] + 1;
                    self.queue.push(w as u32);
                }
            }
        }
        self.dist.iter().filter(|d| d.is_finite()).sum()
    }
}
