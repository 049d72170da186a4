//! Machine-speed calibration.
//!
//! On the shared 2-core reference VM the machine's speed swings by up to
//! ~2× in phases of tens of milliseconds to tens of seconds, set by
//! other tenants (steal time stays under 1%, so CPU time moves with wall
//! time). Every absolute time of a run moves with it, while ratios such
//! as `speedup_geomean` stay put. A run therefore times a fixed probe
//! just before its samples ([`Speed`]) and scales every sample by the
//! factor of that probe: the geometric mean over the probe's parts of
//! reference time / time.
//!
//! The probe is written here and uses no repository code, so no change
//! to the program can move it. Its parts bracket what the workloads do:
//! a sparse matrix-vector product larger than the per-core L2 (the
//! large `paper-spmv` members), the same on a matrix that stays in
//! cache (the kernels' inner loops), and a hash map of fresh strings
//! plus a sort (the allocation and pointer work of compiling and
//! binding). A workload's kernel runs are scaled by the parts that match
//! where its data lives ([`Parts`]). When the machine slows, code that runs from
//! cache slows more than code that waits on memory: with the memory
//! part in its probe, `paper-tensor`'s scaled medians still rose ~15%
//! in the slow phase, while `paper-spmv`'s need that part (without it,
//! its spread over eight runs in a slow phase stayed at ~10%; with it,
//! 2–4%).

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::stats::median;

/// Reference times of the parts, ns: about their times on the reference
/// VM in its fast phase.
const MEMORY_REFERENCE_NS: f64 = 200_000.0;
const CACHE_REFERENCE_NS: f64 = 170_000.0;
const ALLOC_REFERENCE_NS: f64 = 430_000.0;

/// Stored entries per row of both sparse parts.
const ROW_NNZ: usize = 16;
/// Rows of the memory part's matrix (~3 MiB, more than the per-core L2).
const MEMORY_ROWS: usize = 16 * 1024;
/// Rows of the cache part's matrix (8K entries, ~100 KiB with the
/// vector, well inside the per-core L2).
const CACHE_ROWS: usize = 512;
/// Passes of the cache part over its matrix.
const CACHE_PASSES: usize = 32;
/// Keys the allocation part inserts.
const ALLOC_KEYS: u64 = 1500;

/// A sparse matrix stored by rows of [`ROW_NNZ`] entries (column
/// indices, values) and a vector.
struct Csr {
    col: Vec<u32>,
    val: Vec<f64>,
    x: Vec<f64>,
}

impl Csr {
    /// A banded pattern: row `i`'s columns lie in `i..i + band`
    /// (wrapping), drawn by a fixed xorshift.
    fn banded(rows: usize, band: usize) -> Csr {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut col = Vec::with_capacity(rows * ROW_NNZ);
        for i in 0..rows {
            let mut row: Vec<u32> = (0..ROW_NNZ)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    ((i + (state % band as u64) as usize) % rows) as u32
                })
                .collect();
            row.sort_unstable();
            col.extend(row);
        }
        let val = (0..col.len()).map(|k| (k % 13) as f64 * 0.25 + 0.5).collect();
        let x = (0..rows).map(|k| (k % 7) as f64 + 1.0).collect();
        Csr { col, val, x }
    }

    /// `passes` sparse matrix-vector products; returns the wall time, ns.
    fn time_ns(&self, passes: usize) -> f64 {
        let t0 = Instant::now();
        let mut total = 0.0;
        for _ in 0..passes {
            let rows =
                black_box(&self.col).chunks_exact(ROW_NNZ).zip(self.val.chunks_exact(ROW_NNZ));
            for (cols, vals) in rows {
                let mut acc = 0.0;
                for (&c, &v) in cols.iter().zip(vals) {
                    acc += v * self.x[c as usize];
                }
                total += acc;
            }
        }
        black_box(total);
        t0.elapsed().as_nanos() as f64
    }
}

/// The memory part: one product on a matrix larger than L2. Returns its
/// wall time in ns.
fn memory_ns() -> f64 {
    static DATA: OnceLock<Csr> = OnceLock::new();
    DATA.get_or_init(|| Csr::banded(MEMORY_ROWS, 512)).time_ns(1)
}

/// The cache part: repeated products on a matrix that stays in cache.
/// Returns its wall time in ns.
fn cache_ns() -> f64 {
    static DATA: OnceLock<Csr> = OnceLock::new();
    DATA.get_or_init(|| Csr::banded(CACHE_ROWS, CACHE_ROWS)).time_ns(CACHE_PASSES)
}

/// The allocation part: a hash map of freshly formatted keys, each with
/// a small vector, then a sort of its keys. Returns its wall time in ns.
fn alloc_ns() -> f64 {
    let t0 = Instant::now();
    let mut map = HashMap::new();
    for k in 0..black_box(ALLOC_KEYS) {
        map.insert(format!("key{}", k.wrapping_mul(2_654_435_761) % 10_007), vec![k; 4]);
    }
    let mut keys: Vec<&String> = map.keys().collect();
    keys.sort_unstable();
    black_box(keys.len());
    t0.elapsed().as_nanos() as f64
}

/// The parts a workload's kernel runs are scaled by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Parts {
    /// All three, for workloads whose data outgrows the per-core L2.
    All,
    /// The cache and allocation parts, for workloads whose data stays in
    /// cache.
    InCache,
}

/// The geometric mean of the parts' reference time / time.
fn runs_factor(runs: Parts, [memory, cache, alloc]: [f64; 3]) -> f64 {
    match runs {
        Parts::All => (memory * cache * alloc).cbrt(),
        Parts::InCache => (cache * alloc).sqrt(),
    }
}

/// Shortest gap between two probes before kernel runs, so probing them
/// stays ~2% of a run.
const PROBE_GAP: Duration = Duration::from_millis(40);

/// The machine speed over one phase of a run.
///
/// Kernel runs are scaled by the workload's [`Parts`]. Prepares and
/// set-ups (plan-cache lookups, compiling, binding data) are allocation
/// and pointer work on every workload, and are scaled by the cache and
/// allocation parts: on `paper-spmv`, whose runs need the memory part,
/// goodwin's binding times spread 5.5% over eight runs with all three
/// parts and 2.2% with those two.
pub struct Speed {
    /// The parts kernel runs are scaled by, or `None` for no probes
    /// (every factor is 1).
    runs: Option<Parts>,
    /// Reference time / time of the latest probe's memory (1 when not
    /// probed), cache and allocation parts.
    latest: [f64; 3],
    /// Kernel-run factor of every probe taken.
    factors: Vec<f64>,
    /// Factor returned by the latest tick (1 before any).
    current: f64,
    /// When the latest tick ended.
    last_tick: Option<Instant>,
    /// When the latest probe ended.
    last_probe: Option<Instant>,
    /// Wall time from the first tick to the latest, outside probes, at
    /// reference speed, s.
    scaled_s: f64,
}

impl Default for Speed {
    /// A speed whose kernel runs are scaled by all three parts.
    fn default() -> Speed {
        Speed::new(Parts::All)
    }
}

impl Speed {
    /// A speed whose kernel runs are scaled by `runs`.
    pub fn new(runs: Parts) -> Speed {
        Speed {
            runs: Some(runs),
            latest: [1.0; 3],
            factors: Vec::new(),
            current: 1.0,
            last_tick: None,
            last_probe: None,
            scaled_s: 0.0,
        }
    }

    /// A speed that never probes, for traced runs (their per-layer
    /// values are reported as measured).
    pub fn off() -> Speed {
        Speed { runs: None, ..Speed::default() }
    }

    /// The reference-speed time per measured time for kernel runs
    /// timed now.
    pub fn tick_runs(&mut self) -> f64 {
        self.tick(PROBE_GAP, runs_factor)
    }

    /// The reference-speed time per measured time for a prepare or
    /// set-up timed now. Always probes afresh: prepares take 0.2–20 ms,
    /// and the speed flips between phases ~2× apart faster than
    /// [`PROBE_GAP`], so a stale probe scales some of them by the other
    /// phase's factor, and those samples became `compile-cold`'s
    /// `update_p99_us`.
    pub fn tick_prepares(&mut self) -> f64 {
        self.tick(Duration::ZERO, |_, latest| runs_factor(Parts::InCache, latest))
    }

    /// Times a fresh probe, unless the latest one was under `gap` ago,
    /// and returns `factor` of the latest probe.
    fn tick(&mut self, gap: Duration, factor: impl Fn(Parts, [f64; 3]) -> f64) -> f64 {
        let Some(runs) = self.runs else { return 1.0 };
        if let Some(t) = self.last_tick {
            self.scaled_s += t.elapsed().as_secs_f64() * self.current;
        }
        if self.last_probe.is_none_or(|t| t.elapsed() >= gap) {
            let memory = match runs {
                Parts::All => MEMORY_REFERENCE_NS / memory_ns(),
                Parts::InCache => 1.0,
            };
            self.latest =
                [memory, CACHE_REFERENCE_NS / cache_ns(), ALLOC_REFERENCE_NS / alloc_ns()];
            self.factors.push(runs_factor(runs, self.latest));
            self.last_probe = Some(Instant::now());
        }
        self.current = factor(runs, self.latest);
        self.last_tick = Some(Instant::now());
        self.current
    }

    /// Runs `f`, a set-up, and returns its result with its wall time at
    /// reference speed, s, scaled by the geometric mean of the factors
    /// before and after it (the speed can change while it runs).
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.tick_prepares();
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed().as_secs_f64();
        (out, dt * (before * self.tick_prepares()).sqrt())
    }

    /// Wall time from the first tick to now, leaving out the probes, at
    /// reference speed, s.
    pub fn scaled_seconds(&self) -> f64 {
        self.scaled_s + self.last_tick.map_or(0.0, |t| t.elapsed().as_secs_f64() * self.current)
    }

    /// Median kernel-run factor of the probes taken (1 before any).
    pub fn median_factor(&self) -> f64 {
        if self.factors.is_empty() {
            1.0
        } else {
            median(&self.factors)
        }
    }

    /// Number of probes taken.
    pub fn probes(&self) -> usize {
        self.factors.len()
    }
}
